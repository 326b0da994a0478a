"""Locate and import the qpencil sources of the checkout this benchmark sits in.

The benchmark runs the program from ``src/`` next to its own directory and
never from an installed copy.  BLAS is pinned to one thread before numpy
loads, so every run is the plain single-threaded baseline on any machine.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "bench" / "results"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ProgramMissing(RuntimeError):
    """The checkout holds no qpencil sources to benchmark."""


def pin_blas_threads(env=os.environ) -> None:
    for name in BLAS_THREAD_VARS:
        env[name] = "1"


def load_qpencil():
    """Import ``qpencil`` (with its CLI module) from the checkout's ``src/``."""
    init = SRC / "qpencil" / "__init__.py"
    if not init.is_file():
        raise ProgramMissing(f"no qpencil sources at {init.parent}")
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import qpencil
    import qpencil.cli  # noqa: F401  (the package does not import its CLI)

    if Path(qpencil.__file__).resolve() != init.resolve():
        raise ProgramMissing(f"qpencil resolved to {qpencil.__file__}, not {init}")
    return qpencil
