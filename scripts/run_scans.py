#!/usr/bin/env python3
"""Run the three scaling scans and write their CSV outputs under results/.

Usage: python scripts/run_scans.py [output_dir]
"""

import pathlib
import sys

from qpencil import cli


def main():
    out_dir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "results")
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = [
        ("sparsity.csv", ["scan-sparsity", "--k", "1", "--m", "4",
                          "--sizes", "64,128,256,512"]),
        ("trotter.csv", ["scan-trotter", "--time", "1.0",
                         "--steps", "4,8,16,32,64,128"]),
        ("commutator.csv", ["scan-commutator", "--sizes", "8,16,32,64,128"]),
    ]
    for name, args in jobs:
        target = out_dir / name
        code = cli.main([*args, "--format", "csv", "--out", str(target)])
        if code:
            sys.exit(code)
        print(f"wrote {target}")
        print(target.read_text(), end="")
        print("-" * 60)


if __name__ == "__main__":
    main()
