import pathlib
import re
import runpy
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def test_qpe_demo_reads_lowest_eigenvalue_within_resolution(capsys):
    runpy.run_path(str(SCRIPTS / "qpe_demo.py"), run_name="__main__")
    out = capsys.readouterr().out
    resolutions = [float(r) for r in re.findall(r"resolution=([0-9.]+)", out)]
    errors = [float(e) for e in re.findall(r"error ([0-9.]+)\)", out)]
    assert len(resolutions) == 2 and len(errors) == 6   # both routes, three evolutions
    assert max(errors) <= min(resolutions)


def test_run_scans_writes_three_csv_tables(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["run_scans.py", str(tmp_path)])
    runpy.run_path(str(SCRIPTS / "run_scans.py"), run_name="__main__")
    for name, rows in (("sparsity.csv", 4), ("trotter.csv", 6), ("commutator.csv", 5)):
        lines = (tmp_path / name).read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + rows   # header plus one row per size or step count
    assert capsys.readouterr().out.count("wrote ") == 3
