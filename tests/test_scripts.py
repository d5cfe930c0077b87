"""Smoke test: each script under scripts/ runs end to end on small inputs."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
# What a script's run below must print besides "Wrote".  The threshold map
# probes l = 5 > 2k, where m* = 2k.
PRINTED = {"threshold_map.py": "3/3 grid points flip as predicted\n"}


@pytest.mark.parametrize("name, args, outputs", [
    ("counterexample_study.py",
     ["--r-max", "20", "--nodes-per-decade", "8", "--sphere-count", "32"],
     ["study.json", "envelopes.csv"]),
    ("rate_sweep.py", ["--r-max", "1e3", "--l-values", "0", "0.5"],
     ["rate_sweep.json", "rate_sweep.csv"]),
    ("threshold_map.py",
     ["--l-values", "0", "1", "5", "--gamma-values", "1", "--probe", "--r-max", "50"],
     ["threshold_map.json", "threshold_map.csv"]),
])
def test_script_runs(name, args, outputs, tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(name[:-3], SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [name, *args, "--outdir", str(tmp_path)])
    assert module.main() == 0
    for output in outputs:
        assert (tmp_path / output).stat().st_size > 0
    out = capsys.readouterr().out
    assert "Wrote" in out and PRINTED.get(name, "") in out
