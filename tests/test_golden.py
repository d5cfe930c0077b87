"""The benchmark under perfbench/ still works on this checkout.

The golden outputs frozen under perfbench/golden/ stay reproduced: runs
``perfbench/golden.py``'s comparison in-process (about 2 s): solve,
classify, sandwich, sweep and verify on a fixed spec set, compared with the
frozen files byte for byte and, where bytes differ, number by number.  And
the benchmark's self-tests (``perfbench/run.py --selftest``, about 0.5 s)
pass, so a change that breaks its checks or executors fails here.
"""

import os
import subprocess
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_golden_outputs_reproduced(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # golden.py works under ./perfbench/out/golden
    monkeypatch.syspath_prepend(PERFBENCH)
    import golden

    _, _, problems = golden.compare()
    assert problems == []


def test_benchmark_selftest_passes():
    root = os.path.dirname(PERFBENCH)
    result = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), "--selftest"],
                            cwd=root, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
