"""The golden outputs frozen under perfbench/golden/ stay reproduced.

Runs ``perfbench/golden.py``'s comparison in-process (about 2 s): solve,
classify, sandwich, sweep and verify on a fixed spec set, compared with the
frozen files byte for byte and, where bytes differ, number by number.
"""

import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_golden_outputs_reproduced(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # golden.py works under ./perfbench/out/golden
    monkeypatch.syspath_prepend(PERFBENCH)
    import golden

    _, _, problems = golden.compare()
    assert problems == []
