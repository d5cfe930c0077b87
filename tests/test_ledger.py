"""The work ledger: each row of tests/data/work_ledger.json, counted by
scripts/bench_record.py, reads its exact counts."""

import json
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ROWS = json.loads((ROOT / "tests" / "data" / "work_ledger.json").read_text())
BENCH = runpy.run_path(str(ROOT / "scripts" / "bench_record.py"))


@pytest.mark.parametrize("row", ROWS, ids=[row["name"] for row in ROWS])
def test_work_ledger(row, monkeypatch):
    # Counts, not times: a change that does more or less work changes its row.
    monkeypatch.chdir(ROOT)  # the specs and tables come from the checkout's perfbench
    assert BENCH["row_counts"](row) == row["counts"]
