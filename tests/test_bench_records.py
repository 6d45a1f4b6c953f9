"""Every BENCH_*.json record at the repository root states what it measured and how.

A record gives before and after numbers for one change; it is comparable
with another only when the machine and the thread counts are stated.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
REQUIRED = ("label", "change", "claim", "machine", "blas_threads", "zetalab_threads")


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_states_its_setting(path):
    record = json.loads(path.read_text())
    assert isinstance(record, dict)
    missing = [key for key in REQUIRED if key not in record]
    assert not missing, f"{path.name} lacks {missing}"
    assert record["label"] == path.stem.removeprefix("BENCH_")
