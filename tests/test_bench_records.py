"""The committed bench records (BENCH_*.json at the repository root).

Each record is one run of ``perfbench/run.py`` in its ``out/run-*.json``
schema.  Every operation of every pass must have succeeded as the
benchmark itself judges it (``run.judge`` against the workload's
``expectations`` and the output digests in ``perfbench/digests.json``);
a record that fails this was taken on code that gave different answers.
This test only reads those files.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))

# perfbench's modules import each other by bare name; write no bytecode there
sys.path.insert(0, str(PERFBENCH))
_dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
try:
    from run import judge
    from workloads import expectations
finally:
    sys.dont_write_bytecode = _dont_write
    sys.path.remove(str(PERFBENCH))


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_bench_record_reproduces_digests(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    workload = record["workload"]
    expect, digests = expectations(workload), DIGESTS[workload]
    assert record["passes"]
    for run in record["passes"]:
        assert set(run["ops"]) == set(run["order"]) == set(expect)
        for key, outcome in run["ops"].items():
            assert judge(expect[key], outcome, digests.get(key)), (path.name, key)
