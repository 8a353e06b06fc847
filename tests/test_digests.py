"""Every benchmark operation reproduces its recorded output, in-process.

The survey, heavy and cli operations are built by ``perfbench/child.py``'s
``set_up`` and run once each; the sha256 of each output must equal the one
in ``perfbench/digests.json`` (``DualityReport.to_json()`` for survey and
heavy, exit code plus stdout for cli).  Operations without a recorded
digest (the two cli window-edge calls) are not judged here.  This test only
reads ``perfbench/``.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))

# perfbench's modules import each other by bare name; write no bytecode there
sys.path.insert(0, str(PERFBENCH))
_dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
try:
    from child import set_up
finally:
    sys.dont_write_bytecode = _dont_write
    sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_operations_reproduce_recorded_digests(workload):
    digests = DIGESTS[workload]
    ops = dict(set_up(workload))
    assert set(digests) <= set(ops)
    for key, want in sorted(digests.items()):
        outcome = ops[key]()
        assert "traceback" not in outcome, (key, outcome.get("traceback"))
        assert outcome["digest"] == want, key
