"""The traced bench pass still runs against the current koszul names.

``perfbench/spans.py`` wraps koszul functions and methods by name from
outside the package, so renaming one of them breaks
``perfbench/run.py --trace 1`` without any other test noticing.  This runs
one traced cli pass of ``perfbench/child.py`` in a subprocess and checks
that every operation is judged a success and that every per-layer metric
the benchmark declares is reported.  It only reads ``perfbench/``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

# perfbench's modules import each other by bare name; write no bytecode there
sys.path.insert(0, str(PERFBENCH))
_dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
try:
    from run import judge
    from workloads import expectations
finally:
    sys.dont_write_bytecode = _dont_write
    sys.path.remove(str(PERFBENCH))


def test_traced_cli_pass_runs_and_reports_every_layer():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("KOSZUL_THREADS", None)
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "--workload", "cli", "--seed", "1", "--trace"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    refs = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))["cli"]
    expect = expectations("cli")
    assert set(result["ops"]) == set(expect)
    for key, kind in expect.items():
        assert judge(kind, result["ops"][key], refs.get(key)), (key, result["ops"][key])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    wanted = {m["name"] for m in declared if not m["name"].startswith("trace.")}
    assert wanted <= set(result["layers"])
