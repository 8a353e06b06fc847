"""The koszul benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload survey|heavy|cli --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One client runs passes back to back, each
pass in a fresh child process (``child.py``) with ``KOSZUL_THREADS`` unset;
a pass runs every operation of the workload once, in an order drawn from the
seed.  Passes repeat until ``--seconds`` would be exceeded (at least one
pass).  Every output is judged against ``digests.json``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
median pass wall time, median set-up time (import, algebra loading, module
construction; sampled in extra set-up-only children too), median peak RSS
of the pass children and the share of operations that succeeded.  With
``--trace 1`` untraced and traced passes alternate and the line reports the
per-layer metrics of ``spans.py`` plus the tracing overhead.  Times are in
reference seconds, corrected for the shared host's speed (``hostspeed.py``);
the raw wall times are printed on the line before and kept, with per-pass
outcomes and spans, under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

from spans import metric_unit
from workloads import WORKLOADS, expectations

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 150
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}


class BenchError(RuntimeError):
    pass


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "commit": git_commit(root),
    }


def run_child(root: Path, env: dict, *args: str) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out after {CHILD_TIMEOUT_S}s: {cmd}") from exc
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {cmd}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def judge(expect: str, outcome: dict, ref) -> bool:
    """Whether one operation succeeded; see workloads.CLI for the classes."""
    code, verdict = outcome.get("exit"), outcome.get("verdict")
    if expect == "edge":
        return code == 2 or (code == 0 and verdict == "pass")
    if outcome.get("digest") != ref:
        return False
    if expect == "witness":
        return code == 1 and verdict == "fail" and bool(outcome.get("witness"))
    return code == 0 and verdict in ("pass", None)


def child_env(root: Path) -> dict:
    # Bytecode is written and reused, as for an installed package, so that
    # set-up time does not depend on whether the checkout was compiled.
    drop = ("KOSZUL_THREADS", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"  # one hash layout for every pass
    return env


def measure(workload: str, seed: int, seconds: float, trace: bool, root: Path,
            env_info: dict) -> dict:
    env = child_env(root)
    base = ["--workload", workload, "--seed", str(seed)]
    out_dir = HERE / "out"

    run_child(root, env, *base, "--setup-only")  # untimed: fills the bytecode cache
    setup_runs = [run_child(root, env, *base, "--setup-only") for _ in range(SETUP_SAMPLES)]
    passes = []  # (traced, result)
    start = monotonic()
    rounds = 0
    while True:
        for traced in ((False, True) if trace else (False,)):
            args = [*base, "--pass-index", str(rounds)]
            if traced:
                spans = out_dir / f"spans-{workload}-seed{seed}-pass{rounds}.json"
                args += ["--trace", "--spans-out", str(spans)]
            passes.append((traced, run_child(root, env, *args)))
        rounds += 1
        elapsed = monotonic() - start
        if elapsed + elapsed / rounds > seconds:
            break

    refs = json.loads((HERE / "digests.json").read_text())[workload]
    expect = expectations(workload)
    attempted = failed = 0
    correct = True
    for _, result in passes:
        for key, kind in expect.items():
            ok = judge(kind, result["ops"][key], refs.get(key))
            attempted += 1
            failed += not ok
            correct &= ok or kind == "edge"

    setup_runs += [r for _, r in passes]
    setups = [r["setup_s"] for r in setup_runs]
    raw_setups = [r["setup_raw_s"] for r in setup_runs]
    plain = [r for traced, r in passes if not traced]
    if trace:
        traced_runs = [r for t, r in passes if t]
        metrics = {name: (statistics.median(r["layers"][name] for r in traced_runs),
                          metric_unit(name))
                   for name in traced_runs[0]["layers"]}
        traced_wall = statistics.median(r["wall_s"] for r in traced_runs)
        plain_wall = statistics.median(r["wall_s"] for r in plain)
        metrics["trace.traced_wall_s"] = (traced_wall, "s")
        metrics["trace.untraced_wall_s"] = (plain_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    else:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "ok_ratio": (attempted - failed) / attempted,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}

    raw = {"wall_raw_s": statistics.median(r["wall_raw_s"] for r in plain),
           "setup_raw_s": statistics.median(raw_setups)}
    print("raw " + json.dumps(raw))
    record = {"workload": workload, "seed": seed, "trace": trace, "environment": env_info,
              "setup_s": setups, "raw": raw,
              "passes": [{"traced": t, **r} for t, r in passes]}
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"run-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "koszul" / "__init__.py").is_file():
        print(f"error: {root} has no src/koszul; run from the root of a checkout",
              file=sys.stderr)
        return 2
    env_info = environment(root)
    print("env " + json.dumps(env_info), flush=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), root,
                         env_info)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
