"""One benchmark pass in a fresh process.

    python3 perfbench/child.py --workload survey --seed 1 --pass-index 0 [--trace] [--setup-only]

Imports koszul, builds the workload's inputs (the set-up, timed as
``setup_s``), then runs every operation once in an order drawn from
``(seed, pass index)``.  Prints one JSON object: set-up time, per-operation
time, exit class and output digest, peak RSS and, with ``--trace``, the
per-layer metrics.  Times are in reference seconds (see ``hostspeed.py``),
with the raw wall times beside them.  Judging the outputs is left to
``run.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import random
import resource
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from hostspeed import HostSpeed
from workloads import op_key, operations


def build_module(kind: str, g):
    from koszul.lie import adjoint_matrices
    from koszul.modules import (
        exterior_model,
        polynomial_forms_module,
        tensor_module,
        trivial_module,
    )

    if kind == "trivial":
        return trivial_module(g)
    if kind == "exterior":
        return exterior_model(g)
    if kind == "forms d=1":
        _, coad = adjoint_matrices(g)
        return polynomial_forms_module(g, coad, poly_degree=1)
    if kind == "exterior⊗exterior":
        ext = exterior_model(g)
        return tensor_module(ext, ext)
    raise ValueError(f"unknown module kind {kind!r}")


def set_up(workload: str) -> list:
    """(key, runner) per operation; runners return an outcome dict."""
    ops = operations(workload)
    if workload == "cli":
        import koszul.cli

        return [(op_key(workload, op), _cli_runner(koszul.cli, op[0])) for op in ops]
    import koszul.duality
    from koszul.complexes import Truncation
    from koszul.lie import builtin_algebra

    out = []
    for op in ops:
        algebra, kind, window = op
        M = build_module(kind, builtin_algebra(algebra))
        out.append((op_key(workload, op), _duality_runner(koszul.duality, M, Truncation(window))))
    return out


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _duality_runner(duality, M, trunc):
    def run():
        # Looked up at call time, so a traced pass reaches the wrapper.
        t0 = perf_counter()
        try:
            report, _ = duality.verify_duality(M, trunc)
        except Exception:  # recorded and judged as a failed operation
            return {"interval": (t0, perf_counter()), "exit": None,
                    "traceback": traceback.format_exc()}
        interval = (t0, perf_counter())
        return {"interval": interval, "exit": 0 if report.verdict else 1,
                "verdict": "pass" if report.verdict else "fail",
                "digest": _digest(report.to_json())}
    return run


def _cli_runner(cli, argv):
    def run():
        out, err = io.StringIO(), io.StringIO()
        tb = None
        t0 = perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
            except Exception:  # recorded and judged as a failed operation
                code, tb = None, traceback.format_exc()
        stdout = out.getvalue()
        result = {"interval": (t0, perf_counter()), "exit": code}
        if tb is not None:
            result["traceback"] = tb
            return result
        try:
            payload = json.loads(stdout) if stdout else {}
        except ValueError:
            payload = {}
        result["verdict"] = payload.get("verdict")
        result["witness"] = any(
            isinstance(v, dict) and "witness" in v for v in payload.values())
        result["stderr"] = err.getvalue()[-500:]
        result["digest"] = _digest(f"{code}\n{stdout}")
        return result
    return run


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pass-index", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans-out", type=Path)
    args = p.parse_args(argv)

    tracer = None
    outcomes, times = {}, {}
    with HostSpeed() as speed:
        t0 = perf_counter()
        ops = set_up(args.workload)
        t1 = perf_counter()
        if not args.setup_only:
            if args.trace:
                from spans import Tracer

                tracer = Tracer()
                tracer.install()
            order = list(range(len(ops)))
            random.Random(f"{args.seed}/{args.pass_index}").shuffle(order)
            for i in order:
                key, run = ops[i]
                if tracer is not None:
                    tracer.op = key
                outcomes[key] = run()
                times[key] = outcomes[key].pop("interval")

    result = {"setup_s": speed.seconds(t0, t1), "setup_raw_s": t1 - t0}
    if not args.setup_only:
        for key, (start, end) in times.items():
            outcomes[key]["seconds"] = speed.seconds(start, end)
            outcomes[key]["raw_seconds"] = end - start
        result["ops"] = outcomes
        result["order"] = list(times)
        result["wall_s"] = sum(o["seconds"] for o in outcomes.values())
        result["wall_raw_s"] = sum(o["raw_seconds"] for o in outcomes.values())
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = tracer.metrics(speed.seconds)
        if args.spans_out is not None:
            args.spans_out.parent.mkdir(parents=True, exist_ok=True)
            args.spans_out.write_text(json.dumps({
                "fields": ["name", "op", "start", "end", "parent"],
                "spans": tracer.spans,
                "probes": {"starts": speed.starts, "durations": speed.durations},
            }))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
