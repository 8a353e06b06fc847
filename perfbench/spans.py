"""Stage spans and linear-algebra counters, attached to koszul from outside.

``Tracer.install()`` replaces each traced function at every name a koszul
module binds it under (``koszul.duality.express_in_span`` as well as
``koszul.linalg.express_in_span``), so calls are seen wherever the caller
looks the function up.  Methods of ``RowReduction``, ``IncrementalSpan`` and
``LieAlgebra`` are wrapped on the class.  Nothing under ``src/`` changes.

Spans are kept in memory as ``[name, op, start, end, parent]`` rows and
written out by the caller when the pass ends.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

# Metric prefix -> (module, function).  The prefix names the module that
# defines the function.
TRACED = {
    "duality.verify_duality": ("koszul.duality", "verify_duality"),
    "duality.build_psi": ("koszul.duality", "build_psi"),
    "duality.inclusion_map": ("koszul.duality", "inclusion_map"),
    "duality.h_of": ("koszul.duality", "h_of"),
    "equivariant.invariant_subcomplex": ("koszul.equivariant", "invariant_subcomplex"),
    "equivariant.cartan_model": ("koszul.equivariant", "cartan_model"),
    "weil.weil_model": ("koszul.weil", "weil_model"),
    "weil.twist_operators": ("koszul.weil", "twist_operators"),
    "modules.tensor_module": ("koszul.modules", "tensor_module"),
    "transgression.primitive_basis": ("koszul.transgression", "primitive_basis"),
    "transgression.distinguished_transgression": (
        "koszul.transgression", "distinguished_transgression"),
    "complexes.check_chain_map": ("koszul.complexes", "check_chain_map"),
    "complexes.quasi_iso_check": ("koszul.complexes", "quasi_iso_check"),
    "complexes.cohomology": ("koszul.complexes", "cohomology"),
    "linalg.express_in_span": ("koszul.linalg", "express_in_span"),
    "linalg.complement_basis": ("koszul.linalg", "complement_basis"),
    "linalg.kernel_basis": ("koszul.linalg", "kernel_basis"),
}
ROW_REDUCTION = "linalg.row_reduction"
CLI_COMMANDS = ("validate", "cohomology", "weil-check", "transgress", "duality")
SPAN_NAMES = (*TRACED, ROW_REDUCTION, *(f"cli.main.{c}" for c in CLI_COMMANDS))
CALL_COUNTED = ("linalg.express_in_span", "linalg.complement_basis", "linalg.kernel_basis")
COUNTERS = (
    "linalg.eliminations",
    "linalg.tracked_eliminations",
    "linalg.elim_rows",
    "linalg.elim_cols",
    "linalg.elim_nnz",
    "linalg.elim_rank",
    "linalg.span_inserts",
    "linalg.span_insert_hits",
    "lie.c.calls",
    "lie.bracket.calls",
)


def metric_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    return "ratio" if name == "linalg.rank_per_row" else "count"


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, op, start, end, parent index or -1]
        self.stack: list = []
        self.counts: Counter = Counter()
        self.op = None  # key of the operation running now

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.op, perf_counter(), None, parent])
        self.stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][3] = perf_counter()
        self.stack.pop()

    def _span(self, name, fn):
        """fn wrapped in a span; name is a string or a function of the call's args."""
        named = callable(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._enter(name(args, kwargs) if named else name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(idx)

        return wrapper

    def install(self) -> None:
        import koszul.cli  # loads every koszul module
        from koszul.lie import LieAlgebra
        from koszul.linalg import IncrementalSpan, RowReduction

        replace = {}
        for name, (modname, fname) in TRACED.items():
            orig = getattr(sys.modules[modname], fname)
            replace[id(orig)] = self._span(name, orig)
        replace[id(koszul.cli.main)] = self._span(_cli_span_name, koszul.cli.main)
        for modname, mod in list(sys.modules.items()):
            if modname != "koszul" and not modname.startswith("koszul."):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in replace:
                    setattr(mod, attr, replace[id(val)])

        counts = self.counts
        row_init = RowReduction.__init__
        timed_row_init = self._span(ROW_REDUCTION, row_init)

        def row_reduction_init(red, A, track=True):
            timed_row_init(red, A, track)
            counts["linalg.eliminations"] += 1
            counts["linalg.tracked_eliminations"] += bool(track)
            counts["linalg.elim_rows"] += A.rows
            counts["linalg.elim_cols"] += A.cols
            counts["linalg.elim_nnz"] += len(A.entries)
            counts["linalg.elim_rank"] += red.rank

        span_add = IncrementalSpan.add

        def add(span, v):
            hit = span_add(span, v)
            counts["linalg.span_inserts"] += 1
            counts["linalg.span_insert_hits"] += hit
            return hit

        lie_c, lie_bracket = LieAlgebra.c, LieAlgebra.bracket

        def c(g, k, i, j):
            counts["lie.c.calls"] += 1
            return lie_c(g, k, i, j)

        def bracket(g, i, j):
            counts["lie.bracket.calls"] += 1
            return lie_bracket(g, i, j)

        RowReduction.__init__ = row_reduction_init
        IncrementalSpan.add = add
        LieAlgebra.c = c
        LieAlgebra.bracket = bracket

    def metrics(self, seconds) -> dict:
        """Per-layer totals: inclusive and self seconds per span name, call
        counts of the linear-algebra entry points, and the counters.
        ``seconds(start, end)`` converts a span's interval to a duration."""
        out = {f"{n}.{k}": 0.0 for n in SPAN_NAMES for k in ("s", "self_s")}
        out.update({f"{n}.calls": 0 for n in CALL_COUNTED})
        durations = [seconds(start, end) for _, _, start, end, _ in self.spans]
        child_time = [0.0] * len(self.spans)
        for (_, _, _, _, parent), duration in zip(self.spans, durations):
            if parent >= 0:
                child_time[parent] += duration
        for idx, (name, _op, _start, _end, parent) in enumerate(self.spans):
            out[f"{name}.self_s"] += durations[idx] - child_time[idx]
            if not self._inside(name, parent):
                out[f"{name}.s"] += durations[idx]
            if name in CALL_COUNTED:
                out[f"{name}.calls"] += 1
        for name in COUNTERS:
            out[name] = self.counts[name]
        rows = self.counts["linalg.elim_rows"]
        out["linalg.rank_per_row"] = self.counts["linalg.elim_rank"] / rows if rows else 0.0
        return out

    def _inside(self, name: str, parent: int) -> bool:
        """Whether a span named `name` is already open above `parent`, so that
        inclusive time is not counted twice for nested calls."""
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][4]
        return False


def _cli_span_name(args, kwargs) -> str:
    """One span name per subcommand: main is called as main(argv)."""
    return f"cli.main.{args[0][0]}"
