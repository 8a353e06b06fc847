"""Frozen operation lists of the benchmark workloads.

Each workload is a tuple of operations; one pass runs every operation once,
in an order drawn from the pass seed.  The lists are copies, not imports
from ``scripts/``, so that editing a script cannot change what the
benchmark measures.  Why each workload exists is recorded in
``BENCHMARK.json``.
"""

# (algebra, module kind, window N): the 14 cases of scripts/duality_survey.py,
# each run through koszul.duality.verify_duality(M, Truncation(N)).
SURVEY = (
    ("abelian1", "trivial", 6),
    ("abelian1", "exterior", 8),
    ("abelian1", "forms d=1", 5),
    ("abelian2", "exterior", 8),
    ("abelian2", "exterior⊗exterior", 5),
    ("su2", "trivial", 8),
    ("su2", "exterior", 8),
    ("su2", "forms d=1", 8),
    ("su2", "exterior⊗exterior", 6),
    ("sl2", "trivial", 8),
    ("sl2", "exterior", 8),
    ("sl2", "forms d=1", 6),
    ("su2xsu2", "trivial", 8),
    ("su2xsu2", "exterior", 4),
)

# The largest matrices the verifier builds today: a 32016x5336 invariant
# kernel at degree 6 of W⊗Λ(su2xsu2)*.
HEAVY = (("su2xsu2", "exterior", 6),)

# (argv, expected outcome class) passed in-process to koszul.cli.main.
#   pass:    exit 0, verdict "pass" where the payload has one, digest matches.
#   witness: exit 1 with a chain-map witness and verdict "fail", digest matches
#            (the negative control).
#   edge:    a window-edge call; exit 0 with a pass verdict, or exit 2, is
#            success.  A traceback or exit 1 is a failure.  Both edge calls
#            fail on the commit the digests were recorded on; they stay in the
#            workload so that the defects show in its failure count.
CLI = (
    (("weil-check", "--algebra", "su2xsu2", "--max-degree", "8",
      "--format", "json"), "pass"),
    (("transgress", "--algebra", "su2xsu2", "--max-degree", "8",
      "--format", "json"), "pass"),
    (("cohomology", "--algebra", "su2xsu2", "--module", "exterior",
      "--model", "cartan", "--max-degree", "8", "--format", "json"), "pass"),
    (("validate", "--algebra", "su2xsu2", "--module", "exterior",
      "--format", "json"), "pass"),
    (("duality", "--algebra", "su2xsu2", "--module", "exterior",
      "--max-degree", "4", "--corrupt-transgression", "--format", "json"), "witness"),
    (("duality", "--algebra", "abelian2", "--module", "exterior",
      "--max-degree", "1", "--format", "json"), "edge"),
    (("transgress", "--algebra", "su2", "--max-degree", "2",
      "--format", "json"), "edge"),
)

WORKLOADS = ("survey", "heavy", "cli")


def op_key(workload: str, op) -> str:
    """Stable name of one operation, used for digests and span ids."""
    if workload == "cli":
        return " ".join(op[0])
    algebra, kind, window = op
    return f"{algebra} {kind} {window}"


def operations(workload: str) -> tuple:
    return {"survey": SURVEY, "heavy": HEAVY, "cli": CLI}[workload]


def expectations(workload: str) -> dict:
    """Operation key -> expected outcome class (see CLI)."""
    if workload == "cli":
        return {op_key(workload, op): op[1] for op in CLI}
    return {op_key(workload, op): "pass" for op in operations(workload)}
