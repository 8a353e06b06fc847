import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from koszul.cli import main
from koszul.lie import BUILTIN_NAMES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_su2(capsys):
    code, out, _ = run(capsys, "validate", "--algebra", "su2")
    assert code == 0
    assert "verdict: pass" in out
    assert "Jacobi ok" in out


def test_validate_nonreductive(capsys, tmp_path):
    p = tmp_path / "aff.json"
    p.write_text(json.dumps({
        "name": "aff1", "dim": 2, "basis": ["x", "y"],
        "brackets": [{"i": 0, "j": 1, "terms": [{"k": 1, "c": "1"}]}],
    }))
    code, out, _ = run(capsys, "validate", "--algebra", str(p))
    assert code == 1
    assert "NotReductive" in out


def test_validate_malformed_json(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"name": ')
    code, _, err = run(capsys, "validate", "--algebra", str(p))
    assert code == 2
    assert "line" in err


def test_cohomology_invariant_model(capsys):
    code, out, _ = run(
        capsys, "cohomology", "--algebra", "su2", "--module", "exterior",
        "--model", "invariant", "--max-degree", "4", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["betti"] == {"0": 1, "1": 0, "2": 0, "3": 1}
    assert data["version"]
    assert data["config"]["algebra"] == "su2"


def test_cohomology_cartan_trivial(capsys):
    code, out, _ = run(
        capsys, "cohomology", "--algebra", "su2", "--module", "trivial",
        "--model", "cartan", "--max-degree", "6", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["betti"]["0"] == 1
    assert data["betti"]["4"] == 1
    assert data["betti"]["2"] == 0


def test_cohomology_plain_small_window(capsys):
    code, out, _ = run(
        capsys, "cohomology", "--algebra", "su2", "--module", "exterior",
        "--model", "plain", "--max-degree", "1", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["betti"] == {"0": 1}


def test_weil_check(capsys):
    code, out, _ = run(capsys, "weil-check", "--algebra", "su2",
                       "--max-degree", "6", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["maurer_cartan_ok"] is True
    assert data["acyclic"] is True


def test_transgress(capsys):
    code, out, _ = run(capsys, "transgress", "--algebra", "su2",
                       "--max-degree", "8")
    assert code == 0
    assert "degree 3" in out
    assert "1/2" in out


def test_duality_pass(capsys):
    code, out, _ = run(capsys, "duality", "--algebra", "su2",
                       "--module", "trivial", "--max-degree", "6",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "pass"


def test_duality_negative_control(capsys):
    code, out, _ = run(capsys, "duality", "--algebra", "su2",
                       "--module", "exterior", "--max-degree", "5",
                       "--corrupt-transgression", "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert data["verdict"] == "fail"
    assert data["psi_chain"]["ok"] is False
    assert data["psi_chain"]["witness"]["defect"]


def test_duality_negative_control_abelian_passes(capsys):
    code, out, _ = run(capsys, "duality", "--algebra", "abelian1",
                       "--module", "exterior", "--max-degree", "4",
                       "--corrupt-transgression", "--format", "json")
    assert code == 0


def test_unknown_module_spec(capsys):
    code, _, err = run(capsys, "cohomology", "--algebra", "su2",
                       "--module", "nonsense")
    assert code == 2
    assert "module spec" in err


@pytest.mark.parametrize("spec", ["abelian:x", "abelian:", "abelian:2:3", "abelian:-1"])
def test_bad_abelian_spec(capsys, spec):
    code, _, err = run(capsys, "validate", "--algebra", spec)
    assert code == 2
    assert err.startswith("input error:") and repr(spec) in err


@pytest.mark.parametrize("spec", ["forms:coadjoint:x", "forms:coadjoint:", "forms:adjoint:-1"])
def test_bad_forms_degree(capsys, spec):
    code, _, err = run(capsys, "validate", "--algebra", "su2", "--module", spec)
    assert code == 2
    assert err.startswith("input error:") and repr(spec) in err
    assert "integer D >= 0" in err and "invalid literal" not in err


@pytest.mark.parametrize("flags", [
    ("--algebra", "{dir}"),
    ("--algebra", "su2", "--module", "file:{missing}"),
    ("--algebra", "su2", "--module", "file:{dir}"),
], ids=["algebra-directory", "module-missing", "module-directory"])
def test_unreadable_input_paths(capsys, tmp_path, flags):
    argv = [f.format(dir=tmp_path, missing=tmp_path / "missing.json") for f in flags]
    code, _, err = run(capsys, "validate", *argv)
    assert code == 2
    assert err.startswith("input error:") and str(tmp_path) in err


def _algebra(entry=None, **fields):
    """aff1 with its one bracket entry replaced by `entry` and `fields` overridden."""
    entry = entry or {"i": 0, "j": 1, "terms": [{"k": 1, "c": "1"}]}
    return {"name": "aff1", "dim": 2, "basis": ["x", "y"], "brackets": [entry], **fields}


def _module(**fields):
    """A two-degree module file with `fields` overridden."""
    return {"degrees": {"0": ["a"], "1": ["b"]},
            "d": [{"degree": 0, "row": 0, "col": 0, "c": "1"}], "i": {}, **fields}


@pytest.mark.parametrize("flag,data", [
    ("--algebra", _algebra({"i": 0, "j": 1})),
    ("--algebra", _algebra({"i": 0, "j": 1, "terms": [{"c": "1"}]})),
    ("--algebra", _algebra({"i": "q", "j": 1, "terms": []})),
    ("--algebra", _algebra(dim="two")),
    ("--algebra", _algebra({"i": 0, "j": 1, "terms": [{"k": 1, "c": "1/0"}]})),
    ("--module", _module(d=[{"degree": 0, "row": 0, "c": "1"}])),
    ("--module", _module(i=[])),
    ("--module", _module(degrees=["a", "b"])),
    ("--module", _module(d=[{"degree": 0, "row": 0, "col": 0, "c": "1/0"}])),
    ("--algebra", _algebra(dim=1.5, basis=["t"], brackets=[])),
    ("--algebra", _algebra({"i": False, "j": 1, "terms": [{"k": 1, "c": "1"}]})),
    ("--module", _module(d=[{"degree": 0.7, "row": 0, "col": 0, "c": "1"}])),
    ("--module", _module(d=[{"degree": 0, "row": 0.0, "col": 0, "c": "1"}])),
    ("--module", _module(degrees={"0": ["a"], "00": ["b"]}, d=[])),
    ("--module", _module(i={"-1": [{"degree": 1, "row": 0, "col": 0, "c": "1"}]})),
    ("--module", _module(i={"3": []})),
    ("--module", _module(i={"01": []})),
    ("--algebra", _algebra(basis="xy")),
    ("--module", _module(degrees={"0": "ab", "1": ["c"]})),
    ("--module", _module(d=[{"degree": 0, "row": 0, "col": 0, "c": "1"},
                            {"degree": 0, "row": 0, "col": 0, "c": "5"}])),
], ids=["bracket-without-terms", "term-without-k", "index-not-int", "dim-not-int",
        "algebra-zero-denominator", "entry-without-col", "i-as-list", "degrees-as-list",
        "module-zero-denominator", "dim-float", "index-bool", "degree-float", "row-float",
        "degree-keys-collide", "i-key-negative", "i-key-past-dim", "i-key-leading-zero",
        "basis-as-string", "labels-as-string", "entry-given-twice"])
def test_malformed_json_is_an_input_error(capsys, tmp_path, flag, data):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    argv = ["--algebra", str(p)] if flag == "--algebra" else ["--algebra", "su2", "--module", f"file:{p}"]
    code, _, err = run(capsys, "validate", *argv)
    assert code == 2
    assert err.startswith("input error:") and "Traceback" not in err


def test_bad_max_degree(capsys):
    code, _, err = run(capsys, "validate", "--algebra", "su2",
                       "--max-degree", "0")
    assert code == 2


@pytest.mark.parametrize("command, stage", [
    (("validate",), "certify_reductive"),
    (("cohomology", "--model", "cartan"), "cartan_model"),
    (("weil-check",), "weil_model"),
    (("transgress",), "primitive_basis"),
    (("duality",), "verify_duality"),
])
def test_memory_error_is_an_input_error(capsys, monkeypatch, command, stage):
    """A window that does not fit in memory ends with exit 2 and a message
    naming the command and its window, not a traceback and exit 1.  The
    stage is patched to raise MemoryError; no memory is exhausted."""
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(f"koszul.cli.{stage}", exhausted)
    code, out, err = run(capsys, *command, "--algebra", "su2", "--max-degree", "2000")
    assert code == 2 and out == ""
    assert err == (f"input error: {command[0]} at --max-degree 2000 does not fit in memory; "
                   "choose a smaller window\n")


def test_exterior_algebra_is_built_once_per_algebra(capsys, monkeypatch):
    """Λ(g*) is one record of the algebra: validate, cohomology, weil-check,
    transgress and duality on one fresh su2xsu2 build it once between them."""
    from koszul import modules
    from koszul.lie import builtin_algebra

    built = []
    build_exterior = modules.build_exterior
    monkeypatch.setattr(modules, "build_exterior", lambda g: built.append(g) or build_exterior(g))
    builtin_algebra.cache_clear()
    for command in (["validate"], ["cohomology", "--model", "cartan"], ["weil-check"], ["transgress"],
                    ["duality"]):
        code, _, _ = run(capsys, *command, "--algebra", "su2xsu2", "--module", "exterior",
                         "--max-degree", "4")
        assert code == 0, command
    assert built == [builtin_algebra("su2xsu2")]


def test_shared_records_are_not_poisoned(capsys, monkeypatch):
    """A corrupted duality run leaves g's records as it found them: the
    honest run after it prints what the same call prints on a fresh copy of
    the algebra, and two distinct algebra objects share no record."""
    from pathlib import Path

    from koszul import cli
    from koszul.lie import builtin_algebra, lie_algebra_from_dict

    argv = ["duality", "--algebra", "su2xsu2", "--module", "exterior", "--max-degree", "4",
            "--format", "json"]
    g = builtin_algebra("su2xsu2")
    code, out, _ = run(capsys, *argv, "--corrupt-transgression")
    assert code == 1 and json.loads(out)["psi_chain"]["witness"]["defect"]
    code, honest, _ = run(capsys, *argv)
    assert code == 0 and cli.resolve_algebra("su2xsu2") is g
    data = json.loads((Path(cli.__file__).parent / "data" / "su2xsu2.json").read_text("utf-8"))
    fresh = lie_algebra_from_dict(data)
    monkeypatch.setattr(cli, "resolve_algebra", lambda spec: fresh)
    assert run(capsys, *argv) == (0, honest, "")
    assert fresh == g
    for record in ("_exterior", "_wedges", "_lambda_invariants", "_symmetric"):
        assert vars(fresh)[record] is not vars(g)[record], record
    assert fresh._exterior.d.blocks == g._exterior.d.blocks


def test_threads_env_validation(capsys, monkeypatch):
    monkeypatch.setenv("KOSZUL_THREADS", "zero")
    code, _, err = run(capsys, "validate", "--algebra", "su2")
    assert code == 2
    monkeypatch.setenv("KOSZUL_THREADS", "4")
    code, _, _ = run(capsys, "validate", "--algebra", "su2")
    assert code == 0


def test_json_outputs_deterministic(capsys):
    _, out1, _ = run(capsys, "duality", "--algebra", "su2", "--module",
                     "trivial", "--max-degree", "5", "--format", "json")
    _, out2, _ = run(capsys, "duality", "--algebra", "su2", "--module",
                     "trivial", "--max-degree", "5", "--format", "json")
    assert out1 == out2


def test_module_file_loading(capsys, tmp_path):
    p = tmp_path / "mod.json"
    p.write_text(json.dumps({
        "degrees": {"0": ["a"], "1": ["b"]},
        "d": [],
        "i": {},
    }))
    code, out, _ = run(capsys, "validate", "--algebra", "su2",
                       "--module", f"file:{p}")
    assert code == 0


def test_duality_rejects_negative_degrees(capsys, tmp_path):
    p = tmp_path / "neg.json"
    p.write_text(json.dumps({
        "degrees": {"-1": ["a"], "0": ["b"]},
        "d": [],
        "i": {},
    }))
    for N in (1, 3, 5):
        code, _, err = run(capsys, "duality", "--algebra", "su2",
                           "--module", f"file:{p}", "--max-degree", str(N))
        assert code == 2
        assert "degree -1" in err
    for model in ("invariant", "cartan"):
        code, _, _ = run(capsys, "cohomology", "--algebra", "su2", "--module",
                         f"file:{p}", "--model", model, "--max-degree", "3")
        assert code == 0


@pytest.mark.parametrize("model", ["invariant", "cartan"])
def test_cohomology_zero_lie_algebra(capsys, model):
    # g = 0: every vector is invariant, so both models are Λ(0) = Q
    code, out, _ = run(capsys, "cohomology", "--algebra", "abelian:0",
                       "--model", model, "--max-degree", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["betti"] == {"0": 1, "1": 0, "2": 0}


# sl3 (dim 8) stops at N = 4: its exterior window 5 alone takes seconds
SWEEP = [
    (cmd, alg, mod, N)
    for alg in (*BUILTIN_NAMES, "abelian:0")
    for N in range(1, 5 if alg == "sl3" else 7)
    for cmd, mod in [("duality", "trivial"), ("duality", "exterior"),
                     ("duality", "forms:coadjoint:1"), ("transgress", None),
                     ("weil-check", None)]
]


@pytest.mark.parametrize("cmd,alg,mod,N", SWEEP)
def test_small_window_sweep(capsys, cmd, alg, mod, N):
    """Small windows never crash or exit 1; a completed duality run passes."""
    argv = [cmd, "--algebra", alg, "--max-degree", str(N), "--format", "json"]
    if mod:
        argv += ["--module", mod]
    code, out, _ = run(capsys, *argv)
    assert code in (0, 2)
    if code == 0 and cmd == "duality":
        assert json.loads(out)["verdict"] == "pass"


# -- the exit-code contract under fuzzing ----------------------------------------

JUNK = st.one_of(st.sampled_from(["so5", "abelian:-1", "abelian:x", "forms:x", "file:"]), st.text(max_size=6))
JUNK_VALUE = st.sampled_from(["x", "1/0", -1, 1.5, True, None, [], {}])
COEFF = st.sampled_from(["1", "-1", "1/2", "0", 2])


def _maybe(strategy):
    """Mostly a well-typed value from strategy, at times a junk one."""
    return st.one_of(strategy, strategy, strategy, JUNK_VALUE)


def _record(fields):
    """A JSON object with the given fields, each drawn; at times some are missing."""
    return st.one_of(st.fixed_dictionaries(fields), st.fixed_dictionaries(fields),
                     st.fixed_dictionaries({}, optional=fields))


def _shapes(broken):
    """(maybe, record): a broken file mixes in junk values and missing keys;
    a well-formed one reaches the mathematical checks."""
    return (_maybe, _record) if broken else (lambda strategy: strategy, st.fixed_dictionaries)


@st.composite
def algebra_json(draw):
    """An algebra of dim <= 3 with random brackets (not Jacobi at dim 3, as
    a rule); a broken one has wrong types, a dim that does not match its
    basis, colliding labels and missing keys."""
    broken = draw(st.booleans())
    maybe, record = _shapes(broken)
    n = draw(st.integers(0, 3))
    index = st.integers(-1, 3) if broken else st.integers(0, max(n - 1, 0))
    basis = st.lists(st.sampled_from(["x", "y", 1]), max_size=4) if broken else st.just(["x", "y", "z"][:n])
    term = record({"k": maybe(index), "c": maybe(COEFF)})
    bracket = record({"i": maybe(index), "j": maybe(index), "terms": maybe(st.lists(term, max_size=2))})
    return draw(maybe(record({"name": maybe(st.text(max_size=3)), "dim": maybe(index if broken else st.just(n)),
                              "basis": maybe(basis), "brackets": maybe(st.lists(bracket, max_size=3))})))


@st.composite
def module_json(draw):
    """A module in degrees -1..2 of dim <= 2 with random d and i, at times
    with wrong types, colliding degree keys, empty bases and missing keys."""
    maybe, record = _shapes(draw(st.booleans()))
    index, degree = st.integers(0, 1), st.integers(-1, 2)
    entry = record({"degree": maybe(degree), "row": maybe(index), "col": maybe(index), "c": maybe(COEFF)})
    degrees = st.dictionaries(st.sampled_from(["-1", "0", "1", "2", "00", "+1"]),
                              maybe(st.lists(st.sampled_from(["a", "b", 1]), max_size=2)), max_size=3)
    i_ops = st.dictionaries(st.sampled_from(["0", "1", "2", "-1", "x"]), maybe(st.lists(entry, max_size=2)),
                            max_size=2)
    return draw(maybe(record({"degrees": maybe(degrees), "d": maybe(st.lists(entry, max_size=3)),
                              "i": maybe(i_ops)})))


ALGEBRA_ARG = st.one_of(st.sampled_from(["abelian:0", "abelian:1", "abelian:2", "su2", "sl2"]), JUNK,
                        algebra_json().map(lambda data: ("file", data)))
MODULE_ARG = st.one_of(
    st.sampled_from(["trivial", "exterior"]),
    st.builds("forms:{}:{}".format, st.sampled_from(["coadjoint", "adjoint", "x"]), st.integers(-1, 2)),
    JUNK, module_json().map(lambda data: ("file", data)))
COMMAND = st.one_of(
    st.sampled_from([["validate"], ["weil-check"], ["transgress"], ["duality"],
                     ["duality", "--corrupt-transgression"]]),
    st.sampled_from(["plain", "invariant", "cartan"]).map(lambda model: ["cohomology", "--model", model]))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=COMMAND, algebra=ALGEBRA_ARG, module=MODULE_ARG, N=st.integers(-1, 3),
       fmt=st.sampled_from(["text", "json"]))
# a path with a NUL byte, which open() refuses with a ValueError
@example(command=["validate"], algebra="\x00", module="trivial", N=1, fmt="text")
# a basis label given twice, which the first space built on it refuses
@example(command=["weil-check"], algebra=("file", {"name": "", "dim": 2, "basis": ["x", "x"], "brackets": []}),
         module="trivial", N=1, fmt="text")
# labels 1 and "a" in one representative, which the JSON report cannot sort
@example(command=["cohomology", "--model", "plain"], algebra="abelian:0", N=2, fmt="json",
         module=("file", {"degrees": {"0": [1, "a"], "1": ["b"]}, "i": {},
                          "d": [{"degree": 0, "row": 0, "col": c, "c": "1"} for c in (0, 1)]}))
def test_exit_code_contract_under_fuzzing(capsys, tmp_path, command, algebra, module, N, fmt):
    """Every call of main, on built-in and junk specs and on JSON files with
    wrong types, colliding or missing keys, non-Jacobi brackets and empty
    bases, ends with exit 0, 1 or 2 and prints no traceback."""
    if isinstance(algebra, tuple):
        (path := tmp_path / "algebra.json").write_text(json.dumps(algebra[1]))
        algebra = str(path)
    if isinstance(module, tuple):
        (path := tmp_path / "module.json").write_text(json.dumps(module[1]))
        module = f"file:{path}"
    argv = [*command, "--algebra", algebra, "--module", module, "--max-degree", str(N), "--format", fmt]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    out = capsys.readouterr()
    assert code in (0, 1, 2)
    assert "Traceback" not in out.out + out.err
