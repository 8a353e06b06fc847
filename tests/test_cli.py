import json

import pytest

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
