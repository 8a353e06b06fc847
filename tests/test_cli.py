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


SWEEP = [
    (cmd, alg, mod, N)
    for alg in BUILTIN_NAMES
    for N in (1, 2, 3)
    for cmd, mod in [("duality", "trivial"), ("duality", "exterior"),
                     ("duality", "forms:coadjoint:1"), ("transgress", None)]
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
