"""Command-line front end.

Subcommands: validate | cohomology | weil-check | transgress | duality.
Exit codes: 0 = pass, 1 = mathematical failure (a witness is printed),
2 = input error (a window that does not fit in memory included).  All
JSON reports embed the tool version and the full run configuration, and
two runs on the same input are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import __version__
from .complexes import Truncation, cohomology
from .duality import verify_duality
from .equivariant import cartan_model, invariant_subcomplex
from .lie import (
    LieAlgebra,
    LieAlgebraError,
    NotReductive,
    adjoint_matrices,
    builtin_algebra,
    certify_reductive,
    load_lie_algebra,
    BUILTIN_NAMES,
)
from .modules import (
    KgModule,
    ModuleValidationError,
    exterior_model,
    load_kg_module,
    polynomial_forms_module,
    trivial_module,
    validate_kg,
)
from .transgression import (
    TransgressionError,
    distinguished_transgression,
    generation_check,
    primitive_basis,
)
from .weil import maurer_cartan_residuals, weil_model


class InputError(ValueError):
    pass


class RunConfig:
    def __init__(self, command: str, algebra: str, module: str = "exterior", max_degree: int = 6,
                 output_format: str = "text", corrupt_transgression: bool = False):
        if max_degree < 1:
            raise InputError("--max-degree must be >= 1")
        if output_format not in ("text", "json"):
            raise InputError("--format must be text or json")
        self.command, self.algebra, self.module = command, algebra, module
        self.max_degree, self.output_format = max_degree, output_format
        self.corrupt_transgression = corrupt_transgression


def _threads_cap() -> int:
    """KOSZUL_THREADS caps parallelism; evaluation is sequential, which
    respects any positive cap."""
    raw = os.environ.get("KOSZUL_THREADS")
    if raw is None:
        return 1
    try:
        cap = int(raw)
    except ValueError as exc:
        raise InputError(f"KOSZUL_THREADS must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise InputError("KOSZUL_THREADS must be >= 1")
    return cap


def resolve_algebra(spec: str) -> LieAlgebra:
    try:
        if spec in BUILTIN_NAMES or spec.startswith("abelian:"):
            return builtin_algebra(spec)
        return load_lie_algebra(spec)
    except FileNotFoundError as exc:
        raise InputError(f"algebra file not found: {spec}") from exc
    except OSError as exc:
        raise InputError(f"cannot read algebra file {spec}: {exc.strerror}") from exc
    except LieAlgebraError as exc:
        raise InputError(str(exc)) from exc
    except ValueError as exc:  # open() refuses a path with a NUL byte
        raise InputError(f"cannot read algebra file {spec!r}: {exc}") from exc


def resolve_module(spec: str, g: LieAlgebra) -> KgModule:
    try:
        if spec == "trivial":
            return trivial_module(g)
        if spec == "exterior":
            return exterior_model(g)
        if spec.startswith("forms:"):
            parts = spec.split(":")
            if len(parts) != 3:
                raise InputError("forms spec is forms:{coadjoint|adjoint}:DEGREE")
            which, deg = parts[1], parts[2]
            try:
                D = int(deg)
            except ValueError:
                D = -1
            if D < 0:
                raise InputError(
                    f"bad module spec {spec!r}: use forms:{{coadjoint|adjoint}}:D with an integer D >= 0")
            ad, coad = adjoint_matrices(g)
            if which == "coadjoint":
                action = coad
            elif which == "adjoint":
                action = ad
            else:
                raise InputError(f"unknown forms action {which!r}")
            return polynomial_forms_module(g, action, D)
        if spec.startswith("file:"):
            return load_kg_module(spec[5:], g)
    except FileNotFoundError as exc:
        raise InputError(f"module file not found: {spec[5:]}") from exc
    except OSError as exc:
        raise InputError(f"cannot read module file {spec[5:]}: {exc.strerror}") from exc
    except (ModuleValidationError, ValueError) as exc:
        if isinstance(exc, InputError):
            raise
        raise InputError(str(exc)) from exc
    raise InputError(
        f"unknown module spec {spec!r}; use trivial | exterior | forms:... | file:PATH"
    )


def _wrap(config: RunConfig, payload: dict) -> dict:
    return {
        "version": __version__,
        "config": {
            "command": config.command,
            "algebra": config.algebra,
            "module": config.module,
            "max_degree": config.max_degree,
            "corrupt_transgression": config.corrupt_transgression,
        },
        **payload,
    }


def _emit(config: RunConfig, payload: dict, text_lines: list) -> None:
    if config.output_format == "json":
        print(json.dumps(_wrap(config, payload), sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_validate(config: RunConfig) -> int:
    g = resolve_algebra(config.algebra)
    lines = [f"algebra {g.name}: antisymmetry ok, Jacobi ok (dim {g.dim})"]
    payload: dict = {"algebra": g.name, "dim": g.dim}
    try:
        dec = certify_reductive(g)
        lines.append(
            f"reductive: center dim {len(dec.center)}, derived dim {len(dec.derived)},"
            " Killing nondegenerate on the derived part"
        )
        payload["reductive"] = {
            "center_dim": len(dec.center),
            "derived_dim": len(dec.derived),
        }
    except NotReductive as exc:
        lines.append(f"NotReductive: {exc}")
        payload["reductive"] = {"error": str(exc)}
        _emit(config, {**payload, "verdict": "fail"}, lines + ["verdict: FAIL"])
        return 1
    M = resolve_module(config.module, g)
    report = validate_kg(M)
    payload["identities"] = [
        {"identity": c.identity, "ok": c.ok} for c in report.checks
    ]
    lines.extend("  " + c.describe() for c in report.checks)
    ok = report.ok
    payload["verdict"] = "pass" if ok else "fail"
    lines.append(f"verdict: {'pass' if ok else 'FAIL'}")
    _emit(config, payload, lines)
    return 0 if ok else 1


def cmd_cohomology(config: RunConfig, model: str) -> int:
    g = resolve_algebra(config.algebra)
    M = resolve_module(config.module, g)
    trunc = Truncation(config.max_degree)
    if model == "plain":
        cx = M.complex
    elif model == "invariant":
        cx = invariant_subcomplex(M).complex
    elif model == "cartan":
        cx = cartan_model(M, trunc).complex
    else:
        raise InputError(f"unknown model {model!r}; use plain | invariant | cartan")
    rep = cohomology(cx, trunc)
    payload = {"model": model, **rep.to_dict()}
    lines = [f"cohomology ({model} model) of {M.name} over {g.name}:"]
    for d in sorted(rep.betti):
        lines.append(f"  H^{d}: dimension {rep.betti[d]}")
    for d in sorted(rep.uncertified):
        lines.append(f"  H^{d}: dimension {rep.uncertified[d]} (uncertified: window edge)")
    _emit(config, payload, lines)
    return 0


def cmd_weil_check(config: RunConfig) -> int:
    g = resolve_algebra(config.algebra)
    trunc = Truncation(config.max_degree)
    W = weil_model(g, trunc)
    residuals = maurer_cartan_residuals(W)
    mc_ok = all(not r for r in residuals)
    rep = cohomology(W.complex, trunc)
    acyclic = rep.betti.get(0) == 1 and all(
        rep.betti.get(m, 0) == 0 for m in range(1, config.max_degree)
    )
    lines = [f"Weil algebra of {g.name}, total degree <= {config.max_degree}"]
    for m_idx, r in enumerate(residuals):
        label = g.basis_labels[m_idx]
        lines.append(
            f"  Maurer-Cartan residual for {label}*: "
            + ("0" if not r else str(r))
        )
    lines.append("  Betti table: " + ", ".join(
        f"H^{d}={rep.betti[d]}" for d in sorted(rep.betti)
    ))
    verdict = mc_ok and acyclic
    lines.append(f"verdict: {'pass' if verdict else 'FAIL'}")
    payload = {
        "maurer_cartan_ok": mc_ok,
        "acyclic": acyclic,
        **rep.to_dict(),
        "verdict": "pass" if verdict else "fail",
    }
    _emit(config, payload, lines)
    return 0 if verdict else 1


def cmd_transgress(config: RunConfig) -> int:
    g = resolve_algebra(config.algebra)
    trunc = Truncation(config.max_degree)
    P = primitive_basis(g, trunc)
    T = distinguished_transgression(g, P)
    gen_ok = generation_check(g, T, trunc)
    lines = [f"primitive elements of the invariant exterior algebra of {g.name}:"]
    entries_payload = []
    for entry in T.entries:
        p = entry.primitive
        lines.append(f"  degree {p.degree}: {p.label}")
        lines.append(f"    lift ω: {_weil_element_str(T, entry.omega)}")
        lines.append(f"    transgression: {entry.xi_tilde_label}")
        entries_payload.append(
            {
                "degree": p.degree,
                "primitive": p.label,
                "omega": {
                    _weil_key_str(T, k): str(c) for k, c in sorted(entry.omega.items())
                },
                "transgression": entry.xi_tilde_label,
            }
        )
    lines.append(f"generation check (dimension count): {'pass' if gen_ok else 'FAIL'}")
    payload = {"entries": entries_payload, "generation_ok": gen_ok,
               "verdict": "pass" if gen_ok else "fail"}
    _emit(config, payload, lines)
    return 0 if gen_ok else 1


def _weil_key_str(T, key) -> str:
    from .modules import lambda_label, sym_label

    exps, lmono = key
    g = T.g
    return f"{sym_label(exps, g.basis_labels)}⊗{lambda_label(lmono, g.basis_labels)}"


def _weil_element_str(T, element: dict) -> str:
    if not element:
        return "0"
    parts = [f"{c}·{_weil_key_str(T, k)}" for k, c in sorted(element.items())]
    return " + ".join(parts)


def cmd_duality(config: RunConfig) -> int:
    g = resolve_algebra(config.algebra)
    M = resolve_module(config.module, g)
    trunc = Truncation(config.max_degree)
    report, _ = verify_duality(M, trunc,
                               corrupt_transgression=config.corrupt_transgression)
    payload = report.to_dict()
    _emit(config, payload, [report.describe()])
    return 0 if report.verdict else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="koszul",
        description="Exact verification of equivariant-invariant duality "
        "for differential modules over reductive Lie algebras",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--algebra", required=True,
                       help=f"builtin ({', '.join(BUILTIN_NAMES)}, abelian:n) or JSON file")
        p.add_argument("--module", default="exterior",
                       help="trivial | exterior | forms:coadjoint:D | file:PATH")
        p.add_argument("--max-degree", type=int, default=6)
        p.add_argument("--format", dest="output_format", default="text",
                       choices=["text", "json"])

    common(sub.add_parser("validate", help="check algebra and module identities"))
    p_coh = sub.add_parser("cohomology", help="Betti numbers and representatives")
    common(p_coh)
    p_coh.add_argument("--model", default="plain",
                       choices=["plain", "invariant", "cartan"])
    p_weil = sub.add_parser("weil-check",
                            help="Maurer-Cartan residuals and acyclicity table")
    common(p_weil)
    p_tr = sub.add_parser("transgress",
                          help="primitive basis and distinguished transgression")
    common(p_tr)
    p_dual = sub.add_parser("duality", help="end-to-end duality verification")
    common(p_dual)
    p_dual.add_argument("--corrupt-transgression", action="store_true",
                        help="replace each lift by the naive cocycle (negative control)")
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _threads_cap()
        config = RunConfig(
            command=args.command,
            algebra=args.algebra,
            module=args.module,
            max_degree=args.max_degree,
            output_format=args.output_format,
            corrupt_transgression=getattr(args, "corrupt_transgression", False),
        )
        if args.command == "validate":
            return cmd_validate(config)
        if args.command == "cohomology":
            return cmd_cohomology(config, args.model)
        if args.command == "weil-check":
            return cmd_weil_check(config)
        if args.command == "transgress":
            return cmd_transgress(config)
        if args.command == "duality":
            return cmd_duality(config)
        raise InputError(f"unknown command {args.command!r}")
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (LieAlgebraError, ModuleValidationError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except TransgressionError as exc:
        print(f"mathematical failure: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print(f"input error: {args.command} at --max-degree {args.max_degree} does not fit in "
              "memory; choose a smaller window", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
