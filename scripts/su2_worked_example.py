#!/usr/bin/env python3
"""Walk through the su(2) computations end to end, printing every object.

Covers: the exterior differential on generators, the Weil differential on
both kinds of generators, the Maurer-Cartan identity, the primitive class,
its lift and transgression, and the final duality verdicts for the trivial
and exterior coefficient modules.
"""

from fractions import Fraction

from koszul.complexes import Truncation
from koszul.duality import verify_duality
from koszul.lie import builtin_algebra, certify_reductive, killing_form
from koszul.modules import exterior_model, trivial_module
from koszul.transgression import distinguished_transgression, primitive_basis
from koszul.weil import maurer_cartan_residuals, weil_model


def weil_str(W, elem):
    from koszul.modules import lambda_label, sym_label

    names = W.g.basis_labels
    parts = []
    for (exps, lmono), c in sorted(elem.items()):
        parts.append(f"{c}·{sym_label(exps, names)}⊗{lambda_label(lmono, names)}")
    return " + ".join(parts) if parts else "0"


def main():
    g = builtin_algebra("su2")
    print(f"algebra: {g.name}, basis {g.basis_labels}")
    dec = certify_reductive(g)
    print(f"reductive: center {len(dec.center)}, derived {len(dec.derived)}")
    print(f"Killing form diagonal: {[killing_form(g)[(i, i)] for i in range(3)]}")

    ext = exterior_model(g)
    print("\nexterior differential on generators:")
    for m in range(3):
        col = ext.d.block(1).column(m)
        terms = [
            f"{c}·{ext.space.labels(2)[i]}" for i, c in enumerate(col) if c
        ]
        print(f"  d {g.basis_labels[m]}* = " + " + ".join(terms))

    W = weil_model(g, Truncation(8))
    alg = W.algebra
    print("\nWeil differential on generators:")
    for m in range(3):
        e = [0, 0, 0]
        e[m] = 1
        lam = alg.differential_element({((0, 0, 0), (m,)): Fraction(1)})
        sym = alg.differential_element({(tuple(e), ()): Fraction(1)})
        print(f"  d_W(1⊗{g.basis_labels[m]}*) = {weil_str(W, lam)}")
        print(f"  d_W({g.basis_labels[m]}*⊗1) = {weil_str(W, sym)}")
    print("Maurer-Cartan residuals:", maurer_cartan_residuals(W))

    P = primitive_basis(g, Truncation(8))
    T = distinguished_transgression(g, P, weil=W)
    for entry in T.entries:
        print(f"\nprimitive: {entry.primitive.label} (degree {entry.primitive.degree})")
        print(f"  lift ω = {weil_str(W, entry.omega)}")
        print(f"  d_W ω = ξ~⊗1 with ξ~ = {entry.xi_tilde_label}")

    for M in (trivial_module(g), exterior_model(g)):
        report, _ = verify_duality(M, Truncation(8))
        print(f"\nduality for module {M.name}:")
        print(report.describe())


if __name__ == "__main__":
    main()
