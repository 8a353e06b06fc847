#!/usr/bin/env python3
"""Write the built-in matrix Lie algebras sl3 and u2 to src/koszul/data/.

Each algebra is spanned by explicit rational matrices, and its structure
constants are their commutators written back in that basis:

- sl3: h1 = E11 - E22, h2 = E22 - E33, e12, e13, e23, f21, f31, f32, where
  e_ij = E_ij and f_ij = E_ij are the 3x3 matrix units above and below the
  diagonal.
- u2 = u1 ⊕ su2: z = the identity and i, j, k = left multiplication by the
  quaternion units on Q^4 = Q⟨1, i, j, k⟩.  Since [L_x, L_y] = L_{xy - yx},
  the brackets are [i, j] = 2k, [j, k] = 2i, [k, i] = 2j, as in su2.

    python scripts/matrix_algebras.py           # rewrite the data files
    python scripts/matrix_algebras.py --check   # exit 1 when a file differs
"""

import sys
from fractions import Fraction
from pathlib import Path

from koszul.linalg import Matrix, Subspace, qstr

DATA = Path(__file__).resolve().parent.parent / "src" / "koszul" / "data"


def unit(n, i, j):
    return [[Fraction(int((r, c) == (i, j))) for c in range(n)] for r in range(n)]


def combine(*terms):
    """Sum of c * X over (c, X) pairs of square matrices of one size."""
    n = len(terms[0][1])
    return [[sum((c * X[r][s] for c, X in terms), Fraction(0)) for s in range(n)] for r in range(n)]


def product(X, Y):
    n = len(X)
    return [[sum((X[r][t] * Y[t][s] for t in range(n)), Fraction(0)) for s in range(n)] for r in range(n)]


def sl3():
    E = {(i, j): unit(3, i, j) for i in range(3) for j in range(3)}
    basis = {
        "h1": combine((1, E[0, 0]), (-1, E[1, 1])),
        "h2": combine((1, E[1, 1]), (-1, E[2, 2])),
        "e12": E[0, 1], "e13": E[0, 2], "e23": E[1, 2],
        "f21": E[1, 0], "f31": E[2, 0], "f32": E[2, 1],
    }
    return "sl3", basis


def quaternion_left(x):
    """Matrix of q -> x·q on Q^4 = Q⟨1, i, j, k⟩, for a unit x in 0..3."""
    # unit products e_a·e_b = sign · e_c, for 1, i, j, k
    table = {(1, 2): (1, 3), (2, 3): (1, 1), (3, 1): (1, 2),
             (2, 1): (-1, 3), (3, 2): (-1, 1), (1, 3): (-1, 2)}
    M = [[Fraction(0)] * 4 for _ in range(4)]
    for b in range(4):
        if x == 0:
            sign, c = 1, b
        elif b == 0:
            sign, c = 1, x
        elif b == x:
            sign, c = -1, 0
        else:
            sign, c = table[(x, b)]
        M[c][b] = Fraction(sign)
    return M


def u2():
    return "u2", {name: quaternion_left(x) for x, name in enumerate(["z", "i", "j", "k"])}


def brackets(basis: dict) -> list:
    """[x_i, x_j] for i < j as {"i", "j", "terms"} entries, zero brackets left out."""
    mats = list(basis.values())
    span = Subspace(Matrix.from_columns([[v for row in X for v in row] for X in mats]))
    out = []
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            XY, YX = product(mats[i], mats[j]), product(mats[j], mats[i])
            comm = [v for row in combine((1, XY), (-1, YX)) for v in row]
            coords = span.coords(comm)
            if coords is None:
                raise ValueError(f"[{i}, {j}] leaves the span of the basis")
            terms = [(k, c) for k, c in enumerate(coords) if c]
            if terms:
                out.append((i, j, terms))
    return out


def render(name: str, basis: dict) -> str:
    lines = [f'    {{"i": {i}, "j": {j}, "terms": ['
             + ", ".join(f'{{"k": {k}, "c": "{qstr(c)}"}}' for k, c in terms) + "]}"
             for i, j, terms in brackets(basis)]
    labels = ", ".join(f'"{b}"' for b in basis)
    return ("{\n"
            f'  "name": "{name}",\n'
            f'  "dim": {len(basis)},\n'
            f'  "basis": [{labels}],\n'
            '  "brackets": [\n' + ",\n".join(lines) + "\n  ]\n}\n")


def main(argv) -> int:
    check = "--check" in argv
    stale = []
    for name, basis in (sl3(), u2()):
        path = DATA / f"{name}.json"
        text = render(name, basis)
        if check:
            if not path.exists() or path.read_text(encoding="utf-8") != text:
                stale.append(path.name)
        else:
            path.write_text(text, encoding="utf-8")
            print(f"wrote {path}")
    if stale:
        print("out of date: " + ", ".join(stale))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
