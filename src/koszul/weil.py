"""The Weil algebra, the twist automorphism, and the basic-subcomplex model.

W(g) = S(g*) ⊗ Λ(g*) with symmetric generators in degree 2 and exterior
generators in degree 1.  The differential is the sum of three terms

    d_W(a⊗b) = a ⊗ d_Λ b  +  sum_k (u^k a) ⊗ del_k b  +  sum_k Θ_k a ⊗ y^k ∧ b

where del_k is plus index deletion (structural flavor, the opposite sign
of the contraction operators carried by the module) and Θ_k is the
transpose of ad_k extended as a derivation (minus the coadjoint action).
These signs are pinned by the su(2) regression identities

    d_W(1⊗i*) = 1⊗2 j*∧k* + i*⊗1,   d_W(i*⊗1) = 2(k*⊗j* − j*⊗k*),

together with the Maurer-Cartan formula d_W(1⊗y) − 1⊗d_Λ y = y⊗1.
The contraction operators act on the exterior factor as minus deletion,
making W(g) pass the full operator-identity suite with the Lie derivative
equal to the coadjoint action on both factors.

The twist on Λ(g*) ⊗ M is T = exp(−𝐢), where the nilpotent generator is
built with structural-deletion flavor:  𝐢(ξ⊗m) = −sum_k ξ∧y^k ⊗ i_k m.
With that reading T satisfies the two intertwining identities exactly,
and T restricted to 1⊗M is a bijection onto the horizontal subspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Optional, Sequence

from .complexes import (
    ChainMap,
    Complex,
    GradedSpace,
    LinMap,
    SubcomplexError,
    Truncation,
    subcomplex,
)
from .equivariant import CartanModel, cartan_model, sym_invariant_complex
from .lie import LieAlgebra, certify_reductive
from .linalg import Matrix, express_in_span, kernel_basis, vstack
from .modules import (
    KgModule,
    delete_index,
    exterior_model,
    lambda_label,
    lambda_monomials,
    sym_label,
    sym_monomials,
    sym_multiply,
    tensor_module,
    wedge_by_generator,
    wedge_concat,
    wedge_normalize,
)

Q0 = Fraction(0)
Q1 = Fraction(1)


class WeilAlgebra:
    """Monomial calculus for W(g), materialized up to a total degree."""

    def __init__(self, g: LieAlgebra, max_degree: int):
        self.g = g
        self.N = max_degree
        n = g.dim
        self.basis: dict = {}
        self.index: dict = {}
        self.labels: dict = {}
        for m in range(max_degree + 1):
            ents = []
            labs = []
            for a in range(m // 2 + 1):
                p = m - 2 * a
                if p > n:
                    continue
                for exps in sym_monomials(n, a):
                    s_lbl = sym_label(exps, g.basis_labels)
                    for lmono in lambda_monomials(n, p):
                        ents.append((exps, lmono))
                        labs.append(f"{s_lbl}⊗{lambda_label(lmono, g.basis_labels)}")
            self.basis[m] = ents
            self.index[m] = {e: i for i, e in enumerate(ents)}
            self.labels[m] = tuple(labs)

    @staticmethod
    def degree_of(key) -> int:
        exps, lmono = key
        return 2 * sum(exps) + len(lmono)

    def element_to_vector(self, element: dict, degree: int) -> tuple:
        out = [Q0] * len(self.basis[degree])
        for key, c in element.items():
            if self.degree_of(key) != degree:
                raise ValueError("element is not homogeneous of the stated degree")
            out[self.index[degree][key]] = Fraction(c)
        return tuple(out)

    def vector_to_element(self, v: Sequence, degree: int) -> dict:
        return {self.basis[degree][i]: c for i, c in enumerate(v) if c}

    def multiply(self, e1: dict, e2: dict) -> dict:
        """Product in W(g); exterior parts pick up the shuffle sign."""
        out: dict = {}
        for (x1, l1), c1 in e1.items():
            for (x2, l2), c2 in e2.items():
                sign, lmono = wedge_concat(l1, l2)
                if not sign:
                    continue
                key = (sym_multiply(x1, x2), lmono)
                s = out.get(key, Q0) + sign * c1 * c2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return out

    def differential_of_key(self, key) -> list:
        """d_W of a basis monomial, as [(key', coeff)] one degree up."""
        g = self.g
        n = g.dim
        exps, lmono = key
        out: dict = {}

        def put(k, c):
            s = out.get(k, Q0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)

        # term 1: exterior Chevalley-Eilenberg part
        for t, gen in enumerate(lmono):
            for a in range(n):
                for b in range(a + 1, n):
                    c = g.c(gen, a, b)
                    if not c:
                        continue
                    sign, new = wedge_normalize(lmono[:t] + (a, b) + lmono[t + 1 :])
                    if sign:
                        put((exps, new), ((-1) ** t) * sign * c)
        # term 2: u^k times plus-deletion
        for k in range(n):
            hit = delete_index(lmono, k)
            if hit:
                sign, sub = hit
                bumped = list(exps)
                bumped[k] += 1
                put((tuple(bumped), sub), Fraction(sign))
        # term 3: transpose-of-ad derivation on the symmetric part, wedge y^k
        for k in range(n):
            sign_w, wedged = wedge_normalize((k,) + lmono)
            if not sign_w:
                continue
            for gen, e in enumerate(exps):
                if not e:
                    continue
                for j in range(n):
                    c = g.c(gen, k, j)  # Θ_k u^gen = sum_j c^gen_kj u^j
                    if not c:
                        continue
                    moved = list(exps)
                    moved[gen] -= 1
                    moved[j] += 1
                    put((tuple(moved), wedged), sign_w * e * c)
        return list(out.items())

    def differential_element(self, element: dict) -> dict:
        out: dict = {}
        for key, c in element.items():
            for k2, v in self.differential_of_key(key):
                s = out.get(k2, Q0) + c * v
                if s:
                    out[k2] = s
                else:
                    out.pop(k2, None)
        return out

    def restrict_to_exterior(self, element: dict) -> dict:
        """Kill all positive symmetric powers; result lives in Λ(g*)."""
        out = {}
        for (exps, lmono), c in element.items():
            if not any(exps):
                out[lmono] = out.get(lmono, Q0) + c
        return {k: v for k, v in out.items() if v}


class WeilModule(KgModule):
    """W(g) as a module with contractions; keeps the monomial calculus around."""

    def __init__(self, g: LieAlgebra, algebra: WeilAlgebra, complex_: Complex,
                 i_ops, name: str):
        super().__init__(g, complex_, i_ops, name=name,
                         meta={"weil": algebra})
        self.algebra = algebra


def weil_model(g: LieAlgebra, trunc: Truncation) -> WeilModule:
    """Build W(g) up to total degree trunc.max_degree (truncated module)."""
    certify_reductive(g)
    N = trunc.max_degree
    n = g.dim
    alg = WeilAlgebra(g, N)
    space = GradedSpace(alg.labels, lo=0, hi=N)

    d_blocks = {}
    for m in range(N):
        ents: dict = {}
        for col, key in enumerate(alg.basis[m]):
            for key2, c in alg.differential_of_key(key):
                row = alg.index[m + 1].get(key2)
                if row is None:
                    raise AssertionError("differential escaped the window")
                ents[(row, col)] = ents.get((row, col), Q0) + c
        mat = Matrix(len(alg.basis[m + 1]), len(alg.basis[m]), ents)
        if not mat.is_zero():
            d_blocks[m] = mat
    d = LinMap(space, space, 1, d_blocks)

    i_ops = []
    for k in range(n):
        blocks = {}
        for m in range(1, N + 1):
            ents = {}
            for col, (exps, lmono) in enumerate(alg.basis[m]):
                hit = delete_index(lmono, k)
                if hit:
                    sign, sub = hit
                    row = alg.index[m - 1][(exps, sub)]
                    ents[(row, col)] = -Fraction(sign)
            mat = Matrix(len(alg.basis[m - 1]), len(alg.basis[m]), ents)
            if not mat.is_zero():
                blocks[m] = mat
        i_ops.append(LinMap(space, space, -1, blocks))

    cx = Complex(space, d, complete=False, check=True)
    return WeilModule(g, alg, cx, i_ops, name=f"W({g.name})")


def maurer_cartan_residuals(W: WeilModule) -> list:
    """d_W(1⊗y^m) − 1⊗d_Λ y^m − u^m⊗1 for every dual generator; all must vanish."""
    g = W.g
    alg = W.algebra
    n = g.dim
    zero_exps = tuple([0] * n)
    out = []
    for m_idx in range(n):
        elem = {(zero_exps, (m_idx,)): Q1}
        image = alg.differential_element(elem)
        for a in range(n):
            for b in range(a + 1, n):
                c = g.c(m_idx, a, b)
                if c:
                    key = (zero_exps, (a, b))
                    image[key] = image.get(key, Q0) - c
                    if not image[key]:
                        del image[key]
        bump = [0] * n
        bump[m_idx] = 1
        key = (tuple(bump), ())
        image[key] = image.get(key, Q0) - 1
        if not image[key]:
            del image[key]
        out.append(image)
    return out


def weil_structure_maps(W: WeilModule):
    """(inclusion (S)^g -> W(g), restriction W(g) ->> Λ(g*)) as chain maps."""
    g = W.g
    alg = W.algebra
    N = W.space.hi
    n = g.dim
    s_complex, s_vectors = sym_invariant_complex(g, N)
    incl_blocks = {}
    for deg, vecs in s_vectors.items():
        a = deg // 2
        monos = sym_monomials(n, a)
        cols = []
        for v in vecs:
            img = [Q0] * W.space.dim(deg)
            for exps, c in zip(monos, v):
                if c:
                    img[alg.index[deg][(exps, ())]] = c
            cols.append(tuple(img))
        incl_blocks[deg] = Matrix.from_columns(cols, nrows=W.space.dim(deg))
    inclusion = ChainMap(
        s_complex, W.complex,
        LinMap(s_complex.space, W.space, 0, incl_blocks),
    )

    ext = exterior_model(g)
    restr_blocks = {}
    for m in range(min(N, n) + 1):
        ents = {}
        lam_index = {mono: i for i, mono in enumerate(lambda_monomials(n, m))}
        for col, (exps, lmono) in enumerate(alg.basis[m]):
            if not any(exps):
                ents[(lam_index[lmono], col)] = Q1
        mat = Matrix(ext.space.dim(m), W.space.dim(m), ents)
        if not mat.is_zero():
            restr_blocks[m] = mat
    restriction = ChainMap(
        W.complex, ext.complex,
        LinMap(W.space, ext.space, 0, restr_blocks),
    )
    return inclusion, restriction


# ---------------------------------------------------------------------------
# The twist
# ---------------------------------------------------------------------------


@dataclass
class TwistData:
    """Twist package on Λ(g*) ⊗ M: nilpotent generator and T = exp(−𝐢)."""

    tensor: KgModule  # Λ(g*) ⊗ M
    exterior: KgModule
    module: KgModule
    generator: LinMap  # 𝐢, degree 0
    twist: LinMap  # T
    twist_inv: LinMap  # exp(+𝐢)


def twist_operators(M: KgModule, trunc: Truncation) -> TwistData:
    """𝐢, T = exp(−𝐢) and its inverse on Λ(g*) ⊗ M.

    𝐢(ξ⊗m) = −sum_k ξ∧y^k ⊗ i_k m: the structural-deletion reading of the
    contraction, which is what makes the interchange identities below hold
    with T = exp(−𝐢) (the module's own i would flip T to exp(+𝐢)).  The
    lift of (y^k ∧ ·) ⊗ i_k carries the Koszul sign (−1)^|ξ|, which turns
    the left wedge y^k∧ξ into ξ∧y^k.
    """
    g = M.g
    n = g.dim
    ext = exterior_model(g)
    TM = tensor_module(ext, M, max_total=trunc.max_degree, name=f"Λ⊗{M.name}")
    product = TM.meta["tensor"]
    gen = LinMap.zero(TM.space, TM.space, 0)
    for k in range(n):
        gen = gen.sub(product.lift(wedge_by_generator(ext, k), M.i_ops[k]))

    twist = LinMap.identity(TM.space)
    twist_inv = LinMap.identity(TM.space)
    power = LinMap.identity(TM.space)
    for q in range(1, n + 1):
        power = gen.compose(power)
        coeff = Fraction(1, factorial(q))
        twist = twist.add(power.scale(coeff * (-1) ** q))
        twist_inv = twist_inv.add(power.scale(coeff))
    return TwistData(TM, ext, M, gen, twist, twist_inv)


def twist_closed_form(data: TwistData) -> LinMap:
    """Direct assembly of T(ξ⊗m) = sum_I (−1)^{q(q+1)/2} ξ∧y^I ⊗ ĵ_I m.

    ĵ_I is the composite of structural deletions ĵ = −i over I, rightmost
    index applied first.  Must equal the exponential series exactly.  The
    term for I is the lift of (y^I ∧ ·) ⊗ ĵ_I, whose Koszul sign (−1)^{q|ξ|}
    turns y^I∧ξ into ξ∧y^I.
    """
    M, ext = data.module, data.exterior
    product = data.tensor.meta["tensor"]
    n = M.g.dim
    # (y^I ∧ ·, ĵ_I) per increasing tuple I, built from the right
    factors: dict = {(): (LinMap.identity(ext.space), LinMap.identity(M.space))}
    closed = LinMap.zero(product.space, product.space, 0)
    for q in range(0, n + 1):
        for I in lambda_monomials(n, q):
            if I:
                wedge, composite = factors[I[1:]]
                factors[I] = (wedge_by_generator(ext, I[0]).compose(wedge),
                              M.i_ops[I[0]].scale(-1).compose(composite))
            term = product.lift(*factors[I])
            closed = closed.add(term.scale((-1) ** (q * (q + 1) // 2)))
    return closed


def twist_identity_contraction(data: TwistData) -> bool:
    """i_k ∘ T = T ∘ (i_k ⊗ 1): contraction on the product versus the factor."""
    TM, ext = data.tensor, data.exterior
    M = data.module
    degrees = [d for d in TM.space.degrees() if TM.complete or d <= TM.max_usable]
    for k in range(M.g.dim):
        lam_only = TM.meta["tensor"].lift(ext.i_ops[k], None)
        lhs = TM.i_ops[k].compose(data.twist)
        rhs = data.twist.compose(lam_only)
        # comparing at degree d uses blocks landing at d-1: always materialized
        if not lhs.equal_on(rhs, degrees):
            return False
    return True


def twist_identity_differential(data: TwistData) -> bool:
    """d ∘ T = T ∘ (d − sum_k (y^k ∧ ·) ⊗ L_k) on Λ(g*) ⊗ M.

    The action term enters with a minus sign relative to the classical
    display; this is the same structural-flavor flip as everywhere else.
    L_k is even, so its lift carries no Koszul sign.
    """
    TM, ext, M = data.tensor, data.exterior, data.module
    twisted_d = TM.d
    for k in range(M.g.dim):
        cross = TM.meta["tensor"].lift(wedge_by_generator(ext, k), M.L_ops[k])
        twisted_d = twisted_d.sub(cross)
    lhs = TM.d.compose(data.twist)
    rhs = data.twist.compose(twisted_d)
    degrees = [d for d in TM.space.degrees() if TM.complete or d <= TM.max_usable]
    return lhs.equal_on(rhs, degrees)


# ---------------------------------------------------------------------------
# Horizontal and basic subspaces
# ---------------------------------------------------------------------------


@dataclass
class HorizontalBasic:
    horizontal: dict  # degree -> vectors killed by every contraction
    basic: Complex  # elements killed by i_k and i_k d, as a complex
    basic_vectors: dict
    inclusion: ChainMap


def horizontal_basic(M: KgModule) -> HorizontalBasic:
    """Horizontal and basic subspaces of a module, the latter as a complex."""
    top = M.space.hi if M.complete else M.max_usable
    horizontal = {}
    basic_vectors = {}
    for deg in M.space.degrees():
        dim = M.space.dim(deg)
        if dim == 0:
            continue
        i_stack = vstack([op.block(deg) for op in M.i_ops])
        horizontal[deg] = kernel_basis(i_stack)
        if deg <= top:
            id_stack = vstack(
                [op.block(deg) for op in M.i_ops]
                + [op.block(deg + 1) @ M.d.block(deg) for op in M.i_ops]
            )
            basic_vectors[deg] = kernel_basis(id_stack)
    ambient = M.complex.truncated(top)
    basic, incl = subcomplex(
        ambient, {d: v for d, v in basic_vectors.items() if v},
        label_prefix=f"({M.name})_bas",
    )
    return HorizontalBasic(horizontal, basic, basic_vectors, incl)


# ---------------------------------------------------------------------------
# The twist embedding of the Cartan model into the basic subcomplex
# ---------------------------------------------------------------------------


@dataclass
class TwistEmbedding:
    """Cartan model ≅ basic subcomplex of W(g) ⊗ M, via a ⊗ m -> a · T(1⊗m)."""

    cartan: CartanModel
    weil: WeilModule
    product: KgModule  # W(g) ⊗ M
    twist: TwistData
    basic: HorizontalBasic
    map: ChainMap  # Cartan -> basic complex
    ambient_blocks: dict  # degree -> Matrix into W⊗M coordinates

    def is_bijective(self) -> bool:
        for deg in self.map.source.space.degrees():
            if deg > self.basic.basic.space.hi:
                continue
            blk = self.map.map.block(deg)
            if blk.rows != blk.cols:
                return False
            if blk.rows and len(kernel_basis(blk)) != 0:
                return False
        return True


def twisted_cartan_image(A: CartanModel, W: WeilModule, WM: KgModule, data: TwistData):
    """The assembly x = sum a⊗m  ->  ω · sum a·T(1⊗m) in W⊗M coordinates.

    Returns image(adeg, x, omega, deg): x is a vector of A's ambient space
    S(g*)⊗M at degree adeg, omega a homogeneous Weil element (dict) and deg
    = adeg + |omega| the degree of the result.
    """
    alg = W.algebra
    ext_monos = data.exterior.meta["monomials"]
    twist_tensor = data.tensor.meta["tensor"]
    wm_index = WM.meta["tensor"].index
    twist_cols = {q: m.by_column() for q, m in data.twist.blocks.items()}

    def image(adeg: int, x: Sequence, omega: dict, deg: int) -> tuple:
        img = [Q0] * WM.space.dim(deg)
        for coeff, (sdeg, si, q, mi) in zip(x, A.ambient.entries[adeg]):
            if not coeff:
                continue
            exps = A.sym_basis[sdeg][si]
            # T(1 ⊗ m_mi): one column of the twist at tensor degree q
            src = twist_tensor.index[q][(0, 0, q, mi)]
            for pos, tval in twist_cols.get(q, {}).get(src, ()):
                p, il, r, im = twist_tensor.entries[q][pos]
                prod = alg.multiply(omega, {(exps, ext_monos[p][il]): Q1})
                for (w_exps, w_mono), wv in prod.items():
                    w_deg = 2 * sum(w_exps) + len(w_mono)
                    row = wm_index[deg].get((w_deg, alg.index[w_deg][(w_exps, w_mono)], r, im))
                    if row is None:
                        raise AssertionError("twist image escaped the window")
                    img[row] += coeff * tval * wv
        return tuple(img)

    return image


def twist_embedding(
    M: KgModule,
    trunc: Truncation,
    weil: Optional[WeilModule] = None,
    cartan: Optional[CartanModel] = None,
    product: Optional[KgModule] = None,
) -> TwistEmbedding:
    """Build the embedding of the Cartan model into (W(g)⊗M) basic elements."""
    g = M.g
    N = trunc.max_degree
    W = weil or weil_model(g, trunc)
    A = cartan or cartan_model(M, trunc)
    WM = product if product is not None else tensor_module(W, M, max_total=N, name=f"W⊗{M.name}")
    data = twist_operators(M, trunc)
    basic = horizontal_basic(WM)
    image = twisted_cartan_image(A, W, WM, data)
    unit = {(tuple([0] * g.dim), ()): Q1}

    ambient_blocks: dict = {}
    map_blocks: dict = {}
    for deg, vecs in A.vectors.items():
        if deg > basic.basic.space.hi:
            continue
        cols_ambient = []
        cols_basic = []
        for v in vecs:
            img = image(deg, v, unit, deg)
            cols_ambient.append(img)
            coords = express_in_span(
                basic.basic_vectors.get(deg, []), img, dim=WM.space.dim(deg)
            )
            if coords is None:
                raise SubcomplexError(
                    f"twist embedding image is not basic at degree {deg}"
                )
            cols_basic.append(coords)
        ambient_blocks[deg] = Matrix.from_columns(cols_ambient, nrows=WM.space.dim(deg))
        blk = Matrix.from_columns(cols_basic, nrows=basic.basic.space.dim(deg))
        if not blk.is_zero():
            map_blocks[deg] = blk

    src_space = A.complex.space
    chain = ChainMap(
        A.complex, basic.basic,
        LinMap(src_space, basic.basic.space, 0, map_blocks),
    )
    return TwistEmbedding(A, W, WM, data, basic, chain, ambient_blocks)


def embedding_s_linearity(emb: TwistEmbedding) -> bool:
    """a' · Ψ(x) = Ψ(a' · x) for every invariant symmetric generator a'."""
    A = emb.cartan
    W = emb.weil
    product = emb.product.meta["tensor"]
    for s_deg, inv_vectors in sorted(A.s_invariants.items()):
        a = s_deg // 2
        if a == 0:
            continue
        for coeffs in inv_vectors:
            mult = A.s_action(a, coeffs)
            # multiply ambient images by the invariant polynomial on the W factor
            lifted = product.lift(_weil_multiplication(W, a, coeffs), None)
            for deg, blk in emb.ambient_blocks.items():
                tgt_deg = deg + s_deg
                if tgt_deg not in emb.ambient_blocks:
                    continue
                lhs = lifted.block(deg) @ blk
                rhs = emb.ambient_blocks[tgt_deg] @ mult.block(deg)
                if lhs != rhs:
                    return False
    return True


def _weil_multiplication(W: WeilModule, a: int, coeffs: Sequence) -> LinMap:
    """Multiplication by the S^a element `coeffs` on W(g) (shift 2a)."""
    alg = W.algebra
    poly = {(smono, ()): c for smono, c in zip(sym_monomials(W.g.dim, a), coeffs) if c}
    blocks = {}
    for m in range(W.space.hi - 2 * a + 1):
        target = alg.index[m + 2 * a]
        blocks[m] = Matrix(len(target), len(alg.basis[m]), {
            (target[key2], col): c
            for col, key in enumerate(alg.basis[m])
            for key2, c in alg.multiply({key: Q1}, poly).items()
        })
    return LinMap(W.space, W.space, 2 * a, blocks)
