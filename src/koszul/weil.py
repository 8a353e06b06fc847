"""The Weil algebra, the twist automorphism, and the basic-subcomplex model.

W(g) = S(g*) ⊗ Λ(g*) with symmetric generators u^k in degree 2 and
exterior generators y^k in degree 1, built as a TensorSpace.  Every
operator on it is a sum of lifted factor operators; the differential is
the sum of three lifted terms

    d_W = 1 ⊗ d_Λ  +  sum_k u^k· ⊗ del_k  +  sum_k Θ_k ⊗ y^k∧

where del_k = −i_k^Λ is plus index deletion (structural flavor, the
opposite sign of the contraction operators carried by the module) and Θ_k
is the transpose of ad_k extended as a derivation (minus the coadjoint
action).  The left factor is even, so no Koszul sign enters.  These signs
are pinned by the su(2) regression identities

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

from fractions import Fraction
from functools import cached_property
from math import factorial, lcm
from typing import Optional, Sequence

from .complexes import (
    ChainMap,
    Complex,
    LinMap,
    SubcomplexError,
    TensorSpace,
    Truncation,
    subcomplex,
)
from .equivariant import CartanModel, SymmetricAlgebra, cartan_model, sym_invariant_complex
from .lie import LieAlgebra
from .linalg import Matrix, Subspace, joint_kernel, rank
from .modules import (
    KgModule,
    TensorModule,
    exterior_model,
    lambda_monomials,
    sym_multiply,
    tensor_module,
    wedge_by_generator,
    wedge_concat,
)

Q0 = Fraction(0)
Q1 = Fraction(1)


class WeilAlgebra:
    """Monomial calculus on W(g) = S(g*) ⊗ Λ(g*), materialized up to a total degree.

    ``product`` is the TensorSpace(S, Λ(g*)); its A is S(g*) itself, the
    SymmetricAlgebra record of its monomials, coadjoint L_k, invariants and
    multiplication.  ``d`` is the lifted d_W.  A monomial key (symmetric
    exponents, Λ monomial) maps to its position in the product and back
    through the product and one index per factor: key(m, i) is the key of
    basis vector i of degree m, and position(key) its index there.
    """

    def __init__(self, ext: KgModule, product: TensorSpace, d: LinMap):
        self.g = g = product.A.g
        self.N = product.hi
        self.ext = ext
        self.product = product
        self.d = d
        self._lambda_basis = {r: lambda_monomials(g.dim, r) for r in range(min(self.N, g.dim) + 1)}
        # each monomial lies in one degree, so one index per factor serves all
        self._sym_index = {e: a for monos in product.A.basis.values() for a, e in enumerate(monos)}
        self._lambda_index = {e: b for monos in self._lambda_basis.values() for b, e in enumerate(monos)}
        self._wider: Optional[WeilAlgebra] = None

    @staticmethod
    def degree_of(key) -> int:
        exps, lmono = key
        return 2 * sum(exps) + len(lmono)

    def key(self, m: int, i: int) -> tuple:
        """The key of basis vector i of W in degree m."""
        q, a, r, b = self.product.entry(m, i)
        return self.product.A.basis[q][a], self._lambda_basis[r][b]

    def position(self, key) -> int:
        """The index of a key in the basis of its degree."""
        exps, lmono = key
        return self.product.position(2 * sum(exps), self._sym_index[exps], len(lmono), self._lambda_index[lmono])

    def multiply(self, e1: dict, e2: dict) -> dict:
        """Product in W(g); exterior parts pick up the shuffle sign.  Integer
        coefficients give integer coefficients."""
        out: dict = {}
        for (x1, l1), c1 in e1.items():
            for (x2, l2), c2 in e2.items():
                sign, lmono = wedge_concat(l1, l2)
                if not sign:
                    continue
                key = (sym_multiply(x1, x2), lmono)
                s = out.get(key, 0) + sign * c1 * c2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return out

    def differential_element(self, element: dict) -> dict:
        """d_W of an element, read off the lifted d_W.

        d_W out of the top degree N leaves the window, so an element with a
        part there is differentiated in W built one degree further, which is
        kept for later calls.
        """
        parts: dict = {}
        for key, c in element.items():
            parts.setdefault(self.degree_of(key), {})[key] = c
        top = max(parts, default=-1)
        if top >= self.N:
            if self._wider is None or self._wider.N <= top:
                self._wider = weil_algebra(self.product.A.to((top + 1) // 2), self.ext, top + 1)
            return self._wider.differential_element(element)
        out: dict = {}
        for m, part in parts.items():
            column = Matrix(self.product.dim(m), 1, {(self.position(key), 0): c for key, c in part.items()})
            image = self.d.image(m, column).entries
            out.update((self.key(m + 1, i), image[i, 0]) for i, _ in sorted(image))
        return out


class WeilModule(TensorModule):
    """W(g) as a module with contractions; keeps the monomial calculus around.

    i_k = 1 ⊗ i_k^Λ and L_k = L_k^S ⊗ 1 + 1 ⊗ L_k^Λ (the coadjoint action
    on both) come from the factors (see TensorModule): i_k is lifted on
    first read, L_k only where a block of it is read.
    """

    def __init__(self, algebra: WeilAlgebra, complex_: Complex, i_pairs, L_pairs, name: str):
        super().__init__(algebra.g, complex_, algebra.product, i_pairs, L_pairs, name)
        self.algebra = algebra


def weil_algebra(S: SymmetricAlgebra, ext: KgModule, N: int) -> WeilAlgebra:
    """W(g) to total degree N with its lifted d_W, on S = S(g*) to S^(N/2)
    and ext = Λ(g*); a W built wider shares S's record (SymmetricAlgebra.to)."""
    product = TensorSpace(S, ext.space, N)
    d = product.lift_sum(
        [(None, ext.d)]
        + [(S.generator(k), ext.i_ops[k].scale(-1)) for k in range(S.g.dim)]
        + [(L.scale(-1), wedge_by_generator(ext, k)) for k, L in enumerate(S.action)], 1)
    return WeilAlgebra(ext, product, d)


def weil_model(g: LieAlgebra, trunc: Truncation) -> WeilModule:
    """Build W(g) = S(g*) ⊗ Λ(g*) up to total degree N = trunc.max_degree.

    W is TensorSpace(S, Λ(g*)) with S in even degrees, and every operator
    is one summed lift of factor operators (see the module docstring):

        d_W = lift [(1, d_Λ)] + [(u^k·, −i_k^Λ)]_k + [(Θ_k, y^k∧)]_k
        i_k = lift(1, i_k^Λ)
        L_k = lift [(−Θ_k, 1), (1, L_k^Λ)], cut at max_usable = N − 1

    d_W is lifted here; i_k is lifted on first read and L_k only where a
    block of it is read (see TensorModule).  d_W² = 0 is checked on the
    result (a truncated module), one product column at a time.
    """
    ext = exterior_model(g)  # g's own Λ(g*), certified reductive
    alg = weil_algebra(SymmetricAlgebra(g, trunc.max_degree // 2), ext, trunc.max_degree)
    product = alg.product
    no_contraction = LinMap.zero(product.A, product.A, -1)
    cx = Complex(product, alg.d, complete=False, check=True)
    return WeilModule(alg, cx, lambda: ((no_contraction, ik) for ik in ext.i_ops),
                      lambda: zip(product.A.action, ext.L_ops), f"W({g.name})")


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
    product, N = W.algebra.product, W.space.hi
    s_complex, s_vectors = sym_invariant_complex(product.A, N)
    inclusion = ChainMap(s_complex, W.complex, LinMap(s_complex.space, W.space, 0, {
        deg: product.embed(V, deg, left=True) for deg, V in s_vectors.items()}))
    ext = W.algebra.ext
    restriction = ChainMap(W.complex, ext.complex, LinMap(W.space, ext.space, 0, {
        m: product.embed(Matrix.identity(ext.space.dim(m)), m, left=False).transpose()
        for m in range(min(N, W.g.dim) + 1)}))
    return inclusion, restriction


# ---------------------------------------------------------------------------
# The twist
# ---------------------------------------------------------------------------


class TwistData:
    """Twist package on Λ(g*) ⊗ M, cut at total degree ``top``.

    ``unit`` is T = exp(−𝐢) on the columns 1⊗m, a degree-0 map from M into
    ``space``, the TensorSpace Λ(g*)⊗M (itself a graded space); it is
    built at construction and is all the duality verifier reads.  The
    module ``tensor`` (Λ⊗M with its d and i_k), the nilpotent
    ``generator`` 𝐢, ``twist`` T and ``twist_inv`` exp(+𝐢) on all of Λ⊗M
    are built on first access and cached.
    """

    def __init__(self, exterior: KgModule, module: KgModule, top: int):
        self.exterior = exterior
        self.module = module
        self.top = top
        self.space = TensorSpace(exterior.space, module.space, top)
        self.unit = _twist_on_unit(module, self.space)

    @cached_property
    def tensor(self) -> TensorModule:
        return tensor_module(self.exterior, self.module, max_total=self.top,
                             name=f"Λ⊗{self.module.name}")

    @cached_property
    def generator(self) -> LinMap:
        """𝐢, degree 0."""
        ext, M = self.exterior, self.module
        return self.tensor.tensor.lift_sum(
            [(wedge_by_generator(ext, k).scale(-1), M.i_ops[k]) for k in range(M.g.dim)], 0)

    @cached_property
    def _powers(self) -> list:
        powers = [LinMap.identity(self.tensor.space)]
        for _ in range(self.module.g.dim):
            powers.append(self.generator.compose(powers[-1]))
        return powers

    @cached_property
    def twist(self) -> LinMap:
        """T = exp(−𝐢) on all of Λ⊗M."""
        return LinMap.combination([(Fraction((-1) ** q, factorial(q)), power)
                                   for q, power in enumerate(self._powers)])

    @cached_property
    def twist_inv(self) -> LinMap:
        """exp(+𝐢)."""
        return LinMap.combination([(Fraction(1, factorial(q)), power)
                                   for q, power in enumerate(self._powers)])


def _twist_sign(q: int) -> int:
    """(−1)^{q(q+1)/2} of the twist times the (−1)^q of ĵ_I = (−1)^q i_I."""
    return (-1) ** (q * (q + 1) // 2 + q)


def _twist_on_unit(M: KgModule, space: TensorSpace) -> LinMap:
    """T(1⊗m) = sum_I (−1)^{q(q+1)/2} y^I ⊗ ĵ_I m as a map M -> Λ(g*)⊗M.

    The ξ = 1 slice of twist_closed_form (no Koszul sign at |ξ| = 0), with
    y^I basis vector I of Λ^q(g*): one composite ĵ_I = (−1)^q i_I of M per
    I, written straight into the rows (q, I, ·) of ``space``.
    """
    n = M.g.dim
    index = {I: il for q in range(n + 1) for il, I in enumerate(lambda_monomials(n, q))}
    composites = M.contractions(index)
    blocks = {}
    for r in space.degrees():
        parts = [(space.position(len(I), index[I], r - len(I), 0), _twist_sign(len(I)), composite.blocks[r])
                 for I, composite in composites.items() if r in composite.blocks]
        den = lcm(*[blk.den for _, _, blk in parts])
        # distinct (I, row of ĵ_I m) land on distinct rows: nothing accumulates
        blocks[r] = Matrix._from_ints(space.dim(r), M.space.dim(r), {
            (row0 + row, col): sign * (den // blk.den) * v
            for row0, sign, blk in parts for (row, col), v in blk.num.items()}, den)
    return LinMap(M.space, space, 0, blocks)


def twist_operators(M: KgModule, trunc: Truncation) -> TwistData:
    """T = exp(−𝐢) on Λ(g*) ⊗ M, built on 1⊗M (see TwistData).

    𝐢(ξ⊗m) = −sum_k ξ∧y^k ⊗ i_k m: the structural-deletion reading of the
    contraction, which is what makes the interchange identities below hold
    with T = exp(−𝐢) (the module's own i would flip T to exp(+𝐢)).  The
    lift of (y^k ∧ ·) ⊗ i_k carries the Koszul sign (−1)^|ξ|, which turns
    the left wedge y^k∧ξ into ξ∧y^k.  Λ(g*) is g's own (exterior_model),
    the one W(g) is built on.
    """
    ext = exterior_model(M.g)
    top = min(trunc.max_degree, ext.space.hi + M.space.hi)
    return TwistData(ext, M, top)


def twist_closed_form(data: TwistData) -> LinMap:
    """Direct assembly of T(ξ⊗m) = sum_I (−1)^{q(q+1)/2} ξ∧y^I ⊗ ĵ_I m.

    ĵ_I is the composite of structural deletions ĵ = −i over I, rightmost
    index applied first: (−1)^q i_I (KgModule.contractions; see _twist_sign).
    Must equal the exponential series exactly.  The term for I is the lift of
    (y^I ∧ ·) ⊗ ĵ_I, whose Koszul sign (−1)^{q|ξ|} turns y^I∧ξ into ξ∧y^I.
    """
    M, ext = data.module, data.exterior
    n = M.g.dim
    wedges = {(): LinMap.identity(ext.space)}  # y^I ∧ ·, built from the right
    terms = []
    for I, composite in M.contractions(I for q in range(n + 1) for I in lambda_monomials(n, q)).items():
        if I:
            wedges[I] = wedge_by_generator(ext, I[0]).compose(wedges[I[1:]])
        terms.append((wedges[I].scale(_twist_sign(len(I))), composite))
    return data.tensor.tensor.lift_sum(terms, 0)


def twist_identity_contraction(data: TwistData) -> bool:
    """i_k ∘ T = T ∘ (i_k ⊗ 1): contraction on the product versus the factor."""
    TM, ext = data.tensor, data.exterior
    M = data.module
    degrees = TM.complex.usable_degrees(1)
    for k in range(M.g.dim):
        lam_only = TM.tensor.lift(ext.i_ops[k], None)
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
    action = TM.tensor.lift_sum(
        [(wedge_by_generator(ext, k), M.L_ops[k]) for k in range(M.g.dim)], 1)
    twisted_d = TM.d.sub(action)
    lhs = TM.d.compose(data.twist)
    rhs = data.twist.compose(twisted_d)
    degrees = TM.complex.usable_degrees(1)
    return lhs.equal_on(rhs, degrees)


# ---------------------------------------------------------------------------
# Horizontal and basic subspaces
# ---------------------------------------------------------------------------


class HorizontalBasic:
    def __init__(self, horizontal: dict, basic: Complex, basic_vectors: dict, inclusion: ChainMap):
        self.horizontal = horizontal  # degree -> Matrix of the vectors killed by every contraction
        self.basic = basic  # elements killed by i_k and i_k d, as a complex
        self.basic_vectors = basic_vectors  # degree -> Matrix, the basic elements
        self.inclusion = inclusion


def horizontal_basic(M: KgModule) -> HorizontalBasic:
    """Horizontal and basic subspaces of a module, the latter as a complex."""
    top = M.max_usable
    horizontal = {}
    basic_vectors = {}
    for deg in M.space.degrees():
        dim = M.space.dim(deg)
        i_blocks = [op.block(deg) for op in M.i_ops]
        horizontal[deg] = joint_kernel(i_blocks, dim)
        if deg <= top:
            basic_vectors[deg] = joint_kernel(
                i_blocks + [op.block(deg + 1) @ M.d.block(deg) for op in M.i_ops], dim)
    basic, incl = subcomplex(M.complex.truncated(top), basic_vectors,
                             label_prefix=f"({M.name})_bas")
    return HorizontalBasic(horizontal, basic, basic_vectors, incl)


# ---------------------------------------------------------------------------
# The twist embedding of the Cartan model into the basic subcomplex
# ---------------------------------------------------------------------------


class TwistEmbedding:
    """Cartan model ≅ basic subcomplex of W(g) ⊗ M, via a ⊗ m -> a · T(1⊗m)."""

    def __init__(self, cartan: CartanModel, weil: WeilModule, product: TensorModule,
                 twist: TwistData, basic: HorizontalBasic, map: ChainMap, ambient_blocks: dict):
        self.cartan, self.weil, self.twist, self.basic = cartan, weil, twist, basic
        self.product = product  # W(g) ⊗ M
        self.map = map  # Cartan -> basic complex
        self.ambient_blocks = ambient_blocks  # degree -> Matrix into W⊗M coordinates

    def is_bijective(self) -> bool:
        for deg in self.map.source.space.degrees():
            if deg > self.basic.basic.space.hi:
                continue
            blk = self.map.map.block(deg)
            if blk.rows != blk.cols:
                return False
            if blk.rows and rank(blk) != blk.cols:
                return False
        return True


def twisted_cartan_image(A: CartanModel, W: WeilModule, WM: TensorModule, data: TwistData):
    """The assembly x = sum a⊗m  ->  ω · sum a·T(1⊗m) in W⊗M coordinates, on integers.

    Returns (image, den).  image(adeg, x, omega, deg) is the sparse integer
    column {row: value} of den · ω · sum a·T(1⊗m): x is a sparse integer
    column [(position, value), ...] of A's ambient space S(g*)⊗M at degree
    adeg, omega a homogeneous Weil element with integer coefficients and deg
    = adeg + |omega| the degree of the result.  den is the common
    denominator of T on 1⊗M.
    """
    alg = W.algebra
    ext_monos = {p: lambda_monomials(W.g.dim, p) for p in data.exterior.space.degrees()}
    den = lcm(*[m.den for m in data.unit.blocks.values()])
    unit_cols = {q: {mi: [(pos, v * (den // m.den)) for pos, v in col]
                     for mi, col in m.int_columns().items()}
                 for q, m in data.unit.blocks.items()}

    def image(adeg: int, x: Sequence, omega: dict, deg: int) -> dict:
        img: dict = {}
        for at, coeff in x:
            sdeg, si, q, mi = A.ambient.entry(adeg, at)
            exps = A.ambient.A.basis[sdeg][si]
            # T(1 ⊗ m_mi): column mi of the twist on 1⊗M at degree q
            for pos, tval in unit_cols[q][mi]:
                p, il, r, im = data.space.entry(q, pos)
                prod = alg.multiply(omega, {(exps, ext_monos[p][il]): 1})
                c = coeff * tval
                for key, wv in prod.items():
                    row = WM.tensor.position(alg.degree_of(key), alg.position(key), r, im)
                    img[row] = img.get(row, 0) + c * wv
        return img

    return image, den


def twist_embedding(
    M: KgModule,
    trunc: Truncation,
    weil: Optional[WeilModule] = None,
    cartan: Optional[CartanModel] = None,
    product: Optional[TensorModule] = None,
) -> TwistEmbedding:
    """Build the embedding of the Cartan model into (W(g)⊗M) basic elements."""
    g = M.g
    N = trunc.max_degree
    W = weil or weil_model(g, trunc)
    A = cartan or cartan_model(M, trunc)
    WM = product if product is not None else tensor_module(W, M, max_total=N, name=f"W⊗{M.name}")
    data = twist_operators(M, trunc)
    basic = horizontal_basic(WM)
    image, unit_den = twisted_cartan_image(A, W, WM, data)
    unit = {(tuple([0] * g.dim), ()): 1}

    ambient_blocks: dict = {}
    map_blocks: dict = {}
    for deg, V in A.vectors.items():
        if deg > basic.basic.space.hi:
            continue
        rows, cols = WM.space.dim(deg), V.int_columns()
        ambient = Matrix._from_int_columns(rows, [
            (image(deg, cols[j], unit, deg), V.den * unit_den) for j in range(V.cols)])
        ambient_blocks[deg] = ambient
        blk = Subspace(basic.basic_vectors.get(deg, Matrix.zero(rows, 0))).restrict(ambient)
        if blk is None:
            raise SubcomplexError(f"twist embedding image is not basic at degree {deg}")
        map_blocks[deg] = blk

    src_space = A.complex.space
    chain = ChainMap(
        A.complex, basic.basic,
        LinMap(src_space, basic.basic.space, 0, map_blocks),
    )
    return TwistEmbedding(A, W, WM, data, basic, chain, ambient_blocks)


def embedding_s_linearity(emb: TwistEmbedding) -> bool:
    """a' · Ψ(x) = Ψ(a' · x) for every invariant symmetric generator a'."""
    A, W = emb.cartan, emb.weil.algebra.product
    product = emb.product.tensor
    for s_deg in A.ambient.A.basis:
        a = s_deg // 2
        if a == 0:
            continue
        for coeffs in A.ambient.A.invariants(s_deg).columns():
            mult = A.s_action(a, coeffs)
            # multiply ambient images by the invariant polynomial on the W factor (S is even: a lift)
            lifted = product.lift(W.lift(W.A.multiplication(a, coeffs), None), None)
            for deg, blk in emb.ambient_blocks.items():
                tgt_deg = deg + s_deg
                if tgt_deg not in emb.ambient_blocks:
                    continue
                lhs = lifted.block(deg) @ blk
                rhs = emb.ambient_blocks[tgt_deg] @ mult.block(deg)
                if lhs != rhs:
                    return False
    return True

