"""Module decomposition over nilpotent Lie algebras and the reduction of the
lifting problem to nilpotent extensions.

A module over a nilpotent algebra splits as V_n + V_0 with V_n the unique
maximal nilpotent submodule and V_0 an invariant complement with vanishing
invariants (Fitting's lemma). Both parts come from one power A^d of each
action, d = dim V: V_n is the common kernel of the powers, V_0 the sum of
their images. Applied to an extension this quotients away the H^0-free part
of a, producing a nilpotent extension. A lift's product there pulls back to
the extension by one change of basis, which takes a to its Fitting basis
and moves each section vector f_p by lam_p.
"""

from math import gcd, lcm

from .extensions import (
    ExtensionData,
    HypothesisFailed,
    LiftCheckFailed,
    LiftData,
    NotTwoStepSolvable,
    _b_product_verdict,
    _check_representation,
    _extension_bracket,
    lift_product,
    scheuneman_lift,
    two_step_solvable_from,
)
from .lie import LieAlgebra, StructureTensor
from .linalg import (
    DimensionMismatch,
    Matrix,
    Q,
    Subspace,
    _add_term,
    solve_sparse,
    vscale,
    vunit,
    vzero,
)
from .products import Verdict, is_compatible, is_left_symmetric


class NotNilpotentAlgebra(ValueError):
    pass


class InconsistentCoboundary(ValueError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ModuleAction:
    """A representation of a Lie algebra b on Q^dim_v, one matrix per basis
    element of b, checked as ExtensionData.validate checks phi."""

    __slots__ = ("b", "dim_v", "action")

    def __init__(self, b, dim_v, action):
        action = tuple(action)
        if len(action) != b.dim:
            raise DimensionMismatch("need one action matrix per basis element")
        for m in action:
            if m.rows != dim_v or m.cols != dim_v:
                raise DimensionMismatch("action matrices must be dim_v x dim_v")
        _check_representation(b.bracket, action, dim_v)
        self.b = b
        self.dim_v = dim_v
        self.action = action

    def __repr__(self):
        return "ModuleAction(b dim=%d, V dim=%d)" % (self.b.dim, self.dim_v)


class Decomposition:
    """The splitting V = V_n + V_0 of a module over a nilpotent algebra: V_n
    the common kernel of the powers A^d of the actions, V_0 the sum of their
    images, each a Subspace with its canonical basis."""

    __slots__ = ("v_n", "v_0")

    def __init__(self, v_n, v_0):
        self.v_n = v_n
        self.v_0 = v_0

    def basis_matrix(self):
        """Columns: V_n basis followed by V_0 basis."""
        return Matrix.from_columns([list(v) for v in self.v_n.basis + self.v_0.basis])

    def __repr__(self):
        return "Decomposition(V_n dim=%d, V_0 dim=%d)" % (self.v_n.dim, self.v_0.dim)


def fitting_decompose(module):
    """Split V into the maximal nilpotent submodule V_n and the image part V_0.

    With d = dim V and A_p the action of the p-th basis element of b, V_n
    is the common kernel of the A_p^d and V_0 the span of their int columns.
    The kernel takes one elimination of the stacked int rows, with the
    columns reversed: with W the primitive int pivot rows, each free column
    r = d-1-f gives v_f = e_f - sum_p (W[p][r] / W[p][p]) e_(d-1-p). W is
    reduced, each pivot the least column of its row, so v_f has its lead 1
    at f and is 0 at every other lead: the v_f are the kernel's reduced
    echelon basis as they stand, and no second elimination is needed. Each
    is handed on as m * v_f, with m the lcm of its denominators, which is
    its primitive int row. Requires the acting algebra to be nilpotent;
    ModuleAction has checked that the A_p form a representation, so they
    span a nilpotent Lie algebra of linear maps. Over the algebraic closure V is then the direct sum of invariant
    generalized weight spaces V^lam, with lam linear and A_p - lam(e_p)
    nilpotent on V^lam (Jacobson, Lie Algebras, ch. II). So A_p^d kills
    V^lam when lam(e_p) = 0 and is invertible on it otherwise: the common
    kernel is V^0, the space every word of length d in the A_p kills, and
    the sum of the images is the sum of the V^lam with lam != 0, the span of
    the images of those words. Any power at or above d has the kernel and
    the image of A_p^d, so the powers come from repeated squaring. That
    V = V_n + V_0 is a direct sum of invariant subspaces is Fitting's lemma;
    it is not re-checked here but tested in the test suite.
    """
    if not module.b.is_nilpotent():
        raise NotNilpotentAlgebra("acting algebra is not nilpotent")
    d = module.dim_v
    rows, columns = [], []
    for power in module.action:
        for _ in range(max(d - 1, 0).bit_length()):
            power = power * power
        _, ints, nonzeros = power._int_form()
        rows += ({d - 1 - j: x for j, x in row} for row in nonzeros)
        columns += ({i: x for i, x in enumerate(col) if x} for col in zip(*ints))
    sol = solve_sparse(rows, None, d)
    kernel = {}
    for r in reversed(sol.free_columns()):
        terms = [(d - 1 - p, row[r], row[p]) for p, row in sol._rows.items() if r in row]
        m = lcm(*(lead // gcd(x, lead) for _, x, lead in terms))
        kernel[d - 1 - r] = {d - 1 - r: m, **{k: -x * m // lead for k, x, lead in terms}}
    return Decomposition(Subspace._from_echelon(d, kernel), Subspace._from_rows(d, columns))


class InducedExtension:
    """Result of induced_nilpotent_extension.

    ext_n: the extension of b by a_n = a/a_0.
    lam: one a_0-coordinate vector per b basis element; shifting the section
         by lam replaces the cocycle by one with values in a_n only.
    phi_0: the actions of b on a_0, one matrix per b basis element.
    basis / basis_inv: the a-coordinate change (columns = V_n then V_0 basis).
    dim_n / dim_0: the dimensions of V_n and V_0 in decomposition, the
    Fitting splitting of a as a b-module.
    """

    __slots__ = ("ext_n", "lam", "phi_0", "basis", "basis_inv", "dim_n", "dim_0")

    def __init__(self, ext_n, lam, phi_0, decomposition, basis, basis_inv):
        self.ext_n = ext_n
        self.lam = lam
        self.phi_0 = phi_0
        self.basis = basis
        self.basis_inv = basis_inv
        self.dim_n = decomposition.v_n.dim
        self.dim_0 = decomposition.v_0.dim


def induced_nilpotent_extension(ext):
    """Quotient away the H^0-free part of a.

    Decomposes a = a_n + a_0 under the action of the (nilpotent) algebra b,
    splits the cocycle accordingly and solves the coboundary equation that
    removes the a_0-component. Returns the induced nilpotent extension
    (a_n, b, phi', Omega') together with the section correction.
    """
    module = ModuleAction(ext.b_algebra(), ext.dim_a, ext.phi)
    dec = fitting_decompose(module)
    n1, n2 = dec.v_n.dim, dec.v_0.dim
    m = ext.dim_b
    basis = dec.basis_matrix()
    basis_inv = basis.inverse()
    phi_split = [basis_inv * a * basis for a in ext.phi]
    phi_n, phi_0 = [], []
    for mat in phi_split:
        top = [row[:n1] for row in mat.data[:n1]]
        bottom = [row[n1:] for row in mat.data[n1:]]
        phi_n.append(Matrix(top, cols=n1))
        phi_0.append(Matrix(bottom, cols=n2))
    omega_n = {}
    omega_0 = {}
    for (p, q), v in ext.omega.items():
        w = basis_inv.apply(v)
        omega_n[(p, q)] = w[:n1]
        omega_0[(p, q)] = w[n1:]
    # the extension of b by a_0; solve d(mu) = Omega'' for mu: b -> a_0,
    # then lam = -mu kills Omega''
    rows = []
    rhs_entries = []
    for p in range(m):
        for q in range(p + 1, m):
            bracket = module.b.bracket.basis_product(p, q)
            target = omega_0.get((p, q), vzero(n2))
            for r in range(n2):
                row = {}
                for c in range(n2):
                    _add_term(row, q * n2 + c, phi_0[p][r, c])
                    _add_term(row, p * n2 + c, -phi_0[q][r, c])
                for k, c in enumerate(bracket):
                    _add_term(row, k * n2 + r, -c)
                rows.append(row)
                rhs_entries.append(target[r])
    sol = solve_sparse(rows, rhs_entries, m * n2)
    if not sol.consistent:
        raise InconsistentCoboundary(
            "cocycle has no coboundary in the H^0-free part; input violates invariants",
            witness=sol.witness,
        )
    mu = sol.particular()
    lam = [vscale(-1, mu[p * n2 : (p + 1) * n2]) for p in range(m)]
    ext_n = ExtensionData(
        n1, m, phi_n, omega_n, b_bracket=ext.b_bracket, b_product=ext.b_product
    )
    return InducedExtension(ext_n, lam, phi_0, dec, basis, basis_inv)


def reduction_lift(ext, lift_n):
    """Extend a lift on the induced nilpotent extension to the full extension.

    The lift's product on a_n x b is pulled back to the extension by
    _pull_back, and the lift is read off the blocks that land in a. Preserves
    the checker verdicts: an LSA lift yields an LSA lift, and a Novikov lift
    a Novikov lift in the trivial-products case. The incoming lift comes from
    outside, so it is decided here, once, on the induced extension;
    LiftCheckFailed carries the first failing verdict of dimension-mismatch,
    the b-product hypothesis and the product checks that decide (8)-(14):
    eq-1 of the lifted product, then eq-3 against the unvalidated extension
    bracket, which invalid data fails too. The pulled-back lift is an LSA
    lift by the reduction and is returned unchecked; the test suite checks
    both against (8)-(14).
    """
    if not ext.a_product.is_zero():
        raise HypothesisFailed("reduction_lift requires a trivial a-product")
    ind = induced_nilpotent_extension(ext)
    ext_n = ind.ext_n
    if (lift_n.dim_a, lift_n.dim_b) != (ext_n.dim_a, ext_n.dim_b):
        raise LiftCheckFailed(Verdict(False, None, "dimension-mismatch"))
    verdict = _b_product_verdict(ext_n)
    if verdict:
        product = lift_product(ext_n, lift_n)
        verdict = is_left_symmetric(product)
        if verdict:
            verdict = is_compatible(product, LieAlgebra(_extension_bracket(ext_n)))
    if not verdict:
        raise LiftCheckFailed(verdict)
    return _lift_of(_pull_back(ind, product), ext.dim_a, ext.dim_b)


def _pull_back(ind, product_n, split=None):
    """product_n, the product of an LSA lift on ind.ext_n, in the coordinates
    of the extension ind came from, unchecked, or with split, the split data,
    in those of the algebra, composed with split.transport_product's change
    of basis. In the basis V_n, V_0, f_p + lam_p it is product_n with b
    moved past a_0, plus f_p v = phi_0(p) v on a_0; the columns of S =
    [[B, B Lam], [0, I]] are that basis, with B = ind.basis and Lam the
    columns (0, lam_p), and S^-1 = [[B^-1, -Lam], [0, I]]. As a a = 0, the
    a-part of f_p f_q becomes omega(p, q) - X_q lam_p - Y_p lam_q + lam(p q):
    the section correction.
    """
    n1, n2, m = ind.dim_n, ind.dim_0, len(ind.lam)
    n = n1 + n2
    entries = {tuple(x + n2 if x >= n1 else x for x in key): c
               for key, c in product_n.entries.items()}
    for p, phi in enumerate(ind.phi_0):
        for r, row in enumerate(phi.data):
            entries.update({(n + p, n1 + c, n1 + r): x for c, x in enumerate(row) if x})
    lam = [vzero(n1) + v for v in ind.lam]
    b_lam = [ind.basis.apply(v) for v in lam]
    b_rows = [vzero(n) + vunit(m, p) for p in range(m)]
    s = Matrix([row + tuple(v[i] for v in b_lam) for i, row in enumerate(ind.basis.data)]
               + b_rows, cols=n + m)
    s_inv = Matrix([row + tuple(-v[i] for v in lam) for i, row in enumerate(ind.basis_inv.data)]
                   + b_rows, cols=n + m)
    if split is not None:
        s, s_inv = split.basis * s, s_inv * split.basis_inv
    return StructureTensor(n + m, entries).change_basis(s_inv, s)


def _lift_of(product, n, m):
    """The lift on a = Q^n, b = Q^m whose lift_product is product, which has
    a trivial a-product: the inverse of lift_product."""

    def entry(i, j, k):
        return product.pairs.get((i, j), {}).get(k, Q(0))

    x_op = [Matrix([[entry(i, n + q, k) for i in range(n)] for k in range(n)], cols=n)
            for q in range(m)]
    y_op = [Matrix([[entry(n + p, j, k) for j in range(n)] for k in range(n)], cols=n)
            for p in range(m)]
    values = {(p, q): product.basis_product(n + p, n + q)[:n] for p in range(m) for q in range(m)}
    return LiftData(n, m, x_op, y_op, values)


def prop57_construct(g):
    """Complete left-symmetric structure on a 2-step solvable algebra whose
    lower central series stabilizes at the fourth term.

    Pipeline: present g as an extension of abelian algebras, pass to the
    induced nilpotent extension (nilpotent of class at most 3), apply the
    closed-form lift there, and carry its product back to the extension and
    on to g by one change of basis (_pull_back). No lift is checked:
    scheuneman_lift's hypotheses decide its lift, and the reduction turns it
    into an LSA lift on the extension. That the product is left-symmetric, compatible and
    complete is tested in the test suite. The derived series of g is built
    once, by two_step_solvable_from.
    """
    try:
        ext, split = two_step_solvable_from(g)
    except NotTwoStepSolvable:
        raise HypothesisFailed("prop57_construct requires a 2-step solvable algebra") from None
    if len(g.lower_central_series()) > 4:  # its terms are distinct until it stops
        raise HypothesisFailed("lower central series does not stabilize at step 4")
    ind = induced_nilpotent_extension(ext)
    product = lift_product(ind.ext_n, scheuneman_lift(ind.ext_n))
    return _pull_back(ind, product, split)
