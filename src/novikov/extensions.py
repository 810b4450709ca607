"""Extensions 0 -> a -> g -> b -> 0 with abelian a, and product lifting.

An extension is the data (a, b, phi, Omega): a representation phi of b on a
and a 2-cocycle Omega. A lift is the data (omega, phi1, phi2) turning
products on a and b into a product on the extension via

    (a,x) o (b,y) = (a.b + phi1(y)a + phi2(x)b + omega(x,y), x.y).

Coordinates on the assembled algebra put the a-part first, then the b-part.
The assembled bracket and the lifted product are one block tensor on a x b,
scattered from the nonzeros of the data. A closed-form lift is decided by
its hypotheses, and a lift handed in from outside by the product checks on
its lifted product: (8)-(14) hold exactly when that product is
left-symmetric and compatible. The paper's lift systems, (8)-(14) for LSA
lifts and (8)-(20) and (25)-(31) for Novikov lifts, are the test suite's
references (tests/dense_scans.py).
"""

from .lie import (LieAlgebra, StructureTensor, _first_defect, _steps_to_zero, quotient_tensor,
                  validate_lie)
from .linalg import (
    DimensionMismatch,
    Matrix,
    Q,
    is_zero_vec,
    jordan_block,
    nilpotent_regular_basis,
    scaled_sum,
    vadd,
    vscale,
    vsub,
    vunit,
    vzero,
)
from .products import Verdict, is_compatible, is_left_symmetric


# (x*y)*z - x*(y*z), in the terms of lie._first_defect
_ASSOCIATIVE = ((1, False, (0, 1, 2)), (-1, True, (0, 1, 2)))


class InvariantViolation(ValueError):
    def __init__(self, equation, witness):
        super().__init__("extension invariant %s fails at %s" % (equation, (witness,)))
        self.equation = equation
        self.witness = witness


class NotTwoStepSolvable(ValueError):
    pass


class HypothesisFailed(ValueError):
    """A construction's hypothesis does not hold for the input; index names
    the offending basis element when there is one."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class NotInvertible(ValueError):
    pass


class GammaExpansionFailed(ValueError):
    pass


class LiftCheckFailed(ValueError):
    def __init__(self, verdict):
        super().__init__("lift fails %s at %s" % (verdict.label, (verdict.witness,)))
        self.verdict = verdict


class NotProductIdeal(ValueError):
    def __init__(self, witness):
        super().__init__("subspace is not a two-sided product ideal: %s" % (witness,))
        self.witness = witness


def _check_representation(bracket, action, dim):
    """[A_p, A_q] = A([e_p, e_q]) on the basis pairs p < q of b, for the
    dim x dim matrices A_p = action[p]; raises InvariantViolation at the
    first failing pair, labelled eq-23 on an abelian b and eq-5 otherwise."""
    m = len(action)
    for p in range(m):
        for q in range(p + 1, m):
            lhs = action[p] * action[q] - action[q] * action[p]
            if lhs != scaled_sum(zip(bracket.basis_product(p, q), action), dim, dim):
                raise InvariantViolation("eq-23" if bracket.is_zero() else "eq-5", (p, q))


class ExtensionData:
    """The tuple (a, b, phi, Omega) describing an extension with abelian a.

    phi is given by the matrices A_p = phi(e_p); Omega by its values
    v_pq = Omega(e_p, e_q) for p < q. The optional products are an
    LSA-product on b and a commutative associative product on a.
    """

    __slots__ = ("dim_a", "dim_b", "phi", "omega", "b_bracket", "b_product", "a_product")

    def __init__(self, dim_a, dim_b, phi, omega=None, b_bracket=None,
                 b_product=None, a_product=None):
        phi = tuple(phi)
        if len(phi) != dim_b:
            raise DimensionMismatch("need one action matrix per b basis element")
        for m in phi:
            if m.rows != dim_a or m.cols != dim_a:
                raise DimensionMismatch("action matrices must be dim_a x dim_a")
        table = {}
        for (p, q), v in (omega or {}).items():
            if not (0 <= p < q < dim_b):
                raise ValueError("omega keys must satisfy p < q")
            if len(v) != dim_a:
                raise DimensionMismatch("omega values live in a")
            v = tuple(Q(x) for x in v)
            if not is_zero_vec(v):
                table[(p, q)] = v
        for name, given, dim in (("b_bracket", b_bracket, dim_b),
                                 ("b_product", b_product, dim_b), ("a_product", a_product, dim_a)):
            if given is not None and given.dim != dim:
                raise DimensionMismatch("%s must have dimension %d" % (name, dim))
        self.dim_a = dim_a
        self.dim_b = dim_b
        self.phi = phi
        self.omega = table
        self.b_bracket = b_bracket if b_bracket is not None else StructureTensor(dim_b, {})
        self.b_product = b_product if b_product is not None else StructureTensor(dim_b, {})
        self.a_product = a_product if a_product is not None else StructureTensor(dim_a, {})

    def b_is_abelian(self):
        return self.b_bracket.is_zero()

    def products_trivial(self):
        return self.a_product.is_zero() and self.b_product.is_zero()

    def omega_pair(self, p, q):
        if p == q:
            return vzero(self.dim_a)
        if p < q:
            return self.omega.get((p, q), vzero(self.dim_a))
        return vscale(-1, self.omega.get((q, p), vzero(self.dim_a)))

    def omega_of(self, x, y):
        out = vzero(self.dim_a)
        for (p, q), v in self.omega.items():
            c = x[p] * y[q] - x[q] * y[p]
            if c:
                out = vadd(out, vscale(c, v))
        return out

    def phi_of(self, x):
        return scaled_sum(zip(x, self.phi), self.dim_a, self.dim_a)

    def b_algebra(self):
        return validate_lie(self.b_bracket)

    def validate(self):
        """Check the representation and cocycle identities, the a-product and
        the b-product.

        Raises InvariantViolation naming the governing equation: (5) for the
        representation identity ((23) when b is abelian), (6) for the cocycle
        identity ((24) when b is abelian), and last, for a nonzero b-product,
        the hypothesis of (8)-(14) with the label and witness of
        _b_product_verdict. A zero b-product stands for none: assemble needs
        no product on b, and reduction_lift fails it on a non-abelian b. A
        b-bracket that is not a Lie bracket raises the AntisymmetryViolation
        or JacobiViolation of validate_lie first. The a-product is
        commutative when it is compatible with the zero bracket, and its
        associativity is the triple scan of lie._first_defect.
        """
        b = self.b_algebra()
        _check_representation(self.b_bracket, self.phi, self.dim_a)
        cocycle_eq = "eq-24" if self.b_is_abelian() else "eq-6"
        m = self.dim_b
        for p in range(m):
            for q in range(p + 1, m):
                for r in range(q + 1, m):
                    lhs = vadd(
                        vsub(
                            self.phi[p].apply(self.omega_pair(q, r)),
                            self.phi[q].apply(self.omega_pair(p, r)),
                        ),
                        self.phi[r].apply(self.omega_pair(p, q)),
                    )
                    rhs = vadd(
                        vsub(
                            self.omega_of(self.b_bracket.basis_product(p, q), vunit(m, r)),
                            self.omega_of(self.b_bracket.basis_product(p, r), vunit(m, q)),
                        ),
                        self.omega_of(self.b_bracket.basis_product(q, r), vunit(m, p)),
                    )
                    if lhs != rhs:
                        raise InvariantViolation(cocycle_eq, (p, q, r))
        commutative = is_compatible(self.a_product, LieAlgebra(StructureTensor(self.dim_a, {})))
        if not commutative:
            raise InvariantViolation("a-product-commutative", commutative.witness)
        bad = _first_defect(self.a_product, _ASSOCIATIVE, False, False)
        if bad:
            raise InvariantViolation("a-product-associative", bad)
        if not self.b_product.is_zero():
            hypothesis = _b_product_verdict(self, b)
            if not hypothesis:
                raise InvariantViolation(hypothesis.label, hypothesis.witness)
        return self

    def __repr__(self):
        return "ExtensionData(dim_a=%d, dim_b=%d)" % (self.dim_a, self.dim_b)


class LiftData:
    """Candidate lift (omega, phi1, phi2) given by matrices X_p = phi1(e_p),
    Y_p = phi2(e_p) and the full table x_values[(p, q)] = omega(e_p, e_q)."""

    __slots__ = ("dim_a", "dim_b", "x_op", "y_op", "x_values")

    def __init__(self, dim_a, dim_b, x_op, y_op, x_values=None):
        x_op, y_op = tuple(x_op), tuple(y_op)
        if len(x_op) != dim_b or len(y_op) != dim_b:
            raise DimensionMismatch("need one matrix per b basis element")
        for m in x_op + y_op:
            if m.rows != dim_a or m.cols != dim_a:
                raise DimensionMismatch("lift matrices must be dim_a x dim_a")
        table = {}
        for (p, q), v in (x_values or {}).items():
            if not (0 <= p < dim_b and 0 <= q < dim_b):
                raise ValueError("x_values keys out of range")
            if len(v) != dim_a:
                raise DimensionMismatch("x_values live in a")
            v = tuple(Q(x) for x in v)
            if not is_zero_vec(v):
                table[(p, q)] = v
        self.dim_a = dim_a
        self.dim_b = dim_b
        self.x_op = x_op
        self.y_op = y_op
        self.x_values = table

    def __repr__(self):
        return "LiftData(dim_a=%d, dim_b=%d)" % (self.dim_a, self.dim_b)


def assemble(ext):
    """The Lie algebra on a x b defined by the extension data. Once
    ext.validate() passes, (5), (6) and b's Jacobi identity make the bracket
    a Lie bracket; the test suite checks that validate_lie agrees."""
    ext.validate()
    labels = tuple("a%d" % (i + 1) for i in range(ext.dim_a))
    labels += tuple("b%d" % (p + 1) for p in range(ext.dim_b))
    return LieAlgebra(_extension_bracket(ext), labels)


def _extension_bracket(ext):
    """The bracket tensor of the extension, unvalidated: [e_i, f_q] = -A_q e_i,
    [f_p, e_j] = A_p e_j and [f_p, f_q] = Omega(p, q) + [f_p, f_q]_b."""
    omega = dict(ext.omega)
    omega.update({(q, p): vscale(-1, v) for (p, q), v in ext.omega.items()})
    return _block_tensor(StructureTensor(ext.dim_a, {}), [a.scale(-1) for a in ext.phi],
                         ext.phi, omega, ext.b_bracket)


def _block_tensor(a_tensor, x_op, y_op, omega, b_tensor):
    """The tensor on a x b with e_i e_j from a_tensor, e_i f_q = X_q e_i,
    f_p e_j = Y_p e_j and f_p f_q = omega[(p, q)] plus f_p f_q from b_tensor,
    scattered from the nonzeros of each block in sorted (i, j, k) order."""
    n, m = a_tensor.dim, b_tensor.dim
    entries = dict(a_tensor.entries)
    for q in range(m):
        for k, (x_row, y_row) in enumerate(zip(x_op[q].data, y_op[q].data)):
            entries.update({(i, n + q, k): c for i, c in enumerate(x_row) if c})
            entries.update({(n + q, j, k): c for j, c in enumerate(y_row) if c})
    for (p, q), v in omega.items():
        entries.update({(n + p, n + q, k): c for k, c in enumerate(v) if c})
    entries.update({(n + p, n + q, n + k): c for (p, q, k), c in b_tensor.entries.items()})
    return StructureTensor(n + m, {key: entries[key] for key in sorted(entries)})


class SplitData:
    """Change of coordinates between an algebra and its split extension form.

    Columns of `basis` are the a-basis vectors followed by the complement
    section vectors, expressed in the original coordinates.
    """

    __slots__ = ("basis", "basis_inv")

    def __init__(self, a_basis, section_indices, ambient_dim):
        columns = [list(v) for v in a_basis] + [
            list(vunit(ambient_dim, j)) for j in section_indices
        ]
        self.basis = Matrix.from_columns(columns)
        self.basis_inv = self.basis.inverse()

    def transport_product(self, p):
        """Rewrite a product on split coordinates into original coordinates."""
        return p.change_basis(self.basis_inv, self.basis)


def two_step_solvable_from(g):
    """Present a 2-step solvable algebra as an extension of abelian algebras.

    a = [g, g], b = g/[g, g]; the section is the lexicographically earliest
    set of standard basis vectors complementing a, so the output is
    deterministic. Returns (ExtensionData, SplitData).
    """
    series = g.derived_series()
    dl = _steps_to_zero(series)
    if dl is None or dl > 2:
        raise NotTwoStepSolvable("derived length is %s" % dl)
    derived = series[1] if len(series) > 1 else series[-1]
    n = derived.dim
    section = derived.complement()
    m = len(section)
    split = SplitData(derived.basis, section, g.dim)
    # in the split basis a = [g, g] comes first, so phi_p is the a x a block of
    # ad(b_p) and Omega(p, q) the a-part of [b_p, b_q]
    t = g.bracket.change_basis(split.basis, split.basis_inv)
    assert all(k < n for _, _, k in t.entries), "[g, g] escaped the derived subalgebra"
    phi = [Matrix([row[:n] for row in t.left_matrix(n + p).data[:n]], cols=n) for p in range(m)]
    omega = {
        (p, q): t.basis_product(n + p, n + q)[:n] for p in range(m) for q in range(p + 1, m)
    }
    return ExtensionData(n, m, phi, omega), split


def lift_product(ext, lift):
    """The bilinear product on a x b defined by the lift; validity not implied."""
    return _block_tensor(ext.a_product, lift.x_op, lift.y_op, lift.x_values, ext.b_product)


def _b_product_verdict(ext, b=None):
    """The hypothesis of (8)-(14): the b-product is an LSA structure on b.
    b is the validated b-algebra when the caller has built it; otherwise it
    is validated here, once left symmetry holds."""
    lsa = is_left_symmetric(ext.b_product)
    if not lsa:
        return Verdict(False, lsa.witness, "b-product-left-symmetric")
    compat = is_compatible(ext.b_product, b if b is not None else ext.b_algebra())
    if not compat:
        return Verdict(False, compat.witness, "b-product-compatibility")
    return Verdict(True)


def _require_trivial_abelian(ext, who):
    if not ext.b_is_abelian():
        raise HypothesisFailed("%s requires an abelian b" % who)
    if not ext.products_trivial():
        raise HypothesisFailed("%s requires trivial products on a and b" % who)


def _require_three_step(ext, who):
    """The closed forms' hypotheses: abelian b, trivial products, A_p A_q = 0
    and valid data. They give class at most 3, since g^4 is spanned by the
    A_s A_r Omega(p, q) = 0; the test suite checks the class."""
    _require_trivial_abelian(ext, who)
    for p in range(ext.dim_b):
        for q in range(ext.dim_b):
            if not (ext.phi[p] * ext.phi[q]).is_zero():
                raise HypothesisFailed(
                    "%s requires A_p A_q = 0; fails at (%d, %d)" % (who, p, q)
                )
    ext.validate()


def scheuneman_lift(ext):
    """The closed-form LSA lift x_pq = v_pq/2, X_p = -A_p/3, Y_p = 2A_p/3.

    Requires abelian b, trivial products and A_p A_q = 0, which for
    a = [g, g] hold exactly when g has class at most 3, and valid data.
    They decide (8)-(14), so the lift is returned unchecked: (10) is a third
    of (24), (11) reads -(2/9)A_q A_r + (1/3)A_r A_q = 0, the rest are direct.
    """
    _require_three_step(ext, "scheuneman_lift")
    third = Q(1, 3)
    x_op = [a.scale(-third) for a in ext.phi]
    y_op = [a.scale(2 * third) for a in ext.phi]
    x_values = {}
    for p in range(ext.dim_b):
        for q in range(ext.dim_b):
            v = ext.omega_pair(p, q)
            if not is_zero_vec(v):
                x_values[(p, q)] = vscale(Q(1, 2), v)
    return LiftData(ext.dim_a, ext.dim_b, x_op, y_op, x_values)


def two_gen_lift(ext):
    """Novikov lift for two-generated three-step nilpotent extensions:
    X_1 = -A_1/2, X_2 = 0, x_21 = -v_12. With A_p A_q = 0, (25)-(31) read
    0 = 0 or the definition of the lift, so it is returned unchecked."""
    if ext.dim_b != 2:
        raise HypothesisFailed("two_gen_lift requires dim b = 2")
    _require_three_step(ext, "two_gen_lift")
    x_op = [ext.phi[0].scale(Q(-1, 2)), Matrix.zeros(ext.dim_a, ext.dim_a)]
    y_op = [x + a for x, a in zip(x_op, ext.phi)]
    v12 = ext.omega_pair(0, 1)
    x_values = {}
    if not is_zero_vec(v12):
        x_values[(1, 0)] = vscale(-1, v12)
    return LiftData(ext.dim_a, ext.dim_b, x_op, y_op, x_values)


def iso_lift(ext, e):
    """Novikov lift when phi(e) is invertible: phi1 = 0, phi2 = phi and
    omega(x, y) = phi(e)^-1 phi(x) Omega(e, y). Valid data decides (25)-(31):
    (25) is phi(e)^-1 times (24) at (e, p, q), (27) is (23), and X = 0."""
    _require_trivial_abelian(ext, "iso_lift")
    if len(e) != ext.dim_b:
        raise DimensionMismatch("e must have dim b coordinates")
    phi_e = ext.phi_of(e)
    try:
        inv = phi_e.inverse()
    except ValueError:
        raise NotInvertible("phi(e) is singular for e = %s" % (e,))
    ext.validate()
    m = ext.dim_b
    x_values = {}
    for p in range(m):
        for q in range(m):
            w = inv.apply(ext.phi[p].apply(ext.omega_of(e, vunit(m, q))))
            if not is_zero_vec(w):
                x_values[(p, q)] = w
    zero = Matrix.zeros(ext.dim_a, ext.dim_a)
    return LiftData(ext.dim_a, ext.dim_b, [zero] * m, list(ext.phi), x_values)


def semidirect_lift(ext):
    """Lift for split extensions (Omega = 0): the product (a,x)o(b,y) =
    (phi(x)b, x.y). Left-symmetric whenever the b-product is an LSA structure
    on b; Novikov iff additionally phi(x.y) = 0 (condition (16)). The two
    b-product checks decide the lift: with omega = 0, X = 0 and Y = A, (8)-(14)
    hold (tested in the suite)."""
    if ext.omega:
        raise HypothesisFailed("semidirect_lift requires a split extension (Omega = 0)")
    if not ext.a_product.is_zero():
        raise HypothesisFailed("semidirect_lift requires a trivial a-product")
    hypothesis = _b_product_verdict(ext)
    if not hypothesis:
        raise LiftCheckFailed(hypothesis)
    zero = Matrix.zeros(ext.dim_a, ext.dim_a)
    return LiftData(ext.dim_a, ext.dim_b, [zero] * ext.dim_b, list(ext.phi), {})


def jordan_lift(ext, x_index):
    """Novikov lift when phi(e_x) is nilpotent of index exactly dim a.

    Runs the regular-nilpotent normalization: base-changes a so that the
    distinguished action matrix becomes the Jordan block J(n), expands the
    other action matrices as polynomials in it, delegates to iso_lift when
    some constant coefficient is nonzero (that matrix is then invertible),
    otherwise re-bases b to kill the linear coefficients and emits the
    closed-form table x_1j = v_1j, x_ij = J^t A_i v_1j (i <= j),
    x_ji = x_ij - v_ij. The result is reported in the caller's basis. On
    valid data the table is the paper's regular Jordan-block lift, unchecked.
    """
    _require_trivial_abelian(ext, "jordan_lift")
    n, m = ext.dim_a, ext.dim_b
    if not (0 <= x_index < m):
        raise DimensionMismatch("x_index out of range")
    p_mat = nilpotent_regular_basis(ext.phi[x_index])
    p_inv = p_mat.inverse()
    order = [x_index] + [p for p in range(m) if p != x_index]
    a_conj = [p_mat * ext.phi[p] * p_inv for p in order]

    def v_perm(p, q):
        return p_mat.apply(ext.omega_pair(order[p], order[q]))

    j_n = jordan_block(n)
    gammas = []
    for idx, mat in enumerate(a_conj):
        # sum_k gamma_k J^k has gamma_(c-r) at (r, c) for c >= r, 0 below
        gamma = [mat[0, k] for k in range(n)]
        if any(mat[r, c] != (gamma[c - r] if c >= r else 0) for r in range(n) for c in range(n)):
            raise GammaExpansionFailed(
                "A_%d is not a polynomial in the regular block" % order[idx]
            )
        gammas.append(gamma)
    for idx in range(1, m):
        if gammas[idx][0] != 0:
            return iso_lift(ext, vunit(m, order[idx]))
    ext.validate()
    # rebase b: f_0 = e_0, f_i = e_i - gamma_{i,1} e_0 (no linear term when n = 1)
    shift = [Q(0)] + [gammas[idx][1] if n > 1 else Q(0) for idx in range(1, m)]
    b_mats = [a_conj[0]] + [a_conj[idx] - j_n.scale(shift[idx]) for idx in range(1, m)]

    def w_val(p, q):
        return vsub(
            vsub(v_perm(p, q), vscale(shift[q], v_perm(p, 0))),
            vscale(shift[p], v_perm(0, q)),
        )

    jt = j_n.transpose()
    table = {}
    table[(0, 0)] = vzero(n)
    for j in range(1, m):
        table[(0, j)] = w_val(0, j)
    for i in range(1, m):
        for j in range(i, m):
            table[(i, j)] = (jt * b_mats[i]).apply(w_val(0, j))
    for i in range(m):
        for j in range(i + 1, m):
            table[(j, i)] = vsub(table[(i, j)], w_val(i, j))
    # transform back: f-basis -> permuted basis -> original b order and a coords
    x_values = {}
    for p in range(m):
        for q in range(m):
            w = table[(p, q)]
            w = vadd(w, vscale(shift[q], table[(p, 0)]))
            w = vadd(w, vscale(shift[p], table[(0, q)]))
            w = p_inv.apply(w)
            if not is_zero_vec(w):
                x_values[(order[p], order[q])] = w
    return LiftData(n, m, [Matrix.zeros(n, n)] * m, list(ext.phi), x_values)


def novikov_ideal_quotient(p, ideal):
    """Quotient of a product by a two-sided product ideal, on the canonical
    complement basis. A Novikov input yields a Novikov output."""
    n = p.dim
    for j in range(n):
        ej = vunit(n, j)
        for v in ideal.basis:
            if not ideal.contains(p.apply(v, ej)):
                raise NotProductIdeal(("right", j, v))
            if not ideal.contains(p.apply(ej, v)):
                raise NotProductIdeal(("left", j, v))
    return quotient_tensor(p, ideal)[1]
