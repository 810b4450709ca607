"""Existence and nonexistence of Novikov structures by exact elimination.

The unknowns are the entries of the left multiplications L(e_i); the right
multiplications are eliminated through R(x) = L(x) - ad(x). The linear block
collects the compatibility equations L(e_i)e_j - L(e_j)e_i = [e_i, e_j] and
the operator relation

    L([x,y]) + ad([x,y]) - [ad(x), L(y)] - [L(x), ad(y)] = 0,

the quadratic block the representation condition [L(x), L(y)] = L([x,y]) and
the commutation [R(x), R(y)] = 0. A NotExists verdict carries a rational
combination of equations that evaluates to a nonzero constant on the whole
affine solution set of the linear block; the witness re-verifies with nothing
but rational arithmetic. No Groebner bases anywhere: linear algebra plus
bounded cancellation of leading monomials.
"""

import hashlib

from .extensions import (
    GammaExpansionFailed,
    HypothesisFailed,
    LiftCheckFailed,
    NotInvertible,
    NotTwoStepSolvable,
    check_lift_novikov,
    iso_lift,
    jordan_lift,
    lift_product,
    scheuneman_lift,
    two_gen_lift,
    two_step_solvable_from,
)
from .lie import StructureTensor
from .linalg import NotRegularNilpotent, Q, _add_scaled, _add_term, _row_step, solve_sparse, vunit
from .products import (
    AlgebraProduct,
    half_bracket_product,
    is_compatible,
    is_novikov,
)

# Elimination budget that comfortably covers the 8-dimensional free nilpotent
# fixture (its contradiction appears at 13 pivots); found empirically.
DEFAULT_EFFORT = 64

EXISTS = "exists"
NOT_EXISTS = "not-exists"
UNDETERMINED = "undetermined"

_ZERO, _ONE, _MINUS_ONE = Q(0), Q(1), Q(-1)


class WitnessCheckFailed(RuntimeError):
    """A nonexistence witness found by decide_novikov failed re-verification."""


def algebra_hash(g):
    """SHA-256 over the canonical bracket serialization; ties certificates to
    the algebra they talk about."""
    lines = ["dim %d" % g.dim]
    for (i, j, k) in sorted(g.bracket.entries):
        lines.append("%d %d %d %s" % (i, j, k, g.bracket.entries[(i, j, k)]))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class PolySystem:
    """The full condition system for a Novikov structure on g.

    Variables are indexed (i*n + r)*n + c for the entry L(e_i)[r][c].
    linear_rows/linear_rhs hold sparse equations row . x = rhs; quadratics
    are sparse polynomials {monomial: coefficient} with monomials () (the
    constant), (v,) and (v1, v2) with v1 <= v2, each equated to zero.
    """

    __slots__ = ("n", "nvars", "linear_rows", "linear_rhs", "quadratics")

    def __init__(self, n, linear_rows, linear_rhs, quadratics):
        self.n = n
        self.nvars = n ** 3
        self.linear_rows = linear_rows
        self.linear_rhs = linear_rhs
        self.quadratics = quadratics

    def var_index(self, i, r, c):
        return (i * self.n + r) * self.n + c

    def __repr__(self):
        return "PolySystem(n=%d, linear=%d, quadratic=%d)" % (
            self.n,
            len(self.linear_rows),
            len(self.quadratics),
        )


def _combine(witness, polys):
    """The sparse sum of c * polys[i] over the witness items (i, c)."""
    acc = {}
    for i, c in witness.items():
        _add_scaled(acc, polys[i], c)
    return acc


def build_system(g):
    """Instantiate the linear and quadratic blocks on all basis pairs.

    The linear block is the n compatibility rows of each pair i < j, then the
    operator rows (i, j, r, s); the quadratic block is the rep and then the
    rr polynomial of each (i, j, r, s). Identically-zero operator rows are
    dropped, so every stored row is nonzero (or is an outright contradiction
    0 = c, kept on purpose). No rep or rr polynomial vanishes for n >= 2.

    The bracket entries c(i, a, k) are read once and indexed three ways: by
    pair (i, a), by ad(i) row ({k: c(i, k, r)} for row r) and by ad(i)
    column ({k: c(i, s, k)} for column s). Each operator row, each right-hand
    side and each linear or constant part of a quadratic is generated from
    those nonzeros alone, in O(n^4 + nnz * n^2) over the whole system, so no
    zero term is built and then dropped. The commutator part
    sum_k x(i,r,k) x(j,k,s) - x(j,r,k) x(i,k,s), with coefficients +-1, takes
    n terms per (i, j, r, s), O(n^5) in all. It is built once per
    (i, j, r, s) and shared: rep adds -L([e_i, e_j])[r][s], and
    rr = [L(e_i) - ad(e_i), L(e_j) - ad(e_j)][r][s] adds the ad terms of the
    operator row and the constant [ad(e_i), ad(e_j)][r][s], which is
    ad([e_i, e_j])[r][s] by the Jacobi identity.
    """
    n = g.dim
    nn = n * n  # x(i, r, c) is variable i*nn + r*n + c
    bracket = {}
    ad_rows = [[{} for _ in range(n)] for _ in range(n)]
    ad_cols = [[{} for _ in range(n)] for _ in range(n)]
    for (i, a, k), c in g.bracket.entries.items():
        bracket.setdefault((i, a), {})[k] = c
        ad_rows[i][k][a] = c
        ad_cols[i][a][k] = c

    linear_rows, linear_rhs = [], []
    operator_rows, operator_rhs = [], []
    quadratics = []
    for i in range(n):
        for j in range(i + 1, n):
            w = bracket.get((i, j), {})
            for k in range(n):
                linear_rows.append({(i * n + k) * n + j: _ONE, (j * n + k) * n + i: _MINUS_ONE})
                linear_rhs.append(w.get(k, _ZERO))
            adw = {}
            for k, ck in w.items():
                for s, col in enumerate(ad_cols[k]):
                    for r, c in col.items():
                        _add_term(adw, (r, s), ck * c)
            for r in range(n):
                ir, jr = (i * n + r) * n, (j * n + r) * n
                for s in range(n):
                    ad_terms = {}
                    for k, c in ad_rows[i][r].items():
                        _add_term(ad_terms, j * nn + k * n + s, -c)
                    for k, c in ad_cols[i][s].items():
                        _add_term(ad_terms, jr + k, c)
                    for k, c in ad_cols[j][s].items():
                        _add_term(ad_terms, ir + k, -c)
                    for k, c in ad_rows[j][r].items():
                        _add_term(ad_terms, i * nn + k * n + s, c)
                    row = dict(ad_terms)
                    for k, c in w.items():
                        _add_term(row, k * nn + r * n + s, c)
                    rhs = -adw.get((r, s), _ZERO)
                    if row or rhs:
                        operator_rows.append(row)
                        operator_rhs.append(rhs)

                    # i < j, so every variable of L(e_i) precedes every
                    # variable of L(e_j) and each pair below is sorted; for
                    # r == s the two k == r monomials coincide and cancel
                    commutator = {}
                    for k in range(n):
                        if r == s == k:
                            continue
                        commutator[(ir + k, j * nn + k * n + s)] = _ONE
                        commutator[(i * nn + k * n + s, jr + k)] = _MINUS_ONE
                    rep = dict(commutator)
                    for k, c in w.items():
                        rep[(k * nn + r * n + s,)] = -c
                    rr = commutator
                    for v, c in ad_terms.items():
                        rr[(v,)] = c
                    if (r, s) in adw:
                        rr[()] = adw[(r, s)]
                    quadratics.append(rep)
                    quadratics.append(rr)
    return PolySystem(n, linear_rows + operator_rows, linear_rhs + operator_rhs, quadratics)


def _sorted_pair(a, b):
    return (a, b) if a <= b else (b, a)


class Certificate:
    """Outcome of decide_novikov, re-checkable by verify_certificate.

    verdict "exists" carries a verified product; "not-exists" carries a
    witness combination of equations (kind "linear" over the linear block or
    kind "quadratic" over the quadratic block after substituting the linear
    solution space) whose value is the recorded nonzero constant.
    """

    __slots__ = (
        "verdict",
        "algebra_hash",
        "product",
        "method",
        "witness_kind",
        "witness",
        "constant",
        "residual_summary",
    )

    def __init__(self, verdict, algebra_hash_, product=None, method=None,
                 witness_kind=None, witness=None, constant=None,
                 residual_summary=None):
        self.verdict = verdict
        self.algebra_hash = algebra_hash_
        self.product = product
        self.method = method
        self.witness_kind = witness_kind
        self.witness = witness
        self.constant = constant
        self.residual_summary = residual_summary

    def __repr__(self):
        extra = self.method if self.verdict == EXISTS else self.witness_kind
        return "Certificate(%s%s)" % (self.verdict, ", %s" % extra if extra else "")


def _substitute(poly, forms):
    """Substitute affine forms (const, {param: coeff}) into a quadratic."""
    out = {}
    for mono, coeff in poly.items():
        if mono == ():
            _add_term(out, (), coeff)
        elif len(mono) == 1:
            c0, terms = forms[mono[0]]
            _add_term(out, (), coeff * c0)
            for p, a in terms.items():
                _add_term(out, (p,), coeff * a)
        else:
            c1, t1 = forms[mono[0]]
            c2, t2 = forms[mono[1]]
            if c1 and c2:
                _add_term(out, (), coeff * c1 * c2)
            if c2:
                for p, a in t1.items():
                    _add_term(out, (p,), coeff * a * c2)
            if c1:
                for p, a in t2.items():
                    _add_term(out, (p,), coeff * c1 * a)
            for p, a in t1.items():
                for q, b in t2.items():
                    _add_term(out, _sorted_pair(p, q), coeff * a * b)
    return out


def residual_polynomials(system):
    """Substitute the canonical solution of the linear block into the
    quadratics. Returns (sparse solution, {quadratic index: residual poly})
    or (solution, None) if the linear block is inconsistent.

    A variable is live when its affine form is not (0, {}). A quadratic none
    of whose monomials has all its variables live (the constant monomial
    () always does) substitutes to zero, so it is skipped unexpanded."""
    sol = solve_sparse(system.linear_rows, system.linear_rhs, system.nvars)
    if not sol.consistent:
        return sol, None
    forms = sol.affine_forms()
    live = {v for v, (c, terms) in enumerate(forms) if c or terms}
    residuals = {}
    for qi, poly in enumerate(system.quadratics):
        if not any(map(live.issuperset, poly)):
            continue
        sub = _substitute(poly, forms)
        if sub:
            residuals[qi] = sub
    return sol, residuals


def _eliminate_residuals(residuals, effort):
    """Gaussian elimination over the residual polynomials, treating each
    nonconstant monomial as a column. Returns ({quadratic index: coefficient},
    constant) for the first combination equal to a nonzero constant, or None.
    The budget bounds the number of elimination pivots created.

    Each residual goes through linalg._row_step alone: a new pivot is not
    cleared from the earlier pivot rows, so the row step is not exact here
    and a later pivot can overwrite an earlier one (see ROADMAP item 1,
    step 2).
    """
    pivot_rows, pivot_consts, pivot_combos = {}, {}, {}
    pivots_used = 0
    for qi in sorted(residuals):
        poly = residuals[qi]
        m, work, const, combo = _row_step(
            {mono: c for mono, c in poly.items() if mono != ()},
            poly.get((), Q(0)),
            {qi: Q(1)},
            pivot_rows,
            pivot_consts,
            pivot_combos,
        )
        if m is None:
            if const != 0:
                return combo, const
            continue
        if pivots_used < effort:
            pivot_rows[m], pivot_consts[m], pivot_combos[m] = work, const, combo
            pivots_used += 1
    return None


def _product_from_solution(system, values):
    n = system.n
    return AlgebraProduct(
        StructureTensor.tabulate(
            n, lambda i, j: [values[system.var_index(i, k, j)] for k in range(n)]
        )
    )


def _verified(g, product, method):
    if is_novikov(product) and is_compatible(product, g):
        return Certificate(EXISTS, algebra_hash(g), product=product, method=method)
    return None


def _constructor_candidates(g):
    """Known closed-form constructions, tried in a fixed order."""
    if g.is_abelian():
        yield "zero-product", AlgebraProduct.zero(g.dim)
        return
    cls = g.nilpotency_class()
    if cls is not None and cls <= 2:
        yield "half-bracket", half_bracket_product(g)
    try:
        ext, split = two_step_solvable_from(g)
    except NotTwoStepSolvable:
        return

    def transported(lift):
        return split.transport_product(lift_product(ext, lift))

    if ext.dim_b == 2:
        try:
            yield "two-generator", transported(two_gen_lift(ext))
        except (HypothesisFailed, LiftCheckFailed):
            pass
    for x_index in range(ext.dim_b):
        try:
            yield "jordan-block", transported(jordan_lift(ext, x_index))
            break
        except (NotRegularNilpotent, GammaExpansionFailed, HypothesisFailed, LiftCheckFailed):
            pass
    for e_index in range(ext.dim_b):
        try:
            yield "invertible-action", transported(iso_lift(ext, vunit(ext.dim_b, e_index)))
            break
        except (NotInvertible, HypothesisFailed, LiftCheckFailed):
            pass
    try:
        lift = scheuneman_lift(ext)
        if check_lift_novikov(ext, lift):
            yield "scheuneman", transported(lift)
    except (HypothesisFailed, LiftCheckFailed):
        pass


def decide_novikov(g, effort=DEFAULT_EFFORT):
    """Decide whether g admits a Novikov structure.

    Pipeline: known constructors; then the linear block (inconsistency gives
    a type-a witness); then the quadratic residuals on the affine solution
    space (an identically nonzero residual, or a bounded linear elimination
    finding a constant combination, gives a type-b witness). Every Exists
    product is verified before return; Undetermined is the safe fallback.
    """
    h = algebra_hash(g)
    for method, product in _constructor_candidates(g):
        cert = _verified(g, product, method)
        if cert is not None:
            return cert
    system = build_system(g)
    sol, residuals = residual_polynomials(system)
    if residuals is None:
        witness = {i: c for i, c in sorted(sol.witness.items())}
        constant = sum(
            (c * system.linear_rhs[i] for i, c in witness.items()), Q(0)
        )
        if _combine(witness, system.linear_rows) or constant == 0:
            raise WitnessCheckFailed("linear witness failed re-verification")
        return Certificate(
            NOT_EXISTS, h, witness_kind="linear", witness=witness, constant=constant
        )
    for qi in sorted(residuals):
        poly = residuals[qi]
        if set(poly) == {()}:
            return Certificate(
                NOT_EXISTS,
                h,
                witness_kind="quadratic",
                witness={qi: Q(1)},
                constant=poly[()],
            )
    if not residuals:
        product = _product_from_solution(system, sol.particular())
        cert = _verified(g, product, "linear-system")
        if cert is not None:
            return cert
        return Certificate(
            UNDETERMINED, h, residual_summary=(0, 0)
        )
    found = _eliminate_residuals(residuals, effort)
    if found is not None:
        combo, constant = found
        witness = {qi: c for qi, c in sorted(combo.items())}
        if _combine(witness, residuals) != {(): constant} or constant == 0:
            raise WitnessCheckFailed("elimination witness failed re-verification")
        return Certificate(
            NOT_EXISTS, h, witness_kind="quadratic", witness=witness, constant=constant
        )
    monomials = set()
    for poly in residuals.values():
        monomials.update(m for m in poly if m != ())
    return Certificate(
        UNDETERMINED, h, residual_summary=(len(residuals), len(monomials))
    )


def verify_certificate(g, cert):
    """Re-check a certificate against the algebra, in exact arithmetic.

    Exists: the embedded product must pass the Novikov and compatibility
    checks. NotExists: the witness combination must evaluate to exactly the
    recorded nonzero constant (and reference only equations that actually
    constrain the system). Undetermined never verifies.
    """
    if cert.algebra_hash != algebra_hash(g):
        return False
    if cert.verdict == EXISTS:
        if cert.product is None or cert.product.dim != g.dim:
            return False
        return bool(is_novikov(cert.product)) and bool(is_compatible(cert.product, g))
    if cert.verdict != NOT_EXISTS:
        return False
    if cert.constant is None or cert.constant == 0 or not cert.witness:
        return False
    system = build_system(g)
    if cert.witness_kind == "linear":
        if not all(0 <= i < len(system.linear_rows) for i in cert.witness):
            return False
        total = sum((c * system.linear_rhs[i] for i, c in cert.witness.items()), Q(0))
        return not _combine(cert.witness, system.linear_rows) and total == cert.constant
    if cert.witness_kind == "quadratic":
        _, residuals = residual_polynomials(system)
        if residuals is None or not all(qi in residuals for qi in cert.witness):
            return False
        return _combine(cert.witness, residuals) == {(): cert.constant}
    return False
