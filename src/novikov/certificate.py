"""Existence and nonexistence of Novikov structures by exact elimination.

The unknowns are the entries of the left multiplications L(e_i); the right
multiplications are eliminated through R(x) = L(x) - ad(x). The linear block
collects the compatibility equations L(e_i)e_j - L(e_j)e_i = [e_i, e_j] and
the operator relation

    L([x,y]) + ad([x,y]) - [ad(x), L(y)] - [L(x), ad(y)] = 0,

the quadratic block the representation condition [L(x), L(y)] = L([x,y]) and
the commutation [R(x), R(y)] = 0. The quadratic block is never listed: a
QuadraticBlock builds a polynomial when it is accessed. The residual step
builds only representation polynomials that can hold a monomial none of whose
variables the linear block forces to zero, and substitutes only those live
monomials of each; a commutation polynomial minus its representation
polynomial is an operator row, so both have that residual (72 substitutions
for 144 of 35,672 residuals on free-n3-c3). The linear block stays in
ints from the bracket to the residuals; a reader gets Fractions (PolySystem).
A NotExists verdict carries a rational combination of equations that
evaluates to a nonzero constant on the whole affine solution set of the
linear block; the witness re-verifies with nothing but rational
arithmetic. No Groebner bases anywhere: linear algebra plus bounded
cancellation of leading monomials.
"""

import hashlib
from collections.abc import Sequence
from math import lcm

from .extensions import (
    GammaExpansionFailed,
    HypothesisFailed,
    NotInvertible,
    NotTwoStepSolvable,
    iso_lift,
    jordan_lift,
    lift_product,
    two_gen_lift,
    two_step_solvable_from,
)
from .lie import StructureTensor
from .linalg import (
    NotRegularNilpotent,
    Q,
    _add_scaled,
    _add_term,
    _row_step,
    _to_fractions,
    solve_sparse,
    vunit,
)
from .products import (
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
    is a sequence of sparse polynomials {monomial: coefficient} with
    monomials () (the constant), (v,) and (v1, v2) with v1 <= v2, each
    equated to zero. build_system gives a QuadraticBlock, which builds each
    polynomial when it is accessed.

    The linear block is stored as build_system sums it, with each integral
    coefficient an int (_rows, _rhs), and solve_sparse, the witness checks
    and the residual step read it so. linear_rows and linear_rhs are views
    of it that build each row or value as Fractions when it is accessed
    (_Fractions), so len() builds nothing and every public value is a
    Fraction.
    """

    __slots__ = ("n", "nvars", "_rows", "_rhs", "quadratics")

    def __init__(self, n, linear_rows, linear_rhs, quadratics):
        self.n = n
        self.nvars = n ** 3
        self._rows = linear_rows
        self._rhs = linear_rhs
        self.quadratics = quadratics

    @property
    def linear_rows(self):
        return _Fractions(self._rows)

    @property
    def linear_rhs(self):
        return _Fractions(self._rhs)

    def __repr__(self):
        return "PolySystem(n=%d, linear=%d, quadratic=%d)" % (
            self.n,
            len(self._rows),
            len(self.quadratics),
        )


def _fractions(x):
    """x with every int made a Fraction: a copy of a dict with its values
    converted (_to_fractions), or x itself."""
    if type(x) is dict:
        x = dict(x)
        _to_fractions([x])
        return x
    return x if type(x) is Q else Q(x)


class _Fractions(Sequence):
    """A read-only view of a list of values, or of sparse rows of them,
    ints or Fractions, that reads each item as Fractions (_fractions) when
    it is accessed; a slice is a list."""

    __slots__ = ("_items",)

    def __init__(self, items):
        self._items = items

    def __len__(self):
        return len(self._items)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(_fractions, self._items[i]))
        return _fractions(self._items[i])


def _combine(witness, polys):
    """The sparse sum of c * polys[i] over the witness items (i, c)."""
    acc = {}
    for i, c in witness.items():
        _add_scaled(acc, polys[i], c)
    return acc


class QuadraticBlock(Sequence):
    """The rep and rr polynomials of g, built on access.

    Entry 2q is the rep and entry 2q + 1 the rr polynomial of the q-th
    (i, j, r, s): basis pairs i < j in order, then r, then s, so there are
    n^3 (n - 1) entries. No entry vanishes for n >= 2.

    The bracket entries c(i, a, k) are indexed three ways: by pair (i, a)
    ({k: c}), by ad(i) row ({a: c(i, a, r)} for row r) and by ad(i) column
    ({k: c(i, a, k)} for column a); ad_brackets holds, per pair i < j, the
    nonzero entries of ad([e_i, e_j]). The commutator part
    sum_k x(i,r,k) x(j,k,s) - x(j,r,k) x(i,k,s), with coefficients +-1, has
    2n terms (2n - 2 when r == s); rep adds -L([e_i, e_j])[r][s], and
    rr = [L(e_i) - ad(e_i), L(e_j) - ad(e_j)][r][s] adds the ad terms of the
    operator row (i, j, r, s) and the constant [ad(e_i), ad(e_j)][r][s],
    which is ad([e_i, e_j])[r][s] by the Jacobi identity; so rr - rep is the
    operator row (i, j, r, s) minus its right-hand side. An entry costs
    O(n + nnz of the rows and columns it reads). ad_terms serves only the rr
    entries: build_system scatters the operator rows from the same indexes
    without calling it.

    Each integral bracket constant is stored as an int and a constant that
    is not integral as its Fraction, so the indexes, the sums built from
    them and the entries as _entry builds them hold ints wherever they can;
    the residual step substitutes those. An entry read by index is built
    as Fractions (_fractions).
    """

    __slots__ = ("n", "pairs", "bracket", "ad_rows", "ad_cols", "ad_brackets")

    def __init__(self, g):
        n = g.dim
        self.n = n
        self.pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        self.bracket = {}
        self.ad_rows = [[{} for _ in range(n)] for _ in range(n)]
        self.ad_cols = [[{} for _ in range(n)] for _ in range(n)]
        for (i, a, k), c in g.bracket.entries.items():
            if c.denominator == 1:
                c = c.numerator
            self.bracket.setdefault((i, a), {})[k] = c
            self.ad_rows[i][k][a] = c
            self.ad_cols[i][a][k] = c
        self.ad_brackets = []
        for pair in self.pairs:
            adw = {}
            for k, ck in self.bracket.get(pair, {}).items():
                for s, col in enumerate(self.ad_cols[k]):
                    for r, c in col.items():
                        _add_term(adw, (r, s), ck * c)
            self.ad_brackets.append(adw)

    def __len__(self):
        return self.n ** 3 * (self.n - 1)

    def ad_terms(self, i, j, r, s):
        """The ad part of the operator row (i, j, r, s), {variable: coefficient}:
        the entry (r, s) of -[ad(e_i), L(e_j)] - [L(e_i), ad(e_j)]."""
        n = self.n
        nn = n * n
        ir, jr = (i * n + r) * n, (j * n + r) * n
        terms = {}
        for k, c in self.ad_rows[i][r].items():
            _add_term(terms, j * nn + k * n + s, -c)
        for k, c in self.ad_cols[i][s].items():
            _add_term(terms, jr + k, c)
        for k, c in self.ad_cols[j][s].items():
            _add_term(terms, ir + k, -c)
        for k, c in self.ad_rows[j][r].items():
            _add_term(terms, i * nn + k * n + s, c)
        return terms

    def __getitem__(self, qi):
        if not 0 <= qi < len(self):
            raise IndexError("quadratic index %r out of range" % (qi,))
        return _fractions(self._entry(qi))

    def _entry(self, qi):
        """Entry qi with its coefficients as stored: ints where integral."""
        n = self.n
        nn = n * n
        q, kind = divmod(qi, 2)
        p, rs = divmod(q, nn)
        r, s = divmod(rs, n)
        i, j = self.pairs[p]
        ir, jr = (i * n + r) * n, (j * n + r) * n
        # i < j, so every variable of L(e_i) precedes every variable of
        # L(e_j) and each pair below is sorted; for r == s the two k == r
        # monomials coincide and cancel
        poly = {}
        for k in range(n):
            if r == s == k:
                continue
            poly[(ir + k, j * nn + k * n + s)] = 1
            poly[(i * nn + k * n + s, jr + k)] = -1
        if kind == 0:
            for k, c in self.bracket.get((i, j), {}).items():
                poly[(k * nn + r * n + s,)] = -c
            return poly
        for v, c in self.ad_terms(i, j, r, s).items():
            poly[(v,)] = c
        constant = self.ad_brackets[p].get((r, s))
        if constant is not None:
            poly[()] = constant
        return poly

    def candidates(self, live):
        """Ascending indices of the rep entries that can hold a monomial
        whose variables are all in the set live; no rr entry is named.

        A live commutator monomial x(i,r,k) x(j,k,s) or x(j,r,k) x(i,k,s), or
        a live x(k,r,s) with k in the support of [e_i, e_j], marks the rep
        entry of its (i, j, r, s). No entry is built: the rules read the live
        variables against the bracket indexes, visiting each live variable
        once per basis pair it takes part in, and terms that cancel are not
        looked for, so the result is a superset of the exact set.
        """
        n = self.n
        nn = n * n
        # by_op[i]: the live (r, c) of L(e_i); by_row[i][k]: the live c of its row k
        by_op = [[] for _ in range(n)]
        by_row = [[[] for _ in range(n)] for _ in range(n)]
        for v in live:
            i, rc = divmod(v, nn)
            r, c = divmod(rc, n)
            by_op[i].append((r, c))
            by_row[i][r].append(c)
        found = set()
        for p, (i, j) in enumerate(self.pairs):
            rep = 2 * p * nn  # the rep entry of (r, s) is rep + 2 * (r*n + s)
            for a, b in ((i, j), (j, i)):
                for r, k in by_op[a]:
                    for s in by_row[b][k]:
                        found.add(rep + 2 * (r * n + s))
            for k in self.bracket.get((i, j), ()):
                for r, s in by_op[k]:
                    found.add(rep + 2 * (r * n + s))
        return sorted(found)


def build_system(g):
    """Instantiate the linear block on all basis pairs, with the quadratic
    block as a QuadraticBlock over the same bracket indexes.

    The linear block is the n compatibility rows of each pair i < j, then the
    operator rows (i, j, r, s); the quadratic block is the rep and then the
    rr polynomial of each (i, j, r, s). Identically-zero operator rows are
    dropped, so every stored row is nonzero (or is an outright contradiction
    0 = c, kept on purpose).

    The operator rows of a pair are scattered from the nonzeros of the
    bracket indexes: each nonzero of ad(e_i), ad(e_j) and [e_i, e_j] puts its
    coefficient, negated once per nonzero and not once per row, into the n
    or n^2 rows it reaches, in the order of the four ad_terms phases and
    then the [e_i, e_j] phase, so every row holds its variables in the order
    that summing the phases row by row gives. That is O(n^4 + nnz * n^2)
    over the whole linear block, with no zero term built and then dropped.
    No quadratic is built here: the block builds an entry, in O(n) plus its
    nonzeros, when it is accessed. The rows hold the block's constants and
    their sums, ints where integral.
    """
    block = QuadraticBlock(g)
    n = block.n
    nn = n * n  # x(i, r, c) is variable i*nn + r*n + c
    ad_rows, ad_cols = block.ad_rows, block.ad_cols
    every_cell = range(nn)
    row_cells = [range(r * n, r * n + n) for r in range(n)]
    col_cells = [range(s, nn, n) for s in range(n)]
    linear_rows, linear_rhs = [], []
    operator_rows, operator_rhs = [], []
    for (i, j), adw in zip(block.pairs, block.ad_brackets):
        w = block.bracket.get((i, j), {})
        for k in range(n):
            linear_rows.append({(i * n + k) * n + j: 1, (j * n + k) * n + i: -1})
            linear_rhs.append(w.get(k, 0))
        # operator row (r, s) is rows[r*n + s]; in every phase a nonzero puts
        # its coefficient at variable t + offset of each cell t it reaches
        rows = [{} for _ in every_cell]
        for r in range(n):
            for k, c in ad_rows[i][r].items():
                _scatter(rows, row_cells[r], j * nn + (k - r) * n, -c)
        for s in range(n):
            for k, c in ad_cols[i][s].items():
                _scatter(rows, col_cells[s], j * nn + k - s, c)
        for s in range(n):
            for k, c in ad_cols[j][s].items():
                _scatter(rows, col_cells[s], i * nn + k - s, -c)
        for r in range(n):
            for k, c in ad_rows[j][r].items():
                _scatter(rows, row_cells[r], i * nn + (k - r) * n, c)
        for k, c in w.items():
            _scatter(rows, every_cell, k * nn, c)
        negated = {r * n + s: -c for (r, s), c in adw.items()}
        for t, row in enumerate(rows):
            if row or t in negated:
                operator_rows.append(row)
                operator_rhs.append(negated.get(t, 0))
    return PolySystem(n, linear_rows + operator_rows, linear_rhs + operator_rhs, block)


def _scatter(rows, cells, offset, c):
    """rows[t][t + offset] += c for each cell t, dropping a sum that cancels.
    c is a nonzero bracket constant or its negation, so it is stored or
    added with no zero test of its own; a new key stores c itself, so one
    coefficient object serves every row it starts."""
    for t in cells:
        row = rows[t]
        key = t + offset
        old = row.get(key)
        if old is None:
            row[key] = c
        else:
            total = old + c
            if total:
                row[key] = total
            else:
                del row[key]


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
    """Substitute affine forms into a quadratic, in ints.

    forms[v] is (d, c, {param: a}) with ints: variable v is the affine form
    (c + sum a * param) / d. Each term is scaled to ints by D, the lcm over
    the monomials of the coefficient's denominator times the d of each of
    their variables, and the sums are divided by D once, at the end. Every
    term is D times the term over Fractions, so the same keys cancel and the
    residual holds the same Fractions in the same order. residual_polynomials
    passes only the live monomials, those whose variables all have a nonzero
    form: any other monomial adds no term, so the residual is the same."""
    scale = 1
    scaled = []
    for mono, coeff in poly.items():
        den = coeff.denominator
        for v in mono:
            den *= forms[v][0]
        if scale % den:
            scale = lcm(scale, den)
        scaled.append((mono, coeff.numerator, den))
    out = {}
    for mono, num, den in scaled:
        k = num * (scale // den)
        if mono == ():
            _add_term(out, (), k)
        elif len(mono) == 1:
            _, c0, terms = forms[mono[0]]
            _add_term(out, (), k * c0)
            for p, a in terms.items():
                _add_term(out, (p,), k * a)
        else:
            _, c1, t1 = forms[mono[0]]
            _, c2, t2 = forms[mono[1]]
            if c1 and c2:
                _add_term(out, (), k * c1 * c2)
            if c2:
                for p, a in t1.items():
                    _add_term(out, (p,), k * a * c2)
            if c1:
                for p, a in t2.items():
                    _add_term(out, (p,), k * c1 * a)
            for p, a in t1.items():
                ka = k * a
                for q, b in t2.items():
                    _add_term(out, _sorted_pair(p, q), ka * b)
    _to_fractions([out], scale)
    return out


def residual_polynomials(system):
    """Substitute the canonical solution of the linear block into the
    quadratics. Returns (sparse solution, {quadratic index: residual poly})
    or (solution, None) if the linear block is inconsistent.

    rr(i,j,r,s) - rep(i,j,r,s) is the operator row (i, j, r, s) minus its
    right-hand side, which vanishes on the solution set, so only rep entries
    are substituted and each nonzero rep residual at 2q is stored, as the
    same dict, at 2q + 1 too. A variable is live when its affine form is not
    0: every free column, and every pivot column whose value is nonzero or
    whose row holds another column. Only the live variables' forms are
    built, straight from the solution's int pivot rows
    (SparseSolution._live_forms); every other variable
    shares the form 0, so a monomial with a variable that is not live
    substitutes to zero. Only the entries that system.quadratics.candidates
    names are built; each is cut to its live monomials, those whose
    variables are all live, and only those are substituted; an entry with
    none is skipped. The live monomials keep their order, and the dead ones
    added no key, so the residual is the one of the whole entry.

    As in solve_sparse, the substitution runs on ints: each live form is
    (d, d * c, {param: d * a}), with d the lead of the primitive pivot row,
    the rep entries keep their int coefficients, and each residual is
    divided once, at the end of _substitute; its coefficients are
    Fractions."""
    sol = solve_sparse(system._rows, system._rhs, system.nvars)
    if not sol.consistent:
        return sol, None
    live, forms = sol._live_forms()
    reps = {}
    for qi in system.quadratics.candidates(live):
        sub = _residual(system.quadratics, qi, live, forms)
        if sub:
            reps[qi] = sub
    return sol, {qi + kind: sub for qi, sub in reps.items() for kind in (0, 1)}


def _residual(quadratics, qi, live, forms):
    """The residual of entry qi: its rep entry 2q cut to the live monomials
    and substituted, {} when none is live or the sum vanishes."""
    poly = {mono: c for mono, c in quadratics._entry(qi - qi % 2).items() if live.issuperset(mono)}
    return _substitute(poly, forms) if poly else {}


def _eliminate_residuals(residuals, effort):
    """Gaussian elimination over the residual polynomials, treating each
    nonconstant monomial as a column. Returns ({quadratic index: coefficient},
    constant) for the first combination equal to a nonzero constant, or None.
    The budget bounds the number of elimination pivots stored, overwrites
    included.

    Each residual goes through linalg._row_step alone, on ints: a new pivot
    is not cleared from the earlier pivot rows, so the row step is not exact
    here and a later pivot overwrites an earlier one (see ROADMAP item 1,
    step 2). The witness is the combination of the residual that reduces to
    a nonzero constant, divided by its coefficient at that residual, as
    Fractions.
    """
    pivot_rows, pivot_consts, pivot_combos = {}, {}, {}
    pivots_used = 0
    for qi in sorted(residuals):
        poly = residuals[qi]
        m, work, const, combo = _row_step(
            {mono: c for mono, c in poly.items() if mono != ()},
            poly.get((), 0),
            qi,
            pivot_rows,
            pivot_consts,
            pivot_combos,
        )
        if m is None:
            if const != 0:
                c = combo[qi]
                return {i: Q(x, c) for i, x in combo.items()}, Q(const, c)
            continue
        if pivots_used < effort:
            pivot_rows[m], pivot_consts[m], pivot_combos[m] = work, const, combo
            pivots_used += 1
    return None


def _product_from_solution(system, values):
    """The product with L(e_i)[k][j], variable (i*n + k)*n + j, as the
    constant of e_i * e_j on e_k, read from the nonzero values."""
    n = system.n
    entries = {(index // (n * n), index % n, index // n % n): v
               for index, v in enumerate(values) if v}
    return StructureTensor(n, {key: entries[key] for key in sorted(entries)})


def _verified(g, h, product, method):
    """An Exists certificate when product is a Novikov structure on g, else
    None; decide_novikov and verify_certificate both decide by it."""
    if is_novikov(product) and is_compatible(product, g):
        return Certificate(EXISTS, h, product=product, method=method)
    return None


def _constructor_candidates(g):
    """Known closed-form constructions in a fixed order; _verified or the lift's own
    hypothesis check decides each. The half-bracket product has eq-1 defect
    -[[x, y], z]/4, and eq-2 and compatibility hold once that is zero: it verifies
    exactly at class at most 2, where the Scheuneman lift gives the same product, so
    that lift is no candidate. At class 3, (29) with X_p = -A_p/3 and x_pq = v_pq/2
    reads A_r v_pq = A_q v_pr: A_r v_pq is symmetric in (r, q) and antisymmetric in
    (p, q), hence zero. The test suite pins all three facts."""
    yield ("zero-product" if g.is_abelian() else "half-bracket"), half_bracket_product(g)
    try:
        ext, split = two_step_solvable_from(g)
    except NotTwoStepSolvable:
        return

    def transported(lift):
        return split.transport_product(lift_product(ext, lift))

    try:
        yield "two-generator", transported(two_gen_lift(ext))
    except HypothesisFailed:
        pass
    for x_index in range(ext.dim_b):
        try:
            yield "jordan-block", transported(jordan_lift(ext, x_index))
            break
        except (NotRegularNilpotent, GammaExpansionFailed, HypothesisFailed):
            pass
    for e_index in range(ext.dim_b):
        try:
            yield "invertible-action", transported(iso_lift(ext, vunit(ext.dim_b, e_index)))
            break
        except (NotInvertible, HypothesisFailed):
            pass


def decide_novikov(g, effort=DEFAULT_EFFORT):
    """Decide whether g admits a Novikov structure.

    Pipeline: known constructors; then the linear block (inconsistency gives
    a type-a witness); then the quadratic residuals on the affine solution
    space. An identically nonzero residual gives a type-b witness. When no
    residual has a constant term, every residual vanishes at the particular
    point (all parameters 0), which is tried as method linear-system. Then a
    bounded linear elimination finding a constant combination gives a type-b
    witness. Every Exists product is verified before return; Undetermined is
    the safe fallback.
    """
    h = algebra_hash(g)
    for method, product in _constructor_candidates(g):
        cert = _verified(g, h, product, method)
        if cert is not None:
            return cert
    system = build_system(g)
    sol, residuals = residual_polynomials(system)
    if residuals is None:
        witness = {i: c for i, c in sorted(sol.witness.items())}
        constant = sum((c * system._rhs[i] for i, c in witness.items()), Q(0))
        if _combine(witness, system._rows) or constant == 0:
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
    if not any(() in poly for poly in residuals.values()):
        # every residual vanishes at the particular point (all parameters 0)
        product = _product_from_solution(system, sol.particular())
        cert = _verified(g, h, product, "linear-system")
        if cert is not None:
            return cert
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

    Exists: the embedded product must pass _verified, the Novikov and
    compatibility checks decide_novikov runs. NotExists: the witness
    combination must evaluate to exactly the recorded nonzero constant (and
    reference only equations that actually constrain the system); after the
    linear solve, only a quadratic witness's own entries are substituted,
    and each must leave a nonzero residual. Undetermined never verifies.
    """
    if cert.algebra_hash != algebra_hash(g):
        return False
    if cert.verdict == EXISTS:
        return cert.product is not None and _verified(
            g, cert.algebra_hash, cert.product, cert.method) is not None
    if cert.verdict != NOT_EXISTS:
        return False
    if cert.constant is None or cert.constant == 0 or not cert.witness:
        return False
    system = build_system(g)
    if cert.witness_kind == "linear":
        if not all(0 <= i < len(system._rows) for i in cert.witness):
            return False
        total = sum((c * system._rhs[i] for i, c in cert.witness.items()), Q(0))
        return not _combine(cert.witness, system._rows) and total == cert.constant
    if cert.witness_kind == "quadratic":
        sol = solve_sparse(system._rows, system._rhs, system.nvars)
        if not sol.consistent or not all(0 <= qi < len(system.quadratics) for qi in cert.witness):
            return False
        live, forms = sol._live_forms()
        residuals = {qi: _residual(system.quadratics, qi, live, forms) for qi in cert.witness}
        return all(residuals.values()) and _combine(cert.witness, residuals) == {(): cert.constant}
    return False
