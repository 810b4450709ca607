import functools
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from novikov import fixtures as fx
from novikov import products, rmatrix
from novikov.lie import StructureTensor
from novikov.linalg import DimensionMismatch, Matrix, vsub, vunit
from novikov.products import is_compatible, is_left_symmetric, is_novikov
from novikov.rmatrix import (
    HypothesisFailed,
    PreconditionFailed,
    RMatrix,
    basis_rmatrix,
    check_cybe,
    check_novbed,
    deformed_algebra,
    deformed_bracket,
    induced_product,
)

import dense_scans as dense
from dense_scans import column, deformation_keeps_class_bounds, invariant_profile, is_unimodular
from randalg import FRACTIONS, basis_rmatrix_pool, random_basis_rmatrix_case, rng_for


SL2_PARAMETERS = [(1, 2), (0, 1), (Q(1, 2), Q(-1, 3)), (-1, 1), (-4, 2), (Q(-1, 4), Q(1, 2))]


def sl2_family(alpha, beta):
    a, b = Q(alpha), Q(beta)
    t = Matrix([[a, 1, 2 * b], [a * a, a, 2 * a * b], [a * b, b, 2 * b * b]])
    return RMatrix(fx.sl2(), t)


def test_deformed_bracket_examples():
    r0 = RMatrix(fx.sl2(), Matrix.zeros(3, 3))
    assert deformed_bracket(r0).is_zero()

    r2 = fx.r2()
    rd = RMatrix(r2, Matrix([[1, 0], [0, 0]]))
    t = deformed_bracket(rd)
    assert t.basis_product(0, 1) == (Q(0), Q(1))  # [x1,x2]_T = x2
    assert invariant_profile(deformed_algebra(rd)) == invariant_profile(r2)

    r33 = RMatrix(fx.sl2(), Matrix.unit(3, 2, 2))
    gt = deformed_algebra(r33)
    assert invariant_profile(gt) == invariant_profile(fx.r3_lambda(Q(-1)))
    assert is_unimodular(gt) and not gt.is_nilpotent()


def test_cybe_examples():
    assert check_cybe(RMatrix(fx.sl2(), Matrix.zeros(3, 3)))
    assert check_cybe(sl2_family(1, 2))
    # decided by exact expansion, whatever the outcome: brute-force the scan
    r13 = RMatrix(fx.sl2(), Matrix.unit(3, 0, 2))
    verdict = check_cybe(r13)
    g, t = r13.g, r13.t
    brute = True
    for i in range(3):
        for j in range(3):
            ti, tj = column(t, i), column(t, j)
            lhs = g.bracket.apply(ti, tj)
            inner = tuple(
                x + y
                for x, y in zip(
                    g.bracket.apply(ti, vunit(g.dim, j)),
                    g.bracket.apply(vunit(g.dim, i), tj),
                )
            )
            if lhs != t.apply(inner):
                brute = False
    assert bool(verdict) == brute


def test_novbed_examples():
    assert check_novbed(RMatrix(fx.sl2(), Matrix.zeros(3, 3)))
    r12 = RMatrix(fx.sl2(), Matrix.unit(3, 0, 1))
    assert check_novbed(r12)
    assert deformed_algebra(r12).nilpotency_class() == 2
    rb = basis_rmatrix(fx.r2(), 0, 0)
    assert check_novbed(rb)


def test_induced_product_examples():
    r0 = RMatrix(fx.abelian(3), Matrix.zeros(3, 3))
    assert induced_product(r0).is_zero()

    rd = RMatrix(fx.r2(), Matrix([[1, 0], [0, 0]]))
    p = induced_product(rd)
    assert p.entries == {(0, 1, 1): Q(1)}  # x1*x2 = x2
    assert is_novikov(p) and is_compatible(p, deformed_algebra(rd))

    r33 = RMatrix(fx.sl2(), Matrix.unit(3, 2, 2))
    p33 = induced_product(r33)
    assert is_novikov(p33)


def test_induced_product_precondition():
    # E11 on sl2 violates the Yang-Baxter equation at the pair (e1, e3)
    bad = RMatrix(fx.sl2(), Matrix.unit(3, 0, 0))
    verdict = check_cybe(bad)
    assert not verdict and verdict.witness == (0, 2)
    with pytest.raises(PreconditionFailed):
        induced_product(bad)


def test_basis_rmatrix_examples():
    rb = basis_rmatrix(fx.r2(), 0, 0)
    assert invariant_profile(deformed_algebra(rb)) == invariant_profile(fx.r2())

    n3 = fx.n3()
    rb2 = basis_rmatrix(n3, 0, 2)
    assert deformed_algebra(rb2).is_abelian()

    with pytest.raises(HypothesisFailed) as err:
        basis_rmatrix(n3, 2, 0)
    assert err.value.index == 1  # [x2, x1] = -x3 has a nonzero x3 coefficient


def test_basis_rmatrix_rejects_an_index_out_of_range():
    # a negative index used to wrap (-1 read as x3), one past n raised IndexError
    n3 = fx.n3()
    for ell, m in ((-1, 2), (2, -1), (3, 0), (0, 3)):
        with pytest.raises(DimensionMismatch, match="out of range"):
            basis_rmatrix(n3, ell, m)


def test_basis_rmatrix_case_table():
    # the deformed brackets follow the three-case display
    rng = rng_for("rmatrix-table")
    pool = basis_rmatrix_pool()
    for _ in range(10):
        g, ell, m = random_basis_rmatrix_case(rng, pool)
        r = basis_rmatrix(g, ell, m)
        t = deformed_bracket(r)
        for i in range(g.dim):
            for j in range(i + 1, g.dim):
                if i == ell:
                    expect = g.bracket.basis_product(m, j)
                elif j == ell:
                    expect = g.bracket.basis_product(i, m)
                else:
                    expect = tuple(Q(0) for _ in range(g.dim))
                assert t.basis_product(i, j) == expect


def test_sl2_family_profiles():
    nilpotent_profile = invariant_profile(fx.n3())
    solvable_profile = invariant_profile(fx.r3_lambda(Q(-1)))
    for alpha, beta in SL2_PARAMETERS:
        r = sl2_family(alpha, beta)
        assert check_cybe(r) and check_novbed(r)
        profile = invariant_profile(deformed_algebra(r))
        if Q(alpha) + Q(beta) ** 2 == 0:
            assert profile == nilpotent_profile
        else:
            assert profile == solvable_profile
        assert is_novikov(induced_product(r))


def test_induced_product_consequences():
    # induced_product decides by cybe and novbed alone; the consequences are
    # checked here: the product is Novikov and compatible with g_T, and T is a
    # homomorphism g_T -> g
    rng = rng_for("rmatrix-induced")
    pool = basis_rmatrix_pool()
    cases = [basis_rmatrix(*random_basis_rmatrix_case(rng, pool)) for _ in range(10)]
    for r in cases:
        assert check_cybe(r) and check_novbed(r)
    cases += [sl2_family(alpha, beta) for alpha, beta in SL2_PARAMETERS]
    for r in cases:
        p = induced_product(r)
        gt = deformed_algebra(r)
        assert is_novikov(p) and is_compatible(p, gt)
        g, t = r.g, r.t
        for i in range(g.dim):
            for j in range(i + 1, g.dim):
                image = t.apply(gt.bracket.basis_product(i, j))
                assert image == g.bracket.apply(column(t, i), column(t, j))


def test_class_bounds_random():
    rng = rng_for("rmatrix-bounds")
    pool = basis_rmatrix_pool()
    for _ in range(8):
        g, ell, m = random_basis_rmatrix_case(rng, pool)
        r = basis_rmatrix(g, ell, m)
        assert deformation_keeps_class_bounds(r.g, deformed_algebra(r))


def test_class_bounds_sl2_cases():
    n3 = fx.n3()
    gt = deformed_algebra(RMatrix(n3, Matrix.zeros(3, 3)))
    assert gt.nilpotency_class() == 1 and n3.nilpotency_class() == 2
    sl2 = fx.sl2()
    gt = deformed_algebra(RMatrix(sl2, Matrix.unit(3, 0, 1)))
    assert sl2.nilpotency_class() is None and gt.nilpotency_class() == 2


@functools.lru_cache(maxsize=None)
def _basis_cases():
    """Every valid (algebra, ell, m) of basis_rmatrix over the pool."""
    return [(g, ell, m) for g in basis_rmatrix_pool() for ell in range(g.dim) for m in range(g.dim)
            if all(g.bracket.basis_product(i, m)[ell] == 0 for i in range(g.dim))]


@functools.lru_cache(maxsize=None)
def _operator_algebras():
    return (fx.n3(), fx.r2(), fx.sl2(), fx.r3(), fx.ex35(), fx.filiform(5), fx.in_lie(4),
            fx.free_n2_c4())


@st.composite
def rmatrix_cases(draw):
    """Basis r-matrices, which pass both checks, the sl2 family, and
    operators with Fraction entries on a few algebras, with up to n nonzeros
    or dense: these fail the Yang-Baxter equation, the auxiliary identity,
    both or neither."""
    kind = draw(st.sampled_from(("basis", "sl2", "sparse", "dense")))
    if kind == "basis":
        return basis_rmatrix(*draw(st.sampled_from(_basis_cases())))
    if kind == "sl2":
        return sl2_family(*draw(st.sampled_from(SL2_PARAMETERS)))
    g = draw(st.sampled_from(_operator_algebras()))
    n = g.dim
    index = st.integers(0, n - 1)
    if kind == "sparse":
        entries = draw(st.dictionaries(st.tuples(index, index), FRACTIONS, max_size=n))
        return RMatrix(g, Matrix([[entries.get((a, b), 0) for b in range(n)] for a in range(n)]))
    row = st.lists(FRACTIONS, min_size=n, max_size=n)
    return RMatrix(g, Matrix(draw(st.lists(row, min_size=n, max_size=n))))


def _assert_checks_match_the_dense_references(r):
    """The same verdict, label and first witness from both checks as from
    their dense references. Returns the two outcomes."""
    outcome = []
    for check, reference in ((check_cybe, dense.check_cybe), (check_novbed, dense.check_novbed)):
        got, expected = check(r), reference(r)
        assert (got.ok, got.witness, got.label) == (expected.ok, expected.witness, expected.label)
        outcome.append(got.ok)
    return tuple(outcome)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(rmatrix_cases())
def test_rmatrix_checks_match_the_dense_references(r):
    # the int checks read the [T e_i, e_j] table and the bracket's int form;
    # the references bracket dense vectors and apply T
    _assert_checks_match_the_dense_references(r)


def test_rmatrix_check_references_cover_every_outcome():
    # seeded sparse operators on the same algebras give all four outcomes of
    # the two checks, so the differential test above meets failures of each
    rng = rng_for("rmatrix-outcomes")
    outcomes = set()
    for _ in range(200):
        g = rng.choice(_operator_algebras())
        n = g.dim
        m = [[Q(0)] * n for _ in range(n)]
        for _ in range(rng.randint(1, n)):
            m[rng.randrange(n)][rng.randrange(n)] = Q(rng.randint(-3, 3), rng.choice((1, 2, 3)))
        outcomes.add(_assert_checks_match_the_dense_references(RMatrix(g, Matrix(m))))
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


@settings(max_examples=100, derandomize=True, deadline=None)
@given(rmatrix_cases())
def test_cybe_and_novbed_are_eq1_and_eq2_of_the_induced_product(r):
    # what check_cybe and check_novbed rest on, for x*y = [Tx, y] built by the
    # dense references: the eq-1 defect at (x, y, z) is [CYBE(x, y), z], so
    # the product passes the eq-1 scan once CYBE holds; novbed at (i, j, k)
    # is eq-2 at (k, j, i), so novbed fails exactly where the eq-2 scan does,
    # its first witness (i, j, k) the scan's (k, i, j)
    g, t = r.g, r.t
    p, gt = dense.t_product(r), dense.deformed_bracket(r)
    n = g.dim
    e = [vunit(n, i) for i in range(n)]
    te = [column(t, i) for i in range(n)]

    def assoc(i, j, k):
        return vsub(p.apply(e[i], p.basis_product(j, k)), p.apply(p.basis_product(i, j), e[k]))

    for i in range(n):
        for j in range(n):
            cybe = vsub(g.bracket.apply(te[i], te[j]), t.apply(gt.basis_product(i, j)))
            for k in range(n):
                assert vsub(assoc(i, j, k), assoc(j, i, k)) == g.bracket.apply(cybe, e[k])
                novbed = vsub(g.bracket.apply(e[i], t.apply(g.bracket.apply(e[j], te[k]))),
                              g.bracket.apply(e[j], t.apply(g.bracket.apply(e[i], te[k]))))
                eq2 = vsub(p.apply(p.basis_product(k, j), e[i]),
                           p.apply(p.basis_product(k, i), e[j]))
                assert novbed == eq2
    if dense.check_cybe(r):
        assert is_left_symmetric(p)
    novbed, eq2 = dense.check_novbed(r), products._eq2(p)
    assert bool(novbed) == bool(eq2)
    if not novbed:
        k, i, j = eq2.witness
        assert novbed.witness == (i, j, k)


def test_the_product_of_t_is_built_once_and_rmatrix_is_immutable(monkeypatch):
    # induced_product (check_cybe, check_novbed, the product) and then
    # deformed_algebra share one tensor of [T e_i, e_j], kept by the RMatrix
    made = []

    def spy(dim, entries=None):
        made.append(StructureTensor(dim, entries))
        return made[-1]

    monkeypatch.setattr(rmatrix, "StructureTensor", spy)
    r = basis_rmatrix(fx.r2(), 0, 0)
    p = induced_product(r)
    deformed_algebra(r)
    assert not p.is_zero()
    assert [m for m in made if m == p] == [p]
    assert rmatrix._t_product(r) is p
    for name in ("g", "t"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(r, name, getattr(r, name))


def test_the_deformed_bracket_is_built_once(monkeypatch):
    # check_cybe inside induced_product and then deformed_algebra share one
    # deformed bracket, kept by the RMatrix
    made = []

    def spy(dim, entries=None):
        made.append(StructureTensor(dim, entries))
        return made[-1]

    monkeypatch.setattr(rmatrix, "StructureTensor", spy)
    r = basis_rmatrix(fx.ex35(), 0, 0)
    induced_product(r)
    gt = deformed_algebra(r)
    bracket = deformed_bracket(r)
    assert not bracket.is_zero() and gt.bracket is bracket
    assert [m for m in made if m == bracket] == [bracket]
