from fractions import Fraction as Q

import pytest
from hypothesis import given, settings

from novikov import fixtures as fx
from novikov.extensions import assemble
from novikov.lie import (
    AntisymmetryViolation,
    JacobiViolation,
    LieAlgebra,
    NotAnIdeal,
    StructureTensor,
    quotient,
    quotient_tensor,
    validate_lie,
)
from novikov.fixtures import UnknownFixture, fixture, product_fixture
from novikov.linalg import DimensionMismatch, Matrix, Subspace
from novikov.products import half_bracket_product

import dense_scans as dense
from randalg import (
    bracket_cases,
    gelfand_dorfman,
    random_prop57_instance,
    random_three_step_extension,
    random_two_step_nilpotent,
    rational,
    rebased,
    rng_for,
)


def unit(n, k, c=1):
    return tuple(Q(c) if i == k else Q(0) for i in range(n))


def test_validate_abelian():
    g = validate_lie(StructureTensor(3, {}))
    assert g.is_abelian()


def test_validate_n3():
    g = fx.n3()
    assert g.bracket.basis_product(0, 1) == unit(3, 2)
    assert g.nilpotency_class() == 2


def test_validate_antisymmetry_violation():
    t = StructureTensor(3, {(0, 1, 2): Q(1), (1, 0, 2): Q(1)})
    with pytest.raises(AntisymmetryViolation) as err:
        validate_lie(t)
    assert err.value.triple == (0, 1, 2)


def test_validate_jacobi_violation():
    brackets = {(0, 1): unit(3, 2), (0, 2): unit(3, 0)}
    t = StructureTensor.antisymmetric_from_brackets(3, brackets)
    with pytest.raises(JacobiViolation):
        validate_lie(t)


def test_derived_series_examples():
    abelian = fx.abelian(3)
    series = abelian.derived_series()
    assert [s.dim for s in series] == [3, 0]

    g8 = fx.free_n2_c4()
    assert [s.dim for s in g8.derived_series()] == [8, 6, 0]
    assert g8.derived_length() == 2

    r2 = fx.r2()
    derived = r2.derived_series()
    assert [s.dim for s in derived] == [2, 1, 0]
    assert derived[1].contains((0, 1))


def test_lower_central_series_examples():
    assert [s.dim for s in fx.abelian(3).lower_central_series()] == [3, 0]
    g8 = fx.free_n2_c4()
    assert [s.dim for s in g8.lower_central_series()] == [8, 6, 5, 3, 0]
    assert g8.nilpotency_class() == 4
    r2 = fx.r2()
    lcs = r2.lower_central_series()
    assert [s.dim for s in lcs] == [2, 1]
    assert r2.nilpotency_class() is None


def test_series_monotone_and_stabilize():
    for g in [fx.free_n3_c3(), fx.ex35(), fx.r3(), fx.sl2()]:
        for series in (g.derived_series(), g.lower_central_series()):
            assert len(series) <= g.dim + 1
            for prev, nxt in zip(series, series[1:]):
                assert dense.included(nxt, prev) and nxt.dim < prev.dim


SERIES_FIXTURES = ("n3", "r2", "r3", "sl2", "ex35", "free-n2-c4", "free-n3-c3", "filiform:6",
                   "In:4", "abelian:3", "r3-lambda:-1/2", "abelian:0", "abelian:1")


def _series_algebras():
    """Every named fixture, 0- and 1-dimensional ones among them; the
    Gelfand-Dorfman algebras; and rebased copies of both, whose series have
    dense bases with entries that are not integral."""
    rng = rng_for("series-parity")
    for name in SERIES_FIXTURES:
        g = fx.fixture(name)
        yield name, g
        if g.dim:
            yield "rebased " + name, rebased(g, half_bracket_product(g), rng)[0]
    for n in range(1, 7):
        for k in range(1, 4):
            g, product = gelfand_dorfman(n, k)
            yield "gd(%d, %d)" % (n, k), g
            yield "rebased gd(%d, %d)" % (n, k), rebased(g, product, rng)[0]


def test_series_match_the_dense_reference():
    # both series term by term, and the bracket of each pair of their terms,
    # against products built by StructureTensor.apply over basis pairs
    non_integral = 0
    for label, g in _series_algebras():
        terms = []
        for derived in (True, False):
            got = g.derived_series() if derived else g.lower_central_series()
            assert [s.basis for s in got] == [s.basis for s in dense.series(g, derived)], label
            terms += got
        for u in terms[:5]:
            for v in terms[:5]:
                assert g.bracket_space(u, v) == dense.bracket_space(g, u, v), label
        non_integral += any(x.denominator != 1 for s in terms for v in s.basis for x in v)
    assert non_integral >= 10


def test_bracket_space_matches_the_dense_reference_on_random_subspaces():
    rng = rng_for("bracket-space")
    algebras = [fx.ex35(), fx.free_n3_c3(), fx.sl2(), random_two_step_nilpotent(rng)]
    for g in algebras:
        for _ in range(6):
            u, v = (Subspace(g.dim, [_random_vector(rng, g.dim) for _ in range(rng.randint(0, 3))])
                    for _ in range(2))
            assert g.bracket_space(u, v) == dense.bracket_space(g, u, v)


def test_series_make_no_dense_products(monkeypatch):
    algebras = [fx.fixture(name) for name in SERIES_FIXTURES]

    def refuse(*args):
        raise AssertionError("StructureTensor.apply called")

    monkeypatch.setattr(StructureTensor, "apply", refuse)
    for g in algebras:
        g.derived_series()
        g.lower_central_series()
        g.nilpotency_class()


def test_wrong_dimensions_raise():
    # ex35 has dimension 5: subspaces of Q^7 or Q^3 and vectors of length 3
    # are refused, not bracketed as if they fit
    g = fx.ex35()
    for n, m in ((7, 7), (3, 3), (5, 3), (7, 5)):
        with pytest.raises(DimensionMismatch):
            g.bracket_space(Subspace.full(n), Subspace.full(m))
    for u, v in (((1, 0, 0), (0, 0, 0, 1, 0)), ((0, 0, 0, 1, 0), (1, 0, 0)),
                 ((1, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0))):
        with pytest.raises(DimensionMismatch):
            g.bracket.apply(u, v)
    assert g.bracket.apply((1, 0, 0, 0, 0), (0, 0, 0, 1, 0)) == (0, -1, 0, 0, 0)


def test_quotient_by_zero():
    g = fx.free_n2_c4()
    q = quotient(g, Subspace(8))
    assert q.bracket == g.bracket


def test_quotient_n3_center():
    g = fx.n3()
    q = quotient(g, Subspace(3, [unit(3, 2)]))
    assert q.dim == 2 and q.is_abelian()


def test_quotient_14_by_third_term():
    g = fx.free_n3_c3()
    third = Subspace(14, [unit(14, k) for k in range(6, 14)])
    q = quotient(g, third)
    assert q.dim == 6 and q.nilpotency_class() == 2
    # recompute one bracket in the complement basis: [x1, x2] = x4
    assert q.bracket.basis_product(0, 1) == unit(6, 3)


def test_quotient_rejects_non_ideal():
    g = fx.n3()
    with pytest.raises(NotAnIdeal):
        quotient(g, Subspace(3, [unit(3, 0)]))


def test_quotient_valid_on_random_ideals():
    rng = rng_for("lie-quot")
    for i in range(5):
        g = random_two_step_nilpotent(rng)
        lcs = g.lower_central_series()
        q = quotient(g, lcs[1])
        validate_lie(q.bracket, q.labels)


def test_quotients_by_series_terms_pass_validate_lie():
    # quotient does not validate its bracket, since a Lie algebra modulo an
    # ideal is one; validate_lie must accept every quotient by a series term
    # of the fixtures and of the random corpora
    names = ("n3", "r2", "r3", "sl2", "ex35", "free-n2-c4", "free-n3-c3",
             "filiform:6", "In:4", "abelian:3", "r3-lambda:-1/2")
    rng = rng_for("lie-quot-series")
    algebras = [fixture(name) for name in names]
    algebras += [random_two_step_nilpotent(rng) for _ in range(4)]
    algebras += [assemble(random_three_step_extension(rng, i)) for i in range(4)]
    algebras += [random_prop57_instance(rng) for _ in range(2)]
    proper = 0
    for g in algebras:
        for term in g.lower_central_series() + g.derived_series():
            q = quotient(g, term)
            assert validate_lie(q.bracket, q.labels).bracket == q.bracket
            proper += 0 < q.dim and not q.is_abelian()
    assert proper >= 20


def test_fixture_lookup():
    assert fixture("sl2").dim == 3
    assert fixture("free-n2-c4").dim == 8
    assert fixture("free-n3-c3").dim == 14
    assert fixture("filiform:6").dim == 6
    assert fixture("r3-lambda:-1/2").dim == 3
    assert fixture("In:4").dim == 4
    assert fixture("abelian:5").dim == 5
    for name in ("nope", "sl2:3", "filiform", "r3-lambda"):
        with pytest.raises(UnknownFixture):
            fixture(name)
    # lambda reads as a Fraction; a zero denominator is a malformed value, a
    # ValueError, not a ZeroDivisionError
    for raw, lam in (("-1/2", Q(-1, 2)), ("2", Q(2)), ("2/4", Q(1, 2))):
        assert fixture("r3-lambda:" + raw).bracket.basis_product(0, 2) == (0, 0, lam)
    for name in ("r3-lambda:1/0", "r3-lambda:0/0"):
        with pytest.raises(ValueError):
            fixture(name)
    with pytest.raises(ValueError):
        product_fixture("half-bracket:r3-lambda:1/0")
    assert product_fixture("In-novikov:3").dim == 3
    assert product_fixture("ex35-product").dim == 5
    for name in ("nope", "ex35-product:3", "In-product", "In-novikov"):
        with pytest.raises(UnknownFixture):
            product_fixture(name)


def test_fixture_brackets_exact():
    sl2 = fx.sl2()
    assert sl2.bracket.basis_product(0, 1) == unit(3, 2)
    assert sl2.bracket.basis_product(0, 2) == unit(3, 0, -2)
    assert sl2.bracket.basis_product(1, 2) == unit(3, 1, 2)

    g8 = fx.free_n2_c4()
    assert g8.bracket.basis_product(1, 3) == unit(8, 6)  # x7 = [x2, x4]
    assert g8.bracket.basis_product(0, 4) == unit(8, 6)  # x7 = [x1, x5]

    g14 = fx.free_n3_c3()
    v = [Q(0)] * 14
    v[10], v[8] = Q(1), Q(-1)
    assert g14.bracket.basis_product(0, 5) == tuple(v)  # [x1, x6] = x11 - x9


def test_filiform_properties():
    for n in range(3, 9):
        g = fx.filiform(n)
        assert g.nilpotency_class() == n - 1
        derived = g.derived_series()[1]
        assert g.bracket_space(derived, derived).is_zero()


def test_free_n2_c4_is_free_nilpotent_profile():
    g = fx.free_n2_c4()
    assert g.nilpotency_class() == 4
    assert g.derived_length() == 2


def _assert_pair_index(t):
    regrouped = {}
    for (i, j, k), c in t.entries.items():
        regrouped.setdefault((i, j), {})[k] = c
    assert t.pairs == regrouped
    assert all(row and all(row.values()) for row in t.pairs.values())


def _random_vector(rng, n):
    return tuple(rational(rng, dens=(1, 2, 3)) if rng.random() < 0.6 else Q(0) for _ in range(n))


def test_pair_index_on_every_construction_path():
    g = fx.free_n3_c3()
    ideal = Subspace(g.dim, g.lower_central_series()[2].basis)
    shear = Matrix.from_columns([
        tuple(Q(1) if b == a else Q(1, 2) if b == a + 1 else Q(0) for b in range(5))
        for a in range(5)
    ])
    tensors = [
        StructureTensor(3, {(0, 1, 2): Q(1, 2), (0, 1, 0): 0, (2, 2, 1): Q(-3)}),
        StructureTensor.from_products(3, {(0, 1): (Q(0), Q(1, 3), Q(2)), (1, 1): (0, 0, 0)}),
        dense.tabulate(3, lambda i, j: tuple(Q(i - j, k + 1) for k in range(3))),
        StructureTensor.antisymmetric_from_brackets(3, {(0, 1): (Q(0), Q(0), Q(5, 2))}),
        fx.ex35().bracket.change_basis(shear, shear.inverse()),
        quotient_tensor(g.bracket, ideal)[1],
    ]
    for t in tensors:
        _assert_pair_index(t)
        assert t.pairs
        # equality and hashing read the entries alone, in any order
        twin = StructureTensor(t.dim, dict(reversed(list(t.entries.items()))))
        assert twin == t and hash(twin) == hash(t) == hash((t.dim, tuple(sorted(t.entries.items()))))
        assert twin != StructureTensor(t.dim, {})
        for name in ("pairs", "entries", "dim"):
            with pytest.raises(AttributeError):
                setattr(t, name, {})


def test_products_match_entry_scans():
    rng = rng_for("entry-scans")
    tensors = [fx.free_n3_c3().bracket, fx.free_n3_c3_product(), fx.sl2().bracket,
               StructureTensor(2, {})]
    tensors += [random_two_step_nilpotent(rng).bracket for _ in range(3)]
    for t in tensors:
        n = t.dim
        for i in range(n):
            assert t.left_matrix(i) == dense.left_matrix(t, i)
            for j in range(n):
                assert t.basis_product(i, j) == dense.basis_product(t, i, j)
        for _ in range(10):
            u, v = _random_vector(rng, n), _random_vector(rng, n)
            out = t.apply(u, v)
            assert out == dense.apply(t, u, v)
            assert all(type(x) is Q for x in out)


def _lie_outcome(check, t):
    try:
        g = check(t)
    except (AntisymmetryViolation, JacobiViolation) as err:
        return type(err), err.triple
    assert type(g) is LieAlgebra and g.bracket is t
    return None


# Non-integral brackets with several failing triples, where the first
# failure comes after triples whose terms are nonzero and cancel
JACOBI_TABLE = {(0, 1, 1): Q(1), (1, 0, 1): Q(-1), (1, 3, 1): Q(2, 3), (2, 3, 3): Q(1, 3),
                (3, 1, 1): Q(-2, 3), (3, 2, 3): Q(-1, 3), (3, 4, 0): Q(3, 2),
                (4, 3, 0): Q(-3, 2)}
ANTISYMMETRY_TABLE = {**JACOBI_TABLE, (2, 2, 1): Q(1, 2), (4, 3, 0): Q(-1, 2)}


def test_validate_lie_returns_the_dense_witness_on_pinned_tables():
    cases = ((JACOBI_TABLE, JacobiViolation, (1, 2, 3)),
             (ANTISYMMETRY_TABLE, AntisymmetryViolation, (2, 2, 1)))
    for table, error, triple in cases:
        t = StructureTensor(5, table)
        assert _lie_outcome(validate_lie, t) == _lie_outcome(dense.validate_lie, t) == (error, triple)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(bracket_cases())
def test_validate_lie_matches_dense_reference(t):
    assert _lie_outcome(validate_lie, t) == _lie_outcome(dense.validate_lie, t)
