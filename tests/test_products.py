from fractions import Fraction as Q

from hypothesis import given, settings
from hypothesis import strategies as st

from novikov import fixtures as fx
from novikov import lie
from novikov.extensions import _ASSOCIATIVE, ExtensionData, InvariantViolation
from novikov.lie import (
    _JACOBI,
    AntisymmetryViolation,
    JacobiViolation,
    LieAlgebra,
    StructureTensor,
    _first_defect,
    validate_lie,
)
from novikov.linalg import Matrix
from novikov.products import (
    _EQ1,
    _EQ2,
    _eq2,
    half_bracket_product,
    is_compatible,
    is_complete,
    is_left_symmetric,
    is_novikov,
)

import dense_scans as dense
from dense_scans import (
    commutator,
    commutator_tensor,
    derived_identities_hold,
    left_matrix_of,
    novikov_operator_identity_holds,
    right_matrix,
)
from randalg import (
    a_product_cases,
    bracket_cases,
    product_cases,
    random_prop57_instance,
    random_two_step_nilpotent,
    rng_for,
    sparse_tensors,
)


def test_left_symmetric_zero():
    assert is_left_symmetric(StructureTensor(3, {}))


def test_left_symmetric_half_bracket_n3():
    p = half_bracket_product(fx.n3())
    assert is_left_symmetric(p)
    assert is_novikov(p)
    assert is_compatible(p, fx.n3())


def test_half_bracket_fails_on_class_four():
    p = half_bracket_product(fx.free_n2_c4())
    verdict = is_left_symmetric(p)
    assert not verdict
    assert verdict.witness is not None
    assert verdict.label == "eq-1"


def test_novikov_examples():
    assert is_novikov(fx.ex35_product())
    assert is_novikov(fx.free_n3_c3_product())
    p = fx.in_product(3)
    assert is_left_symmetric(p)
    verdict = is_novikov(p)
    assert not verdict and verdict.label == "eq-2"
    # a concrete failure: (e2*e2)*e3 != (e2*e3)*e2
    e2 = (Q(0), Q(1), Q(0))
    e3 = (Q(0), Q(0), Q(1))
    assert p.apply(p.apply(e2, e2), e3) != p.apply(p.apply(e2, e3), e2)


def test_compatibility_examples():
    assert is_compatible(StructureTensor(3, {}), fx.abelian(3))
    assert is_compatible(half_bracket_product(fx.n3()), fx.n3())
    assert is_compatible(fx.in_novikov_product(4), fx.in_lie(4))
    bad = is_compatible(fx.in_novikov_product(3), fx.abelian(3))
    assert not bad and bad.label == "eq-3"
    # the half-bracket product has denominator 2 where the bracket has 1;
    # scaled alike by 1/3 or -2/5 they stay compatible, and the bracket
    # tripled alone fails at the first pair with a constant
    for g in (fx.n3(), fx.ex35(), fx.free_n3_c3()):
        p = half_bracket_product(g)
        assert p._int_form()[0] == 2 and g.bracket._int_form()[0] == 1
        for q in (Q(1, 3), Q(-2, 5)):
            pq = _scaled(p, q)
            assert is_compatible(pq, LieAlgebra(_scaled(g.bracket, q)))
        bad = is_compatible(p, LieAlgebra(_scaled(g.bracket, Q(3))))
        assert (bad.ok, bad.witness, bad.label) == (False, min(g.bracket.pairs), "eq-3")


def _scaled(t, q):
    return StructureTensor(t.dim, {key: q * c for key, c in t.entries.items()})


def test_commutator_lie():
    # the commutator x*y - y*x of a left-symmetric product is a Lie bracket
    assert validate_lie(commutator_tensor(StructureTensor(2, {}))).is_abelian()
    g = validate_lie(commutator_tensor(fx.ex35_product()))
    assert g.bracket == fx.ex35().bracket
    gi = validate_lie(commutator_tensor(fx.in_product(4)))
    assert gi.bracket == fx.in_lie(4).bracket
    assert not is_left_symmetric(half_bracket_product(fx.free_n2_c4()))


def test_complete_examples():
    assert is_complete(half_bracket_product(fx.n3())).kind == "complete"
    assert is_complete(StructureTensor(3, {})).kind == "complete"
    res = is_complete(fx.in_product(3))
    assert res.kind == "incomplete"
    # R(e1) has eigenvalue 2 on e1 in the simple algebra I_n
    assert res.witness == (Q(1), Q(0), Q(0))
    # with R(x)y = y*x, the Novikov alternative on I_n has every R nilpotent
    assert is_complete(fx.in_novikov_product(3)).kind == "complete"


def _scheuneman_ex35():
    from novikov.extensions import lift_product, scheuneman_lift, two_step_solvable_from

    ext, _ = two_step_solvable_from(fx.ex35())
    return lift_product(ext, scheuneman_lift(ext))


def test_not_left_symmetric_reachable():
    # half the bracket of a class-5 algebra is not left-symmetric, its rights
    # do not commute, and every R(x) is strictly triangular
    p = half_bracket_product(fx.filiform(6))
    assert not is_left_symmetric(p) and not _eq2(p)
    res = is_complete(p)
    assert res.kind == "not-left-symmetric" and res.witness is None
    assert res.passes_nilpotency_checks
    # Scheuneman products are left-symmetric with non-commuting rights in
    # general; the answer on them is exact
    q = _scheuneman_ex35()
    assert is_complete(q).kind == "complete"
    # the eq-2 scan shared by is_novikov and is_complete against the dense
    # right multiplications (the Novikov corpus side is checked below)
    for q in (q, fx.in_product(3)):
        assert is_left_symmetric(q) and not is_novikov(q)
        assert not all(
            commutator(right_matrix(q, i), right_matrix(q, j)).is_zero()
            for i in range(q.dim)
            for j in range(q.dim)
        )


def test_sampler_finds_nothing_on_complete_left_symmetric_products():
    # a left-symmetric product whose R(e_i) are nilpotent is complete
    # (Helmstetter; Segal), even when its rights do not commute; 32 seeded
    # samples find no R(x) there that is not nilpotent
    from novikov.reduction import prop57_construct

    rng = rng_for("products-prop57")
    products = [_scheuneman_ex35()]
    products += [prop57_construct(random_prop57_instance(rng)) for _ in range(3)]
    for p in products:
        assert is_left_symmetric(p) and not _eq2(p)
        assert is_complete(p).kind == "complete"
        assert dense.sample_rights(p) is None


def test_derived_identities():
    assert derived_identities_hold(half_bracket_product(fx.n3()))
    assert derived_identities_hold(fx.ex35_product())
    assert derived_identities_hold(fx.free_n3_c3_product())


def novikov_product_corpus():
    corpus = [
        (fx.ex35_product(), fx.ex35()),
        (fx.free_n3_c3_product(), fx.free_n3_c3()),
        (fx.in_novikov_product(4), fx.in_lie(4)),
        (half_bracket_product(fx.n3()), fx.n3()),
    ]
    rng = rng_for("products-corpus")
    for _ in range(4):
        g = random_two_step_nilpotent(rng)
        corpus.append((half_bracket_product(g), g))
    return corpus


def test_novikov_invariants_across_corpus():
    for p, g in novikov_product_corpus():
        assert is_novikov(p)
        assert is_compatible(p, g)
        # solvability of the commutator algebra
        assert validate_lie(commutator_tensor(p)).derived_length() is not None
        # commuting right multiplications and L as a representation
        for i in range(p.dim):
            for j in range(p.dim):
                assert commutator(right_matrix(p, i), right_matrix(p, j)).is_zero()
                com = tuple(
                    a - b
                    for a, b in zip(p.basis_product(i, j), p.basis_product(j, i))
                )
                left = p.left_matrix
                assert commutator(left(i), left(j)) == left_matrix_of(p, com)
        # the linear operator relation used by the certifier
        assert novikov_operator_identity_holds(p, g)
        assert derived_identities_hold(p)


def test_novikov_implies_left_symmetric():
    for p, _ in novikov_product_corpus():
        assert is_left_symmetric(p)


def _verdict(v):
    return v.ok, v.witness, v.label


@settings(max_examples=300, derandomize=True, deadline=None)
@given(product_cases())
def test_scans_match_dense_references(case):
    p, g = case
    assert _verdict(is_left_symmetric(p)) == _verdict(dense.is_left_symmetric(p))
    assert _verdict(_eq2(p)) == _verdict(dense.eq2(p))
    assert _verdict(is_compatible(p, g)) == _verdict(dense.is_compatible(p, g))
    # a second scan is served from the tensor: the same witness as the first
    # and as the dense reference, for every identity the package scans
    for t, identity, flags, want in (
        (p, _EQ1, (True, False), dense.is_left_symmetric(p).witness),
        (p, _EQ2, (False, True), dense.eq2(p).witness),
        (g.bracket, _JACOBI, (True, True), dense.jacobi_defect(g.bracket)),
        (p, _ASSOCIATIVE, (False, False), dense.associative_defect(p)),
    ):
        first = _first_defect(t, identity, *flags)
        assert _first_defect(t, identity, *flags) == first == want


def test_each_scan_walks_a_tensor_once(monkeypatch):
    # is_novikov reruns eq-1 after is_left_symmetric, and is_complete reruns
    # eq-2 after is_novikov; the tensor keeps each verdict, so eq-1 and eq-2
    # are walked once each, and a fresh tensor holds no scan dict
    walks = []
    walk = lie._walk

    def counted(tensor, identity, j_after_i, k_after_j):
        walks.append(identity)
        return walk(tensor, identity, j_after_i, k_after_j)

    monkeypatch.setattr(lie, "_walk", counted)
    p = fx.ex35_product()
    assert p._scans is None
    for _ in range(2):
        assert is_left_symmetric(p) and is_novikov(p)
        assert is_complete(p).is_complete
    assert walks == [_EQ1, _EQ2]
    assert set(p._scans) == {(_EQ1, True, False), (_EQ2, False, True)}


# Tables with non-integral constants where several triples (pairs, for eq-3)
# fail and the first failure is not the first triple the product reaches: the
# blocks before it have nonzero terms that cancel.
EQ1_TABLE = {(0, 2, 0): Q(-1, 3), (1, 0, 0): Q(2), (1, 1, 1): Q(-1, 3), (1, 2, 1): Q(-1),
             (2, 2, 1): Q(1), (2, 2, 2): Q(-1, 3)}
EQ2_TABLE = {(0, 0, 0): Q(2), (0, 2, 0): Q(2, 3), (2, 1, 0): Q(-1), (2, 1, 2): Q(2),
             (2, 2, 0): Q(2, 3), (2, 2, 1): Q(3), (2, 2, 2): Q(2)}
# the commutator of EQ1_TABLE, but [e2, e3] = e2 where it is -e2
EQ3_BRACKET = {(1, 0, 0): Q(2), (0, 1, 0): Q(-2), (0, 2, 0): Q(-1, 3), (2, 0, 0): Q(1, 3),
               (1, 2, 1): Q(1), (2, 1, 1): Q(-1)}


def test_scans_return_the_dense_witness_on_pinned_tables():
    eq1 = StructureTensor(3, EQ1_TABLE)
    eq2 = StructureTensor(3, EQ2_TABLE)
    g = LieAlgebra(StructureTensor(3, EQ3_BRACKET))
    cases = [
        (is_left_symmetric(eq1), dense.is_left_symmetric(eq1), (1, 2, 0)),
        (_eq2(eq2), dense.eq2(eq2), (2, 0, 1)),
        (is_compatible(eq1, g), dense.is_compatible(eq1, g), (1, 2)),
    ]
    for got, want, witness in cases:
        assert _verdict(got) == _verdict(want)
        assert got.witness == witness


def _scan_outcomes(t):
    """Every scan's outcome on the tensor t: as a product, as a bracket, and
    as an a-product."""
    try:
        lie = validate_lie(t).dim
    except (AntisymmetryViolation, JacobiViolation) as err:
        lie = type(err), err.triple
    ext = ExtensionData(t.dim, 1, [Matrix.zeros(t.dim, t.dim)], a_product=t)
    try:
        a_product = ext.validate() is ext
    except InvariantViolation as err:
        a_product = err.equation, err.witness
    complete = is_complete(t)
    return (_verdict(is_left_symmetric(t)), _verdict(_eq2(t)),
            _verdict(is_compatible(t, LieAlgebra(t))), (complete.kind, complete.witness),
            lie, a_product)


NONZERO = st.builds(Q, st.integers(1, 7), st.integers(1, 6)).flatmap(
    lambda q: st.sampled_from((q, -q)))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.one_of(sparse_tensors(), bracket_cases(), a_product_cases()), NONZERO)
def test_scaling_a_tensor_keeps_every_scan_outcome(t, q):
    # every scanned identity is homogeneous, which is what lets the scans
    # clear denominators
    assert _scan_outcomes(_scaled(t, q)) == _scan_outcomes(t)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(product_cases(), NONZERO, NONZERO)
def test_is_compatible_matches_the_fraction_sums(case, q, r):
    # the int comparison (u - v) * d_g = w * d_p against the Fraction sums,
    # on the drawn pair, on both sides scaled by q (compatible pairs stay
    # compatible, with other and unequal denominators) and on the bracket
    # alone scaled by r (most pairs fail): same verdict, pair and label
    p, g = case
    pq, gq = _scaled(p, q), LieAlgebra(_scaled(g.bracket, q))
    for pp, gg in ((p, g), (pq, gq), (p, LieAlgebra(_scaled(g.bracket, r)))):
        assert _verdict(is_compatible(pp, gg)) == _verdict(dense.is_compatible_pairs(pp, gg))


def test_scans_make_no_apply_calls(monkeypatch):
    p, g = fx.free_n3_c3_product(), fx.free_n3_c3()
    calls = []
    dense_apply = StructureTensor.apply

    def counted(self, u, v):
        calls.append((u, v))
        return dense_apply(self, u, v)

    monkeypatch.setattr(StructureTensor, "apply", counted)
    assert is_novikov(p) and is_compatible(p, g)
    assert validate_lie(g.bracket).bracket == g.bracket
    assert calls == []
    p.apply(p.basis_product(0, 1), p.basis_product(1, 0))
    assert len(calls) == 1


def _completeness(c):
    return c.kind, c.witness


def test_is_complete_matches_dense_reference_on_tables():
    # e1*e0 = e0 and e0*e1 = e1: R(e0) and R(e1) are nilpotent, R(e0 + e1)
    # is not, and the product is not left-symmetric
    swap = StructureTensor(2, {(1, 0, 0): 1, (0, 1, 1): 1})
    cases = [
        (StructureTensor(0, {}), "complete"),
        (StructureTensor(1, {}), "complete"),
        (fx.in_product(3), "incomplete"),
        (fx.in_product(5), "incomplete"),
        (swap, "not-left-symmetric"),
        (_scheuneman_ex35(), "complete"),
        (fx.ex35_product(), "complete"),
        (fx.free_n3_c3_product(), "complete"),
        (fx.in_novikov_product(4), "complete"),
        (half_bracket_product(fx.n3()), "complete"),
        # class 5: not left-symmetric, every R(x) strictly triangular
        (half_bracket_product(fx.filiform(6)), "not-left-symmetric"),
    ]
    for p, kind in cases:
        got = is_complete(p)
        assert got.kind == kind
        assert _completeness(got) == _completeness(dense.is_complete(p))
    # a sample finds the swap product incomplete, at a vector that is not a
    # multiple of a basis vector
    assert sum(1 for c in dense.sample_rights(swap) if c) == 2


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.one_of(sparse_tensors(), product_cases().map(lambda case: case[0])))
def test_is_complete_matches_dense_reference(p):
    assert _completeness(is_complete(p)) == _completeness(dense.is_complete(p))
