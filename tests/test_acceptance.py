"""The acceptance suite: one test per criterion, every comparison exact.

Each test registers a PASS/FAIL line that pytest prints in its terminal
summary (one line per criterion).
"""

import os
from fractions import Fraction as Q

from novikov import fixtures as fx
from novikov.certificate import (
    Certificate,
    NOT_EXISTS,
    decide_novikov,
    verify_certificate,
)
from novikov.extensions import (
    assemble,
    jordan_lift,
    lift_product,
    novikov_ideal_quotient,
    scheuneman_lift,
    two_gen_lift,
    two_step_solvable_from,
)
from novikov.laf import parse_file
from novikov.lie import quotient, validate_lie
from novikov.linalg import Matrix, NotRegularNilpotent, Subspace
from novikov.products import (
    half_bracket_product,
    is_compatible,
    is_complete,
    is_left_symmetric,
    is_novikov,
)
from novikov.reduction import (
    ModuleAction,
    fitting_decompose,
    induced_nilpotent_extension,
    prop57_construct,
    reduction_lift,
)
from novikov.rmatrix import (
    RMatrix,
    basis_rmatrix,
    check_cybe,
    check_novbed,
    deformed_algebra,
    induced_product,
)

from dense_scans import (
    check_lift_lsa,
    check_lift_novikov,
    commutator,
    commutator_tensor,
    coordinates,
    deformation_keeps_class_bounds,
    derived_identities_hold,
    h0,
    invariant_profile,
    novikov_operator_identity_holds,
    right_matrix,
    row_module,
    subspace_sum,
    word_image_space,
)
from randalg import (
    basis_rmatrix_pool,
    random_basis_rmatrix_case,
    random_mixed_extension,
    random_nilpotent_module,
    random_prop57_instance,
    random_regular_jordan_extension,
    random_three_step_extension,
    random_two_step_nilpotent,
    rng_for,
)

DATA = os.path.join(os.path.dirname(__file__), "data")


def unit(n, k, c=1):
    return tuple(Q(c) if i == k else Q(0) for i in range(n))


def all_fixtures():
    algebras = [
        fx.abelian(3),
        fx.n3(),
        fx.r2(),
        fx.r3(),
        fx.r3_lambda(Q(1)),
        fx.r3_lambda(Q(-1)),
        fx.r3_lambda(Q(2, 3)),
        fx.sl2(),
        fx.ex35(),
        fx.free_n2_c4(),
        fx.free_n3_c3(),
    ]
    algebras.extend(fx.filiform(n) for n in range(3, 9))
    algebras.extend(fx.in_lie(n) for n in range(2, 5))
    return algebras


def test_criterion_1_fixture_validity(criterion):
    with criterion(1, "fixture validity and free-n2-c4 class profile"):
        for g in all_fixtures():
            revalidated = validate_lie(g.bracket, g.labels)
            assert revalidated.bracket == g.bracket
        g8 = fx.free_n2_c4()
        assert g8.nilpotency_class() == 4
        assert g8.derived_length() == 2


def test_criterion_2_reference_products(criterion):
    with criterion(2, "reference product tables verify exactly"):
        for p, g in [
            (fx.ex35_product(), fx.ex35()),
            (fx.free_n3_c3_product(), fx.free_n3_c3()),
        ]:
            assert is_left_symmetric(p)
            assert is_novikov(p)
            assert is_compatible(p, g)
            assert derived_identities_hold(p)


def test_criterion_3_half_bracket(criterion):
    with criterion(3, "half-bracket Novikov on 2-step nilpotent algebras"):
        rng = rng_for("acceptance-2step")
        for _ in range(10):
            g = random_two_step_nilpotent(rng, max_dim=8)
            p = half_bracket_product(g)
            assert is_novikov(p)
            assert is_compatible(p, g)
        bad = is_left_symmetric(half_bracket_product(fx.free_n2_c4()))
        assert not bad and bad.witness is not None


def test_criterion_4_rmatrix_suite(criterion):
    with criterion(4, "r-matrix checks, profiles and class bounds"):
        sl2 = fx.sl2()
        abelian_profile = invariant_profile(fx.abelian(3))
        n3_profile = invariant_profile(fx.n3())
        r3m1_profile = invariant_profile(fx.r3_lambda(Q(-1)))

        def family(a, b):
            a, b = Q(a), Q(b)
            return Matrix(
                [[a, 1, 2 * b], [a * a, a, 2 * a * b], [a * b, b, 2 * b * b]]
            )

        cases = [Matrix.zeros(3, 3), Matrix.unit(3, 0, 1), Matrix.unit(3, 2, 2)]
        samples = [(1, 2), (0, 1), (Q(1, 2), Q(-1, 3)), (-1, 1), (-4, 2)]
        cases.extend(family(a, b) for a, b in samples)
        for t in cases:
            r = RMatrix(sl2, t)
            assert check_cybe(r)
            assert check_novbed(r)
            p = induced_product(r)
            assert is_novikov(p)
            profile = invariant_profile(deformed_algebra(r))
            assert profile in (abelian_profile, n3_profile, r3m1_profile)
        # the three named outcomes
        assert invariant_profile(deformed_algebra(RMatrix(sl2, cases[0]))) == abelian_profile
        assert invariant_profile(deformed_algebra(RMatrix(sl2, cases[1]))) == n3_profile
        assert invariant_profile(deformed_algebra(RMatrix(sl2, cases[2]))) == r3m1_profile
        for (a, b), t in zip(samples, cases[3:]):
            expected = n3_profile if Q(a) + Q(b) ** 2 == 0 else r3m1_profile
            assert invariant_profile(deformed_algebra(RMatrix(sl2, t))) == expected
        # class bounds on random basis r-matrices
        rng = rng_for("acceptance-rmatrix")
        pool = basis_rmatrix_pool()
        for _ in range(20):
            g, ell, m = random_basis_rmatrix_case(rng, pool)
            r = basis_rmatrix(g, ell, m)
            assert deformation_keeps_class_bounds(r.g, deformed_algebra(r))


def test_criterion_5_scheuneman(criterion):
    with criterion(5, "closed-form LSA lift on 3-step nilpotent extensions"):
        rng = rng_for("acceptance-scheuneman")
        for index in range(10):
            ext = random_three_step_extension(rng, index)
            assert ext.dim_a + ext.dim_b <= 10
            lift = scheuneman_lift(ext)
            assert check_lift_lsa(ext, lift)
            p = lift_product(ext, lift)
            assert is_left_symmetric(p)
            assert is_compatible(p, assemble(ext))
            assert is_complete(p).passes_nilpotency_checks


def test_criterion_6_two_and_three_generator(criterion):
    with criterion(6, "two-generator lift and three-generator quotients"):
        ext, _ = two_step_solvable_from(fx.ex35())
        assert check_lift_novikov(ext, two_gen_lift(ext))
        g8 = fx.free_n2_c4()
        q = quotient(g8, g8.lower_central_series()[3])
        extq, _ = two_step_solvable_from(q)
        assert check_lift_novikov(extq, two_gen_lift(extq))

        p14 = fx.free_n3_c3_product()
        mix = [Q(0)] * 14
        mix[3], mix[9] = Q(1), Q(1)
        v1 = [Q(0)] * 14
        v1[3], v1[12] = Q(1), Q(1)
        v2 = [Q(0)] * 14
        v2[4] = Q(1)
        shapes = [
            Subspace(14, [unit(14, k) for k in range(6, 14)]),
            Subspace(14, [tuple(mix), unit(14, 6), unit(14, 7), unit(14, 8), unit(14, 12)]),
            Subspace(14, [tuple(v1), tuple(v2)] + [unit(14, k) for k in range(6, 12)]),
        ]
        for shape in shapes:
            assert is_novikov(novikov_ideal_quotient(p14, shape))


def test_criterion_7_jordan_filiform(criterion):
    with criterion(7, "Jordan-block lift on filiform and random extensions"):
        for n in range(4, 9):
            g = fx.filiform(n)
            ext, _ = two_step_solvable_from(g)
            lift = None
            for x_index in range(ext.dim_b):
                try:
                    lift = jordan_lift(ext, x_index)
                    break
                except NotRegularNilpotent:
                    continue
            assert lift is not None
            assert check_lift_novikov(ext, lift)
        rng = rng_for("acceptance-jordan")
        for index in range(10):
            ext = random_regular_jordan_extension(rng, index)
            lift = jordan_lift(ext, 0)
            assert check_lift_novikov(ext, lift)


def test_criterion_8_reduction(criterion):
    with criterion(8, "Fitting decomposition, reduction lift, Prop 5.7"):
        rng = rng_for("acceptance-fitting")
        for index in range(25):
            module = random_nilpotent_module(rng, index)
            assert module.dim_v <= 8
            dec = fitting_decompose(module)
            d = module.dim_v
            # V_n meets V_0 in 0 and together they span V
            assert subspace_sum(dec.v_n, dec.v_0).dim == dec.v_n.dim + dec.v_0.dim == d
            for mat in module.action:
                assert all(dec.v_n.contains(mat.apply(v)) for v in dec.v_n.basis)
                assert all(dec.v_0.contains(mat.apply(v)) for v in dec.v_0.basis)
            assert word_image_space(module.action, dec.v_n, d).is_zero()
            invariants = h0(module)
            assert subspace_sum(invariants, dec.v_0).dim == invariants.dim + dec.v_0.dim
            restricted_rows = ModuleAction(
                module.b,
                dec.v_0.dim,
                [_restrict(mat, dec.v_0) for mat in module.action],
            )
            assert h0(restricted_rows).is_zero()
            assert h0(row_module(restricted_rows)).is_zero()
            # Lemma column-row on the full module
            assert h0(module).is_zero() == h0(row_module(module)).is_zero()
        rng = rng_for("acceptance-reduction-lift")
        for _ in range(10):
            ext = random_mixed_extension(rng)
            ind = induced_nilpotent_extension(ext)
            lift_n = two_gen_lift(ind.ext_n)
            lift = reduction_lift(ext, lift_n)
            assert check_lift_lsa(ext, lift)
            assert check_lift_novikov(ext, lift)
        rng = rng_for("acceptance-prop57")
        for _ in range(5):
            g = random_prop57_instance(rng)
            p = prop57_construct(g)
            assert is_left_symmetric(p)
            assert is_compatible(p, g)
            assert is_complete(p).passes_nilpotency_checks


def _restrict(mat, subspace):
    cols = []
    for v in subspace.basis:
        coords = coordinates(subspace, mat.apply(v))
        assert coords is not None
        cols.append(coords)
    return Matrix.from_columns(cols) if subspace.dim else Matrix.zeros(0, 0)


def test_criterion_9_nonexistence_certificate(criterion):
    with criterion(9, "machine-checked nonexistence on free-n2-c4"):
        g = fx.free_n2_c4()
        cert = decide_novikov(g)
        assert cert.verdict == NOT_EXISTS
        assert verify_certificate(g, cert)
        frozen = parse_file(os.path.join(DATA, "free-n2-c4.lafc"))
        assert frozen.verdict == NOT_EXISTS
        assert verify_certificate(g, frozen)
        for qi in list(frozen.witness):
            tampered = Certificate(
                NOT_EXISTS,
                frozen.algebra_hash,
                witness_kind=frozen.witness_kind,
                witness={**frozen.witness, qi: frozen.witness[qi] + 1},
                constant=frozen.constant,
            )
            assert not verify_certificate(g, tampered)


def novikov_corpus():
    corpus = [
        (fx.ex35_product(), fx.ex35()),
        (fx.free_n3_c3_product(), fx.free_n3_c3()),
        (half_bracket_product(fx.n3()), fx.n3()),
    ]
    corpus.extend(
        (fx.in_novikov_product(n), fx.in_lie(n)) for n in range(2, 5)
    )
    rng = rng_for("acceptance-corpus")
    for _ in range(5):
        g = random_two_step_nilpotent(rng, max_dim=7)
        corpus.append((half_bracket_product(g), g))
    sl2 = fx.sl2()
    for t in (Matrix.unit(3, 0, 1), Matrix.unit(3, 2, 2)):
        r = RMatrix(sl2, t)
        corpus.append((induced_product(r), deformed_algebra(r)))
    for g in [fx.ex35(), fx.filiform(5), fx.r2(), fx.in_lie(3)]:
        cert = decide_novikov(g)
        if cert.verdict == "exists":
            corpus.append((cert.product, g))
    return corpus


def test_criterion_10_global_cross_checks(criterion):
    with criterion(10, "global Novikov invariants across the corpus"):
        for p, g in novikov_corpus():
            assert is_novikov(p)
            assert is_compatible(p, g)
            assert is_left_symmetric(p)
            com = validate_lie(commutator_tensor(p))
            assert com.derived_length() is not None
            assert novikov_operator_identity_holds(p, g)
            assert derived_identities_hold(p)
            for i in range(p.dim):
                for j in range(i + 1, p.dim):
                    assert commutator(right_matrix(p, i), right_matrix(p, j)).is_zero()
