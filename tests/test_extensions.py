from collections import Counter
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings

from novikov import extensions
from novikov import fixtures as fx
from novikov.extensions import (
    ExtensionData,
    GammaExpansionFailed,
    HypothesisFailed,
    InvariantViolation,
    LiftCheckFailed,
    LiftData,
    NotInvertible,
    NotProductIdeal,
    NotTwoStepSolvable,
    assemble,
    iso_lift,
    jordan_lift,
    lift_product,
    novikov_ideal_quotient,
    scheuneman_lift,
    semidirect_lift,
    two_gen_lift,
    two_step_solvable_from,
    _require_three_step,
)
from novikov.laf import parse
from novikov.lie import StructureTensor, quotient, validate_lie
from novikov.linalg import DimensionMismatch, Matrix, NotRegularNilpotent, Subspace, jordan_block
from novikov.products import (
    _eq2,
    half_bracket_product,
    is_compatible,
    is_left_symmetric,
    is_novikov,
)

from dense_scans import (
    check_lift_lsa,
    _check_lift_novikov_trivial,
    _check_novikov_extra,
    a_product_violation,
    check_lift_novikov,
    column,
    commutator,
    omega_value,
)
from randalg import (
    a_product_cases,
    random_mixed_extension,
    random_regular_jordan_extension,
    random_three_step_extension,
    rational,
    rng_for,
)


def unit(n, k, c=1):
    return tuple(Q(c) if i == k else Q(0) for i in range(n))


def ex35_extension():
    ext, split = two_step_solvable_from(fx.ex35())
    return ext, split


def test_assemble_direct_sum():
    ext = ExtensionData(2, 2, [Matrix.zeros(2, 2)] * 2, {})
    assert assemble(ext).is_abelian()


def test_assemble_ex35_data():
    phi_x = Matrix([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    phi_y = Matrix([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
    ext = ExtensionData(3, 2, [phi_x, phi_y], {(0, 1): unit(3, 0)})
    g = assemble(ext)
    assert g.bracket == fx.ex35().bracket


def test_assemble_round_trip_free_n2_c4():
    g = fx.free_n2_c4()
    ext, split = two_step_solvable_from(g)
    assert g.bracket.change_basis(split.basis, split.basis_inv) == assemble(ext).bracket


def test_assemble_invariant_violations():
    # non-commuting actions of an abelian b: equation (23)
    a1 = Matrix([[0, 1], [0, 0]])
    a2 = Matrix([[0, 0], [1, 0]])
    with pytest.raises(InvariantViolation) as err:
        assemble(ExtensionData(2, 2, [a1, a2], {}))
    assert err.value.equation == "eq-23"
    # broken cocycle identity for abelian b of dimension 3: equation (24)
    mats = [Matrix([[2]]), Matrix.zeros(1, 1), Matrix.zeros(1, 1)]
    with pytest.raises(InvariantViolation) as err:
        assemble(ExtensionData(1, 3, mats, {(1, 2): (Q(1),)}))
    assert err.value.equation == "eq-24"


def test_two_step_solvable_from_abelian():
    ext, _ = two_step_solvable_from(fx.abelian(3))
    assert ext.dim_a == 0 and ext.dim_b == 3
    assert not ext.omega


def test_two_step_solvable_from_ex35():
    ext, _ = ex35_extension()
    assert ext.dim_a == 3 and ext.dim_b == 2
    assert ext.omega == {(0, 1): unit(3, 0)}              # Omega(X, Y) = A
    assert column(ext.phi[0], 0) == unit(3, 1)            # phi(X) A = B
    assert column(ext.phi[1], 0) == unit(3, 2)            # phi(Y) A = C


def test_two_step_solvable_from_14dim():
    ext, _ = two_step_solvable_from(fx.free_n3_c3())
    assert ext.dim_a == 11 and ext.dim_b == 3


def test_two_step_solvable_rejects():
    with pytest.raises(NotTwoStepSolvable):
        two_step_solvable_from(fx.sl2())


def test_lift_product_zero():
    ext = ExtensionData(2, 2, [Matrix.zeros(2, 2)] * 2, {})
    lift = LiftData(2, 2, [Matrix.zeros(2, 2)] * 2, [Matrix.zeros(2, 2)] * 2)
    assert lift_product(ext, lift).is_zero()


def test_lift_product_reference_example():
    ext, _ = ex35_extension()
    x_x = Matrix([[0, 0, 0], [Q(-1, 2), 0, 0], [0, 0, 0]])
    y_x = Matrix([[0, 0, 0], [Q(1, 2), 0, 0], [0, 0, 0]])
    y_y = Matrix([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
    lift = LiftData(
        3, 2, [x_x, Matrix.zeros(3, 3)], [y_x, y_y], {(1, 0): unit(3, 0, -1)}
    )
    assert check_lift_lsa(ext, lift)
    assert check_lift_novikov(ext, lift)
    assert lift_product(ext, lift) == fx.ex35_product()


def test_scheuneman_on_n3_gives_half_bracket():
    ext, split = two_step_solvable_from(fx.n3())
    lift = scheuneman_lift(ext)
    p = split.transport_product(lift_product(ext, lift))
    assert p == half_bracket_product(fx.n3())


def test_check_lift_lsa_zero_lift_fails_eq8():
    ext, _ = ex35_extension()
    zero = Matrix.zeros(3, 3)
    lift = LiftData(3, 2, [zero] * 2, [zero] * 2)
    verdict = check_lift_lsa(ext, lift)
    assert not verdict and verdict.label == "eq-8"


def test_scheuneman_form_fails_on_class_four():
    # the closed-form data exists for any extension, but on the 8-dimensional
    # free algebra no lift can pass: the Novikov checker must reject it
    g = fx.free_n2_c4()
    ext, _ = two_step_solvable_from(g)
    x_op = [a.scale(Q(-1, 3)) for a in ext.phi]
    y_op = [a.scale(Q(2, 3)) for a in ext.phi]
    x_values = {}
    for p in range(2):
        for q in range(2):
            v = ext.omega_pair(p, q)
            if any(v):
                x_values[(p, q)] = tuple(x / 2 for x in v)
    lift = LiftData(6, 2, x_op, y_op, x_values)
    assert not check_lift_novikov(ext, lift)
    with pytest.raises(HypothesisFailed):
        scheuneman_lift(ext)


def test_scheuneman_lift_examples():
    for g in [fx.n3(), fx.ex35(), fx.free_n3_c3()]:
        ext, split = two_step_solvable_from(g)
        lift = scheuneman_lift(ext)
        assert check_lift_lsa(ext, lift)
        p = split.transport_product(lift_product(ext, lift))
        assert is_left_symmetric(p) and is_compatible(p, g)
    ext, _ = two_step_solvable_from(fx.ex35())
    lift = scheuneman_lift(ext)
    assert lift.x_op[0] == ext.phi[0].scale(Q(-1, 3))


def test_two_gen_lift_examples():
    for g in [fx.ex35(), fx.n3()]:
        ext, split = two_step_solvable_from(g)
        lift = two_gen_lift(ext)
        assert check_lift_novikov(ext, lift)
        p = split.transport_product(lift_product(ext, lift))
        assert is_novikov(p) and is_compatible(p, g)
    # the closed-form solution: X1 = -A1/2, X2 = 0, x21 = -v12
    ext, _ = ex35_extension()
    lift = two_gen_lift(ext)
    assert lift.x_op[0] == ext.phi[0].scale(Q(-1, 2))
    assert lift.x_op[1].is_zero()
    assert omega_value(lift, 1, 0) == unit(3, 0, -1)


def test_two_gen_lift_on_quotient():
    g = fx.free_n2_c4()
    q = quotient(g, g.lower_central_series()[3])
    assert q.nilpotency_class() == 3
    ext, split = two_step_solvable_from(q)
    lift = two_gen_lift(ext)
    p = split.transport_product(lift_product(ext, lift))
    assert is_novikov(p) and is_compatible(p, q)


def test_iso_lift_examples():
    # one-dimensional invertible action
    ext = ExtensionData(1, 2, [Matrix([[1]]), Matrix([[2]])], {(0, 1): (Q(3),)})
    lift = iso_lift(ext, (Q(1), Q(0)))
    assert check_lift_novikov(ext, lift)

    # r2 as an extension: a = span{x2}, phi(x1) = 1, Omega = 0
    ext2, split2 = two_step_solvable_from(fx.r2())
    lift2 = iso_lift(ext2, (Q(1),))
    p = split2.transport_product(lift_product(ext2, lift2))
    assert is_novikov(p) and is_compatible(p, fx.r2())

    # all actions singular: no invertible phi(e) on any basis vector
    ext3, _ = two_step_solvable_from(fx.n3())
    for p_idx in range(ext3.dim_b):
        with pytest.raises(NotInvertible):
            iso_lift(ext3, unit(ext3.dim_b, p_idx))


def test_iso_lift_rejects_e_of_the_wrong_length():
    # a longer e used to be cut to dim b, a shorter one raised IndexError
    ext = ExtensionData(1, 2, [Matrix([[1]]), Matrix([[2]])], {(0, 1): (Q(3),)})
    for e in ((Q(1), Q(0), Q(5)), (Q(1),)):
        with pytest.raises(DimensionMismatch, match="dim b"):
            iso_lift(ext, e)


def test_jordan_lift_single_generator():
    ext = ExtensionData(3, 1, [jordan_block(3)], {})
    lift = jordan_lift(ext, 0)
    assert check_lift_novikov(ext, lift)


def test_jordan_lift_one_dimensional_a():
    # dim a = 1: the zero action is the regular block and has no linear term
    ext = ExtensionData(1, 3, [Matrix.zeros(1, 1)] * 3, {(0, 1): (Q(1),), (1, 2): (Q(2),)})
    for x_index in range(3):
        assert check_lift_novikov(ext, jordan_lift(ext, x_index))


def test_jordan_lift_filiform():
    for n in range(4, 9):
        g = fx.filiform(n)
        ext, split = two_step_solvable_from(g)
        lift = None
        for x_index in range(ext.dim_b):
            try:
                lift = jordan_lift(ext, x_index)
                break
            except NotRegularNilpotent:
                continue
        assert lift is not None
        assert check_lift_novikov(ext, lift)
        p = split.transport_product(lift_product(ext, lift))
        assert is_novikov(p) and is_compatible(p, g)


def test_jordan_lift_polynomial_action():
    j3 = jordan_block(3)
    v12 = (Q(1), Q(2), Q(-1))
    ext = ExtensionData(3, 2, [j3, j3 * j3], {(0, 1): v12})
    lift = jordan_lift(ext, 0)
    assert check_lift_novikov(ext, lift)
    assert omega_value(lift, 1, 1) == (j3.transpose() * (j3 * j3)).apply(v12)


def test_jordan_lift_delegates_to_iso():
    j2 = jordan_block(2)
    a2 = Matrix.identity(2) + j2
    ext = ExtensionData(2, 2, [j2, a2], {(0, 1): (Q(1), Q(1))})
    lift = jordan_lift(ext, 0)
    assert check_lift_novikov(ext, lift)
    assert all(x.is_zero() for x in lift.x_op)


def test_jordan_lift_rejects_irregular():
    ext = ExtensionData(2, 1, [Matrix.zeros(2, 2)], {})
    with pytest.raises(NotRegularNilpotent):
        jordan_lift(ext, 0)


def test_semidirect_lift_trivial():
    ext = ExtensionData(2, 2, [Matrix.zeros(2, 2)] * 2, {})
    lift = semidirect_lift(ext)
    assert check_lift_lsa(ext, lift)
    assert check_lift_novikov(ext, lift)


def test_semidirect_lift_r2_action():
    # b = r2 with its Novikov structure e1*e2 = e2; phi kills the products
    b_bracket = fx.r2().bracket
    b_product = fx.in_novikov_product(2)
    phi = [Matrix([[1]]), Matrix.zeros(1, 1)]
    ext = ExtensionData(
        1, 2, phi, {}, b_bracket=b_bracket, b_product=b_product
    )
    lift = semidirect_lift(ext)
    assert check_lift_lsa(ext, lift)
    assert check_lift_novikov(ext, lift)
    p = lift_product(ext, lift)
    assert is_novikov(p) and is_compatible(p, assemble(ext))


def test_semidirect_lift_novikov_fails_at_eq16():
    # abelian b with product e1*e1 = e2 and phi(e2) invertible: phi(x.y) != 0
    b_product = StructureTensor.from_products(2, {(0, 0): (Q(0), Q(1))})
    phi = [Matrix.zeros(1, 1), Matrix([[1]])]
    ext = ExtensionData(1, 2, phi, {}, b_product=b_product)
    lift = semidirect_lift(ext)
    assert check_lift_lsa(ext, lift)
    verdict = check_lift_novikov(ext, lift)
    assert not verdict and verdict.label == "eq-16"


def test_semidirect_lift_novikov_fails_at_eq20_alone():
    # b = r2 with the left-symmetric, non-Novikov product of I_2 and phi = 0:
    # (8)-(19) hold, and (20) is the eq-2 scan of the b-product
    b_product = fx.in_product(2)
    ext = ExtensionData(
        1, 2, [Matrix.zeros(1, 1)] * 2, {}, b_bracket=fx.in_lie(2).bracket, b_product=b_product
    )
    lift = semidirect_lift(ext)
    assert check_lift_lsa(ext, lift)
    verdict = check_lift_novikov(ext, lift)
    assert not verdict and verdict.label == "eq-20"
    assert verdict.witness == (0, 0, 1) == _eq2(b_product).witness


def test_novikov_ideal_quotient_identity():
    p = fx.free_n3_c3_product()
    assert novikov_ideal_quotient(p, Subspace(14)) == p


def test_novikov_ideal_quotient_shapes():
    p = fx.free_n3_c3_product()
    # shape 1: the whole third term of the lower central series
    shape1 = Subspace(14, [unit(14, k) for k in range(6, 14)])
    q1 = novikov_ideal_quotient(p, shape1)
    assert q1.dim == 6 and is_novikov(q1)
    # shape 2: <x4 + z, x7, x8, x9> + Z'
    mix = [Q(0)] * 14
    mix[3], mix[9] = Q(1), Q(1)
    shape2 = Subspace(
        14, [tuple(mix), unit(14, 6), unit(14, 7), unit(14, 8), unit(14, 12)]
    )
    q2 = novikov_ideal_quotient(p, shape2)
    assert q2.dim == 9 and is_novikov(q2)
    # shape 3: <x4 + z1, x5 + z2, x7 ... x12>
    v1 = [Q(0)] * 14
    v1[3], v1[12] = Q(1), Q(1)
    v2 = [Q(0)] * 14
    v2[4] = Q(1)
    shape3 = Subspace(
        14, [tuple(v1), tuple(v2)] + [unit(14, k) for k in range(6, 12)]
    )
    q3 = novikov_ideal_quotient(p, shape3)
    assert q3.dim == 6 and is_novikov(q3)


def test_novikov_ideal_quotient_rejects():
    p = fx.free_n3_c3_product()
    with pytest.raises(NotProductIdeal):
        novikov_ideal_quotient(p, Subspace(14, [unit(14, 0)]))


def random_small_extension(rng):
    n = rng.randint(1, 3)
    m = rng.randint(1, 2)
    while True:
        mats = []
        seed = Matrix(
            [[rational(rng) if rng.random() < 0.5 else Q(0) for _ in range(n)]
             for _ in range(n)]
        )
        for _ in range(m):
            mat = Matrix.zeros(n, n)
            power = Matrix.identity(n)
            for _ in range(n):
                if rng.random() < 0.5:
                    mat = mat + power.scale(rational(rng))
                power = power * seed
            mats.append(mat)
        omega = {}
        for p in range(m):
            for q in range(p + 1, m):
                v = tuple(rational(rng) for _ in range(n))
                if any(v):
                    omega[(p, q)] = v
        try:
            ext = ExtensionData(n, m, mats, omega)
            ext.validate()
            return ext
        except InvariantViolation:
            continue


def random_lift(rng, ext):
    """A perturbation of a lift: random phi1, phi2 = phi1 + phi (sometimes
    broken), omega near the cocycle."""
    n, m = ext.dim_a, ext.dim_b
    x_op = [
        Matrix([[rational(rng) if rng.random() < 0.4 else Q(0) for _ in range(n)]
                for _ in range(n)])
        for _ in range(m)
    ]
    y_op = [x + a for x, a in zip(x_op, ext.phi)]
    if rng.random() < 0.2 and m:
        y_op[0] = y_op[0] + Matrix.unit(n, 0, 0) if n else y_op[0]
    x_values = {}
    for p in range(m):
        for q in range(m):
            if rng.random() < 0.6:
                base = ext.omega_pair(p, q)
                noise = tuple(
                    rational(rng) if rng.random() < 0.3 else Q(0) for _ in range(n)
                )
                if p < q:
                    x_values[(p, q)] = tuple(a + b for a, b in zip(base, noise))
                else:
                    x_values[(p, q)] = noise
    return LiftData(n, m, x_op, y_op, x_values)


def test_checker_equivalence_with_direct_product_checks():
    # Prop phi12 / Prop novikov: the condition systems hold exactly when the
    # lifted product passes the direct axiom checks and is compatible
    rng = rng_for("ext-equiv")
    for _ in range(30):
        ext = random_small_extension(rng)
        lift = random_lift(rng, ext)
        g = assemble(ext)
        product = lift_product(ext, lift)
        lsa_checker = bool(check_lift_lsa(ext, lift))
        lsa_direct = bool(is_left_symmetric(product)) and bool(is_compatible(product, g))
        assert lsa_checker == lsa_direct
        nov_checker = bool(check_lift_novikov(ext, lift))
        nov_direct = bool(is_novikov(product)) and bool(is_compatible(product, g))
        assert nov_checker == nov_direct


def test_phi1_zero_makes_lsa_and_novikov_agree():
    # with phi1 = 0 and trivial products the two checkers decide alike
    rng = rng_for("ext-phi1-zero")
    for _ in range(20):
        ext = random_small_extension(rng)
        n, m = ext.dim_a, ext.dim_b
        zero = Matrix.zeros(n, n)
        x_values = {}
        for p in range(m):
            for q in range(m):
                if rng.random() < 0.7:
                    base = ext.omega_pair(p, q) if p < q else tuple(Q(0) for _ in range(n))
                    noise = tuple(
                        rational(rng) if rng.random() < 0.3 else Q(0) for _ in range(n)
                    )
                    value = tuple(a + b for a, b in zip(base, noise))
                    if any(value):
                        x_values[(p, q)] = value
        lift = LiftData(n, m, [zero] * m, list(ext.phi), x_values)
        assert bool(check_lift_lsa(ext, lift)) == bool(check_lift_novikov(ext, lift))


def test_a_is_two_sided_ideal_of_lifted_products():
    cases = []
    for g in [fx.n3(), fx.ex35(), fx.free_n3_c3()]:
        ext, _ = two_step_solvable_from(g)
        cases.append((ext, scheuneman_lift(ext)))
    ext, _ = two_step_solvable_from(fx.ex35())
    cases.append((ext, two_gen_lift(ext)))
    for ext, lift in cases:
        n = ext.dim_a
        p = lift_product(ext, lift)
        for (i, j, k), value in p.entries.items():
            if (i < n or j < n) and value != 0:
                assert k < n


def constructed_lifts(ext):
    """The closed-form Novikov lifts that apply to ext."""
    lifts = []
    for p in range(ext.dim_b):
        for construct in (lambda: iso_lift(ext, unit(ext.dim_b, p)), lambda: jordan_lift(ext, p)):
            try:
                lifts.append(construct())
            except (NotInvertible, NotRegularNilpotent, HypothesisFailed):
                pass
    return lifts


def split_lifts(rng, ext):
    """The split extension of ext (Omega = 0) with lifts omega = 0 and
    phi1 = multiples of one sparse matrix; these reach (28)-(31)."""
    n, m = ext.dim_a, ext.dim_b
    split = ExtensionData(n, m, ext.phi, {})
    lifts = []
    for _ in range(4):
        base = Matrix([[rational(rng) if rng.random() < 0.3 else Q(0) for _ in range(n)]
                       for _ in range(n)])
        x_op = [base.scale(rational(rng)) if rng.random() < 0.7 else Matrix.zeros(n, n)
                for _ in range(m)]
        lifts.append(LiftData(n, m, x_op, [x + a for x, a in zip(x_op, ext.phi)], {}))
    return split, lifts


def single_failure_lifts():
    """Trivial-products lifts that fail exactly one of (27), (28), (29)."""
    zero = Matrix.zeros(2, 2)
    cases = []
    ext = ExtensionData(2, 2, [Matrix([[1, -1], [1, 0]]), zero], {(0, 1): (0, 1)})
    values = {(0, 1): (1, 2), (1, 0): (1, 1)}
    cases.append(("eq-27", ext, LiftData(2, 2, [zero] * 2, ext.phi, values)))
    ext = ExtensionData(2, 2, [Matrix([[0, 0], [0, 1]]), zero], {})
    x_op = [Matrix([[0, 0], [-1, 0]]), zero]
    cases.append(("eq-28", ext, LiftData(2, 2, x_op, [x_op[0] + ext.phi[0], zero], {})))
    ext = ExtensionData(2, 2, [Matrix([[0, -1], [0, 0]]), zero], {})
    x_op = [Matrix([[0, 1], [0, 0]]), zero]
    values = {(0, 0): (1, 1), (0, 1): (1, 1), (1, 0): (1, 1), (1, 1): (1, -1)}
    cases.append(("eq-29", ext, LiftData(2, 2, x_op, [zero, zero], values)))
    return cases


def test_general_and_trivial_novikov_routes_agree():
    # check_lift_novikov decides trivial-products, abelian-b lifts by (25)-(31)
    # alone; the general system (8)-(14) then (15)-(20) must agree, and every
    # passing lift satisfies the derived identity [Y_p, Y_q] = 0
    rng = rng_for("ext-routes")
    cases = []
    for _ in range(30):
        ext = random_small_extension(rng)
        lifts = constructed_lifts(ext) + [random_lift(rng, ext) for _ in range(3)]
        cases += [(ext, lift) for lift in lifts]
        split, lifts = split_lifts(rng, ext)
        cases += [(split, lift) for lift in lifts]
    for label, ext, lift in single_failure_lifts():
        assert _check_lift_novikov_trivial(ext, lift).label == label
        cases.append((ext, lift))
    passing = failing = 0
    for ext, lift in cases:
        general = check_lift_lsa(ext, lift)
        if general:
            general = _check_novikov_extra(ext, lift)
        trivial = _check_lift_novikov_trivial(ext, lift)
        assert bool(general) == bool(trivial)
        if not trivial:
            failing += 1
            continue
        passing += 1
        y = lift.y_op
        for p in range(ext.dim_b):
            for q in range(p + 1, ext.dim_b):
                assert commutator(y[p], y[q]).is_zero()
    assert passing >= 10 and failing >= 10


def coboundary_extension(rng, b):
    """b acting on a = b by ad, with the coboundary
    Omega(p, q) = A_p mu_q - A_q mu_p - mu([e_p, e_q]) of a random mu."""
    m = b.dim
    phi = [b.bracket.left_matrix(p) for p in range(m)]
    mu = [tuple(rational(rng) for _ in range(m)) for _ in range(m)]

    def mu_of(x):
        return tuple(sum(c * v[i] for c, v in zip(x, mu)) for i in range(m))

    omega = {}
    for p in range(m):
        for q in range(p + 1, m):
            bracket = b.bracket.basis_product(p, q)
            dmu = zip(phi[p].apply(mu[q]), phi[q].apply(mu[p]), mu_of(bracket))
            omega[(p, q)] = tuple(x - y - z for x, y, z in dmu)
    return ExtensionData(m, m, phi, omega, b_bracket=b.bracket)


def strict_block_extension(rng):
    """Abelian b whose actions map a first block of a into a second one, so
    A_p A_q = 0; random cocycle values, which (24) rejects for some m = 3."""
    k1, k2, m = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
    n = k1 + k2
    phi = [
        Matrix([[rational(rng) if r >= k1 and c < k1 and rng.random() < 0.7 else Q(0)
                 for c in range(n)] for r in range(n)])
        for _ in range(m)
    ]
    omega = {(p, q): tuple(rational(rng) for _ in range(n))
             for p in range(m) for q in range(p + 1, m)}
    return ExtensionData(n, m, phi, omega)


def perturbed_extension(rng, ext):
    """ext with one action entry or one cocycle value changed."""
    n, m = ext.dim_a, ext.dim_b
    phi, omega = list(ext.phi), dict(ext.omega)
    if m > 1 and rng.random() < 0.5:
        p = rng.randrange(m - 1)
        omega[(p, p + 1)] = tuple(rational(rng) for _ in range(n))
    else:
        p = rng.randrange(m)
        phi[p] = phi[p] + Matrix.unit(n, rng.randrange(n), rng.randrange(n), rational(rng))
    return ExtensionData(n, m, phi, omega, b_bracket=ext.b_bracket)


def differential_extensions():
    """The randalg corpora, random small and strict-block extensions, the
    splits of the 2-step solvable fixtures, coboundary extensions of
    non-abelian b, and each of them perturbed once."""
    rng = rng_for("ext-differential")
    exts = [random_three_step_extension(rng, i) for i in range(4)]
    exts += [random_regular_jordan_extension(rng, i) for i in range(4)]
    exts += [random_mixed_extension(rng) for _ in range(4)]
    exts += [random_small_extension(rng) for _ in range(6)]
    exts += [strict_block_extension(rng) for _ in range(20)]
    names = ("n3", "r2", "r3", "ex35", "free-n2-c4", "free-n3-c3", "filiform:6", "In:4",
             "r3-lambda:-1/2")
    exts += [two_step_solvable_from(fx.fixture(name))[0] for name in names]
    exts += [coboundary_extension(rng, b) for b in (fx.n3(), fx.r3(), fx.filiform(5), fx.sl2())]
    return exts + [perturbed_extension(rng, ext) for ext in exts]


def test_valid_extensions_assemble_to_lie_brackets():
    # assemble does not run validate_lie: once validate() passes, (5), (6)
    # and b's own Jacobi identity make the assembled bracket a Lie bracket
    valid = invalid = nonabelian = 0
    for ext in differential_extensions():
        try:
            ext.validate()
        except InvariantViolation:
            invalid += 1
            continue
        valid += 1
        nonabelian += not ext.b_is_abelian() and bool(ext.omega)
        g = assemble(ext)
        assert validate_lie(g.bracket, g.labels).bracket == g.bracket
    assert valid >= 40 and invalid >= 10 and nonabelian >= 4


def test_three_step_hypotheses_bound_the_class():
    # _require_three_step assembles no algebra: abelian b, trivial products
    # and A_p A_q = 0 on valid data give class at most 3
    met = class_three = 0
    for ext in differential_extensions():
        try:
            _require_three_step(ext, "test")
        except (HypothesisFailed, InvariantViolation):
            continue
        met += 1
        cls = assemble(ext).nilpotency_class()
        assert cls is not None and cls <= 3
        class_three += cls == 3
    assert met >= 20 and class_three >= 10


def test_eq11_witness_is_first_in_scan_order():
    # X_0 = E_01, X_1 = E_00: eq-11 fails for (q, r) = (1, 0) at i = 1 and for
    # (1, 1) at i = 0; the scan runs over (i, q, r), so (0, 1, 1) comes first
    ext = ExtensionData(2, 2, [Matrix.zeros(2, 2)] * 2, {})
    x_op = [Matrix.unit(2, 0, 1), Matrix.unit(2, 0, 0)]
    verdict = check_lift_lsa(ext, LiftData(2, 2, x_op, x_op, {}))
    assert verdict.label == "eq-11" and verdict.witness == (0, 1, 1)


def test_jordan_normal_form_identities():
    # identities (33) and (34) behind the closed-form table of jordan_lift:
    # for B_0 = J and B_i polynomials in J without constant or linear term,
    # J J^t B = B and B_i J^t B_j = B_j J^t B_i
    rng = rng_for("ext-jordan-identities")
    for n in range(1, 6):
        j = jordan_block(n)
        jt = j.transpose()
        mats = [j]
        for _ in range(3):
            mat, power = Matrix.zeros(n, n), j * j
            for _ in range(2, n):
                mat = mat + power.scale(rational(rng))
                power = power * j
            mats.append(mat)
        for b in mats:
            assert j * jt * b == b
            for c in mats:
                assert b * jt * c == c * jt * b


@settings(max_examples=200, derandomize=True, deadline=None)
@given(a_product_cases())
def test_validate_a_product_scans_match_dense_loops(a_product):
    # validate sums each a-product identity over the nonzero constants; the
    # dense loops it replaced must report the same label and first witness
    ext = ExtensionData(a_product.dim, 1, [Matrix.zeros(a_product.dim, a_product.dim)],
                        a_product=a_product)
    try:
        ext.validate()
        got = None
    except InvariantViolation as err:
        got = (err.equation, err.witness)
    assert got == a_product_violation(a_product)


# Commutative a-products with non-integral constants where several triples
# fail associativity, the first after triples whose terms cancel, and the
# same table made non-commutative at two pairs, the first after equal pairs
ASSOCIATIVE_TABLE = {(0, 0, 0): Q(-1, 3), (1, 2, 1): Q(-1), (2, 1, 1): Q(-1),
                     (2, 3, 2): Q(-2), (2, 3, 3): Q(2, 3), (3, 2, 2): Q(-2),
                     (3, 2, 3): Q(2, 3)}
COMMUTATIVE_TABLE = {**ASSOCIATIVE_TABLE, (1, 3, 0): Q(1, 2), (3, 2, 3): Q(1, 3)}


def test_validate_a_product_scans_return_the_dense_witness_on_pinned_tables():
    cases = ((ASSOCIATIVE_TABLE, ("a-product-associative", (1, 2, 2))),
             (COMMUTATIVE_TABLE, ("a-product-commutative", (1, 3))))
    for table, outcome in cases:
        a_product = StructureTensor(4, table)
        ext = ExtensionData(4, 1, [Matrix.zeros(4, 4)], a_product=a_product)
        with pytest.raises(InvariantViolation) as err:
            ext.validate()
        assert (err.value.equation, err.value.witness) == outcome == a_product_violation(a_product)


# b-product e1*e1 = e2, e1*e2 = e2*e1 = e1 on abelian b: commutative, hence
# compatible, but not left-symmetric; validate rejects it, so parse does too
NON_LSA_B_PRODUCT = ("LAF-E 1\ndim-a 1\ndim-b 2\n"
                     "b-product 1 1 2 1\nb-product 1 2 1 1\nb-product 2 1 1 1\n")
# b = n3 with the b-product e1*e1 = e3: left-symmetric, as every product lands
# in e3, which annihilates, but e1*e2 - e2*e1 = 0 is not [e1, e2] = e3
INCOMPATIBLE_B_PRODUCT = ("LAF-E 1\ndim-a 1\ndim-b 3\n"
                          "b-bracket 1 2 3 1\nb-product 1 1 3 1\n")


def non_lsa_b_product_extension():
    """The extension of NON_LSA_B_PRODUCT, built without validate."""
    product = StructureTensor.from_products(2, {(0, 0): (0, 1), (0, 1): (1, 0), (1, 0): (1, 0)})
    return ExtensionData(1, 2, [Matrix.zeros(1, 1)] * 2, {}, b_product=product)


def test_validate_rejects_a_b_product_that_is_no_lsa_structure():
    # the hypothesis of (8)-(14), with the checkers' labels and witnesses; a
    # zero b-product stands for none and passes on any b
    cases = ((NON_LSA_B_PRODUCT, "b-product-left-symmetric", (0, 1, 0)),
             (INCOMPATIBLE_B_PRODUCT, "b-product-compatibility", (0, 1)))
    for document, label, witness in cases:
        with pytest.raises(InvariantViolation) as err:
            parse(document)
        assert (err.value.equation, err.value.witness) == (label, witness)
    n3 = fx.n3()
    zero = [Matrix.zeros(1, 1)] * 3
    for product in (None, half_bracket_product(n3)):
        ext = ExtensionData(1, 3, zero, {}, b_bracket=n3.bracket, b_product=product)
        assert ext.validate() is ext


# dim a = 1 and dim b = 2, with one product or the b-bracket of another
# dimension: each used to pass __init__ and to fail later, or not at all
ZERO_ACTIONS = [Matrix.zeros(1, 1)] * 2


def test_extension_rejects_an_a_product_of_the_wrong_dimension():
    # a 2-dim a-product passed validate, and lift_product built a wrong table
    a_product = StructureTensor.from_products(2, {(0, 0): (0, 1)})
    with pytest.raises(DimensionMismatch, match="a_product"):
        ExtensionData(1, 2, ZERO_ACTIONS, a_product=a_product)


def test_extension_rejects_a_b_bracket_of_the_wrong_dimension():
    # a 3-dim b-bracket passed validate, and assemble then failed with
    # "tensor index out of range"
    with pytest.raises(DimensionMismatch, match="b_bracket"):
        ExtensionData(1, 2, ZERO_ACTIONS, b_bracket=fx.n3().bracket)


def test_extension_rejects_a_b_product_of_the_wrong_dimension():
    # validate reported a 3-dim b-product as b-product-compatibility, with
    # witness None
    with pytest.raises(DimensionMismatch, match="b_product"):
        ExtensionData(1, 2, ZERO_ACTIONS, b_product=half_bracket_product(fx.n3()))


def test_validate_checks_the_b_bracket_once(monkeypatch):
    # the b-product's compatibility reads the algebra that validate built
    # first; with a nonzero b-product, b's Jacobi scan used to run twice
    calls = []

    def counted(bracket, labels=None):
        calls.append(bracket)
        return validate_lie(bracket, labels)

    monkeypatch.setattr(extensions, "validate_lie", counted)
    n3 = fx.n3()
    ext = ExtensionData(1, 3, [Matrix.zeros(1, 1)] * 3, {}, b_bracket=n3.bracket,
                        b_product=half_bracket_product(n3))
    assert ext.validate() is ext
    assert calls == [n3.bracket]


def test_lift_checkers_read_the_b_product_hypothesis_first():
    # (8)-(14) presuppose an LSA structure on b: the zero lift meets them on
    # both extensions below, yet its product fails eq-1, or eq-3 against the
    # assembled bracket; the checkers fail the hypothesis with its witness
    ext = non_lsa_b_product_extension()
    zero = LiftData(1, 2, [Matrix.zeros(1, 1)] * 2, [Matrix.zeros(1, 1)] * 2)
    assert is_left_symmetric(lift_product(ext, zero)).witness == (1, 2, 1)
    for check in (check_lift_lsa, check_lift_novikov):
        verdict = check(ext, zero)
        assert (verdict.label, verdict.witness) == ("b-product-left-symmetric", (0, 1, 0))
    with pytest.raises(LiftCheckFailed) as err:
        semidirect_lift(ext)
    assert err.value.verdict.label == "b-product-left-symmetric"
    ext = ExtensionData(1, 3, [Matrix.zeros(1, 1)] * 3, {}, b_bracket=fx.n3().bracket)
    zero = LiftData(1, 3, [Matrix.zeros(1, 1)] * 3, [Matrix.zeros(1, 1)] * 3)
    assert is_compatible(lift_product(ext, zero), assemble(ext)).witness == (1, 2)
    for check in (check_lift_lsa, check_lift_novikov):
        verdict = check(ext, zero)
        assert (verdict.label, verdict.witness) == ("b-product-compatibility", (0, 1))


def test_iso_and_jordan_lifts_validate_their_data():
    # the lifts check no output, so invalid data fails their validity
    # hypothesis; iso_lift validates only once phi(e) is invertible
    ext = ExtensionData(1, 3, [Matrix([[1]])] * 3, {(0, 1): (Q(1),)})
    with pytest.raises(InvariantViolation) as err:
        iso_lift(ext, unit(3, 0))
    assert (err.value.equation, err.value.witness) == ("eq-24", (0, 1, 2))
    singular = ExtensionData(1, 3, [Matrix([[0]]), Matrix([[1]]), Matrix([[1]])], {(0, 1): (Q(1),)})
    with pytest.raises(NotInvertible):
        iso_lift(singular, unit(3, 0))
    zero = Matrix.zeros(2, 2)
    ext = ExtensionData(2, 3, [jordan_block(2), zero, zero], {(1, 2): (Q(0), Q(1))})
    with pytest.raises(InvariantViolation) as err:
        jordan_lift(ext, 0)
    assert (err.value.equation, err.value.witness) == ("eq-24", (0, 1, 2))


def test_closed_forms_pass_their_checkers():
    # each closed form returns its lift unchecked once its hypotheses hold;
    # the lift must pass the checker those hypotheses decide
    rng = rng_for("ext-closed-forms")
    exts = differential_extensions()
    exts += [random_three_step_extension(rng, i) for i in range(12)]
    exts += [random_regular_jordan_extension(rng, i) for i in range(24)]
    counts = Counter()
    for ext in exts:
        m = ext.dim_b
        constructions = [("scheuneman", check_lift_lsa, lambda: scheuneman_lift(ext)),
                         ("two-generator", check_lift_novikov, lambda: two_gen_lift(ext))]
        for p in range(m):
            constructions += [
                ("invertible-action", check_lift_novikov, lambda p=p: iso_lift(ext, unit(m, p))),
                ("jordan-block", check_lift_novikov, lambda p=p: jordan_lift(ext, p)),
            ]
        for name, check, construct in constructions:
            try:
                lift = construct()
            except (HypothesisFailed, InvariantViolation, NotInvertible, NotRegularNilpotent,
                    GammaExpansionFailed):
                continue
            assert check(ext, lift), name
            counts[name] += 1
    assert counts["scheuneman"] >= 50 and counts["two-generator"] >= 25
    assert counts["invertible-action"] >= 25 and counts["jordan-block"] >= 50
