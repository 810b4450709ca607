import hashlib
from collections import Counter
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from novikov import fixtures as fx
from novikov import linalg, reduction
from novikov.extensions import (
    ExtensionData,
    HypothesisFailed,
    InvariantViolation,
    LiftCheckFailed,
    LiftData,
    assemble,
    lift_product,
    scheuneman_lift,
    semidirect_lift,
    two_gen_lift,
    two_step_solvable_from,
)
from novikov.laf import emit
from novikov.lie import LieAlgebra
from novikov.linalg import (
    Matrix,
    Subspace,
    jordan_block,
    vscale,
    vunit,
    vzero,
)
from novikov.products import (
    half_bracket_product,
    is_compatible,
    is_complete,
    is_left_symmetric,
    is_novikov,
)
from novikov.reduction import (
    InducedExtension,
    ModuleAction,
    NotNilpotentAlgebra,
    fitting_decompose,
    induced_nilpotent_extension,
    prop57_construct,
    reduction_lift,
)

import dense_scans as dense
from output_digest import (
    CONSTRUCTION_DIGEST,
    PRODUCT_DIGEST,
    construction_bytes,
    corpus_extensions,
    product_digest,
)
from dense_scans import (
    check_lift_lsa,
    check_lift_novikov,
    h0,
    intersect,
    lift_through,
    nullspace_of_rows,
    omega_value,
    row_module,
    subspace_sum,
    vdot,
)
from randalg import (
    random_mixed_extension,
    random_nilpotent_module,
    random_prop57_instance,
    random_two_step_nilpotent,
    rational,
    rng_for,
)
from test_extensions import non_lsa_b_product_extension


def test_h0_examples():
    ab1 = fx.abelian(1)
    invariants = h0(ModuleAction(ab1, 2, [Matrix.zeros(2, 2)]))
    assert invariants.dim == invariants.ambient_dim
    assert h0(ModuleAction(ab1, 2, [jordan_block(2)])) == Subspace(2, [(1, 0)])


def test_h0_column_row_equivalence():
    rng = rng_for("reduction-colrow")
    for index in range(12):
        module = random_nilpotent_module(rng, index)
        col_zero = h0(module).is_zero()
        row_zero = h0(row_module(module)).is_zero()
        assert col_zero == row_zero


def test_fitting_all_nilpotent():
    module = ModuleAction(fx.abelian(1), 3, [jordan_block(3)])
    dec = fitting_decompose(module)
    assert dec.v_n.dim == dec.v_n.ambient_dim and dec.v_0.is_zero()


def test_fitting_diag_split():
    module = ModuleAction(fx.abelian(1), 2, [Matrix([[0, 0], [0, 1]])])
    dec = fitting_decompose(module)
    assert dec.v_n == Subspace(2, [(1, 0)])
    assert dec.v_0 == Subspace(2, [(0, 1)])


def test_fitting_requires_nilpotent_algebra():
    with pytest.raises(NotNilpotentAlgebra):
        fitting_decompose(ModuleAction(fx.r2(), 1, [Matrix.zeros(1, 1), Matrix.zeros(1, 1)]))


def test_fitting_invariants_random():
    rng = rng_for("reduction-fitting")
    for index in range(12):
        module = random_nilpotent_module(rng, index)
        dec = fitting_decompose(module)
        d = module.dim_v
        # V_n meets V_0 in 0 and together they span V
        assert subspace_sum(dec.v_n, dec.v_0).dim == dec.v_n.dim + dec.v_0.dim == d
        for m in module.action:
            assert all(dec.v_n.contains(m.apply(v)) for v in dec.v_n.basis)
            assert all(dec.v_0.contains(m.apply(v)) for v in dec.v_0.basis)
        # V_n is a nilpotent module; restricted invariants on V_0 vanish
        assert dense.word_image_space(module.action, dec.v_n, d).is_zero()
        invariants = h0(module)
        assert subspace_sum(invariants, dec.v_0).dim == invariants.dim + dec.v_0.dim
        # maximality: adjoining any V_0 basis vector breaks nilpotency
        for v in dec.v_0.basis:
            grown = Subspace(d, dec.v_n.basis + (v,))
            assert not dense.word_image_space(module.action, grown, d).is_zero()


def test_fitting_block_triangular_coupling():
    # psi = [[phi1, B_X], [0, phi2]] with B a coboundary: the decomposition
    # reproduces the conjugation by [[I, alpha], [0, I]]
    b = fx.abelian(1)
    phi1 = Matrix([[0, 1], [0, 0]])
    phi2 = Matrix([[2]])
    alpha = Matrix([[1], [3]])
    b_x = phi1 * alpha - alpha * phi2
    psi = Matrix(
        [
            [phi1[0, 0], phi1[0, 1], b_x[0, 0]],
            [phi1[1, 0], phi1[1, 1], b_x[1, 0]],
            [0, 0, phi2[0, 0]],
        ]
    )
    module = ModuleAction(b, 3, [psi])
    dec = fitting_decompose(module)
    assert dec.v_n.dim == 2 and dec.v_0.dim == 1
    # V_0 is the image of the phi2-axis under [[I, -alpha], [0, I]]
    assert dec.v_0.contains((-alpha[0, 0], -alpha[1, 0], Q(1)))


def test_induced_extension_nilpotent_input():
    ext, _ = two_step_solvable_from(fx.ex35())
    ind = induced_nilpotent_extension(ext)
    assert ind.dim_0 == 0 and ind.ext_n.dim_a == ext.dim_a
    assert all(not any(v) for v in ind.lam)


def test_induced_extension_mixed():
    ext = ExtensionData(
        2, 2, [Matrix([[0, 0], [0, 1]]), Matrix.zeros(2, 2)], {(0, 1): (Q(1), Q(1))}
    )
    ind = induced_nilpotent_extension(ext)
    assert ind.ext_n.dim_a == 1
    assert ind.ext_n.omega == {(0, 1): (Q(1),)}
    g_n = assemble(ind.ext_n)
    assert g_n.is_nilpotent()
    # the correction shifts the section so the cocycle lands in a_n:
    # Omega + d(lam) must have no a_0 component
    m = ext.dim_b
    basis_inv = ind.basis_inv
    for p in range(m):
        for q in range(p + 1, m):
            shifted = list(ext.omega_pair(p, q))
            # d(lam)(x,y) = phi(x)lam(y) - phi(y)lam(x) for abelian b
            lp = ind.basis.apply((Q(0),) * ind.dim_n + tuple(ind.lam[p]))
            lq = ind.basis.apply((Q(0),) * ind.dim_n + tuple(ind.lam[q]))
            d_lam = [
                a - b
                for a, b in zip(ext.phi[p].apply(lq), ext.phi[q].apply(lp))
            ]
            total = [a + b for a, b in zip(shifted, d_lam)]
            coords = basis_inv.apply(tuple(total))
            assert all(x == 0 for x in coords[ind.dim_n :])


def test_induced_extension_invertible_action():
    ext = ExtensionData(2, 1, [Matrix([[1, 1], [0, 2]])], {})
    ind = induced_nilpotent_extension(ext)
    assert ind.ext_n.dim_a == 0


def test_reduction_lift_identity_when_a0_zero():
    ext, _ = two_step_solvable_from(fx.ex35())
    lift_n = two_gen_lift(induced_nilpotent_extension(ext).ext_n)
    lift = reduction_lift(ext, lift_n)
    assert check_lift_novikov(ext, lift)


def test_reduction_lift_mixed_corpus():
    rng = rng_for("reduction-mixed")
    for _ in range(10):
        ext = random_mixed_extension(rng)
        ind = induced_nilpotent_extension(ext)
        lift_n = two_gen_lift(ind.ext_n)
        lift = reduction_lift(ext, lift_n)
        assert check_lift_lsa(ext, lift)
        assert check_lift_novikov(ext, lift)
        p = lift_product(ext, lift)
        g = assemble(ext)
        assert is_novikov(p) and is_compatible(p, g)


def test_reduction_lift_rejects_failing_input():
    ext, _ = two_step_solvable_from(fx.ex35())
    ind = induced_nilpotent_extension(ext)
    zero = Matrix.zeros(3, 3)
    bad = LiftData(3, 2, [zero] * 2, [zero] * 2)
    with pytest.raises(LiftCheckFailed):
        reduction_lift(ext, bad)


def test_lift_checkers_reject_mismatched_dimensions():
    # the Scheuneman lift of ex35 padded with a zero third b element, and
    # zero lifts of the wrong shape: each fails dimension-mismatch before any
    # equation is read, in both checkers and in reduction_lift
    ext, _ = two_step_solvable_from(fx.ex35())
    good = scheuneman_lift(ext)
    zero = Matrix.zeros(3, 3)
    lifts = [LiftData(3, 3, good.x_op + (zero,), good.y_op + (zero,), good.x_values)]
    for dim_a, dim_b in ((2, 2), (4, 2), (3, 1), (3, 3)):
        z = Matrix.zeros(dim_a, dim_a)
        lifts.append(LiftData(dim_a, dim_b, [z] * dim_b, [z] * dim_b))
    for lift in lifts:
        for check in (check_lift_lsa, check_lift_novikov):
            verdict = check(ext, lift)
            assert not verdict and (verdict.label, verdict.witness) == ("dimension-mismatch", None)
        with pytest.raises(LiftCheckFailed) as err:
            reduction_lift(ext, lift)
        assert err.value.verdict.label == "dimension-mismatch"


def _perturbed_lifts(rng, lift):
    """The lift, the zero lift, the lift doubled, and copies with one random
    matrix added to X_p and Y_p alike (Y_p - X_p kept), to X_p alone, or to
    one omega value. The zero and doubled lifts of a left-symmetric product
    with a zero b-product are left-symmetric, and compatible only if the
    extension bracket is zero."""
    n, m = lift.dim_a, lift.dim_b
    zero = Matrix.zeros(n, n)
    lifts = [lift, LiftData(n, m, [zero] * m, [zero] * m),
             LiftData(n, m, [x.scale(2) for x in lift.x_op], [y.scale(2) for y in lift.y_op],
                      {pq: vscale(2, v) for pq, v in lift.x_values.items()})]
    for p in range(m):
        d = Matrix([[rational(rng) for _ in range(n)] for _ in range(n)], cols=n)
        x_op, y_op = list(lift.x_op), list(lift.y_op)
        x_op[p] = x_op[p] + d
        lifts.append(LiftData(n, m, x_op, lift.y_op, lift.x_values))
        y_op[p] = y_op[p] + d
        lifts.append(LiftData(n, m, x_op, y_op, lift.x_values))
        values = dict(lift.x_values)
        q = rng.randrange(m)
        values[(p, q)] = tuple(x + rational(rng) for x in omega_value(lift, p, q))
        lifts.append(LiftData(n, m, lift.x_op, lift.y_op, values))
    return lifts


def test_reduction_lift_decides_as_the_lsa_lift_conditions():
    # the product checks on the lifted product against (8)-(14) on the
    # induced extension, over valid lifts and perturbed ones
    rng = rng_for("reduction-lift-decision")
    cases = []
    for _ in range(6):
        ext = random_mixed_extension(rng)
        cases.append((ext, two_gen_lift(induced_nilpotent_extension(ext).ext_n)))
    for _ in range(3):
        ext = heisenberg_pullback_extension(rng)
        cases.append((ext, semidirect_lift(induced_nilpotent_extension(ext).ext_n)))
    for name in ("ex35", "n3", "filiform:4", "free-n3-c3"):
        ext, _ = two_step_solvable_from(fx.fixture(name))
        cases.append((ext, scheuneman_lift(induced_nilpotent_extension(ext).ext_n)))
    labels = Counter()
    for ext, good in cases:
        ext_n = induced_nilpotent_extension(ext).ext_n
        for lift in _perturbed_lifts(rng, good):
            try:
                reduction_lift(ext, lift)
                label = None
            except LiftCheckFailed as err:
                label = err.verdict.label
            assert (label is None) == bool(check_lift_lsa(ext_n, lift))
            labels[label] += 1
    assert labels[None] >= len(cases) and labels["eq-1"] >= 10 and labels["eq-3"] >= 10


def test_reduction_lift_failures_carry_the_product_check_witness():
    # on ex35, a = [g, g] has no a_0 part; the Scheuneman lift with E_00
    # added to X_0 and Y_0 keeps Y - X = A but is no longer left-symmetric,
    # and the zero lift is left-symmetric but [e_0, f_0] = -A_0 e_0 = -e_1
    ext, _ = two_step_solvable_from(fx.ex35())
    ext_n = induced_nilpotent_extension(ext).ext_n
    good = scheuneman_lift(ext_n)
    d = Matrix.unit(3, 0, 0)
    shifted = LiftData(3, 2, [good.x_op[0] + d, good.x_op[1]],
                       [good.y_op[0] + d, good.y_op[1]], good.x_values)
    zero = Matrix.zeros(3, 3)
    cases = ((shifted, "eq-1", (0, 3, 3), "eq-10"),
             (LiftData(3, 2, [zero] * 2, [zero] * 2), "eq-3", (0, 3), "eq-8"))
    for lift, label, witness, reference in cases:
        with pytest.raises(LiftCheckFailed) as err:
            reduction_lift(ext, lift)
        assert (err.value.verdict.label, err.value.verdict.witness) == (label, witness)
        assert check_lift_lsa(ext_n, lift).label == reference


def test_reduction_lift_checks_the_b_product_hypothesis():
    # the zero lift meets (8)-(14) on the induced extension, but its b-product
    # is no LSA structure on b: not left-symmetric, then not compatible
    cases = (
        (non_lsa_b_product_extension(), "b-product-left-symmetric"),
        (ExtensionData(1, 3, [Matrix.zeros(1, 1)] * 3, {}, b_bracket=fx.n3().bracket),
         "b-product-compatibility"),
    )
    for ext, label in cases:
        zero = Matrix.zeros(1, 1)
        with pytest.raises(LiftCheckFailed) as err:
            reduction_lift(ext, LiftData(1, ext.dim_b, [zero] * ext.dim_b, [zero] * ext.dim_b))
        assert err.value.verdict.label == label


def heisenberg_pullback_extension(rng):
    """b = n3 with its half-bracket product, acting on a as randalg's
    Heisenberg module, with the coboundary of a random mu: b -> V_0 as the
    cocycle. The induced extension is split and the section correction is
    not zero."""
    module = random_nilpotent_module(rng, 2)
    b, phi = module.b, module.action
    v_0 = fitting_decompose(module).v_0.basis
    mu = []
    for _ in range(b.dim):
        coeffs = [rational(rng) for _ in v_0]
        mu.append(tuple(sum(c * v[i] for c, v in zip(coeffs, v_0)) for i in range(module.dim_v)))
    omega = {}
    for p in range(b.dim):
        for q in range(p + 1, b.dim):
            bracket = b.bracket.basis_product(p, q)
            mu_pq = [sum(c * w[i] for c, w in zip(bracket, mu)) for i in range(module.dim_v)]
            coboundary = zip(phi[p].apply(mu[q]), phi[q].apply(mu[p]), mu_pq)
            omega[(p, q)] = tuple(x - y - z for x, y, z in coboundary)
    return ExtensionData(module.dim_v, b.dim, phi, omega, b_bracket=b.bracket,
                         b_product=half_bracket_product(b))


def test_pull_backs_pass_check_lift_lsa():
    # reduction_lift checks only the incoming lift and prop57_construct no
    # lift at all; each pulled-back lift must pass check_lift_lsa on ext and
    # equal lift_through's, the pull-back worked out block by block. Only the
    # Heisenberg extensions, with a nonzero b-product and lam != 0, reach
    # its lam(p q) term
    rng = rng_for("reduction-pullbacks")
    cases = []
    for _ in range(10):
        ext = random_mixed_extension(rng)
        cases.append((ext, two_gen_lift(induced_nilpotent_extension(ext).ext_n)))
    algebras = [random_prop57_instance(rng) for _ in range(10)]
    algebras += [random_two_step_nilpotent(rng, max_dim=6) for _ in range(10)]
    algebras += [fx.fixture(name) for name in ("n3", "r2", "r3", "ex35", "free-n3-c3",
                                                  "filiform:4", "In:3", "r3-lambda:-1/2")]
    for g in algebras:
        ext, _ = two_step_solvable_from(g)
        cases.append((ext, scheuneman_lift(induced_nilpotent_extension(ext).ext_n)))
    corrected = 0
    for _ in range(10):
        ext = heisenberg_pullback_extension(rng)
        ind = induced_nilpotent_extension(ext)
        assert not ind.ext_n.omega
        corrected += any(any(v) for v in ind.lam)
        cases.append((ext, semidirect_lift(ind.ext_n)))
    for ext, lift_n in cases:
        lift = reduction_lift(ext, lift_n)
        reference = lift_through(ext, induced_nilpotent_extension(ext), lift_n)
        assert (lift.x_op, lift.y_op, lift.x_values) == (
            reference.x_op, reference.y_op, reference.x_values)
        assert check_lift_lsa(ext, lift)
        if not ext.b_is_abelian():
            p = lift_product(ext, lift)
            assert is_left_symmetric(p) and is_compatible(p, assemble(ext))
    assert len(cases) == 48 and corrected >= 8


def test_prop57_three_step_fixture():
    p = prop57_construct(fx.ex35())
    assert is_left_symmetric(p) and is_compatible(p, fx.ex35())
    assert is_complete(p).passes_nilpotency_checks


def test_prop57_non_nilpotent_instance():
    ext = ExtensionData(2, 1, [Matrix([[1, 0], [0, 0]])], {})
    g = assemble(ext)
    assert not g.is_nilpotent()
    p = prop57_construct(g)
    assert is_left_symmetric(p) and is_compatible(p, g)
    assert is_complete(p).passes_nilpotency_checks


def test_prop57_random():
    rng = rng_for("prop57")
    for _ in range(3):
        g = random_prop57_instance(rng)
        p = prop57_construct(g)
        assert is_left_symmetric(p) and is_compatible(p, g)
        assert is_complete(p).passes_nilpotency_checks


def reference_prop57(g):
    """prop57_construct's pipeline through the public reduction_lift, which
    computes the induced nilpotent extension a second time."""
    ext, split = two_step_solvable_from(g)
    lift = reduction_lift(ext, scheuneman_lift(induced_nilpotent_extension(ext).ext_n))
    return split.transport_product(lift_product(ext, lift))


def test_prop57_builds_the_induced_extension_once(monkeypatch):
    calls = []

    def counted(ext):
        calls.append(ext)
        return induced_nilpotent_extension(ext)

    rng = rng_for("prop57-once")
    for g in [fx.ex35()] + [random_prop57_instance(rng) for _ in range(4)]:
        expected = reference_prop57(g)
        monkeypatch.setattr(reduction, "induced_nilpotent_extension", counted)
        calls.clear()
        p = prop57_construct(g)
        monkeypatch.undo()
        assert len(calls) == 1
        assert p == expected


def test_prop57_builds_each_series_once(monkeypatch):
    # the derived series of g is built once, by two_step_solvable_from, and
    # no nilpotency class is read twice: the Scheuneman lift's hypotheses
    # read none, and fitting_decompose reads b's once; calls are counted per
    # bracket, since two objects can share one bracket
    rng = rng_for("prop57-series")
    algebras = [fx.ex35()] + [random_prop57_instance(rng) for _ in range(2)]
    counts = Counter()
    for name in ("derived_series", "nilpotency_class"):
        def counted(self, _name=name, _method=getattr(LieAlgebra, name)):
            counts[_name, self.bracket] += 1
            return _method(self)

        monkeypatch.setattr(LieAlgebra, name, counted)
    for g in algebras:
        counts.clear()
        prop57_construct(g)
        assert counts[("derived_series", g.bracket)] == 1
        assert sum(name == "nilpotency_class" for name, _ in counts) >= 1
        assert max(counts.values()) == 1


def test_prop57_rejects_free_n2_c4():
    with pytest.raises(HypothesisFailed):
        prop57_construct(fx.free_n2_c4())


def test_prop57_rejects_sl2():
    # the derived series is read once, by two_step_solvable_from, and its
    # NotTwoStepSolvable becomes prop57_construct's HypothesisFailed
    with pytest.raises(HypothesisFailed, match="requires a 2-step solvable algebra"):
        prop57_construct(fx.sl2())


def reference_preimage(space, m):
    """{v : m v in space}: the kernel of D m, D having the annihilator of
    the space as rows."""
    ann = dense.annihilator(space)
    rows = [tuple(vdot(d, col) for col in zip(*m.data)) for d in ann.basis]
    return nullspace_of_rows(rows, m.cols)


def reference_fitting_kernel(module):
    """V_n by d rounds of kernel <- the intersection over the actions m of
    {v : m v in kernel}, starting from zero."""
    d = module.dim_v
    kernel = Subspace(d)
    for _ in range(d):
        nxt = Subspace.full(d)
        for m in module.action:
            nxt = intersect(nxt, reference_preimage(kernel, m))
        kernel = nxt
    return kernel


def reference_induced_without_a0(ext, dec):
    """The induced extension when a_0 = 0: ext itself, on the identity basis."""
    m = ext.dim_b
    basis = Matrix.identity(ext.dim_a) if ext.dim_a else Matrix.zeros(0, 0)
    ext_n = ExtensionData(
        ext.dim_a, m, ext.phi, dict(ext.omega),
        b_bracket=ext.b_bracket, b_product=ext.b_product,
    )
    return InducedExtension(ext_n, [vzero(0)] * m, [Matrix.zeros(0, 0)] * m, dec, basis, basis)


def _module_corpus():
    rng = rng_for("reduction-fitting-reference")
    modules = [random_nilpotent_module(rng, index) for index in range(12)]
    modules += [ModuleAction(ext.b_algebra(), ext.dim_a, ext.phi) for ext in corpus_extensions()]
    assert {mod.dim_v for mod in modules} >= {0, 3} and {mod.b.dim for mod in modules} >= {0, 2}
    return modules


def test_fitting_matches_kernel_chain_reference():
    # V_n, the common kernel of the powers, equals the kernel of the words of
    # length d found round by round
    for module in _module_corpus():
        assert fitting_decompose(module).v_n == reference_fitting_kernel(module)


def test_word_image_space_matches_dense_reference_on_modules():
    # V_0, the sum of the images of the powers, equals the dense span of the
    # images of every word of length d, and of length d + 1: the word images
    # are stable from d on
    for module in _module_corpus():
        d = module.dim_v
        v_0 = fitting_decompose(module).v_0
        for length in (d, d + 1):
            assert v_0 == dense.word_image_space(module.action, Subspace.full(d), length)


def test_fitting_edge_cases():
    # dim V = 0: both parts are the zero space
    dec = fitting_decompose(ModuleAction(fx.abelian(2), 0, [Matrix.zeros(0, 0)] * 2))
    assert dec.v_n == dec.v_0 == Subspace(0)
    # dim b = 0: no power, so V_n is all of V
    dec = fitting_decompose(ModuleAction(fx.abelian(0), 3, []))
    assert dec.v_n == Subspace.full(3) and dec.v_0.is_zero()
    # an invertible action: its power kills nothing and V_0 is all of V
    dec = fitting_decompose(ModuleAction(fx.abelian(1), 2, [Matrix([[1, 1], [0, 2]])]))
    assert dec.v_n.is_zero() and dec.v_0 == Subspace.full(2)


def test_fitting_splits_the_reduction_item_shape(monkeypatch):
    # the shape of the reduction items' modules: b abelian of dimension 2 on
    # Q^5, a nilpotent block of rank 1 and an invertible diagonal block; d = 5
    # takes three squarings per action, A^8 having the kernel and image of A^5
    x = Matrix([[0, 1, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0],
                [0, 0, 0, 2, 0], [0, 0, 0, 0, -1]], cols=5)
    y = Matrix([[0, 0, 0, 0, 0]] * 3 + [[0, 0, 0, 1, 0], [0, 0, 0, 0, 3]], cols=5)
    module = ModuleAction(fx.abelian(2), 5, [x, y])
    products = []
    original = Matrix.__mul__
    monkeypatch.setattr(Matrix, "__mul__", lambda a, b: products.append(b) or original(a, b))
    dec = fitting_decompose(module)
    assert len(products) == 6
    assert dec.v_n == Subspace(5, [vunit(5, 0), vunit(5, 1), vunit(5, 2)])
    assert dec.v_0 == Subspace(5, [vunit(5, 3), vunit(5, 4)])
    assert dec.v_0 == dense.word_image_space([x, y], Subspace.full(5), 5)


def test_fitting_eliminates_the_powers_twice(monkeypatch):
    # after the nilpotency check the powers are eliminated twice: their
    # stacked rows by solve_sparse, whose pivot rows with the columns
    # reversed give V_n's echelon basis as they are, and their columns by
    # Subspace._from_rows, which builds V_0's with linalg's solve_sparse.
    # V_n is the canonical span of its own basis, pivot rows included
    modules = _module_corpus()
    events = []

    def spy(function, tag):
        return lambda *args: events.append(tag) or function(*args)

    monkeypatch.setattr(reduction, "solve_sparse", spy(reduction.solve_sparse, "rows"))
    monkeypatch.setattr(linalg, "solve_sparse", spy(linalg.solve_sparse, "solve"))
    monkeypatch.setattr(Subspace, "_from_rows",
                        classmethod(spy(Subspace._from_rows.__func__, "columns")))
    is_nilpotent = LieAlgebra.is_nilpotent

    def checked(self):
        verdict = is_nilpotent(self)
        events.clear()
        return verdict

    monkeypatch.setattr(LieAlgebra, "is_nilpotent", checked)
    for module in modules:
        v_n = fitting_decompose(module).v_n
        assert Counter(events) == {"rows": 1, "columns": 1, "solve": 1}, module
        span = Subspace(v_n.ambient_dim, v_n.basis)
        assert (span, span._pivot_rows) == (v_n, v_n._pivot_rows), module


@st.composite
def single_operators(draw):
    """An operator on Q^n, n up to 5, zero about half the time entry by
    entry: a representation of the one-dimensional algebra."""
    n = draw(st.integers(0, 5))
    entry = st.one_of(st.just(Q(0)), st.builds(Q, st.integers(-2, 2), st.sampled_from((1, 2))))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    return Matrix(rows, cols=n)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(single_operators())
def test_fitting_matches_the_word_images_of_one_operator(op):
    # for one operator A on Q^n, V_n is the kernel of A^n and V_0 its image
    n = op.rows
    module = ModuleAction(fx.abelian(1), n, [op])
    dec = fitting_decompose(module)
    assert dec.v_0 == dense.word_image_space([op], Subspace.full(n), n)
    assert dec.v_n == reference_fitting_kernel(module)


def test_module_action_rejects_a_failing_representation_identity():
    # the shapes are right, so the identity fails as validate fails it: eq-23
    # on an abelian b, eq-5 otherwise, with the basis pair as witness
    x = Matrix([[0, 1], [0, 0]])
    y = Matrix([[1, 0], [0, 0]])
    zero = Matrix.zeros(2, 2)
    cases = ((fx.abelian(3), [zero, x, y], "eq-23", (1, 2)),
             (fx.n3(), [x, zero, x], "eq-5", (0, 1)))
    for b, action, label, witness in cases:
        with pytest.raises(InvariantViolation) as err:
            ModuleAction(b, 2, action)
        assert (err.value.equation, err.value.witness) == (label, witness)
        ext = ExtensionData(2, 3, action, {}, b_bracket=b.bracket)
        with pytest.raises(InvariantViolation) as err:
            ext.validate()
        assert (err.value.equation, err.value.witness) == (label, witness)


def test_induced_extension_without_a0_matches_reference():
    # with a_0 = 0 the general path gives the same values as returning the
    # extension itself on the identity basis
    without_a0 = 0
    for ext in corpus_extensions():
        ind = induced_nilpotent_extension(ext)
        if ind.dim_0:
            continue
        without_a0 += 1
        dec = fitting_decompose(ModuleAction(ext.b_algebra(), ext.dim_a, ext.phi))
        ref = reference_induced_without_a0(ext, dec)
        assert emit(ind.ext_n) == emit(ref.ext_n)
        assert ind.ext_n.phi == ref.ext_n.phi and ind.ext_n.omega == ref.ext_n.omega
        assert ind.lam == ref.lam and ind.phi_0 == ref.phi_0
        assert (ind.basis, ind.basis_inv) == (ref.basis, ref.basis_inv)
        assert (ind.dim_n, ind.dim_0) == (ref.dim_n, ref.dim_0)
    assert without_a0 >= 10


def test_construction_bytes_match_the_recorded_digest():
    assert hashlib.sha256(construction_bytes()).hexdigest() == CONSTRUCTION_DIGEST


def test_every_product_constructor_keeps_its_laf_bytes():
    assert product_digest() == PRODUCT_DIGEST
