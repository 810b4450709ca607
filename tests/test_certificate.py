import hashlib
import os
import random
from collections import Counter
from fractions import Fraction as Q

import pytest

from novikov import certificate
from novikov import fixtures as fx
from novikov.certificate import (
    Certificate,
    EXISTS,
    NOT_EXISTS,
    UNDETERMINED,
    WitnessCheckFailed,
    algebra_hash,
    build_system,
    decide_novikov,
    residual_polynomials,
    verify_certificate,
)
from novikov import extensions
from novikov.extensions import (
    GammaExpansionFailed,
    HypothesisFailed,
    LiftCheckFailed,
    NotInvertible,
    NotTwoStepSolvable,
    assemble,
    iso_lift,
    jordan_lift,
    lift_product,
    scheuneman_lift,
    two_gen_lift,
    two_step_solvable_from,
)
from novikov.laf import emit, parse_file
from novikov.lie import LieAlgebra, StructureTensor
from novikov.linalg import (
    NotRegularNilpotent,
    _add_scaled,
    _add_term,
    solve_sparse,
    vunit,
)
from novikov.products import half_bracket_product, is_compatible, is_novikov

from dense_scans import (
    affine_forms,
    check_lift_novikov,
    int_affine_form,
    left_matrix_of,
    point_solution,
    substitute,
    var_index,
)
from output_digest import CENSUS, FIXTURES
from randalg import (
    gelfand_dorfman,
    random_mixed_extension,
    random_prop57_instance,
    random_regular_jordan_extension,
    random_three_step_extension,
    random_two_step_nilpotent,
    rebased,
    rng_for,
)
from test_linalg import assert_solve_matches_echelon, fraction_row_step

DATA = os.path.join(os.path.dirname(__file__), "data")


def test_build_system_abelian():
    g = fx.abelian(3)
    system = build_system(g)
    # all brackets vanish: the operator relation contributes nothing, and the
    # compatibility rows only say the product is symmetric
    n = 3
    assert len(system.linear_rows) == n * (n * (n - 1) // 2)
    for row, rhs in zip(system.linear_rows, system.linear_rhs):
        assert rhs == 0 and len(row) == 2
    # the quadratic block reduces to commuting left multiplications
    for poly in system.quadratics:
        assert all(len(m) == 2 for m in poly)


def test_build_system_n3_solvable_by_half_bracket():
    g = fx.n3()
    system = build_system(g)
    p = fx.product_fixture("half-bracket:n3")
    values = [Q(0)] * system.nvars
    for (i, c, r), v in p.entries.items():
        values[var_index(system.n, i, r, c)] = v
    for row, rhs in zip(system.linear_rows, system.linear_rhs):
        assert sum((c * values[v] for v, c in row.items()), Q(0)) == rhs
    for poly in system.quadratics:
        total = Q(0)
        for m, c in poly.items():
            if m == ():
                total += c
            elif len(m) == 1:
                total += c * values[m[0]]
            else:
                total += c * values[m[0]] * values[m[1]]
        assert total == 0


def test_build_system_free_n2_c4_counts():
    # frozen from the first correct build; guards the equation generator
    system = build_system(fx.free_n2_c4())
    assert len(system.linear_rows) == 1326
    assert len(system.quadratics) == 3584
    sol, residuals = residual_polynomials(system)
    assert sol.consistent
    assert system.nvars - sol.rank == 18
    assert len(residuals) == 40


def dense_build_system(g):
    """Reference builder: every equation instantiated from the dense ad
    matrices, one term per k, zeros included."""
    n = g.dim
    ads = [g.bracket.left_matrix(i) for i in range(n)]

    def var(i, r, c):
        return (i * n + r) * n + c

    def pair(a, b):
        return (a, b) if a <= b else (b, a)

    def shifted(poly, va, ca, vb, cb, sign):
        # sign * (x_va - ca) * (x_vb - cb)
        _add_term(poly, pair(va, vb), sign)
        _add_term(poly, (va,), -sign * cb)
        _add_term(poly, (vb,), -sign * ca)
        _add_term(poly, (), sign * ca * cb)

    rows, rhs, quadratics = [], [], []
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for i, j in pairs:
        w = g.bracket.basis_product(i, j)
        for k in range(n):
            rows.append({var(i, k, j): Q(1), var(j, k, i): Q(-1)})
            rhs.append(Q(w[k]))
    for i, j in pairs:
        w = g.bracket.basis_product(i, j)
        adw, adi, adj = left_matrix_of(g.bracket, w), ads[i], ads[j]
        for r in range(n):
            for s in range(n):
                row = {}
                for k in range(n):
                    _add_term(row, var(k, r, s), Q(w[k]))
                    _add_term(row, var(j, k, s), -adi[r, k])
                    _add_term(row, var(j, r, k), adi[k, s])
                    _add_term(row, var(i, r, k), -adj[k, s])
                    _add_term(row, var(i, k, s), adj[r, k])
                if row or adw[r, s]:
                    rows.append(row)
                    rhs.append(-adw[r, s])
                rep, rr = {}, {}
                for k in range(n):
                    _add_term(rep, pair(var(i, r, k), var(j, k, s)), Q(1))
                    _add_term(rep, pair(var(j, r, k), var(i, k, s)), Q(-1))
                    _add_term(rep, (var(k, r, s),), -Q(w[k]))
                    shifted(rr, var(i, r, k), adi[r, k], var(j, k, s), adj[k, s], Q(1))
                    shifted(rr, var(j, r, k), adj[r, k], var(i, k, s), adi[k, s], Q(-1))
                quadratics.extend(p for p in (rep, rr) if p)
    return rows, rhs, quadratics


def _system_digest(system):
    h = hashlib.sha256()
    for row, rhs in zip(system.linear_rows, system.linear_rhs):
        terms = " ".join("%d:%s" % t for t in sorted(row.items()))
        h.update(("L %s = %s\n" % (terms, rhs)).encode())
    for poly in system.quadratics:
        terms = " ".join("%s:%s" % (",".join(map(str, m)), c) for m, c in sorted(poly.items()))
        h.update(("Q %s\n" % terms).encode())
    return h.hexdigest()


def _differential_corpus(tag="build-system"):
    """The fixtures of dimension <= 8 with representatives of the parametric
    families, then ten random algebras drawn under tag."""
    names = ["n3", "r2", "r3", "sl2", "ex35", "free-n2-c4", "abelian:3",
             "r3-lambda:-1", "r3-lambda:-1/2", "r3-lambda:2"]
    names += ["filiform:3", "filiform:5", "filiform:8", "In:2", "In:4", "In:8"]
    for name in names:
        yield name, fx.fixture(name)
    for index in range(4):
        yield "two-step-%d" % index, random_two_step_nilpotent(rng_for(tag, index))
    for index in range(3):
        rng = rng_for(tag + "-jordan", index)
        yield "jordan-%d" % index, assemble(random_regular_jordan_extension(rng, index))
    for index in range(3):
        rng = rng_for(tag + "-mixed", index)
        yield "mixed-%d" % index, assemble(random_mixed_extension(rng))


def test_build_system_matches_dense_reference():
    # the sparse builder must produce exactly the dense reference's rows,
    # right-hand sides and quadratics, in the same order, all as Fractions:
    # an int coefficient would compare equal, but cli._jsonable formats only
    # Fractions, so it would reach a JSON report as a number, not a string
    for name, g in _differential_corpus():
        assert g.dim <= 8, name
        system = build_system(g)
        rows, rhs, quadratics = dense_build_system(g)
        assert list(system.linear_rows) == rows, name
        assert list(system.linear_rhs) == rhs, name
        assert list(system.quadratics) == quadratics, name
        coefficients = list(system.linear_rhs)
        coefficients += [c for row in system.linear_rows for c in row.values()]
        coefficients += [c for poly in system.quadratics for c in poly.values()]
        assert all(type(c) is Q for c in coefficients), name


def test_build_system_free_n3_c3_digest():
    # recorded from the dense builder; guards every row, right-hand side and
    # quadratic of the largest system, in order
    system = build_system(fx.free_n3_c3())
    assert (len(system.linear_rows), len(system.quadratics)) == (8670, 35672)
    assert _system_digest(system) == (
        "0caa704fb832688328dcdf040779f2eafa9c7a7263c1594dc9f10222ab50197a"
    )


def test_quadratic_term_order_free_n2_c4_digest():
    # recorded from the builder that listed every quadratic; the order of
    # the terms fixes the order of the residual terms, and the dense
    # reference builds them in another order
    h = hashlib.sha256()
    for poly in build_system(fx.free_n2_c4()).quadratics:
        terms = " ".join("%s:%s" % (",".join(map(str, m)), c) for m, c in poly.items())
        h.update((terms + "\n").encode())
    assert h.hexdigest() == (
        "9d9f05ab15aef03550b15e75e9a1b97d400487cb0c58ffb2cd407fab3774741d"
    )


def _row_order_digest(system):
    """_system_digest over the linear block alone, with each row's terms in
    insertion order rather than sorted."""
    h = hashlib.sha256()
    for row, rhs in zip(system.linear_rows, system.linear_rhs):
        terms = " ".join("%d:%s" % t for t in row.items())
        h.update(("L %s = %s\n" % (terms, rhs)).encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "name, digest",
    [
        ("free-n2-c4", "fd9a553fc644b9abd4771a4232bf840f194608ee49cdea48413cbc2274f67498"),
        ("free-n3-c3", "fc7e1888036cf5d13119692bd5bf70983ae40677ed0171a649297faffa747df1"),
    ],
)
def test_linear_row_key_order_digest(name, digest):
    # recorded when build_system still summed each operator row through
    # QuadraticBlock.ad_terms; the order of a row's keys fixes the dict order
    # of the echelon form, and through it the order of the residual terms
    assert _row_order_digest(build_system(fx.fixture(name))) == digest


def test_build_system_makes_no_ad_terms_calls(monkeypatch):
    # the operator rows are scattered from the bracket indexes; ad_terms is
    # left to the rr quadratics, one call per entry built
    calls = []
    ad_terms = certificate.QuadraticBlock.ad_terms

    def counted(self, *args):
        calls.append(args)
        return ad_terms(self, *args)

    monkeypatch.setattr(certificate.QuadraticBlock, "ad_terms", counted)
    block = build_system(fx.free_n3_c3()).quadratics
    assert calls == []
    block[0]  # a rep entry
    assert calls == []
    block[1]  # the rr entry of the same (i, j, r, s)
    assert calls == [(0, 1, 0, 0)]


def reference_residuals(system, sol):
    """Reference substitution of the solution sol of system's linear block:
    every quadratic expanded over Fractions, none skipped."""
    forms = affine_forms(sol)
    residuals = {}
    for qi, poly in enumerate(system.quadratics):
        sub = substitute(poly, forms)
        if sub:
            residuals[qi] = sub
    return residuals


def _residual_digest(residuals):
    h = hashlib.sha256()
    for qi in sorted(residuals):
        terms = " ".join(
            "%s:%s" % (",".join(map(str, m)), c) for m, c in sorted(residuals[qi].items())
        )
        h.update(("R %d %s\n" % (qi, terms)).encode())
    return h.hexdigest()


def test_residuals_match_unfiltered_substitution():
    # skipping the quadratics with no live monomial must not change a residual,
    # its terms or their order; the random algebras are drawn apart from the
    # builder's, one of which takes 20 s per substitution pass
    inconsistent = 0
    for name, g in _differential_corpus("residuals"):
        assert g.dim <= 8, name
        system = build_system(g)
        sol, residuals = residual_polynomials(system)
        if not sol.consistent:
            inconsistent += 1
            assert residuals is None, name
            continue
        expected = reference_residuals(system, sol)
        assert list(residuals) == list(expected), name
        for qi, residual in residuals.items():
            if qi % 2 == 0:
                assert list(residual.items()) == list(expected[qi].items()), (name, qi)
            else:
                # an rr residual is its rep residual, with the rep's term order
                assert residual == expected[qi], (name, qi)
    assert inconsistent >= 1


def _live_form_corpus():
    """The fixtures, census instances 0-2 of each random corpus, whose forms
    have Fraction coefficients, and the graded and rebased Gelfand-Dorfman
    algebras."""
    for name in FIXTURES:
        yield name, fx.fixture(name)
    for i in range(3):
        yield "x3-%d" % i, assemble(random_three_step_extension(rng_for("x3", i), i))
        yield "xj-%d" % i, assemble(random_regular_jordan_extension(rng_for("xj", i), i))
        yield "xm-%d" % i, assemble(random_mixed_extension(rng_for("xm", i)))
        yield "xp-%d" % i, random_prop57_instance(rng_for("xp", i))
    for n in range(4, 11):
        for k in (1, 2, 3):
            yield "gd(%d, %d)" % (n, k), gelfand_dorfman(n, k)[0]
    for n in (4, 5):
        for k in (1, 2, 3):
            yield "rebased gd(%d, %d)" % (n, k), rebased(
                *gelfand_dorfman(n, k), rng_for("gelfand-dorfman", 3 * n + k))[0]


def test_live_forms_match_the_affine_form_reference():
    # the live set and the int forms read from the pivot rows are the
    # reference's: every variable's Fraction form, scaled to ints, with the
    # forms that are 0 dropped; and the residuals built on the reference's
    # forms are the same dicts, in the same order, with the same types
    fractional = 0
    for name, g in _live_form_corpus():
        system = build_system(g)
        sol, residuals = residual_polynomials(system)
        if not sol.consistent:
            continue
        live, forms = sol._live_forms()
        ref = affine_forms(sol)
        assert live == {v for v, (c, t) in enumerate(ref) if c or t}, name
        ref_forms = []
        for v, (c, t) in enumerate(ref):
            if v in live:
                want = int_affine_form(c, t)
                d, c0, terms = forms[v]
                got = (d, c0, list(terms.items()))
                assert got == (want[0], want[1], list(want[2].items())), (name, v)
                assert all(type(x) is int for x in (d, c0, *terms.values())), (name, v)
                fractional += d > 1
            else:
                assert (c, t) == (0, {}) and forms[v] == (1, 0, {}), (name, v)
                want = (1, 0, t)
            ref_forms.append(want)
        reps = {}
        for qi in system.quadratics.candidates(live):
            poly = system.quadratics[qi]
            if any(map(live.issuperset, poly)):
                sub = certificate._substitute(poly, ref_forms)
                if sub:
                    reps[qi] = sub
        expected = {qi + kind: sub for qi, sub in reps.items() for kind in (0, 1)}
        assert list(residuals) == list(expected), name
        for qi, residual in residuals.items():
            assert list(residual.items()) == list(expected[qi].items()), (name, qi)
            assert all(type(c) is Q for c in residual.values()), (name, qi)
    assert fractional > 0


def test_live_monomials_substitute_to_the_whole_rep_entry():
    # cutting a rep entry to its live monomials before the substitution
    # leaves its residual as it was: the same dict, terms, order and types
    # as the substitution of the whole entry, and an entry that substitutes
    # to 0 in full stores no residual
    dead = 0
    for name, g in _live_form_corpus():
        system = build_system(g)
        sol, residuals = residual_polynomials(system)
        if not sol.consistent:
            continue
        live, forms = sol._live_forms()
        stored = 0
        for qi in system.quadratics.candidates(live):
            poly = system.quadratics[qi]
            dead += not all(map(live.issuperset, poly))
            whole = certificate._substitute(poly, forms)
            if not whole:
                assert qi not in residuals, (name, qi)
                continue
            stored += 2
            for key in (qi, qi + 1):
                assert list(residuals[key].items()) == list(whole.items()), (name, key)
                assert all(type(c) is Q for c in residuals[key].values()), (name, key)
        assert stored == len(residuals), name
    assert dead > 0


def test_residuals_substitute_only_live_monomials(monkeypatch):
    # no monomial handed to _substitute holds a variable whose form is 0
    substitute = certificate._substitute
    handed = []

    def spy(poly, forms):
        handed.append(list(poly))
        return substitute(poly, forms)

    monkeypatch.setattr(certificate, "_substitute", spy)
    calls = 0
    for name, g in _live_form_corpus():
        sol, _ = residual_polynomials(build_system(g))
        if not sol.consistent:
            continue
        live, _ = sol._live_forms()
        for monos in handed:
            assert monos and all(map(live.issuperset, monos)), name
        calls += len(handed)
        handed.clear()
    assert calls > 0


def test_solve_sparse_matches_the_echelon_of_every_linear_block():
    # the forced-zero pass leaves the pivot rows, values and witness of the
    # elimination of the given rows as they were, on the fixtures (sl2 is
    # inconsistent), the census instances 0-2 and the Gelfand-Dorfman
    # algebras; it finds zero columns on the free and graded algebras, and
    # few or none on the dense census and rebased blocks
    inconsistent, zeros = [], {}
    for name, g in _live_form_corpus():
        system = build_system(g)
        bad, zeros[name] = assert_solve_matches_echelon(
            list(system.linear_rows), list(system.linear_rhs), system.nvars, name
        )
        if bad is not None:
            inconsistent.append(name)
    assert inconsistent == ["sl2"]
    assert (zeros["free-n2-c4"], zeros["free-n3-c3"]) == (363, 1964)
    assert all(zeros["gd(%d, %d)" % (n, k)] for n in range(4, 11) for k in (1, 2, 3))


def test_census_verdict_counts():
    # the verdict census, ten seeded instances per corpus; a count may move
    # only from undetermined to a checked answer. Its linear blocks are
    # dense, where the forced-zero pass finds few zeros
    counts = {tag: Counter(decide_novikov(build(i)).verdict for i in range(10))
              for tag, build in CENSUS.items()}
    assert counts == {
        "x3": Counter({EXISTS: 3, UNDETERMINED: 7}),
        "xj": Counter({EXISTS: 10}),
        "xm": Counter({EXISTS: 1, UNDETERMINED: 9}),
        "xp": Counter({EXISTS: 2, UNDETERMINED: 8}),
    }


def test_rr_minus_rep_is_the_operator_row():
    # rr(i,j,r,s) - rep(i,j,r,s) is the operator row (i, j, r, s) minus its
    # right-hand side, and build_system drops that row when it is zero; so
    # on the solution set of the linear block an rr entry substitutes to its
    # rep entry, which residual_polynomials relies on
    for name, g in _differential_corpus():
        system = build_system(g)
        block = system.quadratics
        row = g.dim * len(block.pairs)  # the operator rows follow the compatibility rows
        sol = solve_sparse(system.linear_rows, system.linear_rhs, system.nvars)
        forms = None
        if sol.consistent:
            forms = [int_affine_form(c, t) for c, t in affine_forms(sol)]
        for q in range(len(block) // 2):
            diff = dict(block[2 * q + 1])
            _add_scaled(diff, block[2 * q], Q(-1))
            assert all(len(m) <= 1 for m in diff), (name, q)
            if diff:
                linear = {m[0]: c for m, c in diff.items() if m}
                assert linear == system.linear_rows[row], (name, q)
                assert -diff.get((), 0) == system.linear_rhs[row], (name, q)
                row += 1
            if forms is not None:
                # substitution is linear in the polynomial, so the unfiltered
                # substitutions of rr and rep agree where rr - rep gives zero
                assert not certificate._substitute(diff, forms), (name, q)
        assert row == len(system.linear_rows), name


def test_residuals_substitute_each_rep_entry_once(monkeypatch):
    # the 144 residuals of free-n3-c3 come from 72 rep substitutions, and no
    # rr entry is built; substituting both halves took 144 and 72 ad_terms calls
    calls = Counter()
    substitute, ad_terms = certificate._substitute, certificate.QuadraticBlock.ad_terms

    def counted_substitute(*args):
        calls["_substitute"] += 1
        return substitute(*args)

    def counted_ad_terms(self, *args):
        calls["ad_terms"] += 1
        return ad_terms(self, *args)

    monkeypatch.setattr(certificate, "_substitute", counted_substitute)
    monkeypatch.setattr(certificate.QuadraticBlock, "ad_terms", counted_ad_terms)
    _, residuals = residual_polynomials(build_system(fx.free_n3_c3()))
    assert len(residuals) == 144
    assert (calls["_substitute"], calls["ad_terms"]) == (72, 0)


def test_block_length_and_bounds():
    for g in [fx.abelian(0), fx.abelian(1), fx.r2(), fx.free_n3_c3()]:
        n = g.dim
        block = build_system(g).quadratics
        assert len(block) == n ** 3 * (n - 1)
        for qi in (-1, len(block), len(block) + 7):
            with pytest.raises(IndexError):
                block[qi]
        if len(block):
            assert block[0] == next(iter(block))
            assert block[len(block) - 1]


def test_candidates_cover_every_live_quadratic():
    # every rep entry holding a monomial whose variables are all live must
    # be a candidate, whatever the live set; extra candidates are allowed,
    # and no rr entry is named
    rng = random.Random(29)
    checked = 0
    for name, g in _differential_corpus():
        block = build_system(g).quadratics
        polys = list(block)
        nvars = g.dim ** 3
        for density in (0, 0.01, 0.05, 0.2, 1):
            for _ in range(1 if density in (0, 1) else 3):
                live = {v for v in range(nvars) if rng.random() < density}
                candidates = block.candidates(live)
                assert candidates == sorted(set(candidates)), name
                assert all(0 <= qi < len(block) and qi % 2 == 0 for qi in candidates), name
                chosen = set(candidates)
                missed = [qi for qi, poly in enumerate(polys) if qi % 2 == 0
                          and any(map(live.issuperset, poly)) and qi not in chosen]
                assert not missed, (name, density, missed[:5])
                checked += 1
    assert checked == 11 * 26


def test_residuals_free_n3_c3_digest():
    # recorded from the unfiltered substitution
    _, residuals = residual_polynomials(build_system(fx.free_n3_c3()))
    assert len(residuals) == 144
    assert _residual_digest(residuals) == (
        "fa026cd31b520e1de277f08ea98faa2d60fca44ba59e645b3cfaa97137ecb36a"
    )


def test_known_products_satisfy_their_systems():
    cases = [
        (fx.free_n3_c3(), fx.free_n3_c3_product()),
        (fx.ex35(), fx.ex35_product()),
        (fx.in_lie(3), fx.in_novikov_product(3)),
    ]
    for g, p in cases:
        system = build_system(g)
        values = [Q(0)] * system.nvars
        for (i, c, r), v in p.entries.items():
            values[var_index(system.n, i, r, c)] = v
        for row, rhs in zip(system.linear_rows, system.linear_rhs):
            assert sum((c * values[v] for v, c in row.items()), Q(0)) == rhs
        for poly in system.quadratics:
            total = Q(0)
            for m, c in poly.items():
                if m == ():
                    total += c
                elif len(m) == 1:
                    total += c * values[m[0]]
                else:
                    total += c * values[m[0]] * values[m[1]]
            assert total == 0


def test_product_from_solution_round_trip():
    # the linear-system constructor reads its product off the L(e_i) entries
    for p in [fx.ex35_product(), fx.free_n3_c3_product(), fx.in_novikov_product(3)]:
        system = certificate.PolySystem(p.dim, [], [], [])
        values = [Q(0)] * system.nvars
        for i in range(p.dim):
            left = p.left_matrix(i)
            for r in range(p.dim):
                for c in range(p.dim):
                    values[var_index(system.n, i, r, c)] = left[r, c]
        sol = point_solution(values)
        assert sol.particular() == tuple(values)
        assert certificate._product_from_solution(system, sol) == p


def test_decide_existence_cases():
    cases = [
        (fx.abelian(4), "zero-product"),
        (fx.n3(), "half-bracket"),
        (fx.ex35(), "two-generator"),
        (fx.r2(), "invertible-action"),
        (fx.filiform(6), "jordan-block"),
    ]
    for g, method in cases:
        cert = decide_novikov(g)
        assert cert.verdict == EXISTS and cert.method == method
        assert is_novikov(cert.product) and is_compatible(cert.product, g)
        assert verify_certificate(g, cert)


def test_decide_on_gelfand_dorfman_algebras():
    # known answers: x * y = x D(y) on Q[t]/(t^n), D = t^k d/dt, is a Novikov
    # structure on its commutator algebra, graded or rebased, so decide may
    # not say not-exists on one; some stay undetermined, (5, 1) among them
    cases = [gelfand_dorfman(n, k) for n in range(4, 11) for k in (1, 2, 3)]
    cases += [rebased(*gelfand_dorfman(n, k), rng_for("gelfand-dorfman", 3 * n + k))
              for n in (4, 5) for k in (1, 2, 3)]
    verdicts = Counter()
    for g, product in cases:
        assert is_novikov(product) and is_compatible(product, g)
        cert = decide_novikov(g)
        assert cert.verdict != NOT_EXISTS
        if cert.verdict == EXISTS:
            assert verify_certificate(g, cert)
        verdicts[cert.verdict] += 1
    assert verdicts[EXISTS] > 0


def reference_constructor_candidates(g):
    """decide's constructor order through the public lifts, each behind its
    own hypothesis checks and none gated: the half-bracket product first, the
    zero product on abelian g (see
    test_half_bracket_verifies_exactly_at_class_at_most_2); the Scheuneman
    lift is none of them (see
    test_scheuneman_lift_is_novikov_only_as_the_half_bracket)."""
    if g.is_abelian():
        yield "zero-product", StructureTensor(g.dim, {})
    else:
        yield "half-bracket", half_bracket_product(g)
    try:
        ext, split = two_step_solvable_from(g)
    except NotTwoStepSolvable:
        return

    def transported(lift):
        return split.transport_product(lift_product(ext, lift))

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


def test_constructor_candidates_match_public_lifts():
    corpus = [fx.ex35(), fx.n3(), fx.r2(), fx.r3(), fx.sl2(), fx.filiform(5), fx.filiform(6),
              fx.free_n2_c4(), fx.free_n3_c3(), fx.abelian(2)]
    rng = rng_for("candidates-3step")
    corpus += [assemble(random_three_step_extension(rng, i)) for i in range(4)]
    rng = rng_for("candidates-2step")
    corpus += [random_two_step_nilpotent(rng, max_dim=6) for _ in range(2)]
    methods = set()
    for g in corpus:
        got = list(certificate._constructor_candidates(g))
        assert got == list(reference_constructor_candidates(g))
        methods.update(method for method, _ in got)
    assert {"two-generator", "jordan-block", "invertible-action"} <= methods


def test_half_bracket_verifies_exactly_at_class_at_most_2():
    # why decide tries the half-bracket product on every g: its eq-1 defect
    # is -[[x, y], z]/4 and eq-2 and compatibility hold once that is zero,
    # so the product checks accept it exactly when the lower central series
    # reaches 0 within two steps
    corpus = [fx.fixture(name) for name in FIXTURES]
    corpus += [build(i) for build in CENSUS.values() for i in range(10)]
    corpus += [gelfand_dorfman(n, k)[0] for n in range(4, 11) for k in (1, 2, 3)]
    rng = rng_for("half-bracket-class")
    corpus += [random_two_step_nilpotent(rng, max_dim=6) for _ in range(4)]
    kinds = Counter()
    for g in corpus:
        cls = g.nilpotency_class()
        product = half_bracket_product(g)
        verified = certificate._verified(g, algebra_hash(g), product, "half-bracket")
        assert (verified is not None) == (cls is not None and cls <= 2)
        if cls is None:
            kinds["not nilpotent"] += 1
        else:
            kinds[min(cls, 3)] += 1
    assert kinds[1] and kinds[2] and kinds[3] and kinds["not nilpotent"]


def test_decide_builds_no_lower_central_series_and_one_commutator(monkeypatch):
    # decide's only series is the derived series of two_step_solvable_from:
    # [g, g], bracket_space on (full, full), is built once and no lower
    # central series is built
    calls = []
    lower_central_series = LieAlgebra.lower_central_series
    bracket_space = LieAlgebra.bracket_space

    def spy_series(self):
        calls.append("lower central series")
        return lower_central_series(self)

    def spy_bracket(self, u_space, v_space):
        if u_space.dim == v_space.dim == self.dim:
            calls.append("[g, g]")
        return bracket_space(self, u_space, v_space)

    monkeypatch.setattr(LieAlgebra, "lower_central_series", spy_series)
    monkeypatch.setattr(LieAlgebra, "bracket_space", spy_bracket)
    for name, verdict in (("free-n2-c4", NOT_EXISTS), ("free-n3-c3", EXISTS)):
        g = fx.fixture(name)
        calls.clear()
        assert decide_novikov(g).verdict == verdict
        assert calls == ["[g, g]"], name


def test_scheuneman_lift_is_novikov_only_as_the_half_bracket():
    # why decide tries no Scheuneman candidate: at class 3 the lift always
    # fails (29), by the paper's lift systems and by the product checks, and
    # at class 2 its transported product is the half-bracket product, which
    # decide tries first
    corpus = [g for _, g in _differential_corpus("scheuneman")] + [fx.free_n3_c3()]
    corpus += [assemble(random_three_step_extension(rng_for("x3", i), i)) for i in range(10)]
    classes = Counter()
    for g in corpus:
        cls = g.nilpotency_class()
        if g.is_abelian() or cls is None or cls > 3:
            continue
        ext, split = two_step_solvable_from(g)
        lift = scheuneman_lift(ext)
        product = split.transport_product(lift_product(ext, lift))
        verified = certificate._verified(g, algebra_hash(g), product, "scheuneman")
        if cls == 3:
            assert check_lift_novikov(ext, lift).label == "eq-29"
            assert verified is None
        else:
            assert product == half_bracket_product(g)
            assert verified is not None
        classes[cls] += 1
    assert classes[2] and classes[3] >= 5


def test_decide_assembles_no_extension(monkeypatch):
    # the product checks and the lifts' own hypothesis checks decide every
    # constructor candidate; no closed form assembles its extension (no
    # library module calls a lift checker at all)
    calls = []
    original = extensions.assemble
    monkeypatch.setattr(extensions, "assemble", lambda *a: calls.append("assemble") or original(*a))
    assert decide_novikov(fx.free_n2_c4()).verdict == NOT_EXISTS
    assert decide_novikov(fx.ex35()).method == "two-generator"
    assert calls == []
    extensions.scheuneman_lift(two_step_solvable_from(fx.ex35())[0])
    assert calls == []


def test_decide_free_n3_c3_at_the_particular_point():
    # no residual of free-n3-c3 has a constant term, so every residual
    # vanishes at the particular point of the linear block (all 66
    # parameters 0): a Novikov structure, found before any elimination
    g = fx.free_n3_c3()
    sol, residuals = residual_polynomials(build_system(g))
    assert sol.ncols - sol.rank == 66 and len(residuals) == 144
    assert not any(() in poly for poly in residuals.values())
    cert = decide_novikov(g)
    assert cert.verdict == EXISTS and cert.method == "linear-system"
    assert verify_certificate(g, cert)


def test_decide_random_two_step_nilpotent():
    rng = rng_for("certificate-2step")
    for _ in range(4):
        g = random_two_step_nilpotent(rng, max_dim=6)
        cert = decide_novikov(g)
        assert cert.verdict == EXISTS
        assert verify_certificate(g, cert)


def test_decide_not_exists_free_n2_c4():
    g = fx.free_n2_c4()
    cert = decide_novikov(g)
    assert cert.verdict == NOT_EXISTS
    assert cert.witness_kind == "quadratic"
    assert verify_certificate(g, cert)


def test_decide_not_exists_sl2_linear():
    g = fx.sl2()
    cert = decide_novikov(g)
    assert cert.verdict == NOT_EXISTS and cert.witness_kind == "linear"
    assert verify_certificate(g, cert)


def _decide_and_verify(name):
    """The LAF-C bytes of decide_novikov on the fixture, and the verdicts of
    verify_certificate on that certificate and on a linear and a quadratic
    witness that are wrong, which each read the linear block."""
    g = fx.fixture(name)
    cert = decide_novikov(g)
    checks = [verify_certificate(g, cert)]
    for kind in ("linear", "quadratic"):
        wrong = Certificate(NOT_EXISTS, cert.algebra_hash, witness_kind=kind,
                            witness={0: Q(1), 1: Q(1)}, constant=Q(1))
        checks.append(verify_certificate(g, wrong))
    return emit(cert), checks


def test_decide_and_verify_build_no_fraction_view_of_the_linear_block(monkeypatch):
    # the linear block goes from build_system through solve_sparse to the
    # residual forms in ints: no row or value of the block and no quadratic
    # entry read by index is built as Fractions, on the two free fixtures
    # and on sl2, whose linear witness is checked against the int rows;
    # every certificate and verdict stays the same. A solution has no
    # Fraction echelon form to build
    names = ("free-n2-c4", "free-n3-c3", "sl2")
    expected = {name: _decide_and_verify(name) for name in names}
    assert all(checks == [True, False, False] for _, checks in expected.values())

    def refuse(*args):
        raise AssertionError("a Fraction view of the linear block was built")

    solutions, solve = [], certificate.solve_sparse
    monkeypatch.setattr(certificate, "solve_sparse",
                        lambda *args: solutions.append(solve(*args)) or solutions[-1])
    monkeypatch.setattr(certificate, "_fractions", refuse)
    for name in names:
        solutions.clear()
        assert _decide_and_verify(name) == expected[name], name
        assert solutions, name
    # the counts the benchmark's fingerprint reads build nothing either
    for name, counts in (("free-n2-c4", (1326, 3584, 494, 512)),
                         ("free-n3-c3", (8670, 35672, 2678, 2744))):
        system = build_system(fx.fixture(name))
        sol, _ = residual_polynomials(system)
        got = (len(system.linear_rows), len(system.quadratics), sol.rank, sol.ncols)
        assert got == counts and len(system.linear_rhs) == counts[0], name


@pytest.mark.parametrize("name, kind", [("free-n2-c4", "quadratic"), ("sl2", "linear")])
def test_decide_returns_only_fractions(name, kind):
    # solve_sparse eliminates on ints where the entries are integral; every
    # value it hands on must be a Fraction again, since cli._jsonable formats
    # only Fractions
    g = fx.fixture(name)
    cert = decide_novikov(g)
    assert cert.verdict == NOT_EXISTS and cert.witness_kind == kind
    values = [cert.constant] + list(cert.witness.values())
    sol, residuals = residual_polynomials(build_system(g))
    assert (residuals is None) == (kind == "linear")
    values += [c for poly in (residuals or {}).values() for c in poly.values()]
    if sol.consistent:
        for const, terms in affine_forms(sol):
            values += [const] + list(terms.values())
    else:
        # an inconsistent solution hands on a witness, no values
        assert sol.particular() is None
        values += list(sol.witness.values())
    assert all(type(c) is Q for c in values)


def test_wrong_elimination_witness_is_rejected(monkeypatch):
    # the re-verification inside decide_novikov is an explicit check, so it
    # also runs under python -O
    def wrong(residuals, effort):
        return {min(residuals): Q(1)}, Q(1)

    monkeypatch.setattr(certificate, "_eliminate_residuals", wrong)
    with pytest.raises(WitnessCheckFailed):
        decide_novikov(fx.free_n2_c4())


def _random_residuals(rng):
    monomials = [(), (0,), (1,), (2,), (3,), (0, 1), (1, 2), (2, 3), (0, 0), (3, 3)]
    values = [Q(1), Q(-1), Q(-1), Q(2), Q(-2), Q(1, 2), Q(-3, 2)]
    residuals = {}
    for qi in rng.sample(range(40), rng.randint(1, 12)):
        residuals[qi] = {m: rng.choice(values) for m in rng.sample(monomials, rng.randint(1, 4))}
    return residuals


def test_eliminate_residuals_outcomes_digest():
    # recorded before the row step negated its -1 leads instead of dividing
    # by them; pins each outcome, the witness in its dict order, over random
    # residual sets whose leads are +-1 and other values, under two budgets
    rng = random.Random(43)
    h = hashlib.sha256()
    found = 0
    for index in range(300):
        out = certificate._eliminate_residuals(_random_residuals(rng), rng.choice((2, 64)))
        if out is not None:
            found += 1
            out = (list(out[0].items()), out[1])
        h.update(("%d %s\n" % (index, out)).encode())
    assert found == 43
    assert h.hexdigest() == (
        "ac38d48f24df67884a18ecf928c645ed163ecde73a5d855a383dab52b963b96a"
    )


def reference_eliminate_residuals(residuals, effort):
    """_eliminate_residuals as it ran before its row step went on ints: each
    residual through the row step over Fractions alone, a later pivot
    overwriting an earlier one. Returns (the outcome, the overwrites)."""
    pivot_rows, pivot_consts, pivot_combos = {}, {}, {}
    pivots_used = overwrites = 0
    for qi in sorted(residuals):
        poly = residuals[qi]
        m, work, const, combo = fraction_row_step(
            {mono: c for mono, c in poly.items() if mono != ()},
            poly.get((), Q(0)),
            {qi: Q(1)},
            pivot_rows,
            pivot_consts,
            pivot_combos,
        )
        if m is None:
            if const != 0:
                return (combo, const), overwrites
            continue
        if pivots_used < effort:
            overwrites += m in pivot_rows
            pivot_rows[m], pivot_consts[m], pivot_combos[m] = work, const, combo
            pivots_used += 1
    return None, overwrites


def _assert_elimination_matches_reference(residuals, effort):
    """The same outcome as the reference, the witness in the same dict
    order, every coefficient and the constant a Fraction. Returns
    (whether a witness was found, the reference's overwrites)."""
    got = certificate._eliminate_residuals(residuals, effort)
    want, overwrites = reference_eliminate_residuals(residuals, effort)
    assert (got is None) == (want is None)
    if got is not None:
        assert list(got[0].items()) == list(want[0].items()) and got[1] == want[1]
        assert all(type(x) is Q for x in [*got[0].values(), got[1]])
    return got is not None, overwrites


def test_eliminate_residuals_matches_fraction_reference():
    # on the fixtures a later pivot overwrites an earlier one (free-n2-c4
    # finds its witness after two overwrites)
    for name, found in (("free-n2-c4", True), ("free-n3-c3", False)):
        _, residuals = residual_polynomials(build_system(fx.fixture(name)))
        for effort in (12, 13, 64):
            outcome = _assert_elimination_matches_reference(residuals, effort)
            assert outcome[0] == (found and effort > 12), (name, effort)
            if effort == 64:
                assert outcome[1] > 0, name
    # seeded residual sets with coefficients of denominators up to 7
    rng = random.Random(47)
    monomials = [(), (0,), (1,), (2,), (3,), (0, 1), (1, 2), (2, 3), (0, 0), (3, 3)]
    found = overwritten = 0
    for _ in range(300):
        residuals = {}
        for qi in rng.sample(range(40), rng.randint(1, 14)):
            residuals[qi] = {
                m: Q(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 7))
                for m in rng.sample(monomials, rng.randint(1, 5))
            }
        outcome = _assert_elimination_matches_reference(residuals, rng.choice((2, 5, 64)))
        found += outcome[0]
        overwritten += outcome[1] > 0
    assert found >= 50 and overwritten >= 50


def test_decide_deterministic():
    g = fx.free_n2_c4()
    a = decide_novikov(g)
    b = decide_novikov(g)
    assert a.witness == b.witness and a.constant == b.constant


@pytest.mark.parametrize("effort", [0, 12])
def test_effort_zero_gives_undetermined(effort):
    # 13 pivots are needed on free-n2-c4; one fewer must not find the witness
    g = fx.free_n2_c4()
    cert = decide_novikov(g, effort=effort)
    assert cert.verdict == UNDETERMINED
    assert not verify_certificate(g, cert)


def test_effort_threshold_gives_frozen_certificate():
    from novikov.laf import emit

    with open(os.path.join(DATA, "free-n2-c4.lafc"), "r", encoding="utf-8") as fh:
        frozen = fh.read()
    assert emit(decide_novikov(fx.free_n2_c4(), effort=13)) == frozen


def test_frozen_certificate_fixture():
    g = parse_file(os.path.join(DATA, "free-n2-c4.laf"))
    assert g.bracket == fx.free_n2_c4().bracket
    cert = parse_file(os.path.join(DATA, "free-n2-c4.lafc"))
    assert cert.verdict == NOT_EXISTS
    assert verify_certificate(g, cert)


def test_tampered_witness_fails():
    g = fx.free_n2_c4()
    cert = parse_file(os.path.join(DATA, "free-n2-c4.lafc"))
    for qi in list(cert.witness):
        for delta in (Q(1), Q(-1, 7)):
            tampered = Certificate(
                NOT_EXISTS,
                cert.algebra_hash,
                witness_kind=cert.witness_kind,
                witness={**cert.witness, qi: cert.witness[qi] + delta},
                constant=cert.constant,
            )
            assert not verify_certificate(g, tampered)
    wrong_constant = Certificate(
        NOT_EXISTS,
        cert.algebra_hash,
        witness_kind=cert.witness_kind,
        witness=cert.witness,
        constant=cert.constant + 1,
    )
    assert not verify_certificate(g, wrong_constant)


def test_witness_robustness_against_malformed_references():
    g = fx.free_n2_c4()
    cert = decide_novikov(g)
    # out-of-range equation index
    bad = Certificate(
        NOT_EXISTS,
        cert.algebra_hash,
        witness_kind="quadratic",
        witness={10 ** 6: Q(1)},
        constant=Q(1),
    )
    assert not verify_certificate(g, bad)
    # reference to an equation whose residual vanishes identically
    system = build_system(g)
    _, residuals = residual_polynomials(system)
    vanished = next(qi for qi in range(len(system.quadratics)) if qi not in residuals)
    bad = Certificate(
        NOT_EXISTS,
        cert.algebra_hash,
        witness_kind="quadratic",
        witness={**cert.witness, vanished: Q(1)},
        constant=cert.constant,
    )
    assert not verify_certificate(g, bad)
    # zero constant is never a contradiction
    bad = Certificate(
        NOT_EXISTS,
        cert.algebra_hash,
        witness_kind=cert.witness_kind,
        witness=cert.witness,
        constant=Q(0),
    )
    assert not verify_certificate(g, bad)


def test_undetermined_round_trip():
    from novikov.laf import emit, parse

    g = fx.free_n2_c4()
    cert = decide_novikov(g, effort=0)
    assert cert.verdict == UNDETERMINED
    back = parse(emit(cert))
    assert back.verdict == UNDETERMINED
    assert back.residual_summary == cert.residual_summary
    assert not verify_certificate(g, back)


def test_certificate_bound_to_algebra():
    g = fx.free_n2_c4()
    cert = decide_novikov(fx.n3())
    assert not verify_certificate(g, cert)
    assert algebra_hash(g) != algebra_hash(fx.n3())


def test_exists_certificate_with_wrong_product_fails():
    g = fx.n3()
    # a Novikov product of the wrong dimension, one of the right dimension
    # that is not compatible with g, and no product at all
    for product in (fx.ex35_product(), StructureTensor(3, {}), None):
        bad = Certificate(EXISTS, algebra_hash(g), product=product, method="half-bracket")
        assert not verify_certificate(g, bad)


def test_constructor_products_satisfy_system():
    # cross-module consistency: every product a constructor emits solves the
    # full condition system of its algebra
    for g in [fx.n3(), fx.ex35(), fx.r2(), fx.filiform(5)]:
        cert = decide_novikov(g)
        assert cert.verdict == EXISTS
        system = build_system(g)
        values = [Q(0)] * system.nvars
        for (i, c, r), v in cert.product.entries.items():
            values[var_index(system.n, i, r, c)] = v
        for row, rhs in zip(system.linear_rows, system.linear_rhs):
            assert sum((c * values[v] for v, c in row.items()), Q(0)) == rhs
