import os
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
from novikov.laf import parse_file
from novikov.products import is_compatible, is_novikov

from randalg import random_two_step_nilpotent, rng_for

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
    for (i, c, r), v in p.tensor.entries.items():
        values[system.var_index(i, r, c)] = v
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


def test_known_products_satisfy_their_systems():
    cases = [
        (fx.free_n3_c3(), fx.free_n3_c3_product()),
        (fx.ex35(), fx.ex35_product()),
        (fx.in_lie(3), fx.in_novikov_product(3)),
    ]
    for g, p in cases:
        system = build_system(g)
        values = [Q(0)] * system.nvars
        for (i, c, r), v in p.tensor.entries.items():
            values[system.var_index(i, r, c)] = v
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
        system = certificate.PolySystem(p.dim, [], [], [], [])
        values = [Q(0)] * system.nvars
        for i in range(p.dim):
            left = p.left(i)
            for r in range(p.dim):
                for c in range(p.dim):
                    values[system.var_index(i, r, c)] = left[r, c]
        assert certificate._product_from_solution(system, values) == p


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


def test_wrong_elimination_witness_is_rejected(monkeypatch):
    # the re-verification inside decide_novikov is an explicit check, so it
    # also runs under python -O
    def wrong(residuals, effort):
        return {min(residuals): Q(1)}, Q(1)

    monkeypatch.setattr(certificate, "_eliminate_residuals", wrong)
    with pytest.raises(WitnessCheckFailed):
        decide_novikov(fx.free_n2_c4())


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
    g = parse_file(os.path.join(DATA, "free-n2-c4.laf")).payload
    assert g.bracket == fx.free_n2_c4().bracket
    cert = parse_file(os.path.join(DATA, "free-n2-c4.lafc")).payload
    assert cert.verdict == NOT_EXISTS
    assert verify_certificate(g, cert)


def test_tampered_witness_fails():
    g = fx.free_n2_c4()
    cert = parse_file(os.path.join(DATA, "free-n2-c4.lafc")).payload
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
    back = parse(emit(cert)).payload
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
    bad = Certificate(EXISTS, algebra_hash(g), product=fx.ex35_product(), method="half-bracket")
    assert not verify_certificate(g, bad)


def test_constructor_products_satisfy_system():
    # cross-module consistency: every product a constructor emits solves the
    # full condition system of its algebra
    for g in [fx.n3(), fx.ex35(), fx.r2(), fx.filiform(5)]:
        cert = decide_novikov(g)
        assert cert.verdict == EXISTS
        system = build_system(g)
        values = [Q(0)] * system.nvars
        for (i, c, r), v in cert.product.tensor.entries.items():
            values[system.var_index(i, r, c)] = v
        for row, rhs in zip(system.linear_rows, system.linear_rhs):
            assert sum((c * values[v] for v, c in row.items()), Q(0)) == rhs
