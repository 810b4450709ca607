import json
import os

import pytest

from novikov import cli, rmatrix
from novikov import fixtures as fx
from novikov.cli import main
from novikov.extensions import two_step_solvable_from
from novikov.laf import emit_file, parse_file
from novikov.linalg import Matrix
from novikov.products import is_novikov
from novikov.rmatrix import RMatrix, basis_rmatrix, check_cybe, check_novbed

from test_extensions import INCOMPATIBLE_B_PRODUCT, NON_LSA_B_PRODUCT
from test_laf import BAD_A_PRODUCTS

DATA = os.path.join(os.path.dirname(__file__), "data")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(out[-1])


def test_fixture_and_verify(tmp_path, capsys):
    lie = str(tmp_path / "n3.laf")
    prod = str(tmp_path / "half.lafp")
    assert run(capsys, "fixture", "--name", "n3", "-o", lie)[0] == 0
    assert run(capsys, "fixture", "--name", "half-bracket:n3", "-o", prod)[0] == 0
    code, report = run(capsys, "verify", "--lie", lie, "--product", prod, "--novikov")
    assert code == 0 and report["holds"]
    code, report = run(capsys, "verify", "--lie", lie, "--product", prod, "--complete")
    assert code == 0 and report["status"] == "complete"


def test_verify_complete_reports_pinned(tmp_path, capsys):
    # R(e1) of In-product:3 is not nilpotent; free-n3-c3-product is Novikov
    # with every R(e_i) nilpotent; half the bracket of filiform:6 has every
    # R(e_i) nilpotent but is neither left-symmetric nor eq-2
    cases = (
        ("In:3", "In-product:3", 1,
         '{"command": "verify", "property": "complete", "holds": false, '
         '"status": "incomplete", "witness": ["1", "0", "0"]}'),
        ("free-n3-c3", "free-n3-c3-product", 0,
         '{"command": "verify", "property": "complete", "holds": true, "status": "complete"}'),
        ("filiform:6", "half-bracket:filiform:6", 1,
         '{"command": "verify", "property": "complete", "holds": false, '
         '"status": "not-left-symmetric", "witness": null}'),
    )
    lie = str(tmp_path / "g.laf")
    prod = str(tmp_path / "p.lafp")
    for lie_name, product_name, exit_code, line in cases:
        assert run(capsys, "fixture", "--name", lie_name, "-o", lie)[0] == 0
        assert run(capsys, "fixture", "--name", product_name, "-o", prod)[0] == 0
        assert main(["verify", "--lie", lie, "--product", prod, "--complete"]) == exit_code
        assert capsys.readouterr().out == line + "\n"


def test_verify_failure_names_equation(tmp_path, capsys):
    lie = str(tmp_path / "g8.laf")
    prod = str(tmp_path / "half.lafp")
    emit_file(fx.free_n2_c4(), lie)
    emit_file(fx.product_fixture("half-bracket:free-n2-c4"), prod)
    code, report = run(capsys, "verify", "--lie", lie, "--product", prod, "--lsa")
    assert code == 1
    assert report["condition"] == "eq-1"
    assert report["witness"] is not None


def test_series_matches_library(tmp_path, capsys):
    lie = str(tmp_path / "g8.laf")
    emit_file(fx.free_n2_c4(), lie)
    code, report = run(capsys, "series", "--lie", lie)
    g = fx.free_n2_c4()
    assert code == 0
    assert report["lower_central_dims"] == [s.dim for s in g.lower_central_series()]
    assert report["derived_dims"] == [s.dim for s in g.derived_series()]
    assert report["nilpotency_class"] == 4


def test_series_report_on_free_n2_c4_is_pinned(capsys):
    assert main(["series", "--lie", os.path.join(DATA, "free-n2-c4.laf")]) == 0
    assert capsys.readouterr().out == (
        '{"command": "series", "derived_dims": [8, 6, 0], "lower_central_dims": '
        '[8, 6, 5, 3, 0], "derived_length": 2, "nilpotency_class": 4}\n'
    )


def test_rmatrix_check_and_induce(tmp_path, capsys):
    lie = str(tmp_path / "sl2.laf")
    tmat = str(tmp_path / "t.lafm")
    out = str(tmp_path / "induced.lafp")
    emit_file(fx.sl2(), lie)
    emit_file(Matrix.unit(3, 0, 1), tmat)
    code, report = run(capsys, "rmatrix", "--lie", lie, "--t", tmat, "--check")
    assert code == 0 and report["cybe"] and report["novbed"]
    code, report = run(capsys, "rmatrix", "--lie", lie, "--t", tmat, "--induce", "-o", out)
    assert code == 0
    induced = parse_file(out)
    assert is_novikov(induced)
    # equivalence with the direct library call
    r = RMatrix(fx.sl2(), Matrix.unit(3, 0, 1))
    assert bool(check_cybe(r)) and bool(check_novbed(r))


def test_rmatrix_induce_runs_each_precondition_once(tmp_path, capsys, monkeypatch):
    # induced_product decides both preconditions; the command reports its
    # PreconditionFailed with 1-based witnesses and runs no check of its own
    calls = []
    for module in (cli, rmatrix):
        for name in ("check_cybe", "check_novbed"):
            original = getattr(rmatrix, name)
            monkeypatch.setattr(module, name, lambda r, _n=name, _f=original: calls.append(_n) or _f(r))
    lie = str(tmp_path / "ex35.laf")
    tmat = str(tmp_path / "t.lafm")
    out = str(tmp_path / "induced.lafp")
    emit_file(fx.ex35(), lie)
    emit_file(basis_rmatrix(fx.ex35(), 0, 1).t, tmat)
    code, report = run(capsys, "rmatrix", "--lie", lie, "--t", tmat, "--induce", "-o", out)
    assert code == 0 and report["ok"]
    assert sorted(calls) == ["check_cybe", "check_novbed"]
    emit_file(fx.sl2(), lie)
    for unit, condition, witness in (((0, 0), "cybe", [1, 3]), ((2, 0), "novbed", [1, 2, 1])):
        emit_file(Matrix.unit(3, *unit), tmat)
        code, report = run(capsys, "rmatrix", "--lie", lie, "--t", tmat, "--induce", "-o", out)
        assert code == 1
        assert report == {"command": "rmatrix", "mode": "induce", "ok": False,
                          "condition": condition, "witness": witness}


def test_rmatrix_induce_without_output(tmp_path, capsys):
    lie = str(tmp_path / "sl2.laf")
    tmat = str(tmp_path / "t.lafm")
    emit_file(fx.sl2(), lie)
    emit_file(Matrix.unit(3, 0, 1), tmat)
    code, report = run(capsys, "rmatrix", "--lie", lie, "--t", tmat, "--induce")
    assert code == 2
    assert report["ok"] is False and report["command"] == "rmatrix"
    assert "-o" in report["detail"]


def test_rmatrix_check_failure(tmp_path, capsys):
    lie = str(tmp_path / "sl2.laf")
    tmat = str(tmp_path / "t.lafm")
    emit_file(fx.sl2(), lie)
    emit_file(Matrix.unit(3, 0, 0), tmat)
    code, report = run(capsys, "rmatrix", "--lie", lie, "--t", tmat, "--check")
    assert code == 1
    assert not (report["cybe"] and report["novbed"])


def test_lift_methods(tmp_path, capsys):
    from novikov.extensions import two_step_solvable_from

    ext, _ = two_step_solvable_from(fx.ex35())
    ext_path = str(tmp_path / "ex35.lafe")
    emit_file(ext, ext_path)
    for method in ("twogen", "scheuneman"):
        out = str(tmp_path / ("%s.lafl" % method))
        code, report = run(capsys, "lift", "--ext", ext_path, "--method", method, "-o", out)
        assert code == 0 and report["ok"]
    # jordan on the filiform extension
    extf, _ = two_step_solvable_from(fx.filiform(5))
    extf_path = str(tmp_path / "fil.lafe")
    emit_file(extf, extf_path)
    out = str(tmp_path / "jordan.lafl")
    code, report = run(capsys, "lift", "--ext", extf_path, "--method", "jordan", "-o", out)
    assert code == 0
    code, report = run(
        capsys, "lift", "--ext", extf_path, "--method", "jordan", "--index", "1", "-o", out
    )
    assert code == 0
    # iso is inapplicable here: every basis action is singular
    code, report = run(capsys, "lift", "--ext", ext_path, "--method", "iso", "-o", out)
    assert code == 1 and report["error"] == "NotInvertible"


def test_lift_iso_at_given_e(tmp_path, capsys):
    from novikov.extensions import ExtensionData

    # abelian b acting on a by 1 and 2: phi(e) = e_1 + 2 e_2 is invertible
    # at (1/2, 3) and singular at (2, -1)
    ext = ExtensionData(1, 2, [Matrix([[1]]), Matrix([[2]])], {})
    ext_path = str(tmp_path / "ab.lafe")
    emit_file(ext, ext_path)
    out = str(tmp_path / "iso.lafl")
    code, report = run(capsys, "lift", "--ext", ext_path, "--method", "iso", "--e", "1/2,3", "-o", out)
    assert code == 0 and report["ok"]
    assert list(parse_file(out).y_op) == [Matrix([[1]]), Matrix([[2]])]
    code, report = run(capsys, "lift", "--ext", ext_path, "--method", "iso", "--e", "2,-1", "-o", out)
    assert code == 1 and report["error"] == "NotInvertible"


def test_lift_e_with_zero_denominator_is_input_error(tmp_path, capsys):
    out = str(tmp_path / "iso.lafl")
    code, report = run(
        capsys, "lift", "--ext", os.path.join(DATA, "ex35.lafe"), "--method", "iso",
        "--e", "1/0,1", "-o", out,
    )
    assert code == 2 and report["ok"] is False and report["error"] == "LAFError"
    assert not os.path.exists(out)


def test_lift_semidirect(tmp_path, capsys):
    from novikov.extensions import ExtensionData

    ext = ExtensionData(
        1,
        2,
        [Matrix([[1]]), Matrix.zeros(1, 1)],
        {},
        b_bracket=fx.r2().bracket,
        b_product=fx.in_novikov_product(2),
    )
    ext_path = str(tmp_path / "split.lafe")
    emit_file(ext, ext_path)
    out = str(tmp_path / "semi.lafl")
    code, report = run(capsys, "lift", "--ext", ext_path, "--method", "semidirect", "-o", out)
    assert code == 0 and report["ok"]
    lift = parse_file(out)
    assert lift.x_values == {}


def test_decide_effort_threshold(tmp_path, capsys):
    lie = str(tmp_path / "g8.laf")
    emit_file(fx.free_n2_c4(), lie)
    code, report = run(capsys, "decide", "--lie", lie, "--effort", "0")
    assert code == 1 and report["verdict"] == "undetermined"
    code, report = run(capsys, "decide", "--lie", lie, "--effort", "64")
    assert code == 1 and report["verdict"] == "not-exists"


def test_decide_rejects_a_negative_effort(tmp_path, capsys):
    # a negative budget is malformed input, not a budget that runs out
    import pytest

    lie = str(tmp_path / "g8.laf")
    emit_file(fx.free_n2_c4(), lie)
    with pytest.raises(SystemExit) as err:
        main(["decide", "--lie", lie, "--effort", "-1"])
    assert err.value.code == 2
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["ok"] is False and report["error"] == "UsageError"
    assert "--effort" in report["detail"]


def test_reduce_command(tmp_path, capsys):
    from novikov.extensions import ExtensionData

    ext = ExtensionData(
        2, 2, [Matrix([[0, 0], [0, 1]]), Matrix.zeros(2, 2)], {(0, 1): (1, 1)}
    )
    ext_path = str(tmp_path / "mixed.lafe")
    emit_file(ext, ext_path)
    out = str(tmp_path / "reduced.lafe")
    code, report = run(capsys, "reduce", "--ext", ext_path, "-o", out)
    assert code == 0
    assert report["dim_a_nilpotent"] == 1 and report["dim_a_free"] == 1
    reduced = parse_file(out)
    assert reduced.dim_a == 1
    # well-formed input whose acting algebra (r2) is not nilpotent: the
    # reduction does not apply, which is exit 1, not malformed input
    r2_path = str(tmp_path / "r2.lafe")
    with open(r2_path, "w", encoding="utf-8") as fh:
        fh.write("LAF-E 1\ndim-a 1\ndim-b 2\nphi 1 1 1 1\nb-bracket 1 2 2 1\n")
    code, report = run(capsys, "reduce", "--ext", r2_path, "-o", str(tmp_path / "r.lafe"))
    assert code == 1 and report["error"] == "NotNilpotentAlgebra"


def test_reduce_rejects_bad_a_products(tmp_path, capsys):
    ext = tmp_path / "bad.lafe"
    for label, _, lines in BAD_A_PRODUCTS:
        ext.write_text("LAF-E 1\ndim-a 2\ndim-b 1\n" + lines)
        code, report = run(capsys, "reduce", "--ext", str(ext), "-o", str(tmp_path / "r.lafe"))
        assert code == 2 and report["error"] == "InvariantViolation"
        assert label in report["detail"]


def test_reduce_and_lift_reject_a_b_product_that_is_no_lsa_structure(tmp_path, capsys):
    ext = tmp_path / "bad.lafe"
    out = str(tmp_path / "out.lafe")
    cases = ((NON_LSA_B_PRODUCT, "b-product-left-symmetric"),
             (INCOMPATIBLE_B_PRODUCT, "b-product-compatibility"))
    for document, label in cases:
        ext.write_text(document)
        for argv in (("reduce",), ("lift", "--method", "semidirect")):
            code, report = run(capsys, *argv, "--ext", str(ext), "-o", out)
            assert code == 2 and report["ok"] is False and report["command"] == argv[0]
            assert report["error"] == "InvariantViolation" and label in report["detail"]


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def test_reduce_and_quotient_outputs_pinned(tmp_path, capsys):
    # a_0 = 0: the two-step presentation of a nilpotent quotient reduces to
    # itself, byte for byte
    given = os.path.join(DATA, "two-step-quotient.lafe")
    out = str(tmp_path / "reduced.lafe")
    code, report = run(capsys, "reduce", "--ext", given, "-o", out)
    assert code == 0 and report["dim_a_free"] == 0
    assert report["section_correction"] == [[], [], []]
    assert _read(out) == _read(given)
    # a_0 != 0: the a_0-part of Omega is removed by the section correction
    from novikov.extensions import ExtensionData

    mixed = str(tmp_path / "mixed.lafe")
    ext = ExtensionData(2, 2, [Matrix([[0, 0], [0, 1]]), Matrix.zeros(2, 2)], {(0, 1): (1, 1)})
    emit_file(ext, mixed)
    code, report = run(capsys, "reduce", "--ext", mixed, "-o", out)
    assert code == 0 and report["section_correction"] == [["0"], ["-1"]]
    assert _read(out) == "LAF-E 1\ndim-a 1\ndim-b 2\nomega 1 2 1 1\n"
    # the quotient basis is the complement [0, 2, 3] of an ideal whose
    # basis vectors are not coordinate vectors
    lie = os.path.join(DATA, "change-basis-ex35.laf")
    ideal = str(tmp_path / "ideal.lafm")
    lcs = parse_file(lie).lower_central_series()
    emit_file(Matrix([list(v) for v in lcs[2].basis]), ideal)
    code, report = run(capsys, "quotient", "--lie", lie, "--ideal", ideal, "-o", out)
    assert code == 0 and report["dim"] == 3
    assert _read(out) == "LAF 1\ndim 3\nlabel 1 e1\nlabel 2 e3\nlabel 3 e4\nbracket 2 3 1 1/4\n"


def test_decide_and_check_cert(tmp_path, capsys):
    lie = str(tmp_path / "g8.laf")
    cert = str(tmp_path / "cert.lafc")
    emit_file(fx.free_n2_c4(), lie)
    code, report = run(capsys, "decide", "--lie", lie, "-o", cert)
    assert code == 1 and report["verdict"] == "not-exists"
    code, report = run(capsys, "check-cert", "--lie", lie, "--cert", cert)
    assert code == 0 and report["valid"]
    # a certificate for a different algebra must not validate
    other = str(tmp_path / "n3.laf")
    emit_file(fx.n3(), other)
    code, report = run(capsys, "check-cert", "--lie", other, "--cert", cert)
    assert code == 1 and not report["valid"]


def test_decide_exists(tmp_path, capsys):
    lie = str(tmp_path / "fil.laf")
    emit_file(fx.filiform(5), lie)
    code, report = run(capsys, "decide", "--lie", lie)
    assert code == 0 and report["verdict"] == "exists"


def test_quotient_commands(tmp_path, capsys):
    g = fx.free_n2_c4()
    lie = str(tmp_path / "g8.laf")
    ideal = str(tmp_path / "ideal.lafm")
    out = str(tmp_path / "q.laf")
    emit_file(g, lie)
    emit_file(Matrix([list(v) for v in g.lower_central_series()[3].basis]), ideal)
    code, report = run(capsys, "quotient", "--lie", lie, "--ideal", ideal, "-o", out)
    assert code == 0 and report["dim"] == 5

    p = fx.free_n3_c3_product()
    prod = str(tmp_path / "p14.lafp")
    ideal14 = str(tmp_path / "ideal14.lafm")
    emit_file(p, prod)
    rows = [[0] * 14 for _ in range(8)]
    for r, k in enumerate(range(6, 14)):
        rows[r][k] = 1
    emit_file(Matrix(rows), ideal14)
    out2 = str(tmp_path / "q14.lafp")
    code, report = run(capsys, "quotient", "--product", prod, "--ideal", ideal14, "-o", out2)
    assert code == 0 and report["dim"] == 6
    assert is_novikov(parse_file(out2))


def test_missing_subcommand_is_usage_error():
    import pytest

    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_input_error_exit_code(tmp_path, capsys):
    code, report = run(capsys, "series", "--lie", str(tmp_path / "missing.laf"))
    assert code == 2
    bad = tmp_path / "bad.laf"
    bad.write_text("LAF 1\ndim 2\nbracket 1 2 2 2/4\n")
    code, report = run(capsys, "series", "--lie", str(bad))
    assert code == 2


def test_fixture_with_zero_denominator_is_input_error(tmp_path, capsys):
    out = str(tmp_path / "x.laf")
    for name in ("r3-lambda:1/0", "half-bracket:r3-lambda:1/0"):
        code, report = run(capsys, "fixture", "--name", name, "-o", out)
        assert code == 2 and report["ok"] is False and report["error"] == "ValueError"
        assert not os.path.exists(out)


@pytest.mark.parametrize("argv", [
    ("decide", "--lie", "LIE", "--effort", "\u0663"),
    ("decide", "--lie", "LIE", "--effort", "+3"),
    ("decide", "--lie", "LIE", "--effort", "03"),
    ("fixture", "--name", "abelian:\u0663", "-o", "OUT"),
    ("fixture", "--name", "abelian:+3", "-o", "OUT"),
    ("fixture", "--name", "filiform: 5", "-o", "OUT"),
    ("fixture", "--name", "filiform:05", "-o", "OUT"),
    ("fixture", "--name", "In:-3", "-o", "OUT"),
    ("fixture", "--name", "In-product:3 ", "-o", "OUT"),
    ("fixture", "--name", "In-novikov:\u0663", "-o", "OUT"),
    ("lift", "--ext", "EXT", "--method", "jordan", "--index", "+1", "-o", "OUT"),
    ("lift", "--ext", "EXT", "--method", "jordan", "--index", " 1", "-o", "OUT"),
    ("lift", "--ext", "EXT", "--method", "jordan", "--index", "01", "-o", "OUT"),
    ("lift", "--ext", "EXT", "--method", "jordan", "--index", "\u0661", "-o", "OUT"),
    ("fixture", "--name", "r3-lambda:1e3", "-o", "OUT"),
    ("fixture", "--name", "r3-lambda:1.5", "-o", "OUT"),
    ("fixture", "--name", "r3-lambda: 1", "-o", "OUT"),
    ("fixture", "--name", "r3-lambda:+1", "-o", "OUT"),
    ("fixture", "--name", "r3-lambda:\u0661", "-o", "OUT"),
    ("fixture", "--name", "r3-lambda:1_000", "-o", "OUT"),
])
def test_integer_arguments_follow_the_laf_count_grammar(argv, tmp_path, capsys):
    # --effort and the integer fixture parameters read a LAF count,
    # 0|[1-9][0-9]* in ASCII digits, lift --index a LAF index, [1-9][0-9]*,
    # and r3-lambda a LAF rational, -?count(/count)?: str.isdecimal took the
    # Arabic-Indic 3, int() a sign, spaces and leading zeros, and Fraction()
    # exponents, decimals, spaces, signs, Arabic-Indic digits and underscores
    lie, ext, out = (str(tmp_path / name) for name in ("n3.laf", "fil.lafe", "x.laf"))
    emit_file(fx.n3(), lie)
    emit_file(two_step_solvable_from(fx.filiform(5))[0], ext)
    argv = [{"LIE": lie, "EXT": ext, "OUT": out}.get(a, a) for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 2 and report["ok"] is False and report["command"] in (None, "fixture")
    assert report["error"] == ("ValueError" if report["command"] else "UsageError")
    assert not os.path.exists(out)


def test_lift_on_non_lie_b_is_input_error(tmp_path, capsys):
    ext = tmp_path / "bad.lafe"
    ext.write_text("LAF-E 1\ndim-a 1\ndim-b 3\nb-bracket 1 2 3 1\nb-bracket 1 3 1 1\n")
    for method in ("iso", "scheuneman"):
        out = str(tmp_path / "lift.lafl")
        code, report = run(capsys, "lift", "--ext", str(ext), "--method", method, "-o", out)
        assert code == 2 and report["error"] == "JacobiViolation"


def test_usage_errors_give_json_report(tmp_path, capsys):
    import pytest

    lie = str(tmp_path / "n3.laf")
    emit_file(fx.n3(), lie)
    for argv in (["decide"], ["decide", "--lie", lie, "--effort", "abc"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert report["ok"] is False and report["error"] == "UsageError"
        assert "novikov decide" in report["detail"]
    with pytest.raises(SystemExit) as err:
        main(["decide", "--help"])
    assert err.value.code == 0


def test_main_builds_one_parser_per_process(tmp_path, capsys, monkeypatch):
    # decide, check-cert, a usage error and --help all parse with the one
    # parser main built on its first call
    import pytest

    build, calls = cli.build_parser, []

    def spy():
        calls.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", spy)
    cli._shared_parser.cache_clear()
    lie = str(tmp_path / "g8.laf")
    cert = str(tmp_path / "cert.lafc")
    emit_file(fx.free_n2_c4(), lie)
    assert run(capsys, "decide", "--lie", lie, "-o", cert)[0] == 1
    assert run(capsys, "check-cert", "--lie", lie, "--cert", cert)[0] == 0
    for argv, code in ((["decide", "--lie", lie, "--effort", "-1"], 2), (["decide", "--help"], 0)):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == code
    capsys.readouterr()
    assert len(calls) == 1
    # build_parser itself still returns a new parser on every call
    assert build() is not build()


def test_calls_sharing_the_parser_keep_their_own_arguments(tmp_path, capsys):
    # a default, a mutually exclusive flag and a usage error do not carry
    # over from one call of main to the next
    import pytest

    lie = str(tmp_path / "g8.laf")
    emit_file(fx.free_n2_c4(), lie)
    code, report = run(capsys, "decide", "--lie", lie, "--effort", "0")
    assert code == 1 and report["verdict"] == "undetermined"
    code, report = run(capsys, "decide", "--lie", lie)
    assert code == 1 and report["verdict"] == "not-exists"

    n3 = str(tmp_path / "n3.laf")
    prod = str(tmp_path / "half.lafp")
    assert run(capsys, "fixture", "--name", "n3", "-o", n3)[0] == 0
    assert run(capsys, "fixture", "--name", "half-bracket:n3", "-o", prod)[0] == 0
    code, report = run(capsys, "verify", "--lie", n3, "--product", prod, "--lsa")
    assert (code, report["property"], report["holds"]) == (0, "lsa", True)
    code, report = run(capsys, "verify", "--lie", n3, "--product", prod, "--complete")
    assert (code, report["property"], report["status"]) == (0, "complete", "complete")

    with pytest.raises(SystemExit) as err:
        main(["verify", "--lie", n3, "--product", prod, "--lsa", "--complete"])
    assert err.value.code == 2
    capsys.readouterr()
    assert run(capsys, "decide", "--lie", n3) == (
        0, {"command": "decide", "verdict": "exists", "method": "half-bracket"})
