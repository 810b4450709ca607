import json
import os
from fractions import Fraction as Q

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from novikov import fixtures as fx
from novikov.certificate import Certificate, decide_novikov, verify_certificate
from novikov.cli import main
from novikov.extensions import (
    ExtensionData,
    InvariantViolation,
    LiftData,
    assemble,
    lift_product,
    novikov_ideal_quotient,
    two_gen_lift,
    two_step_solvable_from,
)
from novikov.laf import LAFError, emit, emit_file, parse, parse_rational
from novikov.lie import JacobiViolation, LieAlgebra, StructureTensor, quotient, validate_lie
from novikov.linalg import Matrix, Subspace
from novikov.products import half_bracket_product
from novikov.rmatrix import RMatrix, deformed_algebra, induced_product

from dense_scans import commutator_tensor

DATA = os.path.join(os.path.dirname(__file__), "data")


def _ex35_extension():
    return two_step_solvable_from(fx.ex35())[0]


def _split_extension():
    return ExtensionData(
        1,
        2,
        [Matrix([[1]]), Matrix.zeros(1, 1)],
        {},
        b_bracket=fx.r2().bracket,
        b_product=fx.in_novikov_product(2),
        a_product=StructureTensor(1, {(0, 0, 0): Q(1, 2)}),
    )


def _sheared(g):
    """g in the basis f_i = e_i + e_(i+1 mod n)/2."""
    n = g.dim
    cols = [[Q(int(r == c)) + (Q(1, 2) if r == (c + 1) % n else 0) for r in range(n)] for c in range(n)]
    shear = Matrix.from_columns(cols)
    return validate_lie(g.bracket.change_basis(shear, shear.inverse()))


def _vector(n, coords):
    return tuple(Q(coords.get(k, 0)) for k in range(n))


def _n3c3_quotient():
    """free-n3-c3 modulo three central vectors that are not coordinate vectors."""
    ideal = Subspace(14, [
        _vector(14, {6: 1, 7: 2}),
        _vector(14, {8: Q(1, 2), 12: -1}),
        _vector(14, {9: 1, 10: 1, 11: -3}),
    ])
    return quotient(fx.free_n3_c3(), ideal)


def _product_quotient():
    ideal = Subspace(14, [
        _vector(14, {9: -2, 10: 2, 12: -2}),
        _vector(14, {11: 2}),
        _vector(14, {7: -2, 8: 1, 12: 2}),
    ])
    return novikov_ideal_quotient(fx.free_n3_c3_product(), ideal)


def _rmatrix():
    """T(x1) = x1, T(x8) = -x1 on free-n2-c4."""
    t = Matrix.unit(8, 0, 0) + Matrix.unit(8, 0, 7, -1)
    return RMatrix(fx.free_n2_c4(), t)


def _r2_extension():
    """b = r2 acting on Q^2 by A_1 = diag(1, 2), A_2 = E_21, with Omega != 0."""
    return ExtensionData(
        2,
        2,
        [Matrix([[1, 0], [0, 2]]), Matrix([[0, 0], [1, 0]])],
        {(0, 1): (Q(1), Q(-1, 2))},
        b_bracket=fx.r2().bracket,
    )


def _lifted_split_product():
    lift = LiftData(
        1,
        2,
        [Matrix([[2]]), Matrix([[Q(-1, 3)]])],
        [Matrix([[1]]), Matrix([[Q(1, 2)]])],
        {(0, 1): (Q(5),), (1, 1): (Q(-1, 4),)},
    )
    return lift_product(_split_extension(), lift)


def _transported_product():
    ext, split = two_step_solvable_from(_sheared(fx.ex35()))
    return split.transport_product(lift_product(ext, two_gen_lift(ext)))


# Canonical documents pinned byte for byte: every line kind of the six formats,
# and the output of every table builder on one fixed input.
GOLDEN = {
    "ex35.laf": fx.ex35,
    "free-n2-c4.laf": fx.free_n2_c4,
    "ex35_product.lafp": fx.ex35_product,
    "matrix.lafm": lambda: Matrix([[Q(1, 2), 0, -3], [0, Q(7), Q(-2, 5)]]),
    "ex35.lafe": _ex35_extension,
    "split.lafe": _split_extension,
    "ex35.lafl": lambda: two_gen_lift(_ex35_extension()),
    "n3.lafc": lambda: decide_novikov(fx.n3()),
    "free-n2-c4.lafc": lambda: decide_novikov(fx.free_n2_c4()),
    "free-n2-c4-undetermined.lafc": lambda: decide_novikov(fx.free_n2_c4(), effort=0),
    "change-basis-ex35.laf": lambda: _sheared(fx.ex35()),
    "commutator-in4.laf": lambda: validate_lie(commutator_tensor(fx.in_product(4))),
    "half-bracket-free-n2-c4.lafp": lambda: half_bracket_product(fx.free_n2_c4()),
    "deformed-free-n2-c4.laf": lambda: deformed_algebra(_rmatrix()),
    "induced-free-n2-c4.lafp": lambda: induced_product(_rmatrix()),
    "assemble-r2.laf": lambda: assemble(_r2_extension()),
    "lift-product-split.lafp": _lifted_split_product,
    "transport-ex35.lafp": _transported_product,
    "quotient-free-n3-c3.laf": _n3c3_quotient,
    "quotient-product-free-n3-c3.lafp": _product_quotient,
    "two-step-quotient.lafe": lambda: two_step_solvable_from(_sheared(_n3c3_quotient()))[0],
}


def golden_text(name):
    with open(os.path.join(DATA, name), "r", encoding="utf-8") as fh:
        return fh.read()


def round_trip(obj):
    text = emit(obj)
    back = parse(text)
    assert emit(back) == text
    return back


def test_round_trip_lie(tmp_path):
    for g in [fx.n3(), fx.sl2(), fx.free_n2_c4(), fx.free_n3_c3(), fx.abelian(2)]:
        back = round_trip(g)
        assert back.bracket == g.bracket and back.labels == g.labels
    # emit refuses a label that would not read back as it is ("x#1" read
    # back as "x", the others failed to parse with "expected 3 fields"), and
    # emit_file writes no file for what emit refuses
    path = tmp_path / "out.laf"
    bad = [LieAlgebra(StructureTensor(1, {}), (label,)) for label in ("x#1", "a b", "", "x\xa0y")]
    for obj in bad + [object()]:
        with pytest.raises(LAFError):
            emit_file(obj, str(path))
        assert not path.exists()


def test_round_trip_product():
    for p in [fx.ex35_product(), fx.free_n3_c3_product(), fx.in_product(4)]:
        assert round_trip(p) == p


def test_round_trip_matrix():
    m = Matrix([[Q(1, 2), 0, -3], [0, Q(7), Q(-2, 5)]])
    back = round_trip(m)
    assert back == m


def test_round_trip_extension_and_lift():
    ext, _ = two_step_solvable_from(fx.ex35())
    back = round_trip(ext)
    assert back.phi == ext.phi and back.omega == ext.omega
    lift = two_gen_lift(ext)
    back = round_trip(lift)
    assert back.x_op == lift.x_op and back.y_op == lift.y_op
    assert back.x_values == lift.x_values


def test_round_trip_certificates():
    g = fx.free_n2_c4()
    cert = decide_novikov(g)
    back = round_trip(cert)
    assert back.verdict == cert.verdict
    assert back.witness == cert.witness and back.constant == cert.constant
    assert verify_certificate(g, back)
    exists = decide_novikov(fx.n3())
    back = round_trip(exists)
    assert verify_certificate(fx.n3(), back)
    for method in ("x#1", "a b", "", "x\xa0y"):
        bad = Certificate(exists.verdict, exists.algebra_hash, product=exists.product,
                          method=method)
        with pytest.raises(LAFError):
            emit(bad)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_documents(name):
    text = golden_text(name)
    assert emit(GOLDEN[name]()) == text
    assert emit(parse(text)) == text


_CERT = "LAF-C 1\nalgebra-sha256 ab\n"
_EXISTS = _CERT + "verdict exists\ndim 2\n"
_NOT_EXISTS = _CERT + "verdict not-exists\nwitness-kind linear\n"
_UNDETERMINED = _CERT + "verdict undetermined\n"
_EXT = "LAF-E 1\ndim-a 1\ndim-b 1\n"

# Documents the grammar forbids: (name, text, the line that must be reported).
REJECTED = [
    ("laf-e-zero-phi", _EXT + "phi 1 1 1 0\n", 4),
    ("laf-e-zero-b-product", _EXT + "b-product 1 1 1 0\n", 4),
    ("laf-l-zero-x", "LAF-L 1\ndim-a 1\ndim-b 1\nx 1 1 1 0\n", 4),
    ("laf-c-zero-coeff", _NOT_EXISTS + "coeff 1 0\nconstant 1\n", 5),
    ("laf-c-duplicate-coeff", _NOT_EXISTS + "coeff 1 1\ncoeff 1 2\nconstant 1\n", 6),
    ("laf-c-duplicate-product", _EXISTS + "product 1 1 1 1\nproduct 1 1 1 2\n", 6),
    ("laf-c-product-out-of-range", _EXISTS + "product 1 3 1 1\n", 5),
    ("laf-c-repeated-verdict", _CERT + "verdict not-exists\nverdict exists\ndim 2\n", 4),
    ("laf-c-repeated-hash", _CERT + "algebra-sha256 cd\nverdict undetermined\n", 3),
    (
        "laf-c-repeated-witness-kind",
        _NOT_EXISTS + "witness-kind quadratic\ncoeff 1 1\nconstant 1\n",
        5,
    ),
    ("laf-c-repeated-constant", _NOT_EXISTS + "coeff 1 1\nconstant 1\nconstant 2\n", 7),
    ("laf-c-repeated-dim", _EXISTS + "dim 3\n", 5),
    ("laf-c-repeated-method", _CERT + "verdict exists\nmethod a\nmethod b\ndim 1\n", 5),
    ("laf-c-repeated-residuals", _UNDETERMINED + "residuals 1 2\nresiduals 3 4\n", 5),
    ("laf-repeated-label", "LAF 1\ndim 2\nlabel 1 a\nlabel 1 b\n", 4),
    ("laf-signed-count", "LAF 1\ndim +2\n", 2),
    ("laf-non-ascii-count", "LAF 1\ndim \u0662\n", 2),
    ("laf-leading-zero-index", "LAF 1\ndim 2\nbracket 01 2 2 1\n", 3),
    ("laf-signed-index", "LAF 1\ndim 2\nbracket +1 2 2 1\n", 3),
    ("laf-underscore-index", "LAF 1\ndim 12\nbracket 1_0 11 1 1\n", 3),
    ("laf-non-ascii-index", "LAF 1\ndim 2\nbracket \u0661 2 2 1\n", 3),
    ("laf-c-signed-residuals", _UNDETERMINED + "residuals +1 2\n", 4),
    ("laf-leading-zero-count", "LAF 1\ndim 02\nbracket 1 2 2 1\n", 2),
    ("laf-c-leading-zero-residuals", _UNDETERMINED + "residuals 007 1\n", 4),
    ("laf-c-exists-constant", _EXISTS + "constant 5\n", 5),
    ("laf-c-exists-witness-kind", _CERT + "verdict exists\nwitness-kind linear\ndim 2\n", 4),
    ("laf-c-not-exists-dim", _NOT_EXISTS + "coeff 1 1\nconstant 1\ndim 2\n", 7),
    ("laf-c-not-exists-method", _NOT_EXISTS + "method x\ncoeff 1 1\nconstant 1\n", 5),
    ("laf-c-undetermined-constant", _UNDETERMINED + "constant 1\n", 4),
]


@pytest.mark.parametrize("text,line", [r[1:] for r in REJECTED], ids=[r[0] for r in REJECTED])
def test_forbidden_input_rejected_with_line(text, line):
    with pytest.raises(LAFError) as err:
        parse(text)
    assert err.value.line == line


def test_rational_canonicality():
    assert parse_rational("1/2") == Q(1, 2)
    assert parse_rational("-7") == Q(-7)
    for bad in ("2/4", "+3", "3/1", "1/-2", "0/5", "-0", "a"):
        with pytest.raises(LAFError):
            parse_rational(bad)


def test_parse_errors_positioned():
    with pytest.raises(LAFError) as err:
        parse("LAF 1\ndim 2\nbracket 1 1 2 1\n")
    assert "line 3" in str(err.value)
    with pytest.raises(LAFError):
        parse("LAF 1\ndim 2\nbracket 2 1 2 1\n")
    with pytest.raises(LAFError):
        parse("LAF 2\ndim 2\n")
    with pytest.raises(LAFError):
        parse("NOPE 1\n")
    with pytest.raises(LAFError):
        parse("")


def test_invalid_algebra_rejected_by_validators():
    # a document that parses but violates the Jacobi identity
    text = "LAF 1\ndim 3\nbracket 1 2 3 1\nbracket 1 3 1 1\n"
    with pytest.raises(Exception):
        parse(text)


# b-bracket [b1, b2] = b3, [b1, b3] = b1 fails the Jacobi identity.
NON_LIE_B = "LAF-E 1\ndim-a 1\ndim-b 3\nb-bracket 1 2 3 1\nb-bracket 1 3 1 1\n"


def test_extension_with_non_lie_b_rejected():
    with pytest.raises(JacobiViolation):
        parse(NON_LIE_B)


# a-products on a of dimension 2: e1*e2 = e1 alone is not commutative;
# e1*e1 = e1 with e2*e2 = e1 is, but (e1*e2)*e2 = 0 while e1*(e2*e2) = e1
BAD_A_PRODUCTS = (
    ("a-product-commutative", (0, 1), "a-product 1 2 1 1\n"),
    ("a-product-associative", (0, 1, 1), "a-product 1 1 1 1\na-product 2 2 1 1\n"),
)


def test_extension_with_bad_a_product_rejected():
    for label, witness, lines in BAD_A_PRODUCTS:
        with pytest.raises(InvariantViolation) as err:
            parse("LAF-E 1\ndim-a 2\ndim-b 1\n" + lines)
        assert (err.value.equation, err.value.witness) == (label, witness)


def test_comments_and_blank_lines():
    text = "# header comment\nLAF 1\n\ndim 2  # with trailing comment\nbracket 1 2 1 1\n"
    g = parse(text)
    assert g.dim == 2


# Replacement fields: zero, non-canonical and malformed values, and indices out
# of range. No count exceeds 9, since validate_lie is cubic in dim.
TOKENS = ("0", "-0", "2/4", "x", "9", "-1", "1/0", "")


@st.composite
def mutated_documents(draw, names=tuple(sorted(GOLDEN))):
    """A golden document with one to three lines deleted, duplicated,
    truncated, or with one field replaced by a token from TOKENS."""
    name = draw(st.sampled_from(names))
    lines = golden_text(name).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(("delete", "duplicate", "truncate", "replace")))
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "truncate":
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
        elif lines[i].split():  # a truncated line may have no field left
            fields = lines[i].split()
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(TOKENS))
            lines[i] = " ".join(fields)
    return name, "\n".join(lines) + "\n"


@settings(max_examples=400, derandomize=True, deadline=None)
@given(mutated_documents())
def test_mutated_documents_raise_only_value_errors(case):
    # Anything but a ValueError subclass (IndexError, KeyError, TypeError, ...)
    # propagates and fails the test.
    try:
        parse(case[1])
    except ValueError:
        pass


# The command that reads each mutated golden document, and the algebra it
# is checked against.
_CLI_READERS = {
    ".laf": lambda doc: ["check-cert", "--lie", doc, "--cert", os.path.join(DATA, "n3.lafc")],
    ".lafp": lambda doc: [
        "verify", "--lie", os.path.join(DATA, "ex35.laf"), "--product", doc, "--novikov"
    ],
    ".lafc": lambda doc: ["check-cert", "--lie", os.path.join(DATA, "ex35.laf"), "--cert", doc],
}


@settings(
    max_examples=40,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(mutated_documents(tuple(n for n in sorted(GOLDEN) if n.endswith(tuple(_CLI_READERS)))))
def test_cli_reports_malformed_documents(tmp_path, capsys, case):
    name, text = case
    suffix = os.path.splitext(name)[1]
    try:
        parse(text)
        return
    except ValueError:
        pass
    doc = str(tmp_path / ("mutated" + suffix))
    with open(doc, "w", encoding="utf-8") as fh:
        fh.write(text)
    assert main(_CLI_READERS[suffix](doc)) == 2
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["ok"] is False and report["detail"]


def _companions(tmp_path, doc, method):
    """The names in _COMMAND_READERS' command lines, resolved: DOC the mutated
    document, METHOD a lift method, and well-formed companions, the
    5-dimensional ex35 with an ideal and an operator of its size and n3 for
    documents of matrix.lafm's 3 columns."""
    g = fx.ex35()
    paths = {
        "DOC": doc,
        "METHOD": method,
        "ideal5": str(tmp_path / "ideal5.lafm"),
        "t5": str(tmp_path / "t5.lafm"),
        "n3": str(tmp_path / "n3.laf"),
        "out": str(tmp_path / "out"),
    }
    emit_file(Matrix([list(v) for v in g.lower_central_series()[2].basis]), paths["ideal5"])
    emit_file(Matrix.unit(5, 0, 1), paths["t5"])
    emit_file(fx.n3(), paths["n3"])
    return paths


# The readers of reduce, lift, quotient and rmatrix: the suffix of the
# mutated document and the command line that reads it as DOC.
_COMMAND_READERS = [
    (".lafe", ("reduce", "--ext", "DOC", "-o", "out")),
    (".lafe", ("lift", "--ext", "DOC", "--method", "METHOD", "-o", "out")),
    (".laf", ("quotient", "--lie", "DOC", "--ideal", "ideal5", "-o", "out")),
    (".lafp", ("quotient", "--product", "DOC", "--ideal", "ideal5", "-o", "out")),
    (".lafm", ("quotient", "--lie", "n3", "--ideal", "DOC", "-o", "out")),
    (".laf", ("rmatrix", "--lie", "DOC", "--t", "t5", "--check")),
    (".lafm", ("rmatrix", "--lie", "n3", "--t", "DOC", "--check")),
]


@st.composite
def mutated_command_inputs(draw):
    suffix, command = draw(st.sampled_from(_COMMAND_READERS))
    _, text = draw(mutated_documents(tuple(n for n in sorted(GOLDEN) if n.endswith(suffix))))
    method = draw(st.sampled_from(("scheuneman", "twogen", "jordan", "iso", "semidirect")))
    return suffix, command, method, text


@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(mutated_command_inputs())
def test_cli_reports_malformed_command_inputs(tmp_path, capsys, case):
    # a document the grammar rejects exits 2 with the JSON report; one that
    # parses runs to a report as well, never to a traceback
    suffix, command, method, text = case
    doc = str(tmp_path / ("mutated" + suffix))
    with open(doc, "w", encoding="utf-8") as fh:
        fh.write(text)
    names = _companions(tmp_path, doc, method)
    code = main([names.get(arg, arg) for arg in command])
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["command"] == command[0]
    try:
        parse(text)
    except ValueError:
        assert code == 2 and report["ok"] is False and report["detail"]
        return
    assert code in (0, 1, 2)
