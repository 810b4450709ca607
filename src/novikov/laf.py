"""The LAF text format family.

Line-based documents; '#' starts a comment, blank lines are ignored. A
document is a header '<TAG> 1', its count lines ('dim', 'rows'/'cols' or
'dim-a'/'dim-b', in that order) and then its entry lines. Every entry line
reads '<name> i1 ... ik value' and obeys the same rules in all six formats:
the field count is fixed per name; indices are 1-based and within the
counts; i < j wherever antisymmetry is implied (Lie brackets, LAF-E omega and
b-bracket); values are canonical nonzero rationals ("p" or "p/q" in lowest
terms, q > 1), except the name in 'label i name'; and no entry or key line
appears twice. Products and matrices are stored in full. parse returns the
object a document holds, and format_tag the tag of an object. emit writes
the entries of each name in sorted index order, so its output is canonical
and parse(emit(x)) round-trips exactly; it refuses a label or method name
that would not read back: an empty one, or one holding whitespace or '#'.
The formal grammar ships as laf_grammar.ebnf next to this module.
"""

import re
from fractions import Fraction

from .certificate import EXISTS, NOT_EXISTS, UNDETERMINED, Certificate
from .extensions import ExtensionData, LiftData
from .lie import LieAlgebra, StructureTensor, validate_lie
from .linalg import Matrix, Q

FORMAT_VERSION = 1


class LAFError(ValueError):
    def __init__(self, message, line=None):
        prefix = "line %d: " % line if line is not None else ""
        super().__init__(prefix + message)
        self.line = line


_RATIONAL = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_rational(text, line=None):
    if not _RATIONAL.match(text):
        raise LAFError("malformed rational %r" % text, line)
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        raise LAFError("zero denominator in %r" % text, line)
    if format_rational(value) != text:
        raise LAFError(
            "non-canonical rational %r; write it as %r" % (text, format_rational(value)),
            line,
        )
    return value


def format_rational(value):
    if value.denominator == 1:
        return str(value.numerator)
    return "%d/%d" % (value.numerator, value.denominator)


def _lines(text):
    for no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield no, body.split()


# The grammar's index, count and rational, in ASCII digits only.
_INDEX = re.compile(r"[1-9][0-9]*")
_COUNT = re.compile(r"0|[1-9][0-9]*")
_GRAMMAR_RATIONAL = re.compile(r"-?(?:0|[1-9][0-9]*)(?:/(?:0|[1-9][0-9]*))?")


def _int(fields, pos, line, count=False):
    """The 1-based index (or, with count set, the count) in fields[pos]."""
    if not (_COUNT if count else _INDEX).fullmatch(fields[pos]):
        kind = "a count" if count else "an index"
        raise LAFError("expected %s in field %d, found %r" % (kind, pos + 1, fields[pos]), line)
    return int(fields[pos])


def _expect_len(fields, n, line):
    if len(fields) != n:
        raise LAFError("expected %d fields, found %d" % (n, len(fields)), line)


def _nonzero(text, line):
    value = parse_rational(text, line)
    if value == 0:
        raise LAFError("zero entries are not stored", line)
    return value


def _token(text, line):
    return text


def _name(text):
    """text as a label or method name: one token of str.split, without '#',
    so that _lines reads it back as it is."""
    if text.split() != [text] or "#" in text:
        raise LAFError("cannot write %r as a name field" % (text,))
    return text


def parse(text):
    """Parse a LAF-family document from text. Returns the object it holds: a
    LieAlgebra, product StructureTensor, Matrix, ExtensionData, LiftData or Certificate."""
    rows = list(_lines(text))
    if not rows:
        raise LAFError("empty document")
    line, header = rows[0]
    if len(header) != 2 or header[0] not in TAGS:
        raise LAFError("expected a header '<TAG> 1' with TAG in %s" % (TAGS,), line)
    if header[1] != str(FORMAT_VERSION):
        raise LAFError("unsupported version %r" % header[1], line)
    return _FORMATS[header[0]][1](rows[1:])


def parse_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def format_tag(obj):
    """The tag of the format that holds obj: the first in _FORMATS whose
    type obj is."""
    for tag, (kind, _, _) in _FORMATS.items():
        if isinstance(obj, kind):
            return tag
    raise LAFError("cannot serialize %r" % type(obj).__name__)


def emit(obj):
    """Serialize a supported object to its canonical LAF text."""
    tag = format_tag(obj)
    return "\n".join(["%s %d" % (tag, FORMAT_VERSION)] + _FORMATS[tag][2](obj)) + "\n"


def emit_file(obj, path):
    """Write emit(obj) to path; nothing is written when emit refuses obj."""
    text = emit(obj)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _counts(body, keys):
    """Read the leading '<key> count' lines, in the order of keys.

    Returns the counts and the lines after them.
    """
    if len(body) < len(keys):
        raise LAFError("missing %s" % "/".join("'%s'" % key for key in keys))
    counts = []
    for (line, fields), key in zip(body, keys):
        _expect_len(fields, 2, line)
        if fields[0] != key:
            raise LAFError("expected '%s'" % key, line)
        counts.append(_int(fields, 1, line, count=True))
    return counts, body[len(keys):]


def _entries(body, directives):
    """Read '<name> i1 ... ik value' lines into {name: {0-based key: value}}.

    directives maps each name to (bounds, ordered, value): the upper bound of
    each index (None for unbounded), whether i < j is required of the first
    two indices, and the parser of the value field. Any other name is an
    error.
    """
    found = {name: {} for name in directives}
    for line, fields in body:
        name = fields[0]
        if name not in directives:
            raise LAFError("unknown directive %r" % name, line)
        bounds, ordered, value = directives[name]
        _expect_len(fields, len(bounds) + 2, line)
        key = tuple(_int(fields, pos, line) - 1 for pos in range(1, len(bounds) + 1))
        if any(bound is not None and i >= bound for i, bound in zip(key, bounds)):
            raise LAFError("%s index out of range" % name, line)
        if ordered and key[0] >= key[1]:
            raise LAFError("%s requires i < j (antisymmetry is implied)" % name, line)
        if key in found[name]:
            raise LAFError("duplicate %s entry" % name, line)
        found[name][key] = value(fields[-1], line)
    return found


def _lines_of(name, entries, fmt=format_rational):
    """The lines '<name> i1 ... ik value' of entries, in sorted key order."""
    return [
        "%s %s %s" % (name, " ".join(str(i + 1) for i in key), fmt(entries[key]))
        for key in sorted(entries)
    ]


def _tensor(n, ordered=False):
    """The directive of an n x n x n tensor entry."""
    return (n, n, n), ordered, _nonzero


def _upper(entries):
    """The entries with i < j of an antisymmetric tensor."""
    return {key: v for key, v in entries.items() if key[0] < key[1]}


def _antisymmetric(upper):
    entries = dict(upper)
    entries.update({(j, i, k): -v for (i, j, k), v in upper.items()})
    return entries


def _cells(m, prefix=()):
    return {
        prefix + (r, c): m[r, c] for r in range(m.rows) for c in range(m.cols) if m[r, c] != 0
    }


def _grid(entries, rows, cols, prefix=()):
    return Matrix(
        [[entries.get(prefix + (r, c), Q(0)) for c in range(cols)] for r in range(rows)],
        cols=cols,
    )


def _stack_cells(mats):
    return {key: v for p, m in enumerate(mats) for key, v in _cells(m, (p,)).items()}


def _stack(entries, count, n):
    return [_grid(entries, n, n, (p,)) for p in range(count)]


def _table_cells(table):
    """{(p, q, k): v} from a table {(p, q): vector}."""
    return {(p, q, k): v for (p, q), vec in table.items() for k, v in enumerate(vec) if v != 0}


def _table(entries, n):
    table = {}
    for (p, q, k), v in entries.items():
        table.setdefault((p, q), [Q(0)] * n)[k] = v
    return table


def _parse_lie(body):
    (dim,), body = _counts(body, ("dim",))
    found = _entries(body, {"label": ((dim,), False, _token), "bracket": _tensor(dim, True)})
    labels = tuple(found["label"].get((i,), "e%d" % (i + 1)) for i in range(dim))
    return validate_lie(StructureTensor(dim, _antisymmetric(found["bracket"])), labels)


def _emit_lie(g):
    labels = {(i,): label for i, label in enumerate(g.labels)}
    return (
        ["dim %d" % g.dim]
        + _lines_of("label", labels, _name)
        + _lines_of("bracket", _upper(g.bracket.entries))
    )


def _parse_product(body):
    (dim,), body = _counts(body, ("dim",))
    entries = _entries(body, {"product": _tensor(dim)})["product"]
    return StructureTensor(dim, entries)


def _emit_product(p):
    return ["dim %d" % p.dim] + _lines_of("product", p.entries)


def _parse_matrix(body):
    (rows, cols), body = _counts(body, ("rows", "cols"))
    found = _entries(body, {"entry": ((rows, cols), False, _nonzero)})
    return _grid(found["entry"], rows, cols)


def _emit_matrix(m):
    return ["rows %d" % m.rows, "cols %d" % m.cols] + _lines_of("entry", _cells(m))


def _parse_extension(body):
    (n, m), body = _counts(body, ("dim-a", "dim-b"))
    found = _entries(body, {
        "phi": ((m, n, n), False, _nonzero),
        "omega": ((m, m, n), True, _nonzero),
        "b-bracket": _tensor(m, True),
        "b-product": _tensor(m),
        "a-product": _tensor(n),
    })
    ext = ExtensionData(
        n,
        m,
        _stack(found["phi"], m, n),
        _table(found["omega"], n),
        b_bracket=StructureTensor(m, _antisymmetric(found["b-bracket"])),
        b_product=StructureTensor(m, found["b-product"]),
        a_product=StructureTensor(n, found["a-product"]),
    )
    ext.validate()
    return ext


def _emit_extension(ext):
    return (
        ["dim-a %d" % ext.dim_a, "dim-b %d" % ext.dim_b]
        + _lines_of("phi", _stack_cells(ext.phi))
        + _lines_of("omega", _table_cells(ext.omega))
        + _lines_of("b-bracket", _upper(ext.b_bracket.entries))
        + _lines_of("b-product", ext.b_product.entries)
        + _lines_of("a-product", ext.a_product.entries)
    )


def _parse_lift(body):
    (n, m), body = _counts(body, ("dim-a", "dim-b"))
    cell = ((m, n, n), False, _nonzero)
    found = _entries(body, {"x": cell, "y": cell, "omega": ((m, m, n), False, _nonzero)})
    return LiftData(
        n, m, _stack(found["x"], m, n), _stack(found["y"], m, n), _table(found["omega"], n)
    )


def _emit_lift(lift):
    return (
        ["dim-a %d" % lift.dim_a, "dim-b %d" % lift.dim_b]
        + _lines_of("x", _stack_cells(lift.x_op))
        + _lines_of("y", _stack_cells(lift.y_op))
        + _lines_of("omega", _table_cells(lift.x_values))
    )


# The key lines each verdict allows besides algebra-sha256 and verdict.
_VERDICT_KEYS = {
    EXISTS: ("method", "dim"),
    NOT_EXISTS: ("witness-kind", "constant"),
    UNDETERMINED: ("residuals",),
}

# The key lines of LAF-C and their number of value fields.
_CERT_KEYS = {
    "algebra-sha256": 1,
    "verdict": 1,
    "method": 1,
    "witness-kind": 1,
    "constant": 1,
    "dim": 1,
    "residuals": 2,
}


def _keys(body, arity):
    """Split off the key lines named in arity, each at most once.

    Returns {key: (values, line)} and the remaining lines.
    """
    keys, rest = {}, []
    for line, fields in body:
        if fields[0] not in arity:
            rest.append((line, fields))
            continue
        _expect_len(fields, arity[fields[0]] + 1, line)
        if fields[0] in keys:
            raise LAFError("duplicate %r line" % fields[0], line)
        keys[fields[0]] = (fields[1:], line)
    return keys, rest


def _parse_certificate(body):
    keys, body = _keys(body, _CERT_KEYS)

    def first(key):
        return keys[key][0][0] if key in keys else None

    verdict, h = first("verdict"), first("algebra-sha256")
    if verdict is None or h is None:
        raise LAFError("certificate requires algebra-sha256 and verdict")
    if verdict not in _VERDICT_KEYS:
        raise LAFError("unknown verdict %r" % verdict, keys["verdict"][1])
    for key, (_, line) in keys.items():
        if key not in ("algebra-sha256", "verdict") + _VERDICT_KEYS[verdict]:
            raise LAFError("%r does not belong to a %s certificate" % (key, verdict), line)
    if verdict == EXISTS:
        if "dim" not in keys:
            raise LAFError("exists certificate requires 'dim'")
        values, line = keys["dim"]
        dim = _int(values, 0, line, count=True)
        entries = _entries(body, {"product": _tensor(dim)})["product"]
        return Certificate(EXISTS, h, product=StructureTensor(dim, entries),
                           method=first("method"))
    if verdict == NOT_EXISTS:
        kind = first("witness-kind")
        if kind not in ("linear", "quadratic"):
            raise LAFError("not-exists certificate requires a witness-kind")
        if "constant" not in keys:
            raise LAFError("not-exists certificate requires the recorded constant")
        constant = parse_rational(first("constant"), keys["constant"][1])
        coeffs = _entries(body, {"coeff": ((None,), False, _nonzero)})["coeff"]
        if not coeffs:
            raise LAFError("not-exists certificate requires coeff lines")
        witness = {i: c for (i,), c in coeffs.items()}
        return Certificate(
            NOT_EXISTS, h, witness_kind=kind, witness=witness, constant=constant
        )
    _entries(body, {})  # an undetermined certificate has no entry lines
    summary = None
    if "residuals" in keys:
        values, line = keys["residuals"]
        summary = (_int(values, 0, line, count=True), _int(values, 1, line, count=True))
    return Certificate(UNDETERMINED, h, residual_summary=summary)


def _emit_certificate(cert):
    out = ["algebra-sha256 %s" % cert.algebra_hash, "verdict %s" % cert.verdict]
    if cert.verdict == EXISTS:
        if cert.method is not None:
            out.append("method %s" % _name(cert.method))
        out.append("dim %d" % cert.product.dim)
        out += _lines_of("product", cert.product.entries)
    elif cert.verdict == NOT_EXISTS:
        out.append("witness-kind %s" % cert.witness_kind)
        out += _lines_of("coeff", {(i,): c for i, c in cert.witness.items()})
        out.append("constant %s" % format_rational(cert.constant))
    elif cert.residual_summary is not None:
        out.append("residuals %d %d" % cert.residual_summary)
    return out


# tag -> (object type, parser, emitter); format_tag picks the first matching type.
_FORMATS = {
    "LAF": (LieAlgebra, _parse_lie, _emit_lie),
    "LAF-P": (StructureTensor, _parse_product, _emit_product),
    "LAF-M": (Matrix, _parse_matrix, _emit_matrix),
    "LAF-E": (ExtensionData, _parse_extension, _emit_extension),
    "LAF-L": (LiftData, _parse_lift, _emit_lift),
    "LAF-C": (Certificate, _parse_certificate, _emit_certificate),
}

TAGS = tuple(_FORMATS)
