"""Command-line front end.

Exit codes: 0 the property holds / the construction succeeded; 1 the
property is false, the construction is inapplicable, or the verdict is
NotExists/Undetermined (the report distinguishes these); 2 malformed input,
a bad command line included.
Every command prints a single JSON report to stdout; failed conditions are
named by their label: "eq-1", "eq-2", "eq-3" or "dimension-mismatch" from
verify, "cybe" or "novbed" from rmatrix.
"""

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import certificate as cert_mod
from . import laf
from .extensions import (
    GammaExpansionFailed,
    HypothesisFailed,
    LiftCheckFailed,
    NotInvertible,
    NotProductIdeal,
    NotTwoStepSolvable,
    iso_lift,
    jordan_lift,
    novikov_ideal_quotient,
    scheuneman_lift,
    semidirect_lift,
    two_gen_lift,
)
from .fixtures import UnknownFixture, _count, fixture, product_fixture
from .lie import NotAnIdeal, StructureTensor, quotient
from .linalg import NotRegularNilpotent, Subspace, vunit
from .products import (
    is_complete,
    is_compatible,
    is_left_symmetric,
    is_novikov,
)
from .reduction import NotNilpotentAlgebra, induced_nilpotent_extension
from .rmatrix import PreconditionFailed, RMatrix, check_cybe, check_novbed, induced_product

INPUT_ERRORS = (OSError, UnknownFixture, ValueError)

CONSTRUCTION_ERRORS = (
    HypothesisFailed,
    LiftCheckFailed,
    NotInvertible,
    NotRegularNilpotent,
    GammaExpansionFailed,
    NotTwoStepSolvable,
    NotAnIdeal,
    NotProductIdeal,
    NotNilpotentAlgebra,
)


def _jsonable(value):
    if isinstance(value, Fraction):
        return laf.format_rational(value)
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def _report(**fields):
    print(json.dumps(_jsonable(fields)))


def _witness_1based(witness):
    if witness is None:
        return None
    if isinstance(witness, tuple):
        return [w + 1 if isinstance(w, int) else _jsonable(w) for w in witness]
    return _jsonable(witness)


def _load(path, expected_tag):
    obj = laf.parse_file(path)
    tag = laf.format_tag(obj)
    if tag != expected_tag:
        raise laf.LAFError("%s: expected a %s document, found %s" % (path, expected_tag, tag))
    return obj


def _cmd_verify(args):
    g = _load(args.lie, "LAF")
    p = _load(args.product, "LAF-P")
    if args.lsa or args.novikov:
        check = is_left_symmetric(p) if args.lsa else is_novikov(p)
        prop = "lsa" if args.lsa else "novikov"
        if not check:
            _report(command="verify", property=prop, holds=False,
                    condition=check.label, witness=_witness_1based(check.witness))
            return 1
        compat = is_compatible(p, g)
        if not compat:
            _report(command="verify", property=prop, holds=False,
                    condition=compat.label, witness=_witness_1based(compat.witness))
            return 1
        _report(command="verify", property=prop, holds=True)
        return 0
    result = is_complete(p)
    if result.kind == "complete":
        _report(command="verify", property="complete", holds=True, status=result.kind)
        return 0
    _report(command="verify", property="complete", holds=False, status=result.kind,
            witness=_jsonable(result.witness))
    return 1


def _cmd_series(args):
    g = _load(args.lie, "LAF")
    _report(
        command="series",
        derived_dims=[s.dim for s in g.derived_series()],
        lower_central_dims=[s.dim for s in g.lower_central_series()],
        derived_length=g.derived_length(),
        nilpotency_class=g.nilpotency_class(),
    )
    return 0


def _cmd_fixture(args):
    try:
        payload = fixture(args.name)
    except UnknownFixture:
        payload = product_fixture(args.name)
    laf.emit_file(payload, args.output)
    _report(command="fixture", name=args.name, output=args.output,
            kind="product" if isinstance(payload, StructureTensor) else "lie")
    return 0


def _cmd_rmatrix(args):
    if args.induce and not args.output:
        raise ValueError("rmatrix --induce requires -o")
    g = _load(args.lie, "LAF")
    t = _load(args.t, "LAF-M")
    r = RMatrix(g, t)
    if args.induce:
        try:
            product = induced_product(r)
        except PreconditionFailed as exc:
            _report(command="rmatrix", mode="induce", ok=False, condition=exc.check,
                    witness=_witness_1based(exc.witness))
            return 1
        laf.emit_file(product, args.output)
        _report(command="rmatrix", mode="induce", ok=True, output=args.output)
        return 0
    cybe = check_cybe(r)
    novbed = check_novbed(r)
    fields = {"command": "rmatrix", "mode": "check", "cybe": bool(cybe), "novbed": bool(novbed)}
    if not cybe:
        fields["cybe_witness"] = _witness_1based(cybe.witness)
    if not novbed:
        fields["novbed_witness"] = _witness_1based(novbed.witness)
    _report(**fields)
    return 0 if (cybe and novbed) else 1


def _parse_vector(text, dim):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != dim:
        raise laf.LAFError("expected %d comma-separated coordinates" % dim)
    return tuple(laf.parse_rational(p) for p in parts)


def _first_lift(construct, dim_b):
    """construct(p) for the first b index p where it applies; else its last error."""
    last = HypothesisFailed("b is empty")
    for p in range(dim_b):
        try:
            return construct(p)
        except CONSTRUCTION_ERRORS as exc:
            last = exc
    raise last


def _cmd_lift(args):
    ext = _load(args.ext, "LAF-E")
    method = args.method
    if method == "scheuneman":
        lift = scheuneman_lift(ext)
    elif method == "twogen":
        lift = two_gen_lift(ext)
    elif method == "jordan":
        if args.index is not None:
            lift = jordan_lift(ext, args.index - 1)
        else:
            lift = _first_lift(lambda p: jordan_lift(ext, p), ext.dim_b)
    elif method == "iso":
        if args.e is not None:
            lift = iso_lift(ext, _parse_vector(args.e, ext.dim_b))
        else:
            lift = _first_lift(lambda p: iso_lift(ext, vunit(ext.dim_b, p)), ext.dim_b)
    else:
        lift = semidirect_lift(ext)
    laf.emit_file(lift, args.output)
    _report(command="lift", method=method, ok=True, output=args.output)
    return 0


def _cmd_reduce(args):
    ext = _load(args.ext, "LAF-E")
    ind = induced_nilpotent_extension(ext)
    laf.emit_file(ind.ext_n, args.output)
    _report(
        command="reduce",
        ok=True,
        output=args.output,
        dim_a_nilpotent=ind.dim_n,
        dim_a_free=ind.dim_0,
        section_correction=[_jsonable(list(v)) for v in ind.lam],
    )
    return 0


def _cmd_decide(args):
    g = _load(args.lie, "LAF")
    cert = cert_mod.decide_novikov(g, effort=args.effort)
    if args.output:
        laf.emit_file(cert, args.output)
    fields = {"command": "decide", "verdict": cert.verdict}
    if cert.verdict == cert_mod.EXISTS:
        fields["method"] = cert.method
    elif cert.verdict == cert_mod.NOT_EXISTS:
        fields["witness_kind"] = cert.witness_kind
        fields["witness_size"] = len(cert.witness)
    else:
        fields["residuals"] = cert.residual_summary
    _report(**fields)
    return 0 if cert.verdict == cert_mod.EXISTS else 1


def _cmd_check_cert(args):
    g = _load(args.lie, "LAF")
    cert = _load(args.cert, "LAF-C")
    ok = cert_mod.verify_certificate(g, cert)
    _report(command="check-cert", verdict=cert.verdict, valid=ok)
    return 0 if ok else 1


def _cmd_quotient(args):
    ideal_matrix = _load(args.ideal, "LAF-M")
    if args.lie:
        g = _load(args.lie, "LAF")
        ideal = Subspace(g.dim, ideal_matrix.data)
        result = quotient(g, ideal)
    else:
        p = _load(args.product, "LAF-P")
        ideal = Subspace(p.dim, ideal_matrix.data)
        result = novikov_ideal_quotient(p, ideal)
    laf.emit_file(result, args.output)
    _report(command="quotient", ok=True, output=args.output, dim=result.dim)
    return 0


def _index(raw):
    """raw as a 1-based index of LAF's grammar (laf._INDEX), for lift --index."""
    if not laf._INDEX.fullmatch(raw):
        raise ValueError("expected a 1-based index, found %r" % raw)
    return int(raw)


class UsageError(ValueError):
    """A command line that argparse rejects."""


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print usage and exit; the
    subcommand parsers inherit this class."""

    def error(self, message):
        raise UsageError("%s: %s" % (self.prog, message))


def build_parser():
    parser = _Parser(
        prog="novikov",
        description="Exact tools for Novikov and left-symmetric structures on Lie algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check a product against an algebra")
    p.add_argument("--lie", required=True)
    p.add_argument("--product", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--lsa", action="store_true")
    group.add_argument("--novikov", action="store_true")
    group.add_argument("--complete", action="store_true")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("series", help="derived and lower central series")
    p.add_argument("--lie", required=True)
    p.set_defaults(handler=_cmd_series)

    p = sub.add_parser("fixture", help="write a named fixture")
    p.add_argument("--name", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_fixture)

    p = sub.add_parser("rmatrix", help="check an r-matrix or induce its product")
    p.add_argument("--lie", required=True)
    p.add_argument("--t", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--check", action="store_true")
    group.add_argument("--induce", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_rmatrix)

    p = sub.add_parser("lift", help="construct a lift on an extension")
    p.add_argument("--ext", required=True)
    p.add_argument(
        "--method",
        required=True,
        choices=["scheuneman", "twogen", "jordan", "iso", "semidirect"],
    )
    p.add_argument("--index", type=_index, help="1-based b index for the jordan method")
    p.add_argument("--e", help="comma-separated b coordinates for the iso method")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_lift)

    p = sub.add_parser("reduce", help="induced nilpotent extension")
    p.add_argument("--ext", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("decide", help="decide existence of a Novikov structure")
    p.add_argument("--lie", required=True)
    p.add_argument("--effort", type=_count, default=cert_mod.DEFAULT_EFFORT)
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_decide)

    p = sub.add_parser("check-cert", help="re-verify a certificate")
    p.add_argument("--lie", required=True)
    p.add_argument("--cert", required=True)
    p.set_defaults(handler=_cmd_check_cert)

    p = sub.add_parser("quotient", help="quotient an algebra or product by an ideal")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--lie")
    group.add_argument("--product")
    p.add_argument("--ideal", required=True, help="LAF-M file whose rows span the ideal")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_quotient)
    return parser


@functools.cache
def _shared_parser():
    """The parser that main uses, built on its first call and then reused:
    parsing sets no state on the parser, so in-process calls can share it."""
    return build_parser()


def main(argv=None):
    try:
        args = _shared_parser().parse_args(argv)
    except UsageError as exc:
        _report(command=None, ok=False, error="UsageError", detail=str(exc))
        raise SystemExit(2)  # as argparse does, so in-process callers see the same exit
    try:
        return args.handler(args)
    except CONSTRUCTION_ERRORS as exc:
        _report(command=args.command, ok=False, error=type(exc).__name__, detail=str(exc))
        return 1
    except INPUT_ERRORS as exc:
        _report(command=args.command, ok=False, error=type(exc).__name__, detail=str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
