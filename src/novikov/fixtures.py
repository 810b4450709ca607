"""Named Lie algebras and products used as fixtures across the toolkit."""

from .laf import _COUNT, _GRAMMAR_RATIONAL
from .lie import StructureTensor, validate_lie
from .linalg import Q, vunit


class UnknownFixture(KeyError):
    pass


def abelian(n):
    return validate_lie(StructureTensor(n, {}), tuple("e%d" % (i + 1) for i in range(n)))


def n3():
    t = StructureTensor.antisymmetric_from_brackets(3, {(0, 1): vunit(3, 2)})
    return validate_lie(t)


def r2():
    t = StructureTensor.antisymmetric_from_brackets(2, {(0, 1): vunit(2, 1)})
    return validate_lie(t, ("x1", "x2"))


def r3():
    brackets = {(0, 1): vunit(3, 1), (0, 2): (Q(0), Q(1), Q(1))}
    return validate_lie(StructureTensor.antisymmetric_from_brackets(3, brackets))


def r3_lambda(lam):
    lam = Q(lam)
    brackets = {(0, 1): vunit(3, 1), (0, 2): (Q(0), Q(0), lam)}
    return validate_lie(StructureTensor.antisymmetric_from_brackets(3, brackets))


def sl2():
    brackets = {
        (0, 1): vunit(3, 2),
        (0, 2): vunit(3, 0, -2),
        (1, 2): vunit(3, 1, 2),
    }
    return validate_lie(StructureTensor.antisymmetric_from_brackets(3, brackets))


def ex35():
    """The 5-dimensional free 3-step nilpotent algebra on two generators.

    Basis (A, B, C, X, Y) with [X,Y] = A, [X,A] = B, [Y,A] = C.
    """
    brackets = {
        (0, 3): vunit(5, 1, -1),  # [A,X] = -B
        (0, 4): vunit(5, 2, -1),  # [A,Y] = -C
        (3, 4): vunit(5, 0),      # [X,Y] = A
    }
    t = StructureTensor.antisymmetric_from_brackets(5, brackets)
    return validate_lie(t, ("A", "B", "C", "X", "Y"))


def free_n2_c4():
    """Free 4-step nilpotent Lie algebra on two generators, dimension 8."""
    brackets = {
        (0, 1): vunit(8, 2),  # x3 = [x1,x2]
        (0, 2): vunit(8, 3),  # x4 = [x1,x3]
        (1, 2): vunit(8, 4),  # x5 = [x2,x3]
        (0, 3): vunit(8, 5),  # x6 = [x1,x4]
        (1, 3): vunit(8, 6),  # x7 = [x2,x4]
        (0, 4): vunit(8, 6),  # x7 = [x1,x5]
        (1, 4): vunit(8, 7),  # x8 = [x2,x5]
    }
    t = StructureTensor.antisymmetric_from_brackets(8, brackets)
    return validate_lie(t, tuple("x%d" % (i + 1) for i in range(8)))


def free_n3_c3():
    """Free 3-step nilpotent Lie algebra on three generators, dimension 14."""
    n = 14
    brackets = {
        (0, 1): vunit(n, 3),   # x4
        (0, 2): vunit(n, 4),   # x5
        (1, 2): vunit(n, 5),   # x6
        (0, 3): vunit(n, 6),   # x7
        (1, 3): vunit(n, 7),   # x8
        (2, 3): vunit(n, 8),   # x9
        (0, 4): vunit(n, 9),   # x10
        (1, 4): vunit(n, 10),  # x11
        (2, 4): vunit(n, 11),  # x12
        (1, 5): vunit(n, 12),  # x13
        (2, 5): vunit(n, 13),  # x14
    }
    v = [Q(0)] * n
    v[10], v[8] = Q(1), Q(-1)
    brackets[(0, 5)] = tuple(v)  # [x1,x6] = x11 - x9
    t = StructureTensor.antisymmetric_from_brackets(n, brackets)
    return validate_lie(t, tuple("x%d" % (i + 1) for i in range(n)))


def filiform(n):
    """Standard filiform algebra L_n: [e1, e_i] = e_(i+1) for 2 <= i <= n-1.

    Nilpotent of maximal class n-1, with abelian commutator algebra.
    """
    if n < 3:
        raise ValueError("filiform fixtures need dimension at least 3")
    brackets = {(0, i): vunit(n, i + 1) for i in range(1, n - 1)}
    return validate_lie(StructureTensor.antisymmetric_from_brackets(n, brackets))


def in_lie(n):
    """The Lie algebra [e1, ej] = ej of the simple left-symmetric algebra I_n."""
    if n < 2:
        raise ValueError("I_n needs n >= 2")
    brackets = {(0, j): vunit(n, j) for j in range(1, n)}
    return validate_lie(StructureTensor.antisymmetric_from_brackets(n, brackets))


def ex35_product():
    """Novikov product on ex35: A*X = -B/2, X*A = B/2, Y*A = C, Y*X = -A."""
    products = {
        (0, 3): vunit(5, 1, Q(-1, 2)),
        (3, 0): vunit(5, 1, Q(1, 2)),
        (4, 0): vunit(5, 2),
        (4, 3): vunit(5, 0, -1),
    }
    return StructureTensor.from_products(5, products)


def free_n3_c3_product():
    """The Novikov product table on the 14-dimensional free 3-step algebra."""
    n = 14
    h = Q(1, 2)
    products = {
        (0, 2): vunit(n, 4),        # x1*x3 = x5
        (0, 3): vunit(n, 6, h),     # x1*x4 = x7/2
        (0, 4): vunit(n, 9),        # x1*x5 = x10
        (1, 0): vunit(n, 3, -1),    # x2*x1 = -x4
        (1, 2): vunit(n, 5),        # x2*x3 = x6
        (1, 3): vunit(n, 7),        # x2*x4 = x8
        (1, 4): vunit(n, 10),       # x2*x5 = x11
        (1, 5): vunit(n, 12),       # x2*x6 = x13
        (2, 3): vunit(n, 8, h),     # x3*x4 = x9/2
        (2, 4): vunit(n, 11, h),    # x3*x5 = x12/2
        (2, 5): vunit(n, 13, h),    # x3*x6 = x14/2
        (3, 0): vunit(n, 6, -h),    # x4*x1 = -x7/2
        (3, 2): vunit(n, 8, -h),    # x4*x3 = -x9/2
        (4, 2): vunit(n, 11, -h),   # x5*x3 = -x12/2
        (5, 0): vunit(n, 8, h),     # x6*x1 = x9/2
        (5, 2): vunit(n, 13, -h),   # x6*x3 = -x14/2
    }
    v = [Q(0)] * n
    v[10], v[8] = Q(1), Q(-1, 2)
    products[(0, 5)] = tuple(v)     # x1*x6 = x11 - x9/2
    return StructureTensor.from_products(n, products)


def in_product(n):
    """The simple left-symmetric algebra I_n (left-symmetric, not Novikov)."""
    if n < 2:
        raise ValueError("I_n needs n >= 2")
    products = {(0, 0): vunit(n, 0, 2)}
    for j in range(1, n):
        products[(0, j)] = vunit(n, j)
        products[(j, j)] = vunit(n, 0)
    return StructureTensor.from_products(n, products)


def in_novikov_product(n):
    """The Novikov alternative on I_n's Lie algebra: e1*ej = ej, rest zero."""
    if n < 2:
        raise ValueError("I_n needs n >= 2")
    products = {(0, j): vunit(n, j) for j in range(1, n)}
    return StructureTensor.from_products(n, products)


def _fraction(raw):
    """raw as a rational of LAF's grammar (laf._GRAMMAR_RATIONAL), not
    necessarily in lowest terms: "2/4" is 1/2."""
    if not _GRAMMAR_RATIONAL.fullmatch(raw):
        raise ValueError("expected a rational, found %r" % raw)
    try:
        return Q(raw)
    except ZeroDivisionError:  # "1/0" is a malformed value like any other
        raise ValueError("zero denominator in %r" % raw) from None


def _count(raw):
    """raw as a count of LAF's grammar (laf._COUNT), the one parser of the
    integer parameters here and of decide's --effort."""
    if not _COUNT.fullmatch(raw):
        raise ValueError("expected a count, found %r" % raw)
    return int(raw)


_PARAMETRIC = {
    "abelian": (abelian, _count),
    "r3-lambda": (r3_lambda, _fraction),
    "filiform": (filiform, _count),
    "In": (in_lie, _count),
}

_PRODUCT_PLAIN = {
    "ex35-product": ex35_product,
    "free-n3-c3-product": free_n3_c3_product,
}

_PRODUCT_PARAMETRIC = {
    "In-product": in_product,
    "In-novikov": in_novikov_product,
}


def product_fixture(name):
    """Look up a named product fixture.

    "In-product:3" and "In-novikov:3" take the dimension after the colon;
    "half-bracket:<lie fixture>" builds x*y = [x,y]/2 on any Lie fixture.
    """
    from .products import half_bracket_product

    if name.startswith("half-bracket:"):
        return half_bracket_product(fixture(name.partition(":")[2]))
    head, colon, raw = name.partition(":")
    if colon and head in _PRODUCT_PARAMETRIC:
        return _PRODUCT_PARAMETRIC[head](_count(raw))
    if not colon and name in _PRODUCT_PLAIN:
        return _PRODUCT_PLAIN[name]()
    raise UnknownFixture(name)

_PLAIN = {
    "n3": n3,
    "r2": r2,
    "r3": r3,
    "sl2": sl2,
    "ex35": ex35,
    "free-n2-c4": free_n2_c4,
    "free-n3-c3": free_n3_c3,
}


def fixture(name):
    """Look up a named Lie algebra fixture.

    Parametric names carry their parameter after a colon: "abelian:5",
    "filiform:6" and "In:4" take the dimension, "r3-lambda:-1/2" takes
    lambda. A parametric name without its value is unknown.
    """
    head, colon, raw = name.partition(":")
    if colon and head in _PARAMETRIC:
        fn, parse = _PARAMETRIC[head]
        return fn(parse(raw))
    if not colon and name in _PLAIN:
        return _PLAIN[name]()
    raise UnknownFixture(head)
