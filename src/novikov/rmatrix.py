"""Classical r-matrices: deformed brackets and the Yang-Baxter route to
Novikov structures.

An operator T on the space of a Lie algebra g that satisfies the classical
Yang-Baxter equation (CYBE) together with the auxiliary identity
[x, T[y, Tz]] = [y, T[x, Tz]] ("novbed") induces the Novikov product
x*y = [Tx, y] on the deformed algebra g_T with bracket
[x,y]_T = [Tx, y] + [x, Ty].

Everything reads the tensor of [T e_i, e_j] and the deformed bracket, each
built once per RMatrix (_t_product, deformed_bracket), and each condition
is decided by a kernel of the package: novbed is the eq-2 scan of that
product, and CYBE compares two tensors built by StructureTensor.change_basis.
"""

from .extensions import HypothesisFailed
from .lie import StructureTensor, _first_defect, validate_lie
from .linalg import DimensionMismatch, Matrix, _add_scaled, _to_fractions
from .products import _EQ2, Verdict


class PreconditionFailed(ValueError):
    def __init__(self, check, witness):
        super().__init__("%s fails at %s" % (check, (witness,)))
        self.check = check
        self.witness = witness


class RMatrix:
    """An immutable linear operator T paired with the Lie algebra it
    deforms; the product of [T e_i, e_j] and the deformed bracket are kept
    once built (_t_product, deformed_bracket)."""

    __slots__ = ("g", "t", "_product", "_deformed")

    def __init__(self, g, t):
        if t.rows != g.dim or t.cols != g.dim:
            raise DimensionMismatch("operator size does not match the algebra")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "_product", None)
        object.__setattr__(self, "_deformed", None)

    def __setattr__(self, name, value):
        raise AttributeError("RMatrix is immutable")

    def __repr__(self):
        return "RMatrix(dim=%d)" % self.g.dim


def _t_product(r):
    """The tensor of x*y = [Tx, y], built once per RMatrix: [T e_i, e_j] is
    the sum of T[l, i] [e_l, e_j] over l, summed in ints over the nonzeros
    of the int forms of T (e * T) and the bracket (d * [,])."""
    product = r._product
    if product is None:
        d, _, left = r.g.bracket._int_form()[:3]
        e, _, t_rows = r.t._int_form()
        acc = {}
        for l, terms in enumerate(t_rows):
            for j, row in left.get(l, {}).items():
                for i, x in terms:
                    _add_scaled(acc.setdefault((i, j), {}), row, x)
        entries = {(i, j, k): c for (i, j), out in sorted(acc.items())
                   for k, c in sorted(out.items())}
        _to_fractions([entries], d * e)
        product = StructureTensor(r.g.dim, entries)
        object.__setattr__(r, "_product", product)
    return product


def deformed_bracket(r):
    """Structure tensor of [x,y]_T = [Tx, y] + [x, Ty], Jacobi not implied:
    the tensor of [T e_i, e_j] minus its transpose, built once per RMatrix."""
    if r._deformed is None:
        product = _t_product(r).entries
        acc = dict(product)
        for (i, j, k), c in product.items():
            acc[(j, i, k)] = acc.get((j, i, k), 0) - c
        object.__setattr__(r, "_deformed", StructureTensor(
            r.g.dim, {key: acc[key] for key in sorted(acc) if acc[key]}))
    return r._deformed


def deformed_algebra(r):
    """The Lie algebra g_T; raises if the deformed bracket violates Jacobi."""
    return validate_lie(deformed_bracket(r), r.g.labels)


def check_cybe(r):
    """[Tx, Ty] = T[x, y]_T on all basis pairs i < j, the first failing pair
    in increasing order the witness: T is a homomorphism from g_T to g.

    change_basis(B, C) gives C c(Bx, By): [T e_a, T e_b] with B = T, C = 1,
    and T[e_a, e_b]_T with B = 1, C = T. The eq-1 defect of x*y = [Tx, y] at
    (x, y, z) is [CYBE(x, y), z], so this makes the product left-symmetric."""
    one = Matrix.identity(r.g.dim)
    lhs = r.g.bracket.change_basis(r.t, one).pairs
    rhs = deformed_bracket(r).change_basis(one, r.t).pairs
    for i, j in sorted(lhs.keys() | rhs.keys()):
        if i < j and lhs.get((i, j)) != rhs.get((i, j)):
            return Verdict(False, (i, j), "cybe")
    return Verdict(True)


def check_novbed(r):
    """[x, T[y, Tz]] = [y, T[x, Tz]] on all basis triples, the first failing
    (i, j, k) with i < j, by k, then i, then j, the witness.

    With x*y = [Tx, y], [x, T[y, Tz]] = (z*y)*x, so this is eq-2,
    (x*y)*z = (x*z)*y, of the induced product: the eq-2 scan of _t_product
    visits the triples in the same order, and its witness (k, i, j) is the
    triple (i, j, k) here."""
    bad = _first_defect(_t_product(r), _EQ2, False, True)
    return Verdict(False, bad[1:] + bad[:1], "novbed") if bad else Verdict(True)


def induced_product(r):
    """The Novikov product x*y = [Tx, y] on g_T.

    Decided by the two preconditions alone: check_cybe zeroes its eq-1
    defect [CYBE(x, y), z], check_novbed is its eq-2, and x*y - y*x is
    [x, y]_T by definition. The consequences (Novikov, compatible with g_T,
    T a homomorphism) are differential tests in the test suite.
    """
    cybe = check_cybe(r)
    if not cybe:
        raise PreconditionFailed("cybe", cybe.witness)
    novbed = check_novbed(r)
    if not novbed:
        raise PreconditionFailed("novbed", novbed.witness)
    return _t_product(r)


def basis_rmatrix(g, ell, m):
    """The rank-one operator T(x_ell) = x_m, T(x_i) = 0 otherwise.

    Valid whenever [x_i, x_m] has zero coefficient on x_ell for every i,
    in which case T satisfies both the Yang-Baxter equation and the
    auxiliary identity.
    """
    n = g.dim
    if not (0 <= ell < n and 0 <= m < n):
        raise DimensionMismatch("basis index out of range")
    for i in range(n):
        w = g.bracket.basis_product(i, m)
        if w[ell] != 0:
            raise HypothesisFailed("T([x_%d, x_m]) != 0; offending bracket %s" % (i, (w,)),
                                   index=i)
    return RMatrix(g, Matrix.unit(n, m, ell))
