"""Classical r-matrices: deformed brackets and the Yang-Baxter route to
Novikov structures.

An operator T on the space of a Lie algebra g that satisfies the classical
Yang-Baxter equation together with the auxiliary identity
[x, T[y, Tz]] = [y, T[x, Tz]] induces the Novikov product x*y = [Tx, y]
on the deformed algebra with bracket [x,y]_T = [Tx, y] + [x, Ty].
"""

from .extensions import HypothesisFailed
from .lie import StructureTensor, validate_lie
from .linalg import DimensionMismatch, Matrix, _to_fractions, vadd
from .products import AlgebraProduct, Verdict


class PreconditionFailed(ValueError):
    def __init__(self, check, witness):
        super().__init__("%s fails at %s" % (check, (witness,)))
        self.check = check
        self.witness = witness


class RMatrix:
    """A linear operator T paired with the Lie algebra it deforms."""

    __slots__ = ("g", "t")

    def __init__(self, g, t):
        if t.rows != g.dim or t.cols != g.dim:
            raise DimensionMismatch("operator size does not match the algebra")
        self.g = g
        self.t = t

    def __repr__(self):
        return "RMatrix(dim=%d)" % self.g.dim


def deformed_bracket(r):
    """Structure tensor of [x,y]_T = [Tx, y] + [x, Ty]; Jacobi not implied.
    [e_i, T e_j] = -[T e_j, e_i], so it is the table of [T e_i, e_j] minus
    its transpose."""
    product = _t_product(r).entries
    acc = dict(product)
    for (i, j, k), c in product.items():
        acc[(j, i, k)] = acc.get((j, i, k), 0) - c
    return StructureTensor(r.g.dim, {key: acc[key] for key in sorted(acc) if acc[key]})


def _t_product(r):
    """The tensor of [T e_i, e_j] = sum of T[l, i] [e_l, e_j], summed in ints
    over the nonzeros of the int forms of T and the bracket, in sorted order."""
    d, _, left = r.g.bracket._int_form()[:3]
    e, _, t_rows = r.t._int_form()
    acc = {}
    for l, terms in enumerate(t_rows):
        for j, row in left.get(l, {}).items():
            for i, x in terms:
                for k, c in row.items():
                    acc[(i, j, k)] = acc.get((i, j, k), 0) + x * c
    entries = {key: acc[key] for key in sorted(acc) if acc[key]}
    _to_fractions([entries], d * e)
    return StructureTensor(r.g.dim, entries)


def deformed_algebra(r):
    """The Lie algebra g_T; raises if the deformed bracket violates Jacobi."""
    return validate_lie(deformed_bracket(r), r.g.labels)


def check_cybe(r):
    """[Tx, Ty] = T([Tx, y] + [x, Ty]) on all basis pairs."""
    g, t = r.g, r.t
    n = g.dim
    for i in range(n):
        ti = t.column(i)
        for j in range(i + 1, n):
            tj = t.column(j)
            lhs = g.bracket_vec(ti, tj)
            rhs = t.apply(
                vadd(g.bracket_vec(ti, g.basis_vector(j)), g.bracket_vec(g.basis_vector(i), tj))
            )
            if lhs != rhs:
                return Verdict(False, (i, j), "cybe")
    return Verdict(True)


def check_novbed(r):
    """[x, T[y, Tz]] = [y, T[x, Tz]] on all basis triples."""
    g, t = r.g, r.t
    n = g.dim
    e = [g.basis_vector(i) for i in range(n)]
    for k in range(n):
        tk = t.column(k)
        inner = [t.apply(g.bracket_vec(e[i], tk)) for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if g.bracket_vec(e[i], inner[j]) != g.bracket_vec(e[j], inner[i]):
                    return Verdict(False, (i, j, k), "novbed")
    return Verdict(True)


def induced_product(r):
    """The Novikov product x*y = [Tx, y] on g_T.

    Decided by the two preconditions alone: once check_cybe and check_novbed
    hold, the product is Novikov and compatible with the deformed bracket,
    and T is a homomorphism from g_T to g. Those consequences are
    differential tests in the test suite, not runtime checks.
    """
    cybe = check_cybe(r)
    if not cybe:
        raise PreconditionFailed("cybe", cybe.witness)
    novbed = check_novbed(r)
    if not novbed:
        raise PreconditionFailed("novbed", novbed.witness)
    return AlgebraProduct(_t_product(r))


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
            raise HypothesisFailed(
                "T([x_%d, x_m]) != 0; offending bracket %s" % (i, (w,)), index=i
            )
    return RMatrix(g, Matrix.unit(n, m, ell))
