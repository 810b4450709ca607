"""Classical r-matrices: deformed brackets and the Yang-Baxter route to
Novikov structures.

An operator T on the space of a Lie algebra g that satisfies the classical
Yang-Baxter equation together with the auxiliary identity
[x, T[y, Tz]] = [y, T[x, Tz]] induces the Novikov product x*y = [Tx, y]
on the deformed algebra with bracket [x,y]_T = [Tx, y] + [x, Ty].
"""

from .extensions import HypothesisFailed
from .lie import StructureTensor, validate_lie
from .linalg import DimensionMismatch, Matrix, _add_scaled, _to_fractions
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


def _t_table(r):
    """The int table of [T e_i, e_j]: (s, {i: {j: {k: c}}}) with
    [T e_i, e_j] = sum of c / s e_k, summed in ints over the nonzeros of the
    int forms of T (e * T) and the bracket (d * [,]), so s = d * e; entries
    that cancel are dropped. [T e_i, e_j] = sum of T[l, i] [e_l, e_j] over l."""
    d, _, left = r.g.bracket._int_form()[:3]
    e, _, t_rows = r.t._int_form()
    table = {}
    for l, terms in enumerate(t_rows):
        for j, row in left.get(l, {}).items():
            for i, x in terms:
                _add_scaled(table.setdefault(i, {}).setdefault(j, {}), row, x)
    return d * e, table


def _t_product(r):
    """The tensor of [T e_i, e_j], from the int table (_t_table), in sorted
    order."""
    s, table = _t_table(r)
    entries = dict(sorted(((i, j, k), c) for i, row in table.items()
                          for j, out in row.items() for k, c in out.items()))
    _to_fractions([entries], s)
    return StructureTensor(r.g.dim, entries)


def _combine(v, vectors):
    """sum of a * vectors[m] over the (m, a) of the sparse int dict v, as a
    sparse int dict; a vector missing from vectors is zero."""
    acc = {}
    for m, a in v.items():
        _add_scaled(acc, vectors.get(m, {}), a)
    return acc


def _t_columns(r):
    """The int columns of e * T, {k: {l: e * T[l, k]}}, nonzero only."""
    columns = {}
    for l, terms in enumerate(r.t._int_form()[2]):
        for k, x in terms:
            columns.setdefault(k, {})[l] = x
    return columns


def deformed_algebra(r):
    """The Lie algebra g_T; raises if the deformed bracket violates Jacobi."""
    return validate_lie(deformed_bracket(r), r.g.labels)


def check_cybe(r):
    """[Tx, Ty] = T([Tx, y] + [x, Ty]) on all basis pairs i < j, the first
    failing pair in increasing order the witness.

    Decided in ints from the table P of [T e_i, e_j] (_t_table, scale d * e)
    and the int columns of e * T: [T e_i, T e_j] = sum of T[m, j] P(i, m)
    over m, and [e_i, T e_j] = -P(j, i), so both sides carry the scale
    d * e^2."""
    table = _t_table(r)[1]
    columns = _t_columns(r)
    n = r.g.dim
    for i in range(n):
        row = table.get(i, {})
        for j in range(i + 1, n):
            lhs = _combine(columns.get(j, {}), row)
            inner = dict(row.get(j, {}))
            _add_scaled(inner, table.get(j, {}).get(i, {}), -1)
            if lhs != _combine(inner, columns):
                return Verdict(False, (i, j), "cybe")
    return Verdict(True)


def check_novbed(r):
    """[x, T[y, Tz]] = [y, T[x, Tz]] on all basis triples, the first failing
    (i, j, k) with i < j, by k, then i, then j, the witness.

    Decided in ints: [e_j, T e_k] = -P(k, j) for the table P of
    [T e_i, e_j] (_t_table), so T[e_j, T e_k] is minus the int columns of
    e * T combined by P(k, j), and its bracket with e_i reads the int rows
    of the bracket. Both sides carry the same sign and scale."""
    table = _t_table(r)[1]
    columns = _t_columns(r)
    left = r.g.bracket._int_form()[2]
    n = r.g.dim
    for k in range(n):
        row = table.get(k, {})
        inner = [_combine(row.get(i, {}), columns) for i in range(n)]
        for i in range(n):
            rows_i = left.get(i, {})
            for j in range(i + 1, n):
                if _combine(inner[j], rows_i) != _combine(inner[i], left.get(j, {})):
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
