"""Lie algebras as structure-constant tensors over Q.

Indices are 0-based throughout the Python API; the LAF file formats are
1-based and convert at the boundary. A StructureTensor keeps its nonzero
constants indexed by basis pair, and the products sum over those nonzeros
rather than over every entry or every coordinate. Every axiom scan over
basis triples (Jacobi here, left symmetry and eq-2 in products, the
a-product's associativity in extensions) is one call of _first_defect,
which walks the nonzero paths of the pair index in ints, read from the
tensor's int form: scaled and indexed once per tensor, however many scans,
completeness checks and changes of basis read it. The verdict of each scan
is kept next to it, so no check walks a tensor twice.
"""

from bisect import bisect_left
from math import lcm

from .linalg import (
    DimensionMismatch,
    Matrix,
    Q,
    Subspace,
    _to_fractions,
    vunit,
)


class ValidationError(ValueError):
    pass


class AntisymmetryViolation(ValidationError):
    def __init__(self, i, j, k):
        super().__init__("antisymmetry fails at basis triple (%d, %d, %d)" % (i, j, k))
        self.triple = (i, j, k)


class JacobiViolation(ValidationError):
    def __init__(self, i, j, k):
        super().__init__("Jacobi identity fails at basis triple (%d, %d, %d)" % (i, j, k))
        self.triple = (i, j, k)


class NotAnIdeal(ValidationError):
    def __init__(self, basis_index, vector):
        super().__init__("bracket of e_%d with %s leaves the subspace" % (basis_index, (vector,)))
        self.witness = (basis_index, vector)


class StructureTensor:
    """Sparse structure constants c[i][j][k] of a bilinear map on Q^n: the
    bracket of a LieAlgebra, or a product (products.py) itself.

    e_i * e_j = sum_k c[i][j][k] e_k; only nonzero entries are stored. Every
    construction builds its table from the nonzeros of its data, with the
    entries in sorted (i, j, k) order.

    pairs indexes the same entries by basis pair, {(i, j): {k: c}}, with no
    empty or zero value. It is built once with the tensor and never changes;
    equality and hashing read entries alone. The products read it, so they
    cost the nonzeros they touch, not a scan of every entry. The triple scans,
    the completeness check and change_basis read the int form instead
    (_int_form), built on first use and kept: the pair index scaled to ints
    and indexed by left factor, right factor and product coordinate. The
    scan verdicts are kept beside it (_scans, made by the first scan).
    """

    __slots__ = ("dim", "entries", "pairs", "_ints", "_scans")

    def __init__(self, dim, entries=None):
        table = {}
        pairs = {}
        for (i, j, k), v in (entries or {}).items():
            if type(v) is not Q:
                v = Q(v)
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise DimensionMismatch("tensor index out of range: %s" % ((i, j, k),))
            if v:
                table[(i, j, k)] = v
                pairs.setdefault((i, j), {})[k] = v
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "entries", table)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "_ints", None)
        object.__setattr__(self, "_scans", None)

    def __setattr__(self, name, value):
        raise AttributeError("StructureTensor is immutable")

    def _int_form(self):
        """(d, pairs, left, right, image), built once: d is the lcm of the
        denominators and pairs the pair index of d * c as ints (_int_pairs);
        left[a][b] and right[b][a] are the int row of the pair (a, b), and
        image[m] lists the (a, b, c) with c = (d * c)[a][b][m] != 0, sorted."""
        form = self._ints
        if form is None:
            d, pairs = _int_pairs(self)
            left, right, image = {}, {}, {}
            for (a, b), row in pairs.items():
                left.setdefault(a, {})[b] = row
                right.setdefault(b, {})[a] = row
                for m, c in row.items():
                    image.setdefault(m, []).append((a, b, c))
            for paths in image.values():
                paths.sort()
            form = (d, pairs, left, right, image)
            object.__setattr__(self, "_ints", form)
        return form

    @classmethod
    def from_products(cls, dim, products):
        """Build from {(i, j): vector} giving e_i * e_j as coordinate vectors."""
        entries = {}
        for (i, j), vector in products.items():
            for k, v in enumerate(vector):
                if v:
                    entries[(i, j, k)] = v
        return cls(dim, entries)

    @classmethod
    def antisymmetric_from_brackets(cls, dim, brackets):
        """Build from {(i, j): vector} for i < j, filling in c[j][i] = -c[i][j]."""
        entries = {}
        for (i, j), vector in brackets.items():
            if i >= j:
                raise ValueError("brackets must be given for i < j only")
            for k, v in enumerate(vector):
                if v != 0:
                    entries[(i, j, k)] = Q(v)
                    entries[(j, i, k)] = -Q(v)
        return cls(dim, entries)

    def basis_product(self, i, j):
        """The vector e_i * e_j."""
        v = [Q(0)] * self.dim
        for k, c in self.pairs.get((i, j), {}).items():
            v[k] = c
        return tuple(v)

    def apply(self, u, v):
        """Bilinear product of two coordinate vectors, summed over the basis
        pairs where both coordinates are nonzero; raises DimensionMismatch
        on a vector of another length."""
        if len(u) != self.dim or len(v) != self.dim:
            raise DimensionMismatch("vector does not match the tensor's dimension")
        out = [Q(0)] * self.dim
        vs = [(j, b) for j, b in enumerate(v) if b]
        for i, a in enumerate(u):
            if a:
                for j, b in vs:
                    row = self.pairs.get((i, j))
                    if row:
                        ab = a * b
                        for k, c in row.items():
                            out[k] += c * ab
        return tuple(out)

    def left_matrix(self, i):
        """Matrix of x -> e_i * x."""
        m = [[Q(0)] * self.dim for _ in range(self.dim)]
        for j in range(self.dim):
            for k, c in self.pairs.get((i, j), {}).items():
                m[k][j] = c
        return Matrix(m, cols=self.dim)

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        return (
            isinstance(other, StructureTensor)
            and self.dim == other.dim
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.dim, tuple(sorted(self.entries.items()))))

    def change_basis(self, basis, basis_inv):
        """The constants of (x, y) -> C c(Bx, By) for square B = basis and
        C = basis_inv; with C = B^-1 these are the constants in the basis of
        B's columns, which are given in the old coordinates.

        One int transform of the nonzeros: with B = basis and C = basis_inv in
        their int forms (d_B B, d_C C) and the constants in theirs (d c),
        each pair row c(i, j) is mapped once through the nonzero columns of C
        its constants meet, and its image, times B[i, a] B[j, b], is added to
        the new pair (a, b) for the nonzero B[i, a] and B[j, b]. The sums are
        divided by d_B^2 d_C d once and entered in sorted (a, b, k) order.
        """
        n = self.dim
        if basis.rows != n or basis.cols != n:
            raise DimensionMismatch("need a dim x dim basis matrix")
        d, pairs = self._int_form()[:2]
        d_b, _, b_rows = basis._int_form()
        d_c, c_ints, _ = basis_inv._int_form()
        c_cols = [[(m, x) for m, x in enumerate(col) if x] for col in zip(*c_ints)]
        acc = {}
        for (i, j), row in pairs.items():
            image = {}
            for k, c in row.items():
                for m, x in c_cols[k]:
                    image[m] = image.get(m, 0) + x * c
            image = [(m, s) for m, s in image.items() if s]
            for a, x in b_rows[i]:
                for b, y in b_rows[j]:
                    xy = x * y
                    out = acc.setdefault((a, b), {})
                    for m, s in image:
                        out[m] = out.get(m, 0) + xy * s
        entries = {}
        for ab in sorted(acc):
            out = acc[ab]
            for m in sorted(out):
                if out[m]:
                    entries[ab + (m,)] = out[m]
        _to_fractions([entries], d_b * d_b * d_c * d)
        return StructureTensor(n, entries)

    def __repr__(self):
        return "StructureTensor(dim=%d, nnz=%d)" % (self.dim, len(self.entries))


class LieAlgebra:
    """Finite-dimensional Lie algebra over Q given by its bracket tensor."""

    __slots__ = ("dim", "labels", "bracket")

    def __init__(self, bracket, labels=None):
        if labels is None:
            labels = tuple("e%d" % (i + 1) for i in range(bracket.dim))
        if len(labels) != bracket.dim:
            raise DimensionMismatch("label count does not match dimension")
        object.__setattr__(self, "dim", bracket.dim)
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "bracket", bracket)

    def __setattr__(self, name, value):
        raise AttributeError("LieAlgebra is immutable")

    def bracket_space(self, u_space, v_space):
        """Span of [u, v] over basis vectors of the two subspaces. Each product
        is summed in ints, as a sparse dict over the nonzeros of the int form
        of the bracket and of the subspaces' int echelon rows (_int_rows): a
        positive multiple of [u, v], which spans the same. A subspace of
        another ambient dimension raises DimensionMismatch."""
        if u_space.ambient_dim != self.dim or v_space.ambient_dim != self.dim:
            raise DimensionMismatch("subspace does not match the algebra's dimension")
        left = self.bracket._int_form()[2]
        vs = v_space._int_rows()
        rows = []
        for u in u_space._int_rows():
            for v in vs:
                out = {}
                for i, a in u:
                    for j, b in v:
                        for k, c in left.get(i, {}).get(j, {}).items():
                            out[k] = out.get(k, 0) + a * b * c
                rows.append({k: x for k, x in out.items() if x})
        return Subspace._from_rows(self.dim, rows)

    def _series(self, derived):
        """g, then [S, S] (derived) or [g, S] (lower central) of the last term
        S, until a term repeats."""
        full = Subspace.full(self.dim)
        series = [full]
        while True:
            last = series[-1]
            nxt = self.bracket_space(last if derived else full, last)
            if nxt == last:
                return series
            series.append(nxt)

    def derived_series(self):
        return self._series(True)

    def lower_central_series(self):
        return self._series(False)

    def nilpotency_class(self):
        """p with g^(p+1) = 0, or None if the algebra is not nilpotent."""
        return _steps_to_zero(self.lower_central_series())

    def derived_length(self):
        return _steps_to_zero(self.derived_series())

    def is_nilpotent(self):
        return self.nilpotency_class() is not None

    def is_abelian(self):
        return self.bracket.is_zero()

    def __repr__(self):
        return "LieAlgebra(dim=%d)" % self.dim


def _steps_to_zero(series):
    """The number of steps a series takes to reach 0, or None if it stops
    at a nonzero term."""
    return len(series) - 1 if series[-1].is_zero() else None


def _int_pairs(tensor):
    """(d, the pair index with every constant multiplied by d, as ints), d
    the lcm of the denominators. Each identity the scans test is
    homogeneous, so d scales both of its sides alike and keeps every
    verdict. StructureTensor._int_form calls it once per tensor."""
    d = lcm(*(c.denominator for c in tensor.entries.values()))
    return d, {
        ij: {k: c.numerator * (d // c.denominator) for k, c in row.items()}
        for ij, row in tensor.pairs.items()
    }


def _first_defect(tensor, identity, j_after_i, k_after_j):
    """The first basis triple (i, j, k) in lex order where a bilinear identity
    of degree 2 fails, or None.

    identity is a tuple of terms (sign, nested, (x, y, z)): sign * (e_x e_y) e_z,
    or sign * e_x (e_y e_z) when nested, where x, y, z are the positions in
    (i, j, k) of the three factors. The flags limit the scan to j > i and to
    k > j. The verdict is kept on the tensor, next to its int form, under
    (identity, j_after_i, k_after_j): each scan walks a tensor once (_walk),
    and the first scan makes the dict.
    """
    if tensor._scans is None:
        object.__setattr__(tensor, "_scans", {})
    scans, key = tensor._scans, (identity, j_after_i, k_after_j)
    if key not in scans:
        scans[key] = _walk(tensor, *key)
    return scans[key]


def _walk(tensor, identity, j_after_i, k_after_j):
    """The walk of _first_defect over the tensor's int form, touching only
    nonzero constants: for each i in turn, every path through e_i of every
    term, found through the pairs' left and right factors and the
    coordinates of their products, is added into the int defect of its
    (j, k) (_add_path), and the first (j, k) in order whose defect is not 0
    is the witness. The flags' limits on (j, k) are tested on the path's
    indices before anything is built for it, so only kept paths cost more.
    """
    left, right, image = tensor._int_form()[2:]
    # Where e_i sits in a term fixes its walk, with a and b the other factors:
    #   (e_i e_a) e_b, (e_a e_i) e_b    left[i] or right[i], then left[m]
    #   e_b (e_i e_a), e_b (e_a e_i)    left[i] or right[i], then right[m]
    #   e_i (e_a e_b), (e_a e_b) e_i    left[i] or right[i], then image[m]
    # flip says that (a, b) is (k, j), not (j, k).
    walks = []
    for sign, nested, slots in identity:
        at = slots.index(0)
        first = left if at == 0 or (at == 1 and nested) else right
        second = None if at == (0 if nested else 2) else right if nested else left
        others = [s for s in slots if s]
        walks.append((sign, first, second, (others[0] == 2) != (nested and at > 0)))
    for i in range(tensor.dim):
        least_j = i + 1 if j_after_i else 0
        least = (least_j, least_j + 1 if k_after_j else 0)
        groups = {}
        for sign, first, second, flip in walks:
            for a, row in first.get(i, {}).items():
                if second is not None:
                    if a < least[flip]:
                        continue
                    # (a, b) is (k, j) when flipped, else (j, k); a meets its limit
                    for m, c in row.items():
                        for b, vector in second.get(m, {}).items():
                            if flip:
                                if b < least_j or (k_after_j and a <= b):
                                    continue
                                key = b, a
                            elif k_after_j and b <= a:
                                continue
                            else:
                                key = a, b
                            _add_path(groups, key, sign * c, vector)
                    continue
                found = image.get(a, [])
                for u, w, c in found[bisect_left(found, (least[flip],)):]:
                    j, k = (w, u) if flip else (u, w)
                    if j >= least_j and not (k_after_j and k <= j):
                        _add_path(groups, (j, k), sign * c, row)
        for key in sorted(groups):
            if any(groups[key].values()):
                return (i,) + key
    return None


def _add_path(groups, key, c, vector):
    """Add c * vector into the int defect of the (j, k) key."""
    defect = groups.setdefault(key, {})
    for out, x in vector.items():
        defect[out] = defect.get(out, 0) + c * x


# [[i, j], k] + [[j, k], i] + [[k, i], j], in the terms of _first_defect
_JACOBI = ((1, False, (0, 1, 2)), (1, False, (1, 2, 0)), (1, False, (2, 0, 1)))


def validate_lie(bracket, labels=None):
    """Check antisymmetry and the Jacobi identity on all basis triples.

    Returns the LieAlgebra on success; raises AntisymmetryViolation or
    JacobiViolation naming the first failing triple otherwise. Antisymmetry
    reads the pair index directly, and Jacobi on i < j < k is the triple
    scan of _first_defect.
    """
    pairs = bracket.pairs
    for i, j in sorted({(min(ij), max(ij)) for ij in pairs}):
        u, v = pairs.get((i, j), {}), pairs.get((j, i), {})
        bad = [k for k in u.keys() | v.keys() if u.get(k, 0) + v.get(k, 0)]
        if bad:
            raise AntisymmetryViolation(i, j, min(bad))
    bad = _first_defect(bracket, _JACOBI, True, True)
    if bad:
        raise JacobiViolation(*bad)
    return LieAlgebra(bracket, labels)


def quotient_tensor(tensor, subspace):
    """The product a tensor induces on Q^n modulo a two-sided ideal.

    The quotient basis is the lexicographically earliest set of standard basis
    vectors completing the ideal's echelon basis, which makes the structure
    constants deterministic: the constants on [ideal basis | those vectors]
    with all three indices past the ideal. Returns the chosen indices and the
    tensor; the caller checks that the subspace is an ideal.
    """
    n = subspace.ambient_dim
    comp = subspace.complement()
    basis = Matrix.from_columns(
        [list(v) for v in subspace.basis] + [list(vunit(n, j)) for j in comp]
    )
    k = subspace.dim
    entries = tensor.change_basis(basis, basis.inverse()).entries
    return comp, StructureTensor(len(comp), {
        (a - k, b - k, c - k): v for (a, b, c), v in entries.items() if min(a, b, c) >= k
    })


def quotient(g, ideal):
    """Quotient Lie algebra by an ideal, on the canonical complement basis;
    a Lie algebra modulo a checked ideal needs no validate_lie."""
    for i in range(g.dim):
        for v in ideal.basis:
            w = g.bracket.apply(vunit(g.dim, i), v)
            if not ideal.contains(w):
                raise NotAnIdeal(i, v)
    comp, tensor = quotient_tensor(g.bracket, ideal)
    return LieAlgebra(tensor, tuple(g.labels[j] for j in comp))
