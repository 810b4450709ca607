"""Bilinear products on the underlying space of a Lie algebra.

A product is the StructureTensor of its constants, the same kind of object
as a bracket: e_i * e_j = sum_k c[i][j][k] e_k, with no symmetry asked of
it. Checks the left-symmetric and Novikov axioms, compatibility with a
bracket, and completeness of left-symmetric products (nilpotency of every
right multiplication). Left symmetry and eq-2 are triple scans run by the
kernel lie._first_defect, on int constants and over the nonzero paths of
the pair index, so a sparse product costs its nonzeros, not a sum per
triple; the tensor keeps each verdict, so no check walks a product twice.
Compatibility compares the pair indexes of the product and the bracket.
Completeness reads each R(e_i) column by column from the same index and
decides R^n = 0 from the sparse Krylov chains of the unit vectors, building
no matrix.

Convention: L(x)y = x*y and R(x)y = y*x throughout.
"""

from .lie import StructureTensor, _first_defect
from .linalg import Q, _krylov_chain, vunit


class Verdict:
    """Boolean check result carrying the first failure witness, if any."""

    __slots__ = ("ok", "witness", "label")

    def __init__(self, ok, witness=None, label=None):
        self.ok = ok
        self.witness = witness
        self.label = label

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return "Verdict(ok)"
        return "Verdict(fail, label=%r, witness=%r)" % (self.label, self.witness)


# x*(y*z) - (x*y)*z - y*(x*z) + (y*x)*z, in the terms of lie._first_defect
_EQ1 = ((1, True, (0, 1, 2)), (-1, False, (0, 1, 2)), (-1, True, (1, 0, 2)), (1, False, (1, 0, 2)))
# (x*y)*z - (x*z)*y
_EQ2 = ((1, False, (0, 1, 2)), (-1, False, (0, 2, 1)))


def is_left_symmetric(p):
    """x*(y*z) - (x*y)*z = y*(x*z) - (y*x)*z on all basis triples.

    The difference of the two sides is antisymmetric in x and y, so only
    x < y is scanned; that visits the failing triples in the same order and
    returns the same first one as a scan over every triple.
    """
    bad = _first_defect(p, _EQ1, True, False)
    return Verdict(False, bad, "eq-1") if bad else Verdict(True)


def _eq2(p):
    """(x*y)*z = (x*z)*y on all basis triples, i.e. the R(e_i) commute.

    The identity is antisymmetric in y and z, so only y < z is scanned, which
    keeps the first failing triple of the full scan.
    """
    bad = _first_defect(p, _EQ2, False, True)
    return Verdict(False, bad, "eq-2") if bad else Verdict(True)


def is_novikov(p):
    """Left-symmetry plus (x*y)*z = (x*z)*y on all basis triples.

    Decided by the triple scans alone. The equivalent operator formulation
    (L a representation of the commutator algebra, commuting right
    multiplications) is a differential test in the test suite.
    """
    lsa = is_left_symmetric(p)
    return _eq2(p) if lsa else lsa


def is_compatible(p, g):
    """The commutator of the product equals the Lie bracket exactly; only the
    basis pairs where either pair index has a constant are visited, in
    sorted order. Both sides are read from the tensors' cached int pair rows
    (StructureTensor._int_form): with d_p and d_g their denominators, the
    pair (i, j) holds when (u - v) * d_g = w * d_p entry by entry."""
    if p.dim != g.dim:
        return Verdict(False, None, "dimension-mismatch")
    d_p, pairs = p._int_form()[:2]
    d_g, bracket = g.bracket._int_form()[:2]
    for i, j in sorted({(b, a) for a, b in pairs} | set(pairs) | set(bracket)):
        u, v, w = pairs.get((i, j), {}), pairs.get((j, i), {}), bracket.get((i, j), {})
        if any((u.get(k, 0) - v.get(k, 0)) * d_g != w.get(k, 0) * d_p
               for k in u.keys() | v.keys() | w.keys()):
            return Verdict(False, (i, j), "eq-3")
    return Verdict(True)


def half_bracket_product(g):
    """The product x*y = [x,y]/2 on the space of g, halved entry by entry
    from the bracket's nonzeros, in sorted (i, j, k) order."""
    half = Q(1, 2)
    return StructureTensor(g.dim, {ijk: half * c for ijk, c in sorted(g.bracket.entries.items())})


COMPLETE = "complete"
INCOMPLETE = "incomplete"
NOT_LEFT_SYMMETRIC = "not-left-symmetric"


class Completeness:
    """Outcome of the completeness check.

    kind is "complete" or "incomplete", both exact, or "not-left-symmetric":
    every R(e_i) is nilpotent, but the product neither satisfies eq-2 nor is
    left-symmetric, and completeness is decided for left-symmetric products
    only. For "incomplete", witness is a basis vector e_i with R(e_i) not
    nilpotent; the other kinds carry no witness.
    """

    __slots__ = ("kind", "witness")

    def __init__(self, kind, witness=None):
        self.kind = kind
        self.witness = witness

    @property
    def is_complete(self):
        return self.kind == COMPLETE

    @property
    def passes_nilpotency_checks(self):
        """True unless an explicit non-nilpotent right multiplication was found."""
        return self.kind != INCOMPLETE

    def __repr__(self):
        if self.witness is None:
            return "Completeness(%s)" % self.kind
        return "Completeness(%s, witness=%r)" % (self.kind, self.witness)


def _nilpotent(columns, n):
    """R^n e_j = 0 for every j, where R on Q^n has sparse columns R e_j."""
    return all(len(_krylov_chain(columns, {j: 1}, n)) <= n for j in range(n))


def is_complete(p):
    """Are all right multiplications R(x) nilpotent?

    Column j of R(e_i) is e_j * e_i, read from the pair index, and
    R(e_i)^n = 0 is read from the sparse Krylov chains of the unit vectors
    (_nilpotent). A non-nilpotent R(e_i) makes the product incomplete. Once
    every R(e_i) is nilpotent, the answer is exact in two cases:
    - the R(e_i) commute, as for every Novikov product (the eq-2 triple scan
      that is_novikov also runs, (x*y)*z = (x*z)*y on basis triples): the
      whole family is then simultaneously nilpotent iff each R(e_i) is;
    - the product is left-symmetric: in characteristic 0 a left-symmetric
      algebra is complete iff tr R(x) = 0 for all x (Helmstetter, Ann. Inst.
      Fourier 29, 1979; Segal, Math. Ann. 293, 1992), and tr R is linear
      and vanishes on the nilpotent R(e_i).
    Any other product is "not-left-symmetric", with no witness.
    """
    n = p.dim
    # in ints: d R(e_i), with d clearing denominators, is nilpotent iff R(e_i) is
    pairs = p._int_form()[1]
    for i in range(n):
        if not _nilpotent({j: pairs[j, i] for j in range(n) if (j, i) in pairs}, n):
            return Completeness(INCOMPLETE, vunit(n, i))
    if _eq2(p) or is_left_symmetric(p):
        return Completeness(COMPLETE)
    return Completeness(NOT_LEFT_SYMMETRIC)
