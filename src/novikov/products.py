"""Bilinear products on the underlying space of a Lie algebra.

Checks the left-symmetric and Novikov axioms, compatibility with a bracket,
completeness (nilpotency of right multiplications), and the derived
identities satisfied by every Novikov product.

Convention: L(x)y = x*y and R(x)y = y*x throughout.
"""

import random

from .lie import StructureTensor, validate_lie
from .linalg import Q, commutator, is_zero_vec, vscale, vsub, vunit


class NotLeftSymmetric(ValueError):
    def __init__(self, witness):
        super().__init__("product is not left-symmetric, witness triple %s" % (witness,))
        self.witness = witness


class AlgebraProduct:
    """A bilinear product on Q^n with no symmetry constraints."""

    __slots__ = ("dim", "tensor")

    def __init__(self, tensor):
        object.__setattr__(self, "dim", tensor.dim)
        object.__setattr__(self, "tensor", tensor)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraProduct is immutable")

    @classmethod
    def zero(cls, dim):
        return cls(StructureTensor(dim, {}))

    @classmethod
    def from_products(cls, dim, products):
        return cls(StructureTensor.from_products(dim, products))

    def apply(self, u, v):
        return self.tensor.apply(u, v)

    def basis_product(self, i, j):
        return self.tensor.basis_product(i, j)

    def left(self, i):
        return self.tensor.left_matrix(i)

    def right(self, i):
        return self.tensor.right_matrix(i)

    def left_of(self, x):
        return self.tensor.left_matrix_of(x)

    def right_of(self, x):
        return self.tensor.right_matrix_of(x)

    def commutator_tensor(self):
        """Structure constants of x*y - y*x."""
        return StructureTensor.tabulate(
            self.dim, lambda i, j: vsub(self.basis_product(i, j), self.basis_product(j, i))
        )

    def change_basis(self, basis_vectors):
        return AlgebraProduct(self.tensor.change_basis(basis_vectors))

    def is_zero(self):
        return self.tensor.is_zero()

    def __eq__(self, other):
        return isinstance(other, AlgebraProduct) and self.tensor == other.tensor

    def __hash__(self):
        return hash(self.tensor)

    def __repr__(self):
        return "AlgebraProduct(dim=%d, nnz=%d)" % (self.dim, len(self.tensor.entries))


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


def is_left_symmetric(p):
    """x*(y*z) - (x*y)*z = y*(x*z) - (y*x)*z on all basis triples."""
    n = p.dim
    e = [vunit(n, i) for i in range(n)]
    prod = {(i, j): p.basis_product(i, j) for i in range(n) for j in range(n)}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = vsub(p.apply(e[i], prod[(j, k)]), p.apply(prod[(i, j)], e[k]))
                rhs = vsub(p.apply(e[j], prod[(i, k)]), p.apply(prod[(j, i)], e[k]))
                if lhs != rhs:
                    return Verdict(False, (i, j, k), "eq-1")
    return Verdict(True)


def _eq2(p):
    """(x*y)*z = (x*z)*y on all basis triples, i.e. the R(e_i) commute."""
    n = p.dim
    e = [vunit(n, i) for i in range(n)]
    prod = {(i, j): p.basis_product(i, j) for i in range(n) for j in range(n)}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if p.apply(prod[(i, j)], e[k]) != p.apply(prod[(i, k)], e[j]):
                    return Verdict(False, (i, j, k), "eq-2")
    return Verdict(True)


def is_novikov(p):
    """Left-symmetry plus (x*y)*z = (x*z)*y on all basis triples.

    Decided by the triple scans alone. The equivalent operator formulation
    (L a representation of the commutator algebra, commuting right
    multiplications) is a differential test in the test suite.
    """
    lsa = is_left_symmetric(p)
    if not lsa:
        return lsa
    return _eq2(p)


def is_compatible(p, g):
    """The commutator of the product equals the Lie bracket exactly."""
    if p.dim != g.dim:
        return Verdict(False, None, "dimension-mismatch")
    for i in range(p.dim):
        for j in range(p.dim):
            com = vsub(p.basis_product(i, j), p.basis_product(j, i))
            if com != g.bracket.basis_product(i, j):
                return Verdict(False, (i, j), "eq-3")
    return Verdict(True)


def commutator_lie(p):
    """The Lie algebra with bracket x*y - y*x of a left-symmetric product."""
    lsa = is_left_symmetric(p)
    if not lsa:
        raise NotLeftSymmetric(lsa.witness)
    return validate_lie(p.commutator_tensor())


def half_bracket_product(g):
    """The product x*y = [x,y]/2 on the space of g."""
    half = Q(1, 2)
    return AlgebraProduct(
        StructureTensor.tabulate(g.dim, lambda i, j: vscale(half, g.bracket.basis_product(i, j)))
    )


COMPLETE = "complete"
INCOMPLETE = "incomplete"
HEURISTIC_UNKNOWN = "heuristic-unknown"

_HEURISTIC_SAMPLES = 32
_HEURISTIC_SEED = 0x4E6F76


class Completeness:
    """Outcome of the completeness check.

    kind is "complete" or "incomplete" (exact; always the case for Novikov
    products) or "heuristic-unknown" (all sampled right multiplications are
    nilpotent but the product is not Novikov, so no exact conclusion).
    For "incomplete", witness is a vector x with R(x) not nilpotent.
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


def is_complete(p):
    """Are all right multiplications R(x) nilpotent?

    Whether the R(e_i) commute is decided by the eq-2 triple scan that
    is_novikov also runs ((x*y)*z = (x*z)*y on basis triples). If they
    commute, as for every Novikov product, the answer is exact: the whole
    family is simultaneously nilpotent iff each basis R(e_i) is. Otherwise
    the basis elements plus 32 deterministic pseudo-random rational
    combinations are sampled.
    """
    n = p.dim
    e = [vunit(n, i) for i in range(n)]
    for i in range(n):
        if not p.right(i).is_nilpotent():
            return Completeness(INCOMPLETE, e[i])
    if _eq2(p):
        return Completeness(COMPLETE)
    rng = random.Random(_HEURISTIC_SEED)
    for _ in range(_HEURISTIC_SAMPLES):
        x = tuple(Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))
        if not p.right_of(x).is_nilpotent():
            return Completeness(INCOMPLETE, x)
    return Completeness(HEURISTIC_UNKNOWN)


def derived_identities_hold(p):
    """The two identities every Novikov product satisfies:

    [x,y]*z + [y,z]*x + [z,x]*y = 0 and x*[y,z] + y*[z,x] + z*[x,y] = 0,
    where [u,v] = u*v - v*u.
    """
    n = p.dim
    e = [vunit(n, i) for i in range(n)]
    com = {
        (i, j): vsub(p.basis_product(i, j), p.basis_product(j, i))
        for i in range(n)
        for j in range(n)
    }
    for i in range(n):
        for j in range(n):
            for k in range(n):
                first = [Q(0)] * n
                second = [Q(0)] * n
                for term in (
                    p.apply(com[(i, j)], e[k]),
                    p.apply(com[(j, k)], e[i]),
                    p.apply(com[(k, i)], e[j]),
                ):
                    first = [a + b for a, b in zip(first, term)]
                for term in (
                    p.apply(e[i], com[(j, k)]),
                    p.apply(e[j], com[(k, i)]),
                    p.apply(e[k], com[(i, j)]),
                ):
                    second = [a + b for a, b in zip(second, term)]
                if not (is_zero_vec(first) and is_zero_vec(second)):
                    return False
    return True


def novikov_operator_identity_holds(p, g):
    """L([x,y]) + ad([x,y]) - [ad(x), L(y)] - [L(x), ad(y)] = 0 on basis pairs.

    This is the linear relation in the left multiplications that every
    Novikov structure on g satisfies; it is also the linear block of the
    nonexistence certifier.
    """
    n = p.dim
    lefts = [p.left(i) for i in range(n)]
    ads = [g.ad(i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            bracket = g.bracket.basis_product(i, j)
            l_br = p.left_of(bracket)
            ad_br = g.ad_of(bracket)
            total = l_br + ad_br - commutator(ads[i], lefts[j]) - commutator(lefts[i], ads[j])
            if not total.is_zero():
                return False
    return True
