"""Dense references for the tensor products and the axiom scans.

The library reads a tensor through its pair index and sums each basis triple
identity over nonzero structure constants. These are the entry-scan and
dense-vector forms the differential tests hold it to: same vectors and
matrices, same Verdict (ok, witness, label), same exception and triple.
The derived Novikov identities, which no library path needs, live here too.
"""

from novikov.lie import AntisymmetryViolation, JacobiViolation, LieAlgebra
from novikov.linalg import Matrix, Q, commutator, is_zero_vec, vadd, vscale, vsub, vunit
from novikov.products import Verdict


def basis_product(t, i, j):
    v = [Q(0)] * t.dim
    for (a, b, k), c in t.entries.items():
        if a == i and b == j:
            v[k] = c
    return tuple(v)


def apply(t, u, v):
    out = [Q(0)] * t.dim
    for (i, j, k), c in t.entries.items():
        if u[i] and v[j]:
            out[k] += c * u[i] * v[j]
    return tuple(out)


def left_matrix(t, i):
    m = [[Q(0)] * t.dim for _ in range(t.dim)]
    for (a, j, k), c in t.entries.items():
        if a == i:
            m[k][j] = c
    return Matrix(m, cols=t.dim)


def right_matrix(t, i):
    m = [[Q(0)] * t.dim for _ in range(t.dim)]
    for (j, b, k), c in t.entries.items():
        if b == i:
            m[k][j] = c
    return Matrix(m, cols=t.dim)


def _basis_products(t):
    n = t.dim
    return {(i, j): basis_product(t, i, j) for i in range(n) for j in range(n)}


def is_left_symmetric(p):
    """x*(y*z) - (x*y)*z = y*(x*z) - (y*x)*z over every basis triple."""
    t, n = p.tensor, p.dim
    e = [vunit(n, i) for i in range(n)]
    prod = _basis_products(t)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = vsub(apply(t, e[i], prod[(j, k)]), apply(t, prod[(i, j)], e[k]))
                rhs = vsub(apply(t, e[j], prod[(i, k)]), apply(t, prod[(j, i)], e[k]))
                if lhs != rhs:
                    return Verdict(False, (i, j, k), "eq-1")
    return Verdict(True)


def eq2(p):
    """(x*y)*z = (x*z)*y over every basis triple."""
    t, n = p.tensor, p.dim
    e = [vunit(n, i) for i in range(n)]
    prod = _basis_products(t)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if apply(t, prod[(i, j)], e[k]) != apply(t, prod[(i, k)], e[j]):
                    return Verdict(False, (i, j, k), "eq-2")
    return Verdict(True)


def is_compatible(p, g):
    if p.dim != g.dim:
        return Verdict(False, None, "dimension-mismatch")
    for i in range(p.dim):
        for j in range(p.dim):
            com = vsub(basis_product(p.tensor, i, j), basis_product(p.tensor, j, i))
            if com != basis_product(g.bracket, i, j):
                return Verdict(False, (i, j), "eq-3")
    return Verdict(True)


def validate_lie(bracket, labels=None):
    """Antisymmetry, then Jacobi on i < j < k, with dense vectors."""
    n = bracket.dim
    products = _basis_products(bracket)
    for i in range(n):
        for j in range(i, n):
            lhs = products[(i, j)]
            rhs = vscale(-1, products[(j, i)])
            if lhs != rhs:
                for k in range(n):
                    if lhs[k] != rhs[k]:
                        raise AntisymmetryViolation(i, j, k)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total = vadd(
                    vadd(
                        apply(bracket, products[(i, j)], vunit(n, k)),
                        apply(bracket, products[(j, k)], vunit(n, i)),
                    ),
                    apply(bracket, products[(k, i)], vunit(n, j)),
                )
                if not is_zero_vec(total):
                    raise JacobiViolation(i, j, k)
    return LieAlgebra(bracket, labels)


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
