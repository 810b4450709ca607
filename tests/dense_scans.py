"""Dense references for the tensor products and the axiom scans.

The library reads a tensor through its pair index and sums each basis triple
identity over nonzero structure constants. These are the entry-scan and
dense-vector forms the differential tests hold it to: same vectors and
matrices, same Verdict (ok, witness, label), same exception and triple.
The derived Novikov identities, which no library path needs, live here too,
as do the dense a-product scans of ExtensionData.validate.
So do the dense matrix powers that completeness and the regular nilpotent
normal form were decided by, before both read sparse Krylov chains, and the
dense dot product, the matrix commutator, the commutator algebra of a
product, subspace sums, inclusion, intersection and coordinates, the dual
module, the nullspace of stacked rows, the invariants of a module, the class
bounds of a deformation and the Lie algebra invariant profile that only
tests use, and a seeded sampler of right multiplications R(x), which
searches for an R(x) that is not nilpotent, and the word image spans
computed to full length, past their fixed point.
The paper's lift systems are here as well: the LSA conditions (8)-(14), and
the Novikov conditions (8)-(20) in general and (25)-(31) for trivial
products on an abelian b, the references the lifted product's
left-symmetry, Novikov and compatibility checks are held to, with
omega_value, the lift's cocycle on a basis pair, and lift_through, the
reduction's pull-back of a lift worked out block by block.
The library's dense exact kernels run on ints; their entry-by-entry Fraction
forms are here too: the matrix product, inverse and matrix-vector product, the
substitution of affine forms into a quadratic, the compatibility check over
Fraction sums, and the affine form of every variable of a sparse solution
with its scaling to ints, which the live forms the library reads straight
from the pivot rows are held to. The library builds every
tensor from the nonzeros of its data; tabulate, one dense vector per basis
pair, builds the references: the half-bracket product, the change of basis,
the lifted product, the assembled bracket, the quotient tensor, the induced
product and deformed bracket of an r-matrix, and the product read from a
solution of the condition system. The r-matrix checks, the Yang-Baxter
equation and the auxiliary identity, are here in their dense-vector form.
The bracket of two subspaces as a dense product over every pair of basis
vectors is here too, with the derived and lower central series built on it.
"""

import random
from math import lcm


from novikov.extensions import LiftData, _b_product_verdict
from novikov.lie import AntisymmetryViolation, JacobiViolation, LieAlgebra, StructureTensor
from novikov.linalg import (
    DimensionMismatch,
    Matrix,
    NotRegularNilpotent,
    Q,
    Subspace,
    _add_term,
    _sparse,
    is_zero_vec,
    scaled_sum,
    solve_sparse,
    vadd,
    vscale,
    vsub,
    vunit,
    vzero,
)
from novikov.products import (
    COMPLETE,
    INCOMPLETE,
    NOT_LEFT_SYMMETRIC,
    Completeness,
    Verdict,
    _eq2,
)
from novikov.reduction import ModuleAction

SAMPLES = 32
SEED = 0x4E6F76


def vdot(u, v):
    return sum((a * b for a, b in zip(u, v)), Q(0))


def column(m, j):
    """Column j of the Matrix m, as a tuple."""
    return tuple(row[j] for row in m.data)


def matmul(a, b):
    """a * b over Fractions: row i sums a[i, k] * (row k of b) over the
    nonzero a[i, k]."""
    if a.cols != b.rows:
        raise DimensionMismatch("matrix product shape mismatch")
    nonzeros = [[(j, y) for j, y in enumerate(row) if y] for row in b.data]
    product = []
    for row in a.data:
        acc = [Q(0)] * b.cols
        for x, terms in zip(row, nonzeros):
            if x:
                for j, y in terms:
                    acc[j] += x * y
        product.append(acc)
    return Matrix(product, cols=b.cols)


def inverse(m):
    """The inverse of the square Matrix m by Gauss-Jordan over Fractions on
    [m | I], dividing every pivot row by its pivot; None when m is
    singular."""
    n = m.rows
    rows = [list(row) + list(vunit(n, i)) for i, row in enumerate(m.data)]
    for c in range(n):
        r = next((r for r in range(c, n) if rows[r][c]), None)
        if r is None:
            return None
        rows[c], rows[r] = rows[r], rows[c]
        pivot = rows[c][c]
        rows[c] = [x / pivot for x in rows[c]]
        for r in range(n):
            f = rows[r][c]
            if r != c and f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return Matrix([row[n:] for row in rows], cols=n)


def matrix_apply(m, v):
    """m times the column vector v over Fractions, as a tuple."""
    if len(v) != m.cols:
        raise DimensionMismatch("matrix-vector shape mismatch")
    nonzeros = [(j, y) for j, y in enumerate(v) if y]
    return tuple(sum((row[j] * y for j, y in nonzeros if row[j]), Q(0)) for row in m.data)


def tabulate(dim, f):
    """The tensor with e_i * e_j = f(i, j) for every basis pair."""
    return StructureTensor.from_products(
        dim, {(i, j): f(i, j) for i in range(dim) for j in range(dim)})


def half_bracket_product(g):
    """x*y = [x,y]/2 through tabulate, one dense vector per basis pair."""
    return tabulate(g.dim, lambda i, j: vscale(Q(1, 2), g.bracket.basis_product(i, j)))


def change_basis(t, basis, basis_inv):
    """t.change_basis through tabulate: e_a * e_b is basis_inv applied to the
    product of columns a and b of basis, for every pair (a, b)."""
    if basis.rows != t.dim or basis.cols != t.dim:
        raise DimensionMismatch("need a dim x dim basis matrix")
    columns = [column(basis, a) for a in range(t.dim)]

    def entry(a, b):
        w = apply(t, columns[a], columns[b])
        return matrix_apply(basis_inv, w) if any(w) else w

    return tabulate(t.dim, entry)


def lift_product(ext, lift):
    """The lifted product on a x b through tabulate."""
    n, m = ext.dim_a, ext.dim_b
    zb = vzero(m)

    def product(i, j):
        p, q = i - n, j - n
        if i < n:
            return (ext.a_product.basis_product(i, j) if j < n else column(lift.x_op[q], i)) + zb
        if j < n:
            return column(lift.y_op[p], j) + zb
        return omega_value(lift, p, q) + ext.b_product.basis_product(p, q)

    return tabulate(n + m, product)


def extension_bracket(ext):
    """The bracket tensor that assemble gives, through tabulate."""
    n, m = ext.dim_a, ext.dim_b
    zb = vzero(m)

    def bracket(i, j):
        p, q = i - n, j - n
        if i < n:
            return (vzero(n) if j < n else vscale(-1, column(ext.phi[q], i))) + zb
        if j < n:
            return column(ext.phi[p], j) + zb
        return ext.omega_pair(p, q) + ext.b_bracket.basis_product(p, q)

    return tabulate(n + m, bracket)


def quotient_tensor(tensor, subspace):
    """The quotient constants through tabulate: the inverse of [ideal basis |
    complement units] applied to each product of complement units, past the
    ideal's coordinates."""
    n = subspace.ambient_dim
    comp = subspace.complement()
    minv = Matrix.from_columns(
        [list(v) for v in subspace.basis] + [list(vunit(n, j)) for j in comp]
    ).inverse()
    k = subspace.dim

    def entry(a, b):
        w = tensor.basis_product(comp[a], comp[b])
        return (minv.apply(w) if any(w) else w)[k:]

    return comp, tabulate(len(comp), entry)


def t_product(r):
    """e_i * e_j = [T e_i, e_j] through tabulate."""
    g, t = r.g, r.t
    return tabulate(g.dim, lambda i, j: g.bracket.apply(column(t, i), vunit(g.dim, j)))


def deformed_bracket(r):
    """[x,y]_T = [Tx, y] + [x, Ty] through tabulate."""
    g, t = r.g, r.t
    return tabulate(
        g.dim,
        lambda i, j: vadd(
            g.bracket.apply(column(t, i), vunit(g.dim, j)),
            g.bracket.apply(vunit(g.dim, i), column(t, j)),
        ),
    )


def check_cybe(r):
    """[Tx, Ty] = T([Tx, y] + [x, Ty]) on all basis pairs, through dense
    bracket vectors and Matrix.apply: the reference for rmatrix.check_cybe."""
    g, t = r.g, r.t
    n = g.dim
    for i in range(n):
        ti = column(t, i)
        for j in range(i + 1, n):
            tj = column(t, j)
            lhs = g.bracket.apply(ti, tj)
            rhs = t.apply(
                vadd(g.bracket.apply(ti, vunit(g.dim, j)), g.bracket.apply(vunit(g.dim, i), tj))
            )
            if lhs != rhs:
                return Verdict(False, (i, j), "cybe")
    return Verdict(True)


def check_novbed(r):
    """[x, T[y, Tz]] = [y, T[x, Tz]] on all basis triples, through dense
    bracket vectors and Matrix.apply: the reference for rmatrix.check_novbed."""
    g, t = r.g, r.t
    n = g.dim
    e = [vunit(n, i) for i in range(n)]
    for k in range(n):
        tk = column(t, k)
        inner = [t.apply(g.bracket.apply(e[i], tk)) for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if g.bracket.apply(e[i], inner[j]) != g.bracket.apply(e[j], inner[i]):
                    return Verdict(False, (i, j, k), "novbed")
    return Verdict(True)


def var_index(n, i, r, c):
    """The index of the unknown L(e_i)[r][c] of the condition system on Q^n."""
    return (i * n + r) * n + c


def product_from_solution(n, values):
    """The product with L(e_i) read from a solution vector, through tabulate."""
    return tabulate(n, lambda i, j: [values[var_index(n, i, k, j)] for k in range(n)])


def affine_forms(sol):
    """Per-variable affine form (constant, {free column: coefficient}) of a
    consistent SparseSolution, over Fractions, for every variable: the
    general solution assigns arbitrary values to the free columns, and each
    pivot variable depends on them affinely."""
    forms = []
    for c in range(sol.ncols):
        row = sol.pivot_rows.get(c)
        if row is None:
            forms.append((Q(0), {c: Q(1)}))
        else:
            forms.append((sol.pivot_rhs[c], {f: -x for f, x in row.items() if f != c}))
    return forms


def int_affine_form(c, terms):
    """The affine form (c, {param: a}) as (d, d * c, {param: d * a}) with
    ints, d the lcm of its denominators."""
    d = lcm(c.denominator, *[a.denominator for a in terms.values()])
    if d == 1:
        return 1, c.numerator, {p: a.numerator for p, a in terms.items()}
    return d, c.numerator * (d // c.denominator), {
        p: a.numerator * (d // a.denominator) for p, a in terms.items()
    }


def substitute(poly, forms):
    """The affine forms (const, {param: coeff}) substituted into a quadratic
    over Fractions, term by term in the library's order."""
    out = {}
    for mono, coeff in poly.items():
        if mono == ():
            _add_term(out, (), coeff)
        elif len(mono) == 1:
            c0, terms = forms[mono[0]]
            _add_term(out, (), coeff * c0)
            for p, a in terms.items():
                _add_term(out, (p,), coeff * a)
        else:
            (c1, t1), (c2, t2) = forms[mono[0]], forms[mono[1]]
            if c1 and c2:
                _add_term(out, (), coeff * c1 * c2)
            if c2:
                for p, a in t1.items():
                    _add_term(out, (p,), coeff * a * c2)
            if c1:
                for p, a in t2.items():
                    _add_term(out, (p,), coeff * c1 * a)
            for p, a in t1.items():
                for q, b in t2.items():
                    _add_term(out, (min(p, q), max(p, q)), coeff * a * b)
    return out


def commutator(a, b):
    return a * b - b * a


def commutator_tensor(p):
    """Structure constants of x*y - y*x."""
    return tabulate(
        p.dim, lambda i, j: vsub(p.basis_product(i, j), p.basis_product(j, i))
    )


def subspace_sum(u, w):
    return Subspace(u.ambient_dim, u.basis + w.basis)


def included(u, w):
    """U is a subspace of W."""
    return all(w.contains(v) for v in u.basis)


def pivots(space):
    """The pivot column of each canonical basis row: its first nonzero."""
    return tuple(next(j for j, x in enumerate(row) if x) for row in space.basis)


def coordinates(space, v):
    """Coefficients of v in the canonical basis of the subspace; None if v is
    outside. The basis is reduced at the pivot columns, so they are v's
    entries there."""
    if not space.contains(v):
        return None
    return tuple(Q(v[p]) for p in pivots(space))


def row_module(module):
    """The dual action on row vectors, v -> -v phi(X)."""
    return ModuleAction(module.b, module.dim_v, [m.transpose().scale(-1) for m in module.action])


def kernel(sol):
    """The nullspace of a solved system, one vector per free column f: e_f
    minus the entries at f of the reduced pivot rows, each at its pivot."""
    basis = []
    for f in sol.free_columns():
        v = list(vunit(sol.ncols, f))
        for p, row in sol.pivot_rows.items():
            if f in row:
                v[p] = -row[f]
        basis.append(v)
    return Subspace(sol.ncols, basis)


def nullspace_of_rows(rows, ncols):
    """The nullspace of the stacked rows, eliminated from scratch."""
    return kernel(solve_sparse(_sparse(rows), None, ncols))


def annihilator(space):
    """Vectors orthogonal (dot product) to every element of the subspace."""
    return nullspace_of_rows(space.basis, space.ambient_dim)


def h0(module):
    """The invariants of a module: the nullspace of its stacked action rows."""
    return nullspace_of_rows([row for m in module.action for row in m.data], module.dim_v)


def deformation_keeps_class_bounds(g, gt):
    """Whether g_T is nilpotent of class at most g's when g is nilpotent, and
    solvable of derived length at most g's when g is solvable."""
    for bound, value in ((g.nilpotency_class(), gt.nilpotency_class()),
                         (g.derived_length(), gt.derived_length())):
        if bound is not None and (value is None or value > bound):
            return False
    return True


def is_unimodular(g):
    return all(
        sum((g.bracket.left_matrix(i)[k, k] for k in range(g.dim)), Q(0)) == 0
        for i in range(g.dim)
    )


def invariant_profile(g):
    """Cheap isomorphism invariants of a Lie algebra: dimension, nilpotency
    class, derived length, the dimensions along both series, unimodularity."""
    return (
        g.dim,
        g.nilpotency_class(),
        g.derived_length(),
        tuple(s.dim for s in g.lower_central_series()),
        tuple(s.dim for s in g.derived_series()),
        is_unimodular(g),
    )


def intersect(u, w):
    """U meet W, as the annihilator of ann(U) + ann(W)."""
    return annihilator(subspace_sum(annihilator(u), annihilator(w)))


def bracket_space(g, u_space, v_space):
    """Span of [u, v] over basis vectors of the two subspaces, each product
    one dense StructureTensor.apply."""
    return Subspace(g.dim, [g.bracket.apply(u, v) for u in u_space.basis for v in v_space.basis])


def series(g, derived):
    """g, then [S, S] (derived) or [g, S] (lower central) of the last term
    S by the dense bracket_space, until a term repeats."""
    full = Subspace.full(g.dim)
    terms = [full]
    while True:
        nxt = bracket_space(g, terms[-1] if derived else full, terms[-1])
        if nxt == terms[-1]:
            return terms
        terms.append(nxt)


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
    t, n = p, p.dim
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
    t, n = p, p.dim
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
            com = vsub(basis_product(p, i, j), basis_product(p, j, i))
            if com != basis_product(g.bracket, i, j):
                return Verdict(False, (i, j), "eq-3")
    return Verdict(True)


def is_compatible_pairs(p, g):
    """The commutator of the product equals the Lie bracket, compared over
    Fractions pair by pair, visiting only the basis pairs where either pair
    index has a constant, in sorted order."""
    if p.dim != g.dim:
        return Verdict(False, None, "dimension-mismatch")
    pairs, bracket = p.pairs, g.bracket.pairs
    for i, j in sorted({(b, a) for a, b in pairs} | set(pairs) | set(bracket)):
        u, v, w = pairs.get((i, j), {}), pairs.get((j, i), {}), bracket.get((i, j), {})
        if any(u.get(k, 0) - v.get(k, 0) != w.get(k, 0) for k in u.keys() | v.keys() | w.keys()):
            return Verdict(False, (i, j), "eq-3")
    return Verdict(True)


def a_product_violation(a):
    """The a-product scans of ExtensionData.validate with dense vectors: the
    (label, witness) of the first failure, commutativity on i < j before
    associativity on every triple, or None."""
    t, n = a, a.dim
    for i in range(n):
        for j in range(i + 1, n):
            if basis_product(t, i, j) != basis_product(t, j, i):
                return "a-product-commutative", (i, j)
    bad = associative_defect(t)
    return None if bad is None else ("a-product-associative", bad)


def associative_defect(t):
    """The first basis triple, over every triple, where (e_i e_j) e_k and
    e_i (e_j e_k) differ, with dense vectors, or None."""
    n = t.dim
    e = [vunit(n, i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = apply(t, basis_product(t, i, j), e[k])
                if lhs != apply(t, e[i], basis_product(t, j, k)):
                    return i, j, k
    return None


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
    bad = jacobi_defect(bracket)
    if bad:
        raise JacobiViolation(*bad)
    return LieAlgebra(bracket, labels)


def jacobi_defect(bracket):
    """The first basis triple i < j < k where [[i, j], k] + [[j, k], i] +
    [[k, i], j] is not zero, with dense vectors, or None; antisymmetry is
    not asked of the bracket."""
    n = bracket.dim
    products = _basis_products(bracket)
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
                    return i, j, k
    return None


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
    lefts = [p.left_matrix(i) for i in range(n)]
    ads = [g.bracket.left_matrix(i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            bracket = g.bracket.basis_product(i, j)
            l_br = left_matrix_of(p, bracket)
            ad_br = left_matrix_of(g.bracket, bracket)
            total = l_br + ad_br - commutator(ads[i], lefts[j]) - commutator(lefts[i], ads[j])
            if not total.is_zero():
                return False
    return True


def matrix_power(m, k):
    """m^k by repeated squaring."""
    if m.rows != m.cols:
        raise DimensionMismatch("power of non-square matrix")
    result = Matrix.identity(m.rows)
    base = m
    while k:
        if k & 1:
            result = result * base
        k >>= 1
        if k:
            base = base * base
    return result


def is_nilpotent(m):
    """m^n = 0 for the n x n matrix m."""
    return matrix_power(m, m.rows).is_zero()


def left_matrix_of(t, x):
    return scaled_sum(((c, t.left_matrix(i)) for i, c in enumerate(x) if c), t.dim, t.dim)


def right_matrix_of(t, x):
    return scaled_sum(((c, right_matrix(t, i)) for i, c in enumerate(x) if c), t.dim, t.dim)


def is_complete(p):
    """Each dense R(e_i) raised to the n-th power, then the dense eq-2 scan
    and the dense left-symmetry scan; a product that passes neither is not
    left-symmetric."""
    t, n = p, p.dim
    for i in range(n):
        if not is_nilpotent(right_matrix(t, i)):
            return Completeness(INCOMPLETE, vunit(n, i))
    if eq2(p) or is_left_symmetric(p):
        return Completeness(COMPLETE)
    return Completeness(NOT_LEFT_SYMMETRIC)


def sample_rights(p):
    """The first of SAMPLES seeded rational vectors x with the dense R(x)
    not nilpotent, or None if every sampled R(x) is nilpotent."""
    t, n = p, p.dim
    rng = random.Random(SEED)
    for _ in range(SAMPLES):
        x = tuple(Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))
        if not is_nilpotent(right_matrix_of(t, x)):
            return x
    return None


def word_image_space(ops, v_subspace, length):
    """Span of w(v) over v in the subspace and words w of exactly `length`
    operators, one dense image span per length: the reference for the V_0
    of fitting_decompose, the image of the words of length dim V."""
    current = v_subspace
    for _ in range(length):
        vectors = []
        for m in ops:
            vectors.extend(m.apply(v) for v in current.basis)
        current = Subspace(v_subspace.ambient_dim, vectors)
    return current


def nilpotent_regular_basis(n_matrix):
    """N^n = 0 and the seed column of N^(n-1) from dense powers, then the
    chain by dense matrix-vector products."""
    n = n_matrix.rows
    if n_matrix.cols != n:
        raise DimensionMismatch("square matrix required")
    if not matrix_power(n_matrix, n).is_zero():
        raise NotRegularNilpotent("matrix is not nilpotent")
    top = matrix_power(n_matrix, n - 1) if n > 1 else Matrix.identity(n)
    seed = None
    for j in range(n):
        if not is_zero_vec(column(top, j)):
            seed = vunit(n, j)
            break
    if seed is None:
        raise NotRegularNilpotent("nilpotency index is smaller than the dimension")
    chain = [seed]
    for _ in range(n - 1):
        chain.append(n_matrix.apply(chain[-1]))
    chain.reverse()
    return Matrix.from_columns(chain).inverse()


def omega_value(lift, p, q):
    """The lift's omega(e_p, e_q), zero where x_values stores nothing."""
    return lift.x_values.get((p, q), vzero(lift.dim_a))


def lift_through(ext, ind, lift_n):
    """reduction_lift's pull-back of lift_n, a lift on ind.ext_n, to ext,
    worked out by hand: X and Y padded into blocks (0 and phi_0 on a_0), the
    cocycle corrected vector by vector to omega(p, q) - X_q lam_p - Y_p lam_q
    + lam(p q), and every X_p, Y_p and omega value conjugated by ind.basis.
    The library's one change of basis is held to it."""
    n1, n2 = ind.dim_n, ind.dim_0
    n, m = ext.dim_a, ext.dim_b

    def block(x_mat, corner):
        rows = [[Q(0)] * n for _ in range(n)]
        for r in range(n1):
            for c in range(n1):
                rows[r][c] = x_mat[r, c]
        for r in range(n2):
            for c in range(n2):
                rows[n1 + r][n1 + c] = corner[r, c]
        return Matrix(rows, cols=n)

    zero_corner = Matrix.zeros(n2, n2)
    x_split = [block(lift_n.x_op[p], zero_corner) for p in range(m)]
    y_split = [block(lift_n.y_op[p], ind.phi_0[p]) for p in range(m)]

    def lam_vec(p):
        return vzero(n1) + tuple(ind.lam[p])

    def lam_of(x):
        out = vzero(n)
        for p, c in enumerate(x):
            if c:
                out = vadd(out, vscale(c, lam_vec(p)))
        return out

    x_values = {}
    for p in range(m):
        for q in range(m):
            w = tuple(omega_value(lift_n, p, q)) + vzero(n2)
            w = vsub(w, x_split[q].apply(lam_vec(p)))
            w = vsub(w, y_split[p].apply(lam_vec(q)))
            w = vadd(w, lam_of(ext.b_product.basis_product(p, q)))
            if not is_zero_vec(w):
                x_values[(p, q)] = w
    # back to the original a-coordinates
    basis, basis_inv = ind.basis, ind.basis_inv
    x_orig = [basis * xm * basis_inv for xm in x_split]
    y_orig = [basis * ym * basis_inv for ym in y_split]
    values_orig = {k: basis.apply(v) for k, v in x_values.items()}
    return LiftData(n, m, x_orig, y_orig, values_orig)


def lift_omega_of(lift, x, y):
    """The lift's omega(x, y), bilinear in the b-vectors x and y."""
    out = vzero(lift.dim_a)
    for (p, q), v in lift.x_values.items():
        c = x[p] * y[q]
        if c:
            out = vadd(out, vscale(c, v))
    return out


def check_lift_lsa(ext, lift):
    """Conditions (8)-(14) for the lifted product to be left-symmetric; a
    lift whose dimensions are not the extension's fails dimension-mismatch,
    and a b-product that is no LSA structure on b its b-product label."""
    if (lift.dim_a, lift.dim_b) != (ext.dim_a, ext.dim_b):
        return Verdict(False, None, "dimension-mismatch")
    hypothesis = _b_product_verdict(ext)
    if not hypothesis:
        return hypothesis
    n, m = ext.dim_a, ext.dim_b
    ea = [vunit(n, i) for i in range(n)]
    eb = [vunit(m, p) for p in range(m)]
    x_op, y_op = lift.x_op, lift.y_op
    aprod = ext.a_product
    bprod = ext.b_product

    for p in range(m):
        for q in range(m):
            lhs = vsub(omega_value(lift, p, q), omega_value(lift, q, p))
            if lhs != ext.omega_pair(p, q):
                return Verdict(False, (p, q), "eq-8")
    for p in range(m):
        if y_op[p] - x_op[p] != ext.phi[p]:
            return Verdict(False, (p,), "eq-9")
    for p in range(m):
        for q in range(m):
            for r in range(m):
                lhs = vsub(
                    vsub(
                        y_op[p].apply(omega_value(lift, q, r)),
                        y_op[q].apply(omega_value(lift, p, r)),
                    ),
                    lift.x_op[r].apply(ext.omega_pair(p, q)),
                )
                rhs = vadd(
                    vsub(
                        lift_omega_of(lift, eb[q], bprod.basis_product(p, r)),
                        lift_omega_of(lift, eb[p], bprod.basis_product(q, r)),
                    ),
                    lift_omega_of(lift, ext.b_bracket.basis_product(p, q), eb[r]),
                )
                if lhs != rhs:
                    return Verdict(False, (p, q, r), "eq-10")
    # eq-11 reads e_i.omega(q, r) = (Y_q X_r - X_r A_q - X(q.r)) e_i; the
    # matrix does not depend on i, so it is built once per (q, r)
    eq11 = {
        (q, r): y_op[q] * x_op[r] - x_op[r] * ext.phi[q]
        - scaled_sum(zip(bprod.basis_product(q, r), x_op), n, n)
        for q in range(m)
        for r in range(m)
    }
    for i in range(n):
        for q in range(m):
            for r in range(m):
                if aprod.apply(ea[i], omega_value(lift, q, r)) != column(eq11[(q, r)], i):
                    return Verdict(False, (i, q, r), "eq-11")
    for i in range(n):
        for j in range(n):
            for r in range(m):
                if aprod.apply(ea[i], x_op[r].apply(ea[j])) != aprod.apply(
                    ea[j], x_op[r].apply(ea[i])
                ):
                    return Verdict(False, (i, j, r), "eq-12")
    for i in range(n):
        for k in range(n):
            for q in range(m):
                lhs = vsub(
                    y_op[q].apply(aprod.apply(ea[i], ea[k])),
                    aprod.apply(ea[i], y_op[q].apply(ea[k])),
                )
                rhs = aprod.apply(ext.phi[q].apply(ea[i]), ea[k])
                if lhs != rhs:
                    return Verdict(False, (i, k, q), "eq-13")
    for p in range(m):
        for q in range(p + 1, m):
            w = ext.omega_pair(p, q)
            for k in range(n):
                if not is_zero_vec(aprod.apply(w, ea[k])):
                    return Verdict(False, (p, q, k), "eq-14")
    return Verdict(True)


def _check_lift_novikov_trivial(ext, lift):
    """Conditions (25)-(31): the trivial-products specialization."""
    if (lift.dim_a, lift.dim_b) != (ext.dim_a, ext.dim_b):
        return Verdict(False, None, "dimension-mismatch")
    n, m = ext.dim_a, ext.dim_b
    x_op, y_op = lift.x_op, lift.y_op
    for p in range(m):
        for q in range(m):
            lhs = vsub(omega_value(lift, p, q), omega_value(lift, q, p))
            if lhs != ext.omega_pair(p, q):
                return Verdict(False, (p, q), "eq-25")
    for p in range(m):
        if x_op[p] + ext.phi[p] != y_op[p]:
            return Verdict(False, (p,), "eq-26")
    for p in range(m):
        for q in range(m):
            for r in range(m):
                lhs = vsub(
                    y_op[p].apply(omega_value(lift, q, r)),
                    y_op[q].apply(omega_value(lift, p, r)),
                )
                if lhs != x_op[r].apply(ext.omega_pair(p, q)):
                    return Verdict(False, (p, q, r), "eq-27")
    for p in range(m):
        for q in range(m):
            if x_op[p] * ext.phi[q] - ext.phi[q] * x_op[p] != x_op[q] * x_op[p]:
                return Verdict(False, (p, q), "eq-28")
    for p in range(m):
        for q in range(m):
            for r in range(m):
                if x_op[r].apply(omega_value(lift, p, q)) != x_op[q].apply(
                    omega_value(lift, p, r)
                ):
                    return Verdict(False, (p, q, r), "eq-29")
    for p in range(m):
        for q in range(m):
            if not (x_op[p] * y_op[q]).is_zero():
                return Verdict(False, (p, q), "eq-30")
    for p in range(m):
        for q in range(p + 1, m):
            if x_op[p] * x_op[q] != x_op[q] * x_op[p]:
                return Verdict(False, (p, q), "eq-31")
    return Verdict(True)


def check_lift_novikov(ext, lift):
    """Conditions (25)-(31) when both products are trivial and b is abelian;
    otherwise the LSA conditions (8)-(14) followed by (15)-(20)."""
    if ext.products_trivial() and ext.b_is_abelian():
        return _check_lift_novikov_trivial(ext, lift)
    lsa = check_lift_lsa(ext, lift)
    if not lsa:
        return lsa
    return _check_novikov_extra(ext, lift)


def _check_novikov_extra(ext, lift):
    n, m = ext.dim_a, ext.dim_b
    ea = [vunit(n, i) for i in range(n)]
    eb = [vunit(m, p) for p in range(m)]
    x_op, y_op = lift.x_op, lift.y_op
    aprod = ext.a_product
    bprod = ext.b_product
    for p in range(m):
        for q in range(m):
            for r in range(m):
                lhs = vsub(
                    x_op[r].apply(omega_value(lift, p, q)),
                    x_op[q].apply(omega_value(lift, p, r)),
                )
                rhs = vsub(
                    lift_omega_of(lift, bprod.basis_product(p, r), eb[q]),
                    lift_omega_of(lift, bprod.basis_product(p, q), eb[r]),
                )
                if lhs != rhs:
                    return Verdict(False, (p, q, r), "eq-15")
    for p in range(m):
        for q in range(m):
            # eq-16 reads omega(p, q).e_k = (X_q Y_p - Y(p.q)) e_k
            rhs = x_op[q] * y_op[p] - scaled_sum(zip(bprod.basis_product(p, q), y_op), n, n)
            for k in range(n):
                if aprod.apply(omega_value(lift, p, q), ea[k]) != column(rhs, k):
                    return Verdict(False, (p, q, k), "eq-16")
    for p in range(m):
        for q in range(p + 1, m):
            if x_op[p] * x_op[q] != x_op[q] * x_op[p]:
                return Verdict(False, (p, q), "eq-17")
    for p in range(m):
        for j in range(n):
            for k in range(n):
                if aprod.apply(y_op[p].apply(ea[j]), ea[k]) != aprod.apply(
                    y_op[p].apply(ea[k]), ea[j]
                ):
                    return Verdict(False, (p, j, k), "eq-18")
    for r in range(m):
        for i in range(n):
            for j in range(n):
                if x_op[r].apply(aprod.apply(ea[i], ea[j])) != aprod.apply(
                    x_op[r].apply(ea[i]), ea[j]
                ):
                    return Verdict(False, (r, i, j), "eq-19")
    # eq-20 is the eq-2 scan of the b-product
    eq20 = _eq2(bprod)
    if not eq20:
        return Verdict(False, eq20.witness, "eq-20")
    return Verdict(True)
