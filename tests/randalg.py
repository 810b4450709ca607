"""Deterministic random generators for the test corpora."""

import functools
import random

from hypothesis import strategies as st

from novikov import fixtures as fx
from novikov.extensions import ExtensionData, assemble, two_step_solvable_from
from novikov.lie import LieAlgebra, StructureTensor, quotient, validate_lie
from novikov.linalg import Matrix, Q, Subspace, jordan_block
from novikov.products import half_bracket_product
from novikov.reduction import ModuleAction

from dense_scans import commutator_tensor


def rng_for(tag, index=0):
    return random.Random("novikov-%s-%d" % (tag, index))


def rational(rng, lo=-3, hi=3, dens=(1, 1, 2)):
    return Q(rng.randint(lo, hi), rng.choice(dens))


def random_two_step_nilpotent(rng, max_dim=8):
    """Brackets of generators land in a central block: always 2-step."""
    while True:
        n = rng.randint(3, max_dim)
        m = rng.randint(2, n - 1)
        c = n - m
        brackets = {}
        for i in range(m):
            for j in range(i + 1, m):
                v = [Q(0)] * n
                for k in range(m, n):
                    if rng.random() < 0.6:
                        v[k] = rational(rng)
                if any(v):
                    brackets[(i, j)] = tuple(v)
        if not brackets:
            continue
        g = validate_lie(StructureTensor.antisymmetric_from_brackets(n, brackets))
        if g.nilpotency_class() == 2:
            return g


def _strict_block(rng, k1, k2):
    """(k1+k2)-square matrix mapping the first block into the second."""
    n = k1 + k2
    rows = [[Q(0)] * n for _ in range(n)]
    for r in range(k2):
        for c in range(k1):
            if rng.random() < 0.7:
                rows[k1 + r][c] = rational(rng)
    return Matrix(rows, cols=n)


def random_three_step_extension(rng, index):
    """A_p A_q = 0 by block shape; every other instance is a quotient of the
    14-dimensional free algebra, decomposed."""
    if index % 2 == 0:
        while True:
            k1 = rng.randint(1, 3)
            k2 = rng.randint(1, 3)
            n = k1 + k2
            phi = [_strict_block(rng, k1, k2) for _ in range(2)]
            v12 = tuple(rational(rng) for _ in range(n))
            if not any(v12):
                continue
            ext = ExtensionData(n, 2, phi, {(0, 1): v12})
            g = assemble(ext)
            if g.nilpotency_class() == 3 and g.dim <= 10:
                return ext
    f = fx.free_n3_c3()
    while True:
        d = rng.randint(4, 7)
        vectors = []
        for _ in range(d):
            v = [Q(0)] * 14
            for k in range(6, 14):
                if rng.random() < 0.5:
                    v[k] = rational(rng)
            vectors.append(tuple(v))
        ideal = Subspace(14, vectors)
        if ideal.dim < 4 or ideal.dim > 7:
            continue
        q = quotient(f, ideal)
        if q.nilpotency_class() != 3:
            continue
        ext, _ = two_step_solvable_from(q)
        return ext


def unimodular(rng, n):
    lower = [[Q(1) if i == j else (rational(rng, -2, 2, (1,)) if i > j and rng.random() < 0.5 else Q(0))
              for j in range(n)] for i in range(n)]
    upper = [[Q(1) if i == j else (rational(rng, -2, 2, (1,)) if i < j and rng.random() < 0.5 else Q(0))
              for j in range(n)] for i in range(n)]
    return Matrix(lower) * Matrix(upper)


def random_regular_jordan_extension(rng, index):
    """phi(e_1) is conjugate to the full Jordan block; the other actions are
    polynomials in it. Every third instance gets an invertible action so the
    construction delegates to the invertible-action lift."""
    n = rng.randint(2, 5)
    m = rng.choice((2, 3))
    s = unimodular(rng, n)
    s_inv = s.inverse()
    j = jordan_block(n)
    a_mats = [s * j * s_inv]
    lowest = 0 if index % 3 == 2 else 1
    for _ in range(m - 1):
        mat = Matrix.zeros(n, n)
        power = Matrix.identity(n)
        for k in range(n):
            if k >= lowest and rng.random() < 0.6:
                mat = mat + power.scale(rational(rng))
            power = power * j
        a_mats.append(s * mat * s_inv)
    if m == 2:
        omega = {(0, 1): tuple(rational(rng) for _ in range(n))}
    else:
        ws = [tuple(rational(rng) for _ in range(n)) for _ in range(m)]
        omega = {}
        for p in range(m):
            for q in range(p + 1, m):
                v = tuple(
                    x - y
                    for x, y in zip(a_mats[p].apply(ws[q]), a_mats[q].apply(ws[p]))
                )
                if any(v):
                    omega[(p, q)] = v
    return ExtensionData(n, m, a_mats, omega)


def _abelian_module(rng):
    m = rng.randint(1, 3)
    b = fx.abelian(m)
    k_nil = rng.randint(1, 4)
    k_free = rng.randint(1, 3)
    n = k_nil + k_free
    seed = Matrix(
        [[rational(rng) if c > r and rng.random() < 0.7 else Q(0) for c in range(k_nil)]
         for r in range(k_nil)]
    )
    mats = []
    for p in range(m):
        nil = Matrix.zeros(k_nil, k_nil)
        power = Matrix.identity(k_nil)
        for k in range(1, k_nil + 1):
            power = power * seed
            if rng.random() < 0.7:
                nil = nil + power.scale(rational(rng))
        diag = [rational(rng, -3, 3, (1,)) for _ in range(k_free)]
        if p == 0:
            diag = [d if d != 0 else Q(1) for d in diag]
        rows = [[nil[r, c] if r < k_nil and c < k_nil
                 else (diag[r - k_nil] if r == c else Q(0))
                 for c in range(n)] for r in range(n)]
        mats.append(Matrix(rows, cols=n))
    return b, n, mats


def _heisenberg_module(rng):
    b = fx.n3()
    p3 = Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    q3 = Matrix([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    c3 = Matrix([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    k_free = rng.randint(1, 3)
    lam = [rational(rng, -2, 2, (1,)) for _ in range(2)]
    if lam[0] == 0 and lam[1] == 0:
        lam[0] = Q(1)
    n = 3 + k_free
    mats = []
    for base, scalar in ((p3, lam[0]), (q3, lam[1]), (c3, Q(0))):
        rows = [[base[r, c] if r < 3 and c < 3
                 else (scalar if r == c else Q(0))
                 for c in range(n)] for r in range(n)]
        mats.append(Matrix(rows, cols=n))
    return b, n, mats


def random_nilpotent_module(rng, index):
    """Nilpotent block plus an invariant-free block, scrambled by conjugation."""
    if index % 3 == 2:
        b, n, mats = _heisenberg_module(rng)
    else:
        b, n, mats = _abelian_module(rng)
    s = unimodular(rng, n)
    s_inv = s.inverse()
    return ModuleAction(b, n, [s * m * s_inv for m in mats])


def random_mixed_extension(rng):
    """Abelian b of dimension 2 acting with a nilpotent part (products of two
    vanish) and an invertible commuting part; cocycle values arbitrary."""
    k1 = rng.randint(1, 2)
    k2 = rng.randint(1, 2)
    k_free = rng.randint(1, 2)
    n = k1 + k2 + k_free
    diags = [[rational(rng, -3, 3, (1,)) for _ in range(k_free)] for _ in range(2)]
    diags[0] = [d if d != 0 else Q(2) for d in diags[0]]
    mats = []
    for p in range(2):
        nil = _strict_block(rng, k1, k2)
        rows = [[nil[r, c] if r < k1 + k2 and c < k1 + k2
                 else (diags[p][r - k1 - k2] if r == c else Q(0))
                 for c in range(n)] for r in range(n)]
        mats.append(Matrix(rows, cols=n))
    s = unimodular(rng, n)
    s_inv = s.inverse()
    omega = {(0, 1): tuple(rational(rng) for _ in range(n))}
    return ExtensionData(
        n, 2, [s * m * s_inv for m in mats], {k: s.apply(v) for k, v in omega.items()}
    )


def random_prop57_instance(rng):
    """Assembled mixed extension; its lower central series stabilizes at the
    fourth term by construction (the nilpotent action dies in two steps)."""
    while True:
        ext = random_mixed_extension(rng)
        g = assemble(ext)
        lcs = g.lower_central_series()

        def term(k):
            return lcs[k - 1] if k - 1 < len(lcs) else lcs[-1]

        if g.derived_length() <= 2 and term(5) == term(4) and not g.is_nilpotent():
            return g


def gelfand_dorfman(n, k):
    """The Novikov product t^a * t^b = b t^(a+b+k-1) on A = Q[t]/(t^n), that
    is x * y = x D(y) for the derivation D = t^k d/dt of A (Gelfand-Dorfman),
    with its commutator algebra. k >= 1: d/dt is no derivation of A."""
    if k < 1:
        raise ValueError("t^k d/dt is a derivation of Q[t]/(t^n) only for k >= 1")
    entries = {(a, b, a + b + k - 1): Q(b)
               for a in range(n) for b in range(1, n) if a + b + k - 1 < n}
    product = StructureTensor(n, entries)
    return validate_lie(commutator_tensor(product)), product


def rebased(g, product, rng):
    """g and product in the basis of the columns of unimodular(rng, dim)."""
    s = unimodular(rng, g.dim)
    s_inv = s.inverse()
    return (LieAlgebra(g.bracket.change_basis(s, s_inv)),
            product.change_basis(s, s_inv))


def basis_rmatrix_pool():
    return [
        fx.n3(),
        fx.r2(),
        fx.ex35(),
        fx.free_n2_c4(),
        fx.free_n3_c3(),
        fx.filiform(5),
        fx.r3_lambda(Q(1, 2)),
        fx.abelian(3),
    ]


def random_basis_rmatrix_case(rng, pool):
    while True:
        g = rng.choice(pool)
        ell = rng.randrange(g.dim)
        m = rng.randrange(g.dim)
        if all(g.bracket.basis_product(i, m)[ell] == 0 for i in range(g.dim)):
            return g, ell, m


# Hypothesis strategies for the differential tests of the axiom scans.

FRACTIONS = st.builds(Q, st.integers(-3, 3), st.sampled_from((1, 2, 3)))


@st.composite
def sparse_tensors(draw, max_dim=7, antisymmetric=False):
    """Random sparse tensors of dimension 1 to max_dim with entries like -3/2."""
    n = draw(st.integers(1, max_dim))
    index = st.integers(0, n - 1)
    entries = draw(st.dictionaries(st.tuples(index, index, index), FRACTIONS, max_size=2 * n * n))
    if antisymmetric:
        entries = {(i, j, k): c for (i, j, k), c in entries.items() if i < j}
        entries.update({(j, i, k): -c for (i, j, k), c in entries.items()})
    return StructureTensor(n, entries)


@st.composite
def perturbed(draw, tensor, antisymmetric=False):
    """The tensor with one constant replaced (possibly by zero); with
    antisymmetric, c[j][i][k] follows c[i][j][k]."""
    index = st.integers(0, tensor.dim - 1)
    i, j, k = draw(st.tuples(index, index, index))
    c = draw(FRACTIONS)
    entries = dict(tensor.entries)
    entries[(i, j, k)] = c
    if antisymmetric:
        entries[(j, i, k)] = -c if i != j else 0
    return StructureTensor(tensor.dim, entries)


@functools.lru_cache(maxsize=None)
def _novikov_tables():
    """Fixture products of dimension at most 7 with their Lie algebras."""
    return [
        (fx.ex35_product(), fx.ex35()),
        (fx.in_novikov_product(3), fx.in_lie(3)),
        (fx.in_novikov_product(4), fx.in_lie(4)),
        (fx.in_product(3), fx.in_lie(3)),
        (half_bracket_product(fx.n3()), fx.n3()),
        (half_bracket_product(fx.filiform(5)), fx.filiform(5)),
    ]


@st.composite
def product_cases(draw):
    """(product, Lie algebra) pairs: a fixture table with one constant
    changed, its bracket kept, or a random table against its own commutator,
    itself sometimes changed; the Lie algebra is not validated."""
    if draw(st.booleans()):
        p, g = draw(st.sampled_from(_novikov_tables()))
        return draw(perturbed(p)), g
    p = draw(sparse_tensors())
    bracket = commutator_tensor(p)
    if draw(st.booleans()):
        bracket = draw(perturbed(bracket))
    return p, LieAlgebra(bracket)


@functools.lru_cache(maxsize=None)
def _lie_fixtures():
    return (fx.ex35(), fx.sl2(), fx.r3(), fx.filiform(5), fx.in_lie(4), fx.filiform(7))


@st.composite
def bracket_cases(draw):
    """Random tables, random antisymmetric tables, and fixture brackets with
    one constant changed: failures of antisymmetry and of Jacobi alike."""
    kind = draw(st.sampled_from(("random", "antisymmetric", "fixture")))
    if kind == "fixture":
        g = draw(st.sampled_from(_lie_fixtures()))
        return draw(perturbed(g.bracket, antisymmetric=draw(st.booleans())))
    return draw(sparse_tensors(antisymmetric=kind == "antisymmetric"))


def _truncated_polynomials(n):
    """x, ..., x^n in Q[x]/(x^(n+1)): a commutative associative product."""
    return StructureTensor(n, {(i, j, i + j + 1): Q(1) for i in range(n) for j in range(n)
                               if i + j + 1 < n})


@st.composite
def a_product_cases(draw):
    """Candidate a-products: truncated polynomial algebras, sometimes with
    one constant changed, and random tables, sometimes made commutative."""
    kind = draw(st.sampled_from(("polynomial", "random", "symmetric")))
    if kind == "polynomial":
        t = _truncated_polynomials(draw(st.integers(1, 5)))
        return draw(perturbed(t)) if draw(st.booleans()) else t
    t = draw(sparse_tensors(max_dim=5))
    if kind == "symmetric":
        t = StructureTensor(t.dim, {(a, b, k): c for (i, j, k), c in t.entries.items() if i <= j
                                    for a, b in ((i, j), (j, i))})
    return t


@st.composite
def subspaces(draw, max_dim=7):
    """Subspaces of Q^n for n up to max_dim, spanned by up to n + 1 vectors
    whose entries are zero about half the time."""
    n = draw(st.integers(0, max_dim))
    vector = st.lists(st.one_of(st.just(Q(0)), FRACTIONS), min_size=n, max_size=n)
    return Subspace(n, draw(st.lists(vector, max_size=n + 1)))
