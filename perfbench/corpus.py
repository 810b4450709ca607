"""Seeded corpus for the construct-verify workload.

The shape of every instance (its dimensions and which entries are nonzero)
comes from a stream that ignores the seed; the seed draws the nonzero
rational values and the rank-one r-matrices. Every seed therefore yields
the same mix of kinds and sizes with different numbers in it, so two seeds
do comparable work and a gain measured on one seed can be re-checked on
another.

Each item is (kind, dim, build, expect): build() constructs the product and
returns it with the Lie algebra it must be compatible with. Every product is
left-symmetric and compatible; expect holds the other verdicts known in
advance. A Novikov verdict or completeness kind of None is only checked for
repeatability, and completeness "passes" asks that no right multiplication
is found non-nilpotent.
"""

import random

# Sizes are chosen so that most random items cost about the same, which
# keeps the median op latency from jumping between kinds from seed to seed.
PER_KIND = 5
HALF_BRACKET_DIMS = (6, 7, 7, 8, 10)
JORDAN_SHAPES = ((4, 2), (4, 3), (5, 2), (3, 3), (4, 2))
MIXED_SHAPES = ((1, 2, 1), (2, 1, 1), (2, 1, 2), (1, 2, 2), (1, 1, 1))
PROP57_SHAPES = ((1, 1, 1), (1, 2, 1), (1, 1, 1), (2, 1, 1), (1, 1, 1))
IN_DIM = 5


class _Draw:
    def __init__(self, nv, seed, kind, index):
        self.Q = nv.linalg.Q
        self.shape = random.Random("perfbench-shape-%s-%d" % (kind, index))
        self.value = random.Random("perfbench-value-%d-%s-%d" % (seed, kind, index))

    def nonzero(self, p):
        return self.shape.random() < p

    def rational(self):
        return self.Q(self.value.choice((1, -1, 2, -2, 3, -3)), self.value.choice((1, 1, 2)))

    def integer(self):
        return self.Q(self.value.choice((1, -1, 2, -2)))


def _two_step_nilpotent(nv, draw, n):
    """Brackets of the generators land in the central block: 2-step."""
    Q = nv.linalg.Q
    m = draw.shape.randint(2, n - 2) if n > 3 else 2
    brackets = {}
    for i in range(m):
        for j in range(i + 1, m):
            v = [draw.rational() if draw.nonzero(0.6) else Q(0) for _ in range(m, n)]
            if any(v):
                brackets[(i, j)] = (Q(0),) * m + tuple(v)
    if not brackets:
        brackets[(0, 1)] = tuple(Q(1) if k == n - 1 else Q(0) for k in range(n))
    return nv.lie.validate_lie(nv.lie.StructureTensor.antisymmetric_from_brackets(n, brackets))


def _unimodular(nv, draw, n):
    Q, Matrix = nv.linalg.Q, nv.linalg.Matrix

    def entry(i, j, below):
        if i == j:
            return Q(1)
        if (i > j) == below and draw.nonzero(0.5):
            return draw.integer()
        return Q(0)

    lower = [[entry(i, j, True) for j in range(n)] for i in range(n)]
    upper = [[entry(i, j, False) for j in range(n)] for i in range(n)]
    return Matrix(lower) * Matrix(upper)


def _regular_jordan_extension(nv, draw, index):
    """phi(e_1) is conjugate to the full Jordan block, the other actions are
    polynomials in it; instance 2 has an invertible action, so jordan_lift
    hands over to iso_lift."""
    la = nv.linalg
    n, m = JORDAN_SHAPES[index]
    s = _unimodular(nv, draw, n)
    s_inv = s.inverse()
    j = la.jordan_block(n)
    mats = [s * j * s_inv]
    lowest = 0 if index % 3 == 2 else 1
    for _ in range(m - 1):
        mat = la.Matrix.zeros(n, n)
        power = la.Matrix.identity(n)
        for k in range(n):
            if k >= lowest and (k == lowest or draw.nonzero(0.6)):
                mat = mat + power.scale(draw.rational())
            power = power * j
        mats.append(s * mat * s_inv)
    ws = [tuple(draw.rational() for _ in range(n)) for _ in range(m)]
    omega = {}
    for p in range(m):
        for q in range(p + 1, m):
            if m == 2:
                v = ws[0]
            else:
                v = tuple(x - y for x, y in zip(mats[p].apply(ws[q]), mats[q].apply(ws[p])))
            if any(v):
                omega[(p, q)] = v
    return nv.extensions.ExtensionData(n, m, mats, omega)


def _strict_block(nv, draw, k1, k2):
    Q = nv.linalg.Q
    n = k1 + k2
    rows = [[Q(0)] * n for _ in range(n)]
    for r in range(k2):
        for c in range(k1):
            if draw.nonzero(0.7):
                rows[k1 + r][c] = draw.rational()
    return nv.linalg.Matrix(rows, cols=n)


def _mixed_extension(nv, draw, k1, k2, k_free):
    """Abelian b of dimension 2 acting by a nilpotent block (products of two
    actions vanish) plus an invertible diagonal block, conjugated."""
    Q, Matrix = nv.linalg.Q, nv.linalg.Matrix
    n = k1 + k2 + k_free
    diags = [
        [draw.integer() for _ in range(k_free)],
        [draw.integer() if draw.nonzero(0.7) else Q(0) for _ in range(k_free)],
    ]
    mats = []
    for p in range(2):
        nil = _strict_block(nv, draw, k1, k2)
        rows = [
            [
                nil[r, c] if r < k1 + k2 and c < k1 + k2
                else (diags[p][r - k1 - k2] if r == c else Q(0))
                for c in range(n)
            ]
            for r in range(n)
        ]
        mats.append(Matrix(rows, cols=n))
    s = _unimodular(nv, draw, n)
    s_inv = s.inverse()
    v01 = tuple(draw.rational() for _ in range(n))
    return nv.extensions.ExtensionData(
        n, 2, [s * m * s_inv for m in mats], {(0, 1): s.apply(v01)}
    )


def _prop57_algebra(nv, draw, index):
    """Assembled mixed extension whose lower central series stabilizes at
    the fourth term (the nilpotent action dies in two steps)."""
    k1, k2, k_free = PROP57_SHAPES[index]
    while True:
        g = nv.extensions.assemble(_mixed_extension(nv, draw, k1, k2, k_free))
        lcs = g.lower_central_series()

        def term(k):
            return lcs[k - 1] if k - 1 < len(lcs) else lcs[-1]

        if g.derived_length() <= 2 and term(5) == term(4) and not g.is_nilpotent():
            return g


def _rmatrix_case(nv, draw, index):
    """A fixed algebra per index; the seed picks the rank-one operator."""
    fx = nv.fixtures
    g = (fx.ex35(), fx.filiform(6), fx.filiform(5), fx.filiform(6), fx.ex35())[index]
    while True:
        ell, m = draw.value.randrange(g.dim), draw.value.randrange(g.dim)
        if all(g.bracket.basis_product(i, m)[ell] == 0 for i in range(g.dim)):
            return g, ell, m


def _expect(novikov=True, complete=None, fail_label=None):
    return {"novikov": novikov, "complete": complete, "fail_label": fail_label}


def build_corpus(nv, seed):
    """The construct-verify items for a seed, in run order."""
    e, r, rm, fx = nv.extensions, nv.reduction, nv.rmatrix, nv.fixtures
    items = []
    for index, dim in enumerate(HALF_BRACKET_DIMS):
        g = _two_step_nilpotent(nv, _Draw(nv, seed, "half-bracket", index), dim)
        items.append((
            "half-bracket", g.dim,
            lambda g=g: (nv.products.half_bracket_product(g), g),
            # R(x) = -ad(x)/2 is nilpotent on a nilpotent algebra
            _expect(complete="complete"),
        ))
    for index in range(PER_KIND):
        ext = _regular_jordan_extension(nv, _Draw(nv, seed, "jordan", index), index)
        g = e.assemble(ext)
        items.append((
            "jordan-lift", g.dim,
            lambda ext=ext, g=g: (e.lift_product(ext, e.jordan_lift(ext, 0)), g),
            _expect(),
        ))
    for index in range(PER_KIND):
        ext = _mixed_extension(nv, _Draw(nv, seed, "reduction", index), *MIXED_SHAPES[index])
        g = e.assemble(ext)

        def reduced(ext=ext, g=g):
            ind = r.induced_nilpotent_extension(ext)
            lift = r.reduction_lift(ext, e.two_gen_lift(ind.ext_n))
            return e.lift_product(ext, lift), g

        items.append(("reduction-lift", g.dim, reduced, _expect()))
    for index in range(PER_KIND):
        g = _prop57_algebra(nv, _Draw(nv, seed, "prop57", index), index)
        items.append((
            "prop57", g.dim,
            lambda g=g: (r.prop57_construct(g), g),
            # complete left-symmetric, Novikov or not
            _expect(novikov=None, complete="passes"),
        ))
    for index in range(PER_KIND):
        g, ell, m = _rmatrix_case(nv, _Draw(nv, seed, "rmatrix", index), index)

        def induced(g=g, ell=ell, m=m):
            t = rm.basis_rmatrix(g, ell, m)
            return rm.induced_product(t), rm.deformed_algebra(t)

        items.append(("rmatrix", g.dim, induced, _expect()))
    tables = (
        ("free-n3-c3-product", fx.free_n3_c3(), _expect()),
        ("ex35-product", fx.ex35(), _expect()),
        ("In-novikov:%d" % IN_DIM, fx.in_lie(IN_DIM), _expect(complete="complete")),
        ("In-product:%d" % IN_DIM, fx.in_lie(IN_DIM),
         _expect(novikov=False, complete="incomplete", fail_label="eq-2")),
    )
    for name, g, expect in tables:
        p = fx.product_fixture(name)
        items.append(("table:" + name.split(":")[0], g.dim, lambda p=p, g=g: (p, g), expect))
    return items


def mix(items):
    """Corpus mix by kind: instance count and dimensions."""
    out = {}
    for kind, dim, _, _ in items:
        entry = out.setdefault(kind, {"ops": 0, "dims": []})
        entry["ops"] += 1
        entry["dims"].append(dim)
    return out
