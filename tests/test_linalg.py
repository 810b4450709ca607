import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from novikov import fixtures as fx
from novikov import linalg
from novikov.certificate import build_system
from novikov.extensions import assemble
from novikov.linalg import (
    DimensionMismatch,
    Matrix,
    NotRegularNilpotent,
    Q,
    Subspace,
    _add_scaled,
    _add_term,
    _echelon,
    _fraction_echelon,
    _to_fractions,
    is_zero_vec,
    jordan_block,
    nilpotent_regular_basis,
    scaled_sum,
    solve_sparse,
    vadd,
    vscale,
    vunit,
)

import dense_scans as dense
from dense_scans import column, nullspace_of_rows, vdot
from randalg import random_mixed_extension, random_regular_jordan_extension, rng_for, subspaces


def solve(a, b):
    """solve_sparse on the dense system a x = b."""
    rows = [{j: x for j, x in enumerate(row) if x} for row in a.data]
    return solve_sparse(rows, [Q(x) for x in b], a.cols)


def dense_witness(sol, nrows):
    """The witness {row: coefficient} as a dense row combination."""
    return tuple(sol.witness.get(i, Q(0)) for i in range(nrows))


def test_solve_identity():
    sol = solve(Matrix.identity(3), (1, 2, 3))
    assert sol.consistent
    assert sol.particular() == (1, 2, 3)
    assert dense.kernel(sol).is_zero()


def test_solve_inconsistent_witness():
    a = Matrix([[1, 1], [1, 1]])
    sol = solve(a, (1, 2))
    assert not sol.consistent and sol.particular() is None
    y = dense_witness(sol, 2)
    assert all(vdot(y, column(a, j)) == 0 for j in range(2))
    assert vdot(y, (Q(1), Q(2))) != 0


def test_solve_underdetermined():
    a = Matrix([[2, 4]])
    sol = solve(a, (6,))
    assert sol.particular() == (3, 0)
    kernel = dense.kernel(sol)
    assert kernel.dim == 1
    assert kernel.contains((-2, 1))
    # verify by substitution
    assert a.apply(sol.particular()) == (6,)
    for v in kernel.basis:
        assert a.apply(v) == (0,)


def test_solve_random_round_trip():
    rng = random.Random(7)
    for _ in range(25):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        a = Matrix(
            [[Q(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in range(cols)]
             for _ in range(rows)]
        )
        x = tuple(Q(rng.randint(-4, 4)) for _ in range(cols))
        b = a.apply(x)
        sol = solve(a, b)
        assert sol.consistent
        assert a.apply(sol.particular()) == b
        for v in dense.kernel(sol).basis:
            shifted = vadd(sol.particular(), vscale(Q(rng.randint(-3, 3)), v))
            assert a.apply(shifted) == b


def test_random_inconsistent_witnesses():
    rng = random.Random(11)
    found = 0
    for _ in range(60):
        rows = rng.randint(2, 6)
        cols = rng.randint(1, 4)
        a = Matrix(
            [[Q(rng.randint(-2, 2)) for _ in range(cols)] for _ in range(rows)]
        )
        b = tuple(Q(rng.randint(-3, 3)) for _ in range(rows))
        sol = solve(a, b)
        if sol.consistent:
            continue
        found += 1
        y = dense_witness(sol, rows)
        assert all(vdot(y, column(a, j)) == 0 for j in range(cols))
        assert vdot(y, b) != 0
    assert found > 5


def test_nullspace_examples():
    full = nullspace_of_rows(Matrix.zeros(2, 2).data, 2)
    assert full.dim == full.ambient_dim
    assert nullspace_of_rows(Matrix.identity(2).data, 2).is_zero()
    a = Matrix([[1, 2], [2, 4]])
    ker = nullspace_of_rows(a.data, 2)
    assert ker.dim == 1 and ker.contains((-2, 1))
    for v in ker.basis:
        assert a.apply(v) == (0, 0)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(subspaces())
def test_int_rows_are_positive_int_multiples_of_the_basis(space):
    # bracket_space reads these: one int row per basis vector, in
    # no promised order, each a positive multiple of its vector
    rows = space._int_rows()
    assert len(rows) == space.dim
    for row in rows:
        assert all(type(x) is int and x for _, x in row)
        dense_row = [Q(0)] * space.ambient_dim
        for j, x in row:
            dense_row[j] = Q(x)
        pivot = min(j for j, _ in row)
        v = space.basis[dense.pivots(space).index(pivot)]
        scale = dense_row[pivot]
        assert scale > 0 and vscale(scale, v) == tuple(dense_row)


def test_subspace_canonical_idempotent():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 6)
        vectors = [
            tuple(Q(rng.randint(-3, 3)) for _ in range(n))
            for _ in range(rng.randint(0, 4))
        ]
        s = Subspace(n, vectors)
        again = Subspace(n, s.basis)
        assert s == again
        # membership of arbitrary combinations
        if s.basis:
            combo = [Q(0)] * n
            for v in s.basis:
                combo = list(vadd(tuple(combo), vscale(Q(rng.randint(-2, 2)), v)))
            assert s.contains(tuple(combo))


def test_subspace_contains_rejects_other_lengths():
    # a shorter vector used to be read as if padded with zeros
    s = Subspace(3, [(1, 0, 0)])
    assert s.contains((2, 0, 0)) and not s.contains((0, 1, 0))
    for v in [(1, 0), (0,), (), (1, 0, 0, 0)]:
        with pytest.raises(DimensionMismatch):
            s.contains(v)
    with pytest.raises(DimensionMismatch):
        Subspace(2).contains((0, 0, 0))


def test_subspace_sum_intersect():
    # U meets W in 0 exactly when dim(U + W) = dim U + dim W
    u = Subspace(3, [(1, 0, 0)])
    v = Subspace(3, [(0, 1, 0), (1, 1, 0)])
    assert dense.subspace_sum(u, v).dim == 2
    assert dense.included(u, v) and dense.subspace_sum(u, v) == v and not dense.included(v, u)
    w = Subspace(3, [(0, 0, 1)])
    assert dense.subspace_sum(u, w).dim == u.dim + w.dim


def test_nilpotent_regular_basis_identity():
    j3 = jordan_block(3)
    p = nilpotent_regular_basis(j3)
    assert p == Matrix.identity(3)


def test_nilpotent_regular_basis_conjugated():
    s = Matrix([[1, 1], [0, 1]])
    n = s * jordan_block(2) * s.inverse()
    p = nilpotent_regular_basis(n)
    assert p * n * p.inverse() == jordan_block(2)


def test_nilpotent_regular_basis_random():
    rng = random.Random(5)
    for _ in range(10):
        k = rng.randint(2, 5)
        s = Matrix(
            [[Q(1) if i == j else Q(rng.randint(-2, 2)) if i < j else Q(0)
              for j in range(k)] for i in range(k)]
        )
        n = s * jordan_block(k) * s.inverse()
        p = nilpotent_regular_basis(n)
        assert p * n * p.inverse() == jordan_block(k)


def test_nilpotent_regular_basis_rejects():
    with pytest.raises(NotRegularNilpotent):
        nilpotent_regular_basis(Matrix.zeros(2, 2))
    with pytest.raises(NotRegularNilpotent):
        nilpotent_regular_basis(Matrix.identity(2))


def _regular_basis_outcome(f, m):
    try:
        return f(m)
    except (DimensionMismatch, NotRegularNilpotent) as exc:
        return type(exc), str(exc)


def test_nilpotent_regular_basis_matches_dense_reference():
    rng = random.Random(12)
    cases = [
        Matrix.zeros(0, 0),
        Matrix.zeros(1, 1),
        Matrix([[3]]),
        Matrix.zeros(2, 3),
        Matrix.zeros(3, 3),
        Matrix.identity(2),
    ]
    for _ in range(60):
        k = rng.randint(1, 6)
        block = [list(row) for row in jordan_block(k).data]
        kind = rng.choice(("regular", "split", "not-nilpotent"))
        if kind == "split" and k > 1:
            # two Jordan blocks: nilpotent of index < k
            i = rng.randrange(k - 1)
            block[i][i + 1] = Q(0)
        elif kind == "not-nilpotent":
            i = rng.randrange(k)
            block[i][i] = Q(rng.choice((-2, -1, 1, 2)))
        # a dense invertible change of basis: unit lower times unit upper
        lower = Matrix([[Q(1) if i == j else Q(rng.randint(-2, 2)) if i > j else Q(0)
                         for j in range(k)] for i in range(k)])
        upper = Matrix([[Q(1) if i == j else Q(rng.randint(-2, 2)) if i < j else Q(0)
                         for j in range(k)] for i in range(k)])
        s = lower * upper
        cases.append(s * Matrix(block) * s.inverse())
    kinds = set()
    for m in cases:
        got = _regular_basis_outcome(nilpotent_regular_basis, m)
        assert got == _regular_basis_outcome(dense.nilpotent_regular_basis, m)
        kinds.add(got[1] if isinstance(got, tuple) else "matrix")
    assert kinds == {
        "matrix",
        "square matrix required",
        "matrix is not nilpotent",
        "nilpotency index is smaller than the dimension",
    }


def test_word_image_space_examples():
    # the dense reference that fitting_decompose's V_0 is checked against
    full2 = Subspace.full(2)
    assert dense.word_image_space([jordan_block(2)], full2, 1) == Subspace(2, [(1, 0)])
    assert dense.word_image_space([Matrix.zeros(2, 2)], full2, 1).is_zero()
    full3 = Subspace.full(3)
    assert dense.word_image_space([jordan_block(3)], full3, 2) == Subspace(3, [(1, 0, 0)])


def dense_rref(rows):
    """Textbook Gauss-Jordan on lists of Fractions: (nonzero rows, pivots)."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return [tuple(r) for r in rows[: len(pivots)]], pivots


def test_echelon_forms_match_dense_gauss_jordan():
    # every echelon form comes from the sparse engine; the reduced echelon
    # form is unique, so it must match a dense reference elimination
    rng = random.Random(11)
    for _ in range(40):
        rows, cols = rng.randint(0, 5), rng.randint(1, 5)
        data = [[Q(rng.randint(-2, 2), rng.randint(1, 2)) if rng.random() < 0.6 else Q(0)
                 for _ in range(cols)] for _ in range(rows)]
        basis, pivots = dense_rref(data)
        space = Subspace(cols, data)
        assert space.basis == tuple(basis) and dense.pivots(space) == tuple(pivots)
        if rows:
            m = Matrix(data)
            kernel = nullspace_of_rows(data, cols)
            assert all(is_zero_vec(m.apply(v)) for v in kernel.basis)
            assert kernel.dim == cols - len(pivots)
            if rows == cols:
                if len(pivots) == rows:
                    assert m * m.inverse() == Matrix.identity(rows)
                else:
                    with pytest.raises(ValueError):
                        m.inverse()


def test_scaled_sum_and_unit_vectors():
    a, b = Matrix([[1, 2], [3, 4]]), Matrix([[0, 1], [1, 0]])
    assert scaled_sum([(2, a), (0, b), (Q(-1, 2), b)], 2, 2) == a.scale(2) - b.scale(Q(1, 2))
    assert scaled_sum([], 2, 3) == Matrix.zeros(2, 3)
    assert vunit(3, 1) == (0, 1, 0)
    assert column(Matrix.identity(3), 2) == vunit(3, 2)


def reference_solve_sparse(rows, rhs):
    """Eager-provenance Gauss-Jordan: every row carries its combination, and
    each new pivot is cleared by scanning every earlier pivot row.
    Returns (pivot rows, pivot values, witness)."""
    pivot_rows, pivot_rhs, pivot_combo = {}, {}, {}
    witness = None
    for idx, row in enumerate(rows):
        work = dict(row)
        val = Q(0) if rhs is None else rhs[idx]
        combo = None if rhs is None else {idx: Q(1)}
        for p in sorted(set(work) & set(pivot_rows)):
            f = work.get(p)
            if not f:
                continue
            _add_scaled(work, pivot_rows[p], -f)
            val -= f * pivot_rhs[p]
            if combo is not None:
                _add_scaled(combo, pivot_combo[p], -f)
        if not work:
            if val != 0 and witness is None:
                witness = combo
            continue
        p = min(work)
        inv = 1 / work[p]
        work = {j: x * inv for j, x in work.items()}
        val *= inv
        if combo is not None:
            combo = {i: x * inv for i, x in combo.items()}
        for q, qrow in pivot_rows.items():
            f = qrow.get(p)
            if f is None:
                continue
            _add_scaled(qrow, work, -f)
            pivot_rhs[q] -= f * val
            if combo is not None:
                _add_scaled(pivot_combo[q], combo, -f)
        pivot_rows[p] = work
        pivot_rhs[p] = val
        pivot_combo[p] = combo
    return pivot_rows, pivot_rhs, witness


def _random_sparse_system(rng, denominators=(1, 1, 2, 3)):
    """Sparse rows over a few columns; some systems repeat a combination of
    earlier rows with its right-hand side shifted, which makes them
    inconsistent. With denominators=(1,) every entry is an integer."""
    ncols = rng.randint(1, 8)
    rows, rhs = [], []
    for _ in range(rng.randint(1, 10)):
        row = {j: Q(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice(denominators))
               for j in range(ncols) if rng.random() < 0.3}
        rows.append(row)
        rhs.append(Q(rng.randint(-3, 3)))
    if rng.random() < 0.4:
        combo, value = {}, Q(rng.choice((-1, 1, 2)))
        for i in rng.sample(range(len(rows)), min(len(rows), 2)):
            c = Q(rng.randint(1, 3))
            _add_scaled(combo, rows[i], c)
            value += c * rhs[i]
        at = rng.randint(0, len(rows))
        rows.insert(at, combo)
        rhs.insert(at, value)
    return rows, rhs, ncols


def _assert_matches_reference(rows, rhs, ncols, label):
    sol = solve_sparse(rows, rhs, ncols)
    pivot_rows, pivot_rhs, witness = reference_solve_sparse(rows, rhs)
    # keyed by pivot column: solve_sparse promises no iteration order; an
    # inconsistent system has no values
    assert sol.pivot_rows == pivot_rows and sol.witness == witness, label
    assert sol.pivot_rhs == (pivot_rhs if witness is None else None), label
    # the elimination runs on ints where it can, but hands back Fractions only
    values = [x for row in sol.pivot_rows.values() for x in row.values()]
    values += list((sol.pivot_rhs or {}).values()) + list((sol.witness or {}).values())
    assert all(type(x) is Q for x in values), label
    return witness is not None


def test_solve_sparse_matches_eager_reference():
    # the column index and the witness pass must give the reference's pivot
    # rows, values and witness exactly
    for name in ["sl2", "ex35", "free-n2-c4"]:
        system = build_system(fx.fixture(name))
        inconsistent = _assert_matches_reference(
            system.linear_rows, system.linear_rhs, system.nvars, name
        )
        assert inconsistent == (name == "sl2"), name
    rng = random.Random(29)
    inconsistent = 0
    for index in range(60):
        rows, rhs, ncols = _random_sparse_system(rng)
        inconsistent += _assert_matches_reference(rows, rhs, ncols, index)
        _assert_matches_reference(rows, None, ncols, index)
    assert inconsistent >= 10
    # integer systems with entries up to 3: a pivot that is not 1 divides,
    # so values turn non-integral inside the elimination and must come back
    # exact; every other system takes its right-hand side from an integer
    # point, which makes it consistent
    rng = random.Random(31)
    inconsistent = consistent = 0
    for index in range(60):
        rows, rhs, ncols = _random_sparse_system(rng, denominators=(1,))
        if index % 2:
            point = [rng.randint(-2, 2) for _ in range(ncols)]
            rhs = [sum((x * point[j] for j, x in row.items()), Q(0)) for row in rows]
        found = _assert_matches_reference(rows, rhs, ncols, index)
        inconsistent += found
        consistent += not found
        _assert_matches_reference(rows, None, ncols, index)
    assert inconsistent >= 10 and consistent >= 10


def reference_forced_zeros(rows, rhs):
    """The columns the homogeneous rows force to zero, by rounds that each
    read only the zeros known when the round starts: a homogeneous row with
    exactly one column outside them forces it. Returns (zeros, indices of
    the homogeneous rows with two or more columns outside them, rounds)."""
    homogeneous = [i for i in range(len(rows)) if rhs is None or rhs[i] == 0]
    zeros, rounds = set(), 0
    while True:
        rounds += 1
        new = set()
        for i in homogeneous:
            left = set(rows[i]) - zeros
            if len(left) == 1:
                new |= left
        if not new:
            break
        zeros |= new
    return zeros, [i for i in homogeneous if len(set(rows[i]) - zeros) > 1], rounds


def assert_solve_matches_echelon(rows, rhs, ncols, label):
    """solve_sparse, with its forced-zero pass, against the two passes of
    _echelon on the given rows: the same pivot rows keyed by pivot column,
    every value a Fraction, and the same values when the rows are
    consistent; when they are not, no values, and the same witness, in the
    same order, with coefficient 1 at the same bad row. The pass finds the
    reference's zeros and open rows, and no row is changed. Returns (bad row
    or None, zero columns found)."""
    before = [list(row.items()) for row in rows]
    sol = solve_sparse(rows, rhs, ncols)
    assert [list(row.items()) for row in rows] == before, label
    int_rows, int_rhs, bad, _ = _echelon(rows, rhs, False)
    pivot_rows, pivot_rhs = _fraction_echelon(int_rows, int_rhs)
    witness = None if bad is None else _echelon(rows[: bad + 1], rhs, True)[3]
    assert sol.pivot_rows == pivot_rows, label
    assert sol.pivot_rhs == (pivot_rhs if bad is None else None), label
    assert (sol.witness is None) == (witness is None), label
    if witness is not None:
        assert list(sol.witness.items()) == list(witness.items()), label
        assert max(sol.witness) == bad and sol.witness[bad] == 1, label
    values = [x for row in sol.pivot_rows.values() for x in row.values()]
    values += list((sol.pivot_rhs or {}).values()) + list((sol.witness or {}).values())
    assert all(type(x) is Q for x in values), label
    zeros, kept = linalg._forced_zeros(rows, rhs)
    assert (zeros, kept) == reference_forced_zeros(rows, rhs)[:2], label
    return bad, len(zeros)


def _chained_system(rng):
    """A random system whose homogeneous rows force a chain of columns to
    zero one column a round: {c0}, {c0, c1}, ..., {c(k-2), c(k-1)} (some
    with one more earlier chain column), given in reverse order. Random
    rows are mixed in, homogeneous or not, with empty rows of value 0; some
    systems get a row 0 = 1 or a nonzero value on a chain column, which
    makes them inconsistent."""
    ncols = rng.randint(3, 12)
    cols = rng.sample(range(ncols), rng.randint(1, ncols))

    def coefficient():
        return Q(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2)))

    chain = [{cols[0]: coefficient()}]
    for k in range(1, len(cols)):
        pair = [cols[k - 1], cols[k]] + ([rng.choice(cols[:k])] if rng.random() < 0.3 else [])
        rng.shuffle(pair)
        chain.append({c: coefficient() for c in pair})
    chain.reverse()
    rows, rhs = [], []
    for row in chain:
        while rng.random() < 0.5:
            rows.append({j: coefficient() for j in range(ncols) if rng.random() < 0.3})
            rhs.append(Q(rng.randint(-3, 3)) if rng.random() < 0.25 else Q(0))
        rows.append(row)
        rhs.append(Q(0))
    for _ in range(rng.randint(0, 2)):
        at = rng.randint(0, len(rows))
        rows.insert(at, {})
        rhs.insert(at, Q(0))
    if rng.random() < 0.3:
        at = rng.randint(0, len(rows))
        if rng.random() < 0.5:
            rows.insert(at, {})
        else:
            rows.insert(at, {rng.choice(cols): coefficient()})
        rhs.insert(at, Q(1))
    return rows, rhs, ncols


def test_solve_sparse_matches_the_echelon_of_the_given_rows_on_random_systems():
    # chains that take the pass 3 or more rounds, rows that hold zero
    # columns among others, empty rows, 0 = c rows and inconsistent systems,
    # each also homogeneous (rhs None)
    rng = random.Random(41)
    inconsistent = long_chains = 0
    for index in range(300):
        rows, rhs, ncols = _chained_system(rng)
        bad, _ = assert_solve_matches_echelon(rows, rhs, ncols, index)
        assert_solve_matches_echelon(rows, None, ncols, index)
        inconsistent += bad is not None
        # three rounds that each find a zero, and the last that finds none
        long_chains += reference_forced_zeros(rows, rhs)[2] >= 4
    assert 50 <= inconsistent <= 250 and long_chains >= 100
    rng = random.Random(43)
    for index in range(100):
        rows, rhs, ncols = _random_sparse_system(rng)
        assert_solve_matches_echelon(rows, rhs, ncols, index)
        assert_solve_matches_echelon(rows, None, ncols, index)


def _as_int(x):
    return x.numerator if x.denominator == 1 else x


def fraction_row_step(row, val, combo, pivot_rows, pivot_vals, pivot_combos):
    """The row step as it ran before it went fraction-free, the reference
    for linalg._row_step: reduce the row, its value and its combination
    (None when untracked) in place by the pivots the row holds on entry, in
    increasing order, each pivot row having entry 1 at its pivot column;
    then divide by the lead at the smallest column, negating for a lead of
    -1 (which keeps ints ints) and scaling by the Fraction 1 / lead
    otherwise. Returns (pivot column or None, row, value, combination)."""
    for p in sorted([c for c in row if c in pivot_rows]):
        f = row.get(p)
        if not f:
            continue
        _add_scaled(row, pivot_rows[p], -f)
        val -= f * pivot_vals[p]
        if combo is not None:
            _add_scaled(combo, pivot_combos[p], -f)
    if not row:
        return None, row, val, combo
    p = min(row)
    lead = row[p]
    if lead == 1:
        return p, row, val, combo
    if lead == -1:
        row = {j: -x for j, x in row.items()}
        if combo is not None:
            combo = {i: -x for i, x in combo.items()}
        return p, row, -val, combo
    inv = Q(1) / lead
    row = {j: x * inv for j, x in row.items()}
    if combo is not None:
        combo = {i: x * inv for i, x in combo.items()}
    return p, row, val * inv, combo


def reference_echelon(rows, rhs, track):
    """linalg._echelon as it ran before it went fraction-free: the row step
    over Fractions (fraction_row_step) on ints where the values are
    integral, a division by every pivot lead other than +-1, then the new
    pivot cleared from the earlier pivot rows found through the column
    index. Returns what _echelon does."""
    pivot_rows, pivot_rhs, pivot_combo = {}, {}, {}
    holders = {}
    bad = witness = None
    for idx, row in enumerate(rows):
        val = 0 if rhs is None else _as_int(rhs[idx])
        combo = {idx: 1} if track else None
        work = {j: _as_int(x) for j, x in row.items()}
        p, work, val, combo = fraction_row_step(
            work, val, combo, pivot_rows, pivot_rhs, pivot_combo
        )
        if p is None:
            if val != 0 and bad is None:
                bad, witness = idx, combo
            continue
        work = {j: _as_int(x) for j, x in work.items()}
        val = _as_int(val)
        if track:
            combo = {i: _as_int(x) for i, x in combo.items()}
        for q in holders.pop(p, ()):
            qrow = pivot_rows[q]
            f = qrow[p]
            _add_scaled(qrow, work, -f)
            pivot_rhs[q] -= f * val
            if track:
                _add_scaled(pivot_combo[q], combo, -f)
            for c in work:
                if c in qrow:
                    holders.setdefault(c, set()).add(q)
                elif c in holders:
                    holders[c].discard(q)
        for c in work:
            if c != p:
                holders.setdefault(c, set()).add(p)
        pivot_rows[p], pivot_rhs[p], pivot_combo[p] = work, val, combo
    _to_fractions([*pivot_rows.values(), pivot_rhs, witness or {}])
    return pivot_rows, pivot_rhs, bad, witness


def _assert_echelon_matches_reference(rows, rhs, track, label):
    """The same pivot rows, values, bad row and witness as the reference,
    each dict in the same order, every value a Fraction. A tracked run
    stops at the bad row, so it is compared with the reference on the rows
    through that row. Returns whether the system is inconsistent."""
    int_rows, int_rhs, bad, witness = _echelon(rows, rhs, track)
    pivot_rows, pivot_rhs = _fraction_echelon(int_rows, int_rhs)
    ref_rows, ref_rhs, ref_bad, ref_witness = reference_echelon(rows, rhs, track)
    if track and ref_bad is not None:
        ref_rows, ref_rhs, ref_bad, ref_witness = reference_echelon(
            rows[: ref_bad + 1], rhs, track
        )
    assert [(p, list(r.items())) for p, r in pivot_rows.items()] == [
        (p, list(r.items())) for p, r in ref_rows.items()
    ], label
    assert list(pivot_rhs.items()) == list(ref_rhs.items()), label
    assert bad == ref_bad, label
    assert (witness is None) == (ref_witness is None), label
    assert list((witness or {}).items()) == list((ref_witness or {}).items()), label
    values = [x for r in pivot_rows.values() for x in r.values()]
    values += list(pivot_rhs.values()) + list((witness or {}).values())
    assert all(type(x) is Q for x in values), label
    return bad is not None


def test_echelon_matches_fraction_reference_on_random_systems():
    # entries with large denominators, and integral rows with a right-hand
    # side that is not integral (every other one taken at a point that is
    # not integral, so consistent), each tracked and untracked
    rng = random.Random(37)
    inconsistent = consistent = 0
    for index in range(200):
        if index % 2:
            rows, rhs, ncols = _random_sparse_system(rng, denominators=(1, 6, 35, 89, 97))
            rhs = [Q(rng.randint(-9, 9), rng.choice((1, 13, 97))) for _ in rows]
        else:
            rows, rhs, ncols = _random_sparse_system(rng, denominators=(1,))
            if index % 4:
                rhs = [Q(rng.randint(-9, 9), rng.choice((2, 3, 97))) for _ in rows]
            else:
                point = [Q(rng.randint(-5, 5), rng.choice((1, 2, 97))) for _ in range(ncols)]
                rhs = [sum((x * point[j] for j, x in row.items()), Q(0)) for row in rows]
        for track in (False, True):
            found = _assert_echelon_matches_reference(rows, rhs, track, index)
            _assert_echelon_matches_reference(rows, None, track, index)
        inconsistent += found
        consistent += not found
    assert inconsistent >= 40 and consistent >= 40


def _dense_linear_blocks():
    """The linear blocks of the random Jordan and mixed extensions that
    test_residuals_match_unfiltered_substitution draws: up to 1,829 rows
    of up to 8 dimensions, with many entries that are not integral."""
    for index in range(3):
        rng = rng_for("residuals-jordan", index)
        g = assemble(random_regular_jordan_extension(rng, index))
        yield "jordan-%d" % index, build_system(g)
    for index in range(2):
        g = assemble(random_mixed_extension(rng_for("residuals-mixed", index)))
        yield "mixed-%d" % index, build_system(g)


def test_echelon_matches_fraction_reference_on_dense_blocks():
    # each whole block untracked; tracked, the first 300 rows and the sum of
    # three of them with its right-hand side shifted, which is inconsistent
    # (tracking a whole block, which solve_sparse never does, takes the
    # reference minutes)
    for label, system in _dense_linear_blocks():
        rows, rhs = system.linear_rows, system.linear_rhs
        assert not _assert_echelon_matches_reference(rows, rhs, False, label)
        k = min(300, len(rows))
        extra, shifted = {}, Q(1, 3)
        for i in (0, k // 2, k - 1):
            _add_scaled(extra, rows[i], 1)
            shifted += rhs[i]
        rows, rhs = rows[:k] + [extra], rhs[:k] + [shifted]
        for track in (False, True):
            assert _assert_echelon_matches_reference(rows, rhs, track, label)


def _restating_systems():
    """(label, rows, rhs) for systems whose columns 0, 1, 2 are fixed at 2,
    -1, 3 by singleton rows, then restated; then systems whose columns are
    fixed only when a new pivot is cleared from the rows that hold it."""
    one, x = Q(1), (Q(2), Q(-1), Q(3))
    singles = [{c: one} for c in range(3)]
    sums = [{0: one, 1: one}, {2: Q(-2), 0: Q(3)}, {1: Q(5), 2: one, 0: Q(-1)}]
    yield "repeated singletons", singles * 3, list(x) * 3
    yield "sums of fixed variables", singles + sums, list(x) + [Q(1), Q(0), Q(-4)]
    # a wrong restatement is the bad row; a singleton follows it
    yield "wrong restatement", singles + [{0: one, 1: one}, {2: one}], list(x) + [Q(2), Q(3)]
    yield ("fraction entries", singles + [{0: Q(1, 2), 1: Q(1, 2)}, {1: Q(-3, 7)}],
           list(x) + [Q(1, 2), Q(3, 7)])
    yield "wrong fraction value", singles + [{0: one}], list(x) + [Q(7, 3)]
    # x_0 = 1/2 keeps the int row {0: 2}, which every restatement of it
    # meets, and x_0 = 1 contradicts it
    yield ("fixed at 1/2", [{0: Q(2)}, {0: Q(2)}, {0: Q(4)}, {1: one}, {1: one}],
           [Q(1), Q(1), Q(2), Q(3), Q(3)])
    yield "wrong value for 1/2", [{0: Q(2)}, {1: one}, {0: one}], [Q(1), Q(3), Q(1)]
    # column 0 holds the pivot row {0: 1} only once column 1 is cleared from it
    yield "cleared to a singleton", [{0: one, 1: one}, {1: one}, {0: one}], [Q(3), Q(1), Q(2)]
    # the new pivot row {1: 2, 2: 1} (lead 2) clears column 1 from the int
    # row {0: 2, 1: 2, 2: 1}, which leaves {0: 2} of value 2, made {0: 1} of
    # value 1: column 0 is fixed at 1 only then, and two restatements follow
    half = Q(1, 2)
    yield ("fixed at 1 by a clear", [{0: one, 1: one, 2: half}, {1: one, 2: half}, {0: one},
                                     {0: Q(3)}], [Q(5, 2), Q(3, 2), one, Q(3)])
    # the pivot row {3: 1} of value 4 clears column 3 from three holders,
    # which fixes columns 0, 1, 2 at -3, -6, 7
    holders = [{0: one, 3: one}, {1: one, 3: Q(2)}, {2: one, 3: Q(-1)}, {3: one}]
    values = [Q(1), Q(2), Q(3), Q(4)]
    yield ("singleton cleared from three holders", holders + [{0: one, 1: one, 2: one}, {3: Q(2)}],
           values + [Q(-2), Q(8)])
    # x_0 + x_2 = 4 after those clears, so the row x_0 + x_2 = 5 is the bad
    # row, and a restatement of x_1 follows it
    yield ("wrong restatement after a clear", holders + [{0: one, 2: one}, {1: one}],
           values + [Q(5), Q(-6)])


def test_echelon_matches_reference_on_rows_that_restate_fixed_variables():
    # the same echelon form, entry order, bad row and witness as the
    # reference, tracked and untracked
    for label, rows, rhs in _restating_systems():
        for track in (False, True):
            inconsistent = _assert_echelon_matches_reference(rows, rhs, track, label)
            assert inconsistent == label.startswith("wrong"), label
            # homogeneous, the singletons fix 0 and every restatement of 0
            _assert_echelon_matches_reference(rows, None, track, label)


def test_free_n3_c3_linear_block_steps_every_stripped_row(monkeypatch):
    # the pattern of the homogeneous rows forces 1,964 of the 2,678 pivot
    # columns to zero; 744 of the 8,670 rows are left for one elimination,
    # and each of them takes one row step
    system = build_system(fx.fixture("free-n3-c3"))
    rows, rhs = system.linear_rows, system.linear_rhs
    calls, eliminated = [], []
    row_step, echelon = linalg._row_step, linalg._echelon
    monkeypatch.setattr(linalg, "_row_step", lambda *args: calls.append(1) or row_step(*args))
    monkeypatch.setattr(linalg, "_echelon",
                        lambda kept, *args: eliminated.append(len(kept)) or echelon(kept, *args))
    sol = solve_sparse(rows, rhs, system.nvars)
    assert sol.consistent and sol.rank == 2678
    zeros = linalg._forced_zeros(rows, rhs)[0]
    assert (len(zeros), eliminated, len(calls), len(rows)) == (1964, [744], 744, 8670)


def _inconsistent_blocks():
    """(label, rows, rhs, ncols): sl2's linear block, which is inconsistent
    as it is, and the blocks of free-n3-c3 and free-n2-c4 with a row x_z = 1
    on a column z that the homogeneous rows force to zero, put first or
    last."""
    system = build_system(fx.fixture("sl2"))
    yield "sl2", system.linear_rows, system.linear_rhs, system.nvars
    for name in ("free-n3-c3", "free-n2-c4"):
        system = build_system(fx.fixture(name))
        rows, rhs = list(system.linear_rows), list(system.linear_rhs)
        z = min(linalg._forced_zeros(rows, rhs)[0])
        yield name + " x_z = 1 first", [{z: Q(1)}] + rows, [Q(1)] + rhs, system.nvars
        yield name + " x_z = 1 last", rows + [{z: Q(1)}], rhs + [Q(1)], system.nvars


def test_solve_sparse_eliminates_an_inconsistent_block_twice(monkeypatch):
    # the stripped rows untracked, then the given rows tracked, which stops
    # at the bad row; the pivot rows are those of the given rows, and the
    # witness that of the rows through the bad row
    for label, rows, rhs, ncols in _inconsistent_blocks():
        int_rows, int_rhs, bad, _ = _echelon(rows, rhs, False)
        pivot_rows = _fraction_echelon(int_rows, int_rhs)[0]
        witness = _echelon(rows[: bad + 1], rhs, True)[3]
        eliminations, tracked = [], []
        with monkeypatch.context() as patch:
            row_step, echelon = linalg._row_step, linalg._echelon
            patch.setattr(linalg, "_row_step",
                          lambda *args: tracked.append(args[2]) or row_step(*args))
            patch.setattr(linalg, "_echelon",
                          lambda *args: eliminations.append(args[2]) or echelon(*args))
            sol = solve_sparse(rows, rhs, ncols)
        assert eliminations == [False, True], label
        # the tracked pass steps each given row through the bad row once
        assert [key for key in tracked if key is not None] == list(range(bad + 1)), label
        assert sol.pivot_rows == pivot_rows and sol.pivot_rhs is None, label
        assert list(sol.witness.items()) == list(witness.items()), label
        assert max(sol.witness) == bad and sol.witness[bad] == 1, label


@pytest.mark.parametrize("c", [3, -1, Q(1), Q(-5, 2)])
def test_add_term_stores_a_new_key_as_given(c):
    # a new key takes c itself, so no 0 + c allocates a Fraction and an int
    # stays an int; a present key sums, and a sum of zero drops the key
    acc = {0: Q(1, 3)}
    _add_term(acc, 1, c)
    assert acc[1] == c and type(acc[1]) is type(c) and acc[1] is c
    _add_term(acc, 0, c)
    assert acc == {0: Q(1, 3) + c, 1: c}
    _add_term(acc, 1, -c)
    _add_term(acc, 2, 0)
    assert list(acc) == [0]


def _random_sparse_matrix(rng, rows, cols):
    data = [[Q(rng.randint(-3, 3), rng.randint(1, 2)) if rng.random() < 0.3 else Q(0)
             for _ in range(cols)] for _ in range(rows)]
    return Matrix(data, cols=cols)


def test_matmul_matches_vdot_reference():
    # each entry of the product is the row-by-column dot product
    rng = random.Random(17)
    for _ in range(40):
        rows, inner, cols = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
        a = _random_sparse_matrix(rng, rows, inner)
        b = _random_sparse_matrix(rng, inner, cols)
        product = a * b
        assert (product.rows, product.cols) == (rows, cols)
        assert product.data == tuple(
            tuple(vdot(a.data[i], column(b, j)) for j in range(cols)) for i in range(rows)
        )
        assert all(type(x) is Q for row in product.data for x in row)


def test_apply_matches_vdot_reference():
    # each entry of m.apply(v) is the dot product of a row with v, zero
    # vectors and zero dimensions included
    rng = random.Random(23)
    for index in range(60):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        m = _random_sparse_matrix(rng, rows, cols)
        if index % 4 == 0:
            v = (Q(0),) * cols
        else:
            v = _random_sparse_matrix(rng, 1, cols).data[0]
        image = m.apply(v)
        assert image == tuple(vdot(row, v) for row in m.data)
        assert all(type(x) is Q for x in image)
    with pytest.raises(DimensionMismatch):
        Matrix.zeros(2, 3).apply((1, 2))


def test_shapes_with_a_zero_dimension():
    empty_rows = Matrix([], cols=3)
    assert (empty_rows.rows, empty_rows.cols) == (0, 3)
    t = empty_rows.transpose()
    assert (t.rows, t.cols) == (3, 0)
    t = Matrix([[], []]).transpose()
    assert (t.rows, t.cols) == (0, 2)
    assert Matrix([[], []]) * empty_rows == Matrix.zeros(2, 3)
    product = empty_rows * Matrix.zeros(3, 2)
    assert (product.rows, product.cols) == (0, 2)


def dense_reduce(space, v):
    """Reference membership: the remainder of v after eliminating each pivot
    coordinate of the canonical basis, dense, one basis row at a time."""
    v = [Q(x) for x in v]
    for row, p in zip(space.basis, dense.pivots(space)):
        f = v[p]
        if f:
            v = [x - f * y for x, y in zip(v, row)]
    return tuple(v)


def greedy_complement(space):
    """Reference complement: e_j for j = 0, 1, ... joins whenever it lies
    outside the span of the subspace and the unit vectors chosen so far."""
    n = space.ambient_dim
    chosen, span = [], space
    for j in range(n):
        if span.dim == n:
            break
        ej = vunit(n, j)
        if not is_zero_vec(dense_reduce(span, ej)):
            chosen.append(j)
            span = dense.subspace_sum(span, Subspace(n, [ej]))
    return chosen


def assert_subspace_queries_match_references(space, probes):
    assert space.complement() == greedy_complement(space)
    for v in probes:
        inside = is_zero_vec(dense_reduce(space, v))
        assert space.contains(v) == inside


def _random_vector(rng, n, density):
    return tuple(Q(rng.randint(-3, 3), rng.choice((1, 2))) if rng.random() < density else Q(0)
                 for _ in range(n))


def _probes(rng, space):
    """Unit vectors, members (combinations of the basis) and random vectors."""
    n = space.ambient_dim
    members = []
    for _ in range(3):
        v = (Q(0),) * n
        for b in space.basis:
            v = vadd(v, vscale(Q(rng.randint(-2, 2)), b))
        members.append(v)
    return [vunit(n, j) for j in range(n)] + members + [
        _random_vector(rng, n, 0.4) for _ in range(3)
    ]


def test_subspace_queries_match_dense_references_in_every_dimension():
    # membership and the complement read the echelon engine;
    # a dense reduction and a greedy complement are the references
    rng = random.Random(41)
    for n in range(8):
        for k in range(n + 1):
            for density in (0.3, 0.8):
                space = Subspace(n)
                while space.dim < k:
                    space = dense.subspace_sum(space, Subspace(n, [_random_vector(rng, n, density)]))
                assert space.dim == k
                assert_subspace_queries_match_references(space, _probes(rng, space))


@pytest.mark.parametrize(
    "name",
    ["n3", "r2", "r3", "sl2", "ex35", "free-n2-c4", "free-n3-c3", "filiform:6", "In:4",
     "abelian:3"],
)
def test_subspace_queries_match_dense_references_on_fixture_series(name):
    g = fx.fixture(name)
    rng = random.Random(name)
    probes = [g.bracket.basis_product(i, j) for i in range(g.dim) for j in range(g.dim)]
    for space in g.derived_series() + g.lower_central_series():
        assert_subspace_queries_match_references(space, probes + _probes(rng, space))


def test_matrix_equality_compares_the_shape_first():
    # matrices with no rows have no entries to tell their widths apart
    assert Matrix([], cols=3) != Matrix([], cols=2)
    assert Matrix([], cols=3) == Matrix([], cols=3)
    assert Matrix.zeros(0, 3) == Matrix([], cols=3)
    assert Matrix.zeros(2, 0) != Matrix.zeros(3, 0)
    assert hash(Matrix.zeros(0, 3)) == hash(Matrix([], cols=3))
