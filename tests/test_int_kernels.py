"""The dense exact kernels that run on ints, held to their Fraction forms.

Matrix.__mul__ and Matrix.apply, the half-bracket product, change_basis and
the residual substitution accumulate in ints and divide once; the references
in dense_scans compute entry by entry over Fractions. The tensors the library
builds from the nonzeros of their data are held to their tabulate forms.
Results must agree in value, in entry order and in type: every entry is a
Fraction.
"""

import functools

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from novikov import certificate, extensions, lie, rmatrix
from novikov import fixtures as fx
from novikov.extensions import ExtensionData, LiftData, assemble, lift_product
from novikov.lie import LieAlgebra, StructureTensor, quotient_tensor
from novikov.linalg import Matrix, Subspace
from novikov.products import (
    half_bracket_product,
    is_complete,
    is_left_symmetric,
    is_novikov,
)

import dense_scans as dense
from randalg import random_mixed_extension, random_three_step_extension, rng_for

# values with a denominator up to 97; ENTRIES are zero about half the time
NONZERO = st.builds(Q, st.integers(-60, 60).filter(bool), st.integers(1, 97))
ENTRIES = st.one_of(st.just(Q(0)), NONZERO)


@st.composite
def matrices(draw, rows, cols):
    """rows x cols matrices; a row or a column is sometimes all zero."""
    data = [[draw(ENTRIES) for _ in range(cols)] for _ in range(rows)]
    if rows and draw(st.booleans()):
        data[draw(st.integers(0, rows - 1))] = [Q(0)] * cols
    if cols and draw(st.booleans()):
        j = draw(st.integers(0, cols - 1))
        for row in data:
            row[j] = Q(0)
    return Matrix(data, cols=cols)


@st.composite
def tensors(draw, max_dim=5, antisymmetric=False, dim=None):
    n = draw(st.integers(0, max_dim)) if dim is None else dim
    if not n:
        return StructureTensor(0, {})
    index = st.integers(0, n - 1)
    entries = draw(st.dictionaries(st.tuples(index, index, index), ENTRIES, max_size=2 * n * n))
    if antisymmetric:
        entries = {(i, j, k): c for (i, j, k), c in entries.items() if i < j}
        entries.update({(j, i, k): -c for (i, j, k), c in entries.items()})
    return StructureTensor(n, entries)


def assert_fraction_data(got, want):
    assert got.data == want.data and (got.rows, got.cols) == (want.rows, want.cols)
    assert all(type(x) is Q for row in got.data for x in row)


def assert_same_tensor(got, want):
    assert list(got.entries.items()) == list(want.entries.items())
    assert all(type(c) is Q for c in got.entries.values())


@st.composite
def matrix_chains(draw):
    r, k, c, e = (draw(st.integers(0, 5)) for _ in range(4))
    return draw(matrices(r, k)), draw(matrices(k, c)), draw(matrices(c, e))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(matrix_chains())
def test_matmul_matches_fraction_reference(chain):
    a, b, c = chain
    ab = a * b
    assert_fraction_data(ab, dense.matmul(a, b))
    # the int form a product inherits is the one its entries give
    assert ab._int_form() == Matrix(ab.data, cols=ab.cols)._int_form()
    assert_fraction_data(ab * c, dense.matmul(dense.matmul(a, b), c))


@st.composite
def matrix_op_cases(draw):
    r, c, e = (draw(st.integers(0, 4)) for _ in range(3))
    return draw(matrices(r, c)), draw(matrices(r, c)), draw(matrices(c, e)), draw(ENTRIES)


def _plain(m):
    return tuple(tuple(row) for row in m.data)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(matrix_op_cases())
def test_matrix_ops_match_fraction_tuples(case):
    # each operation on Fraction-built matrices, and on the same matrices
    # built by the int kernels (times the identity), which hold no Fractions
    # until data is read, agrees with plain Fraction tuples
    a, b, m, q = case
    r, c = a.rows, a.cols
    one = Matrix.identity(c)
    kernel_built = a * one, b * one
    assert all(x._data is None for x in kernel_built)
    want_sum = tuple(tuple(x + y for x, y in zip(u, v)) for u, v in zip(a.data, b.data))
    want_diff = tuple(tuple(x - y for x, y in zip(u, v)) for u, v in zip(a.data, b.data))
    for x, y in ((a, b), kernel_built):
        product, total, diff = x * m, x + y, x - y
        assert all(z._data is None for z in (product, total, diff))
        assert_fraction_data(product, dense.matmul(a, m))
        for got, want in ((total, want_sum), (diff, want_diff)):
            assert _plain(got) == want and (got.rows, got.cols) == (r, c)
            assert all(type(z) is Q for row in got.data for z in row)
            plain = Matrix(want, cols=c)
            assert got == plain and hash(got) == hash(plain)
        assert _plain(x.scale(q)) == tuple(tuple(q * z for z in row) for row in a.data)
        assert (x == y) == (_plain(a) == _plain(b))
        assert x == a and hash(x) == hash(a) and x != Matrix(a.data + ((Q(0),) * c,), cols=c)
        assert x.is_zero() == all(z == 0 for row in a.data for z in row)
        assert (x - x).is_zero() and (x - x) == Matrix.zeros(r, c)
        t = x.transpose()
        assert (t.rows, t.cols) == (c, r)
        assert _plain(t) == (tuple(zip(*a.data)) if r else ((),) * c)


@st.composite
def square_matrices(draw):
    """n x n matrices: random ones, often singular, or products of a lower
    unitriangular and an upper triangular matrix with a nonzero diagonal,
    which are invertible."""
    n = draw(st.integers(0, 5))
    if draw(st.booleans()):
        return draw(matrices(n, n))
    lower = [[Q(1) if i == j else draw(ENTRIES) if j < i else Q(0) for j in range(n)]
             for i in range(n)]
    upper = [[draw(NONZERO) if i == j else draw(ENTRIES) if j > i else Q(0) for j in range(n)]
             for i in range(n)]
    return Matrix(dense.matmul(Matrix(lower, cols=n), Matrix(upper, cols=n)).data, cols=n)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(square_matrices())
def test_inverse_matches_fraction_reference(m):
    # [d A | I] is eliminated in ints, and the inverse is built from the
    # echelon's int rows: a kernel-built input (times the identity) builds
    # no Fractions, and neither does the inverse until its data is read
    want = dense.inverse(m)
    kernel_built = m * Matrix.identity(m.cols)
    for x in (m, kernel_built):
        if want is None:
            with pytest.raises(ValueError, match="^matrix is singular$"):
                x.inverse()
        else:
            got = x.inverse()
            assert got._data is None
            assert_fraction_data(got, want)
    assert kernel_built._data is None


@pytest.mark.parametrize("data, inverse", [
    ([[1, 2], [2, 4]], None),
    ([[0, 0], [1, 1]], None),
    ([[1, 0], [3, 0]], None),
    ([[2, 1], [1, 1]], [[1, -1], [-1, 2]]),
    ([[0, Q(1, 2)], [3, 0]], [[0, Q(1, 3)], [2, 0]]),
    ([[Q(1, 6), 0, 0], [0, 1, Q(2, 5)], [0, 0, 1]], [[6, 0, 0], [0, 1, Q(-2, 5)], [0, 0, 1]]),
])
def test_inverse_of_fixed_square_and_singular_matrices(data, inverse):
    # the reference and the int kernel agree on singular matrices (a zero
    # row, a repeated row, a zero column) and on invertible ones, built
    # from Fractions or by the kernels
    m = Matrix(data)
    assert (dense.inverse(m) is None) == (inverse is None)
    for x in (m, m * Matrix.identity(m.cols)):
        if inverse is None:
            with pytest.raises(ValueError, match="^matrix is singular$"):
                x.inverse()
        else:
            assert_fraction_data(x.inverse(), Matrix(inverse))
            assert_fraction_data(dense.inverse(m), Matrix(inverse))


@st.composite
def matrix_vector_cases(draw):
    r, c = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entries = st.one_of(ENTRIES, st.integers(-3, 3))
    return draw(matrices(r, c)), tuple(draw(entries) for _ in range(c))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(matrix_vector_cases())
def test_apply_matches_fraction_reference(case):
    m, v = case
    got = m.apply(v)
    assert got == dense.matrix_apply(m, v)
    assert type(got) is tuple and all(type(x) is Q for x in got)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(tensors(antisymmetric=True))
def test_half_bracket_matches_fraction_reference(bracket):
    g = LieAlgebra(bracket)
    assert_same_tensor(half_bracket_product(g), dense.half_bracket_product(g))


@st.composite
def change_basis_cases(draw):
    t = draw(tensors())
    return t, draw(matrices(t.dim, t.dim)), draw(matrices(t.dim, t.dim))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(change_basis_cases())
def test_change_basis_matches_fraction_reference(case):
    # the formula holds for any pair of matrices, inverse to each other or not
    t, basis, basis_inv = case
    assert_same_tensor(t.change_basis(basis, basis_inv), dense.change_basis(t, basis, basis_inv))


@st.composite
def substitution_cases(draw):
    """A quadratic in up to 4 variables and an affine form per variable in
    up to 3 parameters."""
    nvars = draw(st.integers(1, 4))
    var = st.integers(0, nvars - 1)
    monomials = st.one_of(
        st.just(()), st.tuples(var), st.tuples(var, var).map(lambda m: tuple(sorted(m))))
    poly = draw(st.dictionaries(monomials, NONZERO, max_size=6))
    params = st.dictionaries(st.integers(0, 2), NONZERO, max_size=3)
    forms = [(draw(ENTRIES), draw(params)) for _ in range(nvars)]
    return poly, forms


@settings(max_examples=300, derandomize=True, deadline=None)
@given(substitution_cases())
def test_substitute_matches_fraction_reference(case):
    poly, forms = case
    int_forms = [dense.int_affine_form(c, t) for c, t in forms]
    got = certificate._substitute(poly, int_forms)
    assert list(got.items()) == list(dense.substitute(poly, forms).items())
    assert all(type(c) is Q for c in got.values())


def test_product_checks_build_the_int_index_once(monkeypatch):
    # is_left_symmetric, is_novikov and is_complete read one int form of the
    # product; they used to scale and index it once per scan, 4 or 5 times
    calls = []
    original = lie._int_pairs
    monkeypatch.setattr(lie, "_int_pairs", lambda t: calls.append(t) or original(t))
    for name in ("In-product:5", "free-n3-c3-product", "ex35-product"):
        fixture = fx.product_fixture(name)
        p = StructureTensor(fixture.dim, fixture.entries)
        calls.clear()
        is_left_symmetric(p)
        is_novikov(p)
        is_complete(p)
        assert calls == [p], name


@functools.lru_cache(maxsize=None)
def _valid_extensions():
    """Extensions that pass validate, so that assemble builds their bracket."""
    rng = rng_for("int-kernels-assemble")
    exts = [random_three_step_extension(rng, i) for i in range(3)]
    exts += [random_mixed_extension(rng) for _ in range(3)]
    return exts + [extensions.two_step_solvable_from(fx.fixture(name))[0]
                   for name in ("ex35", "filiform:6", "n3", "r3")]


@functools.lru_cache(maxsize=None)
def _valid_rmatrices():
    """The basis r-matrices whose hypothesis holds, on small fixtures."""
    return [rmatrix.basis_rmatrix(g, ell, m) for g in (fx.n3(), fx.r2(), fx.ex35())
            for ell in range(g.dim) for m in range(g.dim)
            if all(g.bracket.basis_product(i, m)[ell] == 0 for i in range(g.dim))]


@st.composite
def builder_cases(draw):
    """Inputs for every builder: unvalidated extension and lift data with dim a
    and dim b up to 3, a valid extension, a tensor and a subspace of its
    space, an r-matrix that is random or valid, and a solution vector."""
    n, m = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    index = st.integers(0, max(m - 1, 0))
    table = st.dictionaries(st.tuples(index, index), st.tuples(*[ENTRIES] * n),
                            max_size=m * m)
    omega = {(p, q): v for (p, q), v in draw(table).items() if p < q}
    ext = ExtensionData(n, m, [draw(matrices(n, n)) for _ in range(m)], omega,
                        b_bracket=draw(tensors(antisymmetric=True, dim=m)),
                        b_product=draw(tensors(dim=m)),
                        a_product=draw(tensors(dim=n)))
    lift = LiftData(n, m, [draw(matrices(n, n)) for _ in range(m)],
                    [draw(matrices(n, n)) for _ in range(m)], draw(table))
    t = draw(tensors())
    vector = st.lists(ENTRIES, min_size=t.dim, max_size=t.dim)
    ideal = Subspace(t.dim, draw(st.lists(vector, max_size=t.dim + 1)))
    if draw(st.booleans()):
        r = draw(st.sampled_from(_valid_rmatrices()))
    else:
        g = LieAlgebra(draw(tensors(antisymmetric=True)))
        r = rmatrix.RMatrix(g, draw(matrices(g.dim, g.dim)))
    k = draw(st.integers(0, 4))
    values = tuple(draw(ENTRIES) for _ in range(k ** 3))
    return ext, lift, draw(st.sampled_from(_valid_extensions())), t, ideal, r, k, values


@settings(max_examples=150, derandomize=True, deadline=None)
@given(builder_cases())
def test_nonzero_builders_match_tabulate(case):
    ext, lift, valid, t, ideal, r, k, values = case
    assert_same_tensor(lift_product(ext, lift), dense.lift_product(ext, lift))
    assert_same_tensor(extensions._extension_bracket(ext), dense.extension_bracket(ext))
    assert_same_tensor(assemble(valid).bracket, dense.extension_bracket(valid))
    comp, got = quotient_tensor(t, ideal)
    want = dense.quotient_tensor(t, ideal)
    assert comp == want[0]
    assert_same_tensor(got, want[1])
    if rmatrix.check_cybe(r) and rmatrix.check_novbed(r):
        assert_same_tensor(rmatrix.induced_product(r), dense.t_product(r))
    assert_same_tensor(rmatrix._t_product(r), dense.t_product(r))
    assert_same_tensor(rmatrix.deformed_bracket(r), dense.deformed_bracket(r))
    system = certificate.PolySystem(k, [], [], [])
    assert_same_tensor(certificate._product_from_solution(system, values),
                       dense.product_from_solution(k, values))
