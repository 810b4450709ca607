"""Exact rational linear algebra: matrices, linear systems, subspaces.

Every value the package hands out is over Q, as a fractions.Fraction, so
every comparison in the package is an exact equality; there are no
tolerances anywhere. The exact kernels compute on Python ints and divide
once, at the end. A Matrix keeps one int form, built on first use: the lcm d
of its denominators and the rows of d * M as ints, with their nonzeros.
Products, sums, differences, equality and is_zero read it and accumulate in
ints; a matrix they build holds only its int form and makes its data
Fractions when data is first read, so a chain of them builds none. There is
one sparse elimination kernel: _add_term and _add_scaled accumulate into
sparse dicts (dropping entries that cancel), and _row_step takes one row
fraction-free: it scales the row to Python ints, reduces it by
cross-multiplying with int pivot rows instead of dividing by their leads,
and makes it primitive with a positive lead. solve_sparse first reads off
the row pattern, with no arithmetic, the columns that the homogeneous rows
force to zero (_forced_zeros); it drops the rows that only restate zeros and
strips the zero columns from the rest. Its elimination (_echelon) runs the
row step on every row and clears each new pivot from the earlier pivot rows
that hold it, found through a column index. It divides no row: SparseSolution
keeps the int echelon state, the primitive int pivot rows, their int values
and the zero columns, and its rank, free columns, particular point and the
affine forms the certificate's residual step substitutes read that state.
Every public value is still a Fraction: the reduced echelon form (pivot_rows,
pivot_rhs), each row divided by its lead, is built on first read, exactly
that of the elimination over Fractions. When the stripped rows are
inconsistent, one more pass over the given rows tracks row provenance and
stops at the first bad row, to build the witness, divided once into
Fractions. The pivot rows are keyed by pivot column, in no promised order.
Subspace bases take their reduced echelon form from it, and so does the
Fitting kernel in reduction.py, which reads its echelon basis straight off
one pass with the columns reversed. Matrix.inverse eliminates [d * A | I]
from the int form and builds the inverse from the int pivot rows, so a
kernel-built matrix and its inverse build no Fraction. Subspace membership
reads a subspace's reduced echelon rows directly, its complement is one
echelon pass over the basis with the columns reversed, and its int rows
(each echelon row scaled by the lcm of its denominators) feed the bracket
spans without a dense round trip. The
certificate's residual elimination runs the same row step, and every sparse
row or polynomial build in the package accumulates with the same helpers.
The regular nilpotent basis reads one more, _krylov_chain: the nonzero
images of a sparse vector under an operator given by its sparse columns, so
it forms no matrix power. The Fraction forms of the dense kernels are the
test suite's references (tests/dense_scans.py).
"""

from fractions import Fraction
from math import gcd, lcm

Q = Fraction

_ZERO = Q(0)


class DimensionMismatch(ValueError):
    pass


class NotRegularNilpotent(ValueError):
    """Matrix is not nilpotent of maximal index (one Jordan block)."""


def vzero(n):
    return (_ZERO,) * n


def vunit(n, i, value=1):
    """The i-th standard basis vector of Q^n, scaled by value; the zero
    entries share one Fraction."""
    value = Q(value)
    return tuple(value if j == i else _ZERO for j in range(n))


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vscale(c, u):
    c = Q(c)
    return tuple(c * a for a in u)


def is_zero_vec(u):
    return all(a == 0 for a in u)


class Matrix:
    """Immutable dense matrix over Q.

    data holds the entries as Fractions. The exact kernels read an int form
    instead, built on first use and kept (_int_form): the lcm d of the
    entries' denominators, the rows of d * M as int tuples, and each of those
    rows' nonzero (column, int) pairs. __mul__, __add__ and __sub__ sum in
    ints and return a matrix holding that int form alone, its data built on
    first read: a chain of them builds no Fraction in between.
    """

    __slots__ = ("rows", "cols", "_data", "_ints")

    def __init__(self, data, cols=None):
        data = tuple(tuple(x if type(x) is Q else Q(x) for x in row) for row in data)
        rows = len(data)
        if rows:
            cols = len(data[0])
            if any(len(row) != cols for row in data):
                raise DimensionMismatch("ragged rows")
        elif cols is None:
            cols = 0
        object.__setattr__(self, "_data", data)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_ints", None)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def _from_ints(cls, int_rows, denominator, cols):
        """The matrix int_rows / denominator (int rows, an int denominator),
        holding its int form alone. With g the gcd of the denominator and
        every entry, d = denominator / g is the lcm of the entries'
        denominators, and the int rows are divided by g."""
        g = gcd(denominator, *(x for row in int_rows for x in row))
        if g != 1:
            int_rows = [[x // g for x in row] for row in int_rows]
        m = object.__new__(cls)
        object.__setattr__(m, "_data", None)
        object.__setattr__(m, "rows", len(int_rows))
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "_ints", _int_rows_form(denominator // g, int_rows))
        return m

    @property
    def data(self):
        """The entries as Fractions, built on first read for a matrix made
        from ints: every zero entry is _ZERO, and every nonzero int value of
        d * M shares one Fraction."""
        if self._data is None:
            d, int_rows, _ = self._ints
            shared = {x: Q(x, d) for x in set().union(*int_rows)}
            shared[0] = _ZERO
            data = tuple(tuple(map(shared.__getitem__, row)) for row in int_rows)
            object.__setattr__(self, "_data", data)
        return self._data

    def _int_form(self):
        """(d, int rows, nonzero (column, int) pairs per row), d * M = int
        rows with d the lcm of the denominators; built once."""
        form = self._ints
        if form is None:
            d = lcm(*(x.denominator for row in self.data for x in row))
            form = _int_rows_form(d, [
                [x.numerator * (d // x.denominator) for x in row] for row in self.data
            ])
            object.__setattr__(self, "_ints", form)
        return form

    @classmethod
    def zeros(cls, rows, cols):
        return cls([[Q(0)] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, n):
        return cls([vunit(n, i) for i in range(n)], cols=n)

    @classmethod
    def from_columns(cls, columns):
        return cls(list(zip(*columns)))

    @classmethod
    def unit(cls, n, i, j, value=1):
        """n x n matrix with a single entry at (i, j)."""
        m = [[Q(0)] * n for _ in range(n)]
        m[i][j] = Q(value)
        return cls(m)

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other):  # the int form is canonical
        return (isinstance(other, Matrix) and (self.rows, self.cols) == (other.rows, other.cols)
                and self._int_form()[:2] == other._int_form()[:2])

    def __hash__(self):
        return hash(self._int_form()[:2])

    def __add__(self, other):
        return self._plus(other, 1, "addition")

    def __sub__(self, other):
        return self._plus(other, -1, "subtraction")

    def _plus(self, other, sign, name):  # self + sign * other, in ints
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix %s shape mismatch" % name)
        d, a, _ = self._int_form()
        e, b, _ = other._int_form()
        m = lcm(d, e)
        x, y = m // d, sign * (m // e)
        rows = [[p * x + q * y for p, q in zip(u, v)] for u, v in zip(a, b)]
        return Matrix._from_ints(rows, m, self.cols)

    def scale(self, c):
        return Matrix([vscale(c, r) for r in self.data], cols=self.cols)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise DimensionMismatch("matrix product shape mismatch")
            # in ints: row i of (d A)(e B) sums a * (row k of e B) over the
            # nonzero a = (d A)[i, k]
            d, _, left = self._int_form()
            e, _, right = other._int_form()
            product = []
            for terms in left:
                acc = [0] * other.cols
                for k, a in terms:
                    for j, b in right[k]:
                        acc[j] += a * b
                product.append(acc)
            return Matrix._from_ints(product, d * e, other.cols)
        return self.scale(other)

    def apply(self, v):
        """Matrix times column vector (given and returned as a tuple). In
        ints: with e the lcm of the denominators of the nonzero v[j], each
        entry of (d M)(e v) sums over those v[j] only and is divided by d * e
        once; a zero entry is _ZERO."""
        if len(v) != self.cols:
            raise DimensionMismatch("matrix-vector shape mismatch")
        d, rows, _ = self._int_form()
        nonzeros = [(j, x) for j, x in enumerate(v) if x]
        e = lcm(*[x.denominator for _, x in nonzeros])
        nonzeros = [(j, x.numerator * (e // x.denominator)) for j, x in nonzeros]
        d *= e
        out = []
        for row in rows:
            s = sum([row[j] * x for j, x in nonzeros])
            out.append(Q(s, d) if s else _ZERO)
        return tuple(out)

    def transpose(self):
        return Matrix(list(zip(*self.data)) if self.data else [()] * self.cols, cols=self.rows)

    def is_zero(self):
        return not any(self._int_form()[2])

    def inverse(self):
        """A^-1, kernel-built from the int form; ValueError when A is
        singular."""
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of non-square matrix")
        n = self.rows
        # [d A | I] reduces to [I | (d A)^-1] exactly when A is invertible;
        # pivot row i is primitive with lead l_i, so row i of A^-1 is
        # d * (its columns n..2n-1) / l_i, put over the lcm of the leads
        d, _, terms = self._int_form()
        sol = solve_sparse([dict([*row, (n + i, 1)]) for i, row in enumerate(terms)], None, 2 * n)
        echelon = sol._rows
        if sol._zeros or sorted(echelon) != list(range(n)):
            raise ValueError("matrix is singular")
        m = lcm(*(echelon[i][i] for i in range(n)))
        rows = [[echelon[i].get(n + j, 0) * (d * m // echelon[i][i]) for j in range(n)]
                for i in range(n)]
        return Matrix._from_ints(rows, m, n)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return "Matrix[%s]" % body


def _int_rows_form(d, int_rows):
    """A Matrix int form: (d, the int rows as tuples, their nonzero
    (column, int) pairs)."""
    rows = tuple(tuple(row) for row in int_rows)
    return d, rows, [[(j, x) for j, x in enumerate(row) if x] for row in rows]


def scaled_sum(terms, rows, cols):
    """The rows x cols matrix sum of c * M over the (c, M) pairs in terms."""
    acc = [[Q(0)] * cols for _ in range(rows)]
    for c, m in terms:
        if c:
            for out, row in zip(acc, m.data):
                for j, x in enumerate(row):
                    if x:
                        out[j] += c * x
    return Matrix(acc, cols=cols)


def _sparse(rows):
    """Dense rows as {column: entry} dicts over Q (so pivots divide exactly);
    a Fraction entry is kept as it is."""
    return [{j: x if type(x) is Q else Q(x) for j, x in enumerate(row) if x} for row in rows]


class Subspace:
    """Subspace of Q^n with a canonical reduced-echelon basis.

    Equality of subspaces is a syntactic comparison of the stored bases.
    """

    __slots__ = ("ambient_dim", "basis", "_pivot_rows")

    def __init__(self, ambient_dim, vectors=()):
        vectors = [tuple(v) for v in vectors]
        for v in vectors:
            if len(v) != ambient_dim:
                raise DimensionMismatch("vector does not match ambient dimension")
        self._set(ambient_dim, solve_sparse(_sparse(vectors), None, ambient_dim).pivot_rows)

    @classmethod
    def _from_rows(cls, ambient_dim, rows):
        """The span of sparse rows {column: int or Fraction}, unchecked."""
        return cls._from_echelon(ambient_dim, solve_sparse(rows, None, ambient_dim).pivot_rows)

    @classmethod
    def _from_echelon(cls, ambient_dim, pivot_rows):
        """The span of known reduced echelon rows {pivot column: {column:
        Fraction}}, unchecked: each row has 1 at its pivot, its least column,
        and no entry at another row's pivot."""
        space = cls.__new__(cls)
        space._set(ambient_dim, pivot_rows)
        return space

    def _set(self, ambient_dim, pivot_rows):
        basis = tuple(
            tuple(pivot_rows[p].get(j, _ZERO) for j in range(ambient_dim))
            for p in sorted(pivot_rows)
        )
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_pivot_rows", pivot_rows)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def full(cls, n):
        one = Q(1)
        return cls._from_echelon(n, {j: {j: one} for j in range(n)})

    @property
    def dim(self):
        return len(self.basis)

    def is_zero(self):
        return not self.basis

    def contains(self, v):
        """Whether v lies in the subspace. The basis is reduced at the pivot
        columns, so v is in it exactly when v = sum of v[p] * (basis row of
        pivot p), compared as sparse dicts. A vector of another length raises
        DimensionMismatch, as __init__ does."""
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector does not match ambient dimension")
        span = {}
        for p, row in self._pivot_rows.items():
            if v[p]:
                _add_scaled(span, row, v[p])
        return span == {j: x for j, x in enumerate(v) if x}

    def _int_rows(self):
        """The reduced echelon rows as lists of nonzero (column, int) pairs,
        each row scaled by the lcm of its denominators: positive multiples of
        the basis vectors, which span the same."""
        out = []
        for row in self._pivot_rows.values():
            d = lcm(*(x.denominator for x in row.values()))
            out.append([(j, x.numerator * (d // x.denominator)) for j, x in row.items()])
        return out

    def complement(self):
        """The lexicographically earliest coordinate indices, in increasing
        order, whose unit vectors complete the subspace.

        Index j is skipped exactly when some vector of the subspace has its
        last nonzero coordinate at j, that is, when n - 1 - j is a pivot of
        the basis with its columns reversed.
        """
        n = self.ambient_dim
        reversed_rows = [{n - 1 - j: x for j, x in enumerate(v) if x} for v in self.basis]
        last = solve_sparse(reversed_rows, None, n).pivot_rows
        return [j for j in range(n) if n - 1 - j not in last]

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return "Subspace(dim %d of Q^%d)" % (self.dim, self.ambient_dim)


class SparseSolution:
    """Echelonized sparse system: pivot rows and their values, each keyed by
    pivot column, plus provenance. No iteration order is promised: readers
    sort the pivot columns or read by key. An inconsistent system has a
    witness and no values: pivot_rhs is None, as is particular().

    It keeps the engine's int state: the primitive int pivot rows of the
    eliminated rows (each with a positive lead at its pivot column, the
    least column it holds), their int values, and the set of columns the
    homogeneous rows force to zero. rank, free_columns, particular and the
    affine forms (_live_forms) read that state. pivot_rows and pivot_rhs,
    the reduced echelon form as Fractions with a row {z: 1} of value 0 per
    zero column, are built on first read (_fraction_echelon) and kept.
    """

    __slots__ = ("ncols", "witness", "_rows", "_values", "_zeros", "_fractions")

    def __init__(self, ncols, rows, values, zeros, witness):
        self.ncols = ncols
        self.witness = witness
        self._rows = rows
        self._values = values
        self._zeros = zeros
        self._fractions = None

    def _fraction_form(self):
        if self._fractions is None:
            self._fractions = _fraction_echelon(self._rows, self._values, self._zeros)
        return self._fractions

    @property
    def pivot_rows(self):
        return self._fraction_form()[0]

    @property
    def pivot_rhs(self):
        return self._fraction_form()[1] if self.consistent else None

    @property
    def consistent(self):
        return self.witness is None

    @property
    def rank(self):
        return len(self._rows) + len(self._zeros)

    def free_columns(self):
        rows, zeros = self._rows, self._zeros
        return [c for c in range(self.ncols) if c not in rows and c not in zeros]

    def particular(self):
        if not self.consistent:
            return None
        v = [_ZERO] * self.ncols
        for p, val in self._values.items():
            if val:
                v[p] = Q(val, self._rows[p][p])
        return tuple(v)

    def _live_forms(self):
        """(live variables, int affine form of every variable) of a
        consistent solution. Variable v is (c + sum a * x_f) / d over the
        free columns f, given as (d, c, {f: a}) with ints. Every free column
        f is live, with form (1, 0, {f: 1}). A pivot column p is live when
        its value c is nonzero or its row holds another column; its form is
        read straight off its primitive int row w: (w[p], c, {f: -w[f]}).
        The row and its value have content 1 and a positive lead, so w[p] is
        the lcm of the denominators of the reduced row w / w[p] and its
        value. Every other variable is 0 and shares the form (1, 0, {})."""
        zero = (1, 0, {})
        forms = [zero] * self.ncols
        for f in self.free_columns():
            forms[f] = (1, 0, {f: 1})
        for p, row in self._rows.items():
            c = self._values[p]
            if c or len(row) > 1:
                forms[p] = (row[p], c, {f: -x for f, x in row.items() if f != p})
        return {v for v, form in enumerate(forms) if form is not zero}, forms


def _fraction_echelon(rows, values, zeros=()):
    """The reduced echelon form of primitive int pivot rows, as Fractions:
    ({pivot column: row}, {pivot column: value}), each row and its value
    divided by the row's lead, each dict in its order, plus a row {z: 1} of
    value 0 for each column z in zeros. _to_fractions shares one Fraction
    per integral value. SparseSolution builds its pivot_rows and pivot_rhs
    with it, and so does a reader of _echelon's int result."""
    pivot_rows, pivot_rhs = {}, {}
    for p, row in rows.items():
        lead = row[p]
        if lead == 1:
            pivot_rows[p], pivot_rhs[p] = dict(row), values[p]
        else:
            pivot_rows[p] = {k: _quotient(x, lead) for k, x in row.items()}
            pivot_rhs[p] = _quotient(values[p], lead)
    _to_fractions([*pivot_rows.values(), pivot_rhs])
    one = Q(1)
    for z in zeros:
        pivot_rows[z] = {z: one}
        pivot_rhs[z] = _ZERO
    return pivot_rows, pivot_rhs


def _add_term(acc, key, c):
    """acc[key] += c, dropping the entry when it cancels.

    A new key stores c itself, of its own type, and no sum is formed: 0 + c
    would allocate a new Fraction through Fraction.__radd__. Only a key
    already present pays for an addition.
    """
    if c:
        old = acc.get(key)
        if old is None:
            acc[key] = c
        else:
            total = old + c
            if total:
                acc[key] = total
            else:
                del acc[key]


def _add_scaled(acc, row, c):
    """acc += c * row, entry by entry, for sparse dicts."""
    for key, x in row.items():
        _add_term(acc, key, c * x)


def _row_step(row, val, key, pivot_rows, pivot_vals, pivot_combos):
    """Reduce one sparse row over Q by int pivot rows, then make it primitive.

    The row {column: entry} and its value (ints or Fractions) are scaled to
    ints by the lcm of their denominators, and the provenance combination
    starts as {key: scale}; key None leaves it untracked (None). The row is
    then reduced by the pivots it holds on entry, in increasing order,
    skipping a pivot that an earlier reduction cancelled (_cross_reduce),
    each pivot row being a primitive int row with a positive lead. The row
    is exact, with no pivot column left in it, when the pivot rows are
    reduced against each other: no pivot row has an entry at another pivot
    column. Last, the content of the row, its value and its combination is
    divided out, signed so that the lead at the smallest column turns
    positive (_divide_content). Returns (pivot column, row, value,
    combination), the row a new dict of ints, with pivot column None and the
    row empty when the row reduces to zero (then nothing is divided).

    Every step scales by a nonzero int, so the row stays a nonzero multiple
    of the row that dividing by each pivot's lead gives, with the same
    support in the same dict order. Nothing here divides by a Fraction.
    Callers: _echelon, for every row it is given (up to the first bad row
    when tracked), and certificate._eliminate_residuals.
    """
    scale = val.denominator
    for x in row.values():
        d = x.denominator
        if d != 1 and scale % d:
            scale = lcm(scale, d)
    if scale == 1:
        work = {j: x.numerator for j, x in row.items()}
        val = val.numerator
    else:
        work = {j: x.numerator * (scale // x.denominator) for j, x in row.items()}
        val = val.numerator * (scale // val.denominator)
    combo = None if key is None else {key: scale}
    for p in sorted([c for c in work if c in pivot_rows]):
        val = _cross_reduce(work, val, combo, pivot_rows[p], pivot_vals[p], pivot_combos[p], p)
    if not work:
        return None, work, val, combo
    p = min(work)
    return p, work, _divide_content(work, val, combo, work[p]), combo


def _echelon(rows, rhs, track):
    """Run solve_sparse's elimination, carrying row combinations only when
    track is true. Returns (pivot rows, pivot values, index of the first row
    that reduces to 0 = c != 0 or None, that row's combination). The pivot
    rows are primitive int rows with a positive lead and the values ints;
    _fraction_echelon divides each by its lead. Tracked, it stops at the bad
    row: the witness is then complete, and the pivot rows and values are
    those of the rows before it.

    The elimination runs on Python ints and divides no row:
    - every row goes through the row step (_row_step): it is scaled to ints,
      reduced by the pivot rows it holds, and made primitive with a positive
      lead; its combination starts as {index: scale};
    - a row with entry f at pivot p, whose pivot row has lead l, becomes
      a * row - b * (pivot row) with g = gcd(f, l), a = l / g and b = f / g
      (_cross_reduce); clearing a new pivot from the rows in holders is the
      same step, written out so that holders is kept up to date in the same
      pass over the new pivot row, and the cleared row is made primitive
      again (_divide_content). Rows are scaled in place, so every dict keeps
      its order.
    Every reduced row is a nonzero multiple of the row that an elimination
    over Fractions holds at the same point, so the pivot columns and entry
    order are the same. Only the witness is divided, by its coefficient at
    the bad row, into Fractions (_to_fractions shares one per integral
    value). A reduced echelon basis with fixed pivot columns is unique, and
    so is the relation among independent pivot rows with coefficient 1 at
    the bad row, so dividing each pivot row by its lead, and that witness,
    are exactly what dividing at every step gives.
    """
    pivot_rows, pivot_rhs, pivot_combo = {}, {}, {}
    holders = {}  # column -> the pivot columns whose rows have an entry there
    bad = witness = None
    for idx, row in enumerate(rows):
        val = 0 if rhs is None else rhs[idx]
        p, work, val, combo = _row_step(
            row, val, idx if track else None, pivot_rows, pivot_rhs, pivot_combo
        )
        if p is None:
            if val and bad is None:
                bad, witness = idx, combo
                if track:
                    break
            continue
        lead = work[p]
        for q in holders.pop(p, ()):
            qrow = pivot_rows[q]
            qval, qcombo = pivot_rhs[q], pivot_combo[q]
            b = qrow[p]
            g = gcd(b, lead)
            a, b = lead // g, b // g
            if a != 1:
                _scale(qrow, a)
                qval *= a
                if track:
                    _scale(qcombo, a)
            for k, x in work.items():
                old = qrow.get(k)
                if old is None:
                    qrow[k] = -b * x
                    holders.setdefault(k, set()).add(q)
                else:
                    old -= b * x
                    if old:
                        qrow[k] = old
                    else:
                        del qrow[k]
                        if k != p:
                            holders[k].discard(q)
            qval -= b * val
            if track:
                _add_scaled(qcombo, combo, -b)
            pivot_rhs[q] = _divide_content(qrow, qval, qcombo, qrow[q])
        for c in work:
            if c != p:
                holders.setdefault(c, set()).add(p)
        pivot_rows[p], pivot_rhs[p], pivot_combo[p] = work, val, combo
    if witness is not None:
        _divide(witness, witness[bad])
        _to_fractions([witness])
    return pivot_rows, pivot_rhs, bad, witness


def _cross_reduce(row, val, combo, prow, pval, pcombo, p):
    """Clear column p of the int row by the int pivot row prow, in place.
    With f = row[p], l = prow[p] and g = gcd(f, l), the row becomes
    (l / g) * row - (f / g) * prow; its value and its combination (None when
    untracked) follow, with the pivot row's pval and pcombo. A row with no
    entry at p is left as it is. Returns the new value."""
    b = row.get(p)
    if b is None:
        return val
    lead = prow[p]
    if lead != 1:
        g = gcd(b, lead)
        a, b = lead // g, b // g
        if a != 1:
            _scale(row, a)
            val *= a
            if combo is not None:
                _scale(combo, a)
    for k, x in prow.items():
        old = row.get(k)
        if old is None:
            row[k] = -b * x
        else:
            old -= b * x
            if old:
                row[k] = old
            else:
                del row[k]
    if combo is not None:
        _add_scaled(combo, pcombo, -b)
    return val - b * pval


def _scale(d, a):
    """Multiply every value of the int dict d by a, in place."""
    for k in d:
        d[k] *= a


def _divide_content(row, val, combo, lead):
    """Divide the int row, its value and its combination (None when
    untracked) in place by their content, signed like lead so the lead
    turns positive. Returns the new value. Nothing is divided when lead is
    1, which makes the content 1."""
    if lead == 1:
        return val
    content = 1 if lead == -1 else gcd(*row.values(), val, *(combo or {}).values())
    if lead < 0:
        content = -content
    if content != 1:
        for k in row:
            row[k] //= content
        if combo is not None:
            for k in combo:
                combo[k] //= content
        val //= content
    return val


def _quotient(x, d):
    """x / d for ints: an int when d divides x, else a Fraction."""
    return x // d if x % d == 0 else Q(x, d)


def _divide(d, divisor):
    """Divide every value of the int dict d by divisor, in place (_quotient)."""
    for k, x in d.items():
        d[k] = _quotient(x, divisor)


def _to_fractions(dicts, denominator=1):
    """Replace every int value x of the dicts by the Fraction x / denominator,
    in place, which keeps each dict's order. A Fraction is immutable, so one
    object serves every entry with the same int value and only distinct
    values allocate."""
    shared = {}
    for d in dicts:
        for key, x in d.items():
            if type(x) is int:
                f = shared.get(x)
                if f is None:
                    f = shared[x] = Q(x, denominator)
                d[key] = f


def _forced_zeros(rows, rhs):
    """The columns that the pattern of the homogeneous rows forces to zero,
    and the indices, increasing, of the homogeneous rows that hold two or
    more columns outside them; rhs may be the values' truth values.

    A homogeneous row (rhs None or 0) whose columns are all known zero but
    one forces that one to zero, and a row with none left only restates
    zeros. The pass repeats over the rows still open until a round finds
    nothing new. It does no arithmetic, so every row must hold nonzero
    entries only."""
    zeros = set()
    open_rows = range(len(rows)) if rhs is None else [i for i, val in enumerate(rhs) if not val]
    while True:
        before, still = len(zeros), []
        for i in open_rows:
            last = None
            for c in rows[i]:
                if c not in zeros:
                    if last is not None:
                        still.append(i)
                        break
                    last = c
            else:
                if last is not None:
                    zeros.add(last)
        if len(zeros) == before:
            return zeros, still
        open_rows = still


def solve_sparse(rows, rhs, ncols):
    """Echelonize a sparse system given as a list of dicts {column: coefficient},
    each holding nonzero entries only, ints or Fractions.

    rhs may be None for a homogeneous system. The result is a SparseSolution
    whose pivot rows form the reduced echelon basis (pivot entry 1, pivot
    columns cleared from all other rows, each pivot the smallest column its
    row keeps), keyed by pivot column in no promised order. The columns the
    homogeneous rows force to zero (_forced_zeros) become pivot rows {z: 1}
    of value 0; the rows that only restate zeros are dropped and the zero
    columns stripped from the rest, which with the zero rows span the same
    augmented row space, so only the stripped rows are eliminated (_echelon).
    There each row is reduced by the pivots it holds, in increasing order,
    and its new pivot cleared from the earlier pivot rows found through a
    column index. Provenance is tracked only if some stripped row reduces to
    0 = c != 0. Then the given rows are eliminated once more, tracked, up to
    the first such row among them, and the witness is that row's sparse
    combination {original row index: coefficient}, with sum_i witness_i
    row_i = 0 and sum_i witness_i rhs_i != 0. The pivot rows stay the
    stripped pass's plus the zero rows, the same reduced echelon basis, but
    pivot_rhs is None: the values of an inconsistent system depend on the
    row order and mean nothing. The elimination runs on ints and divides no
    row (_echelon): the solution keeps its int pivot rows, values and zero
    columns, and builds the Fraction pivot rows and values, the zero rows
    among them, only when they are read; every value it hands out is a
    Fraction.
    """
    nonzero = None if rhs is None else list(map(bool, rhs))  # each value read once
    zeros, kept = _forced_zeros(rows, nonzero)
    if rhs is not None:
        kept = sorted(kept + [i for i, x in enumerate(nonzero) if x])
    kept_rows = []
    for i in kept:
        row = rows[i]
        if not zeros.isdisjoint(row):
            row = {c: x for c, x in row.items() if c not in zeros}
        kept_rows.append(row)
    kept_rhs = None if rhs is None else [rhs[i] for i in kept]
    pivot_rows, pivot_rhs, bad, _ = _echelon(kept_rows, kept_rhs, False)
    witness = None if bad is None else _echelon(rows, rhs, True)[3]
    return SparseSolution(ncols, pivot_rows, pivot_rhs, zeros, witness)


def jordan_block(n):
    """Nilpotent Jordan block with ones on the superdiagonal."""
    m = [[Q(0)] * n for _ in range(n)]
    for i in range(n - 1):
        m[i][i + 1] = Q(1)
    return Matrix(m, cols=n)


def _krylov_chain(columns, v, limit):
    """The nonzero vectors v, N v, N^2 v, ... of an operator N, as sparse dicts.

    columns maps j to column j of N, N e_j = {k: c} (a missing column is
    zero), and v is a sparse vector {k: c}. The chain stops before the first
    zero image, or after limit steps, so it has at most limit + 1 terms and
    N^limit v = 0 exactly when it has at most limit. Each step visits only
    the nonzeros of the vector and of the columns it meets.
    """
    chain = []
    while v:
        chain.append(v)
        if len(chain) > limit:
            break
        image = {}
        for j, c in v.items():
            for k, x in columns.get(j, {}).items():
                image[k] = image.get(k, 0) + c * x
        v = {k: x for k, x in image.items() if x}
    return chain


def nilpotent_regular_basis(n_matrix):
    """Change of basis P with P N P^-1 = jordan_block(n) for a regular nilpotent N.

    Regular means nilpotent of index exactly n, i.e. N^(n-1) != 0 and N^n = 0.
    A Krylov chain of some e_j with n + 1 terms shows N^n != 0; the first one
    with n terms is a basis killed by N^n, and P is built from it.
    """
    n = n_matrix.rows
    if n_matrix.cols != n:
        raise DimensionMismatch("square matrix required")
    columns = dict(enumerate(_sparse(zip(*n_matrix.data))))
    for j in range(n):
        chain = _krylov_chain(columns, {j: 1}, n)
        if len(chain) > n:
            raise NotRegularNilpotent("matrix is not nilpotent")
        if len(chain) == n:
            break
    else:
        raise NotRegularNilpotent("nilpotency index is smaller than the dimension")
    chain.reverse()  # chain[k] = N^(n-1-k) e_j, so N chain[k+1] = chain[k]
    return Matrix.from_columns([[v.get(k, 0) for k in range(n)] for v in chain]).inverse()
