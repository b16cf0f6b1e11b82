import functools
import random
from fractions import Fraction

import pytest

from arquiver.errors import DimensionError
from arquiver.linalg import (
    Matrix,
    PrimeField,
    QQ,
    RowSpace,
    kernel_basis,
    rank,
    rref,
    solve,
)


def F(*args):
    return Fraction(*args)


def mat(rows):
    return Matrix(len(rows), len(rows[0]) if rows else 0, [[F(x) for x in r] for r in rows])


def test_kernel_of_zero_map():
    assert kernel_basis(mat([[0]])) == [[F(1)]]


def test_kernel_of_identity_is_empty():
    assert kernel_basis(Matrix.identity(3)) == []


def test_kernel_rank_one_matrix():
    # x + 2y = 0 twice over; solution line is spanned by (2, -1)
    basis = kernel_basis(mat([[1, 2], [2, 4]]))
    assert len(basis) == 1
    (x, y) = basis[0]
    assert x * F(-1) == y * F(2)
    assert x or y


def test_kernel_of_empty_shapes():
    assert len(kernel_basis(Matrix.zeros(0, 3))) == 3
    assert kernel_basis(Matrix.zeros(3, 0)) == []


def test_solve_identity():
    b = [F(1), F(2), F(3)]
    assert solve(Matrix.identity(3), b) == b


def test_solve_inconsistent():
    assert solve(mat([[1], [1]]), [F(1), F(2)]) is None


def test_solve_exact_rational_division():
    assert solve(mat([[2]]), [F(3)]) == [F(3, 2)]


def test_solve_shape_mismatch():
    with pytest.raises(DimensionError):
        solve(mat([[1, 2]]), [F(1), F(2)])


def test_rank_nullity_random():
    rng = random.Random(7)
    for _ in range(25):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        a = mat([[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)])
        assert rank(a) + len(kernel_basis(a)) == m


def test_solve_is_exact_on_consistent_systems():
    rng = random.Random(11)
    for _ in range(25):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        a = mat([[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)])
        x0 = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m)]
        b = a.apply(x0)
        x = solve(a, b)
        assert x is not None
        assert a.apply(x) == b


def test_kernel_span_invariant_under_row_permutation():
    rng = random.Random(13)
    for _ in range(20):
        n, m = rng.randint(2, 5), rng.randint(2, 5)
        rows = [[F(rng.randint(-3, 3)) for _ in range(m)] for _ in range(n)]
        a = Matrix(n, m, rows)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        b = Matrix(n, m, shuffled)
        sa = RowSpace(m, kernel_basis(a))
        sb = RowSpace(m, kernel_basis(b))
        assert sa == sb


def test_rref_pivots_are_reduced():
    red, pivots = rref(mat([[0, 2, 4], [1, 1, 1]]))
    assert pivots == [0, 1]
    for i, p in enumerate(pivots):
        col = [red.data[r][p] for r in range(red.nrows)]
        assert col[i] == F(1)
        assert all(not col[r] for r in range(red.nrows) if r != i)


def test_rowspace_canonical_equality():
    s1 = RowSpace(3, [[F(1), F(1), F(0)], [F(0), F(1), F(1)]])
    s2 = RowSpace(3, [[F(1), F(0), F(-1)], [F(0), F(2), F(2)]])
    assert s1 == s2
    assert s1.contains([F(2), F(3), F(1)])
    assert not s1.contains([F(1), F(0), F(0)])


def test_matrix_multiplication_and_empty():
    a = mat([[1, 2], [3, 4]])
    b = mat([[0, 1], [1, 0]])
    assert (a * b).data == [[F(2), F(1)], [F(4), F(3)]]
    z = Matrix.zeros(0, 2) * mat([[1], [1]])
    assert (z.nrows, z.ncols) == (0, 1)


def test_prime_field_arithmetic():
    f5 = PrimeField(5)
    a = f5.from_int(3)
    assert type(a) is int and (f5.zero, f5.one, f5.from_int(-1)) == (0, 1, 4)
    assert f5.from_int(a + a) == f5.from_int(1)
    assert f5.from_int(a * f5.inv(f5.from_int(2))) == f5.from_int(4)
    assert (f5.parse("-1/2"), f5.format(f5.parse("7"))) == (2, "2")
    with pytest.raises(ValueError):
        PrimeField(6)


def test_kernel_over_prime_field():
    f5 = PrimeField(5)
    a = Matrix(1, 2, [[f5.from_int(1), f5.from_int(2)]], f5)
    basis = kernel_basis(a)
    assert len(basis) == 1
    x, y = basis[0]
    assert f5.from_int(x + f5.from_int(2) * y) == f5.zero
    assert basis == [[3, 1]]


def test_field_descriptors():
    assert QQ.parse("3/2") == F(3, 2)
    with pytest.raises(ValueError):
        QQ.parse("q")


def test_rational_parse_gives_an_int_when_integral():
    assert type(QQ.parse("4/2")) is int and QQ.parse("4/2") == 2
    assert type(QQ.parse("-7")) is int and QQ.parse("-7") == -7
    assert type(QQ.parse("1/2")) is Fraction and QQ.parse("1/2") == F(1, 2)
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert type(QQ.from_int(5)) is int


def test_rational_inverse():
    assert QQ.inv(2) == F(1, 2)
    assert type(QQ.inv(-1)) is int and QQ.inv(-1) == -1
    assert type(QQ.inv(F(-1, 3))) is int and QQ.inv(F(-1, 3)) == -3
    assert QQ.inv(F(2, 3)) == F(3, 2)
    for zero in (0, F(0)):
        with pytest.raises(ZeroDivisionError):
            QQ.inv(zero)


def test_prime_field_inverse():
    f7 = PrimeField(7)
    assert f7.inv(f7.from_int(3)) == f7.from_int(5)
    for n in range(1, 7):
        assert f7.from_int(f7.from_int(n) * f7.inv(f7.from_int(n))) == f7.one
    with pytest.raises(ZeroDivisionError):
        f7.inv(f7.zero)


def test_primality_matches_trial_division_and_refuses_strong_pseudoprimes():
    from arquiver.linalg import MR_BOUND, _is_prime

    def trial(n):
        return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(5000) if _is_prime(n)] == [n for n in range(5000) if trial(n)]
    # strong pseudoprimes to the bases 2..23 and 2..37, and a Carmichael number
    for n in (3825123056546413051, 318665857834031151167461, 561):
        assert not _is_prime(n)
    assert _is_prime(1000000000000000003) and _is_prime(2**61 - 1) and _is_prime(32003)
    with pytest.raises(ValueError, match="too large"):
        PrimeField(MR_BOUND)


# -- property tests against a dense reference elimination -------------------
#
# The reference below sweeps every column of every row, as elimination did
# before it learned to skip zero entries.  The arithmetic is exact, so the
# sparse elimination must reproduce it entry for entry.  Over F_p an element
# is an int in 0..p-1, so the reference reduces each entry it computes.

from hypothesis import given, settings, strategies as st

from arquiver.linalg import _free_columns
from tests.test_knitting import _text

FIELDS = [QQ, PrimeField(5), PrimeField(32003)]


def canon(field, row):
    """The list ``row`` as the field holds it: reduced mod p over F_p."""
    return [a % field.char for a in row] if field.char else list(row)


def dense_rref(m):
    field = m.field
    data = [list(row) for row in m.data]
    pivots = []
    r = 0
    for c in range(m.ncols):
        pr = next((i for i in range(r, m.nrows) if data[i][c]), None)
        if pr is None:
            continue
        data[r], data[pr] = data[pr], data[r]
        inv = field.inv(data[r][c])
        data[r] = canon(field, [a * inv for a in data[r]])
        for i in range(m.nrows):
            if i != r and data[i][c]:
                f = data[i][c]
                data[i] = canon(field, [a - f * b for a, b in zip(data[i], data[r])])
        pivots.append(c)
        r += 1
        if r == m.nrows:
            break
    return data, pivots


def dense_kernel(m):
    red, pivots = dense_rref(m)
    basis = []
    for fc in (c for c in range(m.ncols) if c not in pivots):
        v = [m.field.zero] * m.ncols
        v[fc] = m.field.one
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(canon(m.field, v))
    return basis


def dense_solve(m, b):
    aug = Matrix(m.nrows, m.ncols + 1, [row + [bb] for row, bb in zip(m.data, b)], m.field)
    red, pivots = dense_rref(aug)
    if m.ncols in pivots:
        return None
    x = [m.field.zero] * m.ncols
    for i, pc in enumerate(pivots):
        x[pc] = red[i][m.ncols]
    return x


def dense_rowspace(n, vectors, field=QQ):
    """(rows, pivots) of the canonical RREF rows spanned by the vectors."""
    rows, pivots = [], []
    for v in vectors:
        v = dense_residue(rows, pivots, v, field)
        lead = next((j for j, a in enumerate(v) if a), None)
        if lead is None:
            continue
        inv = field.inv(v[lead])
        v = canon(field, [a * inv for a in v])
        rows.append(v)
        pivots.append(lead)
        order = sorted(range(len(pivots)), key=lambda i: pivots[i])
        rows = [rows[i] for i in order]
        pivots = [pivots[i] for i in order]
        for i in range(len(rows)):
            for j in range(len(rows)):
                if i != j and rows[i][pivots[j]]:
                    f = rows[i][pivots[j]]
                    rows[i] = canon(field, [a - f * b for a, b in zip(rows[i], rows[j])])
    return rows, pivots


def dense_residue(rows, pivots, v, field):
    for row, p in zip(rows, pivots):
        if v[p]:
            f = v[p]
            v = canon(field, [a - f * b for a, b in zip(v, row)])
    return list(v)


@st.composite
def sparse_matrices(draw, max_rows=7, max_cols=8):
    field = draw(st.sampled_from(FIELDS))
    nrows = draw(st.integers(0, max_rows))
    ncols = draw(st.integers(0, max_cols))
    density = draw(st.sampled_from([0.15, 0.35, 0.7]))

    def entry():
        if draw(st.floats(0, 1)) >= density:
            return field.zero
        if field is QQ:
            return Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        return field.from_int(draw(st.integers(0, field.p - 1)))

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    # repeat a row now and then, so that rank drops
    if nrows >= 2 and draw(st.booleans()):
        rows[-1] = list(rows[0])
    return Matrix(nrows, ncols, rows, field)


@settings(max_examples=150, deadline=None)
@given(sparse_matrices())
def test_rref_matches_dense_reference(m):
    red, pivots = rref(m)
    ref_data, ref_pivots = dense_rref(m)
    assert pivots == ref_pivots
    assert red.data == ref_data
    assert (red.nrows, red.ncols) == (m.nrows, m.ncols)


@settings(max_examples=150, deadline=None)
@given(sparse_matrices())
def test_kernel_basis_matches_dense_reference(m):
    basis = kernel_basis(m)
    assert basis == dense_kernel(m)
    free = [c for c in range(m.ncols) if c not in rref(m)[1]]
    assert _free_columns(basis) == free
    assert all(v[c] == m.field.one for v, c in zip(basis, free))


@settings(max_examples=150, deadline=None)
@given(sparse_matrices(), st.data())
def test_solve_matches_dense_reference(m, data):
    x0 = [data.draw(st.integers(-2, 2)) for _ in range(m.ncols)]
    consistent = m.apply([m.field.from_int(c) for c in x0])
    arbitrary = [m.field.from_int(data.draw(st.integers(-2, 2))) for _ in range(m.nrows)]
    for b in (consistent, arbitrary):
        assert solve(m, b) == dense_solve(m, b)


@settings(max_examples=150, deadline=None)
@given(sparse_matrices(), st.data())
def test_rowspace_matches_dense_reference(m, data):
    space = RowSpace(m.ncols, m.data, field=m.field)
    ref_rows, ref_pivots = dense_rowspace(m.ncols, m.data, m.field)
    assert space.rows == ref_rows
    assert space.pivots == ref_pivots
    probe = [m.field.from_int(data.draw(st.integers(-2, 2))) for _ in range(m.ncols)]
    assert space.reduce(probe) == dense_residue(ref_rows, ref_pivots, probe, m.field)
    assert space.copy() == space and space.copy().pivots == space.pivots


@settings(max_examples=150, deadline=None)
@given(sparse_matrices(), st.data())
def test_quotient_coordinates_match_dense_reference(m, data):
    field, n = m.field, m.ncols
    space = RowSpace(n, m.data, field=field)
    ref_rows, ref_pivots = dense_rowspace(n, m.data, field)
    rest = space.complement()
    assert rest == [i for i in range(n) if i not in ref_pivots]
    assert len(rest) == n - space.dim

    def scalar():
        return field.from_int(data.draw(st.integers(-2, 2)))

    def combination(coeffs, vectors):
        out = [field.zero] * n
        for c, v in zip(coeffs, vectors):
            out = canon(field, [a + c * b for a, b in zip(out, v)])
        return out

    u, w = [scalar() for _ in range(n)], [scalar() for _ in range(n)]
    inside = combination([scalar() for _ in m.data], m.data)
    for v in (u, w, inside):
        before = list(v)
        coords = space.project(v)
        assert v == before
        assert coords == [dense_residue(ref_rows, ref_pivots, v, field)[i] for i in rest]
        assert (not any(coords)) == space.contains(v)
        # v minus the representative of its class lies in the span
        lifted = list(v)
        for c, i in zip(coords, rest):
            lifted[i] = lifted[i] - c
        assert space.contains(canon(field, lifted))
    assert not any(space.project(inside))
    a, b = scalar(), scalar()
    assert space.project(combination([a, b], [u, w])) == canon(field, [
        a * x + b * y for x, y in zip(space.project(u), space.project(w))
    ])
    assert all(not any(space.project(row)) for row in space.rows)


def test_empty_shapes_match_dense_reference():
    for field in FIELDS:
        for m in (Matrix.zeros(0, 4, field), Matrix.zeros(4, 0, field), Matrix.zeros(0, 0, field)):
            red, pivots = rref(m)
            assert (red.data, pivots) == dense_rref(m)
            assert kernel_basis(m) == dense_kernel(m)
            assert solve(m, [field.one] * m.nrows) == dense_solve(m, [field.one] * m.nrows)
            assert RowSpace(m.ncols, m.data, field=field).rows == []


# -- matrices with no entries -------------------------------------------------
#
# Each operation answers an operand with a zero dimension from the shapes
# alone, after its shape check.  The references below are the general loops,
# which need no case for empty shapes.


def loop_product(a, b):
    zero = a.field.zero
    return [
        canon(a.field, [sum((a.data[i][k] * b.data[k][j] for k in range(a.ncols)), zero) for j in range(b.ncols)])
        for i in range(a.nrows)
    ]


def loop_power(s, n):
    field = s.field
    unit = [[field.one if i == j else field.zero for j in range(s.ncols)] for i in range(s.nrows)]
    result = Matrix(s.nrows, s.ncols, unit, field)
    for _ in range(n):
        result = Matrix(s.nrows, s.ncols, loop_product(result, s), field)
    return result.data


dims = st.one_of(st.just(0), st.integers(0, 4))


@st.composite
def shaped_operands(draw):
    """(field, a, b, c, s, scalar): a and b n x k, c k x l, s n x n, each
    dimension 0 to 4 and often 0; rationals are Fractions, as ``dense_rref``
    divides with ``/``."""
    field = draw(st.sampled_from(FIELDS))
    element = Fraction if field == QQ else field.from_int
    n, k, l = draw(dims), draw(dims), draw(dims)

    def matrix(nrows, ncols):
        rows = [[element(draw(st.integers(-2, 2))) for _ in range(ncols)] for _ in range(nrows)]
        return Matrix(nrows, ncols, rows, field)

    scalar = element(draw(st.integers(-2, 2)))
    return field, matrix(n, k), matrix(n, k), matrix(k, l), matrix(n, n), scalar


def _shape(m):
    return m.nrows, m.ncols


@settings(max_examples=300, deadline=None)
@given(shaped_operands(), st.integers(0, 3))
def test_operations_on_zero_shapes_match_the_loop_reference(operands, exponent):
    field, a, b, c, s, scalar = operands
    n, k = _shape(a)
    product = a * c
    assert (_shape(product), product.data) == ((n, c.ncols), loop_product(a, c))
    total = a + b
    sums = [canon(field, [x + y for x, y in zip(r, t)]) for r, t in zip(a.data, b.data)]
    assert (_shape(total), total.data) == ((n, k), sums)
    scaled = a.scale(scalar)
    assert (_shape(scaled), scaled.data) == ((n, k), [canon(field, [scalar * x for x in r]) for r in a.data])
    flipped = a.transpose()
    assert (_shape(flipped), flipped.data) == ((k, n), [[r[j] for r in a.data] for j in range(k)])
    powered = s.power(exponent)
    assert (_shape(powered), powered.data) == ((n, n), loop_power(s, exponent))
    red, pivots = rref(a)
    assert (_shape(red), red.data, pivots) == ((n, k), *dense_rref(a))
    assert rank(a) == len(dense_rref(a)[1])
    for m in (product, total, scaled, flipped, powered, red):
        if not m.nrows or not m.ncols:
            assert m is Matrix.zeros(m.nrows, m.ncols, field)


@pytest.mark.parametrize("field", FIELDS)
def test_product_through_an_empty_middle_is_the_full_zero_matrix(field):
    for n in range(5):
        for l in range(5):
            p = Matrix(n, 0, [[] for _ in range(n)], field) * Matrix(0, l, [], field)
            assert (_shape(p), p.data) == ((n, l), [[field.zero] * l for _ in range(n)])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FIELDS), dims, dims, dims, dims)
def test_mismatched_shapes_raise_with_empty_shapes_too(field, r1, c1, r2, c2):
    x, y = Matrix.zeros(r1, c1, field), Matrix.zeros(r2, c2, field)
    if c1 != r2:
        with pytest.raises(DimensionError):
            x * y
    if (r1, c1) != (r2, c2):
        with pytest.raises(DimensionError):
            x + y
    if r1 != c1:
        with pytest.raises(DimensionError):
            x.power(2)


def test_mismatched_empty_product_raises():
    with pytest.raises(DimensionError, match="cannot multiply 0x2 by 3x0"):
        Matrix.zeros(0, 2) * Matrix.zeros(3, 0)


# -- integral rationals are ints ---------------------------------------------
#
# An element of Q is an int when integral and a Fraction otherwise, so the
# reference runs on the same matrix with every entry made a Fraction.  Equal
# values compare equal across the two types, but 3 / 3 is the float 1.0 and
# compares equal too, so every output entry's type is checked as well.


def _exact(entries):
    return all(type(e) in (int, Fraction) for e in entries)


def _as_fractions(rows):
    return [[Fraction(e) for e in row] for row in rows]


@st.composite
def mixed_rational_matrices(draw, max_rows=6, max_cols=7):
    nrows = draw(st.integers(0, max_rows))
    ncols = draw(st.integers(0, max_cols))

    def entry():
        kind = draw(st.sampled_from(["zero", "zero", "int", "fraction"]))
        if kind == "zero":
            return QQ.zero
        if kind == "int":
            # pivots other than +-1 as well
            return draw(st.sampled_from([1, -1, 2, -2, 3, -4, 6]))
        return Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    if nrows >= 2 and draw(st.booleans()):
        rows[-1] = [2 * a for a in rows[0]]
    return Matrix(nrows, ncols, rows)


@settings(max_examples=200, deadline=None)
@given(mixed_rational_matrices(), st.data())
def test_mixed_int_fraction_elimination_matches_reference(m, data):
    ref = Matrix(m.nrows, m.ncols, _as_fractions(m.data))
    red, pivots = rref(m)
    assert (red.data, pivots) == dense_rref(ref)
    assert _exact(a for row in red.data for a in row)

    basis = kernel_basis(m)
    assert basis == dense_kernel(ref)
    assert _exact(a for v in basis for a in v)

    b = [data.draw(st.sampled_from([0, 1, -3, Fraction(1, 2)])) for _ in range(m.nrows)]
    for rhs in (b, m.apply([1] * m.ncols)):
        x = solve(m, rhs)
        assert x == dense_solve(ref, [Fraction(e) for e in rhs])
        assert x is None or _exact(x)

    space = RowSpace(m.ncols, m.data)
    assert (space.rows, space.pivots) == dense_rowspace(m.ncols, ref.data)
    assert _exact(a for row in space.rows for a in row)
    assert _exact(space.reduce([3] * m.ncols))


def _knit_entries(arq):
    for v in arq.vertices.values():
        for mat in v.module.mats.values():
            yield from (a for row in mat.data for a in row)
    for maps in arq.arrow_maps.values():
        for f in maps:
            for mat in f.mats.values():
                yield from (a for row in mat.data for a in row)


@pytest.mark.parametrize(
    "name", ["a2.alg", "a3_line.alg", "b_a3.alg", "cycle3_rad2.alg", "cycle4_rad2.alg", "D4"]
)
def test_knit_holds_no_float(name):
    from arquiver.algebra import build_basis, parse_presentation
    from arquiver.knitting import knit
    from tests.conftest import load_algebra
    from tests.test_knitting import D4_TEXT

    alg = build_basis(parse_presentation(D4_TEXT)) if name == "D4" else load_algebra(name)
    entries = list(_knit_entries(knit(alg)))
    assert entries and _exact(entries)


# -- row ownership ------------------------------------------------------------
#
# Operations hand their fresh rows to the result without a copy
# (``Matrix.adopt``), so a result must never hold a row of an operand, nor
# the same row twice: writing into it would change the operand, or another
# entry of itself.


def _assert_owns_its_rows(result, *operands):
    if not result.nrows or not result.ncols:
        # a matrix with no entries holds nothing to write into: it is the one
        # instance of its shape and field that every operation shares
        assert result is Matrix.zeros(result.nrows, result.ncols, result.field)
        return
    rows = [id(row) for row in result.data]
    assert len(set(rows)) == len(rows)
    assert not set(rows) & {id(row) for m in operands for row in m.data}
    before = [[list(row) for row in m.data] for m in operands]
    for row in result.data:
        for j in range(len(row)):
            row[j] = row[j] + result.field.one
    assert [m.data for m in operands] == before


@st.composite
def operand_sets(draw):
    """(field, a, b, c, s, scalar): a and b n x k, c k x l, s n x n."""
    field = draw(st.sampled_from(FIELDS))
    n, k, l = (draw(st.integers(0, 4)) for _ in range(3))

    def matrix(nrows, ncols):
        rows = [[field.from_int(draw(st.integers(-2, 2))) for _ in range(ncols)] for _ in range(nrows)]
        return Matrix(nrows, ncols, rows, field)

    scalar = field.from_int(draw(st.integers(-2, 2)))
    return field, matrix(n, k), matrix(n, k), matrix(k, l), matrix(n, n), scalar


@settings(max_examples=150, deadline=None)
@given(operand_sets(), st.integers(0, 3))
def test_matrix_operations_own_their_rows(operands, exponent):
    field, a, b, c, s, scalar = operands
    _assert_owns_its_rows(Matrix.zeros(a.nrows, a.ncols, field))
    _assert_owns_its_rows(Matrix.identity(s.nrows, field))
    _assert_owns_its_rows(a + b, a, b)
    _assert_owns_its_rows(a - b, a, b)
    _assert_owns_its_rows(a.scale(scalar), a)
    _assert_owns_its_rows(a * c, a, c)
    _assert_owns_its_rows(a.transpose(), a)
    _assert_owns_its_rows(rref(a)[0], a)
    _assert_owns_its_rows(s.power(exponent), s)


@functools.cache
def _hom_pairs():
    """Pairs of indecomposables over D4, some two-dimensional at a vertex."""
    from arquiver.algebra import build_basis, parse_presentation
    from arquiver.knitting import knit
    from tests.test_knitting import D4_TEXT

    mods = [v.module for v in knit(build_basis(parse_presentation(D4_TEXT))).vertices.values()]
    return [(x, y) for x in mods for y in mods]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hom_basis_maps_own_their_rows(data):
    from arquiver.modules import hom_basis

    x, y = data.draw(st.sampled_from(_hom_pairs()))
    basis = hom_basis(x, y)
    for i, f in enumerate(basis):
        others = [m for g in basis[:i] + basis[i + 1 :] for m in g.mats.values()]
        for v, m in f.mats.items():
            rest = [mm for w, mm in f.mats.items() if w != v]
            _assert_owns_its_rows(m, *x.mats.values(), *y.mats.values(), *others, *rest)


# -- F_p elements are canonical ints ----------------------------------------
#
# Every zero test reads an element as it is, so an unreduced residue such as
# -1 or p would pass for nonzero, or p for a second nonzero value.  Each
# result over F_p must hold ints in 0..p-1, and equal a reference computed
# with Fractions and reduced mod p: ring operations reduce once at the end,
# elimination after each step, as division mod p needs.

PRIME_FIELDS = [PrimeField(p) for p in (2, 3, 5, 7, 32003)]


def _residue(field, x):
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, field.p) % field.p


def _residues(field, rows):
    return [[_residue(field, a) for a in row] for row in rows]


def _canonical(field, rows):
    return all(type(a) is int and 0 <= a < field.p for row in rows for a in row)


def _fraction_product(a, b):
    return [
        [sum((Fraction(a.data[i][k]) * b.data[k][j] for k in range(a.ncols)), Fraction(0)) for j in range(b.ncols)]
        for i in range(a.nrows)
    ]


def fraction_rref(m):
    """(rows, pivots) of the RREF of m over F_p, in Fraction arithmetic with
    every new entry reduced mod p."""
    field = m.field
    data = [list(row) for row in m.data]
    pivots, r = [], 0
    for c in range(m.ncols):
        pr = next((i for i in range(r, m.nrows) if data[i][c]), None)
        if pr is None:
            continue
        data[r], data[pr] = data[pr], data[r]
        pivot = data[r][c]
        data[r] = [_residue(field, Fraction(a) / pivot) for a in data[r]]
        for i in range(m.nrows):
            if i != r and data[i][c]:
                f = data[i][c]
                data[i] = [_residue(field, a - f * b) for a, b in zip(data[i], data[r])]
        pivots.append(c)
        r += 1
        if r == m.nrows:
            break
    return data, pivots


@st.composite
def prime_field_operands(draw):
    """(field, a, b, c, s, scalar, vec): a and b n x k, c k x l, s n x n,
    vec of length k, entries in 0..p-1, zero often."""
    field = draw(st.sampled_from(PRIME_FIELDS))
    n, k, l = (draw(st.integers(0, 5)) for _ in range(3))

    def element():
        return draw(st.one_of(st.just(0), st.just(field.p - 1), st.integers(0, field.p - 1)))

    def matrix(nrows, ncols):
        return Matrix(nrows, ncols, [[element() for _ in range(ncols)] for _ in range(nrows)], field)

    return (field, matrix(n, k), matrix(n, k), matrix(k, l), matrix(n, n), element(),
            [element() for _ in range(k)])


@settings(max_examples=300, deadline=None)
@given(prime_field_operands(), st.integers(0, 3))
def test_prime_field_results_are_canonical_ints(operands, exponent):
    field, a, b, c, s, scalar, vec = operands
    ring = {
        "*": (a * c, _fraction_product(a, c)),
        "+": (a + b, [[Fraction(x) + y for x, y in zip(r, t)] for r, t in zip(a.data, b.data)]),
        "-": (a - b, [[Fraction(x) - y for x, y in zip(r, t)] for r, t in zip(a.data, b.data)]),
        "scale": (a.scale(scalar), [[Fraction(scalar) * x for x in r] for r in a.data]),
        "transpose": (a.transpose(), [[Fraction(r[j]) for r in a.data] for j in range(a.ncols)]),
        "apply": (Matrix.adopt(1, a.nrows, [a.apply(vec)], field),
                  [[sum((Fraction(x) * y for x, y in zip(r, vec)), Fraction(0)) for r in a.data]]),
    }
    power = [[Fraction(i == j) for j in range(s.ncols)] for i in range(s.nrows)]
    for _ in range(exponent):
        power = _residues(field, _fraction_product(Matrix(s.nrows, s.ncols, power), s))
    ring["power"] = (s.power(exponent), power)
    for name, (result, reference) in ring.items():
        assert _canonical(field, result.data), name
        assert result.data == _residues(field, reference), name

    red, pivots = rref(a)
    assert _canonical(field, red.data)
    assert (red.data, pivots) == fraction_rref(a)

    basis = kernel_basis(a)
    assert _canonical(field, basis)
    expected = []
    for fc in (j for j in range(a.ncols) if j not in pivots):
        v = [0] * a.ncols
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = _residue(field, -red.data[i][fc])
        expected.append(v)
    assert basis == expected
    for v in basis:
        assert not any(_residues(field, _fraction_product(a, Matrix(a.ncols, 1, [[x] for x in v])))[i][0]
                       for i in range(a.nrows))

    consistent = a.apply(vec)
    arbitrary = [row[0] if row else 1 for row in b.data]
    for rhs in (consistent, arbitrary):
        x = solve(a, rhs)
        aug = Matrix(a.nrows, a.ncols + 1, [row + [t] for row, t in zip(a.data, rhs)], field)
        assert (x is None) == (a.ncols in fraction_rref(aug)[1])
        assert x is None or (_canonical(field, [x]) and a.apply(x) == rhs)
    assert solve(a, consistent) is not None

    space = RowSpace(a.ncols, field=field)
    for row in a.data + b.data:
        space.add(row)
    ref_rows, ref_pivots = fraction_rref(Matrix(2 * a.nrows, a.ncols, a.data + b.data, field))
    assert (space.rows, space.pivots) == (ref_rows[: len(ref_pivots)], ref_pivots)
    assert _canonical(field, space.rows)
    residue = space.reduce(vec)
    reference = [Fraction(t) for t in vec]
    for row, p in zip(space.rows, space.pivots):
        reference = [t - Fraction(vec[p]) * u for t, u in zip(reference, row)]
    assert _canonical(field, [residue]) and residue == _residues(field, [reference])[0]
    coords = space.project(vec)
    assert _canonical(field, [coords]) and coords == [residue[i] for i in space.complement()]


# fixtures that knit over every prime tried, and the knit paths whose
# scalars come from relations with coefficients other than 1
CANONICAL_KNITS = ["a3_line.alg", "b_a3.alg", "cycle4_rad2.alg", "D4", "SQUARE", "E6 01001"]


@pytest.mark.parametrize("field", ["F 2", "F 3", "F 32003"])
@pytest.mark.parametrize("label", CANONICAL_KNITS)
def test_knits_over_prime_fields_hold_canonical_ints(label, field):
    from arquiver.algebra import build_basis, parse_presentation
    from arquiver.knitting import knit
    from arquiver.modules import almost_split_sequence
    from tests.conftest import FIXTURES

    if label.endswith(".alg"):
        text = (FIXTURES / label).read_text().replace("field Q", f"field {field}", 1)
    else:
        text = _text(f"{label} {field}")
    alg = build_basis(parse_presentation(text))
    f = alg.field
    assert f.char and alg.dim
    assert _canonical(f, [[c for c, _p in r.terms] for r in alg.presentation.relations])
    assert _canonical(f, [[c for entry in row for _k, c in entry] for row in alg.table])
    arq = knit(alg)
    for vert in arq.vertices.values():
        for m in vert.module.mats.values():
            assert _canonical(f, m.data), vert.name
    for maps in arq.arrow_maps.values():
        for g in maps:
            for m in g.mats.values():
                assert _canonical(f, m.data)
    # the maps of each almost split sequence, whose left map is read off a
    # cokernel projection
    for vert in arq.vertices.values():
        if not vert.is_projective:
            seq = almost_split_sequence(vert.module)
            for g in (seq.left, seq.right):
                for m in g.mats.values():
                    assert _canonical(f, m.data), vert.name


@functools.cache
def _prime_field_hom_pairs():
    """Pairs of indecomposables over D4 and SQUARE over F_3 and F_32003."""
    from arquiver.algebra import build_basis, parse_presentation
    from arquiver.knitting import knit

    pairs = []
    for label in ("D4 F 3", "D4 F 32003", "SQUARE F 3", "SQUARE F 32003"):
        mods = [v.module for v in knit(build_basis(parse_presentation(_text(label)))).vertices.values()]
        pairs += [(x, y) for x in mods for y in mods]
    return pairs


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_hom_space_coordinates_over_prime_fields_are_canonical(data):
    # a combination with large coefficients sums past p in the flat vector
    from arquiver.modules import HomSpace

    x, y = data.draw(st.sampled_from(_prime_field_hom_pairs()))
    hs, p = HomSpace(x, y), x.field.p
    c = [data.draw(st.one_of(st.just(p - 1), st.integers(0, p - 1))) for _ in range(hs.dim)]
    f = hs.from_coords(c)
    assert all(_canonical(x.field, m.data) for m in f.mats.values())
    assert hs.coords(f) == c


# -- rank by forward elimination, powers from the operand ---------------------
#
# ``rank`` runs forward elimination only and reads a 1-row matrix directly,
# and ``Matrix.power`` starts its product from the operand instead of I.M.
# Each must answer what the full elimination and the n-fold product from I
# answer, over Q and over the smallest, a small and a large prime.

SHORTCUT_FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(32003)]
small_dims = st.one_of(st.just(0), st.just(1), st.integers(0, 6))


def _element(draw, field):
    if field is QQ:
        return draw(st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4)))
    return field.from_int(draw(st.one_of(st.integers(0, 2), st.integers(0, field.p - 1))))


@st.composite
def shortcut_matrices(draw, square=False):
    field = draw(st.sampled_from(SHORTCUT_FIELDS))
    nrows = draw(small_dims)
    ncols = nrows if square else draw(small_dims)
    zero_share = draw(st.sampled_from([0.0, 0.4, 0.8]))
    rows = [
        [field.zero if draw(st.floats(0, 1)) < zero_share else _element(draw, field) for _ in range(ncols)]
        for _ in range(nrows)
    ]
    # a repeated row lowers the rank
    if nrows >= 2 and draw(st.booleans()):
        rows[-1] = list(rows[0])
    return Matrix(nrows, ncols, rows, field)


@settings(max_examples=300, deadline=None)
@given(shortcut_matrices())
def test_rank_is_the_pivot_count_of_rref(m):
    before = [list(row) for row in m.data]
    assert rank(m) == len(rref(m)[1])
    assert m.data == before


@pytest.mark.parametrize("field", SHORTCUT_FIELDS)
def test_rank_of_the_shapes_it_reads_directly(field):
    one = field.one
    assert rank(Matrix.zeros(0, 3, field)) == rank(Matrix.zeros(3, 0, field)) == 0
    assert rank(Matrix(1, 1, [[field.zero]], field)) == 0
    assert rank(Matrix(1, 1, [[one]], field)) == 1
    assert rank(Matrix(1, 3, [[field.zero, one, field.zero]], field)) == 1
    assert rank(Matrix(1, 3, [[field.zero] * 3], field)) == 0


@settings(max_examples=200, deadline=None)
@given(shortcut_matrices(square=True))
def test_power_is_the_n_fold_product_from_the_identity(s):
    product = Matrix.identity(s.nrows, s.field)
    for n in range(7):
        powered = s.power(n)
        assert (powered.nrows, powered.ncols, powered.data) == (s.nrows, s.ncols, product.data), n
        product = product * s


@settings(max_examples=100, deadline=None)
@given(shortcut_matrices(square=True))
def test_a_write_into_a_power_leaves_its_operand_unchanged(s):
    for n in range(7):
        _assert_owns_its_rows(s.power(n), s)
