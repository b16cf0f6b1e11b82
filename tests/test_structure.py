import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arquiver.errors import (
    InadmissibleIdeal,
    NonSplitEndomorphismRing,
    UnsupportedRadicalComputation,
)
from arquiver.linalg import QQ, Matrix, PrimeField, canonical
from arquiver.structure import (
    StructureAlgebra,
    is_hereditary,
    lift_idempotent,
    matrix_min_poly,
    poly_degree,
    poly_divide_linear,
    poly_eval,
    poly_normalize,
    primitive_orthogonal_idempotents,
    rational_roots,
    split_commutative_semisimple,
)
from tests.roots_reference import reference_matrix_min_poly, reference_rational_roots
from tests.structure_reference import block_count

F = Fraction


def dual_numbers():
    """k[x]/x^2 with basis (1, x)."""
    table = [
        [[F(1), F(0)], [F(0), F(1)]],
        [[F(0), F(1)], [F(0), F(0)]],
    ]
    return StructureAlgebra(table, [F(1), F(0)])


def product_field(n):
    """k^n with coordinatewise multiplication."""
    table = [
        [[F(1) if i == j == k else F(0) for k in range(n)] for j in range(n)]
        for i in range(n)
    ]
    return StructureAlgebra(table, [F(1)] * n)


def upper_triangular_2():
    """Upper triangular 2x2 matrices, basis (e11, e22, e12)."""
    basis = {
        0: Matrix(2, 2, [[F(1), F(0)], [F(0), F(0)]]),
        1: Matrix(2, 2, [[F(0), F(0)], [F(0), F(1)]]),
        2: Matrix(2, 2, [[F(0), F(1)], [F(0), F(0)]]),
    }

    def coords(m):
        return [m.data[0][0], m.data[1][1], m.data[0][1]]

    table = [[coords(basis[i] * basis[j]) for j in range(3)] for i in range(3)]
    return StructureAlgebra(table, [F(1), F(1), F(0)])


def full_matrix_2():
    """M_2(k), basis (e11, e12, e21, e22)."""
    units = [
        Matrix(2, 2, [[F(1), F(0)], [F(0), F(0)]]),
        Matrix(2, 2, [[F(0), F(1)], [F(0), F(0)]]),
        Matrix(2, 2, [[F(0), F(0)], [F(1), F(0)]]),
        Matrix(2, 2, [[F(0), F(0)], [F(0), F(1)]]),
    ]

    def coords(m):
        return [m.data[0][0], m.data[0][1], m.data[1][0], m.data[1][1]]

    table = [[coords(units[i] * units[j]) for j in range(4)] for i in range(4)]
    return StructureAlgebra(table, [F(1), F(0), F(0), F(1)])


def gaussian_rationals():
    """Q(i) = Q[x]/(x^2 + 1), a non-split field extension."""
    table = [
        [[F(1), F(0)], [F(0), F(1)]],
        [[F(0), F(1)], [F(-1), F(0)]],
    ]
    return StructureAlgebra(table, [F(1), F(0)])


def test_poly_divide_linear():
    # x^2 - 3x + 2 = (x - 1)(x - 2)
    q, r = poly_divide_linear([F(2), F(-3), F(1)], F(1))
    assert r == 0 and q == [F(-2), F(1)]


def test_rational_roots_with_multiplicity():
    # x^3 - 2x^2 + x = x (x-1)^2
    roots, residual = rational_roots([F(0), F(1), F(-2), F(1)])
    assert residual == 0
    assert sorted(roots) == [(F(0), 1), (F(1), 2)]


def test_rational_roots_irrational_residual():
    roots, residual = rational_roots([F(-2), F(0), F(1)])  # x^2 - 2
    assert roots == [] and residual == 2


def test_rational_roots_fractional():
    roots, residual = rational_roots([F(-1), F(2)])  # 2x - 1
    assert roots == [(F(1, 2), 1)] and residual == 0


def test_rational_roots_of_a_large_fraction():
    # x (x - 999983/1000000007) (x + 2), cleared: the divisors of the
    # coefficients are found by trial division up to their square roots
    r = F(999983, 1000000007)
    roots, residual = rational_roots([F(0), -2 * r, 2 - r, F(1)])
    assert residual == 0
    assert roots == [(0, 1), (-2, 1), (r, 1)]
    assert [type(x) for x, _m in roots] == [int, int, F]


def test_rational_roots_of_quadratics_with_huge_coefficients():
    # the formula needs no factoring: trial division up to the square root
    # of these coefficients would take hours
    r = F(100000000000000000039, 999983)
    roots, residual = rational_roots([-2 * r, 2 - r, F(1)])  # (x - r)(x + 2)
    assert (roots, residual) == ([(-2, 1), (r, 1)], 0)
    assert [type(x) for x, _m in roots] == [int, F]
    big = 10**40 + 1
    roots, residual = rational_roots([big * big, -2 * big, 1])  # (x - big)^2
    assert (roots, residual) == ([(big, 2)], 0) and type(roots[0][0]) is int
    # x^2 - 2 (10^40 + 1)^2: an integer discriminant that is no square
    assert rational_roots([-2 * big * big, 0, 1]) == ([], 2)
    # (x - 1/3)(x - 2/3) scaled by -9/7: both roots fractions
    roots, residual = rational_roots([F(-2, 7), F(9, 7), F(-9, 7)])
    assert (roots, residual) == ([(F(1, 3), 1), (F(2, 3), 1)], 0)


def _scan_roots(poly, field):
    """Roots over F_p found by evaluating at every element of the field."""
    roots = []
    for v in range(field.char):
        lam = field.from_int(v)
        mult = 0
        while poly_degree(poly) > 0 and not poly_eval(poly, lam, field):
            poly, _r = poly_divide_linear(poly, lam, field)
            poly = poly_normalize(poly, field)
            mult += 1
        if mult:
            roots.append((lam, mult))
    return roots, poly_degree(poly)


def _from_roots(field, roots, cofactor=None):
    """Monic product of (x - r) over roots, times an optional cofactor."""
    poly = list(cofactor) if cofactor else [field.one]
    for r in roots:
        r = field.from_int(r)
        shifted = [field.zero] + poly
        poly = [field.from_int(a - r * b) for a, b in zip(shifted, poly + [field.zero])]
    return poly


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 17, 97, 101])
def test_rational_roots_over_fp_match_a_scan(p):
    field = PrimeField(p)
    rng = random.Random(p)
    for _ in range(120):
        if rng.random() < 0.5:
            coeffs = [rng.randrange(p) for _ in range(rng.randint(1, 9))]
            poly = [field.from_int(c) for c in coeffs]
        else:
            roots = [rng.randrange(p) for _ in range(rng.randint(1, 7))]
            cofactor = [field.from_int(rng.randrange(p)) for _ in range(rng.randint(1, 4))]
            poly = _from_roots(field, roots, cofactor)
        if poly_degree(poly_normalize(poly, field)) == 0:
            continue
        assert rational_roots(poly, field) == _scan_roots(poly_normalize(poly, field), field)


@pytest.mark.parametrize("p", [2, 3, 5, 13, 17])
def test_every_linear_and_quadratic_polynomial_over_fp_matches_a_scan(p):
    # the formula's branches: F_2 tries both elements, and Tonelli-Shanks
    # runs with p - 1 = q 2^e for e = 1 (p = 3), 2 (5, 13) and 4 (17)
    field = PrimeField(p)
    for coeffs in itertools.product(range(p), repeat=3):
        poly = poly_normalize(list(coeffs), field)
        if poly_degree(poly) > 0:
            assert rational_roots(poly, field) == _scan_roots(poly, field), coeffs


def test_rational_roots_over_large_prime_from_known_factors():
    field = PrimeField(32003)
    x2_plus_1 = [field.one, field.zero, field.one]  # 32003 = 3 mod 4: irreducible
    cases = [
        ([5], None, [(5, 1)], 0),
        ([0, 0, 32002, 7, 7, 7], None, [(0, 2), (7, 3), (32002, 1)], 0),
        ([1, 2, 3, 4, 16001, 16002], x2_plus_1, [(1, 1), (2, 1), (3, 1), (4, 1), (16001, 1), (16002, 1)], 2),
        ([], x2_plus_1, [], 2),
        ([31999, 31999], [field.from_int(2)], [(31999, 2)], 0),
    ]
    for roots, cofactor, expected, residual in cases:
        poly = _from_roots(field, roots, cofactor)
        found, left = rational_roots(poly, field)
        assert found == expected
        assert left == residual


_ROOT_FIELDS = [QQ] + [PrimeField(p) for p in (2, 3, 5, 7, 17, 32003)]
_ROOT_VALUES = ["0", "1", "-1", "2", "-3", "1/2", "-2/3"]
_SCALES = ["1", "-1", "2", "-3/2", "5/7"]
# monic quadratics and cubics, low degree first; each field uses the ones
# with no root in it
_FACTORS = [[1, 0, 1], [-2, 0, 1], [1, 1, 1], [3, 0, 1], [-2, 0, 0, 1], [1, 1, 0, 1], [1, 0, 1, 1]]


def _in_field(field, text):
    try:
        return field.parse(text)
    except ValueError:
        return None


@functools.lru_cache(maxsize=None)
def _rootless_factors(field):
    """The ``_FACTORS`` with no root in the field: over Q a root of a monic
    integer polynomial is an integer dividing its nonzero constant term, over
    F_p the whole field is scanned."""
    def value(f, x):
        return sum(c * x**i for i, c in enumerate(f))

    if field.char:
        return [f for f in _FACTORS if all(value(f, x) % field.char for x in range(field.char))]
    return [
        f for f in _FACTORS
        if f[0] and all(value(f, x) for d in range(1, abs(f[0]) + 1) for x in (d, -d))
    ]


def _times(field, f, g):
    out = [field.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = out[i + j] + a * b
    return canonical(out, field.char)


@st.composite
def split_polynomials(draw):
    """(polynomial, field): a scaled product of linear factors, repeats
    allowed, and of quadratics or cubics with no root in the field."""
    field = draw(st.sampled_from(_ROOT_FIELDS))
    roots = [r for r in (_in_field(field, t) for t in _ROOT_VALUES) if r is not None]
    poly = [field.one]
    for r in draw(st.lists(st.sampled_from(roots), max_size=7)):
        poly = _times(field, poly, [-r, field.one])
    for f in draw(st.lists(st.sampled_from(_rootless_factors(field)), max_size=2)):
        poly = _times(field, poly, [field.from_int(c) for c in f])
    scales = [c for c in (_in_field(field, t) for t in _SCALES) if c]
    scale = draw(st.sampled_from(scales))
    return canonical([scale * c for c in poly], field.char), field


def _described(result):
    roots, residual = result
    return [(r, repr(r), type(r), m) for r, m in roots], residual


def test_every_root_field_has_rootless_factors():
    assert all(_rootless_factors(field) for field in _ROOT_FIELDS)


@settings(max_examples=300, deadline=None)
@given(split_polynomials())
def test_rational_roots_matches_the_restarting_search(case):
    poly, field = case
    assert _described(rational_roots(poly, field)) == _described(
        reference_rational_roots(poly, field)
    )


def test_matrix_min_poly_nilpotent():
    m = Matrix(2, 2, [[F(0), F(1)], [F(0), F(0)]])
    assert matrix_min_poly(m) == [F(0), F(0), F(1)]


def test_matrix_min_poly_diagonal():
    m = Matrix(2, 2, [[F(2), F(0)], [F(0), F(2)]])
    assert matrix_min_poly(m) == [F(-2), F(1)]


_MIN_POLY_FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(32003)]
_MIN_POLY_KINDS = ["random", "zero", "identity", "scalar", "nilpotent", "triangular", "repeated block"]


@st.composite
def square_matrices(draw):
    """(kind, matrix) of size 0-6 over Q, F_2, F_3 or F_32003."""
    field = draw(st.sampled_from(_MIN_POLY_FIELDS))
    kind = draw(st.sampled_from(_MIN_POLY_KINDS))
    n = draw(st.integers(0, 6))
    entries = st.sampled_from([0, 0, 1, -1, 2, F(1, 2), F(-3, 2)] if field is QQ else range(-3, 4))

    def value(x):
        return x if field is QQ else x % field.char

    def grid(size, keep):
        return [
            [value(draw(entries)) if keep(i, j) else field.zero for j in range(size)]
            for i in range(size)
        ]

    if kind == "random":
        data = grid(n, lambda i, j: True)
    elif kind in ("zero", "identity", "scalar"):
        c = {"zero": 0, "identity": 1, "scalar": draw(entries)}[kind]
        data = [[value(c) if i == j else field.zero for j in range(n)] for i in range(n)]
    elif kind == "nilpotent":
        data = grid(n, lambda i, j: i < j)
    elif kind == "triangular":
        # few distinct diagonal entries, so roots repeat and Jordan blocks appear
        diagonal = [value(draw(st.sampled_from([0, 1, 2]))) for _ in range(n)]
        data = grid(n, lambda i, j: i < j)
        for i in range(n):
            data[i][i] = diagonal[i]
    else:
        half = n // 2
        block = grid(half, lambda i, j: True)
        data = [[field.zero] * n for _ in range(n)]
        for i in range(half):
            for j in range(half):
                data[i][j] = data[half + i][half + j] = block[i][j]
        if n % 2:
            data[n - 1][n - 1] = block[0][0] if half else value(draw(entries))
    return kind, Matrix(n, n, data, field)


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_matrix_min_poly_matches_one_solve_per_power(case):
    _kind, m = case
    field = m.field
    poly = matrix_min_poly(m)
    assert poly == reference_matrix_min_poly(m)
    assert poly[-1] == field.one
    value = Matrix.zeros(m.nrows, m.ncols, field)
    for k, c in enumerate(poly):
        value = value + m.power(k).scale(c)
    assert value.is_zero()


def test_structure_algebra_rejects_non_associative():
    # basis (1, x, y) with x*x = y, x*y = 1, y*x = y*y = 0:
    # (x*x)*y = 0 but x*(x*y) = x
    zero = [F(0)] * 3
    one = [F(1), F(0), F(0)]
    x = [F(0), F(1), F(0)]
    y = [F(0), F(0), F(1)]
    table = [
        [one, x, y],
        [x, y, one],
        [y, zero, zero],
    ]
    with pytest.raises(InadmissibleIdeal):
        StructureAlgebra(table, one)


def test_radical_of_dual_numbers():
    alg = dual_numbers()
    rad = alg.radical()
    assert len(rad) == 1
    assert rad[0][0] == 0  # the radical lives on the x coordinate


def test_radical_of_semisimple_is_zero():
    assert product_field(3).radical() == []
    assert full_matrix_2().radical() == []


def test_radical_refuses_small_prime_field():
    f2 = PrimeField(2)
    one, zero = f2.one, f2.zero
    table = [
        [[one, zero], [zero, one]],
        [[zero, one], [zero, zero]],
    ]
    alg = StructureAlgebra(table, [one, zero], field=f2)
    with pytest.raises(UnsupportedRadicalComputation):
        alg.radical()


def test_split_commutative_semisimple():
    idems = split_commutative_semisimple(product_field(3))
    assert len(idems) == 3
    total = [sum(e[i] for e in idems) for i in range(3)]
    assert total == [F(1)] * 3
    for e in idems:
        assert product_field(3).mul(e, e) == e


def test_split_rejects_field_extension():
    with pytest.raises(NonSplitEndomorphismRing):
        split_commutative_semisimple(gaussian_rationals())


def test_lift_idempotent():
    alg = dual_numbers()
    # 1 + x is idempotent modulo rad; lifting recovers 1
    e = lift_idempotent(alg, [F(1), F(5)])
    assert alg.mul(e, e) == e
    assert e[0] == F(1)


def test_primitive_idempotents_upper_triangular():
    alg = upper_triangular_2()
    idems = primitive_orthogonal_idempotents(alg)
    assert len(idems) == 2
    for e in idems:
        assert alg.mul(e, e) == e
    for i in range(2):
        for j in range(2):
            if i != j:
                assert not any(alg.mul(idems[i], idems[j]))


def test_primitive_idempotents_are_made_orthogonal():
    # upper triangular 2x2 matrices in the basis (e11 + e12, e22, e12): the
    # coset representatives e11 + e12 and e22 of the two simples are
    # idempotent but not orthogonal, so each later idempotent is lifted
    # inside (1 - earlier ones) A (1 - earlier ones)
    skewed = [
        Matrix(2, 2, [[F(1), F(1)], [F(0), F(0)]]),
        Matrix(2, 2, [[F(0), F(0)], [F(0), F(1)]]),
        Matrix(2, 2, [[F(0), F(1)], [F(0), F(0)]]),
    ]

    def coords(m):
        return [m.data[0][0], m.data[1][1], m.data[0][1] - m.data[0][0]]

    table = [[coords(skewed[i] * skewed[j]) for j in range(3)] for i in range(3)]
    alg = StructureAlgebra(table, [F(1), F(1), F(-1)])
    idems = primitive_orthogonal_idempotents(alg)
    assert len(idems) == 2
    assert [a + b for a, b in zip(*idems)] == alg.unit
    assert not any(alg.mul(idems[0], idems[1])) and not any(alg.mul(idems[1], idems[0]))


def test_hereditary_judgments():
    assert is_hereditary(upper_triangular_2())      # path algebra of A2
    assert is_hereditary(product_field(2))          # semisimple
    assert is_hereditary(full_matrix_2())           # semisimple
    assert not is_hereditary(dual_numbers())        # rad is not projective


def test_block_count():
    assert block_count(product_field(2)) == 2
    assert block_count(full_matrix_2()) == 1
    assert block_count(dual_numbers()) == 1
    assert block_count(upper_triangular_2()) == 1
