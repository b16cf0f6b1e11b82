"""Exact dense linear algebra over Q and prime fields.

An element of Q is a Python ``int`` when it is an integer and a
``Fraction`` otherwise; an element of F_p is an ``int`` in 0..p-1.  Nothing
is floating point: every division goes through ``field.inv``, since ``/``
between two ints would give a float.

Over F_p each operation here takes elements in 0..p-1 and reduces the
cells it wrote mod p, a step that runs only when ``field.char`` is
nonzero, so every zero test and every result sees canonical residues; Q
runs the same loops with no reduction.  Code elsewhere that adds, negates
or multiplies elements reduces its results the same way (``residue`` and
``canonical``).

Everything downstream (Hom spaces, translates, annihilators) reduces to
kernels and linear solves over an exact field, so determinism here means
determinism everywhere: row reduction always picks the first nonzero pivot
and scales its row by the pivot's inverse, taken once, and kernel bases are
read off the reduced echelon form with free variables set to 1 one at a
time.  Quotients are read off the same form: F^n / span has as basis the
classes of the unit vectors at the non-pivot coordinates
(``RowSpace.complement``), and the class of v has as coordinates the
residue of v at those coordinates (``RowSpace.project``).

Elimination skips zero entries: a pivot row is scaled and subtracted only
over the columns where it is nonzero, from the pivot column on.  The
systems met downstream are very sparse, and since the arithmetic is exact
the result is the same as a full dense sweep with the same pivot rule.

Rows belong to one matrix.  ``Matrix(...)`` copies the rows it is given
and checks their shape, so rows from anywhere may be passed in.
``Matrix.adopt`` takes the given rows as they are: only code that has
just built them, in the right shape and held nowhere else, may hand rows
over that way.  The operations here (products, sums, scalings,
transposes, ``zeros``, ``identity``, ``rref``) do, as do the places in
``modules`` that build a matrix row by row, so no result shares a row
with an operand or with another matrix.

A matrix with no entries (0xn or nx0) is the exception: nothing can be
written into it, so ``Matrix.zeros`` and the operations hand out one
shared instance per shape and field.  Every operation checks its shapes
first, then answers an operand or result with no entries from the shapes
alone: a product through an empty middle dimension is the zero matrix of
the full shape, and an empty matrix has rank 0 and is its own RREF.
"""

from bisect import bisect_left
from fractions import Fraction

from .errors import DimensionError


class RationalField:
    """The field Q: an integer is an ``int``, any other element a ``Fraction``.

    Nearly every number a knit meets is an integer, mostly +-1, and int
    arithmetic allocates no Fraction and takes no gcd.  An int and a
    Fraction of equal value compare, hash and print alike, so the two
    representations mix freely; a Fraction that comes out integral from
    Fraction arithmetic is left as it is.
    """

    char = 0
    name = "Q"

    zero = 0
    one = 1

    def from_int(self, n):
        return n

    def parse(self, text):
        try:
            x = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational scalar: {text!r}") from exc
        return x.numerator if x.denominator == 1 else x

    def inv(self, x):
        """1/x, an int when it is integral; ZeroDivisionError at 0."""
        if x == 1 or x == -1:
            return x
        r = 1 / Fraction(x)
        return r.numerator if r.denominator == 1 else r

    def format(self, x):
        return str(x)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"


# Miller-Rabin on these bases is exact below MR_BOUND (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Whether n is prime, for n < ``MR_BOUND``."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The prime field F_p: an element is an ``int`` in 0..p-1.

    Sums and products of such ints leave that range, so whatever combines
    elements reduces its result mod p before anything tests it for zero or
    compares it; see the module docstring.
    """

    zero = 0
    one = 1

    def __init__(self, p):
        if p >= MR_BOUND:
            raise ValueError(f"{p} is too large: primality is certified only below {MR_BOUND}")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.name = f"F {p}"

    def from_int(self, n):
        return n % self.p

    def inv(self, x):
        if not x:
            raise ZeroDivisionError("division by zero in F_p")
        return pow(x, self.p - 2, self.p)

    def parse(self, text):
        """An integer n, or a quotient a/b read as a * b^-1 with b a unit mod p."""
        num, den = text.split("/", 1) if "/" in text else (text, "1")
        try:
            return self.from_int(int(num) * self.inv(self.from_int(int(den))))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not an F_{self.p} scalar: {text!r}") from exc

    def format(self, x):
        return str(x)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()


class Matrix:
    """Dense matrix over an exact field; 0xn and nx0 shapes are legal."""

    __slots__ = ("nrows", "ncols", "data", "field")

    def __init__(self, nrows, ncols, data, field=QQ):
        if len(data) != nrows or any(len(row) != ncols for row in data):
            raise DimensionError(f"entry grid does not match shape {nrows}x{ncols}")
        self.nrows = nrows
        self.ncols = ncols
        self.data = [list(row) for row in data]
        self.field = field

    @classmethod
    def adopt(cls, nrows, ncols, rows, field=QQ):
        """The matrix made of ``rows`` themselves, with no copy or shape check:
        the caller hands over fresh lists of the given shape."""
        m = object.__new__(cls)
        m.nrows = nrows
        m.ncols = ncols
        m.data = rows
        m.field = field
        return m

    @classmethod
    def zeros(cls, nrows, ncols, field=QQ):
        if not nrows or not ncols:
            return _empty(nrows, ncols, field)
        z = field.zero
        return cls.adopt(nrows, ncols, [[z] * ncols for _ in range(nrows)], field)

    @classmethod
    def identity(cls, n, field=QQ):
        m = cls.zeros(n, n, field)
        for i in range(n):
            m.data[i][i] = field.one
        return m

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.data == other.data
        )

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols}, {self.data})"

    def __add__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionError("matrix addition shape mismatch")
        if not self.nrows or not self.ncols:
            return _empty(self.nrows, self.ncols, self.field)
        rows = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)]
        return Matrix.adopt(self.nrows, self.ncols, _reduced(rows, self.field.char), self.field)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        """c times the matrix; over F_p, c may be any int."""
        if not self.nrows or not self.ncols:
            return _empty(self.nrows, self.ncols, self.field)
        rows = [[c * a for a in row] for row in self.data]
        return Matrix.adopt(self.nrows, self.ncols, _reduced(rows, self.field.char), self.field)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise DimensionError(
                    f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
                )
            if not (self.nrows and self.ncols and other.ncols):
                return Matrix.zeros(self.nrows, other.ncols, self.field)
            zero, p = self.field.zero, self.field.char
            out = []
            for row in self.data:
                out_row = [zero] * other.ncols
                for k in range(self.ncols):
                    a = row[k]
                    if not a:
                        continue
                    other_row = other.data[k]
                    for j in range(other.ncols):
                        b = other_row[j]
                        if b:
                            out_row[j] = out_row[j] + a * b
                out.append([c % p for c in out_row] if p else out_row)
            return Matrix.adopt(self.nrows, other.ncols, out, self.field)
        return NotImplemented

    def apply(self, vec):
        """Matrix-vector product; vec is a plain list."""
        if len(vec) != self.ncols:
            raise DimensionError("vector length does not match column count")
        zero = self.field.zero
        out = []
        for row in self.data:
            s = zero
            for a, x in zip(row, vec):
                if a and x:
                    s = s + a * x
            out.append(s)
        return canonical(out, self.field.char)

    def transpose(self):
        if not self.nrows or not self.ncols:
            return _empty(self.ncols, self.nrows, self.field)
        return Matrix.adopt(
            self.ncols,
            self.nrows,
            [[row[j] for row in self.data] for j in range(self.ncols)],
            self.field,
        )

    def is_zero(self):
        return all(not a for row in self.data for a in row)

    def power(self, n):
        """M^n by repeated squaring, a matrix of its own: M^0 is the
        identity, and the product starts from the first power of M it
        needs, not from I.M, so M^1 is a copy of M."""
        if self.nrows != self.ncols:
            raise DimensionError("power of a non-square matrix")
        if not self.nrows:
            return _empty(0, 0, self.field)
        if n <= 0:
            return Matrix.identity(self.nrows, self.field)
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                break
            base = base * base
        if result is self:
            return Matrix.adopt(self.nrows, self.ncols, [list(row) for row in self.data], self.field)
        return result


_EMPTY = {}


def _empty(nrows, ncols, field=QQ):
    """The one shared matrix of shape nrows x ncols, a shape with no entries."""
    key = (nrows, ncols, field.char)
    m = _EMPTY.get(key)
    if m is None:
        m = _EMPTY[key] = Matrix.adopt(nrows, ncols, [[] for _ in range(nrows)], field)
    return m


def residue(x, char):
    """x reduced mod ``char``, the characteristic of the field, or x itself
    when that is 0."""
    return x % char if char else x


def canonical(values, char):
    """The list ``values`` reduced mod ``char`` as ``residue`` reduces one
    element, or ``values`` itself when ``char`` is 0."""
    return [a % char for a in values] if char else values


def _reduced(rows, p):
    """The rows reduced mod p, or the rows themselves when p is 0."""
    return [[a % p for a in row] for row in rows] if p else rows


def _support(row, start=0):
    """Columns from ``start`` on where ``row`` is nonzero."""
    return [j for j in range(start, len(row)) if row[j]]


def _scale(row, c, support, p):
    """row *= c, in place, over ``support``, then mod p when p is nonzero."""
    for j in support:
        row[j] = row[j] * c
    if p:
        for j in support:
            row[j] %= p


def _eliminate(row, f, pivot_row, support, p):
    """row -= f * pivot_row, in place, over the pivot row's support, then
    mod p there when p is nonzero."""
    for j in support:
        row[j] = row[j] - f * pivot_row[j]
    if p:
        for j in support:
            row[j] %= p


def rref(m):
    """Reduced row echelon form; returns (new Matrix, pivot column list)."""
    if not m.nrows or not m.ncols:
        return _empty(m.nrows, m.ncols, m.field), []
    data = [list(row) for row in m.data]
    p = m.field.char
    pivots = []
    r = 0
    for c in range(m.ncols):
        pr = None
        for i in range(r, m.nrows):
            if data[i][c]:
                pr = i
                break
        if pr is None:
            continue
        data[r], data[pr] = data[pr], data[r]
        prow = data[r]
        support = _support(prow, c)
        _scale(prow, m.field.inv(prow[c]), support, p)
        for i in range(m.nrows):
            if i != r and data[i][c]:
                _eliminate(data[i], data[i][c], prow, support, p)
        pivots.append(c)
        r += 1
        if r == m.nrows:
            break
    return Matrix.adopt(m.nrows, m.ncols, data, m.field), pivots


def rank(m):
    """The number of pivots ``rref`` finds, by forward elimination alone:
    a pivot row is cleared from the rows below it and never from those
    above, and no row is scaled.  A 1-row matrix is read directly."""
    if not m.nrows or not m.ncols:
        return 0
    if m.nrows == 1:
        return 1 if any(m.data[0]) else 0
    data = [list(row) for row in m.data]
    p = m.field.char
    r = 0
    for c in range(m.ncols):
        for pr in range(r, m.nrows):
            if data[pr][c]:
                break
        else:
            continue
        data[r], data[pr] = data[pr], data[r]
        prow = data[r]
        support = _support(prow, c)
        inv = m.field.inv(prow[c])
        for i in range(r + 1, m.nrows):
            if data[i][c]:
                _eliminate(data[i], data[i][c] * inv, prow, support, p)
        r += 1
        if r == m.nrows:
            break
    return r


def kernel_basis(m):
    """Basis of the right null space, read off the reduced echelon form.

    Returns a list of column vectors (plain lists), one per free column,
    in increasing free-column order.  Deterministic for identical input.
    """
    red, pivots = rref(m)
    zero, one, p = m.field.zero, m.field.one, m.field.char
    basis = []
    for fc in _non_pivots(m.ncols, pivots):
        v = [zero] * m.ncols
        v[fc] = one
        for i, pc in enumerate(pivots):
            v[pc] = -red.data[i][fc] % p if p else -red.data[i][fc]
        basis.append(v)
    return basis


def _non_pivots(n, pivots):
    """The columns 0..n-1 outside ``pivots``, an ascending list, in
    ascending order."""
    rest = list(range(n))
    for p in reversed(pivots):
        del rest[p]
    return rest


def _free_columns(basis):
    """The free column each ``kernel_basis`` vector was read off.

    A kernel vector is 1 at its free column and nonzero elsewhere only at
    pivot columns left of it, so its free column is its last nonzero.
    """
    return [max(i for i, a in enumerate(v) if a) for v in basis]


def solve(m, b):
    """One exact solution of m*x = b, or None when inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    if len(b) != m.nrows:
        raise DimensionError("right-hand side length does not match row count")
    aug = Matrix.adopt(m.nrows, m.ncols + 1, [row + [bb] for row, bb in zip(m.data, b)], m.field)
    red, pivots = rref(aug)
    if m.ncols in pivots:
        return None
    zero = m.field.zero
    x = [zero] * m.ncols
    for i, pc in enumerate(pivots):
        x[pc] = red.data[i][m.ncols]
    return x


class RowSpace:
    """A subspace of F^n kept as canonical RREF rows.

    Canonical form makes subspace equality a plain list comparison, which
    is what the span-invariance properties are tested against.
    """

    def __init__(self, n, vectors=(), field=QQ):
        self.n = n
        self.field = field
        self.rows = []
        self.pivots = []
        for v in vectors:
            self.add(v)

    def _reduce_in_place(self, v):
        char = self.field.char
        for row, p in zip(self.rows, self.pivots):
            if v[p]:
                _eliminate(v, v[p], row, _support(row, p), char)

    def add(self, v):
        """Reduce v against the current rows; absorb it when independent."""
        if len(v) != self.n:
            raise DimensionError("vector length does not match ambient dimension")
        v = list(v)
        self._reduce_in_place(v)
        support = _support(v)
        if not support:
            return False
        lead, char = support[0], self.field.char
        _scale(v, self.field.inv(v[lead]), support, char)
        # v vanishes at every existing pivot, so clearing its pivot column
        # from the other rows keeps all rows reduced against each other
        for row in self.rows:
            if row[lead]:
                _eliminate(row, row[lead], v, support, char)
        k = bisect_left(self.pivots, lead)
        self.rows.insert(k, v)
        self.pivots.insert(k, lead)
        return True

    def reduce(self, v):
        """Residue of v modulo the subspace (list, zero iff contained)."""
        v = list(v)
        self._reduce_in_place(v)
        return v

    def contains(self, v):
        return all(not a for a in self.reduce(v))

    def complement(self):
        """The non-pivot coordinates, ascending: the unit vectors there are
        coset representatives of a basis of F^n / span."""
        return _non_pivots(self.n, self.pivots)

    def project(self, v):
        """Coordinates of v + span in the basis of ``complement``: the
        residue of v with its (zero) pivot entries deleted."""
        red = self.reduce(v)
        for p in reversed(self.pivots):
            del red[p]
        return red

    @property
    def dim(self):
        return len(self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, RowSpace)
            and self.n == other.n
            and self.rows == other.rows
        )

    def copy(self):
        s = RowSpace(self.n, field=self.field)
        s.rows = [list(r) for r in self.rows]
        s.pivots = list(self.pivots)
        return s

    def __repr__(self):
        return f"RowSpace(dim {self.dim} of F^{self.n})"
