"""Polynomial roots, and abstract algebras given by structure constants.

Production code uses only ``matrix_min_poly`` and ``rational_roots``, for
the eigenvalues of ``modules._eigenvalues``.  ``rational_roots`` reads the
roots of a polynomial of degree 1 or 2 off the formula, with an exact
square root; a higher degree goes to the F_p root finder ``_fp_roots`` or
to the rational root theorem.  ``StructureAlgebra`` and what builds on it
is a trace-form reference that no command reaches; tests use it as an
independent oracle for End(M).  It stays in the package because the
benchmark's tracer wraps four of its names: ``StructureAlgebra.radical``,
``primitive_orthogonal_idempotents``, ``is_hereditary`` and
``modules.end_algebra_analysis``.  Its radical is exact in characteristic 0
and over F_p once p exceeds the dimension; a smaller p is refused.
"""

from fractions import Fraction
from math import isqrt, lcm

from .errors import (
    InadmissibleIdeal,
    InternalError,
    NonSplitEndomorphismRing,
    UnsupportedRadicalComputation,
)
from .linalg import QQ, Matrix, RowSpace, canonical, kernel_basis, residue, solve

VERIFY_DIM = 40         # largest dimension whose structure constants are checked
LIFT_ITERATIONS = 64    # most steps of the idempotent lifting e -> 3e^2 - 2e^3


# -- polynomial helpers (dense lists, low degree first) -----------------


def poly_normalize(p, field=QQ):
    while len(p) > 1 and not p[-1]:
        p = p[:-1]
    return p if p else [field.zero]


def poly_degree(p):
    return len(p) - 1


def poly_eval(p, x, field=QQ):
    acc = field.zero
    for c in reversed(p):
        acc = residue(acc * x + c, field.char)
    return acc


def poly_divide_linear(p, lam, field=QQ):
    """Synthetic division of p by (x - lam); returns (quotient, remainder)."""
    n = len(p) - 1
    if n < 1:
        return [field.zero], p[0]
    q = [field.zero] * n
    acc = field.zero
    for i in range(n, 0, -1):
        acc = residue(p[i] + acc * lam, field.char)
        q[i - 1] = acc
    return q, residue(p[0] + acc * lam, field.char)


def matrix_min_poly(m):
    """Monic minimal polynomial of a square matrix, exactly.

    Each power M^k, flattened and followed by the unit vector of x^k, is
    reduced against the rows of the earlier powers, so the tail of a
    reduced row is the combination of powers its head is.  The first power
    whose head reduces to zero is M^k less a combination of I, ..., M^(k-1),
    and the tail is that monic polynomial; it has least degree because the
    earlier powers are independent.  One elimination serves every power,
    and the powers are I, M, M.M, ..., with no product by I.
    """
    n = m.nrows
    field = m.field
    if n == 0:
        return [field.one]
    size = n * n
    powers = RowSpace(size + n + 1, field=field)
    power = Matrix.identity(n, field)
    # Cayley-Hamilton: some power up to M^n depends on the earlier ones
    for k in range(n + 1):
        tail = [field.zero] * (n + 1)
        tail[k] = field.one
        row = powers.reduce([a for r in power.data for a in r] + tail)
        if not any(row[:size]):
            return poly_normalize(row[size:], field)
        powers.add(row)
        power = m if k == 0 else power * m
    raise InternalError("minimal polynomial search did not terminate")


def rational_roots(p, field=QQ):
    """All roots of p lying in the ground field, with multiplicities.

    Returns (roots, residual_degree) where roots is a list of
    (root, multiplicity), zero first and then ascending, and
    residual_degree is the degree left after stripping every in-field
    linear factor.  The candidates come from ``_low_degree_roots`` up to
    degree 2, and from ``_fp_roots`` or ``_rational_candidates`` above it.
    A non-root of p divides no quotient of p, so one pass over the
    ascending candidates suffices.
    """
    p = poly_normalize(p, field)
    if poly_degree(p) == 0:
        return [], 0
    roots = []
    if poly_degree(p) <= 2:
        candidates = _low_degree_roots(p, field)
    elif field.char:
        candidates = _fp_roots(p, field)
    else:
        candidates = _rational_candidates(p, field)
    for lam in candidates:
        mult = 0
        while poly_degree(p) > 0:
            q, r = poly_divide_linear(p, lam, field)
            if r:
                break
            p = poly_normalize(q, field)
            mult += 1
        if mult:
            roots.append((lam, mult))
    return roots, poly_degree(p)


def _low_degree_roots(p, field):
    """The distinct roots in the field of p of degree 1 or 2, zero first,
    then ascending: -c0/c1, or (-b +- sqrt(D))/2a with D = b^2 - 4ac and
    the square root exact (``_square_root``).  Over Q the coefficients are
    cleared of denominators first, and an integral root is an ``int``.
    Over F_2, where 2a = 0, both elements are tried."""
    char = field.char
    if char == 2:
        return [v for v in (0, 1) if not poly_eval(p, v, field)]
    if not char:
        scale = lcm(*(c.denominator for c in p))
        p = [int(c * scale) for c in p]
    if len(p) == 2:
        tops, den = [-p[0]], p[1]
    else:
        c, b, a = p
        s = _square_root(b * b - 4 * a * c, char)
        if s is None:
            return []
        tops, den = [-b - s, -b + s], 2 * a
    if char:
        r = field.inv(den % char)
        roots = {t * r % char for t in tops}
    else:
        roots = {Fraction(t, den) for t in tops}
        roots = {x.numerator if x.denominator == 1 else x for x in roots}
    return sorted(roots, key=lambda lam: (lam != 0, lam))


def _square_root(d, char):
    """A square root of the integer d in Z when char is 0, or in F_p for an
    odd prime p = char, or None when there is none.

    Over Z, ``isqrt``.  Over F_p, Euler's criterion decides, and
    Tonelli-Shanks finds the root: with p - 1 = q 2^e, q odd, and z a
    non-square, r = d^((q+1)/2) and t = d^q satisfy r^2 = t d, and each
    step multiplies r by a power of z^q that halves the order of t.
    """
    if not char:
        s = isqrt(d) if d >= 0 else 0
        return s if s * s == d else None
    d %= char
    if not d:
        return 0
    if pow(d, (char - 1) // 2, char) != 1:
        return None
    q, e = char - 1, 0
    while not q & 1:
        q, e = q >> 1, e + 1
    z = 2
    while pow(z, (char - 1) // 2, char) == 1:
        z += 1
    c, t, r = pow(z, q, char), pow(d, q, char), pow(d, (q + 1) // 2, char)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % char, i + 1
        b = pow(c, 1 << (e - i - 1), char)
        e, c = i, b * b % char
        t, r = t * c % char, r * b % char
    return r


def _rational_candidates(p, field):
    """0 when p(0) = 0, then every +-u/w of the rational root theorem,
    ascending: u divides the lowest nonzero and w the leading coefficient
    of p cleared of denominators.  An integral candidate is an ``int``."""
    scale = lcm(*(c.denominator for c in p))
    a0, an = abs(int(next(c for c in p if c) * scale)), abs(int(p[-1] * scale))
    us = _divisors(a0)
    out = set()
    for w in _divisors(an):
        r = field.inv(w)
        for u in us:
            out.add(u * r)
            out.add(-u * r)
    return ([field.zero] if not p[0] else []) + sorted(out)


def _divisors(n):
    """The divisors of n > 0, ascending, by trial division up to isqrt(n)."""
    low = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return low + [n // d for d in reversed(low) if d * d != n]


# -- roots over F_p ------------------------------------------------------
# Polynomials here are lists of ints mod p, low degree first, with no
# trailing zero, so the zero polynomial is [].


def _ip_trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _ip_divmod(a, b, p):
    """(quotient, remainder) of a by a nonzero b."""
    a = list(a)
    inv = pow(b[-1], p - 2, p)
    db = len(b) - 1
    q = [0] * max(0, len(a) - db)
    for top in range(len(a) - 1, db - 1, -1):
        c = q[top - db] = a[top] * inv % p
        if c:
            for i, bi in enumerate(b):
                a[top - db + i] = (a[top - db + i] - c * bi) % p
    return q, _ip_trim(a[:db])


def _ip_mod(a, b, p):
    return _ip_divmod(a, b, p)[1]


def _ip_mulmod(a, b, m, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _ip_mod([c % p for c in out], m, p)


def _ip_powmod(base, e, m, p):
    result = [1]
    base = _ip_mod(base, m, p)
    while e:
        if e & 1:
            result = _ip_mulmod(result, base, m, p)
        e >>= 1
        if e:
            base = _ip_mulmod(base, base, m, p)
    return result


def _ip_monic_gcd(a, b, p):
    while b:
        a, b = b, _ip_mod(a, b, p)
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def _ip_sub(a, b, p):
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return _ip_trim([(x - y) % p for x, y in zip(a, b)])


def _ip_split(g, p):
    """Roots of a monic g that is a product of distinct linear factors.

    Deterministic Cantor-Zassenhaus: for a = 0, 1, 2, ... the factor
    gcd(g, (x + a)^((p-1)/2) - 1) collects the roots r with r + a a
    nonzero square.  Two distinct roots differ in that respect for some a,
    so the loop always splits g.
    """
    if len(g) == 1:
        return []
    if len(g) == 2:
        return [-g[0] % p]
    if p == 2:
        return [v for v in (0, 1) if not sum(c * v**i for i, c in enumerate(g)) % 2]
    for a in range(p):
        h = _ip_sub(_ip_powmod([a, 1], (p - 1) // 2, g, p), [1], p)
        k = _ip_monic_gcd(g, h, p)
        if 1 < len(k) < len(g):
            return _ip_split(k, p) + _ip_split(_ip_divmod(g, k, p)[0], p)
    raise InternalError("no shift splits a product of distinct linear factors")


def _fp_roots(poly, field):
    """The distinct roots in F_p of a nonconstant polynomial, ascending.

    They are the roots of g = gcd(f, x^p - x), with x^p taken modulo f by
    repeated squaring, so no scan of the field is needed.
    """
    p = field.char
    f = _ip_trim(list(poly))
    h = _ip_sub(_ip_powmod([0, 1], p, f, p), [0, 1], p)
    g = _ip_monic_gcd(f, h, p)
    return sorted(_ip_split(g, p))


# -- structure algebras --------------------------------------------------


class StructureAlgebra:
    """Associative unital algebra with a chosen basis.

    ``table[i][j]`` is the coordinate vector of b_i * b_j and ``unit`` the
    coordinates of 1.  Associativity and unitality are verified over all
    basis triples at build time, up to dimension ``VERIFY_DIM``.
    """

    def __init__(self, table, unit, field=QQ, labels=None):
        self.dim = len(table)
        self.table = table
        self.unit = list(unit)
        self.field = field
        self.labels = labels or [f"b{i}" for i in range(self.dim)]
        if self.dim <= VERIFY_DIM:
            self._verify()

    def _verify(self):
        for i in range(self.dim):
            if self.mul(self.unit, self.basis_vector(i)) != self.basis_vector(i):
                raise InadmissibleIdeal("unit fails on the left")
            if self.mul(self.basis_vector(i), self.unit) != self.basis_vector(i):
                raise InadmissibleIdeal("unit fails on the right")
        for i in range(self.dim):
            for j in range(self.dim):
                ij = self.table[i][j]
                for k in range(self.dim):
                    left = self.mul(ij, self.basis_vector(k))
                    right = self.mul(self.basis_vector(i), self.table[j][k])
                    if left != right:
                        raise InadmissibleIdeal(
                            f"structure constants not associative at ({i},{j},{k})"
                        )

    def basis_vector(self, i):
        v = [self.field.zero] * self.dim
        v[i] = self.field.one
        return v

    def mul(self, x, y):
        out = [self.field.zero] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                row = self.table[i][j]
                c = xi * yj
                for k, v in enumerate(row):
                    if v:
                        out[k] = out[k] + c * v
        return canonical(out, self.field.char)

    def trace_of_left_mult(self, x):
        t = sum(self.mul(x, self.basis_vector(k))[k] for k in range(self.dim))
        return residue(t, self.field.char)

    def radical(self):
        """Basis of rad(A) via the regular-representation trace form."""
        if self.field.char and self.field.char <= self.dim:
            raise UnsupportedRadicalComputation(
                f"trace-form radical needs char 0 or p > dim (= {self.dim})"
            )
        gram = Matrix(
            self.dim,
            self.dim,
            [
                [self.trace_of_left_mult(self.mul(self.basis_vector(i), self.basis_vector(j))) for i in range(self.dim)]
                for j in range(self.dim)
            ],
            self.field,
        )
        return kernel_basis(gram)

    def subspace_product(self, xs, ys):
        """RowSpace spanned by all products x*y."""
        out = RowSpace(self.dim, field=self.field)
        for x in xs:
            for y in ys:
                out.add(self.mul(x, y))
        return out


def quotient_algebra(alg, ideal_rows):
    """Quotient StructureAlgebra modulo the span of ideal_rows.

    Returns (quotient, section_indices): ``section_indices`` are the
    alg-basis indices chosen as coset representatives.
    """
    span = RowSpace(alg.dim, ideal_rows, field=alg.field)
    reps = span.complement()
    table = [[span.project(alg.table[i][j]) for j in reps] for i in reps]
    q = StructureAlgebra(table, span.project(alg.unit), alg.field,
                         labels=[alg.labels[i] for i in reps])
    return q, reps


def split_commutative_semisimple(alg):
    """Primitive idempotents of a commutative split-semisimple algebra.

    Splits the regular representation by simultaneous eigenspaces of the
    basis elements; raises NonSplitEndomorphismRing when some eigenvalue
    does not lie in the ground field.
    """
    field = alg.field
    subspaces = [[alg.basis_vector(i) for i in range(alg.dim)]]
    for z_index in range(alg.dim):
        z = alg.basis_vector(z_index)
        refined = []
        for w_basis in subspaces:
            if len(w_basis) == 1:
                refined.append(w_basis)
                continue
            cols = Matrix(
                alg.dim,
                len(w_basis),
                [[w_basis[j][i] for j in range(len(w_basis))] for i in range(alg.dim)],
                field,
            )
            lm = []
            for w in w_basis:
                img = alg.mul(z, w)
                c = solve(cols, img)
                if c is None:
                    raise NonSplitEndomorphismRing("subspace not invariant; algebra not commutative")
                lm.append(c)
            lmat = Matrix(len(w_basis), len(w_basis), [[lm[j][i] for j in range(len(w_basis))] for i in range(len(w_basis))], field)
            mu = matrix_min_poly(lmat)
            roots, residual = rational_roots(mu, field)
            if residual > 0:
                raise NonSplitEndomorphismRing("eigenvalue outside the ground field")
            if len(roots) == 1:
                refined.append(w_basis)
                continue
            for lam, _ in roots:
                eig = kernel_basis(lmat - Matrix.identity(lmat.nrows, field).scale(lam))
                sub = []
                for v in eig:
                    w = [field.zero] * alg.dim
                    for c, b in zip(v, w_basis):
                        if c:
                            for k, val in enumerate(b):
                                w[k] = w[k] + c * val
                    sub.append(canonical(w, field.char))
                refined.append(sub)
        subspaces = refined
    idempotents = []
    for w_basis in subspaces:
        if len(w_basis) != 1:
            raise NonSplitEndomorphismRing("could not split to one-dimensional blocks")
        w = w_basis[0]
        sq = alg.mul(w, w)
        lam = None
        for a, b in zip(sq, w):
            if b:
                lam = residue(a * field.inv(b), field.char)
                break
        if lam is None or not lam:
            raise NonSplitEndomorphismRing("degenerate block while normalizing idempotent")
        if sq != canonical([lam * c for c in w], field.char):
            raise NonSplitEndomorphismRing("block is not closed under squaring")
        r = field.inv(lam)
        idempotents.append(canonical([c * r for c in w], field.char))
    return idempotents


def lift_idempotent(alg, x):
    """Lift x (idempotent modulo the radical) to an exact idempotent."""
    e = list(x)
    for _ in range(LIFT_ITERATIONS):
        sq = alg.mul(e, e)
        if sq == e:
            return e
        cube = alg.mul(sq, e)
        e = canonical([3 * a - 2 * b for a, b in zip(sq, cube)], alg.field.char)
    raise NonSplitEndomorphismRing("idempotent lifting did not converge")


def primitive_orthogonal_idempotents(alg):
    """Complete set of orthogonal primitive idempotents of a basic algebra.

    Requires alg/rad to be commutative and split (a product of copies of
    the ground field); raises NonSplitEndomorphismRing otherwise.
    """
    rad_rows = alg.radical()
    if not rad_rows:
        # semisimple: must itself be commutative split to be basic
        return split_commutative_semisimple(alg)
    quot, reps = quotient_algebra(alg, rad_rows)
    bars = split_commutative_semisimple(quot)

    def lift_coords(xbar):
        # any preimage: place coordinates on the chosen representatives
        out = [alg.field.zero] * alg.dim
        for c, i in zip(xbar, reps):
            out[i] = c
        return out

    # Lift each idempotent inside g A g, g = 1 - (the ones lifted so far),
    # so it is orthogonal to all of them.
    idempotents = []
    g = list(alg.unit)
    for b in bars:
        f = lift_idempotent(alg, alg.mul(g, alg.mul(lift_coords(b), g)))
        idempotents.append(f)
        g = canonical([a - c for a, c in zip(g, f)], alg.field.char)
    total = [alg.field.zero] * alg.dim
    for e in idempotents:
        total = canonical([a + b for a, b in zip(total, e)], alg.field.char)
    if total != list(alg.unit):
        raise NonSplitEndomorphismRing("idempotents do not sum to the unit")
    for i, e in enumerate(idempotents):
        for j, f in enumerate(idempotents):
            if i != j and any(alg.mul(e, f)):
                raise NonSplitEndomorphismRing("lifted idempotents are not orthogonal")
    return idempotents


def is_hereditary(alg):
    """Whether rad(alg) is projective as a left module over alg.

    Compares dim of the projective cover of rad (read off multiplicities
    in rad/rad^2) with dim rad; equality certifies projectivity.  The
    semisimple case is immediate; otherwise a basic split algebra is
    required.
    """
    rad_rows = alg.radical()
    if not rad_rows:
        return True
    idems = primitive_orthogonal_idempotents(alg)
    rad_span = RowSpace(alg.dim, rad_rows, field=alg.field)
    rad2 = alg.subspace_product(rad_rows, rad_rows)
    cover_dim = 0
    for f in idems:
        # multiplicity of the simple at f in top(rad)
        top_span = RowSpace(alg.dim, field=alg.field)
        for r in rad_rows:
            top_span.add(rad2.reduce(alg.mul(f, r)))
        m = top_span.dim
        if not m:
            continue
        proj_dim = RowSpace(
            alg.dim,
            [alg.mul(alg.basis_vector(i), f) for i in range(alg.dim)],
            field=alg.field,
        ).dim
        cover_dim += m * proj_dim
    return cover_dim == rad_span.dim
