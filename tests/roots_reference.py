"""Reference versions of the eigenvalue helpers of ``structure``.

``reference_rational_roots`` is ``rational_roots`` as it was before both
fields shared one pass.  Over Q it strips the zero roots, lists the
candidates p/q of the rational root theorem for what is left, divides out
the first candidate that is a root and starts again on the quotient.  Over
F_p it divides out each root that ``_fp_roots`` finds.

``reference_matrix_min_poly`` is ``matrix_min_poly`` as it was before one
elimination served every power: it solves a fresh linear system for each
power M^k in the earlier powers.
"""

from arquiver.errors import InternalError
from arquiver.linalg import QQ, Matrix, canonical, solve
from arquiver.structure import (
    _fp_roots,
    poly_degree,
    poly_divide_linear,
    poly_eval,
    poly_normalize,
)


def reference_matrix_min_poly(m):
    """Monic minimal polynomial of a square matrix, one solve per power."""
    n = m.nrows
    field = m.field
    if n == 0:
        return [field.one]
    power = Matrix.identity(n, field)
    vecs = []
    while True:
        v = [power.data[i][j] for i in range(n) for j in range(n)]
        if vecs:
            cols = Matrix(len(v), len(vecs), [[vec[i] for vec in vecs] for i in range(len(v))], field)
            sol = solve(cols, v)
            if sol is not None:
                # power k = sum sol_i * power_i  ->  x^k - sum sol_i x^i
                poly = canonical([-c for c in sol], field.char) + [field.one]
                return poly_normalize(poly, field)
        vecs.append(v)
        power = power * m
        if len(vecs) > n + 1:
            raise InternalError("minimal polynomial search did not terminate")


def reference_rational_roots(p, field=QQ):
    """All roots of p lying in the ground field, with multiplicities.

    Returns (roots, residual_degree) where roots is a list of
    (root, multiplicity) and residual_degree is the degree left after
    stripping every in-field linear factor.
    """
    p = poly_normalize(p, field)
    if poly_degree(p) == 0:
        return [], 0
    roots = []
    if field.char == 0:

        def candidates(poly):
            # integer-cleared polynomial: p/q with p | a0, q | a_n
            from math import gcd

            denom_lcm = 1
            for c in poly:
                denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
            ints = [int(c * denom_lcm) for c in poly]
            while ints and ints[0] == 0:
                # handled separately by the zero-root loop below
                ints = ints[1:]
            if not ints:
                return []
            a0, an = abs(ints[0]), abs(ints[-1])
            ps = [d for d in range(1, a0 + 1) if a0 % d == 0]
            qs = [d for d in range(1, an + 1) if an % d == 0]
            out = set()
            for qq in qs:
                r = field.inv(qq)
                for pp in ps:
                    out.add(pp * r)
                    out.add(-pp * r)
            return sorted(out)

        # strip zero roots first
        zero_mult = 0
        while poly_degree(p) > 0 and not p[0]:
            p = p[1:]
            zero_mult += 1
        if zero_mult:
            roots.append((field.zero, zero_mult))
        changed = True
        while poly_degree(p) > 0 and changed:
            changed = False
            for lam in candidates(p):
                if not poly_eval(p, lam, field):
                    mult = 0
                    while poly_degree(p) > 0:
                        q, r = poly_divide_linear(p, lam, field)
                        if r:
                            break
                        p = poly_normalize(q, field)
                        mult += 1
                    roots.append((lam, mult))
                    changed = True
                    break
    else:
        for lam in _fp_roots(p, field):
            mult = 0
            while poly_degree(p) > 0:
                q, r = poly_divide_linear(p, lam, field)
                if r:
                    break
                p = poly_normalize(q, field)
                mult += 1
            roots.append((lam, mult))
    return roots, poly_degree(p)
