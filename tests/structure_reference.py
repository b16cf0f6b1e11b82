"""The block count of a ``StructureAlgebra``, which no command asks for:
the tests use it to check that End of a sum of indecomposables is
connected exactly when their AR subquiver is.

``center`` solves the commuting equations b_i*z = z*b_i for a basis of the
centre.  ``block_count`` builds the centre as an algebra of its own, takes
it modulo its radical and counts the primitive idempotents of what is left,
one per block.
"""

from arquiver.errors import NonSplitEndomorphismRing
from arquiver.linalg import Matrix, canonical, kernel_basis, solve
from arquiver.structure import StructureAlgebra, quotient_algebra, split_commutative_semisimple


def center(alg):
    """Basis of the center, by solving the commuting equations."""
    rows = []
    for j in range(alg.dim):
        bj = alg.basis_vector(j)
        for k in range(alg.dim):
            row = []
            for i in range(alg.dim):
                bi = alg.basis_vector(i)
                row.append(alg.mul(bi, bj)[k] - alg.mul(bj, bi)[k])
            rows.append(canonical(row, alg.field.char))
    m = Matrix(len(rows), alg.dim, rows, alg.field)
    return kernel_basis(m)


def block_count(alg):
    """Number of central primitive idempotents (connected components)."""
    center_rows = center(alg)
    cols = Matrix(
        alg.dim,
        len(center_rows),
        [[center_rows[j][i] for j in range(len(center_rows))] for i in range(alg.dim)],
        alg.field,
    )

    def coords(x):
        s = solve(cols, x)
        if s is None:
            raise NonSplitEndomorphismRing("center coordinates failed")
        return s

    table = [
        [coords(alg.mul(center_rows[i], center_rows[j])) for j in range(len(center_rows))]
        for i in range(len(center_rows))
    ]
    z = StructureAlgebra(table, coords(alg.unit), alg.field)
    rad_rows = z.radical()
    if rad_rows:
        zq, _reps = quotient_algebra(z, rad_rows)
    else:
        zq = z
    return len(split_commutative_semisimple(zq))
