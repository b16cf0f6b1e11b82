"""Almost split sequences checked against their defining property.

``almost_split_sequence`` takes the class of 0 -> tau M -> E -> M -> 0 as
the socle of Ext^1(M, tau M) under rad End(tau M).  On the Dynkin and
radical-square-zero inputs Ext^1 is a line; the Kronecker modules R_n
(alpha = I, beta = a Jordan block, End = k[t]/t^n) have Ext^1(R_n, tau R_n)
of dimension n, so only they exercise the socle computation.
"""

import hashlib
import re
from fractions import Fraction

import pytest

from arquiver.algebra import build_basis, parse_presentation
from arquiver.errors import NonLocalEndRing
from arquiver.knitting import knit
from arquiver.linalg import Matrix, RowSpace
from arquiver.modules import (
    HomSpace,
    Module,
    ModuleMap,
    almost_split_sequence,
    decompose,
    direct_sum,
    end_radical_coords,
    ext1_dim,
    hom_basis,
    is_isomorphic,
    projective_module,
    simple_module,
)
from tests.conftest import FIXTURES, load_algebra
from tests.test_knitting import D4_TEXT, SQUARE_TEXT

FIXTURE_FILES = ["a2.alg", "a3_line.alg", "b_a3.alg", "cycle3_rad2.alg", "cycle4_rad2.alg"]
D4_F2_TEXT = re.sub(r"^field .*$", "field F 2", D4_TEXT, count=1, flags=re.M)
TEXTS = {name: (FIXTURES / name).read_text() for name in FIXTURE_FILES}
TEXTS.update({"D4": D4_TEXT, "SQUARE": SQUARE_TEXT, "D4/F2": D4_F2_TEXT})


@pytest.fixture(scope="module")
def kronecker():
    return load_algebra("kronecker.alg")


def regular_r(alg, n):
    """R_n: k^n with alpha = I and beta the nilpotent Jordan block."""
    one, zero = Fraction(1), Fraction(0)
    jordan = [[one if j == i + 1 else zero for j in range(n)] for i in range(n)]
    return Module(alg, {"a": n, "b": n}, {"alpha": Matrix.identity(n), "beta": Matrix(n, n, jordan)})


def factoring_span(space, maps):
    """The coordinates in ``space`` of the maps given, as a row space."""
    return RowSpace(space.dim, [space.coords(f) for f in maps], field=space.x.field)


def assert_almost_split(m, seq):
    """Every rho in rad End(M) factors through ``right`` and id_M does not;
    every h in rad End(tau M) factors through ``left`` and id does not."""
    end_m = HomSpace(m, m)
    through_right = factoring_span(end_m, [seq.right.compose(f) for f in hom_basis(m, seq.middle)])
    rad_m = end_radical_coords(m, end_m.basis)
    assert all(through_right.contains(rc) for rc in rad_m)
    assert not through_right.contains(end_m.coords(ModuleMap.identity(m)))
    tau = seq.tau
    end_tau = HomSpace(tau, tau)
    through_left = factoring_span(end_tau, [f.compose(seq.left) for f in hom_basis(seq.middle, tau)])
    rad_tau = end_radical_coords(tau, end_tau.basis)
    assert all(through_left.contains(rc) for rc in rad_tau)
    assert not through_left.contains(end_tau.coords(ModuleMap.identity(tau)))


def test_almost_split_oracle_on_every_non_projective_vertex():
    count = 0
    for text in TEXTS.values():
        arq = knit(build_basis(parse_presentation(text)))
        for vert in arq.vertices.values():
            if vert.is_projective:
                continue
            assert_almost_split(vert.module, almost_split_sequence(vert.module))
            count += 1
    assert count == 36


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kronecker_regular_sequences_are_almost_split(kronecker, n):
    m = regular_r(kronecker, n)
    seq = almost_split_sequence(m)
    assert ext1_dim(m, seq.tau) == n
    assert is_isomorphic(seq.tau, m)
    assert_almost_split(m, seq)
    pieces = sorted((piece for piece, _mult in decompose(seq.middle)), key=lambda p: p.total_dim)
    expected = [regular_r(kronecker, k) for k in (n - 1, n + 1) if k]
    assert len(pieces) == len(expected)
    assert all(is_isomorphic(p, r) for p, r in zip(pieces, expected))


def _sequence_digest(seq):
    data = hashlib.sha256()
    for mats in (seq.middle.mats, seq.right.mats):
        for key in sorted(mats):
            # Fraction(e), so the digest pins each value but not whether
            # an integral entry is stored as an int or a Fraction
            exact = [[Fraction(e) for e in row] for row in mats[key].data]
            data.update(f"{key}:{exact}".encode())
    return data.hexdigest()[:16]


# sha256 prefixes of the middle term's arrow matrices and the right map,
# recorded from an implementation that lifted rad End(M) through P0
PINNED_KRONECKER = {2: "0a30f9677cb62443", 3: "c5f5cbf427692e1f"}


@pytest.mark.parametrize("n", list(PINNED_KRONECKER))
def test_kronecker_middle_term_and_right_map_are_pinned(kronecker, n):
    assert _sequence_digest(almost_split_sequence(regular_r(kronecker, n))) == PINNED_KRONECKER[n]


def test_decomposable_module_is_refused_by_its_own_end_ring(alg_cycle4):
    # tau(S_a + P_b) = S_c is indecomposable and Ext^1 is a line, so only
    # the check on End(M) stands between this sum and a bogus sequence
    s_a, p_b = simple_module(alg_cycle4, "a"), projective_module(alg_cycle4, "b")
    total = direct_sum([s_a, p_b])
    assert ext1_dim(total, almost_split_sequence(s_a).tau) == 1
    with pytest.raises(NonLocalEndRing):
        almost_split_sequence(total)
