"""The End(M) layer in every characteristic: the eigenvalue radical, the
Fitting splits and the one refusal that remains.

``end_algebra_analysis`` computes rad End(M) by the trace form of the
regular representation, valid over Q; it is the reference for
``end_radical_coords`` there.  Over F_p the oracles are knitting over Q and
the vertex counts of Gabriel's theorem.
"""

import itertools
import json
import re
from fractions import Fraction

import pytest

from arquiver import modules
from arquiver.algebra import build_basis, parse_presentation
from arquiver.cli import main
from arquiver.errors import NonSplitEndomorphismRing
from arquiver.knitting import knit
from arquiver.linalg import Matrix, RowSpace
from arquiver.modules import (
    HomSpace,
    Module,
    ModuleMap,
    _split_by_basis,
    decompose_with_inclusions,
    direct_sum,
    end_algebra_analysis,
    end_radical_coords,
    hom_basis,
    simple_module,
)
from tests.conftest import FIXTURES, load_algebra
from tests.test_cut_references import A5_TEXT, D5_TEXT, dynkin_text
from tests.test_knitting import D4_TEXT

# (text, number of positive roots)
DYNKIN = {
    "A3": ((FIXTURES / "a3_line.alg").read_text(), 6),
    "A5": (A5_TEXT, 15),
    "D4": (D4_TEXT, 12),
    "D5": (D5_TEXT, 20),
    "E6": (dynkin_text("E", 6, "01001"), 36),
}


def over(text, field):
    return re.sub(r"^field .*$", f"field {field}", text, count=1, flags=re.M)


@pytest.mark.parametrize("label", list(DYNKIN))
def test_knit_over_small_primes_equals_knit_over_q(label):
    text, roots = DYNKIN[label]
    expected = knit(build_basis(parse_presentation(over(text, "Q")))).combinatorial_data()
    assert len(expected[0]) == roots
    for p in (2, 3, 5, 7):
        arq = knit(build_basis(parse_presentation(over(text, f"F {p}"))))
        assert arq.combinatorial_data() == expected, p


def test_cli_builds_a3_over_f2(tmp_path, capsys):
    path = tmp_path / "a3.alg"
    path.write_text(over(DYNKIN["A3"][0], "F 2"))
    rc = main(["ar", "build", str(path)])
    captured = capsys.readouterr()
    assert (rc, captured.err) == (0, "")
    assert captured.out


def test_cli_kronecker_over_f2_reaches_the_dimension_limit(tmp_path, capsys):
    path = tmp_path / "kronecker.alg"
    path.write_text(over((FIXTURES / "kronecker.alg").read_text(), "F 2"))
    rc = main(["ar", "build", str(path), "--max-dim", "8"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err == (
        "error: module of total dimension 11 exceeds --max-dim 8 (8 vertices registered, "
        "3 modules queued, largest dimension 7)\n"
    )
    assert json.loads(captured.out)["partial"] is True


def q(n):
    return Fraction(n)


def test_pencil_with_end_ring_q_i_is_refused():
    # alpha = 1 and beta = rotation by a right angle: End(M) = Q(i), a field
    # that Fitting splits over Q cannot reach
    alg = load_algebra("kronecker.alg")
    one = Matrix.identity(2)
    rot = Matrix(2, 2, [[q(0), q(-1)], [q(1), q(0)]])
    m = Module(alg, {"a": 2, "b": 2}, {"alpha": one, "beta": rot})
    assert len(hom_basis(m, m)) == 2
    assert end_radical_coords(m, hom_basis(m, m)) is None
    with pytest.raises(NonSplitEndomorphismRing, match="no eigenvalue"):
        decompose_with_inclusions(m)


@pytest.mark.parametrize("p, c1, c0", [(2, 1, 1), (3, 0, 1)])
def test_pencil_with_a_finite_field_end_ring_is_refused(p, c1, c0):
    # alpha = 1 and beta = the companion matrix of x^2 + c1 x + c0, which has
    # no root in F_p (x^2 + x + 1 over F_2, x^2 + 1 over F_3): End(M) is the
    # field F_p[x]/(x^2 + c1 x + c0) of p^2 elements
    alg = build_basis(parse_presentation(over((FIXTURES / "kronecker.alg").read_text(), f"F {p}")))
    f = alg.field.from_int
    one = Matrix.identity(2, alg.field)
    companion = Matrix(2, 2, [[f(0), f(-c0)], [f(1), f(-c1)]], alg.field)
    m = Module(alg, {"a": 2, "b": 2}, {"alpha": one, "beta": companion})
    assert len(hom_basis(m, m)) == 2
    assert end_radical_coords(m, hom_basis(m, m)) is None
    with pytest.raises(NonSplitEndomorphismRing, match="no eigenvalue"):
        decompose_with_inclusions(m)


@pytest.fixture(scope="module")
def s_plus_s(alg_a2):
    total = direct_sum([simple_module(alg_a2, "a")] * 2)
    return total


def test_end_radical_refuses_a_matrix_ring(s_plus_s):
    assert end_radical_coords(s_plus_s, hom_basis(s_plus_s, s_plus_s)) is None


@pytest.mark.parametrize("label", ["a2", "a3line", "b", "cycle3", "cycle4"])
def test_end_radical_equals_the_trace_form_radical(request, label):
    arq = request.getfixturevalue(f"arq_{label}")
    for name in arq.names():
        m = arq.module_of(name)
        hs = HomSpace(m, m)
        reference = [hs.coords(r) for r in end_algebra_analysis(m).radical_maps]
        assert end_radical_coords(m, hs.basis) == reference, name


def test_nilpotent_products_split_when_every_basis_map_has_one_eigenvalue(s_plus_s):
    # 1, E12, E21 and a square-zero map each have a single eigenvalue, so
    # neither a basis map nor the eigenvalue radical decides; E12.E21 = E11
    # is not nilpotent and splits S + S
    def endo(rows):
        return ModuleMap(s_plus_s, s_plus_s, {"a": Matrix(2, 2, [[q(x) for x in r] for r in rows])})

    basis = [endo(r) for r in ([[1, 0], [0, 1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 1], [-1, -1]])]
    assert end_radical_coords(s_plus_s, basis) is None
    pieces = _split_by_basis(s_plus_s, basis)
    assert [piece.dim_vector for piece, _inc in pieces] == [(1, 0), (1, 0)]
    cols = [c for _piece, inc in pieces for c in inc.mats["a"].transpose().data]
    assert RowSpace(2, cols).dim == 2


def test_fitting_split_puts_the_first_eigenvalue_first(alg_a2):
    # the first End basis map of S_a + S_b is the projection onto S_a, with
    # eigenvalues 0 then 1; the kernel of its power, S_b, comes first.  The
    # order of the pieces decides the names of new vertices in a knit.
    s_a, s_b = simple_module(alg_a2, "a"), simple_module(alg_a2, "b")
    total = direct_sum([s_a, s_b])
    first = hom_basis(total, total)[0]
    assert first.mats["a"] == Matrix.identity(1) and first.mats["b"].is_zero()
    pieces = decompose_with_inclusions(total)
    assert [piece.dim_vector for piece, _inc in pieces] == [s_b.dim_vector, s_a.dim_vector]


def test_a_fitting_piece_whose_end_is_bounded_by_one_is_not_solved(alg_a2, monkeypatch):
    # End(S_a + S_b) = k x k: End(K) + End(I) embeds in it, so each piece
    # has End = k, and only End of the sum is solved
    total = direct_sum([simple_module(alg_a2, "a"), simple_module(alg_a2, "b")])
    solved = []
    monkeypatch.setattr(modules, "hom_basis", lambda x, y: solved.append(x) or hom_basis(x, y))
    pieces = decompose_with_inclusions(total)
    assert solved == [total]
    assert [len(hom_basis(piece, piece)) for piece, _inc in pieces] == [1, 1]


def test_bounded_fitting_pieces_are_indecomposable(arq_a3line):
    # sums of three A3 indecomposables, repeats allowed: End of a sum has
    # matrix blocks, so some pieces get a bound above 1 and must be split
    mods = [arq_a3line.module_of(name) for name in sorted(arq_a3line.vertices)]
    for summands in itertools.combinations_with_replacement(mods, 3):
        pieces = decompose_with_inclusions(direct_sum(list(summands)))
        assert sorted(p.dim_vector for p, _inc in pieces) == sorted(m.dim_vector for m in summands)
        assert all(len(hom_basis(p, p)) == 1 for p, _inc in pieces)
