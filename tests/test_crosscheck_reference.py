"""The tilting cross-check's heredity of End(T) against the generic path.

``tilting_crosscheck`` reads heredity of End(T), T the direct sum of a
vertex set's modules, from the summands: their projections are primitive
idempotents and ``ARQuiver.rad1`` holds the radical.  The reference builds
End(T) as a structure algebra and decides heredity there
(``end_algebra_analysis``: trace-form radical, lifted idempotents).
"""

import random

import pytest

from arquiver.algebra import build_basis, parse_presentation
from arquiver.cuts import _end_hereditary, enumerate_cuts, hom_tau_test
from arquiver.knitting import knit
from arquiver.modules import direct_sum, end_algebra_analysis, sincere_faithful
from arquiver.structure import primitive_orthogonal_idempotents
from tests.conftest import load_algebra
from tests.test_cut_references import TEXTS
from tests.test_knitting import LOOP_TEXT


def reference_end_hereditary(arq, names):
    mods = [arq.module_of(n) for n in sorted(names)]
    t = direct_sum(mods) if len(mods) > 1 else mods[0]
    return end_algebra_analysis(t).is_hereditary


@pytest.fixture(scope="module")
def knitted():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = knit(build_basis(parse_presentation(TEXTS[name])))
        return cache[name]

    return get


@pytest.mark.parametrize("name", list(TEXTS))
def test_end_heredity_matches_reference_on_witness_cuts(knitted, name):
    arq = knitted(name)
    seen = 0
    for cut in enumerate_cuts(arq):
        if not hom_tau_test(arq, cut).all_zero:
            continue
        if not sincere_faithful([arq.module_of(n) for n in sorted(cut)])[1]:
            continue
        seen += 1
        assert _end_hereditary(arq, sorted(cut)) == reference_end_hereditary(arq, cut)
    # the two rad^2 = 0 cycles are not tilted: no faithful hom-vanishing cut
    assert seen > 0 or "cycle" in name


@pytest.mark.parametrize("fixture", ["cycle4_rad2.alg", "b_a3.alg"])
def test_end_heredity_matches_reference_on_random_vertex_sets(fixture):
    arq = knit(load_algebra(fixture))
    names = arq.names()
    rng = random.Random(7)
    verdicts = []
    for _ in range(25):
        subset = sorted(rng.sample(names, rng.randint(1, len(names))))
        verdict = _end_hereditary(arq, subset)
        assert verdict == reference_end_hereditary(arq, subset), subset
        verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_end_heredity_matches_reference_with_radical_endomorphisms():
    # k[x]/x^2: rad End(P) is spanned by x, which factors as P -> S -> P,
    # so rad^2 End(T) meets the diagonal when S is a summand
    arq = knit(build_basis(parse_presentation(LOOP_TEXT)))
    for subset in (["P_a"], ["S_a"], ["P_a", "S_a"]):
        assert _end_hereditary(arq, subset) == reference_end_hereditary(arq, subset)
    assert arq.rad1()[("P_a", "P_a")].dim == 1


def test_primitive_idempotents_of_end_algebras(knitted):
    # End(T) of a sum of pairwise non-isomorphic indecomposables is basic
    # with one primitive idempotent per summand
    arq = knitted("D5")
    rng = random.Random(3)
    for size in (2, 4, 6):
        names = rng.sample(arq.names(), size)
        t = direct_sum([arq.module_of(n) for n in names])
        alg = end_algebra_analysis(t).algebra
        idems = primitive_orthogonal_idempotents(alg)
        assert len(idems) == size
        for e in idems:
            assert alg.mul(e, e) == e
