"""Maps out of projectives and Ext^1 against the code paths they replaced.

``ext1_dim`` divides Hom(Omega X, Y) by the restrictions of the maps
P0 -> Y.  Its oracle is the Hom long exact sequence of
0 -> Omega X -> P0 -> X -> 0, which gives

    dim Ext^1(X, Y) = dim Hom(X, Y) - dim Hom(P0, Y) + dim Hom(Omega X, Y)

from ``hom_basis`` dimensions alone (Ext^1(P0, Y) = 0).

``reference_transpose`` is the transpose as it was built before
``transpose_module`` read Hom(f, A) off the generator columns of f: the
algebra elements ``amat[i][j]`` (paths verts0[i] -> verts1[j]) were read off
f, and ``reference_projective_hom`` multiplied each basis path of A^op by
them.  ``reference_cover_epi`` builds the projective cover's epi by the loop
that computed each path action once per generator.
"""

import pytest

from arquiver.algebra import build_basis, parse_presentation
from arquiver.knitting import knit
from arquiver.linalg import Matrix
from arquiver.modules import (
    ModuleMap,
    cokernel_module,
    ext1_dim,
    hom_basis,
    kernel_submodule,
    min_presentation,
    projective_cover,
    projective_module,
    projective_sum,
    simple_module,
    top_lifts,
    transpose_module,
    zero_module,
)
from tests.conftest import load_algebra
from tests.test_almost_split import FIXTURE_FILES, TEXTS, regular_r


def _vertex_modules(label):
    arq = knit(build_basis(parse_presentation(TEXTS[label])))
    return arq, [vert.module for vert in arq.vertices.values()]


def hom_sequence_ext1(x, y):
    """dim Ext^1(X, Y) from the Hom long exact sequence of the syzygy."""
    p0, epi, _verts, _layout = projective_cover(x)
    omega, _incl = kernel_submodule(epi)
    return len(hom_basis(x, y)) - len(hom_basis(p0, y)) + len(hom_basis(omega, y))


def test_ext1_matches_the_hom_sequence_on_every_vertex_pair():
    pairs = 0
    for label in FIXTURE_FILES + ["D4"]:
        _arq, mods = _vertex_modules(label)
        for x in mods:
            for y in mods:
                assert ext1_dim(x, y) == hom_sequence_ext1(x, y), (label, x, y)
                pairs += 1
    assert pairs == 170 + 12 * 12


def test_ext1_of_a_pd_two_simple_into_a_projective(alg_b):
    # over d -> b -> a with beta*delta = 0, Omega S_d = S_b is not
    # projective, so S_d has pd 2 and Ext^1(S_d, P_b) = Hom(S_b, P_b) = 0;
    # Hom(P1, P_b) = End(P_b) modulo the maps from P0 = P_d would read 1
    s_d, p_b = simple_module(alg_b, "d"), projective_module(alg_b, "b")
    assert ext1_dim(s_d, p_b) == 0
    assert hom_sequence_ext1(s_d, p_b) == 0


def reference_projective_hom(alg, src_verts, tgt_verts, amat):
    """Map of projectives (+)_j Ae_{src_j} -> (+)_i Ae_{tgt_i}, with amat[i][j]
    an algebra element on the paths tgt_i -> src_j acting by right
    multiplication."""
    src_mod, src_layout = projective_sum(alg, src_verts)
    tgt_mod, tgt_layout = projective_sum(alg, tgt_verts)
    mats = {}
    for w in alg.quiver.vertices:
        block = Matrix.zeros(tgt_mod.dims[w], src_mod.dims[w], alg.field)
        for j in range(len(src_verts)):
            off_j, ks_j = src_layout[j].get(w, (0, []))
            for col, k in enumerate(ks_j):
                pvec = alg.basis_element(k)
                for i in range(len(tgt_verts)):
                    if not any(amat[i][j]):
                        continue
                    prod = alg.multiply(pvec, amat[i][j])
                    off_i, ks_i = tgt_layout[i].get(w, (0, []))
                    pos = {kk: t for t, kk in enumerate(ks_i)}
                    for kk, c in enumerate(prod):
                        if c and alg.basis[kk].source == tgt_verts[i] and alg.basis[kk].target == w:
                            block.data[off_i + pos[kk]][off_j + col] = c
        mats[w] = block
    return ModuleMap(src_mod, tgt_mod, mats, check=False)


def reference_transpose(m):
    pres = min_presentation(m)
    alg = m.alg
    op = alg.opposite()
    if not pres.verts1:
        return zero_module(op)
    amat = [[None] * len(pres.verts1) for _ in pres.verts0]
    for j, vj in enumerate(pres.verts1):
        off_j, ks_j = pres.layout1[j][vj]
        unit = [alg.field.zero] * pres.p1.dims[vj]
        unit[off_j + ks_j.index(alg.idempotent_index[vj])] = alg.field.one
        img = pres.f.mats[vj].apply(unit)
        for i in range(len(pres.verts0)):
            off_i, ks_i = pres.layout0[i].get(vj, (0, []))
            a = alg.zero_element()
            for t, k in enumerate(ks_i):
                a[k] = img[off_i + t]
            amat[i][j] = a
    bmat = [[amat[i][j] for i in range(len(pres.verts0))] for j in range(len(pres.verts1))]
    fstar = reference_projective_hom(op, pres.verts0, pres.verts1, bmat)
    return cokernel_module(fstar)[0]


def reference_cover_epi(m):
    alg = m.alg
    lifts = top_lifts(m)
    gens = [u for v in alg.quiver.vertices for u in lifts[v]]
    cover, layout = projective_sum(alg, [v for v in alg.quiver.vertices for _u in lifts[v]])
    mats = {}
    for w in alg.quiver.vertices:
        block = Matrix.zeros(m.dims[w], cover.dims[w], m.field)
        for s, gen in enumerate(gens):
            off, ks = layout[s].get(w, (0, []))
            for j, k in enumerate(ks):
                img = m.path_action(alg.basis[k]).apply(gen)
                for i in range(m.dims[w]):
                    block.data[i][off + j] = img[i]
        mats[w] = block
    return mats


@pytest.mark.parametrize("label", list(TEXTS))
def test_transpose_matches_the_reference(label):
    arq, _mods = _vertex_modules(label)
    checked = 0
    for vert in arq.vertices.values():
        if vert.is_projective:
            continue
        tr, ref = transpose_module(min_presentation(vert.module)), reference_transpose(vert.module)
        assert tr.dims == ref.dims, vert.name
        assert tr.mats == ref.mats, vert.name
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("label", list(TEXTS))
def test_cover_epi_matches_the_reference(label):
    _arq, mods = _vertex_modules(label)
    for m in mods:
        assert projective_cover(m)[1].mats == reference_cover_epi(m)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_transpose_matches_the_reference_on_kronecker_modules(n):
    # two arrows a -> b: the generator columns of f carry two paths per block
    m = regular_r(load_algebra("kronecker.alg"), n)
    tr, ref = transpose_module(min_presentation(m)), reference_transpose(m)
    assert (tr.dims, tr.mats) == (ref.dims, ref.mats)
    assert projective_cover(m)[1].mats == reference_cover_epi(m)
