import itertools
from fractions import Fraction

import pytest

from arquiver import modules
from arquiver.algebra import build_basis, parse_presentation
from arquiver.cuts import enumerate_cuts, hom_tau_conflict, iter_cuts, quotient_by_cut
from arquiver.errors import DimensionError, PreconditionError
from arquiver.knitting import knit
from arquiver.linalg import Matrix, RowSpace, kernel_basis
from arquiver.modules import (
    HomSpace,
    Module,
    ModuleMap,
    almost_split_sequence,
    annihilator,
    canonical_modules,
    decompose,
    direct_sum,
    dual_module,
    end_algebra_analysis,
    ext1_dim,
    find_isomorphism,
    hom_basis,
    injective_module,
    is_isomorphic,
    kernel_submodule,
    min_presentation,
    pdim_le_1,
    projective_cover,
    projective_module,
    projective_sum,
    radical_submodule,
    simple_module,
    sincere_faithful,
    submodule_from_columns,
    translate,
    zero_module,
)
from tests.basis_reference import multiply
from tests.conftest import FIXTURES, load_algebra
from tests.test_knitting import cycle_text
from tests.test_prime_field import CYCLE4_F5


def regular_module(alg):
    return projective_sum(alg, list(alg.quiver.vertices))[0]


@pytest.fixture(scope="module")
def c4(alg_cycle4):
    return {
        "P": {v: projective_module(alg_cycle4, v) for v in "abcd"},
        "I": {v: injective_module(alg_cycle4, v) for v in "abcd"},
        "S": {v: simple_module(alg_cycle4, v) for v in "abcd"},
    }


def test_projective_dimension_vectors(alg_cycle4, c4):
    assert c4["P"]["b"].dims == {"a": 1, "b": 1, "c": 0, "d": 0}
    assert c4["P"]["d"].dims == {"a": 0, "b": 1, "c": 0, "d": 1}
    total = sum(p.total_dim for p in c4["P"].values())
    assert total == alg_cycle4.dim


def reference_projective_sum(alg, verts):
    """The construction ``projective_sum`` used before it kept each checked
    Ae_v: the whole sum read off the multiplication table and validated."""
    paths_from = {}
    for v in set(verts):
        per_vertex = {w: [] for w in alg.quiver.vertices}
        for k, p in enumerate(alg.basis):
            if p.source == v:
                per_vertex[p.target].append(k)
        paths_from[v] = per_vertex
    dims = {w: 0 for w in alg.quiver.vertices}
    layout = []
    for v in verts:
        entry = {}
        for w in alg.quiver.vertices:
            ks = paths_from[v][w]
            if ks:
                entry[w] = (dims[w], ks)
            dims[w] += len(ks)
        layout.append(entry)
    mats = {}
    for a in alg.quiver.arrows.values():
        m = Matrix.zeros(dims[a.target], dims[a.source], alg.field)
        ai = alg.index[alg.quiver.path([a.label])]
        for entry in layout:
            src_off, src_ks = entry.get(a.source, (0, []))
            tgt_off, tgt_ks = entry.get(a.target, (0, []))
            tgt_pos = {k: i for i, k in enumerate(tgt_ks)}
            for col, k in enumerate(src_ks):
                for kk, c in alg.table[ai][k]:
                    m.data[tgt_off + tgt_pos[kk]][src_off + col] = c
        mats[a.label] = m
    return Module(alg, dims, mats, check=True), layout


@pytest.mark.parametrize(
    "name",
    ["a2.alg", "a3_line.alg", "b_a3.alg", "cycle3_rad2.alg", "cycle4_rad2.alg", "kronecker.alg"],
)
def test_projective_sum_matches_the_reference_construction(name):
    alg = load_algebra(name)
    for a in (alg, alg.opposite()):
        verts = a.quiver.vertices
        for chosen in ([], verts, verts[::-1], [verts[0]] * 3, verts + verts[:1] + verts):
            mod, layout = projective_sum(a, chosen)
            ref, ref_layout = reference_projective_sum(a, chosen)
            assert mod.dims == ref.dims
            assert {k: m.data for k, m in mod.mats.items()} == {k: m.data for k, m in ref.mats.items()}
            assert layout == ref_layout
            # writing into one sum must not reach the next: the sums share
            # no matrix with the kept Ae_v
            for m in mod.mats.values():
                for row in m.data:
                    row[:] = [a.field.one] * len(row)


@pytest.mark.parametrize("name", ["a2.alg", "b_a3.alg", "cycle4_rad2.alg", "kronecker.alg"])
def test_a_single_projective_shares_no_matrix_with_the_kept_ae_v(name):
    # a sum of one summand is still a copy: writing into P_v must not reach
    # the Ae_v that ``_projective_piece`` keeps for the next caller
    alg = load_algebra(name)
    for a in (alg, alg.opposite()):
        for v in a.quiver.vertices:
            for m in projective_module(a, v).mats.values():
                for row in m.data:
                    row[:] = [a.field.from_int(7)] * len(row)
            assert projective_module(a, v).mats == reference_projective_sum(a, [v])[0].mats


def test_injectives_sum_to_dim(alg_cycle4, c4):
    assert sum(i.total_dim for i in c4["I"].values()) == alg_cycle4.dim


def test_simples_are_one_dimensional(alg_cycle4, c4):
    for v in "abcd":
        assert c4["S"][v].total_dim == 1
        assert c4["S"][v].dims[v] == 1


def test_canonical_modules_shape(alg_cycle4):
    cans = canonical_modules(alg_cycle4)
    assert set(cans) == set("abcd")
    p, i, s = cans["b"]
    assert p.dims["b"] == 1 and i.dims["b"] == 1 and s.dims["b"] == 1


def test_hom_dimensions(c4):
    S, P = c4["S"], c4["P"]
    assert len(hom_basis(S["a"], S["a"])) == 1
    assert len(hom_basis(P["b"], S["a"])) == 0
    assert len(hom_basis(P["b"], S["b"])) == 1
    assert len(hom_basis(S["a"], P["b"])) == 1


def test_hom_map_intertwines(c4):
    (f,) = hom_basis(c4["S"]["a"], c4["P"]["b"])
    f._validate()


def test_is_isomorphic_basics(c4):
    S = c4["S"]
    assert is_isomorphic(S["a"], S["a"])
    assert not is_isomorphic(S["a"], S["b"])


def test_is_isomorphic_rescaled_projective(alg_a2):
    p = projective_module(alg_a2, "a")
    mats = {a.label: p.mats[a.label].scale(Fraction(2)) for a in alg_a2.quiver.arrows.values()}
    copy = Module(alg_a2, dict(p.dims), mats)
    assert is_isomorphic(copy, p)
    iso = find_isomorphism(copy, p)
    assert iso is not None and iso.is_invertible()


@pytest.fixture(scope="module")
def pencils():
    """Kronecker modules Q --(1, lam)--> Q for lam = 0..3: indecomposable,
    with no nonzero map between two of them."""
    alg = load_algebra("kronecker.alg")
    one = Matrix(1, 1, [[Fraction(1)]])
    return [
        Module(alg, {"a": 1, "b": 1}, {"alpha": one, "beta": Matrix(1, 1, [[Fraction(lam)]])})
        for lam in range(4)
    ]


def test_is_isomorphic_matches_swapped_summands(pencils):
    r0, r1, r2, _r3 = pencils
    x = direct_sum([r0, r1])
    y = direct_sum([r1, r0])
    z = direct_sum([r0, r2])
    # both basis maps of Hom(r0 + r1, r1 + r0) are singular, so the answer
    # comes from decomposing and matching the summands
    assert find_isomorphism(x, y) is None
    assert is_isomorphic(x, y)
    assert not is_isomorphic(x, z)


def test_is_isomorphic_decomposable_against_indecomposable(alg_a2):
    p = projective_module(alg_a2, "a")
    split = direct_sum([simple_module(alg_a2, "a"), simple_module(alg_a2, "b")])
    assert split.dim_vector == p.dim_vector
    assert not is_isomorphic(split, p)
    assert not is_isomorphic(p, split)


def test_is_isomorphic_without_maps_between(pencils):
    r0, r1, r2, r3 = pencils
    x = direct_sum([r0, r1])
    y = direct_sum([r2, r3])
    assert hom_basis(x, y) == [] and hom_basis(y, x) == []
    assert not is_isomorphic(x, y)


def test_decompose_indecomposable(c4):
    ((piece, mult),) = decompose(c4["P"]["a"])
    assert mult == 1 and piece.dim_vector == c4["P"]["a"].dim_vector


def test_decompose_with_multiplicity(c4):
    total = direct_sum([c4["S"]["a"], c4["S"]["a"]])
    ((piece, mult),) = decompose(total)
    assert mult == 2
    assert is_isomorphic(piece, c4["S"]["a"])


def test_decompose_mixed_sum(c4):
    total = direct_sum([c4["S"]["a"], c4["P"]["b"], c4["S"]["a"]])
    dec = decompose(total)
    by_mult = sorted((m, p.total_dim) for p, m in dec)
    assert by_mult == [(1, 2), (2, 1)]


def test_radical_of_projective(c4):
    radp, incl = radical_submodule(c4["P"]["a"])
    assert is_isomorphic(radp, c4["S"]["c"])
    incl._validate()


def test_projective_cover_of_simple(c4):
    cover, epi, verts, _ = projective_cover(c4["S"]["b"])
    assert verts == ["b"]
    assert epi.total_rank() == 1


def test_projective_cover_of_projective(c4):
    cover, epi, verts, _ = projective_cover(c4["P"]["a"])
    assert verts == ["a"]
    ker, _ = kernel_submodule(epi)
    assert ker.total_dim == 0


def test_projective_cover_of_radical(c4):
    cover, _, verts, _ = projective_cover(radical_submodule(c4["P"]["a"])[0])
    assert verts == ["c"]


def test_min_presentation_examples(alg_cycle4, alg_cycle3, c4):
    pres = min_presentation(c4["S"]["a"])
    assert pres.verts0 == ["a"] and pres.verts1 == ["c"]
    s_b3 = simple_module(alg_cycle3, "b")
    pres3 = min_presentation(s_b3)
    assert pres3.verts0 == ["b"] and pres3.verts1 == ["c"]
    pres_p = min_presentation(c4["P"]["a"])
    assert pres_p.verts1 == [] and pres_p.p1.total_dim == 0
    for v in "abcd":
        pres_v = min_presentation(c4["P"][v])
        assert pres_v.f.is_zero() and pres_v.kernel.is_zero()


@pytest.mark.parametrize("name", ["a2.alg", "cycle4_rad2.alg", "cycle4 over F_5"])
def test_the_zero_module_takes_the_general_path(name):
    alg = build_basis(parse_presentation(CYCLE4_F5)) if name == "cycle4 over F_5" else load_algebra(name)
    zero = zero_module(alg)
    cover, epi, verts, layout = projective_cover(zero)
    assert cover.is_zero() and epi.is_zero() and epi.tgt is zero
    assert verts == [] and layout == []
    pres = min_presentation(zero)
    assert all(part.is_zero() for part in (pres.p1, pres.p0, pres.kernel))
    assert all(part.is_zero() for part in (pres.f, pres.epi, pres.kernel_incl))
    assert pres.verts1 == pres.verts0 == pres.layout1 == pres.layout0 == []
    for direction in ("forward", "backward"):
        tau = translate(zero, direction)
        assert tau.is_zero() and tau.alg is alg
    assert pdim_le_1(zero)
    for triple in canonical_modules(alg).values():
        for m in triple:
            assert ext1_dim(zero, m) == 0 and ext1_dim(m, zero) == 0


@pytest.mark.parametrize(
    "name",
    ["a2.alg", "a3_line.alg", "b_a3.alg", "cycle3_rad2.alg", "cycle4_rad2.alg", "kronecker.alg"],
)
def test_each_generator_is_the_first_path_at_its_vertex(name):
    # ``transpose_module`` reads the generator e_v of Ae_v as the first
    # coordinate of its block at v
    alg = load_algebra(name)
    for a in (alg, alg.opposite()):
        for v in a.quiver.vertices:
            assert modules._projective_piece(a, v)[0][v][0] == a.idempotent_index[v]


def test_translate_kills_projectives(c4):
    for v in "abcd":
        assert translate(c4["P"][v], "forward").is_zero()


def test_translate_on_simples(alg_cycle4, alg_cycle3, c4):
    expected = {"a": "c", "b": "a", "c": "d", "d": "b"}
    for v, w in expected.items():
        assert is_isomorphic(translate(c4["S"][v], "forward"), c4["S"][w])
    s3 = {v: simple_module(alg_cycle3, v) for v in "abc"}
    assert is_isomorphic(translate(s3["b"], "forward"), s3["c"])


def test_translate_backward_kills_injectives(c4):
    for v in "abcd":
        assert translate(c4["I"][v], "backward").is_zero()


def test_translate_round_trip(c4):
    for v in "abcd":
        s = c4["S"][v]
        fwd = translate(s, "forward")
        assert is_isomorphic(translate(fwd, "backward"), s)
        bwd = translate(s, "backward")
        assert is_isomorphic(translate(bwd, "forward"), s)


def test_dual_module_is_involutive(c4):
    p = c4["P"]["b"]
    dd = dual_module(dual_module(p))
    assert dd.alg is p.alg
    assert is_isomorphic(dd, p)


def test_ext_examples(alg_a2, c4):
    s = {v: simple_module(alg_a2, v) for v in "ab"}
    assert ext1_dim(s["a"], s["b"]) == 1
    assert ext1_dim(s["a"], s["a"]) == 0
    assert ext1_dim(projective_module(alg_a2, "a"), s["a"]) == 0
    delta_sum = direct_sum([c4["P"]["b"], c4["S"]["b"], c4["P"]["d"]])
    assert ext1_dim(delta_sum, delta_sum) == 0


def test_annihilator_of_regular_module(alg_cycle4):
    assert annihilator([regular_module(alg_cycle4)]) == []


def test_annihilator_of_delta(alg_cycle4, c4):
    gens = annihilator([c4["P"]["b"], c4["S"]["b"], c4["P"]["d"]])
    assert len(gens) == 3
    span = RowSpace(alg_cycle4.dim, gens)
    expected = RowSpace(
        alg_cycle4.dim,
        [
            alg_cycle4.idempotent("c"),
            alg_cycle4.basis_element(alg_cycle4.arrow_index("alpha")),
            alg_cycle4.basis_element(alg_cycle4.arrow_index("gamma")),
        ],
    )
    assert span == expected


def test_annihilator_3cycle_contains_gamma(alg_cycle3):
    mods = [
        projective_module(alg_cycle3, "b"),
        simple_module(alg_cycle3, "b"),
        projective_module(alg_cycle3, "a"),
    ]
    gens = annihilator(mods)
    assert len(gens) >= 1
    span = RowSpace(alg_cycle3.dim, gens)
    assert span.contains(alg_cycle3.basis_element(alg_cycle3.arrow_index("gamma")))


def test_annihilator_is_two_sided_ideal(alg_cycle4, c4):
    gens = annihilator([c4["P"]["b"], c4["S"]["b"], c4["P"]["d"]])
    span = RowSpace(alg_cycle4.dim, gens)
    for g in gens:
        for i in range(alg_cycle4.dim):
            b = alg_cycle4.basis_element(i)
            assert span.contains(multiply(alg_cycle4, b, g))
            assert span.contains(multiply(alg_cycle4, g, b))


@pytest.mark.parametrize("side", ["left", "right"])
def test_annihilator_refuses_a_one_sided_ideal(monkeypatch, alg_a3line, side):
    # A e_b and e_b A over the line a <- b <- c are one-sided ideals that
    # are not two-sided; handed over as the kernel, each must fail the check
    alg = alg_a3line
    e_b = alg.idempotent("b")

    def product(x, y):
        return multiply(alg, x, y) if side == "left" else multiply(alg, y, x)

    basis = [alg.basis_element(i) for i in range(alg.dim)]
    ideal = RowSpace(alg.dim, [product(p, e_b) for p in basis])
    assert all(ideal.contains(product(p, g)) for p in basis for g in ideal.rows)
    assert not all(ideal.contains(product(g, p)) for p in basis for g in ideal.rows)
    monkeypatch.setattr(modules, "kernel_basis", lambda m: [list(r) for r in ideal.rows])
    with pytest.raises(PreconditionError, match="^annihilator failed the two-sided ideal check$"):
        annihilator([simple_module(alg, "a")])


@pytest.mark.parametrize("side", ["left", "right"])
def test_annihilator_refuses_a_one_sided_ideal_over_f3(monkeypatch, side):
    # the same one-sided ideals over F_3, where each product is reduced mod 3
    text = (FIXTURES / "a3_line.alg").read_text().replace("field Q", "field F 3")
    alg = build_basis(parse_presentation(text))
    assert alg.field.char == 3
    test_annihilator_refuses_a_one_sided_ideal(monkeypatch, alg, side)


def test_annihilator_reads_products_off_the_table(monkeypatch, alg_cycle4, c4):
    mods = [c4["P"]["b"], c4["S"]["b"], c4["P"]["d"]]
    gens = kernel_basis(modules._action_rows(mods))
    units = [alg_cycle4.basis_element(i) for i, p in enumerate(alg_cycle4.basis) if p.length <= 1]
    products = [multiply(alg_cycle4, b, g) for g in gens for b in units]
    products += [multiply(alg_cycle4, g, b) for g in gens for b in units]
    nonzero = [v for v in products if any(v)]
    assert 0 < len(nonzero) < len(products)
    multiplied, asked = [], []
    contains = RowSpace.contains
    # raising=False: AlgebraBasis has no dense product; tests.basis_reference holds it
    monkeypatch.setattr(
        type(alg_cycle4), "multiply", lambda a, x, y: multiplied.append((x, y)), raising=False
    )
    monkeypatch.setattr(RowSpace, "contains", lambda s, v: asked.append(list(v)) or contains(s, v))
    assert annihilator(mods) == gens
    assert multiplied == []
    assert sorted(asked) == sorted(nonzero)


def _reference_annihilator(mods):
    """``annihilator`` with its two-sided check as it was: each generator is
    multiplied by the unit vector of each vertex and arrow with the dense
    ``multiply``, and every product, zero or not, is tested for membership."""
    alg = mods[0].alg
    gens = kernel_basis(modules._action_rows(mods))
    span = RowSpace(alg.dim, gens, field=alg.field)
    units = [alg.basis_element(i) for i, p in enumerate(alg.basis) if p.length <= 1]
    for g in gens:
        for b in units:
            if not span.contains(multiply(alg, b, g)) or not span.contains(multiply(alg, g, b)):
                raise PreconditionError("annihilator failed the two-sided ideal check")
    return gens


@pytest.mark.parametrize(
    "text, count",
    [
        ((FIXTURES / "cycle3_rad2.alg").read_text(), None),
        ((FIXTURES / "cycle4_rad2.alg").read_text(), None),
        (cycle_text(12), 20),
    ],
    ids=["cycle3", "cycle4", "cycle12"],
)
def test_annihilator_matches_the_dense_check_on_hom_vanishing_cuts(text, count):
    arq = knit(build_basis(parse_presentation(text)))
    cuts = list(itertools.islice(iter_cuts(arq, conflict=hom_tau_conflict(arq)), count))
    assert cuts and (count is None or len(cuts) == count)
    for cut in cuts:
        mods = [arq.module_of(n) for n in sorted(cut)]
        assert annihilator(mods) == _reference_annihilator(mods)


def test_sincere_faithful(alg_cycle3, alg_cycle4, c4):
    mods3 = [
        projective_module(alg_cycle3, "b"),
        simple_module(alg_cycle3, "b"),
        projective_module(alg_cycle3, "a"),
    ]
    assert sincere_faithful(mods3) == (True, False)
    assert sincere_faithful([c4["P"]["b"], c4["S"]["b"], c4["P"]["d"]]) == (False, False)
    assert sincere_faithful([regular_module(alg_cycle4)]) == (True, True)


def test_sincere_faithful_ranks_only_a_sincere_family(
    monkeypatch, arq_a2, arq_a3line, arq_b, arq_cycle3, arq_cycle4
):
    # a faithful family is sincere, so no rank can change the answer of
    # one that is not
    calls = []
    rank = modules.rank
    monkeypatch.setattr(modules, "rank", lambda m: calls.append(m) or rank(m))
    seen = set()
    for arq in (arq_a2, arq_a3line, arq_b, arq_cycle3, arq_cycle4):
        for cut in enumerate_cuts(arq):
            mods = [arq.module_of(n) for n in sorted(cut)]
            before = len(calls)
            sincere, faithful = sincere_faithful(mods)
            assert len(calls) - before == (1 if sincere else 0), sorted(cut)
            assert sincere or not faithful
            seen.add(sincere)
    assert seen == {False, True}


def test_action_rows_are_built_once_per_module(monkeypatch, alg_cycle3):
    mods = [
        projective_module(alg_cycle3, "b"),
        simple_module(alg_cycle3, "b"),
        projective_module(alg_cycle3, "a"),
    ]
    calls = []
    path_action = Module.path_action
    monkeypatch.setattr(Module, "path_action", lambda m, p: calls.append(p) or path_action(m, p))
    first = sincere_faithful(mods)
    built = len(calls)
    assert built
    assert sincere_faithful(mods) == first
    assert len(annihilator(mods)) == 1
    assert len(calls) == built


def test_action_rows_of_a_family_stack_each_members_rows(alg_cycle4):
    mods = [regular_module(alg_cycle4), simple_module(alg_cycle4, "b"), projective_module(alg_cycle4, "d")]
    kept = [[list(row) for row in m.action_rows] for m in mods]
    stacked = modules._action_rows(mods)
    assert (stacked.nrows, stacked.ncols) == (sum(map(len, kept)), alg_cycle4.dim)
    assert stacked.data == [row for rows in kept for row in rows]
    # reducing the stack leaves the rows kept on each module as they were
    assert sincere_faithful(mods) == (True, True) and annihilator(mods) == []
    assert [m.action_rows for m in mods] == kept


def test_pdim(alg_a2, c4):
    for v in "abcd":
        assert pdim_le_1(c4["P"][v])
    assert not pdim_le_1(c4["S"]["a"])
    assert pdim_le_1(simple_module(alg_a2, "a"))


def test_end_algebra_simple(c4):
    ea = end_algebra_analysis(c4["S"]["a"])
    assert ea.dim == 1 and ea.is_local and ea.is_hereditary
    assert ea.radical_maps == []


def test_end_algebra_matrix_ring(c4):
    total = direct_sum([c4["P"]["a"], c4["P"]["a"]])
    ea = end_algebra_analysis(total)
    assert ea.dim == 4 and not ea.is_local
    assert ea.is_hereditary  # semisimple 2x2 matrix ring
    assert not ea.radical_maps


def test_end_algebra_of_tilting_module_over_b(alg_b):
    mods = [
        projective_module(alg_b, "b"),
        simple_module(alg_b, "b"),
        projective_module(alg_b, "d"),
    ]
    total = direct_sum(mods)
    ea = end_algebra_analysis(total)
    assert ea.dim == 6
    assert len(ea.radical_maps) == 3
    assert not ea.is_local
    assert ea.is_hereditary


def test_end_algebra_of_delta_over_cycle4(c4):
    # ann(Delta) acts as zero on End, so this agrees with End over the
    # quotient and is already the hereditary A3 algebra
    total = direct_sum([c4["P"]["b"], c4["S"]["b"], c4["P"]["d"]])
    ea = end_algebra_analysis(total)
    assert ea.dim == 6
    assert ea.is_hereditary


def test_end_algebra_of_regular_module_not_hereditary(alg_cycle4):
    ea = end_algebra_analysis(regular_module(alg_cycle4))
    assert ea.dim == alg_cycle4.dim
    assert not ea.is_local
    assert not ea.is_hereditary


def test_hom_dim_is_iso_invariant(alg_a2):
    p = projective_module(alg_a2, "a")
    s = simple_module(alg_a2, "b")
    mats = {a.label: p.mats[a.label].scale(Fraction(3)) for a in alg_a2.quiver.arrows.values()}
    copy = Module(alg_a2, dict(p.dims), mats)
    assert len(hom_basis(p, s)) == len(hom_basis(copy, s))
    assert len(hom_basis(s, p)) == len(hom_basis(s, copy))


def test_ar_formula_consistency_on_b(arq_b):
    # pdim X <= 1 and Hom(Y, tau X) = 0 force Ext^1(X, Y) = 0
    names = arq_b.names()
    for x in names:
        mx = arq_b.module_of(x)
        if not pdim_le_1(mx):
            continue
        tx = arq_b.tau.get(x)
        for y in names:
            my = arq_b.module_of(y)
            hom_dim = arq_b.hom_space(y, tx).dim if tx else 0
            if hom_dim == 0:
                assert ext1_dim(mx, my) == 0


def test_almost_split_sequence_cycle4(alg_cycle4, c4):
    seq = almost_split_sequence(c4["S"]["a"])
    assert is_isomorphic(seq.tau, c4["S"]["c"])
    assert is_isomorphic(seq.middle, c4["P"]["a"])
    ((piece, mult),) = decompose(seq.middle)
    assert mult == 1
    seq_b = almost_split_sequence(c4["S"]["b"])
    assert is_isomorphic(seq_b.tau, c4["S"]["a"])
    assert is_isomorphic(seq_b.middle, c4["P"]["b"])


def test_almost_split_sequence_a2(alg_a2):
    s_a = simple_module(alg_a2, "a")
    seq = almost_split_sequence(s_a)
    assert is_isomorphic(seq.tau, simple_module(alg_a2, "b"))
    assert is_isomorphic(seq.middle, projective_module(alg_a2, "a"))
    # exactness at the ends
    assert seq.left.total_rank() == seq.tau.total_dim
    assert seq.right.total_rank() == s_a.total_dim
    assert seq.right.compose(seq.left).is_zero()


def test_almost_split_rejects_projective(c4):
    with pytest.raises(PreconditionError):
        almost_split_sequence(c4["P"]["a"])


def test_module_validation_rejects_bad_shapes(alg_a2):
    with pytest.raises(Exception):
        Module(alg_a2, {"a": 1, "b": 1}, {"alpha": Matrix.zeros(3, 3)})


def test_module_validation_rejects_broken_relations(alg_b):
    # beta*delta must act as zero; wire it to act as identity instead
    one = Matrix.identity(1)
    with pytest.raises(PreconditionError):
        Module(alg_b, {"a": 1, "b": 1, "d": 1}, {"beta": one, "delta": one})


def test_decompose_pieces_are_local_and_additive(alg_cycle4, c4):
    from arquiver.modules import end_radical_coords

    total = direct_sum([c4["P"]["a"], c4["S"]["b"], c4["P"]["a"]])
    dec = decompose(total)
    dv = [0] * len(total.dim_vector)
    for piece, mult in dec:
        dv = [a + mult * b for a, b in zip(dv, piece.dim_vector)]
        ends = hom_basis(piece, piece)
        rad = end_radical_coords(piece, ends)
        assert len(ends) - len(rad) == 1
    assert tuple(dv) == total.dim_vector


@pytest.fixture(scope="module")
def a3_hom_spaces(arq_a3line):
    """Hom spaces between the indecomposables of linear A3 and their sum."""
    mods = [arq_a3line.module_of(n) for n in arq_a3line.names()]
    total = direct_sum(mods)
    mods.append(total)
    mods.append(regular_module(arq_a3line.alg))
    return [HomSpace(x, y) for x in mods for y in mods]


def test_hom_space_coordinates_round_trip(a3_hom_spaces):
    assert max(hs.dim for hs in a3_hom_spaces) > 6
    for hs in a3_hom_spaces:
        field = hs.x.field
        for j, b in enumerate(hs.basis):
            unit = [field.one if i == j else field.zero for i in range(hs.dim)]
            assert hs.coords(b) == unit
            assert hs.from_coords(hs.coords(b)).mats == b.mats
        c = [Fraction(i * i - 3, i + 1) for i in range(hs.dim)]
        f = hs.from_coords(c)
        f._validate()
        assert hs.coords(f) == c


def test_hom_space_rejects_maps_outside_it(a3_hom_spaces):
    rejected = 0
    for hs in a3_hom_spaces:
        x, y = hs.x, hs.y
        if x.total_dim == 0 or y.total_dim == 0:
            continue
        ones = ModuleMap(
            x,
            y,
            {v: Matrix(y.dims[v], x.dims[v], [[Fraction(1)] * x.dims[v]] * y.dims[v]) for v in x.dims},
            check=False,
        )
        try:
            ones._validate()
        except DimensionError:
            with pytest.raises(PreconditionError):
                hs.coords(ones)
            rejected += 1
        else:
            assert hs.from_coords(hs.coords(ones)).mats == ones.mats
    assert rejected > 0


def test_submodule_zero_at_a_target_still_checks_the_images(alg_a2):
    # P_a is k -> k: the span of M_a, with nothing at b, is not a submodule,
    # since alpha sends M_a onto M_b; the check must run where N_b = 0
    p_a = projective_module(alg_a2, "a")
    assert p_a.dim_vector == (1, 1)
    with pytest.raises(PreconditionError, match="not arrow-invariant"):
        submodule_from_columns(p_a, {"a": [[1]]})
    sub, _inc = submodule_from_columns(p_a, {"b": [[1]]})
    assert sub.dim_vector == (0, 1)


def test_zero_blocks_build_few_empty_matrices(matrix_counter):
    # Modules over the rad^2 = 0 12-cycle live on one or two of its twelve
    # vertices.  Before module operations skipped zero blocks, this knit and
    # quotient built 15,598 matrices with no entries (11,134 in the knit);
    # skipping them, 23.
    alg = build_basis(parse_presentation(cycle_text(12)))
    cut = ["P_v0", "P_v1", "P_v3", "P_v4", "P_v6", "P_v7", "S_v1", "S_v4", "S_v7"]
    quotient_by_cut(alg, knit(alg), cut)
    assert matrix_counter.empty <= 40
