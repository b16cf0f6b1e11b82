import hashlib
import itertools
import re

import pytest

from arquiver.algebra import build_basis, parse_presentation
from arquiver.errors import InputSyntaxError, LimitExceeded, PreconditionError
from arquiver.formats import parse_translation_quiver
from arquiver.knitting import (
    PathClassification,
    abstract_quiver,
    knit,
    nonzero_path_exists,
    path_classify,
    rad_power_depth,
    verify_mesh_invariants,
)
from arquiver.modules import (
    ModuleMap,
    canonical_modules,
    direct_sum,
    end_algebra_analysis,
    find_isomorphism,
    is_isomorphic,
    translate,
)
from tests.conftest import FIXTURES
from tests.structure_reference import block_count


def arrows_from(arq, name):
    return [(s, t) for (s, t) in arq.arrows if s == name]


def simple_arrow_paths(arq, max_len):
    """All arrow paths of length 1..max_len (vertex name sequences)."""
    out = []
    frontier = [[n] for n in arq.names()]
    for _ in range(max_len):
        nxt = []
        for p in frontier:
            for _s, t in arrows_from(arq, p[-1]):
                q = p + [t]
                nxt.append(q)
                out.append(q)
        frontier = nxt
        if not frontier:
            break
    return out


def test_cycle4_knit(arq_cycle4):
    assert sorted(arq_cycle4.vertices) == [
        "P_a", "P_b", "P_c", "P_d", "S_a", "S_b", "S_c", "S_d",
    ]
    assert dict(sorted(arq_cycle4.tau.items())) == {
        "S_a": "S_c", "S_b": "S_a", "S_c": "S_d", "S_d": "S_b",
    }
    for v in "abcd":
        vert = arq_cycle4.vertices[f"P_{v}"]
        assert vert.is_projective and vert.is_injective
    expected_arrows = {
        ("S_c", "P_a"), ("P_a", "S_a"), ("S_a", "P_b"), ("P_b", "S_b"),
        ("S_b", "P_d"), ("P_d", "S_d"), ("S_d", "P_c"), ("P_c", "S_c"),
    }
    assert set(arq_cycle4.arrows) == expected_arrows
    assert all(m == 1 for m in arq_cycle4.arrows.values())


def test_cycle3_knit(arq_cycle3):
    assert sorted(arq_cycle3.vertices) == ["P_a", "P_b", "P_c", "S_a", "S_b", "S_c"]
    assert dict(sorted(arq_cycle3.tau.items())) == {
        "S_a": "S_b", "S_b": "S_c", "S_c": "S_a",
    }


def test_a2_knit(arq_a2):
    assert sorted(arq_a2.vertices) == ["P_a", "S_a", "S_b"]
    assert arq_a2.tau == {"S_a": "S_b"}
    assert set(arq_a2.arrows) == {("S_b", "P_a"), ("P_a", "S_a")}
    assert arq_a2.vertices["S_b"].is_projective
    assert arq_a2.vertices["S_a"].is_injective


def test_b_knit(arq_b):
    assert sorted(arq_b.vertices) == ["P_b", "P_d", "S_a", "S_b", "S_d"]
    assert dict(sorted(arq_b.tau.items())) == {"S_b": "S_a", "S_d": "S_b"}
    assert set(arq_b.arrows) == {
        ("S_a", "P_b"), ("P_b", "S_b"), ("S_b", "P_d"), ("P_d", "S_d"),
    }


def test_a3_line_knit(arq_a3line):
    # hereditary A3: six indecomposables, one mesh with a decomposable middle
    assert len(arq_a3line.vertices) == 6
    assert len(arq_a3line.tau) == 3
    verify_mesh_invariants(arq_a3line)
    middles = {name: mesh.middle for name, mesh in arq_a3line.meshes.items()}
    assert any(sum(m for _, m in mid) >= 2 for mid in middles.values())


def test_knit_limit_exceeded():
    alg = build_basis(parse_presentation((FIXTURES / "kronecker.alg").read_text()))
    with pytest.raises(LimitExceeded) as exc_info:
        knit(alg, max_vertices=10)
    partial = exc_info.value.partial
    assert partial is not None
    assert len(partial.vertices) >= 10
    assert str(exc_info.value) == (
        "vertex count exceeds --max-vertices 10 (10 vertices registered, 3 modules queued, "
        "largest dimension 11)"
    )
    assert max(v.module.total_dim for v in partial.vertices.values()) == 11


def test_mesh_invariants_on_fixtures(arq_cycle4, arq_cycle3, arq_b, arq_a2):
    for arq in (arq_cycle4, arq_cycle3, arq_b, arq_a2):
        verify_mesh_invariants(arq)


def test_knitted_tau_matches_translate():
    # the knit skips the vertex search on DTr V for a vertex V found as
    # tau^-1 M, and on TrD T for T = tau X; translate every vertex both ways
    # and match the result with the recorded vertex
    for label in ["a2.alg", "a3_line.alg", "b_a3.alg", "cycle3_rad2.alg", "cycle4_rad2.alg",
                  "D4 F 2", "E6 01001", "cycle6"]:
        arq = knit(build_basis(parse_presentation(_text(label))))
        tau_inv = arq.tau_inv
        for name, vert in arq.vertices.items():
            for direction, table, vanishes in [
                ("forward", arq.tau, vert.is_projective),
                ("backward", tau_inv, vert.is_injective),
            ]:
                t = translate(vert.module, direction)
                if vanishes:
                    assert name not in table and t.total_dim == 0, (label, name, direction)
                else:
                    iso = find_isomorphism(arq.module_of(table[name]), t)
                    assert iso is not None, (label, name, direction)


def test_depth_of_identity(arq_cycle4):
    f = ModuleMap.identity(arq_cycle4.module_of("P_b"))
    res = rad_power_depth(f, arq_cycle4)
    assert res.depth == 0 and not res.zero_map


def test_depth_of_irreducible(arq_cycle4):
    f = arq_cycle4.arrow_maps[("S_a", "P_b")][0]
    assert rad_power_depth(f, arq_cycle4).depth == 1


def test_depth_of_composite_along_delta(arq_cycle4):
    f = arq_cycle4.arrow_maps[("P_b", "S_b")][0]
    g = arq_cycle4.arrow_maps[("S_b", "P_d")][0]
    comp = g.compose(f)
    assert not comp.is_zero()
    assert rad_power_depth(comp, arq_cycle4).depth == 2


def test_depth_of_zero_map_is_flagged_infinity(arq_cycle4):
    z = ModuleMap.zero(arq_cycle4.module_of("P_b"), arq_cycle4.module_of("P_d"))
    res = rad_power_depth(z, arq_cycle4)
    assert res.depth == float("inf") and res.zero_map


def test_radical_filtration_vanishes(arq_cycle4, arq_cycle3, arq_b):
    for arq in (arq_cycle4, arq_cycle3, arq_b):
        powers = arq.rad_powers()
        assert len(powers) <= arq.harada_sai_bound()
        assert any(s.dim for s in powers[-1].values())


def test_nonzero_path_single_arrow(arq_cycle4):
    assert nonzero_path_exists(arq_cycle4, "S_a", "P_b")


def test_nonzero_path_via(arq_cycle4):
    assert nonzero_path_exists(arq_cycle4, "P_b", "P_d", via="S_b")
    assert not nonzero_path_exists(arq_cycle4, "P_b", "P_d", via="S_c")


def test_nonzero_path_without_via_is_a_radical_map(arq_cycle4):
    # a one-map chain has no interior vertex: there is a nonzero radical
    # map P_b -> P_d, and Hom(P_b, P_c) = 0
    assert nonzero_path_exists(arq_cycle4, "P_b", "P_d")
    assert not nonzero_path_exists(arq_cycle4, "P_b", "P_c")


def test_nonzero_path_refuses_unknown_vertices(arq_cycle4):
    with pytest.raises(PreconditionError, match="unknown vertex 'P_z'"):
        nonzero_path_exists(arq_cycle4, "P_b", "P_d", via="P_z")
    with pytest.raises(PreconditionError, match="unknown vertex 'S_z'"):
        nonzero_path_exists(arq_cycle4, "S_z", "P_d")


@pytest.mark.parametrize(
    "label",
    ["a2.alg", "a3_line.alg", "b_a3.alg", "cycle3_rad2.alg", "cycle4_rad2.alg", "D4 000", "cycle6"],
)
def test_nonzero_path_matches_the_propagation_reference(label):
    # every (x, y, via) triple, via a vertex or None: the product of two
    # rad^1 spaces against the chain-by-chain subspace propagation
    from tests.radical_reference import reference_nonzero_path_exists
    from tests.test_cut_references import dynkin_text

    if label == "D4 000":
        text = dynkin_text("D", 4, "000")
    elif label == "cycle6":
        text = CYCLE6_TEXT
    else:
        text = (FIXTURES / label).read_text()
    arq = knit(build_basis(parse_presentation(text)))
    names = arq.names()
    for x, y, via in itertools.product(names, names, names + [None]):
        assert nonzero_path_exists(arq, x, y, via=via) == reference_nonzero_path_exists(
            arq, x, y, via=via
        ), (x, y, via)


def test_path_classify(arq_cycle4):
    res = path_classify(["P_b", "S_b", "P_d"], arq_cycle4)
    assert res.sectional and res.presectional
    res2 = path_classify(["S_a", "P_b", "S_b"], arq_cycle4)
    assert not res2.sectional and not res2.presectional
    res3 = path_classify(["S_b", "P_d"], arq_cycle4)
    assert res3.sectional and res3.presectional
    with pytest.raises(PreconditionError):
        path_classify(["P_b", "P_d"], arq_cycle4)


def test_path_classify_without_a_translate_is_undecided():
    # z is not projective and has no tau line, so tau z is unknown
    arq = parse_translation_quiver("vertex x proj\nvertex y\nvertex z\narrow x -> y\narrow y -> z\n")
    assert path_classify(["x", "y", "z"], arq) == PathClassification(True, None)


def test_path_classify_without_the_mesh_arrow_is_not_presectional():
    # tau c = w differs from a, and there is no arrow w -> b
    arq = parse_translation_quiver(
        "vertex a proj\nvertex b proj\nvertex w proj\nvertex c\n"
        "arrow a -> b\narrow b -> c\ntau c = w\n"
    )
    assert path_classify(["a", "b", "c"], arq) == PathClassification(True, False)


def test_path_classify_on_every_two_arrow_path_is_pinned(arq_cycle4):
    # the tube with its row-3 translates dropped leaves tau unknown there
    # (presectional None); the partial Kronecker knit has double arrows,
    # and the 4-cycle paths that end at a projective, whose tau is zero
    text = (FIXTURES / "tube_rank3.tq").read_text()
    alg = build_basis(parse_presentation((FIXTURES / "kronecker.alg").read_text()))
    with pytest.raises(LimitExceeded) as exc_info:
        knit(alg, max_dim=16)
    quivers = {
        "tube": parse_translation_quiver(text),
        "tube, row 3 untranslated": parse_translation_quiver(re.sub(r"^tau T3_.*\n", "", text, flags=re.M)),
        "kronecker": exc_info.value.partial,
        "cycle4": arq_cycle4,
    }
    pinned = {
        "tube": ({(False, False): 24, (True, True): 18}, "478471d217c6e0fb"),
        "tube, row 3 untranslated": (
            {(False, False): 18, (True, None): 12, (True, True): 12}, "6505c6ae64063248"
        ),
        "kronecker": ({(False, True): 9}, "4003c7988db5ea77"),
        "cycle4": ({(False, False): 4, (True, True): 4}, "2934bf64bcc8ef1a"),
    }
    for label, arq in quivers.items():
        rows = [(p, path_classify(p, arq)) for p in simple_arrow_paths(arq, 2) if len(p) == 3]
        counts = {}
        for _p, cls in rows:
            key = (cls.sectional, cls.presectional)
            counts[key] = counts.get(key, 0) + 1
        digest = hashlib.sha256(
            repr([(p, cls.sectional, cls.presectional) for p, cls in rows]).encode()
        ).hexdigest()[:16]
        assert (counts, digest) == pinned[label], label


def test_sectional_paths_of_d4_are_presectional():
    # imported here: tests.test_cut_references imports this module
    from tests.test_cut_references import dynkin_text

    arq = knit(build_basis(parse_presentation(dynkin_text("D", 4, "000"))))
    sectional = [
        cls for cls in (path_classify(p, arq) for p in simple_arrow_paths(arq, 2) if len(p) == 3)
        if cls.sectional
    ]
    assert sectional == [PathClassification(True, True)] * 12


def test_presectional_composites_reach_stated_depth(arq_cycle4, arq_cycle3, arq_b, arq_a2):
    # for every presectional path of length <= 3, some composite of
    # recorded irreducible representatives has depth exactly the length
    for arq in (arq_cycle4, arq_cycle3, arq_b, arq_a2):
        for path in simple_arrow_paths(arq, 3):
            n = len(path) - 1
            cls = path_classify(path, arq)
            if not cls.presectional:
                continue
            choices = [arq.arrow_maps[(path[i], path[i + 1])] for i in range(n)]
            found = False
            for combo in itertools.product(*choices):
                comp = combo[0]
                for step in combo[1:]:
                    comp = step.compose(comp)
                if comp.is_zero():
                    continue
                if rad_power_depth(comp, arq).depth == n:
                    found = True
                    break
            assert found, f"no depth-{n} composite along {path}"


def test_no_long_sectional_paths(arq_cycle4, arq_cycle3, arq_b):
    # finite subquivers admit no sectional path longer than the vertex count
    for arq in (arq_cycle4, arq_cycle3, arq_b):
        bound = len(arq.vertices)
        for path in simple_arrow_paths(arq, bound + 1):
            if len(path) - 1 > bound:
                assert not path_classify(path, arq).sectional


def test_connectedness_of_end_matches_subquiver(arq_cycle4):
    # weakly convex subquivers: End of the sum is connected iff the
    # subquiver is connected
    delta = ["P_b", "S_b", "P_d"]
    total = direct_sum([arq_cycle4.module_of(n) for n in delta])
    assert block_count(end_algebra_analysis(total).algebra) == 1
    scattered = ["S_a", "S_c"]
    total2 = direct_sum([arq_cycle4.module_of(n) for n in scattered])
    assert block_count(end_algebra_analysis(total2).algebra) == 2


def test_abstract_quiver_validation():
    with pytest.raises(InputSyntaxError, match="projective-flagged"):
        abstract_quiver(
            [("X", True, False, False), ("Y", False, False, False)],
            [("X", "Y", 1)],
            [("X", "Y")],
        )
    with pytest.raises(InputSyntaxError, match="unknown vertex"):
        abstract_quiver([("X", False, False, False)], [("X", "Z", 1)], [])


def test_abstract_quiver_refuses_module_queries():
    arq = abstract_quiver([("X", False, False, False)], [], [])
    with pytest.raises(PreconditionError, match="module data"):
        arq.module_of("X")
    with pytest.raises(PreconditionError, match="combinatorial"):
        arq.rad_powers()


def test_rad_filtration_refuses_incomplete_quiver():
    alg = build_basis(parse_presentation((FIXTURES / "kronecker.alg").read_text()))
    try:
        knit(alg, max_vertices=6)
    except LimitExceeded as exc:
        partial = exc.partial
    f = ModuleMap.identity(partial.module_of("P_a"))
    with pytest.raises(PreconditionError):
        rad_power_depth(f, partial)


D4_TEXT = """
field Q
vertex z
vertex u1
vertex u2
vertex u3
arrow a1: u1 -> z
arrow a2: u2 -> z
arrow a3: u3 -> z
"""

SQUARE_TEXT = """
field Q
vertex a
vertex b
vertex c
vertex d
arrow f: a -> b
arrow g: b -> d
arrow h: a -> c
arrow k: c -> d
relation g*f - k*h
"""

LOOP_TEXT = "field Q\nvertex a\narrow x: a -> a\nrelation x*x\n"


def test_d4_subspace_quiver_knit():
    alg = build_basis(parse_presentation(D4_TEXT))
    assert alg.dim == 7
    arq = knit(alg)
    assert len(arq.vertices) == 12
    verify_mesh_invariants(arq)
    wide = [m for m in arq.meshes.values() if sum(k for _, k in m.middle) >= 3]
    assert len(wide) == 2
    assert arq.tau["M{2,1,1,1}#1"] == "S_z"
    assert arq.tau["I_z"] == "M{2,1,1,1}#1"


def test_tau_orbits_are_pinned(arq_cycle4):
    assert arq_cycle4.tau_orbits() == [
        ["P_a"], ["P_b"], ["P_c"], ["P_d"], ["S_c", "S_a", "S_d", "S_b"]
    ]
    arq = knit(build_basis(parse_presentation(D4_TEXT)))
    assert arq.tau_orbits() == [
        ["S_z", "I_z", "M{2,1,1,1}#1"],
        ["P_u1", "S_u1", "M{1,0,1,1}#1"],
        ["P_u2", "S_u2", "M{1,1,0,1}#1"],
        ["P_u3", "S_u3", "M{1,1,1,0}#1"],
    ]


def test_commutative_square_knit():
    alg = build_basis(parse_presentation(SQUARE_TEXT))
    assert alg.dim == 9 and alg.nilpotency == 3
    arq = knit(alg)
    assert len(arq.vertices) == 11
    verify_mesh_invariants(arq)


def test_local_selfinjective_loop_knit():
    alg = build_basis(parse_presentation(LOOP_TEXT))
    arq = knit(alg)
    assert sorted(arq.vertices) == ["P_a", "S_a"]
    assert arq.tau == {"S_a": "S_a"}
    assert set(arq.arrows) == {("S_a", "P_a"), ("P_a", "S_a")}


A5_LINEAR_TEXT = "field Q\n" + "".join(f"vertex v{i}\n" for i in range(1, 6)) + "".join(
    f"arrow a{i}: v{i} -> v{i + 1}\n" for i in range(1, 5)
)

def cycle_text(n):
    """The oriented n-cycle over Q with radical square zero."""
    return (
        "field Q\n"
        + "".join(f"vertex v{i}\n" for i in range(n))
        + "".join(f"arrow a{i}: v{i} -> v{(i + 1) % n}\n" for i in range(n))
        + "radical_square_zero\n"
    )


CYCLE6_TEXT = cycle_text(6)


@pytest.mark.parametrize(
    "text",
    [(FIXTURES / "cycle4_rad2.alg").read_text(), (FIXTURES / "b_a3.alg").read_text(),
     D4_TEXT, SQUARE_TEXT, LOOP_TEXT, (FIXTURES / "a2.alg").read_text(),
     (FIXTURES / "a3_line.alg").read_text(), (FIXTURES / "cycle3_rad2.alg").read_text(),
     A5_LINEAR_TEXT, CYCLE6_TEXT],
    ids=["cycle4", "b_a3", "D4", "SQUARE", "LOOP", "a2", "a3_line", "cycle3", "A5_linear",
         "cycle6"],
)
def test_projective_and_injective_flags_match_isomorphism_tests(text):
    # knit flags P_v and I_v at registration only (each of these algebras
    # but D4 has a projective-injective); test every vertex against every
    # canonical projective and injective
    alg = build_basis(parse_presentation(text))
    arq = knit(alg)
    cans = canonical_modules(alg).values()
    for vert in arq.vertices.values():
        assert vert.is_projective == any(is_isomorphic(vert.module, p) for p, _i, _s in cans)
        assert vert.is_injective == any(is_isomorphic(vert.module, i) for _p, i, _s in cans)
    if text is not D4_TEXT:
        assert any(v.is_projective and v.is_injective for v in arq.vertices.values())


def test_a_partial_knit_flags_a_projective_injective_at_registration():
    # the vertex limit stops the knit before any I_v is registered
    alg = build_basis(parse_presentation((FIXTURES / "cycle4_rad2.alg").read_text()))
    with pytest.raises(LimitExceeded) as info:
        knit(alg, max_vertices=1)
    (vert,) = info.value.partial.vertices.values()
    assert (vert.name, vert.is_projective, vert.is_injective) == ("P_a", True, True)


# sha256 prefixes of every arrow map's matrices and of every mesh's (tau,
# middle), recorded from an earlier knit; another choice of the isomorphism
# that carries a summand onto its vertex module changes the first digest
PINNED_KNITS = {
    "a2.alg": ("7dc65d09fe1556e0", "51c026d92c90e297"),
    "a3_line.alg": ("179f0eb6f5288c8e", "611c9fcf3973336d"),
    "b_a3.alg": ("e5a556708b4b23b1", "d4bd2ff56c48f96f"),
    "cycle3_rad2.alg": ("2afab06e98e62ad0", "85b89bd585539ed6"),
    "cycle4_rad2.alg": ("c5937fa52b1cd998", "c335b1f66bc6e801"),
    "D4": ("c1841009ef7ede21", "9dd836c2b25b86c7"),
    "SQUARE": ("0049c1214398fc18", "120225db6071c8bc"),
    "E6 01001": ("098a3a936df2f6e6", "46fea4d2d16a9779"),
    "E7 110011": ("79c4834edcb4365e", "f7061dda7a752cc4"),
    "D7 000101": ("53ebed303fdf60fe", "710f4881a6ba5683"),
    "A9 11011000": ("185ab4aefc549d35", "22ca370aab3d8b5c"),
    "E6 01001 F 32003": ("d8d49433d31ce64c", "46fea4d2d16a9779"),
    "D7 000101 F 32003": ("c6bd038c5630c9d3", "710f4881a6ba5683"),
    "A9 11011000 F 32003": ("a4ece7f096dbaf87", "22ca370aab3d8b5c"),
    "E6 01001 F 3": ("848653a67ffef6bd", "46fea4d2d16a9779"),
    "SQUARE F 3": ("a4fdf71f9df42295", "120225db6071c8bc"),
    "D4 F 5": ("5f1bcd82d2344dda", "9dd836c2b25b86c7"),
    "D4 F 2": ("5f612825d0d80536", "9dd836c2b25b86c7"),
    "D7 000101 F 13": ("8dd4968d533531a6", "710f4881a6ba5683"),
    "E6 01001 F 17": ("5a2124d582ce7a78", "46fea4d2d16a9779"),
    "cycle12": ("05c041f97fbd97c7", "78f633ba4a90bddc"),
}


def _text(label):
    """The algebra of a label: a fixture file, D4 or SQUARE, ``cycle<n>``,
    or ``<Dynkin type><rank> <orientation>``, optionally followed by a field
    such as ``F 32003`` (``D4 F 2`` is D4 over F_2, ``D4 000`` the D4 of
    ``dynkin_text``)."""
    # imported here: tests.test_cut_references imports this module
    from tests.test_cut_references import dynkin_text

    if label.endswith(".alg"):
        return (FIXTURES / label).read_text()
    if label.startswith("cycle"):
        return cycle_text(int(label[5:]))
    head, _, rest = label.partition(" ")
    if head in ("D4", "SQUARE") and re.fullmatch(r"(Q|F \d+)?", rest):
        text, field = {"D4": D4_TEXT, "SQUARE": SQUARE_TEXT}[head], rest
    else:
        orientation, _, field = rest.partition(" ")
        text = dynkin_text(head[0], int(head[1:]), orientation)
    return text.replace("field Q", f"field {field}", 1) if field else text


def test_text_reads_a_field_or_an_orientation():
    from tests.test_cut_references import dynkin_text

    assert _text("D4 000") == dynkin_text("D", 4, "000")
    assert len(knit(build_basis(parse_presentation(_text("D4 000")))).vertices) == 12  # Gabriel
    assert _text("D4 F 2") == D4_TEXT.replace("field Q", "field F 2", 1)
    assert parse_presentation(_text("D4 F 2")).field.p == 2
    assert _text("SQUARE Q") == _text("SQUARE") == SQUARE_TEXT


def _knit_digests(arq):
    maps = hashlib.sha256()
    for key in sorted(arq.arrow_maps):
        for f in arq.arrow_maps[key]:
            maps.update(repr(key).encode())
            for v in arq.alg.quiver.vertices:
                m = f.mats[v]
                rows = ";".join(",".join(str(e) for e in row) for row in m.data)
                maps.update(f"{m.nrows}x{m.ncols}:{rows}".encode())
    meshes = repr(sorted((n, m.tau, m.middle) for n, m in arq.meshes.items()))
    return maps.hexdigest()[:16], hashlib.sha256(meshes.encode()).hexdigest()[:16]


@pytest.mark.parametrize("label", list(PINNED_KNITS))
def test_arrow_maps_and_meshes_are_pinned(label):
    arq = knit(build_basis(parse_presentation(_text(label))))
    for (s, t), maps in arq.arrow_maps.items():
        assert len(maps) == arq.mult(s, t)
        for f in maps:
            assert f.src is arq.vertices[s].module
            assert f.tgt is arq.vertices[t].module
    assert _knit_digests(arq) == PINNED_KNITS[label]


# -- the kept projective sums are only read -----------------------------------

# the Dynkin orientations the benchmark knits and certifies
# (``ORIENTATIONS`` in perfbench/workloads.py)
BENCH_ORIENTATIONS = [
    "A5 0110", "A5 1001", "A9 11011000", "A9 11100100", "D5 0001", "D5 0010",
    "D7 000101", "D7 000110", "D8 0100010", "D8 0100001", "E6 01001", "E6 11011",
    "E7 000111", "E7 110011", "E7 011111",
]


def _kept_sums_digest(algs):
    """sha256 of every projective sum and every Ae_v kept by ``algs`` and
    their opposites, keys and layouts included."""
    digest = hashlib.sha256()
    for alg in algs:
        for a in (alg, alg.opposite()):
            kept = [(repr(k), mod, paths) for k, (paths, mod) in a.projectives.items()]
            kept += [(repr(k), mod, layout) for k, (mod, layout) in a.projective_sums.items()]
            for key, mod, layout in sorted(kept, key=lambda entry: entry[0]):
                digest.update(f"{key}|{mod.dims}|{layout}".encode())
                for label, m in mod.mats.items():
                    digest.update(f"{label}:{m.nrows}x{m.ncols}:{m.data}".encode())
    return digest.hexdigest()


def test_knits_only_read_the_kept_projective_sums():
    from arquiver.modules import projective_sum

    labels = ["a2.alg", "a3_line.alg", "b_a3.alg", "cycle3_rad2.alg", "cycle4_rad2.alg"]
    algs = [build_basis(parse_presentation(_text(label))) for label in labels + BENCH_ORIENTATIONS]
    for alg in algs:
        knit(alg)
    assert all(alg.projective_sums and alg.opposite().projective_sums for alg in algs)
    before = _kept_sums_digest(algs)
    for alg in algs:
        knit(alg)
    assert _kept_sums_digest(algs) == before
    # and each kept sum is still the sum a fresh build gives
    for alg in algs:
        for a in (alg, alg.opposite()):
            for verts, (mod, layout) in a.projective_sums.items():
                fresh, fresh_layout = projective_sum(a, list(verts))
                assert layout == fresh_layout
                assert {k: m.data for k, m in mod.mats.items()} == {k: m.data for k, m in fresh.mats.items()}


# -- a work budget that does not depend on the machine ------------------------

# Matrix products and eliminations of the E7 110011 knit over Q, counted at
# the change that took identity products, back-substituted ranks and rebuilt
# projective sums off the knit (6473 and 2967 before it); a change that
# brings such work back raises a count
E7_KNIT_BUDGET = {"Matrix.__mul__": 3783, "rref": 1221}


def test_the_e7_knit_stays_within_its_work_budget(monkeypatch):
    from arquiver import linalg

    counts = dict.fromkeys(E7_KNIT_BUDGET, 0)

    def counted(name, function):
        def wrapper(*args):
            counts[name] += 1
            return function(*args)

        return wrapper

    monkeypatch.setattr(linalg.Matrix, "__mul__", counted("Matrix.__mul__", linalg.Matrix.__mul__))
    monkeypatch.setattr(linalg, "rref", counted("rref", linalg.rref))
    arq = knit(build_basis(parse_presentation(_text("E7 110011"))))
    assert len(arq.vertices) == 63  # Gabriel
    assert all(counts[name] <= budget for name, budget in E7_KNIT_BUDGET.items()), counts
