"""The cut search and the slice check against the code paths they replaced.

``reference_walk`` is the dict-based backtracking walk that ``enumerate_cuts``
ran before its conditions were compiled to vertex indices; it also reports
how many nodes it visited.  ``reference_convex_in_ind`` reads convexity in
ind A off the first level of the full radical filtration, as the slice
check did before it read the cached rad^1 alone.  The walk pruned by
Hom(X, tau Y) conflicts is judged by ``reference_hom_vanishing``, which
solves Hom spaces; the rank test of faithfulness by ``annihilator``; the
Hom dimensions read off the meshes by ``hom_space``; and the dimension count
of ``pdim_le_1`` by ``reference_pdim_le_1``, which matches the syzygy's
summands against the indecomposable projectives; and weak convexity by the
subspace propagation ``reference_nonzero_path_exists``.
"""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from arquiver import cuts
from arquiver.algebra import build_basis, parse_presentation
from arquiver.cuts import (
    ConvexityResult,
    _cycle_inside,
    certify_tilted,
    convexity_checks,
    enumerate_cuts,
    hom_tau_conflict,
    is_cut,
    is_slice_section,
    iter_cuts,
)
from arquiver.errors import CapExceeded, InternalError
from arquiver.formats import parse_translation_quiver
from arquiver.knitting import knit
from arquiver.modules import (
    annihilator,
    decompose,
    direct_sum,
    is_isomorphic,
    kernel_submodule,
    pdim_le_1,
    projective_cover,
    projective_module,
    sincere_faithful,
)
from tests.conftest import FIXTURES
from tests.radical_reference import reference_nonzero_path_exists
from tests.test_knitting import CYCLE6_TEXT, D4_TEXT, SQUARE_TEXT

A5_TEXT = """
field Q
vertex v1
vertex v2
vertex v3
vertex v4
vertex v5
arrow a1: v1 -> v2
arrow a2: v3 -> v2
arrow a3: v4 -> v3
arrow a4: v4 -> v5
"""

D5_TEXT = """
field Q
vertex v1
vertex v2
vertex v3
vertex v4
vertex v5
arrow a1: v1 -> v2
arrow a2: v2 -> v3
arrow a3: v3 -> v4
arrow a4: v5 -> v3
"""

FIXTURE_FILES = ["a2.alg", "a3_line.alg", "b_a3.alg", "cycle3_rad2.alg", "cycle4_rad2.alg"]
TEXTS = {name: (FIXTURES / name).read_text() for name in FIXTURE_FILES}
TEXTS.update({"D4": D4_TEXT, "SQUARE": SQUARE_TEXT, "A5": A5_TEXT, "D5": D5_TEXT})

# Weak convexity runs O(n^3) nonzero-path searches per cut: tens of seconds
# over the cuts of D5 even with shared search results, so D5 is compared on
# the slice check and convexity in ind A only.
TRIPLE_LABELS = FIXTURE_FILES + ["D4", "SQUARE", "A5"]


def dynkin_text(kind, n, orientation):
    """A Dynkin quiver over Q on vertices v1..vn along the chain, with the
    branch v_{n-2} - v_n (D) or v3 - v_n (E); digit 1 of ``orientation``
    reverses the arrow of the edge in its place."""
    edges = [(i, i + 1) for i in range(1, n - 1)] + [({"A": n - 1, "D": n - 2, "E": 3}[kind], n)]
    lines = ["field Q"] + [f"vertex v{i}" for i in range(1, n + 1)]
    for k, ((a, b), bit) in enumerate(zip(edges, orientation), start=1):
        a, b = (b, a) if bit == "1" else (a, b)
        lines.append(f"arrow a{k}: v{a} -> v{b}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def quivers():
    return {label: knit(build_basis(parse_presentation(text))) for label, text in TEXTS.items()}


def reference_walk(arq, cap=10**6):
    """The dict-based cut walk; returns (cuts, nodes visited)."""
    names = arq.names()
    index = {n: i for i, n in enumerate(names)}
    conditions = []
    for (x, y) in sorted(arq.arrows):
        ty = arq.tau.get(y)
        if ty is not None or arq.vertices[y].is_projective:
            participants = [x, y] + ([ty] if ty is not None else [])
            conditions.append(("c1", x, y, ty, max(index[p] for p in participants)))
        tx = arq.tau_inv.get(x)
        if tx is not None or arq.vertices[x].is_injective:
            participants = [x, y] + ([tx] if tx is not None else [])
            conditions.append(("c2", x, y, tx, max(index[p] for p in participants)))
    by_depth = {}
    for cond in conditions:
        by_depth.setdefault(cond[4], []).append(cond)

    results = []
    chosen = {}
    nodes = 0

    def check(cond):
        kind, x, y, t, _ = cond
        if kind == "c1":
            if not chosen.get(x):
                return True
            hits = (1 if chosen.get(y) else 0) + (1 if t is not None and chosen.get(t) else 0)
            return hits == 1
        if not chosen.get(y):
            return True
        hits = (1 if chosen.get(x) else 0) + (1 if t is not None and chosen.get(t) else 0)
        return hits == 1

    def walk(depth):
        nonlocal nodes
        nodes += 1
        if nodes > cap:
            raise CapExceeded(f"cut enumeration exceeded the cap of {cap} nodes")
        if depth == len(names):
            cut = frozenset(n for n in names if chosen.get(n))
            if cut:
                results.append(cut)
            return
        for value in (True, False):
            chosen[names[depth]] = value
            if all(check(c) for c in by_depth.get(depth, ())):
                walk(depth + 1)
        del chosen[names[depth]]

    walk(0)
    return results, nodes


def reference_hom_vanishing(arq, cut):
    """Whether Hom(X, tau Y) and Hom(tau^- X, Y) vanish on the cut, by
    linear algebra."""
    inv = arq.tau_inv
    return not any(
        (y in arq.tau and arq.hom_space(x, arq.tau[y]).dim)
        or (x in inv and arq.hom_space(inv[x], y).dim)
        for x in cut
        for y in cut
    )


def reference_convex_in_ind(arq, cut):
    cut = set(cut)
    outside = [n for n in arq.names() if n not in cut]
    rad1 = arq.rad_powers()[0] if arq.rad_powers() else {}
    succ = {n: set() for n in arq.names()}
    pred = {n: set() for n in arq.names()}
    for (x, y), space in rad1.items():
        if space.dim > 0:
            succ[x].add(y)
            pred[y].add(x)

    def closure(seeds, step):
        seen = set(seeds)
        stack = list(seeds)
        while stack:
            n = stack.pop()
            for m in step[n]:
                if m not in seen:
                    seen.add(m)
                    stack.append(m)
        return seen

    from_cut = closure(cut, succ)
    to_cut = closure(cut, pred)
    return not any(m in from_cut and m in to_cut for m in outside)


def reference_slice(arq, cut):
    """``is_slice_section(arq, cut).slice`` for a quiver with module data."""
    ok, _ = is_cut(arq, cut)
    if not ok:
        return False
    sincere, _ = sincere_faithful([arq.module_of(n) for n in sorted(cut)])
    return sincere and reference_convex_in_ind(arq, cut)


def reference_slice_by_definition(arq, cut):
    """The literal slice axioms: sincere, convex in ind A, no tau Y inside
    for Y inside, and each arrow X -> Y into the cut starts at a vertex of
    the cut or at one whose tau^- X is in it."""
    cut = set(cut)
    sincere, _ = sincere_faithful([arq.module_of(n) for n in sorted(cut)])
    if not sincere or not reference_convex_in_ind(arq, cut):
        return False
    if any(arq.tau.get(x) in cut for x in cut):
        return False
    for (x, y) in arq.arrows:
        if y in cut:
            tx = arq.tau_inv.get(x)
            if x not in cut and (tx is None or tx not in cut):
                return False
    return True


def reference_convexity_checks(arq, cut, search):
    cut = set(cut)
    outside = [n for n in arq.names() if n not in cut]
    weakly = True
    for m in outside:
        if not weakly:
            break
        for x in sorted(cut):
            if not weakly:
                break
            for y in sorted(cut):
                if search(arq, x, y, via=m):
                    weakly = False
                    break
    return ConvexityResult(weakly, reference_convex_in_ind(arq, cut), not _cycle_inside(arq, cut))


def walk_nodes(arq, conflict=None):
    """The nodes ``iter_cuts`` walks: the smallest cap it finishes under."""
    lo, hi = 1, 10**6
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            list(iter_cuts(arq, cap=mid, conflict=conflict))
            hi = mid
        except CapExceeded:
            lo = mid + 1
    return lo


@pytest.mark.parametrize("label", list(TEXTS) + ["tube"])
def test_enumerate_cuts_matches_reference_walk(quivers, tube_text, label):
    # the cap counts the nodes of the propagating walk, which are at most
    # those of the reference
    arq = parse_translation_quiver(tube_text) if label == "tube" else quivers[label]
    expected, ref_nodes = reference_walk(arq)
    assert expected
    assert enumerate_cuts(arq) == expected
    nodes = walk_nodes(arq)
    assert nodes <= ref_nodes
    assert enumerate_cuts(arq, cap=nodes) == expected
    with pytest.raises(CapExceeded) as exc:
        enumerate_cuts(arq, cap=nodes - 1)
    found = re.fullmatch(
        rf"cut enumeration exceeded the cap of {nodes - 1} nodes: {nodes - 1} nodes walked, "
        rf"deepest depth (\d+) of {len(arq.names())}, (\d+) cuts found",
        str(exc.value),
    )
    assert found and int(found[1]) <= len(arq.names()) and int(found[2]) <= len(expected)


@pytest.fixture(scope="module")
def walked(quivers, tube_text):
    """label -> (quiver, reference cuts, reference nodes) over the fixture
    quivers, the tube and the rad^2 = 0 6-cycle."""
    arqs = dict(quivers)
    arqs["tube"] = parse_translation_quiver(tube_text)
    arqs["cycle6"] = knit(build_basis(parse_presentation(CYCLE6_TEXT)))
    return {label: (arq, *reference_walk(arq)) for label, arq in arqs.items()}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_walk_under_random_conflicts_matches_the_reference(walked, data):
    label = data.draw(st.sampled_from(sorted(walked)), label="quiver")
    arq, cuts, ref_nodes = walked[label]
    pairs = st.frozensets(st.sampled_from(arq.names()), min_size=1, max_size=2)
    bad = data.draw(st.sets(pairs, max_size=6), label="conflicting pairs")
    asked = []

    def conflict(x, y):
        asked.append(frozenset((x, y)))
        return frozenset((x, y)) in bad

    expected = [c for c in cuts if not any(frozenset((x, y)) in bad for x in c for y in c)]
    assert list(iter_cuts(arq, conflict=conflict)) == expected
    assert len(asked) == len(set(asked))
    assert walk_nodes(arq, conflict) <= ref_nodes


@pytest.mark.parametrize("label", list(TEXTS))
def test_slice_check_matches_rad_powers_reference(quivers, label):
    arq = quivers[label]
    for cut in enumerate_cuts(arq):
        expected = reference_convex_in_ind(arq, cut)
        assert cuts._convex_in_ind(arq, set(cut)) == expected
        assert is_slice_section(arq, cut).slice == reference_slice(arq, cut)


def test_slice_check_leaves_the_filtration_unbuilt():
    arq = knit(build_basis(parse_presentation(D4_TEXT)))
    witness = ["P_u1", "P_u2", "P_u3", "S_z"]
    assert is_slice_section(arq, witness).slice
    assert arq._rad_powers is None
    assert not arq._rad1


@pytest.mark.parametrize("label", TRIPLE_LABELS)
def test_convexity_checks_matches_reference(quivers, label):
    # the reference reads weak convexity from memoized subspace
    # propagations, the code under test from rad^1 products
    memo = {}

    def search(arq, x, y, via=None):
        key = (x, y, via)
        if key not in memo:
            memo[key] = reference_nonzero_path_exists(arq, x, y, via=via)
        return memo[key]

    arq = quivers[label]
    for cut in enumerate_cuts(arq):
        assert convexity_checks(arq, cut) == reference_convexity_checks(arq, cut, search)


@pytest.mark.parametrize("label", list(TEXTS))
def test_pruned_walk_yields_the_hom_vanishing_cuts(quivers, label):
    arq = quivers[label]
    expected = [c for c in reference_walk(arq)[0] if reference_hom_vanishing(arq, c)]
    assert expected
    assert list(iter_cuts(arq, conflict=hom_tau_conflict(arq))) == expected


@pytest.mark.parametrize("label", list(TEXTS) + ["tube"])
def test_pruned_walk_drops_exactly_the_conflicting_cuts(quivers, tube_text, label):
    # a singleton in ``bad`` makes a vertex conflict with itself
    arq = parse_translation_quiver(tube_text) if label == "tube" else quivers[label]
    rng = random.Random(label)
    bad = {frozenset(rng.sample(arq.names(), rng.choice((1, 2)))) for _ in range(3)}
    expected = [
        c for c in reference_walk(arq)[0] if not any(frozenset((x, y)) in bad for x in c for y in c)
    ]
    assert list(iter_cuts(arq, conflict=lambda x, y: frozenset((x, y)) in bad)) == expected


def test_certify_refuses_a_cut_the_pruning_let_through(quivers, monkeypatch):
    monkeypatch.setattr(cuts, "hom_tau_conflict", lambda arq: lambda x, y: False)
    arq = quivers["cycle4_rad2.alg"]
    with pytest.raises(InternalError, match="fails the Hom"):
        certify_tilted(arq.alg, arq=arq)


def test_rank_test_agrees_with_the_annihilator(quivers):
    verdicts = set()
    for label in TEXTS:
        arq = quivers[label]
        for cut in reference_walk(arq)[0]:
            mods = [arq.module_of(n) for n in sorted(cut)]
            faithful = sincere_faithful(mods)[1]
            assert faithful == (not annihilator(mods))
            verdicts.add(faithful)
    assert verdicts == {True, False}


def reference_pdim_le_1(m):
    """Whether every summand of the syzygy of M is isomorphic to some P_v."""
    _p0, epi, _verts, _layout = projective_cover(m)
    ker, _incl = kernel_submodule(epi)
    if ker.total_dim == 0:
        return True
    projs = [projective_module(m.alg, v) for v in m.alg.quiver.vertices]
    return all(
        any(piece.dim_vector == p.dim_vector and is_isomorphic(piece, p) for p in projs)
        for piece, _mult in decompose(ker)
    )


def test_pdim_count_agrees_with_matching_summands(quivers):
    verdicts = set()
    for label in FIXTURE_FILES + ["D4", "A5", "D5"]:
        arq = quivers[label]
        cuts = [[n] for n in arq.names()] + [sorted(c) for c in iter_cuts(arq, conflict=hom_tau_conflict(arq))]
        for cut in cuts:
            m = direct_sum([arq.module_of(n) for n in cut])
            verdict = pdim_le_1(m)
            assert verdict == reference_pdim_le_1(m), (label, cut)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def assert_hom_dims_match(arq):
    for x in arq.names():
        dims = arq.hom_dims(x)
        assert dims is not None
        assert dims == {y: arq.hom_space(x, y).dim for y in arq.names()}


@pytest.mark.parametrize("label", [t for t in TEXTS if "cycle" not in t])
def test_hom_dims_match_hom_spaces(quivers, label):
    assert_hom_dims_match(quivers[label])


@settings(max_examples=12, deadline=None)
@given(st.sampled_from("AD"), st.data())
def test_hom_dims_match_hom_spaces_on_dynkin_orientations(kind, data):
    n = data.draw(st.integers(2 if kind == "A" else 4, 6), label="n")
    orientation = data.draw(st.text("01", min_size=n - 1, max_size=n - 1), label="orientation")
    assert_hom_dims_match(knit(build_basis(parse_presentation(dynkin_text(kind, n, orientation)))))


@pytest.mark.parametrize("label", ["cycle3_rad2.alg", "cycle4_rad2.alg"])
def test_hom_dims_refuse_a_cyclic_quiver(quivers, label):
    arq = quivers[label]
    assert all(arq.hom_dims(x) is None for x in arq.names())


@pytest.mark.parametrize("kind, n, orientation", [("D", 8, "0100010"), ("E", 7, "000111")])
def test_dynkin_certifies_at_a_checked_witness(kind, n, orientation):
    alg = build_basis(parse_presentation(dynkin_text(kind, n, orientation)))
    arq = knit(alg)
    cert = certify_tilted(alg, arq=arq)
    assert cert.verdict == "CERTIFIED_TILTED"
    witness = cert.witness
    assert is_cut(arq, witness)[0]
    assert reference_hom_vanishing(arq, witness)
    assert annihilator([arq.module_of(n) for n in witness]) == []
    assert reference_slice_by_definition(arq, witness)
