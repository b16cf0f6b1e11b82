"""The cut search and the slice check against the code paths they replaced.

``reference_walk`` is the dict-based backtracking walk that ``enumerate_cuts``
ran before its conditions were compiled to vertex indices; it also reports
how many nodes it visited.  ``reference_convex_in_ind`` reads convexity in
ind A off the first level of the full radical filtration, as the slice
check did before it read the cached rad^1 alone.
"""

import pytest

from arquiver import cuts
from arquiver.algebra import build_basis, parse_presentation
from arquiver.cuts import (
    ConvexityResult,
    _cycle_inside,
    convexity_checks,
    enumerate_cuts,
    is_cut,
    is_slice_section,
    slice_by_definition,
)
from arquiver.errors import CapExceeded
from arquiver.formats import parse_translation_quiver
from arquiver.knitting import knit, nonzero_path_exists
from arquiver.modules import sincere_faithful
from tests.conftest import FIXTURES
from tests.test_knitting import D4_TEXT, SQUARE_TEXT

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


@pytest.fixture(scope="module")
def quivers():
    return {label: knit(build_basis(parse_presentation(text))) for label, text in TEXTS.items()}


def reference_walk(arq, cap=10**6):
    """The dict-based cut walk; returns (cuts, nodes visited)."""
    names = arq.names()
    index = {n: i for i, n in enumerate(names)}
    conditions = []
    for (x, y) in sorted(arq.arrows):
        status, ty = arq.tau_status(y)
        if status != "unknown":
            participants = [x, y] + ([ty] if ty is not None else [])
            conditions.append(("c1", x, y, ty, max(index[p] for p in participants)))
        status, tx = arq.tau_inv_status(x)
        if status != "unknown":
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


@pytest.mark.parametrize("label", list(TEXTS) + ["tube"])
def test_enumerate_cuts_matches_reference_walk(quivers, tube_text, label):
    arq = parse_translation_quiver(tube_text) if label == "tube" else quivers[label]
    expected, nodes = reference_walk(arq)
    assert expected
    assert enumerate_cuts(arq) == expected
    assert enumerate_cuts(arq, cap=nodes) == expected
    with pytest.raises(CapExceeded) as ref_exc:
        reference_walk(arq, cap=nodes - 1)
    with pytest.raises(CapExceeded) as exc:
        enumerate_cuts(arq, cap=nodes - 1)
    assert str(exc.value) == str(ref_exc.value)
    assert str(exc.value) == f"cut enumeration exceeded the cap of {nodes - 1} nodes"


@pytest.mark.parametrize("label", list(TEXTS))
def test_slice_check_matches_rad_powers_reference(quivers, label):
    arq = quivers[label]
    for cut in enumerate_cuts(arq):
        expected = reference_convex_in_ind(arq, cut)
        assert cuts._convex_in_ind(arq, set(cut)) == expected
        assert is_slice_section(arq, cut).slice == reference_slice(arq, cut)
        assert slice_by_definition(arq, cut) == reference_slice_by_definition(arq, cut)


def test_slice_check_leaves_the_filtration_unbuilt():
    arq = knit(build_basis(parse_presentation(D4_TEXT)))
    witness = ["P_u1", "P_u2", "P_u3", "S_z"]
    assert is_slice_section(arq, witness).slice
    assert slice_by_definition(arq, witness)
    assert arq._rad_powers is None
    assert arq._rad1 is not None


@pytest.mark.parametrize("label", TRIPLE_LABELS)
def test_convexity_checks_matches_reference(quivers, label):
    # the reference reads weak convexity from memoized path searches, the
    # code under test from rad^1 products
    memo = {}

    def search(arq, x, y, via=None):
        key = (x, y, via)
        if key not in memo:
            memo[key] = nonzero_path_exists(arq, x, y, via=via)
        return memo[key]

    arq = quivers[label]
    for cut in enumerate_cuts(arq):
        assert convexity_checks(arq, cut) == reference_convexity_checks(arq, cut, search)
