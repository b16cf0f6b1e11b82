import itertools

import pytest

from arquiver.algebra import build_basis, parse_presentation
from arquiver.cuts import (
    certify_tilted,
    convexity_checks,
    cut_analysis,
    enumerate_cuts,
    hom_tau_test,
    is_cut,
    is_slice_section,
    quotient_by_cut,
    tilting_crosscheck,
)
from arquiver.errors import CapExceeded, PreconditionError
from arquiver.knitting import knit
from arquiver.formats import parse_translation_quiver
from arquiver.modules import sincere_faithful
from tests.test_cut_references import reference_slice_by_definition

DELTA4 = ["P_b", "S_b", "P_d"]
DELTA3 = ["P_b", "S_b", "P_a"]


def brute_force_cuts(arq):
    names = arq.names()
    out = []
    for r in range(1, len(names) + 1):
        for combo in itertools.combinations(names, r):
            ok, _ = is_cut(arq, combo)
            if ok:
                out.append(frozenset(combo))
    return out


def test_delta_is_cut(arq_cycle4):
    ok, violations = is_cut(arq_cycle4, DELTA4)
    assert ok and not violations


def test_delta3_is_cut(arq_cycle3):
    ok, _ = is_cut(arq_cycle3, DELTA3)
    assert ok


def test_non_cut_with_violations(arq_cycle4):
    ok, violations = is_cut(arq_cycle4, ["S_b", "S_a"])
    assert not ok
    assert violations
    arrows = {v.arrow for v in violations}
    assert ("S_a", "P_b") in arrows


def test_is_cut_rejects_bad_input(arq_cycle4):
    with pytest.raises(PreconditionError):
        is_cut(arq_cycle4, [])
    with pytest.raises(PreconditionError):
        is_cut(arq_cycle4, ["nope"])


def test_hom_tau_vanishing(arq_cycle4, arq_cycle3):
    assert hom_tau_test(arq_cycle4, DELTA4).all_zero
    assert hom_tau_test(arq_cycle3, DELTA3).all_zero


def test_hom_tau_detects_translate_pairs(arq_cycle4):
    # {X, tau X} always fails: the identity sits in Hom(tau X, tau X)
    res = hom_tau_test(arq_cycle4, ["S_b", "S_a"])
    assert not res.all_zero


def test_convexity_of_delta(arq_cycle4):
    res = convexity_checks(arq_cycle4, DELTA4)
    assert res.weakly_convex
    assert not res.convex_in_ind
    assert res.acyclic


def test_convexity_singleton_a2(arq_a2):
    res = convexity_checks(arq_a2, ["S_a"])
    assert res.weakly_convex and res.convex_in_ind and res.acyclic


def test_slice_section_on_b(arq_b):
    res = is_slice_section(arq_b, ["P_b", "S_b", "P_d"])
    assert res.slice and res.section


def test_slice_section_on_cycle4(arq_cycle4):
    res = is_slice_section(arq_cycle4, DELTA4)
    assert not res.slice and not res.section


def test_section_needs_path_closure():
    # {x, w, z} is connected, acyclic and meets each orbit once, but the
    # path x -> y -> z leaves it through y
    from arquiver.knitting import abstract_quiver

    arq = abstract_quiver(
        [(n, False, False, False) for n in "xyzw"],
        [("x", "y", 1), ("y", "z", 1), ("x", "w", 1), ("w", "z", 1)],
        [("y", "w")],
    )
    assert not is_slice_section(arq, ["x", "w", "z"]).section
    chain = abstract_quiver(
        [(n, False, False, False) for n in "xyz"], [("x", "y", 1), ("y", "z", 1)], []
    )
    assert is_slice_section(chain, ["x", "y", "z"]).section


def test_delta_misses_projective_orbits(arq_cycle4):
    orbits = arq_cycle4.tau_orbits()
    for p in ("P_a", "P_c"):
        orbit = next(o for o in orbits if p in o)
        assert not set(orbit) & set(DELTA4)


def test_slice_in_a2(arq_a2):
    assert is_slice_section(arq_a2, ["P_a", "S_b"]).slice
    assert is_slice_section(arq_a2, ["P_a", "S_a"]).slice


def test_enumerate_matches_brute_force(arq_cycle4, arq_cycle3, arq_b, arq_a2):
    for arq in (arq_cycle4, arq_cycle3, arq_b, arq_a2):
        fast = set(enumerate_cuts(arq))
        slow = set(brute_force_cuts(arq))
        assert fast == slow


def test_enumerate_a2_content(arq_a2):
    cuts = {frozenset(c) for c in enumerate_cuts(arq_a2)}
    assert cuts == {frozenset({"P_a", "S_b"}), frozenset({"P_a", "S_a"})}


def test_enumerate_finds_delta(arq_cycle4):
    assert frozenset(DELTA4) in set(enumerate_cuts(arq_cycle4))


def test_enumerate_cap(arq_cycle4):
    with pytest.raises(CapExceeded) as exc:
        enumerate_cuts(arq_cycle4, cap=5)
    assert str(exc.value) == (
        "cut enumeration exceeded the cap of 5 nodes: 5 nodes walked, deepest depth 4 of 8, "
        "0 cuts found"
    )


def test_certify_b(alg_b, arq_b):
    cert = certify_tilted(alg_b, arq=arq_b)
    assert cert.verdict == "CERTIFIED_TILTED"
    assert cert.witness == ["P_b", "P_d", "S_b"]
    assert cert.slice_confirmed
    assert cert.crosscheck.passed
    assert cert.faithful and cert.sincere


def test_certify_cycle3(alg_cycle3, arq_cycle3):
    cert = certify_tilted(alg_cycle3, arq=arq_cycle3)
    assert cert.verdict == "REFUTED_BY_ENUMERATION"
    assert cert.cuts_examined == 3
    assert cert.sincere_qualifying_cuts == 3


def test_certify_cycle4(alg_cycle4, arq_cycle4):
    cert = certify_tilted(alg_cycle4, arq=arq_cycle4)
    assert cert.verdict == "REFUTED_BY_ENUMERATION"
    hom_vanishing = [c for c in brute_force_cuts(arq_cycle4) if hom_tau_test(arq_cycle4, c).all_zero]
    assert cert.cuts_examined == len(hom_vanishing)


def test_certify_hereditary_fixtures(alg_a2, alg_a3line):
    assert certify_tilted(alg_a2).verdict == "CERTIFIED_TILTED"
    assert certify_tilted(alg_a3line).verdict == "CERTIFIED_TILTED"


def test_certify_disconnected_algebra():
    text = """
field Q
vertex a
vertex b
vertex c
vertex d
arrow f: a -> b
arrow g: c -> d
"""
    alg = build_basis(parse_presentation(text))
    cert = certify_tilted(alg)
    assert cert.blocks is not None and len(cert.blocks) == 2
    assert cert.verdict == "CERTIFIED_TILTED"


def test_crosscheck_on_b(arq_b):
    cc = tilting_crosscheck(arq_b, ["P_b", "S_b", "P_d"])
    assert cc.passed
    assert (cc.summands, cc.simples) == (3, 3)


def test_crosscheck_fails_on_cycle4_delta(arq_cycle4):
    cc = tilting_crosscheck(arq_cycle4, DELTA4)
    assert not cc.passed
    assert cc.summands == 3 and cc.simples == 4
    assert not cc.pdim_le_1


def test_crosscheck_on_all_projectives_of_hereditary(arq_a2):
    cc = tilting_crosscheck(arq_a2, ["P_a", "S_b"])
    assert cc.passed


def test_proposition_equivalence_suite(arq_cycle4, arq_cycle3, arq_b):
    # forward vanishing <=> backward vanishing <=> weak convexity, and
    # qualifying cuts are acyclic with no translate overlap
    for arq in (arq_cycle4, arq_cycle3, arq_b):
        for cut in enumerate_cuts(arq):
            ht = hom_tau_test(arq, cut)
            fwd_zero = all(t[2] == 0 for t in ht.forward)
            bwd_zero = all(t[2] == 0 for t in ht.backward)
            conv = convexity_checks(arq, cut)
            assert fwd_zero == bwd_zero == conv.weakly_convex
            if fwd_zero:
                assert conv.acyclic
                inv = arq.tau_inv
                for x in cut:
                    assert arq.tau.get(x) not in cut
                    assert inv.get(x) not in cut


def test_lemma_slice_characterization(arq_a2, arq_b):
    # literal slice axioms == sincere convex cut, on every subset
    for arq in (arq_a2, arq_b):
        names = arq.names()
        for r in range(1, len(names) + 1):
            for combo in itertools.combinations(names, r):
                literal = reference_slice_by_definition(arq, combo)
                ok, _ = is_cut(arq, combo)
                mods = [arq.module_of(n) for n in combo]
                sincere, _f = sincere_faithful(mods)
                lemma_form = (
                    ok and sincere and convexity_checks(arq, combo).convex_in_ind
                )
                assert literal == lemma_form
                assert is_slice_section(arq, combo).slice == lemma_form


def test_slices_equal_certify_witness_filter(arq_a2, arq_b):
    for arq in (arq_a2, arq_b):
        slices = set()
        names = arq.names()
        for r in range(1, len(names) + 1):
            for combo in itertools.combinations(names, r):
                if reference_slice_by_definition(arq, combo):
                    slices.add(frozenset(combo))
        witnesses = set()
        for cut in enumerate_cuts(arq):
            if not hom_tau_test(arq, cut).all_zero:
                continue
            mods = [arq.module_of(n) for n in sorted(cut)]
            _s, faithful = sincere_faithful(mods)
            if faithful:
                witnesses.add(frozenset(cut))
        assert slices == witnesses


def test_quotient_of_cycle4(alg_cycle4, arq_cycle4):
    result = quotient_by_cut(alg_cycle4, arq_cycle4, DELTA4)
    b = result.algebra
    assert b.dim == 5
    assert result.annihilator_dim == 3
    pres = result.presentation
    assert pres.quiver.vertices == ["a", "b", "d"]
    arrows = {(a.label, a.source, a.target) for a in pres.quiver.arrows.values()}
    assert arrows == {("beta", "b", "a"), ("delta", "d", "b")}
    assert len(pres.relations) == 1
    (rel,) = pres.relations
    assert [(str(c), repr(p)) for c, p in rel.terms] == [("1", "beta*delta")]
    assert result.certificate.verdict == "CERTIFIED_TILTED"
    assert result.delta_is_cut and result.delta_is_slice
    assert result.tau_preserved and result.projectives_remain_projective
    assert sorted(result.lifted_cut) == ["P_b", "P_d", "S_b"]


def test_quotient_of_cycle3(alg_cycle3, arq_cycle3):
    result = quotient_by_cut(alg_cycle3, arq_cycle3, DELTA3)
    assert result.algebra.dim == 5
    assert result.annihilator_dim == 1
    pres = result.presentation
    assert pres.quiver.vertices == ["a", "b", "c"]
    assert len(pres.relations) == 1
    assert result.certificate.verdict == "CERTIFIED_TILTED"
    assert result.delta_is_slice


def test_quotient_with_zero_annihilator(alg_b, arq_b):
    result = quotient_by_cut(alg_b, arq_b, ["P_b", "S_b", "P_d"])
    assert result.annihilator_dim == 0
    assert result.algebra.dim == alg_b.dim
    direct = certify_tilted(alg_b, arq=arq_b)
    assert result.certificate.to_json() == direct.to_json()


def test_quotient_rejects_bad_hypotheses(alg_cycle4, arq_cycle4):
    with pytest.raises(PreconditionError, match="not a cut"):
        quotient_by_cut(alg_cycle4, arq_cycle4, ["S_b", "S_a"])
    with pytest.raises(PreconditionError, match="Hom"):
        quotient_by_cut(
            alg_cycle4, arq_cycle4, ["P_a", "P_b", "P_c", "P_d", "S_b", "S_c"]
        )


def test_cut_analysis_abstract(tube_text):
    arq = parse_translation_quiver(tube_text)
    ray = [f"T{r}_0" for r in range(1, 6)]
    analysis = cut_analysis(arq, ray)
    assert analysis["is_cut"]
    assert analysis["hom_tau"] is None
    orbit = ["T1_0", "T1_1", "T1_2"]
    analysis2 = cut_analysis(arq, orbit)
    assert not analysis2["is_cut"]


def test_enumerate_matches_brute_force_on_tube(tube_text):
    arq = parse_translation_quiver(tube_text)
    fast = set(enumerate_cuts(arq))
    slow = set(brute_force_cuts(arq))
    assert fast == slow


def test_certify_d4_subspace_quiver():
    from tests.test_knitting import D4_TEXT

    alg = build_basis(parse_presentation(D4_TEXT))
    cert = certify_tilted(alg)
    assert cert.verdict == "CERTIFIED_TILTED"
    assert cert.witness == ["P_u1", "P_u2", "P_u3", "S_z"]
    assert cert.crosscheck.summands == 4


def test_certify_commutative_square():
    from tests.test_knitting import SQUARE_TEXT

    alg = build_basis(parse_presentation(SQUARE_TEXT))
    cert = certify_tilted(alg)
    assert cert.verdict == "CERTIFIED_TILTED"
    assert cert.crosscheck.passed


def test_certify_local_selfinjective_loop():
    from tests.test_knitting import LOOP_TEXT

    alg = build_basis(parse_presentation(LOOP_TEXT))
    cert = certify_tilted(alg)
    assert cert.verdict == "REFUTED_BY_ENUMERATION"
    assert cert.cuts_examined == 0


def test_equivalence_suite_on_extra_algebras():
    from tests.test_knitting import D4_TEXT, SQUARE_TEXT

    for text in (D4_TEXT, SQUARE_TEXT):
        alg = build_basis(parse_presentation(text))
        arq = knit(alg)
        for cut in enumerate_cuts(arq):
            ht = hom_tau_test(arq, cut)
            fwd = all(t[2] == 0 for t in ht.forward)
            bwd = all(t[2] == 0 for t in ht.backward)
            conv = convexity_checks(arq, cut)
            assert fwd == bwd == conv.weakly_convex
            if fwd:
                assert conv.acyclic


def test_cut_check_reads_the_faithfulness_of_sincere_faithful(
    arq_a2, arq_a3line, arq_b, arq_cycle3, arq_cycle4
):
    seen = set()
    for arq in (arq_a2, arq_a3line, arq_b, arq_cycle3, arq_cycle4):
        for cut in enumerate_cuts(arq):
            analysis = cut_analysis(arq, cut)
            flags = sincere_faithful([arq.module_of(n) for n in sorted(cut)])
            assert (analysis["sincere"], analysis["faithful"]) == flags, sorted(cut)
            seen.add(flags)
    # every combination but faithful without sincere, which cannot occur
    assert seen == {(False, False), (True, False), (True, True)}
