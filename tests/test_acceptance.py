"""Acceptance suite: the fixture-level exit criteria, exact arithmetic only.

Each criterion prints one pass/fail line (visible with `pytest -s`).  All
comparisons are exact; there are no numeric tolerances anywhere.
"""

import itertools
import time

from arquiver.algebra import build_basis, parse_presentation
from arquiver.cuts import (
    certify_tilted,
    convexity_checks,
    enumerate_cuts,
    hom_tau_test,
    is_cut,
    quotient_by_cut,
    slice_by_definition,
)
from arquiver.formats import emit_algebra_file, parse_translation_quiver, render_report
from arquiver.knitting import knit, path_classify, rad_power_depth, simple_arrow_paths
from arquiver.linalg import RowSpace
from arquiver.modules import is_isomorphic, sincere_faithful, translate
from tests.conftest import FIXTURES

DELTA4 = ["P_b", "S_b", "P_d"]
DELTA3 = ["P_b", "S_b", "P_a"]


def _criterion(n, description, checks):
    failed = [label for label, ok in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    print(f"criterion {n:2d} [{status}] {description}")
    assert not failed, f"criterion {n} failed: {failed}"


def test_criterion_1_cycle4_quiver():
    start = time.monotonic()
    alg = build_basis(parse_presentation((FIXTURES / "cycle4_rad2.alg").read_text()))
    arq = knit(alg)
    elapsed = time.monotonic() - start
    checks = [
        ("dim A = 8", alg.dim == 8),
        (
            "vertex names",
            sorted(arq.vertices)
            == ["P_a", "P_b", "P_c", "P_d", "S_a", "S_b", "S_c", "S_d"],
        ),
        (
            "tau on simples",
            dict(sorted(arq.tau.items()))
            == {"S_a": "S_c", "S_b": "S_a", "S_c": "S_d", "S_d": "S_b"},
        ),
        ("runtime < 5 s", elapsed < 5.0),
    ]
    _criterion(1, "4-cycle algebra: dimension, knit, translation", checks)


def test_criterion_2_delta_analysis(alg_cycle4, arq_cycle4):
    ok, _ = is_cut(arq_cycle4, DELTA4)
    ht = hom_tau_test(arq_cycle4, DELTA4)
    mods = [arq_cycle4.module_of(n) for n in DELTA4]
    _sincere, faithful = sincere_faithful(mods)
    from arquiver.modules import annihilator

    gens = annihilator(mods)
    span = RowSpace(alg_cycle4.dim, gens)
    expected = RowSpace(
        alg_cycle4.dim,
        [
            alg_cycle4.idempotent("c"),
            alg_cycle4.basis_element(alg_cycle4.arrow_index("alpha")),
            alg_cycle4.basis_element(alg_cycle4.arrow_index("gamma")),
        ],
    )
    orbits = arq_cycle4.tau_orbits()
    missed = all(
        not set(next(o for o in orbits if p in o)) & set(DELTA4)
        for p in ("P_a", "P_c")
    )
    checks = [
        ("is_cut", ok),
        ("hom vanishing", ht.all_zero),
        ("not faithful", not faithful),
        ("annihilator dimension 3", len(gens) == 3),
        ("annihilator equals span{e_c, alpha, gamma}", span == expected),
        ("misses the orbits of P_a and P_c", missed),
    ]
    _criterion(2, "Delta = {P_b, S_b, P_d} over the 4-cycle", checks)


def test_criterion_3_quotient(alg_cycle4, arq_cycle4):
    result = quotient_by_cut(alg_cycle4, arq_cycle4, DELTA4)
    pres = result.presentation
    arrows = {(a.label, a.source, a.target) for a in pres.quiver.arrows.values()}
    cc = result.certificate.crosscheck
    relation_ok = False
    if len(pres.relations) == 1:
        (rel,) = pres.relations
        relation_ok = len(rel.terms) == 1 and repr(rel.terms[0][1]) == "beta*delta"
    checks = [
        ("three vertices", pres.quiver.vertices == ["a", "b", "d"]),
        ("arrows d -> b -> a", arrows == {("beta", "b", "a"), ("delta", "d", "b")}),
        ("one independent relation, the path d -> b -> a", relation_ok),
        ("dim B = 5", result.algebra.dim == 5),
        ("certified tilted", result.certificate.verdict == "CERTIFIED_TILTED"),
        ("Delta is a slice of the quotient quiver", result.delta_is_slice),
        ("cross-check passes all four", cc is not None and cc.passed),
    ]
    _criterion(3, "quotient by Delta: B and its certificate", checks)


def test_criterion_4_cycle3(alg_cycle3, arq_cycle3):
    ok, _ = is_cut(arq_cycle3, DELTA3)
    ht = hom_tau_test(arq_cycle3, DELTA3)
    sincere, faithful = sincere_faithful([arq_cycle3.module_of(n) for n in DELTA3])
    cert = certify_tilted(alg_cycle3, arq=arq_cycle3)
    checks = [
        ("dim A = 6", alg_cycle3.dim == 6),
        ("six vertices", len(arq_cycle3.vertices) == 6),
        ("Delta' is a cut", ok),
        ("Delta' sincere", sincere),
        ("hom vanishing", ht.all_zero),
        ("not faithful", not faithful),
        ("refuted by enumeration", cert.verdict == "REFUTED_BY_ENUMERATION"),
    ]
    _criterion(4, "3-cycle algebra and its sincere non-faithful cut", checks)


def test_criterion_5_cycle4_refuted(alg_cycle4, arq_cycle4):
    cert = certify_tilted(alg_cycle4, arq=arq_cycle4)
    names = arq_cycle4.names()
    brute = set()
    for r in range(1, len(names) + 1):
        for combo in itertools.combinations(names, r):
            if is_cut(arq_cycle4, combo)[0]:
                brute.add(frozenset(combo))
    fast = set(enumerate_cuts(arq_cycle4))
    hom_vanishing = [c for c in brute if hom_tau_test(arq_cycle4, c).all_zero]
    checks = [
        ("refuted by enumeration", cert.verdict == "REFUTED_BY_ENUMERATION"),
        ("backtracking agrees with the brute-force filter", fast == brute),
        ("examined count matches", cert.cuts_examined == len(hom_vanishing)),
    ]
    _criterion(5, "4-cycle itself is not tilted", checks)


def test_criterion_6_equivalence_suite(arq_cycle4, arq_cycle3, arq_b):
    counterexamples = []
    for arq in (arq_cycle4, arq_cycle3, arq_b):
        for cut in enumerate_cuts(arq):
            ht = hom_tau_test(arq, cut)
            fwd = all(t[2] == 0 for t in ht.forward)
            bwd = all(t[2] == 0 for t in ht.backward)
            conv = convexity_checks(arq, cut)
            if not (fwd == bwd == conv.weakly_convex):
                counterexamples.append((sorted(cut), "equivalence"))
            if fwd:
                if not conv.acyclic:
                    counterexamples.append((sorted(cut), "acyclicity"))
                inv = arq.tau_inv
                for x in cut:
                    if arq.tau.get(x) in cut or inv.get(x) in cut:
                        counterexamples.append((sorted(cut), "translate overlap"))
    checks = [("zero counterexamples", not counterexamples)]
    _criterion(6, "hom-vanishing / weak-convexity equivalence over all cuts", checks)


def test_criterion_7_translate_oracle(arq_cycle4, arq_cycle3, arq_b, arq_a2):
    problems = []
    for arq in (arq_cycle4, arq_cycle3, arq_b, arq_a2):
        from arquiver.knitting import verify_mesh_invariants

        verify_mesh_invariants(arq)
        for name, vert in arq.vertices.items():
            if not vert.is_projective:
                direct = translate(vert.module, "forward")
                if not is_isomorphic(direct, arq.module_of(arq.tau[name])):
                    problems.append((name, "tau mismatch"))
            if not vert.is_injective:
                ahead = translate(vert.module, "backward")
                back = translate(ahead, "forward")
                if not is_isomorphic(back, vert.module):
                    problems.append((name, "tau tau^- not identity"))
            if name in arq.tau:
                # tau^- tau is the identity on non-projectives
                tau_mod = arq.module_of(arq.tau[name])
                if not is_isomorphic(translate(tau_mod, "backward"), vert.module):
                    problems.append((name, "tau^- tau not identity"))
    checks = [("no oracle disagreements", not problems)]
    _criterion(7, "knitted translation agrees with DTr; mesh laws hold", checks)


def test_criterion_8_presectional_depths(arq_cycle4, arq_cycle3, arq_b, arq_a2):
    failures = []
    for arq in (arq_cycle4, arq_cycle3, arq_b, arq_a2):
        for path in simple_arrow_paths(arq, 3):
            n = len(path) - 1
            if not path_classify(path, arq).presectional:
                continue
            choices = [arq.arrow_maps[(path[i], path[i + 1])] for i in range(n)]
            found = False
            for combo in itertools.product(*choices):
                comp = combo[0]
                for step in combo[1:]:
                    comp = step.compose(comp)
                if not comp.is_zero() and rad_power_depth(comp, arq).depth == n:
                    found = True
                    break
            if not found:
                failures.append(path)
    checks = [("every presectional path realizes its depth", not failures)]
    _criterion(8, "presectional paths of length <= 3 have full-depth composites", checks)


def test_criterion_9_slice_sets(arq_a2, arq_b):
    mismatches = []
    for arq in (arq_a2, arq_b):
        names = arq.names()
        literal = set()
        lemma_form = set()
        for r in range(1, len(names) + 1):
            for combo in itertools.combinations(names, r):
                if slice_by_definition(arq, combo):
                    literal.add(frozenset(combo))
                ok, _ = is_cut(arq, combo)
                if ok:
                    mods = [arq.module_of(n) for n in combo]
                    sincere, _f = sincere_faithful(mods)
                    if sincere and convexity_checks(arq, combo).convex_in_ind:
                        lemma_form.add(frozenset(combo))
        witness_filter = set()
        for cut in enumerate_cuts(arq):
            if hom_tau_test(arq, cut).all_zero:
                mods = [arq.module_of(n) for n in sorted(cut)]
                if sincere_faithful(mods)[1]:
                    witness_filter.add(frozenset(cut))
        if not (literal == lemma_form == witness_filter):
            mismatches.append((literal, lemma_form, witness_filter))
    checks = [("three characterizations coincide", not mismatches)]
    _criterion(9, "slices = sincere convex cuts = certification witnesses", checks)


def test_criterion_10_abstract_tube(tube_text):
    arq = parse_translation_quiver(tube_text)
    ray = [f"T{r}_0" for r in range(1, 6)]
    orbit = ["T1_0", "T1_1", "T1_2"]
    checks = [
        ("ray passes the cut check", is_cut(arq, ray)[0]),
        ("mouth orbit fails the cut check", not is_cut(arq, orbit)[0]),
    ]
    _criterion(10, "truncated rank-3 tube: ray versus tau-orbit", checks)


def test_criterion_11_round_trip(alg_cycle4, arq_cycle4):
    result = quotient_by_cut(alg_cycle4, arq_cycle4, DELTA4)
    body1 = render_report(result.certificate.to_json())
    emitted = emit_algebra_file(result.presentation)
    alg_again = build_basis(parse_presentation(emitted))
    body2 = render_report(certify_tilted(alg_again).to_json())
    checks = [("byte-identical certificate body", body1 == body2)]
    _criterion(11, "emit / parse / recertify reproduces the certificate", checks)
