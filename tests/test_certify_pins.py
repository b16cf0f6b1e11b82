"""Reports of certification, cut enumeration and quotients, pinned, and
the block quivers read off a knit against knits of the blocks alone.

The digests are sha256 prefixes of rendered reports, recorded before the cut
walk propagated its conditions and before a disconnected quotient was
certified from its own knit; both changes must leave every byte alone.  The
digest of the quotients of algebras with long paths was recorded before
``QuotientResult.to_json`` and the one-pass ``rational_roots``.
"""

import hashlib

import pytest

from arquiver.algebra import build_basis, parse_presentation
from arquiver.cli import main
from arquiver.cuts import (
    _block_quiver,
    _sub_presentation,
    certify_tilted,
    hom_tau_conflict,
    iter_cuts,
    quotient_by_cut,
)
from arquiver.formats import render_report
from arquiver.graph import components
from arquiver.knitting import knit
from tests.conftest import FIXTURES
from tests.test_cut_references import dynkin_text
from tests.test_knitting import cycle_text


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def quotient_report(result):
    """The report ``arquiver quotient`` prints, built from the library result."""
    return result.to_json()


@pytest.fixture(scope="module")
def cycle12_quotients():
    """(cut, QuotientResult) for every hom-vanishing cut of the rad^2 = 0
    12-cycle, in walk order."""
    alg = build_basis(parse_presentation(cycle_text(12)))
    arq = knit(alg)
    return [
        (sorted(cut), quotient_by_cut(alg, arq, sorted(cut)))
        for cut in iter_cuts(arq, conflict=hom_tau_conflict(arq))
    ]


def test_cycle12_quotient_reports_are_pinned(cycle12_quotients):
    data = hashlib.sha256()
    for _cut, result in cycle12_quotients:
        data.update(render_report(quotient_report(result)).encode())
    assert len(cycle12_quotients) == 97
    assert data.hexdigest()[:16] == "e3bf3b1188b4cf60"


def rad3_cycle_text(n):
    """The oriented n-cycle over Q with radical cube zero."""
    lines = ["field Q"] + [f"vertex v{i}" for i in range(n)]
    lines += [f"arrow a{i}: v{i} -> v{(i + 1) % n}" for i in range(n)]
    lines += [f"relation a{(i + 2) % n}*a{(i + 1) % n}*a{i}" for i in range(n)]
    return "\n".join(lines) + "\n"


# algebras with basis paths of length >= 2, which reach the branch of
# ``present_quotient`` that spans rad^2 + ideal
LONG_PATH_TEXTS = {
    "A5 0000": (dynkin_text("A", 5, "0000"), 16),
    "D4 000": (dynkin_text("D", 4, "000"), 14),
    "a3_line.alg": ((FIXTURES / "a3_line.alg").read_text(), 4),
    "cycle4 rad3": (rad3_cycle_text(4), 8),
    "cycle5 rad3": (rad3_cycle_text(5), 10),
}


def test_quotients_of_algebras_with_long_paths_are_pinned():
    data = hashlib.sha256()
    for label, (text, count) in LONG_PATH_TEXTS.items():
        alg = build_basis(parse_presentation(text))
        assert max(p.length for p in alg.basis) >= 2
        arq = knit(alg)
        cuts = [sorted(cut) for cut in iter_cuts(arq, conflict=hom_tau_conflict(arq))]
        assert len(cuts) == count, label
        for cut in cuts:
            result = quotient_by_cut(alg, arq, cut)
            assert result.delta_is_cut and result.delta_is_slice, (label, cut)
            assert result.tau_preserved and result.projectives_remain_projective, (label, cut)
            assert result.certificate.verdict == "CERTIFIED_TILTED", (label, cut)
            data.update(render_report(quotient_report(result)).encode())
    assert data.hexdigest()[:16] == "52855f95ff297d3c"


def _cli(tmp_path, capsys, command, text):
    path = tmp_path / "in.alg"
    path.write_text(text)
    rc = main([*command, str(path)])
    captured = capsys.readouterr()
    return rc, _digest(captured.out), captured.err


@pytest.mark.parametrize(
    "n, digest", [(12, "bdb8e92d16c82fc2"), (14, "998166260838d73c")]
)
def test_cycle_certificates_are_pinned(tmp_path, capsys, n, digest):
    assert _cli(tmp_path, capsys, ["tilted", "certify"], cycle_text(n)) == (1, digest, "")


# (exit code, stdout digest) of ``ar build`` and ``tilted certify`` over two
# prime fields, recorded while an element of F_p was still an object
PINNED_PRIME_FIELD_RUNS = {
    ("b_a3.alg", "F 32003"): ((0, "b471b3fd060c14f3"), (0, "60705ef4efea81c0")),
    ("b_a3.alg", "F 3"): ((0, "90dace8614bcbd26"), (0, "60705ef4efea81c0")),
    ("cycle4_rad2.alg", "F 32003"): ((0, "57a1dbfa7288933c"), (1, "f750c03914ef11c8")),
    ("cycle4_rad2.alg", "F 3"): ((0, "0b2b5c7d0bb74bfa"), (1, "f750c03914ef11c8")),
}


@pytest.mark.parametrize("label, field", list(PINNED_PRIME_FIELD_RUNS))
def test_prime_field_builds_and_certificates_are_pinned(tmp_path, capsys, label, field):
    text = (FIXTURES / label).read_text().replace("field Q", f"field {field}", 1)
    build, certificate = PINNED_PRIME_FIELD_RUNS[label, field]
    assert _cli(tmp_path, capsys, ["ar", "build"], text) == (*build, "")
    assert _cli(tmp_path, capsys, ["tilted", "certify"], text) == (*certificate, "")


PINNED_ENUMERATIONS = {
    "a2.alg": "e800a8b7b232cf56",
    "a3_line.alg": "5e2f86d09ba77628",
    "b_a3.alg": "ac63b647fbfea4da",
    "cycle3_rad2.alg": "e476fc88127287f7",
    "cycle4_rad2.alg": "45245247c6912557",
    "cycle6": "22ffa6baf6287b10",
}


@pytest.mark.parametrize("label", list(PINNED_ENUMERATIONS))
def test_cut_enumerations_are_pinned(tmp_path, capsys, label):
    text = cycle_text(6) if label == "cycle6" else (FIXTURES / label).read_text()
    assert _cli(tmp_path, capsys, ["cut", "enumerate"], text) == (
        0, PINNED_ENUMERATIONS[label], ""
    )


DISCONNECTED_TEXT = """
field Q
vertex a
vertex b
vertex c
vertex d
arrow f: a -> b
arrow g: c -> d
"""

# D4 with its three arms pointing out, next to the path a1 -> a2 -> a3; the
# D4 block has modules named by dimension vector, M{0,1,1,1}#1 and others
D4_A3_TEXT = """
field Q
vertex u1
vertex u2
vertex u3
vertex z
vertex a1
vertex a2
vertex a3
arrow b1: z -> u1
arrow b2: z -> u2
arrow b3: z -> u3
arrow c1: a1 -> a2
arrow c2: a2 -> a3
"""


def test_disconnected_certificate_from_its_knit_is_pinned():
    alg = build_basis(parse_presentation(DISCONNECTED_TEXT))
    cert = certify_tilted(alg, arq=knit(alg))
    assert _digest(render_report(cert.to_json())) == "013767a94296cac6"
    assert cert.to_json() == certify_tilted(alg).to_json()


def test_disconnected_certificate_with_named_modules_is_pinned():
    alg = build_basis(parse_presentation(D4_A3_TEXT))
    cert = certify_tilted(alg, arq=knit(alg))
    assert _digest(render_report(cert.to_json())) == "dd4ce801d3c8dab3"
    assert cert.to_json() == certify_tilted(alg).to_json()


def _quiver_data(arq):
    vertices = [
        (n, v.is_projective, v.is_injective, v.dim_vector) for n, v in arq.vertices.items()
    ]
    meshes = {n: (m.tau, m.middle) for n, m in arq.meshes.items()}
    return vertices, arq.arrows, arq.tau, meshes, arq.complete


def assert_blocks_match_reknits(alg, arq, cert):
    """Each block quiver read off ``arq`` equals the knit of the block
    alone, and certifies as ``cert`` reports; returns the number of blocks."""
    arrows = [(a.source, a.target) for a in alg.quiver.arrows.values()]
    comps = components(alg.quiver.vertices, arrows)
    assert len(comps) == len(cert.blocks) > 1
    for comp, block_cert in zip(comps, cert.blocks):
        block = build_basis(_sub_presentation(alg.presentation, comp))
        reknit = knit(block)
        assert _quiver_data(_block_quiver(arq, block)) == _quiver_data(reknit)
        assert certify_tilted(block, arq=reknit).to_json() == block_cert.to_json()
    return len(comps)


def test_block_quivers_match_reknits_with_named_modules():
    alg = build_basis(parse_presentation(D4_A3_TEXT))
    arq = knit(alg)
    assert assert_blocks_match_reknits(alg, arq, certify_tilted(alg, arq=arq)) == 2


def test_block_quivers_of_cycle12_quotients_match_reknits(cycle12_quotients):
    blocks = quotients = 0
    for _cut, result in cycle12_quotients:
        if result.certificate.blocks is not None:
            blocks += assert_blocks_match_reknits(result.algebra, result.arq, result.certificate)
            quotients += 1
    assert (quotients, blocks) == (85, 216)
