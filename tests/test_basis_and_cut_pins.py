"""The basis build, the cut check and the per-cut report, pinned.

The digests are sha256 prefixes recorded before the ideal saturation, the
cut conditions and the report records were each written once; every later
form of that code must give the same bytes.  The basis digest covers the
nilpotency, the basis in order and the multiplication table with the type
of each entry (an element of Q is an ``int`` or a ``Fraction``, one of
F_p an ``int``), or the exception class and text of a refused presentation.
The basis digest was recorded again when F_p elements became ints: the
text changed only where the type name of an F_p entry is written.
"""

import hashlib
import random

import pytest

from arquiver.algebra import build_basis, parse_presentation
from arquiver.cuts import cut_analysis, enumerate_cuts, is_cut
from arquiver.errors import ArquiverError
from arquiver.formats import parse_translation_quiver, render_report
from arquiver.knitting import knit
from tests.conftest import FIXTURES
from tests.test_cut_references import dynkin_text
from tests.test_knitting import CYCLE6_TEXT


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def basis_fingerprint(alg):
    """Nilpotency, basis and table of an ``AlgebraBasis``, entry types included."""
    table = [
        [[(k, type(c).__name__, str(c)) for k, c in entry] for entry in row] for row in alg.table
    ]
    return repr((alg.nilpotency, [repr(p) for p in alg.basis], table))


def build_outcome(build, text, bound=32):
    """``basis_fingerprint`` of the built algebra, or the refusal."""
    try:
        return basis_fingerprint(build(parse_presentation(text), bound))
    except ArquiverError as exc:
        return f"{type(exc).__name__}: {exc}"


def _alg(field, vertices, arrows, relations=()):
    lines = [f"field {field}"] + [f"vertex {v}" for v in vertices]
    lines += [f"arrow {a}" for a in arrows] + [f"relation {r}" for r in relations]
    return "\n".join(lines) + "\n"


# a path of length 4 and one of length 2 between the same two vertices
_LONG_SHORT = (["v0", "v1", "v2", "v3", "v4", "w"],
               ["a1: v0 -> v1", "a2: v1 -> v2", "a3: v2 -> v3", "a4: v3 -> v4",
                "b1: v0 -> w", "b2: w -> v4"])
# two loops at one vertex
_LOOPS = (["v"], ["x: v -> v", "y: v -> v"])
# a commutative square
_SQUARE = (["p", "q", "r", "s"], ["a: p -> q", "b: q -> s", "c: p -> r", "d: r -> s"])

BASIS_CASES = {
    **{name: ((FIXTURES / name).read_text(), 32) for name in sorted(
        p.name for p in FIXTURES.glob("*.alg"))},
    "long-short Q": (_alg("Q", *_LONG_SHORT, ["a4*a3*a2*a1 - 3*b2*b1"]), 32),
    "long-short F 3": (_alg("F 3", *_LONG_SHORT, ["2*a4*a3*a2*a1 + b2*b1"]), 32),
    "long-short F 2": (_alg("F 2", *_LONG_SHORT, ["a4*a3*a2*a1 + b2*b1"]), 32),
    "long-short monomial": (_alg("Q", *_LONG_SHORT, ["a3*a2", "b2*b1 - 1/2*a4*a3*a2*a1"]), 32),
    "loops x^2 = y^3": (_alg("Q", *_LOOPS, ["x*x - y*y*y", "x*y", "y*x", "x*x*x"]), 32),
    "loops F 3": (_alg("F 3", *_LOOPS, ["x*x + 2*y*y*y", "x*y", "y*x", "x*x*x"]), 32),
    "loops F 2": (_alg("F 2", *_LOOPS, ["x*x - y*y*y*y", "x*y - y*x", "x*x*x"]), 32),
    "loops 2/3": (_alg("Q", *_LOOPS, ["2/3*x*x - y*y*y", "x*y + 3*y*x", "y*x*x", "x*x*x"]), 32),
    # finite (dimension 5, rad^4 = 0), but certifying x^N in I takes a
    # product of length N + 1, so no N is accepted: a known defect, which a
    # build that certifies N exactly changes to nilpotency 4
    "loops past the bound": (_alg("Q", *_LOOPS, ["x*x - y*y*y", "x*y", "y*x"]), 6),
    "square Q": (_alg("Q", *_SQUARE, ["b*a - 2*d*c"]), 32),
    "square 2/3": (_alg("Q", *_SQUARE, ["2/3*b*a - 4/3*d*c"]), 32),
    "square F 3": (_alg("F 3", *_SQUARE, ["b*a - 2*d*c"]), 32),
    "square F 2 zero": (_alg("F 2", *_SQUARE, ["b*a + d*c"]), 32),
    "free loop": (_alg("Q", ["v"], ["x: v -> v"]), 32),
    "free loops bound 5": (_alg("F 3", *_LOOPS, ["x*y - y*x"]), 5),
    "many loops": (_alg("Q", ["v"], [f"x{i}: v -> v" for i in range(150)]), 32),
    "coefficient 2 over F 2": (_alg("F 2", *_SQUARE, ["2*b*a"]), 32),
}

BASIS_DIGEST = "615a7c23f77a52f4"


def test_basis_builds_are_pinned():
    data = "".join(
        f"{name}\n{build_outcome(build_basis, text, bound)}\n"
        for name, (text, bound) in BASIS_CASES.items()
    )
    assert _digest(data) == BASIS_DIGEST


CUT_TEXTS = {
    **{name: (FIXTURES / name).read_text() for name in
       ["a2.alg", "a3_line.alg", "b_a3.alg", "cycle3_rad2.alg", "cycle4_rad2.alg"]},
    "cycle6": CYCLE6_TEXT,
    "D5 0001": dynkin_text("D", 5, "0001"),
}

CUT_DIGESTS = {
    "a2.alg": "ff11f51775e71709",
    "a3_line.alg": "2dbad2973bb1ed0a",
    "b_a3.alg": "cf1df1fdd50d432a",
    "cycle3_rad2.alg": "dca95d0ad6e279da",
    "cycle4_rad2.alg": "66d53417d4d5cc23",
    "cycle6": "e87ee96b8da0a16f",
    "D5 0001": "23aad619c66e138a",
    "tube_rank3.tq": "49a79c703fe53170",
}


def _subsets(arq, label):
    """Twelve seeded cuts (or all of them) and twelve seeded vertex subsets."""
    rng = random.Random(label)
    names = sorted(arq.vertices)
    cuts = [sorted(c) for c in enumerate_cuts(arq)]
    picked = rng.sample(cuts, min(12, len(cuts)))
    for _ in range(12):
        picked.append(sorted(rng.sample(names, rng.randint(1, len(names)))))
    return picked


@pytest.fixture(scope="module")
def cut_quivers(tube_text):
    arqs = {label: knit(build_basis(parse_presentation(text))) for label, text in CUT_TEXTS.items()}
    arqs["tube_rank3.tq"] = parse_translation_quiver(tube_text)
    return arqs


@pytest.mark.parametrize("label", [*CUT_TEXTS, "tube_rank3.tq"])
def test_cut_checks_and_reports_are_pinned(cut_quivers, label):
    arq = cut_quivers[label]
    data = hashlib.sha256()
    for subset in _subsets(arq, label):
        ok, violations = is_cut(arq, subset)
        data.update(render_report([ok, [v.to_json() for v in violations]]).encode())
        data.update(render_report(cut_analysis(arq, subset)).encode())
    assert data.hexdigest()[:16] == CUT_DIGESTS[label]
