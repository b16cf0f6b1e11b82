"""``build_basis`` against the two-loop build it replaced (``basis_reference``).

Random bound quivers with at most 4 vertices and 5 arrows, loops allowed,
with monomial, commutativity and mixed-length relations whose coefficients
are +-1, 2 and 3, over Q, F 2, F 3 and F 5.  Both builds must give the same
nilpotency, basis, table and entry types, or the same refusal.  The bound
stays at 6 or less, and lower where the quiver has many paths: past that,
the dense saturation of either build can take minutes on one draw.
"""

from hypothesis import assume, given, settings, strategies as st

from arquiver.algebra import Arrow, Quiver, build_basis
from tests.basis_reference import reference_build_basis
from tests.test_basis_and_cut_pins import BASIS_CASES, build_outcome

_PATH_LIMIT = 300


def _paths(quiver, max_len):
    """Every path of length 1..max_len, as written words."""
    level = [(a.label,) for a in quiver.arrows.values()]
    out = []
    for _ in range(max_len):
        out.extend(level)
        level = [(a.label, *w) for w in level for a in quiver.by_source[quiver.arrows[w[0]].target]]
    return out


def _ends(quiver, word):
    return quiver.arrows[word[-1]].source, quiver.arrows[word[0]].target


@st.composite
def presentations(draw):
    """(algebra file text, bound) of a random bound quiver."""
    n = draw(st.sampled_from([4, 3, 2, 1]))
    vertices = [f"v{i}" for i in range(n)]
    # half the quivers are acyclic, with arrows along the chain of vertices,
    # so that many quotients are finite and have long paths
    acyclic = n > 1 and draw(st.booleans())
    arrows = []
    for k in range(draw(st.integers(1, 5))):
        s = k % (n - 1) if acyclic else draw(st.integers(0, n - 1))
        t = draw(st.integers(s + 1, min(s + 2, n - 1)) if acyclic else st.integers(0, n - 1))
        arrows.append(Arrow(f"a{k}", vertices[s], vertices[t]))
    quiver = Quiver(vertices, arrows)
    words = [w for w in _paths(quiver, 4) if len(w) >= 2]
    coeff = st.sampled_from(["", "-", "2*", "-2*", "3*", "-3*"])
    relations = []
    for _ in range(draw(st.integers(0, 4))) if words else ():
        first = draw(st.sampled_from(words))
        kind = draw(st.sampled_from(["monomial", "commutativity", "mixed"]))
        term = draw(coeff) + "*".join(first)
        parallel = [
            w for w in words
            if w != first and _ends(quiver, w) == _ends(quiver, first)
            and (len(w) == len(first)) == (kind == "commutativity")
        ]
        if kind != "monomial" and parallel:
            second = draw(st.sampled_from(parallel))
            term += f" + {draw(coeff)}" + "*".join(second)
        relations.append(term.replace("+ -", "- "))
    field = draw(st.sampled_from(["Q", "F 2", "F 3", "F 5"]))
    bound = draw(st.integers(2, 6))
    while bound > 2 and len(_paths(quiver, bound)) > _PATH_LIMIT:
        bound -= 1
    lines = [f"field {field}"] + [f"vertex {v}" for v in vertices]
    lines += [f"arrow {a.label}: {a.source} -> {a.target}" for a in arrows]
    lines += [f"relation {r}" for r in relations]
    return "\n".join(lines) + "\n", bound


@settings(max_examples=200, deadline=None)
@given(presentations())
def test_build_basis_matches_the_two_loop_build(case):
    text, bound = case
    outcome = build_outcome(build_basis, text, bound)
    assume(not outcome.startswith("InputSyntaxError"))
    assert outcome == build_outcome(reference_build_basis, text, bound)


def test_the_two_loop_build_gives_the_pinned_cases():
    for text, bound in BASIS_CASES.values():
        assert build_outcome(reference_build_basis, text, bound) == build_outcome(
            build_basis, text, bound
        )
