"""CLI fuzz on random presentations that are finite-dimensional by construction.

A presentation is either an acyclic quiver, each arrow going from a lower
to a higher vertex index, with monomial relations and two-term
commutativity relations, or a quiver with no loops whose radical squares to
zero.  Each has at most 6 vertices and lives over Q or F_2, F_3, F_5, F_7,
and its relation scalars include 1000000007/999983, whose rational root
candidates once took a scan up to each coefficient.

``algebra check``, ``tilted certify`` and ``cut enumerate`` must exit 0 to 3
with no traceback.  An exit of 2, or of 3 from a command that fails on a
limit, prints exactly one ``error:`` line on stderr; ``tilted certify``
reports its limit in the ``NOT_CERTIFIED`` report instead (in the
block that hit it, when the algebra is not connected), and prints
nothing on stderr.  Presentations with loops stay out: some of them are
infinite-dimensional in ways the basis build does not yet detect.

The invariance oracle runs presentations whose scalars are units mod 32003
over Q and over ``F 32003``.  The indecomposables of a representation-finite
algebra, and so its AR quiver, do not change with the field here: whenever
both runs finish, the ``tilted certify`` verdict, the ``ar build`` vertex
count and flags, and ``combinatorial_data`` must agree.

The renaming oracle gives every vertex and arrow a new name and lists the
vertex, arrow and relation lines in a new order.  That changes the basis
order and the order in which the knit meets the modules, but not the
algebra: whenever both runs finish, the ``tilted certify`` verdict, the
``ar build`` vertex count, and the multiset of each AR vertex's flags
together with its dimension vector, read as {vertex: dim} through the
renaming, must agree.
"""

import contextlib
import io
import json
import pathlib
import re
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from arquiver.algebra import build_basis, parse_presentation
from arquiver.cli import main
from arquiver.errors import ArquiverError
from arquiver.knitting import knit

FIELDS = ["Q", "F 2", "F 3", "F 5", "F 7", "F 17"]
SCALARS = ["1000000007/999983", "1/2", "1", "-1", "2", "-3"]
LIMITS = ["--max-dim", "16", "--max-vertices", "80", "--cap", "20000"]
COMMANDS = [["algebra", "check"], ["tilted", "certify", *LIMITS], ["cut", "enumerate", *LIMITS]]


def _paths(arrows, length):
    """The paths of the given length, as lists of arrow indices in the
    order they are walked."""
    paths = [[i] for i in range(len(arrows))]
    for _ in range(length - 1):
        paths = [p + [i] for p in paths for i, (s, _t) in enumerate(arrows) if s == arrows[p[-1]][1]]
    return paths


def _word(path):
    return "*".join(f"a{i}" for i in reversed(path))


# the scalars that are units mod 32003: numerator and denominator prime to it
UNIT_SCALARS = [s for s in SCALARS if all(int(t) % 32003 for t in s.lstrip("-").split("/"))]


@st.composite
def presentations(draw, fields=FIELDS, scalars=SCALARS):
    n = draw(st.integers(1, 6))
    rad2 = draw(st.booleans())
    pairs = [(s, t) for s in range(n) for t in range(n) if (s != t if rad2 else s < t)]
    # a square 0 -> 1 -> 3, 0 -> 2 -> 3 first, often, so that commutativity
    # relations get drawn
    square = [(0, 1), (1, 3), (0, 2), (2, 3)] if n >= 4 and not rad2 and draw(st.booleans()) else []
    arrows = square + (draw(st.lists(st.sampled_from(pairs), max_size=5)) if pairs else [])
    lines = [f"field {draw(st.sampled_from(fields))}"]
    lines += [f"vertex v{v}" for v in range(n)]
    lines += [f"arrow a{i}: v{s} -> v{t}" for i, (s, t) in enumerate(arrows)]
    if rad2:
        lines.append("radical_square_zero")
        return "\n".join(lines) + "\n"
    longer = _paths(arrows, 2) + _paths(arrows, 3)
    if longer:
        for p in draw(st.lists(st.sampled_from(longer), max_size=2)):
            lines.append(f"relation {_word(p)}")
    parallel = [
        (p, q)
        for p in longer
        for q in longer
        if p < q and arrows[p[0]][0] == arrows[q[0]][0] and arrows[p[-1]][1] == arrows[q[-1]][1]
    ]
    if parallel:
        for p, q in draw(st.lists(st.sampled_from(parallel), min_size=bool(square), max_size=2)):
            lines.append(f"relation {_word(p)} - {draw(st.sampled_from(scalars))}*{_word(q)}")
    return "\n".join(lines) + "\n"


def _limit_reached(report):
    """Whether a certificate, or one of its connected blocks, stopped on a limit."""
    return bool(report.get("limit")) or any(_limit_reached(b) for b in report.get("blocks") or [])


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=60_000)
@given(presentations())
def test_cli_exits_cleanly_on_finite_presentations(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "fuzz.alg"
        path.write_text(text)
        for command in COMMANDS:
            code, out, err = _run([*command[:2], str(path), *command[2:]])
            assert code in (0, 1, 2, 3), (command, text)
            assert "Traceback" not in err
            errors = [line for line in err.splitlines() if line.startswith("error:")]
            if code == 3 and command[0] == "tilted":
                report = json.loads(out)
                assert report["verdict"] == "NOT_CERTIFIED" and _limit_reached(report), text
                assert err == ""
            elif code in (2, 3):
                assert len(errors) == 1 and err == errors[0] + "\n", (command, text, err)
            else:
                assert err == "", (command, text, err)


def _certify_and_build(text):
    """(``tilted certify`` verdict, ``ar build`` report), or None when either
    command stops on a limit or refuses the algebra."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "fuzz.alg"
        path.write_text(text)
        code, out, _err = _run(["tilted", "certify", str(path), *LIMITS])
        if code not in (0, 1):
            return None
        verdict = json.loads(out)["verdict"]
        code, out, _err = _run(["ar", "build", str(path), *LIMITS[:4]])
        if code != 0:
            return None
    return verdict, json.loads(out)


def _outcome(text):
    """(certify verdict, ar build vertices with flags, combinatorial_data),
    or None when either command stops on a limit or refuses the algebra."""
    ran = _certify_and_build(text)
    if ran is None:
        return None
    verdict, report = ran
    flags = [(v["projective"], v["injective"]) for v in report["ar_quiver"]["vertices"]]
    try:
        data = knit(build_basis(parse_presentation(text)), max_vertices=80, max_dim=16).combinatorial_data()
    except ArquiverError:
        return None
    return verdict, len(flags), flags, data


@settings(max_examples=40, deadline=60_000)
@given(presentations(fields=["Q"], scalars=UNIT_SCALARS))
def test_q_and_a_large_prime_field_agree(text):
    assert UNIT_SCALARS and "1000000007/999983" in UNIT_SCALARS
    over_q = _outcome(text)
    over_p = _outcome(text.replace("field Q", "field F 32003", 1))
    if over_q is not None and over_p is not None:
        assert over_q == over_p, text


@st.composite
def renamed_presentations(draw):
    """(text, renamed text, renaming): the renamed text gives every vertex
    and arrow a new name, in a new order, and lists the vertex, arrow and
    relation lines in a new order."""
    text = draw(presentations())
    field, *body = text.splitlines()
    groups = [[line for line in body if line.startswith(kind)] for kind in ("vertex", "arrow", "relation")]
    rest = [line for line in body if not line.startswith(("vertex", "arrow", "relation"))]
    renaming = {}
    for prefix, new, lines in (("v", "w", groups[0]), ("a", "b", groups[1])):
        order = draw(st.permutations(range(len(lines))))
        renaming.update({f"{prefix}{i}": f"{new}{k}" for i, k in enumerate(order)})

    def rename(line):
        return re.sub(r"\b[va]\d+\b", lambda m: renaming[m.group()], line)

    lines = [field]
    for group in groups:
        lines += [rename(line) for line in draw(st.permutations(group))]
    return text, "\n".join(lines + rest) + "\n", renaming


def _vertex_shapes(report, renaming):
    """The (projective, injective) flags and the dimension vector, as sorted
    (vertex, dim) pairs with each vertex renamed, of every AR vertex."""
    names = [renaming.get(v, v) for v in report["algebra"]["vertices"]]
    return sorted(
        ((v["projective"], v["injective"]), sorted(zip(names, v["dim_vector"])))
        for v in report["ar_quiver"]["vertices"]
    )


@settings(max_examples=40, deadline=60_000)
@given(renamed_presentations())
def test_renaming_and_reordering_change_no_answer(case):
    text, renamed_text, renaming = case
    original = _certify_and_build(text)
    renamed = _certify_and_build(renamed_text)
    if original is None or renamed is None:
        return
    (verdict, report), (renamed_verdict, renamed_report) = original, renamed
    assert verdict == renamed_verdict, (text, renamed_text)
    # equal multisets: the same vertex count, flags and dimension vectors
    assert _vertex_shapes(report, renaming) == _vertex_shapes(renamed_report, {}), (text, renamed_text)
