import json
import os
import pathlib
import subprocess
import sys

import pytest

from arquiver.algebra import build_basis, parse_presentation
from arquiver.cli import main
from arquiver.cuts import certify_tilted, quotient_by_cut
from arquiver.errors import InputSyntaxError
from arquiver.formats import (
    ar_quiver_report,
    emit_algebra_file,
    export_dot,
    is_algebra_file,
    parse_translation_quiver,
    render_report,
    split_vertex_list,
)
from tests.conftest import FIXTURES


def fixture_path(name):
    return str(FIXTURES / name)


# -- algebra file round trips -------------------------------------------------


def test_algebra_file_emit_parse_round_trip(alg_b):
    text = emit_algebra_file(alg_b.presentation)
    reparsed = build_basis(parse_presentation(text))
    assert reparsed.dim == alg_b.dim
    assert reparsed.nilpotency == alg_b.nilpotency
    assert reparsed.presentation.quiver.vertices == alg_b.presentation.quiver.vertices
    assert emit_algebra_file(reparsed.presentation) == text


def test_emit_handles_coefficients():
    text = """
field Q
vertex a
vertex b
vertex c
arrow f: a -> b
arrow g: b -> c
arrow h: a -> b
relation 2*g*f - 1/3*g*h
"""
    pres = parse_presentation(text)
    emitted = emit_algebra_file(pres)
    reparsed = parse_presentation(emitted)
    assert len(reparsed.relations) == 1
    assert emit_algebra_file(reparsed) == emitted


def test_is_algebra_file(tube_text):
    assert is_algebra_file("field Q\nvertex a\n")
    assert not is_algebra_file(tube_text)


# -- translation-quiver round trips --------------------------------------------


def export_translation_quiver(arq):
    """Translation-quiver file text of ``arq``, sorted: the inverse that
    ``parse_translation_quiver`` is checked against."""
    lines = []
    for name in sorted(arq.vertices):
        v = arq.vertices[name]
        flags = []
        if v.is_projective:
            flags.append("proj")
        if v.is_injective:
            flags.append("inj")
        if v.boundary:
            flags.append("boundary")
        lines.append(" ".join(["vertex", name] + flags))
    for (s, t) in sorted(arq.arrows):
        m = arq.arrows[(s, t)]
        suffix = f" {m}" if m > 1 else ""
        lines.append(f"arrow {s} -> {t}{suffix}")
    for x in sorted(arq.tau):
        lines.append(f"tau {x} = {arq.tau[x]}")
    return "\n".join(lines) + "\n"


def test_translation_quiver_round_trip(arq_cycle4):
    text = export_translation_quiver(arq_cycle4)
    again = parse_translation_quiver(text)
    assert again.combinatorial_data() == arq_cycle4.combinatorial_data()
    assert export_translation_quiver(again) == text


def test_translation_quiver_multiplicity_round_trip():
    text = "vertex X proj\nvertex Y\narrow X -> Y 2\ntau Y = X\n"
    arq = parse_translation_quiver(text)
    assert arq.arrows[("X", "Y")] == 2
    assert export_translation_quiver(arq) == text


def test_tube_fixture_parses(tube_text):
    arq = parse_translation_quiver(tube_text)
    assert len(arq.vertices) == 15
    assert arq.vertices["T5_0"].boundary
    assert arq.tau["T1_0"] == "T1_1"


# -- DOT ------------------------------------------------------------------------


def test_dot_cycle4(arq_cycle4):
    dot = export_dot(arq_cycle4)
    assert dot.count("->") == 8 + 4  # 8 mesh arrows, 4 translation edges
    assert dot.count("style=dashed") == 4
    assert dot.count("shape=Msquare") == 4
    assert "cluster_highlight" not in dot
    assert export_dot(arq_cycle4) == dot


def test_dot_a2(arq_a2):
    dot = export_dot(arq_a2)
    assert dot.count("style=dashed") == 1
    solid = dot.count("->") - dot.count("style=dashed")
    assert solid == 2


# -- reports ---------------------------------------------------------------------


def test_report_is_deterministic(alg_cycle4, arq_cycle4):
    r1 = render_report(ar_quiver_report(arq_cycle4, alg_cycle4))
    r2 = render_report(ar_quiver_report(arq_cycle4, alg_cycle4))
    assert r1 == r2
    data = json.loads(r1)
    assert list(data) == ["algebra", "ar_quiver"]
    assert len(data["ar_quiver"]["vertices"]) == 8


# -- CLI --------------------------------------------------------------------------


def test_cli_algebra_check(capsys):
    rc = main(["algebra", "check", fixture_path("cycle4_rad2.alg")])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["dimension"] == 8


def test_cli_algebra_check_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("field Q\nvertex a\narrow f: a -> z\n")
    rc = main(["algebra", "check", str(bad)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error" in captured.err


@pytest.mark.parametrize("field,scalar", [("Q", "1/0"), ("F 2", "1/2")])
def test_cli_refuses_a_scalar_that_does_not_parse(tmp_path, capsys, field, scalar):
    bad = tmp_path / "bad.alg"
    bad.write_text(
        f"field {field}\nvertex a\nvertex b\nvertex c\narrow f: a -> b\n"
        f"arrow g: b -> c\narrow h: a -> b\nrelation g*f - {scalar}*g*h\n"
    )
    rc = main(["algebra", "check", str(bad)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.splitlines() == [err.strip()]
    assert err.startswith("error: line 8: ") and scalar in err


def test_cli_refuses_an_algebra_file_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "latin1.alg"
    bad.write_bytes("field Q\nvertex \u00e9\n".encode("latin-1"))
    for argv in (["algebra", "check", str(bad)], ["ar", "build", str(bad)]):
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {bad}: ")
        assert captured.err.splitlines() == [captured.err.strip()]


@pytest.mark.parametrize(
    "argv",
    [
        ["ar", "build", fixture_path("a2.alg"), "--out"],
        ["ar", "build", fixture_path("kronecker.alg"), "--max-vertices", "3", "--out"],
        ["ar", "dot", fixture_path("a2.alg"), "--out"],
        ["quotient", fixture_path("cycle4_rad2.alg"), "--modules", "P_b,S_b,P_d", "--emit-algebra"],
    ],
    ids=["ar-build", "ar-build-partial", "ar-dot", "quotient"],
)
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_cli_refuses_an_output_path_that_cannot_be_written(tmp_path, capsys, argv, where):
    target = tmp_path / "missing" / "out.txt" if where == "missing-directory" else tmp_path
    rc = main(argv + [str(target)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert captured.err.splitlines() == [captured.err.strip()]


def test_cli_algebra_check_infinite(tmp_path, capsys):
    loop = tmp_path / "loop.alg"
    loop.write_text("field Q\nvertex a\narrow x: a -> a\n")
    rc = main(["algebra", "check", str(loop)])
    capsys.readouterr()
    assert rc == 3


def test_cli_ar_build(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    rc = main(["ar", "build", fixture_path("cycle4_rad2.alg"), "--out", str(out_file)])
    capsys.readouterr()
    assert rc == 0
    data = json.loads(out_file.read_text())
    assert len(data["ar_quiver"]["vertices"]) == 8


def test_cli_ar_build_limit(capsys):
    rc = main(["ar", "build", fixture_path("kronecker.alg"), "--max-vertices", "8"])
    captured = capsys.readouterr()
    assert rc == 3
    data = json.loads(captured.out)
    assert data["partial"] is True


def test_cli_default_limits_stop_the_kronecker_knit(capsys):
    # the Kronecker algebra has indecomposables of every dimension, so the
    # default --max-dim must end the knit with exit 3 and a partial report
    rc = main(["ar", "build", fixture_path("kronecker.alg")])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err == (
        "error: module of total dimension 35 exceeds --max-dim 32 (32 vertices registered, "
        "3 modules queued, largest dimension 31)\n"
    )
    data = json.loads(captured.out)
    assert data["partial"] is True
    assert all(sum(v["dim_vector"]) <= 32 for v in data["ar_quiver"]["vertices"])


NOT_POSITIVE = [
    ("tilted certify", ["tilted", "certify", "a2.alg"], "--cap"),
    ("cut enumerate", ["cut", "enumerate", "a2.alg"], "--cap"),
    ("ar build", ["ar", "build", "a2.alg"], "--max-vertices"),
    ("ar build", ["ar", "build", "a2.alg"], "--max-dim"),
    ("quotient", ["quotient", "a2.alg", "--modules", "P_a"], "--max-dim"),
    ("cut check", ["cut", "check", "a2.alg", "--modules", "P_a"], "--max-vertices"),
]


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("prog,command,flag", NOT_POSITIVE)
def test_cli_refuses_limits_that_are_not_positive(capsys, prog, command, flag, value):
    # exit 2 with one usage error, as for any other input error
    argv = [fixture_path(a) if a.endswith(".alg") else a for a in command]
    with pytest.raises(SystemExit) as exc:
        main(argv + [f"{flag}={value}"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if "error:" in line] == [
        f"arquiver {prog}: error: argument {flag}: not a positive integer: '{value}'"
    ]


def test_cli_ar_dot(tmp_path, capsys):
    out_file = tmp_path / "c4.dot"
    rc = main(["ar", "dot", fixture_path("cycle4_rad2.alg"), "--out", str(out_file)])
    capsys.readouterr()
    assert rc == 0
    assert out_file.read_text().startswith("digraph")


def test_cli_ar_dot_escapes_quotes_and_backslashes_in_names(tmp_path, capsys):
    # a translation-quiver vertex name is any token without spaces
    src = tmp_path / "names.tq"
    src.write_text('vertex a"b proj\nvertex c\\ inj\narrow a"b -> c\\\ntau c\\ = a"b\n')
    out_file = tmp_path / "names.dot"
    rc = main(["ar", "dot", str(src), "--out", str(out_file)])
    capsys.readouterr()
    assert rc == 0
    assert out_file.read_text() == (
        "digraph ar_quiver {\n"
        "  rankdir=LR;\n"
        '  "a\\"b" [shape=box];\n'
        '  "c\\\\" [shape=diamond];\n'
        '  "a\\"b" -> "c\\\\";\n'
        '  "c\\\\" -> "a\\"b" [style=dashed, constraint=false];\n'
        "}\n"
    )


def test_cli_refuses_a_translation_quiver_name_no_vertex_list_can_name(tmp_path, capsys):
    # ``--modules`` splits on commas outside braces, so such a name could
    # never be named there; the file is refused on its vertex line
    src = tmp_path / "comma.tq"
    src.write_text("vertex c inj\nvertex x,y proj\narrow x,y -> c\n")
    rc = main(["cut", "check", str(src), "--modules", "x,y"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == (
        "error: line 2: vertex name 'x,y' has a comma outside braces, "
        "so no vertex list could name it\n"
    )


def test_cli_names_a_translation_quiver_vertex_with_commas_inside_braces(tmp_path, capsys):
    src = tmp_path / "braces.tq"
    src.write_text("vertex M{1,1} proj\nvertex c inj\narrow M{1,1} -> c\n")
    rc = main(["cut", "check", str(src), "--modules", "M{1,1}"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["cut"] == ["M{1,1}"] and out["is_cut"] is True


@pytest.mark.parametrize("text", ["x,y", ",x", "x,", "{a},b", "a{,}b,c"])
def test_a_name_with_a_comma_outside_braces_is_refused_where_a_list_would_split_it(text):
    assert split_vertex_list(text) != [text]
    with pytest.raises(InputSyntaxError, match="line 1: vertex name"):
        parse_translation_quiver(f"vertex {text}\n")


def test_cli_cut_check_positive(capsys):
    rc = main(
        ["cut", "check", fixture_path("cycle4_rad2.alg"), "--modules", "P_b,S_b,P_d"]
    )
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["is_cut"] is True
    assert out["hom_tau"]["all_zero"] is True
    assert out["faithful"] is False
    assert out["annihilator"]["dimension"] == 3


def test_cli_cut_check_negative(capsys):
    rc = main(
        ["cut", "check", fixture_path("cycle4_rad2.alg"), "--modules", "S_a,S_b"]
    )
    out = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert out["is_cut"] is False


def test_cli_cut_check_unknown_module(capsys):
    rc = main(
        ["cut", "check", fixture_path("cycle4_rad2.alg"), "--modules", "P_b,NOPE"]
    )
    captured = capsys.readouterr()
    assert rc == 2
    assert "unknown module" in captured.err


def test_cli_cut_enumerate(capsys):
    rc = main(["cut", "enumerate", fixture_path("a2.alg")])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["count"] == 2
    assert sorted(map(tuple, out["cuts"])) == [("P_a", "S_a"), ("P_a", "S_b")]


def test_cli_tilted_certify_positive(capsys):
    rc = main(["tilted", "certify", fixture_path("b_a3.alg")])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["verdict"] == "CERTIFIED_TILTED"


def test_cli_tilted_certify_negative(capsys):
    rc = main(["tilted", "certify", fixture_path("cycle3_rad2.alg")])
    out = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert out["verdict"] == "REFUTED_BY_ENUMERATION"


SQUARE = """field Q
vertex a
vertex b
vertex c
vertex d
arrow x: a -> b
arrow y: b -> d
arrow z: a -> c
arrow w: c -> d
relation y*x - {scalar}*w*z
"""


def test_cli_certifies_a_square_with_a_large_relation_scalar(tmp_path):
    # the rational root candidates of its endomorphism eigenvalues were once
    # found by a scan up to each coefficient (about 50 s on a 2-vCPU Xeon at
    # 1000000007/999983), then by trial division up to the square roots of
    # the coefficients (past 25 s at 100000000000000000039/999983); the
    # quadratic minimal polynomials met here now take the formula
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    runs = []
    for scalar in ("2", "1000000007/999983", "100000000000000000039/999983"):
        path = tmp_path / "square.alg"
        path.write_text(SQUARE.format(scalar=scalar))
        runs.append(
            subprocess.run(
                [sys.executable, "-m", "arquiver", "tilted", "certify", str(path)],
                capture_output=True, text=True, env=env, timeout=20,
            )
        )
    small, *large = runs
    assert small.returncode == 0 and json.loads(small.stdout)["verdict"] == "CERTIFIED_TILTED"
    for run in large:
        assert (run.returncode, run.stdout, run.stderr) == (small.returncode, small.stdout, small.stderr)


A2_OVER = "field F {p}\nvertex a\nvertex b\narrow x: a -> b\n"


def _ar_build(tmp_path, text):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    path = tmp_path / "a2.alg"
    path.write_text(text)
    return subprocess.run(
        [sys.executable, "-m", "arquiver", "ar", "build", str(path)],
        capture_output=True, text=True, env=env, timeout=20,
    )


def test_cli_reads_a_large_prime_and_refuses_pseudoprimes(tmp_path):
    # primality was once tested by trial division: an A2 over F_(10^18 + 3)
    # still ran when killed at 20 s
    run = _ar_build(tmp_path, A2_OVER.format(p=1000000000000000003))
    assert (run.returncode, run.stderr) == (0, "")
    assert json.loads(run.stdout)["algebra"]["field"] == "F 1000000000000000003"
    # a Carmichael number and strong pseudoprimes to small bases
    for n in (561, 2047, 3215031751):
        run = _ar_build(tmp_path, A2_OVER.format(p=n))
        assert (run.returncode, run.stdout, run.stderr) == (2, "", f"error: line 1: {n} is not prime\n")
    # past the bound below which the bases 2..41 certify a prime
    n = 10**25 + 13
    run = _ar_build(tmp_path, A2_OVER.format(p=n))
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr == (
        f"error: line 1: {n} is too large: primality is certified only below 3317044064679887385961981\n"
    )


def test_cli_quotient_and_emit(tmp_path, capsys):
    emitted = tmp_path / "b.alg"
    rc = main(
        [
            "quotient",
            fixture_path("cycle4_rad2.alg"),
            "--modules",
            "P_b,S_b,P_d",
            "--emit-algebra",
            str(emitted),
        ]
    )
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["quotient"]["dimension"] == 5
    assert out["delta_is_slice"] is True
    text = emitted.read_text()
    assert text == (FIXTURES / "b_a3.alg").read_text().replace(
        "# linear A3 quiver d -> b -> a with one zero relation\n", ""
    )


def test_cli_quotient_rejects_non_cut(capsys):
    rc = main(
        ["quotient", fixture_path("cycle4_rad2.alg"), "--modules", "S_a,S_b"]
    )
    captured = capsys.readouterr()
    assert rc == 2
    assert "hypothesis" in captured.err


D4_CUT = ["M{1,0,1,1}#1", "M{1,1,0,1}#1", "M{2,1,1,1}#1", "P_u3"]


def _d4_file(tmp_path):
    from tests.test_knitting import D4_TEXT

    path = tmp_path / "d4.alg"
    path.write_text(D4_TEXT)
    return str(path)


def test_cli_cut_check_takes_names_with_commas(tmp_path, capsys):
    # knit names M{d1,...}#k hold commas; only commas outside braces split
    rc = main(["cut", "check", _d4_file(tmp_path), "--modules", ",".join(D4_CUT)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["cut"] == D4_CUT
    assert out["is_cut"] is True
    assert out["hom_tau"]["all_zero"] is True


def test_cli_quotient_takes_names_with_commas(tmp_path, capsys):
    rc = main(["quotient", _d4_file(tmp_path), "--modules", " , ".join(reversed(D4_CUT))])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert len(out["lifted_cut"]) == len(D4_CUT)
    assert out["delta_is_cut"] is True
    assert out["certificate"]["verdict"] == "CERTIFIED_TILTED"


def test_cli_cut_check_abstract_tube(capsys):
    rc = main(
        [
            "cut",
            "check",
            fixture_path("tube_rank3.tq"),
            "--modules",
            "T1_0,T2_0,T3_0,T4_0,T5_0",
        ]
    )
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["is_cut"] is True
    assert out["hom_tau"] is None


def test_cli_reports_are_byte_stable(capsys):
    rc1 = main(["tilted", "certify", fixture_path("b_a3.alg")])
    out1 = capsys.readouterr().out
    rc2 = main(["tilted", "certify", fixture_path("b_a3.alg")])
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_certificate_round_trip_is_byte_identical(alg_cycle4, arq_cycle4):
    result = quotient_by_cut(alg_cycle4, arq_cycle4, ["P_b", "S_b", "P_d"])
    body1 = render_report(result.certificate.to_json())
    emitted = emit_algebra_file(result.presentation)
    alg_again = build_basis(parse_presentation(emitted))
    cert_again = certify_tilted(alg_again)
    body2 = render_report(cert_again.to_json())
    assert body1 == body2


def test_cli_internal_invariant_failure_is_a_clean_refusal(monkeypatch, capsys):
    # a Fitting split that raises each block of phi to the power 0 instead
    # of its size finds no kernel; that must end in one error line and exit
    # code 2, not a traceback
    import arquiver.modules as modules

    monkeypatch.setattr(modules, "_block_powers", lambda phi: {v: b.power(0) for v, b in phi.mats.items()})
    rc = main(["ar", "build", fixture_path("a3_line.alg")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == "error: Fitting summands do not split the module\n"
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_algebra_lines_mark_an_algebra_file():
    for line in ["field F 3", "relation b*a", "radical_square_zero", "arrow x: a -> b"]:
        assert is_algebra_file(f"vertex a\nvertex b\n{line}\n")
    assert not is_algebra_file("vertex a\nvertex b\n")
    assert not is_algebra_file("vertex a\n# field Q\narrow a -> a\ntau a = a\n")


@pytest.mark.parametrize(
    "command",
    [["cut", "enumerate"], ["cut", "check", "--modules", "P_a,S_b"], ["ar", "dot"], ["tilted", "certify"]],
)
def test_an_algebra_file_without_a_field_line_is_read_over_q(tmp_path, capsys, command):
    """Every command reads such a file as an algebra over Q, as it reads the
    same file with ``field Q`` on top; ``cut check``, ``cut enumerate`` and
    ``ar dot`` once read it as a translation-quiver file and refused its
    arrow line."""
    body = "vertex a\nvertex b\narrow x: a -> b\n"
    outputs = []
    for name, text in [("bare.alg", body), ("q.alg", "field Q\n" + body)]:
        path = tmp_path / name
        path.write_text(text)
        extra = ["--out", str(tmp_path / f"{name}.dot")] if command == ["ar", "dot"] else []
        rc = main([*command[:2], str(path), *command[2:], *extra])
        dot = (tmp_path / f"{name}.dot").read_text() if extra else None
        outputs.append((rc, capsys.readouterr(), dot))
    assert outputs[0] == outputs[1]
    rc, captured, _dot = outputs[0]
    assert (rc, captured.err) == (0, "")
