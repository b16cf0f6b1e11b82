import json

import pytest

from arquiver.algebra import build_basis, parse_presentation
from arquiver.cli import main
from arquiver.cuts import certify_tilted, hom_tau_test, is_cut
from arquiver.errors import UnsupportedRadicalComputation
from arquiver.knitting import knit
from arquiver.modules import (
    end_algebra_analysis,
    hom_basis,
    is_isomorphic,
    projective_module,
    simple_module,
    translate,
)

CYCLE4_F5 = """
field F 5
vertex a
vertex b
vertex c
vertex d
arrow alpha: a -> c
arrow beta: b -> a
arrow gamma: c -> d
arrow delta: d -> b
radical_square_zero
"""

B_F2 = """
field F 2
vertex a
vertex b
vertex d
arrow beta: b -> a
arrow delta: d -> b
relation beta*delta
"""


@pytest.fixture(scope="module")
def alg_f5():
    return build_basis(parse_presentation(CYCLE4_F5))


def test_build_over_f5(alg_f5):
    assert alg_f5.dim == 8
    assert alg_f5.field.char == 5


def test_translate_over_f5(alg_f5):
    s = {v: simple_module(alg_f5, v) for v in "abcd"}
    assert is_isomorphic(translate(s["b"], "forward"), s["a"])
    assert translate(projective_module(alg_f5, "a"), "forward").is_zero()


def test_knit_and_certify_over_f5(alg_f5):
    arq = knit(alg_f5)
    assert len(arq.vertices) == 8
    delta = ["P_b", "S_b", "P_d"]
    assert is_cut(arq, delta)[0]
    assert hom_tau_test(arq, delta).all_zero
    cert = certify_tilted(alg_f5, arq=arq)
    assert cert.verdict == "REFUTED_BY_ENUMERATION"


def test_end_analysis_refuses_small_prime():
    alg = build_basis(parse_presentation(B_F2))
    from arquiver.modules import direct_sum

    total = direct_sum(
        [projective_module(alg, "b"), simple_module(alg, "b")]
    )
    with pytest.raises(UnsupportedRadicalComputation):
        end_algebra_analysis(total)


def test_hom_still_works_over_f2():
    alg = build_basis(parse_presentation(B_F2))
    p_b = projective_module(alg, "b")
    s_b = simple_module(alg, "b")
    assert len(hom_basis(p_b, s_b)) == 1


def linear_a(n, field):
    lines = [f"field {field}"] + [f"vertex v{i}" for i in range(1, n + 1)]
    lines += [f"arrow a{i}: v{i} -> v{i + 1}" for i in range(1, n)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n,p", [(5, 13), (6, 17)])
def test_cli_certify_over_prime_below_dim_end_t(tmp_path, capsys, n, p):
    # p <= dim End(T) of the witness (15 for A5, 21 for A6): heredity of
    # End(T) needs no trace form, so the report equals the one over Q
    reports = []
    for field in (f"F {p}", "Q"):
        path = tmp_path / f"a{n}.alg"
        path.write_text(linear_a(n, field))
        rc = main(["tilted", "certify", str(path)])
        captured = capsys.readouterr()
        assert (rc, captured.err) == (0, "")
        reports.append(captured.out)
    cert = json.loads(reports[0])
    assert cert["verdict"] == "CERTIFIED_TILTED"
    assert cert["witness"] == [f"P_v{i}" for i in range(1, n)] + [f"S_v{n}"]
    assert cert["crosscheck"]["passed"]
    assert reports[0] == reports[1]
