import pytest

from arquiver.algebra import Arrow, Path, Quiver, _parse_relation_expr, build_basis, parse_presentation
from arquiver.errors import InadmissibleIdeal, InputSyntaxError, NotFiniteDimensional
from arquiver.linalg import QQ, PrimeField
from tests.basis_reference import multiply
from tests.conftest import FIXTURES


def test_parse_cycle4(alg_cycle4):
    pres = alg_cycle4.presentation
    assert pres.quiver.vertices == ["a", "b", "c", "d"]
    assert len(pres.quiver.arrows) == 4
    assert len(pres.relations) == 4


def test_parse_a2(alg_a2):
    pres = alg_a2.presentation
    assert len(pres.quiver.vertices) == 2
    assert len(pres.quiver.arrows) == 1
    assert pres.relations == []


def test_parse_rejects_non_composable_relation():
    text = """
field Q
vertex a
vertex b
arrow f: a -> b
arrow g: a -> b
relation f*g
"""
    with pytest.raises(InputSyntaxError, match="non-composable"):
        parse_presentation(text)


def test_parse_rejects_unknown_labels():
    with pytest.raises(InputSyntaxError, match="unknown"):
        parse_presentation("field Q\nvertex a\narrow f: a -> z\n")
    with pytest.raises(InputSyntaxError, match="unknown arrow"):
        parse_presentation("field Q\nvertex a\narrow f: a -> a\nrelation f*h\n")


def test_parse_reports_line_numbers():
    try:
        parse_presentation("field Q\nvertex a\nbogus line\n")
    except InputSyntaxError as exc:
        assert "line 3" in str(exc)
    else:
        pytest.fail("expected a syntax error")


README_RELATION = """
field F 5
vertex a
vertex b
vertex c
arrow f: a -> b
arrow g: b -> c
arrow h: a -> b
relation 2*g*f - 1/3*g*h
"""


def test_prime_field_reads_a_quotient_scalar_as_a_product_with_an_inverse():
    # 1/3 = 2 in F_5, so the relation reads 2*g*f - 2*g*h
    pres = parse_presentation(README_RELATION)
    (rel,) = pres.relations
    assert [(c, "*".join(p.arrows)) for c, p in rel.terms] == [(2, "g*f"), (3, "g*h")]
    assert build_basis(pres).dim == 7


@pytest.mark.parametrize(
    "field,scalar",
    [("Q", "1/0"), ("F 2", "1/2"), ("F 5", "3/10")],
)
def test_a_scalar_that_does_not_parse_names_its_line(field, scalar):
    text = README_RELATION.replace("F 5", field).replace("1/3", scalar)
    with pytest.raises(InputSyntaxError, match=f"line 9: not an? .*scalar: '{scalar}'"):
        parse_presentation(text)


def test_parse_rejects_short_relation():
    text = "field Q\nvertex a\nvertex b\narrow f: a -> b\nrelation f\n"
    with pytest.raises(InputSyntaxError):
        parse_presentation(text)


def test_parse_duplicate_labels():
    with pytest.raises(InputSyntaxError, match="duplicate"):
        parse_presentation("field Q\nvertex a\nvertex a\n")


def test_relation_with_coefficients():
    text = """
field Q
vertex a
vertex b
vertex c
arrow f: a -> b
arrow g: b -> c
arrow h: a -> b
relation 2*g*f - 1/3 * g*h
"""
    pres = parse_presentation(text)
    (rel,) = pres.relations
    assert len(rel.terms) == 2
    coeffs = sorted(str(c) for c, _ in rel.terms)
    assert coeffs == ["-1/3", "2"]


# Each sign in front of a term flips it or leaves it, and each term starts
# afresh at +; the expected terms and error texts were recorded with the
# earlier index loop, which tracked whether a term was expected.
RELATION_CASES = [
    ("g*f - g*h", [("1", "g*f"), ("-1", "g*h")], [("1", "g*f"), ("4", "g*h")]),
    ("- -g*f", [("1", "g*f")], [("1", "g*f")]),
    ("+ -g*f", [("-1", "g*f")], [("4", "g*f")]),
    ("g*f g*h", [("1", "g*f"), ("1", "g*h")], [("1", "g*f"), ("1", "g*h")]),
    ("g*f -", [("1", "g*f")], [("1", "g*f")]),
    ("-+-g*f + -1/2*g*h", [("1", "g*f"), ("-1/2", "g*h")], [("1", "g*f"), ("2", "g*h")]),
    ("1/2*g*f - 3 * g*h", [("1/2", "g*f"), ("-3", "g*h")], [("3", "g*f"), ("2", "g*h")]),
    ("0*g*f", [("0", "g*f")], [("0", "g*f")]),
    ("2", "relation term is a bare scalar", "relation term is a bare scalar"),
    ("g*f + 2", "relation term is a bare scalar", "relation term is a bare scalar"),
    ("*", "empty term in relation: '*'", "empty term in relation: '*'"),
    ("1/0*g*f", "not a rational scalar: '1/0'", "not an F_5 scalar: '1/0'"),
    ("1/5*g*f", [("1/5", "g*f")], "not an F_5 scalar: '1/5'"),
    ("g*x", "unknown arrow label 'x'", "unknown arrow label 'x'"),
    ("f*g", "non-composable word: f after g (f starts at a, g ends at c)",
     "non-composable word: f after g (f starts at a, g ends at c)"),
    ("", "empty relation expression", "empty relation expression"),
]


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
@pytest.mark.parametrize("expr,over_q,over_f5", RELATION_CASES)
def test_relation_signs_and_refusals_are_pinned(field, expr, over_q, over_f5):
    quiver = Quiver(["a", "b", "c"], [Arrow("f", "a", "b"), Arrow("h", "a", "b"), Arrow("g", "b", "c")])
    expected = over_q if field == QQ else over_f5
    if isinstance(expected, str):
        with pytest.raises(InputSyntaxError) as info:
            _parse_relation_expr(expr, quiver, field, 3)
        assert str(info.value) == f"line 3: {expected}"
    else:
        terms = _parse_relation_expr(expr, quiver, field, 3)
        assert [(field.format(c), repr(p)) for c, p in terms] == expected


def test_dimensions(alg_cycle4, alg_cycle3, alg_a2):
    assert alg_cycle4.dim == 8 and alg_cycle4.nilpotency == 2
    assert alg_cycle3.dim == 6 and alg_cycle3.nilpotency == 2
    assert alg_a2.dim == 3 and alg_a2.nilpotency == 2


def test_basis_is_sorted_by_length_then_word(alg_cycle4):
    keys = [(p.length, p.arrows) for p in alg_cycle4.basis]
    assert keys == sorted(keys)


def test_b_fixture_basis(alg_b):
    assert alg_b.dim == 5
    words = [repr(p) for p in alg_b.basis]
    assert words == ["e_a", "e_b", "e_d", "beta", "delta"]


def test_loop_without_relation_is_infinite_dimensional():
    text = "field Q\nvertex a\narrow x: a -> a\n"
    with pytest.raises(NotFiniteDimensional):
        build_basis(parse_presentation(text), bound=8)


def test_loop_with_square_zero():
    text = "field Q\nvertex a\narrow x: a -> a\nrelation x*x\n"
    alg = build_basis(parse_presentation(text))
    assert alg.dim == 2 and alg.nilpotency == 2


def test_inhomogeneous_relation_quotient():
    # f*e - longer path; the quotient identifies the two
    text = """
field Q
vertex a
vertex b
vertex c
vertex d
arrow e: a -> b
arrow f: b -> c
arrow g: c -> d
arrow h: b -> d
relation h*e - g*f*e
relation g*f*e
relation h*e
"""
    alg = build_basis(parse_presentation(text))
    # paths: 4 idempotents, 4 arrows, f*e, g*f, and the killed length-2/3 words
    assert alg.nilpotency == 3
    assert alg.dim == 10


def test_multiply_idempotents(alg_cycle4):
    ea = alg_cycle4.idempotent("a")
    assert multiply(alg_cycle4, ea, ea) == ea
    eb = alg_cycle4.idempotent("b")
    zero = alg_cycle4.zero_element()
    assert multiply(alg_cycle4, ea, eb) == zero


def test_multiply_idempotent_with_arrow(alg_cycle4):
    # alpha: a -> c, so e_c absorbs it on the left
    alpha = alg_cycle4.basis_element(alg_cycle4.arrow_index("alpha"))
    ec = alg_cycle4.idempotent("c")
    ea = alg_cycle4.idempotent("a")
    assert multiply(alg_cycle4, ec, alpha) == alpha
    assert multiply(alg_cycle4, alpha, ea) == alpha
    assert multiply(alg_cycle4, ea, alpha) == alg_cycle4.zero_element()


def test_multiply_beta_delta_vanishes_in_b(alg_b):
    beta = alg_b.basis_element(alg_b.arrow_index("beta"))
    delta = alg_b.basis_element(alg_b.arrow_index("delta"))
    assert multiply(alg_b, beta, delta) == alg_b.zero_element()
    assert multiply(alg_b, delta, beta) == alg_b.zero_element()


def test_unit_acts_as_identity(alg_cycle4):
    one = alg_cycle4.unit()
    for i in range(alg_cycle4.dim):
        x = alg_cycle4.basis_element(i)
        assert multiply(alg_cycle4, one, x) == x
        assert multiply(alg_cycle4, x, one) == x


def test_opposite_is_involutive(alg_cycle4):
    op = alg_cycle4.opposite()
    assert op.dim == alg_cycle4.dim
    assert op.opposite() is alg_cycle4
    assert op.table == [
        [alg_cycle4.table[j][i] for j in range(alg_cycle4.dim)]
        for i in range(alg_cycle4.dim)
    ]


def test_opposite_reverses_arrows(alg_a2):
    op = alg_a2.opposite()
    (arrow,) = op.quiver.arrows.values()
    assert (arrow.source, arrow.target) == ("b", "a")


@pytest.mark.parametrize(
    "tamper,triple",
    [
        # e_a * alpha := alpha.  At (e_a, e_b, alpha) the product e_a * e_b
        # is empty, but e_a * (e_b * alpha) = alpha: a triple with one empty
        # product is compared
        ((0, 2, [(2, 1)]), (0, 1, 2)),
        # e_a * e_a := 2 e_a.  At (alpha, e_a, e_a) both products are
        # nonempty: (alpha * e_a) * e_a = alpha but alpha * (e_a * e_a) = 2 alpha
        ((0, 0, [(0, 2)]), (2, 0, 0)),
    ],
    ids=["one-product-empty", "both-products-nonempty"],
)
def test_associativity_check_finds_a_tampered_product(tamper, triple):
    alg = build_basis(parse_presentation((FIXTURES / "a2.alg").read_text()))
    assert [repr(p) for p in alg.basis] == ["e_a", "e_b", "alpha"]
    i, j, product = tamper
    alg.table[i][j] = product
    with pytest.raises(InadmissibleIdeal) as info:
        alg.check_associativity()
    assert str(info.value).endswith(f"not associative at triple ({triple[0]},{triple[1]},{triple[2]})")


def test_path_ordering_dataclass():
    p = Path(1, ("x",), "a", "b")
    q = Path(2, ("x", "y"), "a", "b")
    assert p < q


SQUARE_WITH_SCALAR = """
field {field}
vertex a
vertex b
vertex c
vertex d
arrow x: a -> b
arrow y: b -> d
arrow z: a -> c
arrow w: c -> d
arrow v: d -> a
relation y*x - 3*w*z
relation v*y
relation z*v
"""


@pytest.mark.parametrize("field", ["Q", "F 5"])
def test_basis_product_is_the_dense_product_with_a_unit_vector(field):
    alg = build_basis(parse_presentation(SQUARE_WITH_SCALAR.format(field=field)))
    assert any(c != 1 for row in alg.table for entry in row for _k, c in entry)
    coeffs = [0, 1, 2, 4, -3] if field == "Q" else [0, 1, 2, 4, 3]
    elements = [[coeffs[(i * j + i + j) % 5] for j in range(alg.dim)] for i in range(alg.dim)]
    elements += [alg.basis_element(i) for i in range(alg.dim)]
    for x in elements:
        terms = [(j, c) for j, c in enumerate(x) if c]
        for i in range(alg.dim):
            b = alg.basis_element(i)
            assert alg.basis_product(i, terms, True) == multiply(alg, b, x)
            assert alg.basis_product(i, terms, False) == multiply(alg, x, b)
