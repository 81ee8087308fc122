"""Expression grammar: lexing, precedence, round-trips, evaluation, instances."""

import json
import random
import re
from fractions import Fraction

import pytest

from ktangent.cech import CubicCover, ProjectiveCover
from ktangent.errors import (InstanceSyntaxError, UnknownIdentifier,
                             Unsupported, Mismatch, DivisionByZero,
                             DegreeTooLarge)
from ktangent.scalars import make_tower, Algebraic, Transcendental
from ktangent.funcrings import FunctionRing, DualElem
from ktangent.differentials import (base_q, base_top, absolute_on_dual,
                                    d, wedge)
from ktangent.milnor import SymbolWord
from ktangent import parser
from ktangent.parser import (Expr, parse, evaluate, load_instance,
                             SuiteConfig, DIFF_KEYWORDS)

QQ = make_tower([])


def _ring():
    return FunctionRing(QQ, ("x", "y"))


def _bases(tower):
    return {"d_Q": base_q(), "d_k": base_top(tower), "d_C": base_top(tower),
            "d_Ceps": absolute_on_dual(tower.num_levels)}


# -- shape of parsed trees ---------------------------------------------------

def test_atoms():
    assert parse("3") == Expr("num", (3,))
    assert parse("x") == Expr("name", ("x",))
    assert parse("eps") == Expr("eps", ())


def test_positions_do_not_affect_equality():
    a = parse("x + y")
    b = parse("x  +\n  y")
    assert a == b
    assert hash(a) == hash(b)


def test_precedence_power_beats_unary_minus():
    e = parse("-x^2")
    assert e.kind == "neg"
    assert e.args[0] == Expr("pow", (Expr("name", ("x",)), 2))


def test_precedence_product_beats_wedge_beats_sum():
    e = parse("a + b /\\ c * d")
    assert e.kind == "add"
    w = e.args[1]
    assert w.kind == "wedge"
    assert w.args[1].kind == "mul"


def test_unary_minus_beats_product():
    e = parse("-a*b")
    assert e.kind == "mul"
    assert e.args[0].kind == "neg"


def test_left_association():
    e = parse("a - b - c")
    assert e.kind == "sub" and e.args[0].kind == "sub"
    e = parse("a/b/c")
    assert e.kind == "div" and e.args[0].kind == "div"


def test_wedge_spellings_agree():
    assert parse("a ∧ b") == parse("a /\\ b")


def test_typeset_product_and_minus_aliases():
    assert parse("a · b") == parse("a*b")
    assert parse("a − b") == parse("a - b")


def test_symbol_braces():
    e = parse("{x, 1-x}")
    assert e.kind == "symbol" and len(e.args) == 2


def test_derivative_keywords():
    for kw in DIFF_KEYWORDS:
        e = parse(f"{kw}(x)")
        assert e.kind == "diff" and e.args[0] == kw


def test_parenthesized_negative_exponent():
    assert parse("x^(-3)") == parse("x^-3")


def test_power_does_not_chain():
    with pytest.raises(InstanceSyntaxError):
        parse("2^3^2")


def test_parser_and_printer_read_one_binding_table(monkeypatch):
    # bind the wedge tighter than the product: the parser and the printer
    # both follow, so printing still round-trips
    monkeypatch.setitem(parser._PREC, "wedge", 3)
    for k in ("mul", "div"):
        monkeypatch.setitem(parser._PREC, k, 2)
    a, b, c = (Expr("name", (v,)) for v in "abc")
    assert parse("a*b /\\ c") == Expr("mul", (a, Expr("wedge", (b, c))))
    e = Expr("wedge", (Expr("mul", (a, b)), c))
    assert str(e) == "(a*b) /\\ c" and parse(str(e)) == e


def test_every_node_is_placed_at_its_first_character():
    # a tab and a carriage return are one column each; a line starts at col 1
    e = parse("x +\r\n\t-{y, 2}^3 /\\\n (d_C(x)) * eps")
    assert e.kind == "add" and e.pos == (1, 1)
    w = e.args[1]
    assert w.kind == "wedge" and w.pos == (2, 2)
    neg, mul = w.args
    assert neg.pos == (2, 2) and neg.args[0].pos == (2, 3)  # the pow, at its '{'
    assert [a.pos for a in neg.args[0].args[0].args] == [(2, 4), (2, 7)]
    assert mul.kind == "mul" and mul.pos == (3, 2)  # the diff, at its '('
    assert mul.args[0].args[1].pos == (3, 7) and mul.args[1].pos == (3, 13)


@pytest.mark.parametrize("text", [
    pytest.param("(" * 5000 + "x" + ")" * 5000, id="parentheses"),
    pytest.param("-" * 5000 + "x", id="minus-signs"),
    pytest.param("{" * 5000 + "x" + "}" * 5000, id="braces"),
])
def test_nesting_past_the_stack_is_refused_at_the_token_reached(text):
    with pytest.raises(InstanceSyntaxError, match="nested too deeply") as err:
        parse(text)
    assert err.value.line == 1 and text[err.value.col - 1] in "({-"


@pytest.mark.parametrize("text, col", [
    pytest.param("1" * 4301, 1, id="alone"),
    pytest.param("x +\n  2 * " + "7" * 5000 + " - y", 7, id="second-line"),
])
def test_integer_literal_past_the_digit_cap_is_refused_where_it_starts(text, col):
    with pytest.raises(InstanceSyntaxError, match="more than 4300 digits") as err:
        parse(text)
    assert (err.value.line, err.value.col) == (text.count("\n") + 1, col)


def test_integer_literal_of_4300_digits_parses():
    assert parse("9" * 4300).args[0] == 10 ** 4300 - 1


def test_nesting_within_the_stack_parses():
    assert parse("(" * 150 + "x" + ")" * 150) == parse("x")
    assert parse("-" * 150 + "x").kind == "neg"


# -- syntax diagnostics ------------------------------------------------------

def test_error_carries_position():
    with pytest.raises(InstanceSyntaxError) as err:
        parse("x +\n  @")
    assert err.value.line == 2
    assert err.value.col == 3


def test_unclosed_paren():
    with pytest.raises(InstanceSyntaxError, match="expected"):
        parse("(x + y")


def test_unclosed_symbol():
    with pytest.raises(InstanceSyntaxError, match="symbol"):
        parse("{x, y")


def test_empty_input():
    with pytest.raises(InstanceSyntaxError):
        parse("")


def test_trailing_garbage_is_flagged():
    with pytest.raises(InstanceSyntaxError, match="after the expression"):
        parse("x y")


def test_derivative_requires_parens():
    with pytest.raises(InstanceSyntaxError, match="d_C"):
        parse("d_C x")


@pytest.mark.parametrize("text,col", [("x^²", 3), ("x + ²", 5)])
def test_superscript_digit_is_an_unexpected_character(text, col):
    with pytest.raises(InstanceSyntaxError, match="unexpected character") as err:
        parse(text)
    assert (err.value.line, err.value.col) == (1, col)


@pytest.mark.parametrize("text,col", [("x²", 2), ("y_1³ + 1", 4), ("ab¹", 3)])
def test_a_name_ends_before_a_superscript_digit(text, col):
    with pytest.raises(InstanceSyntaxError, match="unexpected character") as err:
        parse(text)
    assert (err.value.line, err.value.col) == (1, col)


def test_a_name_continues_with_letters_decimal_digits_and_underscores():
    e = parse("x_1y2٣ * é")
    assert [(a.kind, a.args) for a in e.args] == [("name", ("x_1y2٣",)), ("name", ("é",))]


def test_decimal_digits_of_any_script_read_as_numbers():
    assert parse("x^٣") == parse("x^3")


def test_non_integer_exponent():
    with pytest.raises(InstanceSyntaxError, match="integer"):
        parse("x^y")


# -- round trips -------------------------------------------------------------

SAMPLES = [
    "{1 + eps*(1/x), y}",
    "d_C(g/f) /\\ d_C(y)/y",
    "{x, 1-x}",
    "-x^2",
    "a - (b - c)",
    "a*(b*c)",
    "(a + b) /\\ c",
    "x^-3*y + 2",
    "d_Q(x*y) /\\ d_k(y) - d_Ceps(eps*x)",
    "{x, y, x + y, 1/2}",
]


@pytest.mark.parametrize("text", SAMPLES)
def test_print_parse_round_trip(text):
    tree = parse(text)
    assert parse(str(tree)) == tree


def _random_expr(rng, depth):
    """A random tree over a safe name pool; every kind the printer knows."""
    if depth <= 0:
        leaf = rng.randrange(3)
        if leaf == 0:
            return Expr("num", (rng.randrange(12),))
        if leaf == 1:
            return Expr("name", (rng.choice("abgxy"),))
        return Expr("eps", ())
    k = rng.choice(["add", "sub", "mul", "div", "wedge", "neg", "pow",
                    "symbol", "diff"])
    if k in ("add", "sub", "mul", "div", "wedge"):
        return Expr(k, (_random_expr(rng, depth - 1),
                        _random_expr(rng, depth - 1)))
    if k == "neg":
        return Expr("neg", (_random_expr(rng, depth - 1),))
    if k == "pow":
        return Expr("pow", (_random_expr(rng, 0), rng.randrange(-4, 5)))
    if k == "symbol":
        n = rng.randrange(1, 4)
        return Expr("symbol", tuple(_random_expr(rng, depth - 1)
                                    for _ in range(n)))
    return Expr("diff", (rng.choice(DIFF_KEYWORDS),
                         _random_expr(rng, depth - 1)))


def test_round_trip_on_random_trees():
    rng = random.Random(20260817)
    for _ in range(400):
        tree = _random_expr(rng, rng.randrange(1, 5))
        assert parse(str(tree)) == tree


# -- evaluation --------------------------------------------------------------

def test_dual_symbol_example():
    R = _ring()
    w = evaluate(parse("{1 + eps*(1/x), y}"), R, bases=_bases(QQ))
    assert isinstance(w, SymbolWord)
    assert w.p == 2 and w.dual
    (entries, exp), = w.factors
    assert exp == 1
    lead = entries[0]
    assert lead.body == R.one()
    assert lead.slope == R.var("x").inv()
    assert entries[1] == DualElem(R, R.var("y"))


def test_steinberg_example_is_plain():
    R = _ring()
    w = evaluate(parse("{x, 1-x}"), R)
    assert not w.dual
    (entries, _), = w.factors
    assert entries[1] == R.one() - R.var("x")


def test_wedge_example_matches_library_calls():
    R = _ring()
    names = {"g": R.var("x") * R.var("y") + R.const(1), "f": R.var("x")}
    got = evaluate(parse("d_C(g/f) /\\ d_C(y)/y"), R, names=names,
                   bases=_bases(QQ))
    top = base_top(QQ)
    want = wedge(d(names["g"] / names["f"], top),
                 d(R.var("y"), top) * R.var("y").inv())
    assert got == want


def test_tower_generators_resolve():
    tw = make_tower([Algebraic("r2", [-2, 0, 1])])
    R = FunctionRing(tw, ("x",))
    v = evaluate(parse("r2^2"), R)
    assert v == R.const(2)


def test_rational_arithmetic_is_exact():
    assert evaluate(parse("(1/2 + 1/3)*6"), None) == Fraction(5)
    assert evaluate(parse("2^-3"), None) == Fraction(1, 8)


def test_eps_squares_to_zero():
    R = _ring()
    v = evaluate(parse("(1 + eps*x)*(1 - eps*x)"), R)
    assert v == DualElem(R, R.one())


def test_unknown_identifier_carries_location():
    with pytest.raises(UnknownIdentifier, match=r"line 1, col 5"):
        evaluate(parse("x + nope"), _ring())


def test_eps_without_ring_rejected():
    with pytest.raises(Unsupported):
        evaluate(parse("eps"), None)


def test_derivative_without_base_rejected():
    with pytest.raises(Unsupported, match="d_C"):
        evaluate(parse("d_C(x)"), _ring())


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        evaluate(parse("1/0"), None)


@pytest.mark.parametrize("text, error, where", [
    ("1/0", DivisionByZero, "(line 1, col 1)"),
    ("x + 0^-1", DivisionByZero, "(line 1, col 5)"),
    ("x + d_C(x)^2", Mismatch, "(line 1, col 5)"),
    ("d_C({x})", Mismatch, "(line 1, col 1)"),
    ("{x}*2", Mismatch, "(line 1, col 1)"),
    ("(x - x)^-1", DivisionByZero, "(line 1, col 1)"),
    ("1 + (x - x)^-1", DivisionByZero, "(line 1, col 5)"),
    ("1 + y*x^70000", DegreeTooLarge, "(line 1, col 7)"),
])
def test_evaluation_errors_are_located_package_errors(text, error, where):
    with pytest.raises(error) as err:
        evaluate(parse(text), _ring(), bases={"d_C": base_top(QQ)})
    assert str(err.value).endswith(where)


def test_wedge_of_scalars_rejected():
    with pytest.raises(Mismatch, match="wedge"):
        evaluate(parse("x /\\ y"), _ring())


def test_wedge_scalar_coercion():
    R = _ring()
    b = _bases(QQ)
    got = evaluate(parse("x /\\ d_C(y)"), R, bases=b)
    want = d(R.var("y"), base_top(QQ)) * R.var("x")
    assert got == want


def test_product_of_positive_degree_forms_needs_wedge():
    with pytest.raises(Mismatch, match="wedge"):
        evaluate(parse("d_C(x)*d_C(y)"), _ring(), bases=_bases(QQ))


def test_named_bindings_resolve_after_ring_names():
    R = _ring()
    decoy = R.const(99)
    assert evaluate(parse("x"), R, names={"x": decoy}) == R.var("x")
    assert evaluate(parse("z"), R, names={"z": decoy}) == decoy


def test_symbol_power_bindings():
    R = _ring()
    w = evaluate(parse("{x, y}^3"), R)
    (_, exp), = w.factors
    assert exp == 3


# -- instance files ----------------------------------------------------------

ELLIPTIC_TEXT = """
# the running curve example
[tower]

[cover]
kind = plane-curve
weierstrass = 0, -1, 1

[policy]
D = 2
delta = 2

[checks]
p = 1
"""


def test_instance_text_loads():
    cfg = load_instance(ELLIPTIC_TEXT)
    assert isinstance(cfg, SuiteConfig)
    assert isinstance(cfg.cover, CubicCover)
    assert cfg.policy.D == 2 and cfg.policy.delta == 2
    assert cfg.p == 1


def test_instance_json_mirror():
    obj = {"tower": [{"name": "r2", "kind": "algebraic", "minpoly": [-2, 0, 1]}],
           "cover": {"kind": "projective-plane"},
           "policy": {"D": 3, "delta": 1},
           "checks": {"p": 2, "sheaf": "omega1"}}
    cfg = load_instance(json.dumps(obj))
    assert isinstance(cfg.cover, ProjectiveCover) and cfg.cover.n == 2
    assert cfg.tower.names == ("r2",)
    assert cfg.policy.D == 3 and cfg.policy.delta == 1
    assert cfg.sheaf == "omega1"


def test_instance_json_rationals_may_be_numbers_or_strings():
    obj = {"tower": [{"name": "r", "kind": "algebraic", "minpoly": ["-3/4", 0, 1.0]}],
           "cover": {"kind": "plane-curve", "weierstrass": [0, "-1", 1]}}
    cfg = load_instance(json.dumps(obj))
    assert cfg.tower.names == ("r",)
    assert cfg.cover_desc == "plane-curve 0,-1,1"


def test_instance_defaults():
    cfg = load_instance("[cover]\nkind = projective-line\n")
    assert cfg.policy.D == 2 and cfg.policy.delta == 2
    assert cfg.p == 1
    assert cfg.cover is not None and cfg.sheaf is None


def test_suite_config_holds_only_what_a_command_reads():
    assert SuiteConfig.__slots__ == ("tower", "cover", "cover_desc", "policy", "p",
                                     "sheaf")


@pytest.mark.parametrize("text, message", [
    pytest.param("[tower]\ngen t = transcendental\n[ring]\nvars = x, y\n",
                 "unknown section [ring]", id="text-ring"),
    pytest.param('{"ring": {"vars": ["x", "y"]}}', "unknown key 'ring'", id="json-ring"),
    pytest.param("[checks]\np = 1\nseed = 7\n", "unknown checks key 'seed'",
                 id="text-seed"),
    pytest.param('{"checks": {"seed": 7}}', "unknown checks key 'seed'", id="json-seed"),
])
def test_removed_ring_and_seed_are_refused(text, message):
    # no command reads a bare function ring or an instance seed
    with pytest.raises(InstanceSyntaxError, match=re.escape(message)):
        load_instance(text)


def test_instance_tower_steps():
    cfg = load_instance(
        "[tower]\ngen r2 = algebraic -2, 0, 1\ngen t = transcendental\n")
    assert cfg.tower.names == ("r2", "t")
    assert cfg.tower.transcendental_levels() == [2]


def test_instance_errors_carry_lines():
    with pytest.raises(InstanceSyntaxError) as err:
        load_instance("[cover]\nkind = mystery\n")
    assert err.value.line == 2
    with pytest.raises(InstanceSyntaxError, match="line 3"):
        load_instance("[policy]\nD = 2\nD = 3\n")
    with pytest.raises(InstanceSyntaxError, match="section"):
        load_instance("p = 1\n")
    with pytest.raises(InstanceSyntaxError, match="integer"):
        load_instance("[policy]\nD = soon\n")
    with pytest.raises(InstanceSyntaxError, match="three"):
        load_instance("[cover]\nkind = plane-curve\nweierstrass = 1, 2\n")


@pytest.mark.parametrize("obj", [
    {"policy": {"D": "x"}},
    {"policy": {"D": 2.5}},
    {"cover": {"kind": "torus"}},
    {"policy": {"E": 3}},
    {"cover": {"kind": "plane-curve", "weierstrass": [0, 1]}},
])
def test_json_instance_errors_are_at_line_1(obj):
    with pytest.raises(InstanceSyntaxError) as err:
        load_instance(json.dumps(obj))
    assert str(err.value).endswith("(line 1, col 1)")


def test_json_numbers_are_read_exactly():
    cfg = load_instance('{"tower": [{"name": "r", "kind": "algebraic", '
                        '"minpoly": [-0.1, 0, 1]}]}')
    assert cfg.tower.steps == (("alg", "r", (Fraction(-1, 10), 0, 1)),)
    cfg = load_instance('{"cover": {"kind": "plane-curve", '
                        '"weierstrass": [0, -0.5, 1]}}')
    assert cfg.cover_desc == "plane-curve 0,-1/2,1"


@pytest.mark.parametrize("text, c", [
    pytest.param("[cover]\nkind = plane-curve\nweierstrass = 0, -1, 3e-4299\n",
                 Fraction(3, 10**4299), id="text"),
    pytest.param('{"cover": {"kind": "plane-curve", "weierstrass": [0, -1, 3e4299]}}',
                 3 * 10**4299, id="json-number"),
    pytest.param('{"cover": {"kind": "plane-curve", "weierstrass": [0, -1, "3E+4299"]}}',
                 3 * 10**4299, id="json-string"),
])
def test_rational_of_4300_digits_is_read_exactly(text, c):
    assert load_instance(text).cover_desc == f"plane-curve 0,-1,{c}"


@pytest.mark.parametrize("value", ["1e-4300", "10e4299", "1" * 4301, "1e" + "9" * 5000],
                         ids=["denominator", "numerator", "integer", "exponent"])
def test_rational_past_the_digit_cap_is_refused(value):
    with pytest.raises(InstanceSyntaxError, match="rational number|more than 4300 digits"):
        load_instance(f"[cover]\nkind = plane-curve\nweierstrass = 0, -1, {value}\n")


@pytest.mark.parametrize("text, what", [
    ("[cover]\nkind = plane-curve\nweierstrass = 0, -1_0, 1\n", "a rational number, got '-1_0'"),
    ("[cover]\nkind = plane-curve\nweierstrass = 0, -1, \u0661\n", "a rational number, got '\u0661'"),
    ("[tower]\ngen a = algebraic -2, 0, 1_0\n", "a rational number, got '1_0'"),
    ("[policy]\nD = 1_0\n", "an integer, got '1_0'"),
    ("[checks]\np = \u0661\n", "an integer, got '\u0661'"),
    ('{"policy": {"delta": "1_0"}}', "an integer, got '1_0'"),
    ('{"cover": {"kind": "plane-curve", "weierstrass": [0, "-1_0", 1]}}',
     "a rational number, got '-1_0'"),
], ids=["underscore", "arabic-indic", "minpoly", "D", "p", "json-delta", "json-weierstrass"])
def test_instance_numbers_are_ascii_digits(text, what):
    # Fraction reads '1_0' from Python 3.11 on and int reads it everywhere,
    # and both read other scripts' digits; an instance reads none of them
    with pytest.raises(InstanceSyntaxError, match=f"expected {what}"):
        load_instance(text)


def test_instance_bad_json():
    with pytest.raises(InstanceSyntaxError, match="JSON"):
        load_instance("{not json")


def test_instance_describe_echo():
    cfg = load_instance(ELLIPTIC_TEXT)
    desc = cfg.describe()
    assert desc["policy"] == {"D": 2, "delta": 2}
    assert desc["p"] == 1 and "seed" not in desc
    assert "plane-curve" in desc["cover"]
