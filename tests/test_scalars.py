"""Tower-field arithmetic: normal forms, inverses, derivations."""

import operator
import random
from collections import Counter
from fractions import Fraction

import pytest

from ktangent.errors import (
    DivisionByZero,
    DuplicateName,
    NonMonic,
    ReducibleMinpoly,
    TowerMismatch,
)
from ktangent import mpoly, scalars
from ktangent.mpoly import MPoly
from ktangent.scalars import QQ, Algebraic, Scalar, Transcendental, make_tower


def rational(tower, r):
    """The Scalar of the rational r (an int or a Fraction) in tower."""
    return Scalar(tower, tower.value(r))


def tower_sqrt2():
    return make_tower([Algebraic("r2", [-2, 0, 1])])


def tower_qt():
    return make_tower([Transcendental("t")])


def tower_curvey():
    # Q(t) then a square root of t^3 - t
    tw = make_tower([Transcendental("t")])
    t = tw.gen("t")
    return make_tower([Transcendental("t"), Algebraic("w", [-(t**3 - t), 0, 1])])


def tower_lifted_root():
    # Q(t)(s) then a square root of t, given as a Scalar of the prefix Q(t)
    t = tower_qt().gen("t")
    return tower_qt().extend([Transcendental("s")]).extend([Algebraic("w", [-t, 0, 1])])


def test_rationals_embed():
    x = rational(QQ, Fraction(3, 4))
    y = rational(QQ, Fraction(1, 4))
    assert x + y == 1
    assert str(x) == "3/4"


def test_sqrt2_inverse():
    tw = tower_sqrt2()
    r2 = tw.gen("r2")
    inv = (1 + r2).inv()
    # (1+r2)^-1 = r2 - 1, since (r2-1)(r2+1) = 1
    assert inv == r2 - 1
    assert (1 + r2) * inv == 1
    assert r2 * r2 == 2


def test_rational_function_normal_form():
    tw = tower_qt()
    t = tw.gen("t")
    a = (t**2 - 1) / (t - 1)
    assert a == t + 1
    # denominators stay monic: 1/(2t+2) has den t+1
    b = 1 / (2 * t + 2)
    assert b * (t + 1) == Fraction(1, 2)
    assert str(t**2 + t) == "t^2 + t"


def test_division_by_zero():
    tw = tower_qt()
    t = tw.gen("t")
    with pytest.raises(DivisionByZero):
        (t / (t - t)).is_zero()
    with pytest.raises(DivisionByZero):
        tw.zero().inv()


def test_tower_mismatch():
    a = tower_sqrt2().gen("r2")
    b = tower_qt().gen("t")
    with pytest.raises(TowerMismatch):
        a + b


def test_reducible_minpoly_rejected():
    with pytest.raises(ReducibleMinpoly):
        make_tower([Algebraic("x", [-4, 0, 1])])  # T^2 - 4 = (T-2)(T+2)
    with pytest.raises(ReducibleMinpoly):
        # second sqrt(2) is caught because the first generator is a candidate root
        make_tower([Algebraic("r2", [-2, 0, 1]), Algebraic("s2", [-2, 0, 1])])


def test_quadratic_with_a_square_discriminant_is_refused():
    # roots outside the sampled candidates (n/d with |n| <= 8, d <= 4)
    for c in (-81, -100, Fraction(-81, 16)):
        with pytest.raises(ReducibleMinpoly):
            make_tower([Algebraic("a", [c, 0, 1])])
    with pytest.raises(ReducibleMinpoly):
        make_tower([Algebraic("a", [-2, Fraction(-49, 5), 1])])  # (a - 10)(a + 1/5)
    for mp in ([-2, 0, 1], [1, 0, 1], [1, 1, 1], [-3, 0, 1]):
        assert make_tower([Algebraic("a", mp)]).num_levels == 1


def test_cubic_with_a_rational_root_is_refused():
    # roots outside the sampled candidates (n/d with |n| <= 8, d <= 4)
    for c in (-1000, -729, Fraction(-1, 125)):
        with pytest.raises(ReducibleMinpoly):
            make_tower([Algebraic("a", [c, 0, 0, 1])])
    with pytest.raises(ReducibleMinpoly):
        # (a - 12)(a^2 + a/7 + 1)
        make_tower([Algebraic("a", [-12, Fraction(-5, 7), Fraction(-83, 7), 1])])
    for mp in ([-2, 0, 0, 1], [-1, -1, 0, 1], [Fraction(1, 3), 5, 0, 1], [-999, 0, 0, 1]):
        assert make_tower([Algebraic("a", mp)]).num_levels == 1


def _times(p, q):
    """The product of two coefficient lists, constant term first."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


@pytest.mark.parametrize("minpoly, root", [
    # roots outside the old sample (n/d with |n| <= 8, d <= 4), at a degree
    # no rule special-cased
    pytest.param(_times([-10, 1], [2, 0, 0, 1]), "10", id="(a-10)(a^3+2)"),
    pytest.param(_times([Fraction(-9, 5), 1], [-3, 0, 0, 1]), "9/5", id="(a-9/5)(a^3-3)"),
    # the root's piece is monotone only because the derivative's brackets
    # keep those of the second derivative
    pytest.param(_times([-1, 1], [-1, 1, 1]), "1", id="(a-1)(a^2+a-1)"),
])
def test_minimal_polynomial_with_a_rational_root_is_refused_naming_it(minpoly, root):
    with pytest.raises(ReducibleMinpoly, match=f"vanishes at {root}$"):
        make_tower([Algebraic("a", minpoly)])


@pytest.mark.parametrize("prefix, minpoly", [
    pytest.param([], _times([-2, 0, 1], [-2, 0, 1]), id="(x^2-2)^2"),
    pytest.param([], _times([1, 0, 1], [1, 0, 1]), id="(x^2+1)^2"),
    pytest.param([Algebraic("r2", [-2, 0, 1])], _times([-3, 0, 1], [-3, 0, 1]),
                 id="(u^2-3)^2-over-Q(sqrt2)"),
])
def test_square_minimal_polynomial_is_refused_as_a_repeated_factor(prefix, minpoly):
    # no rational root, so only the squarefree check sees these
    with pytest.raises(ReducibleMinpoly, match="has a repeated factor$"):
        make_tower(prefix + [Algebraic("u", minpoly)])


def test_irreducible_minimal_polynomials_without_rational_roots_are_accepted():
    # x^4 + 1 and x^4 - 10x^2 + 1 are reducible modulo every prime
    for mp in ([1, 0, 0, 0, 1], [1, 0, -10, 0, 1], [-1, -1, 0, 0, 0, 1]):
        assert make_tower([Algebraic("a", mp)]).num_levels == 1
    tw = tower_sqrt2().extend([Algebraic("u", [-3, 0, 1])])
    assert tw.gen("u") ** 2 == 3 and (tw.gen("u") * tw.gen("r2")) ** 2 == 6


def test_minimal_polynomial_past_the_recursion_limit_in_degree_is_built():
    # a^1200 - 3 (irreducible by Eisenstein at 3): its root search brackets a
    # chain of 1199 derivatives, which took one stack frame each when it
    # recursed
    tw = make_tower([Algebraic("a", [-3] + [0] * 1199 + [1])])
    assert tw.steps == (("alg", "a", (-3,) + (0,) * 1199 + (1,)),)


def test_rational_minimal_polynomial_is_checked_without_a_sample(monkeypatch):
    points = []
    real = scalars._peval
    monkeypatch.setattr(scalars, "_peval", lambda tw, lv, p, at: points.append(at)
                        or real(tw, lv, p, at))
    make_tower([Algebraic("r", [-2, 0, 1])])
    # r^2 - 2 and its derivative meet only integers inside Cauchy's bound 3,
    # where the sample evaluated 45 rationals out to -8
    assert points and all(type(at) is int and abs(at) <= 3 for at in points)
    assert len(points) < 20
    points.clear()
    # a library step with a coefficient outside Q still meets the sample
    t = tower_qt().gen("t")
    tower_qt().extend([Algebraic("w", [-(t**3 - t), 0, 1])])
    assert Fraction(-8) in points and Fraction(1, 4) in points


def test_constant_inverse_at_an_algebraic_level_skips_euclid(monkeypatch):
    tw = make_tower([Algebraic("r2", [-2, 0, 1]), Transcendental("t1")])
    r2, t1 = tw.gen("r2"), tw.gen("t1")
    vals = [rational(tw, c) for c in (3, Fraction(-2, 7), Fraction(5, 4))]
    vals += [t1 + 2, 3 * t1**2 - Fraction(1, 2), (t1 - 1) / (t1 + 5)]
    calls = []
    real = scalars._pxgcd_first
    monkeypatch.setattr(scalars, "_pxgcd_first", lambda *a: calls.append(1) or real(*a))
    invs = [v.inv() for v in vals]
    assert calls == []
    # the same inverses through Euclid: r2 * v is no constant of Q
    assert invs == [(r2 * v).inv() * r2 for v in vals]
    assert calls


def test_bad_steps_rejected():
    with pytest.raises(DuplicateName):
        make_tower([Transcendental("t"), Transcendental("t")])
    with pytest.raises(NonMonic):
        make_tower([Algebraic("x", [-2, 0, 2])])
    with pytest.raises(NonMonic):
        make_tower([Algebraic("x", [3, 1])])  # degree 1


def test_extend_checks_only_the_new_steps(monkeypatch):
    tw = tower_sqrt2()
    calls = []
    real = scalars._root_candidates

    def counted(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(scalars, "_root_candidates", counted)
    big = tw.extend([Transcendental("t1")])
    assert calls == []
    assert big.names == ("r2", "t1") and big.steps[0] is tw.steps[0]
    with pytest.raises(ReducibleMinpoly):
        tw.extend([Algebraic("u", [-4, 0, 1])])  # u^2 - 4 = (u-2)(u+2)
    assert calls == [1]
    with pytest.raises(DuplicateName):
        tw.extend([Transcendental("r2")])


def test_derivative_rational():
    tw = tower_qt()
    t = tw.gen("t")
    f = t**3 / (t + 1)
    assert f.d(1) == (2 * t**3 + 3 * t**2) / (t + 1) ** 2
    assert (t * 0 + 5).d(1) == 0


@pytest.mark.parametrize("level", [0, 2])
def test_derivative_needs_a_transcendental_level(level):
    # Q(t) has its one generator at level 1; level 0 is Q itself
    t = tower_qt().gen("t")
    with pytest.raises(ValueError, match="not a transcendental step"):
        t.d(level)


def test_derivative_quotient_rule_below_the_top_level():
    # on Q(t)(s) the derivative in t differentiates the coefficients in s
    tw = make_tower([Transcendental("t"), Transcendental("s")])
    t, s = tw.gen("t"), tw.gen("s")
    f = (t * s + 1) / (s - t)
    assert f.d(1) == (s**2 + 1) / (s - t) ** 2
    assert f.d(2) == -(t**2 + 1) / (s - t) ** 2


def test_derivative_implicit_algebraic():
    tw = tower_curvey()
    t, w = tw.gen("t"), tw.gen("w")
    # w^2 = t^3 - t, so 2 w w' = 3t^2 - 1
    assert 2 * w * w.d(1) == 3 * t**2 - 1


def test_embedding_prefix_towers():
    small = tower_qt()
    big = make_tower([Transcendental("t"), Transcendental("s")])
    t_small = small.gen("t")
    lifted = big.embed(t_small * Fraction(1, 2) + 3)
    assert lifted == big.gen("t") * Fraction(1, 2) + 3
    with pytest.raises(TowerMismatch):
        small.embed(big.gen("s"))


def test_extend_embeds_minpoly_coefficients_from_prefix_towers():
    mid = tower_qt().extend([Transcendental("s")])
    tw = tower_lifted_root()
    assert tw.steps[:2] == mid.steps
    assert tw.steps[2][2][0] == mid.embed(-tower_qt().gen("t")).val
    w = tw.gen("w")
    assert w * w == tw.gen("t") and w.inv() * w == 1
    # a coefficient from a tower that is not a prefix of Q(t)(s): another
    # generator, or a longer tower
    for c in (make_tower([Transcendental("u")]).gen("u"),
              mid.extend([Transcendental("z")]).gen("z")):
        with pytest.raises(TowerMismatch):
            mid.extend([Algebraic("w", [-c, 0, 1])])


def _random_scalar(rng, tower, gens, depth=2):
    if depth == 0 or rng.random() < 0.4:
        return rational(tower, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    op = rng.choice("+-*g")
    if op == "g" and gens:
        return rng.choice(gens)
    a = _random_scalar(rng, tower, gens, depth - 1)
    b = _random_scalar(rng, tower, gens, depth - 1)
    return a + b if op == "+" else a - b if op == "-" else a * b


@pytest.mark.parametrize("builder", [tower_sqrt2, tower_qt, tower_curvey, tower_lifted_root])
def test_field_laws(builder):
    tw = builder()
    gens = [tw.gen(n) for n in tw.names]
    rng = random.Random(20260817)
    for _ in range(40):
        a = _random_scalar(rng, tw, gens)
        b = _random_scalar(rng, tw, gens)
        c = _random_scalar(rng, tw, gens)
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c
        assert a - a == 0
        if not b.is_zero():
            assert (a / b) * b == a
            assert b * b.inv() == 1


def test_is_number_field():
    assert QQ.is_number_field()
    assert tower_sqrt2().is_number_field()
    assert not tower_qt().is_number_field()
    assert tower_qt().transcendental_levels() == [1]


def test_derivation_leibniz_property():
    tw = tower_curvey()
    gens = [tw.gen(n) for n in tw.names]
    rng = random.Random(7)
    for _ in range(25):
        a = _random_scalar(rng, tw, gens)
        b = _random_scalar(rng, tw, gens)
        assert (a * b).d(1) == a.d(1) * b + a * b.d(1)
        assert (a + b).d(1) == a.d(1) + b.d(1)


def test_power_by_squaring_matches_repeated_multiplication():
    tw = make_tower([Algebraic("r2", [-2, 0, 1]), Transcendental("t")])
    x = (tw.gen("r2") + 1) / (tw.gen("t") - 2) + tw.gen("t")
    assert x**0 == 1
    acc = tw.one()
    for _ in range(5):
        acc = acc * x
    assert x**5 == acc
    inv = x.inv()
    assert x**-3 == inv * inv * inv


def _expanded(tw, lv, v):
    """A level-lv value in tuple form: a rational spelled out one level down."""
    if type(v) is tuple:
        return v
    step = tw.steps[lv - 1]
    if step[0] == "tr":
        return ("q", (v,) if v else (), (1,))
    return ("a", (v,) + (0,) * (len(step[2]) - 2))


def _check_fast_paths(tw, lv, a, b):
    # the general path on the spelled-out operands, normalised
    (ka, *ra), (kb, *rb) = _expanded(tw, lv, a), _expanded(tw, lv, b)
    if ka == "q":
        (n1, d1), (n2, d2) = ra, rb
        pm = lambda p, q: scalars._pmul(tw, lv - 1, p, q)
        want_add = scalars._mkq(tw, lv, scalars._padd(tw, lv - 1, pm(n1, d2), pm(n2, d1)),
                                pm(d1, d2))
        want_mul = scalars._mkq(tw, lv, pm(n1, n2), pm(d1, d2))
    else:
        (c1,), (c2,) = ra, rb
        want_add = scalars._aval(tuple(scalars._add(tw, lv - 1, x, y) for x, y in zip(c1, c2)))
        want_mul = scalars._aval(scalars._amod(tw, lv, scalars._pmul(tw, lv - 1, c1, c2)))
    for got, want in ((scalars._add(tw, lv, a, b), want_add),
                      (scalars._mul(tw, lv, a, b), want_mul)):
        # equal values of one kind: both rationals (an int or a Fraction) or
        # both tuples, the fast path's in normal form at every level
        assert got == want and (type(got) is tuple) == (type(want) is tuple)
        _assert_canonical(tw, lv, got)


def _one_level_down(v):
    """The value one level down of a value constant in the top level, else None."""
    if type(v) is not tuple:
        return v
    if v[0] == "q":
        return v[1][0] if len(v[1]) == len(v[2]) == 1 else None
    return v[1][0] if not any(v[1][1:]) else None


def test_fast_paths_agree_with_the_reducing_path():
    # _add and _mul skip _mkq when both operands are polynomials, and shift or
    # scale a tuple by a rational operand directly; each shortcut must give
    # exactly the normalised form the general path gives on the spelled-out
    # operands, at both transcendental levels and at the algebraic level
    tw = make_tower([Algebraic("r2", [-2, 0, 1]), Transcendental("t1"),
                     Transcendental("t2")])
    lv = tw.num_levels
    r2, t1, t2 = (tw.gen(n) for n in tw.names)
    rng = random.Random(31)
    consts = [_random_scalar(rng, tw, [r2]) for _ in range(6)]
    polys = [_random_scalar(rng, tw, [r2, t1, t2]) for _ in range(6)]
    values = consts + polys + [rational(tw, c) for c in (0, 1, Fraction(-3, 2))]
    values += [p / (t1 + r2 + k) for k, p in enumerate(consts + polys)]
    values += [p / (t1 - t2 + k) for k, p in enumerate(consts + polys)]
    vals = [v.val for v in values]
    assert sum(1 for v in vals if len(_expanded(tw, lv, v)[2]) == 1) >= 24
    assert sum(1 for v in vals if type(v) is not tuple) >= 4
    for a in vals:
        for b in rng.sample(vals, 8) + [Fraction(0), Fraction(5, 3)]:
            x, y, k = a, b, lv
            while k and x is not None and y is not None:
                _check_fast_paths(tw, k, x, y)
                x, y, k = _one_level_down(x), _one_level_down(y), k - 1


@pytest.mark.parametrize("specs", [
    [Transcendental("t")],
    [Transcendental("t1"), Transcendental("t2")],
    [Algebraic("r2", [-2, 0, 1]), Transcendental("t")],
], ids=["Q(t)", "Q(t1)(t2)", "Q(r2)(t)"])
def test_henrici_rules_agree_with_the_reducing_path(specs):
    # Henrici's rule: a sum over one denominator d cancels only
    # gcd(n1 + n2, d), and a value plus a polynomial is already reduced;
    # each sum, and each product on the same pairs, must give exactly what
    # _mkq gives on the cross-multiplied sum or product, at every level
    tw = make_tower(specs)
    lv = tw.num_levels
    gens = [tw.gen(n) for n in tw.names]
    s, t = gens[0], gens[-1]
    rng = random.Random(24)
    dens = [t + 1, (t + 1) * (t - 2), t * t + s + 1, s + 3]
    nums = [_random_scalar(rng, tw, gens) for _ in range(5)] + [t + 1, t - 2, tw.one()]
    values = [n / d for n in nums for d in dens if not n.is_zero()] + nums
    for d in dens:
        n = rng.choice(nums)
        # sums over d with a constant numerator, a zero sum, and a sum that
        # cancels a factor of d
        values += [(n + 2) / d, -n / d, (1 - n) / d, (t + 1) * (t - 2) / d - n / d]
    vals = [v.val for v in values]
    kinds = Counter()
    den = lambda v: _expanded(tw, lv, v)[2]
    for a in vals:
        for b in rng.sample(vals, 8) + [b for b in vals if den(b) == den(a)]:
            x, y, k = a, b, lv
            while k and x is not None and y is not None:
                if tw.steps[k - 1][0] == "tr":
                    (_, n1, d1), (_, n2, d2) = _expanded(tw, k, x), _expanded(tw, k, y)
                    if d1 == d2 and len(d1) > 1:
                        total = len(scalars._padd(tw, k - 1, n1, n2))
                        kinds[("zero sum", "constant sum", "one den")[min(total, 2)]] += 1
                    elif (len(d1) == 1) != (len(d2) == 1):
                        kinds["a polynomial side"] += 1
                    _check_fast_paths(tw, k, x, y)
                x, y, k = _one_level_down(x), _one_level_down(y), k - 1
    assert min(kinds.values()) >= 10 and len(kinds) == 4


def test_a_sum_over_one_denominator_with_a_constant_numerator_runs_no_gcd(monkeypatch):
    tw = make_tower([Transcendental("t")])
    t = tw.gen("t")
    d = (t + 1) * (t - 2)
    a, b, want = (t + 3) / d, (1 - t) / d, 4 / d
    calls = []
    real = scalars._pgcd
    monkeypatch.setattr(scalars, "_pgcd", lambda *args: calls.append(args) or real(*args))
    assert a + b == want and a - a == 0
    assert calls == []


def _assert_canonical(tw, lv, v):
    """v is in normal form at every level: no tuple stands for a rational."""
    if type(v) is not tuple:
        assert type(v) in (int, Fraction)
        return
    assert lv
    if v[0] == "q":
        num, den = v[1], v[2]
        assert num and den[-1] == 1
        assert not (len(num) == len(den) == 1 and type(num[0]) is not tuple)
        parts = num + den
    else:
        assert len(v[1]) == len(tw.steps[lv - 1][2]) - 1
        assert not (type(v[1][0]) is not tuple and not any(v[1][1:]))
        parts = v[1]
    for c in parts:
        _assert_canonical(tw, lv - 1, c)


@pytest.mark.parametrize("specs", [
    [Algebraic("r2", [-2, 0, 1])],
    [Algebraic("r2", [-2, 0, 1]), Algebraic("r3", [-3, 0, 1])],
    [Transcendental("t")],
    [Algebraic("r2", [-2, 0, 1]), Transcendental("t1"), Transcendental("t2")],
], ids=["sqrt2", "sqrt2-sqrt3", "t", "sqrt2-t1-t2"])
def test_rational_values_are_ints_or_fractions(specs):
    tw = make_tower(specs)
    lv = tw.num_levels
    assert tw.is_zero is operator.not_
    gens = [tw.gen(n) for n in tw.names]
    g = gens[0].val
    trans = tw.transcendental_levels()
    is_int = lambda v, n: v == n and type(v) is int
    # integral values reached by each operation are ints; 1/2 is a Fraction
    half = tw.value(Fraction(1, 2))
    assert type(half) is Fraction and half == Fraction(1, 2)
    assert is_int(tw.value(0), 0) and is_int(tw.value(Fraction(6, 3)), 2)
    assert is_int(tw.one().val, 1) and is_int(tw.zero().val, 0)
    assert is_int(MPoly.const(tw, 2, Fraction(-4, 2)).monomial()[1], -2)
    assert is_int(tw.inv(tw.value(1)), 1) and is_int(tw.inv(tw.value(-1)), -1)
    assert is_int(tw.sub(g, g), 0) and is_int(tw.add(g, tw.neg(g)), 0)
    ratio = tw.mul(tw.add(g, half), tw.inv(tw.add(g, half)))
    assert ratio == 1 and type(ratio) in (int, Fraction)
    assert type(tw.mul(half, tw.inv(half))) in (int, Fraction)
    if tw.steps[0][0] == "alg":
        assert is_int(tw.mul(g, g), 2)  # sqrt2 * sqrt2
    for level in trans:
        t = tw.gen(tw.names[level - 1]).val
        assert is_int(tw.d(t, level), 1)
        assert is_int(tw.d(half, level), 0)
        assert level == 1 or is_int(tw.d(g, level), 0)  # a constant's derivative
    low = make_tower(specs[:1])
    assert is_int(tw.lift(low, low.value(3)), 3)
    # the integer kernel's outputs over Q
    x, y = MPoly.variable(QQ, 2, 0), MPoly.variable(QQ, 2, 1)
    f, h = (x - 1) * (x + 2 * y), (x - 1) * (x - y * y)
    outs = [mpoly.mp_gcd(f, h), *mpoly._cancel(f, h), mpoly.div_exact(f, x - 1)]
    assert outs == [x - 1, x + 2 * y, x - y * y, x + 2 * y]
    assert all(type(c) is int for P in outs for _, c in P.items())
    if tw.steps[-1][0] == "tr":
        # a gcd rebuilt from the flattened polynomial ring: x - 1 has
        # integer coefficients over any tower
        t = gens[-1]
        x = MPoly.variable(tw, 1, 0)
        f, h = (x - 1) * (x + t), (x - 1) * (x - t * t)
        for G in (mpoly._gcd(f, h)[0], mpoly.mp_gcd(f, h)):
            assert G == x - 1 and all(type(c) is int for _, c in G.items())
    # every result of random arithmetic is in normal form at every level
    rng = random.Random(5)
    xs = [_random_scalar(rng, tw, gens).val for _ in range(12)] + [half, g]
    for a in xs:
        _assert_canonical(tw, lv, a)
        for level in trans:
            _assert_canonical(tw, lv, tw.d(a, level))
        if a:
            _assert_canonical(tw, lv, tw.inv(a))
            assert tw.mul(a, tw.inv(a)) == 1
        for b in rng.sample(xs, 4):
            for op in (tw.add, tw.sub, tw.mul):
                _assert_canonical(tw, lv, op(a, b))


def _floats_in(v):
    """The floats anywhere inside a raw value."""
    if type(v) is tuple:
        return [f for c in v for f in _floats_in(c)]
    return [v] if type(v) is float else []


def test_no_float_reaches_a_raw_value():
    # 1/a on an int operand is never int / int
    assert type(QQ.inv(2)) is Fraction and QQ.inv(2) == Fraction(1, 2)
    assert QQ.inv(-1) == -1 and type(QQ.inv(-1)) is int
    assert QQ.inv(Fraction(1, 3)) == 3 and type(QQ.inv(Fraction(1, 3))) is int
    assert QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    from ktangent.suites import standard_towers
    rng = random.Random(11)
    for _, tw in standard_towers():
        gens = [tw.gen(n).val for n in tw.names]
        pool = [tw.value(k) for k in range(-3, 4)] + gens
        pool += [tw.add(g, k) for g in gens for k in (1, -2)]
        for _ in range(300):
            a, b = rng.choice(pool), rng.choice(pool)
            op = rng.choice((tw.add, tw.sub, tw.mul, "inv"))
            if op != "inv":
                r = op(a, b)
            elif a:
                r = tw.inv(a)
            else:
                continue
            assert not _floats_in(r), (tw, a, b, r)
            _assert_canonical(tw, tw.num_levels, r)
            if len(pool) < 60:
                pool.append(r)


def test_floats_are_refused():
    from ktangent.funcrings import FunctionRing
    with pytest.raises(TypeError):
        FunctionRing(QQ, ("x",)).const(0.1)
    with pytest.raises(TypeError):
        QQ.value(0.5)
    with pytest.raises(TypeError):
        MPoly.const(QQ, 1, 1.0)
    with pytest.raises(TypeError):
        rational(tower_sqrt2(), 0.25)
