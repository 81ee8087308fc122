"""Sparse multivariate polynomial layer: gcd, exact division, reduction."""

import random
from collections import Counter

import pytest

from ktangent import mpoly
from ktangent.cech import TruncationPolicy, cover_plane_curve, weierstrass_cubic
from ktangent.cycletangent import composed_infinitesimal
from ktangent.errors import DivisionByZero
from ktangent.mpoly import MPoly, div_exact, mp_gcd, reduce_mod
from ktangent.scalars import QQ, Algebraic, Transcendental, make_tower


def xy(tower=QQ):
    return MPoly.variable(tower, 2, 0), MPoly.variable(tower, 2, 1)


def test_arith_and_degrees():
    x, y = xy()
    f = (x + y) ** 2
    assert f == x**2 + 2 * x * y + y**2
    assert f.degree_in(0) == 2
    assert f.deriv(0) == 2 * x + 2 * y
    assert (f - f).is_zero()


def test_multiplying_by_one_returns_the_other_factor():
    tq = make_tower([Transcendental("t")])
    for tw in (QQ, tq):
        x, y = xy(tw)
        f = (x + y) ** 2 - 3 * x
        one = MPoly.const(tw, 2, 1)
        assert f * one is f and one * f is f and f * 1 is f
        assert f * 2 == 2 * x**2 + 4 * x * y + 2 * y**2 - 6 * x


def test_reduce_mod_relation():
    x, y = xy()
    rel = y**2 - x**3 + x - 1  # monic degree 2 in y
    r = reduce_mod(y**4, rel, 1)
    assert r.degree_in(1) <= 1
    # y^4 = (x^3 - x + 1)^2 after substitution
    assert r == (x**3 - x + 1) ** 2


def test_exact_division():
    x, y = xy()
    f = (x**2 + y) * (x * y - 3)
    assert div_exact(f, x * y - 3) == x**2 + y
    with pytest.raises(DivisionByZero):
        div_exact(x**2 + y + 1, x * y - 3)


def test_gcd_basic():
    x, y = xy()
    f = (x + y) * (x - 1) ** 2
    g = (x + y) * (y + 2)
    assert mp_gcd(f, g) == x + y
    assert mp_gcd(x**2 - y**2, x + y) == x + y
    assert mp_gcd(x + 1, y + 1) == 1


def test_gcd_over_extension():
    tw = make_tower([Algebraic("r2", [-2, 0, 1])])
    r2 = tw.gen("r2")
    x, y = xy(tw)
    # (x - r2)(x + r2) = x^2 - 2
    f = (x - r2) * (x + r2) * y
    g = (x - r2) * (y + r2)
    assert mp_gcd(f, g) == x - r2


def test_gcd_random_products():
    rng = random.Random(99)
    x, y = xy()
    mons = [x, y, x + 1, y - 2, x + y, x * y - 1, x - y + 3]
    for _ in range(25):
        h = rng.choice(mons) * rng.choice(mons)
        a = h * rng.choice(mons)
        b = h * rng.choice(mons)
        g = mp_gcd(a, b)
        # gcd divides both and is divisible by h
        div_exact(a, g), div_exact(b, g)
        div_exact(g, mp_gcd(g, h))


def test_eval():
    x, y = xy()
    f = x**2 * y - 3
    assert f.eval_scalars([QQ.from_fraction(2), QQ.from_fraction(5)]) == QQ.from_fraction(17)
    assert f.render(["x", "y"]) == "x^2*y - 3"


def _count_flattens(monkeypatch):
    calls = Counter()
    real = mpoly._flatten_poly
    monkeypatch.setattr(mpoly, "_flatten_poly",
                        lambda *a: calls.update(["flatten"]) or real(*a))
    return calls


def test_gcd_of_t_constant_inputs_descends_to_the_number_field(monkeypatch):
    base = make_tower([Algebraic("r2", [-2, 0, 1])])
    deep = make_tower([Algebraic("r2", [-2, 0, 1]), Transcendental("t1"),
                       Transcendental("t2")])
    r2 = base.gen("r2")
    x, y = xy(base)
    rng = random.Random(5)
    mons = [x - r2, y + r2, x + y, x * y - 1, 2 * x - r2 * y + 3, y * y - 2]
    cases = []
    for _ in range(12):
        h = rng.choice(mons) * rng.choice(mons)
        cases.append((h * rng.choice(mons), h * rng.choice(mons) * (r2 + 3)))
    calls = _count_flattens(monkeypatch)
    for a, b in cases:
        lift = lambda p: MPoly(deep, p.nvars, {e: deep.embed(c) for e, c in p.terms.items()})
        assert mp_gcd(lift(a), lift(b)) == lift(mp_gcd(a, b))
    assert calls["flatten"] == 0


def test_gcd_of_t_dependent_inputs_still_flattens(monkeypatch):
    tw = make_tower([Transcendental("t")])
    t = tw.gen("t")
    x, y = xy(tw)
    calls = _count_flattens(monkeypatch)
    f = (x - t) * (x * y + 1) * (t + 1)
    g = (x - t) * (y + t) * t.inv()
    assert mp_gcd(f, g) == x - t
    assert mp_gcd((x - t) * (y - 1), (y - 1) * (x + t)) == y - 1
    assert calls["flatten"] == 4


def _lift(tower, p):
    return MPoly(tower, p.nvars, {e: tower.embed(c) for e, c in p.terms.items()})


def _rational_pairs(seed, count):
    rng = random.Random(seed)
    x, y = xy()
    mons = [x, y, x + 1, y - 2, x + y, x * y - 1, x - y + 3, 3 * x - 2 * y]
    out = []
    for _ in range(count):
        h = rng.choice(mons) * rng.choice(mons)
        out.append((h * rng.choice(mons), h * rng.choice(mons)))
    return out + [(x + 1, y - 2)]


def test_gcd_of_unit_multiples_of_rational_inputs_never_flattens(monkeypatch):
    tw = make_tower([Transcendental("t")])
    t = tw.gen("t")
    u1, u2 = (t + 1).inv(), ((t + 1) ** 2).inv()
    cases = _rational_pairs(11, 10)
    calls = _count_flattens(monkeypatch)
    for a, b in cases:
        want = _lift(tw, mp_gcd(a, b))
        assert mp_gcd(_lift(tw, a) * u1, _lift(tw, b) * u2) == want
        assert mp_gcd(_lift(tw, a) * u2, _lift(tw, b) * (t - 3)) == want
    assert calls["flatten"] == 0


def test_gcd_of_rational_inputs_over_a_number_field_runs_over_q(monkeypatch):
    tw = make_tower([Algebraic("r2", [-2, 0, 1])])
    r2 = tw.gen("r2")
    cases = _rational_pairs(12, 10)
    towers = []
    for name in ("_prem", "_gcd_univar"):
        real = getattr(mpoly, name)
        monkeypatch.setattr(mpoly, name,
                            lambda f, g, v, real=real: towers.append(f.tower) or real(f, g, v))
    for a, b in cases:
        got = mp_gcd(_lift(tw, a) * (r2 + 3), _lift(tw, b) * ((r2 - 1) / 5))
        assert got == _lift(tw, mp_gcd(a, b))
    assert towers and all(w == QQ for w in towers)


def test_composed_on_the_elliptic_curve_never_flattens(monkeypatch):
    calls = _count_flattens(monkeypatch)
    cover = cover_plane_curve(weierstrass_cubic(QQ, 0, -1, 1), QQ)
    rep = composed_infinitesimal(cover, 1, TruncationPolicy(2, 2))
    assert rep.verdict == "injective"
    assert calls["flatten"] == 0
