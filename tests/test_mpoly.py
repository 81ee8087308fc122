"""Sparse multivariate polynomial layer: gcd, exact division, reduction."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from ktangent import mpoly, scalars
from ktangent.cech import TruncationPolicy, cover_plane_curve, weierstrass_cubic
from ktangent.cycletangent import composed_infinitesimal
from ktangent.errors import DegreeTooLarge, DivisionByZero, TowerMismatch
from ktangent.funcrings import FunctionRing, transport
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


def test_hash_is_computed_once_per_polynomial(monkeypatch):
    x, y = xy()
    f, g = (x + y) ** 2, x**2 + 2 * x * y + y**2
    h = hash(f)
    calls = []

    def counting_frozenset(items):
        calls.append(1)
        return frozenset(items)

    monkeypatch.setattr(mpoly, "frozenset", counting_frozenset, raising=False)
    assert hash(f) == h and hash(g) == h and hash(g) == h
    assert len(calls) == 1


def test_multiplying_by_one_returns_the_other_factor():
    tq = make_tower([Transcendental("t")])
    for tw in (QQ, tq):
        x, y = xy(tw)
        f = (x + y) ** 2 - 3 * x
        one = MPoly.const(tw, 2, 1)
        assert f * one is f and one * f is f and f * 1 is f
        assert f * 2 == 2 * x**2 + 4 * x * y + 2 * y**2 - 6 * x


# -- packed exponent keys ------------------------------------------------------


def _monomial(xs, e):
    m = MPoly.const(xs[0].tower, len(xs), 1)
    for x, k in zip(xs, e):
        m = m * x ** k
    return m


@pytest.mark.parametrize("nvars", range(1, 7))
def test_key_order_is_the_graded_lex_order(nvars):
    # keys built by the public constructors order as (sum(e), e), and
    # items() and monomial() give the exponent tuples back
    rng = random.Random(700 + nvars)
    xs = [MPoly.variable(QQ, nvars, i) for i in range(nvars)]
    vecs = {tuple(rng.choice((0, 0, 1, 2, 3, 40, 1000, 65535)) for _ in range(nvars))
            for _ in range(60)}
    keys = {}
    for e in vecs:
        m = _monomial(xs, e)
        ((key, c),) = m._terms.items()
        assert m.monomial() == (e, 1) and m.items() == [(e, 1)] and c == 1
        assert key == mpoly._pack(e) and mpoly._unpack(key, nvars) == e
        keys[e] = key
    assert sorted(vecs, key=keys.get) == sorted(vecs, key=lambda e: (sum(e), e))
    p = sum((i + 1) * _monomial(xs, e) for i, e in enumerate(sorted(vecs)))
    assert dict(p.items()) == {e: i + 1 for i, e in enumerate(sorted(vecs))}
    assert mpoly._lc(p) == dict(p.items())[max(vecs, key=lambda e: (sum(e), e))]


def _flatten_round_trip(f):
    """_unflatten(_flatten(f)) and the lcm L of f's coefficient denominators."""
    tw = f.tower
    low = scalars.Tower(tw.steps[:-1], tw.names[:-1])
    cof = mpoly._lcm_cofactors(f, f)
    flat = mpoly._flatten(f, low, cof)
    assert flat.tower == low and flat.nvars == f.nvars + 1
    den, m = next(iter(cof.items()))  # L = den * (L / den)
    scale = (MPoly.const(tw, f.nvars, 1) * scalars.Scalar(tw, scalars._qval(tuple(den)))
             * scalars.Scalar(tw, scalars._qval(tuple(m))))
    return mpoly._unflatten(flat, tw), scale


def test_flatten_then_unflatten_returns_the_input():
    qt = make_tower([Transcendental("t")])
    deep = make_tower([Algebraic("r2", [-2, 0, 1]), Transcendental("t1"),
                       Transcendental("t2")])
    for tw in (qt, deep):
        s, t = tw.gen(tw.names[0]), tw.gen(tw.names[-1])
        x, y = xy(tw)
        f = (x - t) * (y ** 3 + s) + t ** 4 / 3 * x * y + 5 * t + x ** 7
        back, scale = _flatten_round_trip(f)
        assert scale == 1 and back == f
        g = f * (t + 2).inv() + y * (t ** 2 - s).inv()
        back, scale = _flatten_round_trip(g)
        assert back == g * scale
    # over Q(t) the generator becomes the last variable
    t = qt.gen("t")
    x, y = xy(qt)
    flat = mpoly._flatten(t ** 3 * x * y - t + 2, QQ, {(1,): [1]})
    assert dict(flat.items()) == {(1, 1, 3): 1, (0, 0, 1): -1, (0, 0, 0): 2}


def test_exponents_past_the_field_raise_degree_too_large():
    x, y = xy()
    big = x ** 65535  # the largest exponent still fits
    assert big.monomial() == ((65535, 0), 1) and big.degree_in(0) == 65535
    assert big.deriv(0) == 65535 * x ** 65534
    # a total degree past the field is checked variable by variable
    both = big * y ** 65535
    assert both.monomial() == ((65535, 65535), 1) and both.vars_used() == {0, 1}
    assert big.shift(1, 65535) == both
    assert repr(both - x) == "x0^65535*x1^65535 - x0"
    with pytest.raises(DegreeTooLarge):
        big * x
    with pytest.raises(DegreeTooLarge):
        (x + y) * (both - 1)
    with pytest.raises(DegreeTooLarge):
        (x * y) ** 65536
    with pytest.raises(DegreeTooLarge):
        both.shift(0, 1)
    with pytest.raises(DegreeTooLarge):
        (y + 1).shift(1, 65535)
    # flattening makes the degree of a coefficient in t an exponent
    qt = make_tower([Transcendental("t")])
    t, (x, _) = qt.gen("t"), xy(qt)
    flat = mpoly._flatten(x * t ** 65535 + 1, QQ, {(1,): [1]})
    assert dict(flat.items()) == {(1, 0, 65535): 1, (0, 0, 0): 1}
    with pytest.raises(DegreeTooLarge):
        mpoly._flatten(x * t ** 65536 + 1, QQ, {(1,): [1]})


def test_reduce_mod_relation():
    x, y = xy()
    rel = y**2 - x**3 + x - 1  # monic degree 2 in y
    r = reduce_mod(y**4, rel, 1)
    assert r.degree_in(1) <= 1
    # y^4 = (x^3 - x + 1)^2 after substitution
    assert r == (x**3 - x + 1) ** 2


def test_reduce_mod_is_the_pseudo_remainder():
    # g = x*y + 1 is not monic in y; by hand, two steps with lc = x:
    # x*f - y*g = x^2 - y, then x*(x^2 - y) + g = x^3 + 1,
    # so the pseudo-remainder is x^2*f - (x*y - 1)*g = x^3 + 1
    x, y = xy()
    f, g = y**2 + x, x * y + 1
    r = reduce_mod(f, g, 1)
    assert r == x**3 + 1
    assert r == x**2 * f - (x * y - 1) * g
    assert r.degree_in(1) < g.degree_in(1)


def test_exact_division():
    x, y = xy()
    f = (x**2 + y) * (x * y - 3)
    assert div_exact(f, x * y - 3) == x**2 + y
    for f, g in [(x**2 + y + 1, x * y - 3), (x**3 + y, x * y), (2 * x**2 + 1, 2 * x - 1)]:
        with pytest.raises(DivisionByZero):
            div_exact(f, g)


def test_gcd_basic():
    x, y = xy()
    f = (x + y) * (x - 1) ** 2
    g = (x + y) * (y + 2)
    assert mp_gcd(f, g) == x + y
    assert mp_gcd(x**2 - y**2, x + y) == x + y
    assert mp_gcd(x + 1, y + 1) == 1
    assert mp_gcd((x - 3) * (x + 1), (x - 3) * (x + 2)) == x - 3


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
    assert not f.vanishes_at([2, 5]) and (f - 17).vanishes_at([2, Fraction(5)])
    assert f.render(["x", "y"]) == "x^2*y - 3"


def _count_flattens(monkeypatch):
    calls = Counter()
    real = mpoly._flatten
    monkeypatch.setattr(mpoly, "_flatten",
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
        assert mp_gcd(a.over(deep), b.over(deep)) == mp_gcd(a, b).over(deep)
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
        want = mp_gcd(a, b).over(tw)
        assert mp_gcd(a.over(tw) * u1, b.over(tw) * u2) == want
        assert mp_gcd(a.over(tw) * u2, b.over(tw) * (t - 3)) == want
    assert calls["flatten"] == 0


def test_gcd_of_rational_inputs_over_a_number_field_runs_over_q(monkeypatch):
    tw = make_tower([Algebraic("r2", [-2, 0, 1])])
    r2 = tw.gen("r2")
    cases = _rational_pairs(12, 10)
    kernel, prs = [], []
    real_heu, real_prs = mpoly._heu_cofactors, mpoly._prs_gcd
    monkeypatch.setattr(mpoly, "_heu_cofactors", lambda f, g, n: kernel.append(
        all(type(c) is int for c in (*f.values(), *g.values()))) or real_heu(f, g, n))
    monkeypatch.setattr(mpoly, "_prs_gcd",
                        lambda f, g: prs.append(f.tower) or real_prs(f, g))
    for a, b in cases:
        got = mp_gcd(a.over(tw) * (r2 + 3), b.over(tw) * ((r2 - 1) / 5))
        assert got == mp_gcd(a, b).over(tw)
    assert kernel and all(kernel)
    assert all(w == QQ for w in prs)


def test_univariate_gcd_over_a_number_field_runs_the_field_euclid(monkeypatch):
    # inputs that depend on r2 stay over Q(r2); over Q(r2)(t) they descend
    # there first, and either way the one-variable gcd is scalars._pgcd
    base = make_tower([Algebraic("r2", [-2, 0, 1])])
    deep = make_tower([Algebraic("r2", [-2, 0, 1]), Transcendental("t")])
    assert mpoly._pgcd is scalars._pgcd
    levels = []
    real = scalars._pgcd
    monkeypatch.setattr(mpoly, "_pgcd",
                        lambda tw, lv, p, q: levels.append(lv) or real(tw, lv, p, q))
    for tw in (base, deep):
        r2 = tw.gen("r2")
        x, _ = xy(tw)
        assert mp_gcd((x - r2) * (x + 1), (x - r2) * (x - 3)) == x - r2
        assert levels == [1]
        levels.clear()


def test_gcd_over_qt_flattens_inputs_that_fit_the_exponent_field():
    # dividing the first side by t^65535 would give the second a t-degree of
    # 65536 once flattening multiplies that denominator through
    tw = make_tower([Transcendental("t")])
    t = tw.gen("t")
    x = MPoly.variable(tw, 1, 0)
    assert mp_gcd(x**2 * t**65535 + 1, x**2 + t) == 1


def test_gcd_over_qt_flattens_by_the_lcm_of_the_denominators():
    # the product of the denominators, t^70000, would pass the exponent
    # field; their lcm, t^40000, fits it
    tw = make_tower([Transcendental("t")])
    t = tw.gen("t")
    x = MPoly.variable(tw, 1, 0)
    assert mp_gcd(x**2 + t**-40000, x**2 + t**-30000) == 1
    # denominators sharing a factor, and a common factor that survives
    u = x - 1
    assert mp_gcd(u * (x + 1 / (t * (t + 1))), u * (x + 1 / (t * (t + 2)))) == u


@pytest.mark.parametrize("steps", [
    pytest.param([Transcendental("t")], id="Q(t)"),
    pytest.param([Algebraic("r2", [-2, 0, 1]), Transcendental("t")], id="Q(r2)(t)"),
])
def test_gcd_agrees_with_the_gcd_cancel_finds(steps):
    tw = make_tower(steps)
    t = tw.gen("t")
    c = tw.gen("r2") if "r2" in tw.names else Fraction(1, 3)
    x, y = xy(tw)
    rng = random.Random(17)
    factors = [x - t, y + c, x * y + t, t * x - 1, x + y * t**2, (t + 1) * y - c]
    units = [1, t, t.inv(), (t + 1).inv() * c, t**3 - 2]
    for _ in range(12):
        h = rng.choice(factors) * rng.choice(factors)
        f = h * rng.choice(factors) * rng.choice(units)
        g = h * rng.choice(factors) * rng.choice(units)
        G = mp_gcd(f, g)
        qf, qg = mpoly._cancel(f, g)
        assert G == mpoly._normalize_lead(div_exact(f, qf))
        assert G == mpoly._normalize_lead(div_exact(g, qg))


def test_composed_on_the_elliptic_curve_never_flattens(monkeypatch):
    calls = _count_flattens(monkeypatch)
    cover = cover_plane_curve(weierstrass_cubic(QQ, 0, -1, 1), QQ)
    rep = composed_infinitesimal(cover, 1, TruncationPolicy(2, 2))
    assert rep.verdict == "injective"
    assert calls["flatten"] == 0


# -- the integer kernel: GCDHEU and exact division over Z ----------------------


def _spy_kernel(monkeypatch, entry="_heu_cofactors"):
    """Record every result of the GCDHEU entry point ``entry`` (None when it
    gave up) and every fallback."""
    seen = {"heu": [], "prs": []}
    real_heu, real_prs = getattr(mpoly, entry), mpoly._prs_gcd

    def heu(f, g, n):
        out = real_heu(f, g, n)
        seen["heu"].append(out)
        return out

    monkeypatch.setattr(mpoly, entry, heu)
    monkeypatch.setattr(mpoly, "_prs_gcd",
                        lambda f, g: seen["prs"].append(f.tower) or real_prs(f, g))
    return seen


def _random_gcd_cases(seed, nvars, count):
    """Products h*a, h*b over Q in nvars variables, with integer contents,
    pure powers of single variables and the factor v*t*(v - t) mixed in."""
    rng = random.Random(seed)
    xs = [MPoly.variable(QQ, nvars, i) for i in range(nvars)]

    def factor():
        kind = rng.randrange(4)
        if kind == 0:
            return rng.choice(xs) ** rng.randint(1, 3)
        if kind == 1 and nvars > 1:
            v, t = rng.sample(xs, 2)
            return v * t * (v - t)
        p = MPoly.const(QQ, nvars, rng.randint(-3, 3))
        for _ in range(rng.randint(1, 3)):
            p = p + rng.randint(-4, 4) * rng.choice(xs) ** rng.randint(1, 2)
        return p if not p.is_constant() else p + xs[0]

    cases = []
    for _ in range(count):
        h = factor() * factor() * rng.choice([1, 2, 6, Fraction(3, 4)])
        a = h * factor() * rng.choice([1, 3, 10])
        b = h * factor() * rng.choice([1, 4, Fraction(5, 7)])
        cases.append((a, b))
    return cases


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_kernel_gcd_matches_the_remainder_sequence(monkeypatch, nvars):
    cases = _random_gcd_cases(100 + nvars, nvars, 12)
    if nvars >= 2:
        v, t = MPoly.variable(QQ, nvars, 0), MPoly.variable(QQ, nvars, 1)
        cases.append((v * t * (v - t) * (v + 2 * t + 1), 6 * v**2 * t * (v - t) * (t - 3)))
    seen = _spy_kernel(monkeypatch)
    got = [mp_gcd(a, b) for a, b in cases]
    assert seen["heu"] and all(h is not None for h in seen["heu"]) and not seen["prs"]
    monkeypatch.setattr(mpoly, "_heu_cofactors", lambda f, g, n: None)
    assert got == [mp_gcd(a, b) for a, b in cases]


def test_cancel_reuses_the_kernel_cofactors(monkeypatch):
    # over Q the cofactors come from GCDHEU's trial division, with no exact
    # division after it; they equal f / G and g / G, and so does the
    # fallback when GCDHEU gives up
    cases = [pair for nvars in (1, 2, 3) for pair in _random_gcd_cases(40 + nvars, nvars, 8)]
    x, y = xy()
    cases.append(((2**2000 * x**4 + y) * (x * y - 3), (2**2000 * y**4 + x) * (x * y - 3)))
    want = []
    for a, b in cases:
        G = mp_gcd(a, b)
        want.append((div_exact(a, G), div_exact(b, G)))
    divisions = []
    monkeypatch.setattr(mpoly, "div_exact",
                        lambda f, g: divisions.append(g) or div_exact(f, g))
    assert [mpoly._cancel(a, b) for a, b in cases[:-1]] == want[:-1]
    assert divisions == []
    # GCDHEU gives up on the last input
    assert mpoly._cancel(*cases[-1]) == want[-1] and divisions
    tw = make_tower([Algebraic("r2", [-2, 0, 1]), Transcendental("t")])
    r2, t = tw.gen("r2"), tw.gen("t")
    x, y = xy(tw)
    h = (x - r2) * (y + t)
    f, g = h * (x + y), h * (x * y - t)
    assert mpoly._cancel(f, g) == (div_exact(f, mp_gcd(f, g)), div_exact(g, mp_gcd(f, g)))
    # over Q(r2), dividing by the leading coefficients frees the top level:
    # the cofactors come from the kernel, scaled back, with no exact division
    tw = make_tower([Algebraic("r2", [-2, 0, 1])])
    r2 = tw.gen("r2")
    x, y = xy(tw)
    f, g = (x + 2 * y) * (x * y - 3) * (r2 + 1), (x - y * y) * (x * y - 3) * r2
    divisions.clear()
    qf, qg = mpoly._cancel(f, g)
    assert divisions == []
    assert qf * g == qg * f and mp_gcd(qf, qg) == 1


def test_cancel_over_function_fields_runs_on_the_integer_kernel(monkeypatch):
    # over Q(t) and Q(t1)(t2) both sides are flattened with one shared
    # product of their t-denominators: the quotients are f / G and g / G
    # times one unit of the tower, coprime, and found by GCDHEU alone, with
    # no remainder sequence and no exact division (no side is linear in a
    # variable, t included once flattened, which the linear branch would take)
    cases = []
    for tw in (make_tower([Transcendental("t")]),
               make_tower([Transcendental("t1"), Transcendental("t2")])):
        s, t = tw.gen(tw.names[0]), tw.gen(tw.names[-1])
        x, y = xy(tw)
        h = (x - t) * (y + s / (t + 1))
        cases += [(h * (x + y * t.inv()), h * (x * y - s) * (t - 2).inv()),
                  (x * (y - s), (y - s) * (x + 1) * s.inv()),
                  (x * y + t * t, y * y - t * t / 3)]
    seen = _spy_kernel(monkeypatch, "_heu_cofactors")
    divisions = []
    monkeypatch.setattr(mpoly, "div_exact",
                        lambda f, g: divisions.append(g) or div_exact(f, g))
    got = [mpoly._cancel(f, g) for f, g in cases]
    assert seen["heu"] and all(h is not None for h in seen["heu"]) and not seen["prs"]
    assert divisions == []
    for (f, g), (qf, qg) in zip(cases, got):
        assert qf.tower == f.tower and qf * g == qg * f
        G = mp_gcd(f, g)
        assert mp_gcd(qf, qg) == 1
        assert mpoly._normalize_lead(qf) == mpoly._normalize_lead(div_exact(f, G))


def test_kernel_carries_the_integer_contents():
    # the gcd of the images at each level must keep its integer content;
    # primitive parts at every level would lose the factor t (or v)
    v, t = MPoly.variable(QQ, 2, 0), MPoly.variable(QQ, 2, 1)
    want = v * t * (v - t)
    a, b = want * (v + 1) * 6, want * (t - 2) * 4
    assert mp_gcd(a, b) == want
    F, G = mpoly._to_ints(a)[1], mpoly._to_ints(b)[1]
    H = mpoly._heu_cofactors({e: 6 * c for e, c in F.items()},
                             {e: 4 * c for e, c in G.items()}, 2)[0]
    H = mpoly._from_ints(QQ, 2, H, 1)
    assert {e: abs(c) for e, c in H.items()} == {(2, 1): 2, (1, 2): 2}


def test_kernel_gives_up_on_huge_coefficients_and_falls_back(monkeypatch):
    x, y = xy()
    big = 2**2000
    h = x * y - 3 * y + 1
    a = (big * x**4 + y) * h
    b = (big * y**4 + x) * h
    seen = _spy_kernel(monkeypatch)
    assert mp_gcd(a, b) == h
    assert None in seen["heu"] and seen["prs"]
    monkeypatch.setattr(mpoly, "_heu_cofactors", lambda f, g, n: None)
    assert mp_gcd(a, b) == h


def test_cancel_runs_the_kernel_once_per_input_pair(monkeypatch):
    # when GCDHEU gives up, the remainder sequence takes over without a
    # second top-level GCDHEU run on the same integer inputs
    x, y = xy()
    big = 2**2000
    h = x * y - 3 * y + 1
    a, b = (big * x**4 + y) * h, (big * y**4 + x) * h
    real, depth, top = mpoly._heu_cofactors, [0], []

    def heu(f, g, n):
        if not depth[0]:
            top.append((frozenset(f.items()), frozenset(g.items())))
        depth[0] += 1
        try:
            return real(f, g, n)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(mpoly, "_heu_cofactors", heu)
    assert mpoly._cancel(a, b) == (div_exact(a, h), div_exact(b, h))
    assert top and len(top) == len(set(top))


def _quotient_cases(tower, coeffs):
    rng = random.Random(len(coeffs))
    x, y = xy(tower)
    mons = [x, y, x * y, x**2, y**2, MPoly.const(tower, 2, 1)]

    def poly():
        p = MPoly(tower, 2, {})
        for _ in range(rng.randint(2, 4)):
            p = p + rng.choice(coeffs) * rng.choice(mons)
        return p if not p.is_constant() else p + x

    return [(poly(), poly()) for _ in range(8)]


def _towers():
    qt = make_tower([Transcendental("t")])
    r2t = make_tower([Algebraic("r2", [-2, 0, 1]), Transcendental("t")])
    t, s, r2 = qt.gen("t"), r2t.gen("t"), r2t.gen("r2")
    return [
        pytest.param(QQ, [1, -2, Fraction(3, 5), 7], id="Q"),
        pytest.param(qt, [1, -2, Fraction(3, 5)], id="Q(t)-constants"),
        pytest.param(qt, [1, t, t + 1, (t - 2).inv()], id="Q(t)"),
        pytest.param(r2t, [1, r2, r2 + 3, Fraction(1, 3)], id="Q(r2)(t)-descends"),
        pytest.param(r2t, [1, r2, s, (s + r2).inv()], id="Q(r2)(t)"),
    ]


@pytest.mark.parametrize("tower, coeffs", _towers())
def test_exact_division_returns_the_quotient(tower, coeffs):
    for q, g in _quotient_cases(tower, coeffs):
        assert div_exact(q * g, g) == q
        assert div_exact(q * g * 3, g * 3) == q
        with pytest.raises(DivisionByZero):
            div_exact(q * g + 1, g)


def test_transport_with_a_heavy_flattened_gcd_is_accepted_by_the_kernel(monkeypatch):
    # a transport whose one gcd in Q[v, t] (inputs of 22 and 19 terms) used
    # to take over a second in the remainder sequence; RingElem cancels it
    # through the kernel's cofactors
    tw = make_tower([Transcendental("t")])
    t = tw.gen("t")
    src, dst = FunctionRing(tw, ("u", "w")), FunctionRing(tw, ("v",))
    u, w, v = src.var("u"), src.var("w"), dst.var("v")
    f = (u**3 + t * u * w + 1) / (u * w - 2 * w + t)
    seen = _spy_kernel(monkeypatch, "_heu_cofactors")
    img = transport(f, [(v + 1) / (v - t), (t * v**2 - 1) / v], dst)
    assert seen["heu"] and all(h is not None for h in seen["heu"]) and not seen["prs"]
    assert repr(img) == (
        "RingElem((v^5 + ((-2*t^3 + t^2 + 2)/(t^2))*v^4"
        " + ((t^4 - 2*t^3 - 4*t + 3)/(t^2))*v^3 + ((t^4 + 5*t^2 - t + 3)/(t^2))*v^2"
        " + ((-2*t^3 + 2*t^2 + 1)/(t^2))*v - t)/((-1/t)*v^5 + ((4*t + 2)/t)*v^4"
        " + ((-5*t^3 - 5*t^2 + 1)/(t^2))*v^3 + ((2*t^4 + 4*t^3 - 4*t - 1)/(t^2))*v^2"
        " + ((-t^3 + 5*t + 2)/t)*v - 2*t - 1))")


# -- one coefficient format: raw tower values, no Scalar inside the layer ------


def _raw_cases():
    """(tower, [(a, b, h)]) with h | a, b: inputs that run over the integers,
    descend to a subfield, flatten, and fall back to the remainder sequence."""
    r2 = make_tower([Algebraic("r2", [-2, 0, 1])])
    qt = make_tower([Transcendental("t")])
    deep = make_tower([Algebraic("r2", [-2, 0, 1]), Transcendental("t1"),
                       Transcendental("t2")])
    out = []
    x, y = xy()
    big = 2**2000
    out.append((QQ, [((x + 2 * y) * (x - 3), (x + 2 * y) * (y + 1), x + 2 * y),
                     ((big * x**4 + y) * (x * y + 1), (big * y**4 + x) * (x * y + 1),
                      x * y + 1)]))
    for tw in (r2, qt, deep):
        x, y = xy(tw)
        g = tw.gen(tw.names[-1])
        s = tw.gen(tw.names[0])
        h = (x - g) * (y + s)
        rational = (x + 1) * (y - 2)
        out.append((tw, [(h * (x + y), h * (x * y - g), h),
                         (rational * (x - y) * (s + 3), rational * (y + 5), rational)]))
    return out


def test_the_polynomial_layer_holds_no_scalar(monkeypatch):
    cases = _raw_cases()
    seen = Counter()
    for name in ("_flatten", "_prs_gcd", "_descend", "_heu_cofactors"):
        real = getattr(mpoly, name)
        monkeypatch.setattr(mpoly, name,
                            lambda *a, _n=name, _r=real: seen.update([_n]) or _r(*a))
    made = []
    real_init = scalars.Scalar.__init__
    monkeypatch.setattr(scalars.Scalar, "__init__",
                        lambda self, tw, v: made.append(v) or real_init(self, tw, v))
    results = []
    for tw, triples in cases:
        for a, b, h in triples:
            rel = MPoly.variable(tw, 2, 1) ** 2 - b
            results += [a + b, a - b, a * b, h ** 3, reduce_mod(a * a, rel, 1),
                        mp_gcd(a, b), div_exact(a, h), div_exact(b * 3, h)]
    assert made == []
    assert all(not isinstance(c, scalars.Scalar) for r in results for _, c in r.items())
    assert all(seen[k] for k in ("_flatten", "_prs_gcd", "_descend", "_heu_cofactors")), seen


def test_over_is_the_per_term_embedding():
    for tw, triples in _raw_cases()[1:]:
        deep = tw.extend([Transcendental("u")])
        for p in (q for triple in triples for q in triple):
            want = {e: deep.lift(p.tower, c) for e, c in p.items()}
            assert dict(p.over(deep).items()) == want
            assert p.over(tw) == p
    with pytest.raises(TowerMismatch):
        MPoly.variable(make_tower([Transcendental("t")]), 1, 0).over(QQ)


def _monomial_towers():
    r2 = make_tower([Algebraic("r2", [-2, 0, 1])])
    qt = make_tower([Transcendental("t")])
    deep = make_tower([Algebraic("r2", [-2, 0, 1]), Transcendental("t1"),
                       Transcendental("t2")])
    t1, t2 = deep.gen("t1"), deep.gen("t2")
    return [
        pytest.param(QQ, Fraction(-3, 5), id="Q"),
        pytest.param(r2, r2.gen("r2") + 3, id="Q(r2)"),
        pytest.param(qt, qt.gen("t") / (qt.gen("t") + 1), id="Q(t)"),
        pytest.param(deep, (deep.gen("r2") * t1 + t2) / (t2 - 1), id="Q(r2)(t1)(t2)"),
    ]


def _monomial_cases(tower, c):
    """(f, g, m): pairs with a monomial side and the exponent m of their gcd."""
    x, y = xy(tower)
    return [
        (c * x**2 * y, x * y**3 + c * x**2 * y + x, (1, 0)),  # monomial, polynomial
        (x**3 * y, c * x * y**2, (1, 1)),  # two monomials
        (x**2 * y + y, c * x * y**2, (0, 1)),  # a monomial whose coefficient is c
        (c * x, y + 1, (0, 0)),  # coprime
    ]


@pytest.mark.parametrize("tower, c", _monomial_towers())
def test_gcd_with_a_monomial_comes_from_the_exponents(monkeypatch, tower, c):
    calls = []
    for name in ("_heu_cofactors", "_prs_gcd", "_flatten", "_descend"):
        monkeypatch.setattr(mpoly, name, lambda *a, name=name: calls.append(name))
    for f, g, m in _monomial_cases(tower, c):
        G, qf, qg = mpoly._gcd(f, g)
        if not any(m):
            assert G is None and qf is f and qg is g
            assert mp_gcd(f, g) == 1 and mpoly._cancel(f, g) == (f, g)
            continue
        x, y = xy(tower)
        assert G == x ** m[0] * y ** m[1]
        assert qf * G == f and qg * G == g
        assert qf * g == qg * f and mp_gcd(qf, qg) == 1
        assert mp_gcd(f, g) == G and mpoly._cancel(f, g) == (qf, qg)
    assert calls == []


def test_monomial_gcd_agrees_with_the_kernel_over_q():
    # the same integer inputs through GCDHEU give the same gcd and cofactors,
    # up to a unit
    norm = mpoly._normalize_lead
    for f, g, m in _monomial_cases(QQ, Fraction(-3, 5)):
        (_, F), (_, G) = mpoly._to_ints(f), mpoly._to_ints(g)
        H, QF, QG = mpoly._heu_cofactors(F, G, 2)
        f, g = mpoly._from_ints(QQ, 2, F, 1), mpoly._from_ints(QQ, 2, G, 1)
        got = mpoly._gcd(f, g)
        want = [mpoly._from_ints(QQ, 2, P, 1) for P in (H, QF, QG)]
        if not any(m):
            assert want[0].is_constant() and got[0] is None
            got = (MPoly.const(QQ, 2, 1), *got[1:])
        assert [norm(p) for p in got] == [norm(p) for p in want]


def _linear_cases(tower, c):
    """(f, g, p): pairs with no monomial side and a side p = c' x_v + r,
    with c' a nonzero constant and r free of x_v."""
    x, y = xy(tower)
    p, q = c * x + y * y + 1, y - c * x**2  # linear in x, linear in y
    return [
        (p, p * (x * y - c), p),  # p divides the other side
        (p * (y + c) * (x - 1), p, p),  # the linear side second
        (p, x * y - c, p),  # coprime
        (x**2 + c, q, q),  # coprime, linear in y
        # the first side linear in x; the other is y (x + 2), which it
        # divides only when c = 1
        (x + c + 1, -x * y - 2 * y, None),
    ]


@pytest.mark.parametrize("tower, c", _monomial_towers())
def test_a_side_linear_in_a_variable_takes_one_division(monkeypatch, tower, c):
    # p = c' x_v + r is irreducible, so gcd(p, q) is p when p divides q and
    # 1 otherwise: one exact division decides it, with no GCDHEU run and no
    # remainder sequence, at every level of the tower
    norm = mpoly._normalize_lead
    cases, want = _linear_cases(tower, c), []
    for f, g, p in cases:
        p = f if p is None else p
        try:
            quo = div_exact(g if p is f else f, p)
        except DivisionByZero:
            quo = None
        want.append((p, quo))
    assert sum(quo is None for _, quo in want) >= 2
    assert sum(quo is not None for _, quo in want) >= 2
    seen = _spy_kernel(monkeypatch)
    for (f, g, _), (p, quo) in zip(cases, want):
        qf, qg = mpoly._cancel(f, g)
        if quo is None:
            assert mp_gcd(f, g) == 1 and (qf, qg) == (f, g)
            continue
        assert mp_gcd(f, g) == norm(p)
        qp, qo = (qf, qg) if p is f else (qg, qf)
        assert qp.is_constant() and norm(qo) == norm(quo)
        assert qf * g == qg * f
    assert seen == {"heu": [], "prs": []}
    # x y + 1 has no variable of degree 1 alone in one term: the old branches
    x, y = xy(tower)
    h = x * y + 1
    assert mp_gcd(h, h * (x * y - c)) == h
    assert seen["heu"] or seen["prs"]
