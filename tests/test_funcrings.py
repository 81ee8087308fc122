"""Function rings: canonical fractions, relation quotients, dual numbers."""

import random
from fractions import Fraction

import pytest

from ktangent.errors import (
    DivisionByZero,
    NameClash,
    NonMonic,
    NonUnitBody,
    RingMismatch,
    SingularRelation,
    TowerMismatch,
)
from ktangent import differentials, funcrings
from ktangent.cech import cover_plane_curve, cover_pn, weierstrass_cubic
from ktangent.differentials import DiffForm, absolute_on_dual, d, pullback, wedge
from ktangent.funcrings import DualElem, FunctionRing, RingElem, transport
from ktangent.mpoly import MPoly
from ktangent.scalars import QQ, Algebraic, Scalar, Transcendental, make_tower

from oracles import substitutions


def plain_xy():
    return FunctionRing(QQ, ("x", "y"))


def elliptic_chart():
    # y^2 = x^3 - x + 1, the affine z=1 chart of a smooth cubic
    xv = MPoly.variable(QQ, 2, 0)
    yv = MPoly.variable(QQ, 2, 1)
    rel = yv * yv - xv**3 + xv - 1
    return FunctionRing(QQ, ("x", "y"), rel)


def test_fraction_normal_form():
    r = plain_xy()
    x, y = r.var("x"), r.var("y")
    a = (x**2 - y**2) / (x + y)
    assert a == x - y
    b = (2 * x) / (4 * y)
    assert b * y * 2 == x
    # numerator lead coefficient is 1 under graded-lex
    assert str(x * 3 + 3) == "(x + 1)/(1/3)"


def _hash_rings():
    """Free rings in x, y, z and Weierstrass charts (x, y), over Q, Q(sqrt 2)
    and Q(t), each with a constant of its tower: (ring, constant, transition
    into the chart, from the chart's second cover ring, or None)."""
    for tw in (QQ, make_tower([Algebraic("r2", [-2, 0, 1])]),
               make_tower([Transcendental("t")])):
        k = tw.gen(tw.names[0]) if tw.names else Fraction(3)
        yield FunctionRing(tw, ("x", "y", "z")), k, None
        cover = cover_plane_curve(weierstrass_cubic(tw, 0, -1, 1), tw)
        yield cover.charts[0], k, (cover.charts[1], substitutions(cover)[(0, 1)][1])


@pytest.mark.parametrize("ring, k, transition", list(_hash_rings()),
                         ids=[f"{tw}-{kind}" for tw in ("Q", "Qsqrt2", "Qt")
                              for kind in ("free", "weierstrass")])
def test_equal_elements_hash_equal(ring, k, transition):
    x, y = ring.var(ring.varnames[0]), ring.var(ring.varnames[1])
    c = ring.var(ring.varnames[-1]) + k
    u = (x + k) / (y - 1)
    pairs = [(x / y, (x * c) / (y * c)), (u.inv().inv(), u)]
    if transition is not None:
        rb, subs = transition
        zb = rb.var(rb.varnames[1])
        pairs.append((transport(zb * k, subs, ring), y.inv() * k))
    for a, b in pairs:
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1


def test_zero_and_units():
    r = plain_xy()
    x = r.var("x")
    assert (x - x).is_zero()
    assert not (x - x).is_unit()
    with pytest.raises(DivisionByZero):
        x / (x - x)


def test_relation_reduction():
    r = elliptic_chart()
    x, y = r.var("x"), r.var("y")
    g = x**3 - x + 1
    assert y * y == g
    assert y**4 == g * g
    # rationalized denominator: 1/y = y/g
    inv_y = y.inv()
    assert inv_y * y == 1
    assert inv_y == y / g
    assert inv_y.den.degree_in(1) == 0


def cubic_second_chart():
    # zb^3 - xb*zb^2 - zb + xb^3: the y != 0 chart of y^2 = x^3 - x + 1
    xv = MPoly.variable(QQ, 2, 0)
    yv = MPoly.variable(QQ, 2, 1)
    return FunctionRing(QQ, ("x", "y"), yv**3 - xv * yv**2 - yv + xv**3)


def sqrt2_chart():
    # y^2 = x^3 + r2*x + 1 over Q(sqrt 2)
    tw = make_tower([Algebraic("r2", [-2, 0, 1])])
    xv = MPoly.variable(tw, 2, 0)
    yv = MPoly.variable(tw, 2, 1)
    r2 = MPoly.const(tw, 2, tw.gen("r2"))
    return FunctionRing(tw, ("x", "y"), yv * yv - xv**3 - r2 * xv - 1)


def test_relation_uniqueness_random():
    for r in (elliptic_chart(), cubic_second_chart(), sqrt2_chart()):
        x, y = r.var("x"), r.var("y")
        rng = random.Random(5)
        pool = [x, y, x + 1, y - x, x * y + 2, (x + y) / (x - 3)]
        for _ in range(30):
            a = rng.choice(pool) + rng.choice(pool) * rng.choice(pool)
            b = rng.choice(pool)
            if b.is_zero():
                continue
            c = a / b
            assert c * b == a
            if not c.is_zero():
                assert c * c.inv() == 1


def test_zero_divisor_has_no_inverse():
    # y^2 - x^2 = (y - x)(y + x): not a domain, and y - x is a zero divisor
    xv = MPoly.variable(QQ, 2, 0)
    yv = MPoly.variable(QQ, 2, 1)
    r = FunctionRing(QQ, ("x", "y"), yv * yv - xv * xv, smooth_check=False)
    with pytest.raises(DivisionByZero):
        (r.var("y") - r.var("x")).inv()


def test_negation_and_inverse_reduce_nothing(monkeypatch):
    tq = make_tower([Transcendental("t")])
    cases = []
    for tw, c in ((QQ, Fraction(2, 3)), (tq, tq.gen("t") + 1)):
        r = FunctionRing(tw, ("x", "y"))
        x, y = r.var("x"), r.var("y")
        k = r.const(c)
        cases += [(r, e) for e in (x, (x + 1) / (3 * y), (x * y - 2) / (k * x + 1), k,
                                   r.const(-5), (x - y) ** 2 / (x + k), x / k)]
    calls = []
    real = funcrings.mp_gcd
    monkeypatch.setattr(funcrings, "mp_gcd", lambda f, g: calls.append(1) or real(f, g))
    results = [(-e, e.inv()) for _, e in cases]
    zero = cases[0][0].zero()
    assert -zero == zero
    assert calls == []
    monkeypatch.undo()
    for (r, e), (neg, inv) in zip(cases, results):
        assert neg == RingElem(r, -e.num, e.den)
        assert inv == RingElem(r, e.den, e.num)


def test_inverse_of_a_numerator_in_the_eliminated_variable_is_rationalized(monkeypatch):
    r = cubic_second_chart()
    x, y = r.var("x"), r.var("y")
    e = (y * y + x) / (x + 2)
    calls = []
    real = FunctionRing._invert_reduced
    monkeypatch.setattr(FunctionRing, "_invert_reduced",
                        lambda self, den: calls.append(den) or real(self, den))
    inv = e.inv()
    assert calls
    assert inv * e == 1
    assert inv.den.degree_in(r.elim) == 0


def test_monic_relation_required():
    xv = MPoly.variable(QQ, 2, 0)
    yv = MPoly.variable(QQ, 2, 1)
    with pytest.raises(NonMonic):
        FunctionRing(QQ, ("x", "y"), xv * yv * yv - 1)  # lead coeff x, not monic
    # degree-3 monic relations are accepted (second chart of a cubic)
    FunctionRing(QQ, ("x", "y"), yv**3 - xv * yv**2 - yv + xv**3)


def test_singular_relation_rejected():
    xv = MPoly.variable(QQ, 2, 0)
    yv = MPoly.variable(QQ, 2, 1)
    with pytest.raises(SingularRelation):
        FunctionRing(QQ, ("x", "y"), yv * yv - xv * xv * (xv + 1))  # node at origin


def test_name_clash():
    tw = make_tower([Transcendental("t")])
    with pytest.raises(NameClash):
        FunctionRing(tw, ("t", "y"))


def test_ring_mismatch():
    a = plain_xy().var("x")
    b = elliptic_chart().var("x")
    with pytest.raises(RingMismatch):
        a + b


def test_dual_arithmetic():
    r = plain_xy()
    x, y = r.var("x"), r.var("y")
    u = DualElem(r, x, y)          # x + eps y
    v = DualElem(r, y, r.one())
    assert u * v == DualElem(r, x * y, x + y * y)
    assert (u + v).body == x + y
    # inverse: (a + eps b)^-1 = a^-1 - eps a^-2 b
    w = u.inv()
    assert w == DualElem(r, x.inv(), -y / (x * x))
    assert u * w == DualElem(r, r.one())
    assert u.specialize() == x


def test_dual_nonunit_body():
    r = plain_xy()
    z = DualElem(r, r.zero(), r.var("x"))
    with pytest.raises(NonUnitBody):
        z.inv()
    assert not z.is_unit()


def test_dual_random_laws():
    r = elliptic_chart()
    x, y = r.var("x"), r.var("y")
    rng = random.Random(11)
    pool = [x, y, x + 2, y * x, r.one(), r.const(Fraction(1, 2))]
    for _ in range(25):
        a = DualElem(r, rng.choice(pool), rng.choice(pool))
        b = DualElem(r, rng.choice(pool), rng.choice(pool))
        c = DualElem(r, rng.choice(pool), rng.choice(pool))
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        if a.is_unit():
            assert (b / a) * a == b


def test_transport_between_charts():
    # P^1 transition u -> 1/v carries polynomials to Laurent data
    r0 = FunctionRing(QQ, ("u",))
    r1 = FunctionRing(QQ, ("v",))
    u = r0.var("u")
    v = r1.var("v")
    img = transport(u**2 + 1, [v.inv()], r1)
    assert img == (1 + v * v) / (v * v)


def test_transport_respects_relation():
    # chart A of y^2 z = x^3 - x z^2 + z^3 at z=1 maps into chart B at y=1
    ra = elliptic_chart()
    x, y = ra.var("x"), ra.var("y")
    xbv = MPoly.variable(QQ, 2, 0)
    zbv = MPoly.variable(QQ, 2, 1)
    rb = FunctionRing(QQ, ("xb", "zb"), zbv**3 - xbv * zbv**2 - zbv + xbv**3)
    xb, zb = rb.var("xb"), rb.var("zb")
    # x = xb/zb, y = 1/zb on the overlap; the chart-A relation must map to zero
    relA = y * y - x**3 + x - 1
    img = transport(relA, [xb / zb, zb.inv()], rb)
    assert img.is_zero()


# -- transport as one fraction --------------------------------------------------


def reference_transport(elem, vals, target):
    """elem at vals, term by term in RingElem arithmetic: what transport means."""
    def at(f):
        acc = target.zero()
        for e, c in f.items():
            term = target.const(Scalar(f.tower, c))
            for val, k in zip(vals, e):
                for _ in range(k):
                    term = term * val
            acc = acc + term
        return acc

    return at(elem.num) / at(elem.den)


def random_elements(ring, rng, count, consts):
    gens = list(ring.gens().values())
    pool = gens + [g + rng.choice(consts) for g in gens] + [ring.const(c) for c in consts]
    out = []
    while len(out) < count:
        num = rng.choice(pool) * rng.choice(pool) + rng.choice(pool) ** rng.randint(0, 3)
        den = rng.choice(pool) + rng.choice(pool)
        if not den.is_zero():
            out.append(num / den)
    return out


def _p2_transitions():
    cover = cover_pn(2, QQ)
    for S, table in substitutions(cover).items():
        for i, imgs in table.items():
            yield cover.charts[i], imgs, cover.ring(S)


def _cubic_transition():
    ra, rb = elliptic_chart(), cubic_second_chart()
    x, y = ra.var("x"), ra.var("y")
    yield rb, [x / y, y.inv()], ra


def _sqrt2_t_chart():
    tw = make_tower([Algebraic("r2", [-2, 0, 1]), Transcendental("t")])
    r2, t = tw.gen("r2"), tw.gen("t")
    src, dst = FunctionRing(tw, ("u", "w")), FunctionRing(tw, ("x", "y"))
    x, y = dst.var("x"), dst.var("y")
    yield src, [(x * t + r2) / (y - t), (x * y - r2 * t) / (x + 1)], dst


@pytest.mark.parametrize("transitions", [_p2_transitions, _cubic_transition, _sqrt2_t_chart],
                         ids=["p2-charts", "cubic-transition", "sqrt2-t-chart"])
def test_transport_equals_term_by_term_evaluation(transitions):
    rng = random.Random(17)
    for src, vals, dst in transitions():
        consts = (1, -2, Fraction(1, 3)) + tuple(src.tower.gen(n) for n in src.tower.names)
        for e in random_elements(src, rng, 6, consts):
            assert transport(e, vals, dst) == reference_transport(e, vals, dst)


def test_pullback_of_dual_coefficients_uses_the_same_transport(monkeypatch):
    ra, rb = elliptic_chart(), cubic_second_chart()
    x, y = ra.var("x"), ra.var("y")
    xb, zb = rb.var("x"), rb.var("y")
    base = absolute_on_dual()
    u = DualElem(rb, (xb + zb * zb) / (xb - 2), xb * zb + 1)
    w = wedge(d(u, base), d(DualElem(rb, xb), base)) + DiffForm(
        rb, base, 2, {(("v", 0), ("e",)): DualElem(rb, zb / (xb + 3), xb)})
    subst = [x / y, y.inv()]
    got = pullback(w, subst, ra)
    monkeypatch.setattr(differentials, "transport", reference_transport)
    assert got == pullback(w, subst, ra)
    assert not got.is_zero()


def test_transport_canonicalises_once_without_a_relation(monkeypatch):
    tw = make_tower([Algebraic("r2", [-2, 0, 1])])
    r2 = tw.gen("r2")
    src, dst = FunctionRing(tw, ("u", "w")), FunctionRing(tw, ("v",))
    u, w = src.var("u"), src.var("w")
    v = dst.var("v")
    e = (u ** 3 + r2 * u * w + 1) / (u * w - 2 * w + r2)
    vals = [(v + 1) / (v - r2), (r2 * v * v - 1) / v]
    want = reference_transport(e, vals, dst)
    calls = []
    real = funcrings.mp_gcd
    monkeypatch.setattr(funcrings, "mp_gcd", lambda f, g: calls.append(1) or real(f, g))
    assert transport(e, vals, dst) == want
    assert len(calls) <= 1


def test_transport_to_a_zero_denominator_raises():
    src, dst = FunctionRing(QQ, ("u",)), FunctionRing(QQ, ("v",))
    u = src.var("u")
    with pytest.raises(DivisionByZero):
        transport(1 / (u - 1), [dst.one()], dst)
    # into a ring with a relation: y^2 - x^3 + x = 1 there
    ra = elliptic_chart()
    x, y = ra.var("x"), ra.var("y")
    with pytest.raises(DivisionByZero):
        transport(1 / (u * u - 1), [y * y - x ** 3 + x], ra)


def test_transport_into_a_ring_over_another_tower_raises():
    # coefficients are raw values of the source tower; another tower's
    # arithmetic must not be applied to them
    qt = make_tower([Transcendental("t")])
    u = FunctionRing(QQ, ("u",)).var("u")
    dst = FunctionRing(qt, ("v",))
    with pytest.raises(TowerMismatch):
        transport(u * u + 2, [dst.var("v")], dst)


# -- powers ---------------------------------------------------------------------


def _power_cases():
    tq = make_tower([Transcendental("t")])
    out = []
    for r, k in ((FunctionRing(QQ, ("x", "y")), Fraction(-2, 3)),
                 (FunctionRing(tq, ("x", "y")), tq.gen("t")), (elliptic_chart(), 2)):
        x, y = r.var("x"), r.var("y")
        out += [(r, e) for e in ((x + k) / (y - 1), k * x * y - 1, r.const(k), (y * y + x) / k)]
    return out


def test_power_equals_repeated_multiplication():
    for r, e in _power_cases():
        for n in range(-3, 6):
            b = e if n >= 0 else e.inv()
            want = r.one()
            for _ in range(abs(n)):
                want = want * b
            assert e ** n == want, (r, e, n)


def test_relation_free_power_computes_no_gcd(monkeypatch):
    cases = [(r, e) for r, e in _power_cases() if r.relation is None]
    calls = []
    real = funcrings.mp_gcd
    monkeypatch.setattr(funcrings, "mp_gcd", lambda f, g: calls.append(1) or real(f, g))
    powers = [e ** n for _, e in cases for n in range(-3, 6)]
    assert calls == []
    assert len(powers) == 9 * len(cases)


def test_dual_power_equals_repeated_multiplication():
    for r, e in _power_cases():
        x = r.var("x")
        for u in (DualElem(r, e, x), DualElem(r, e)):
            for n in range(-3, 6):
                b = u if n >= 0 else u.inv()
                want = DualElem(r, r.one())
                for _ in range(abs(n)):
                    want = want * b
                assert u ** n == want, (r, u, n)


# -- scaling by a constant --------------------------------------------------------


def _scaling_cases():
    tq = make_tower([Transcendental("t")])
    t2 = make_tower([Algebraic("r2", [-2, 0, 1])])
    out = []
    for r, ks in ((FunctionRing(QQ, ("x", "y")), (Fraction(-2, 3), 5)),
                  (FunctionRing(tq, ("x", "y")), (tq.gen("t") + 1, (tq.gen("t") - 2).inv())),
                  (FunctionRing(t2, ("x", "y")), (t2.gen("r2") + 1,)),
                  (elliptic_chart(), (Fraction(3, 4),))):
        x, y = r.var("x"), r.var("y")
        elems = [x, (x + ks[0]) / (y - 1), (y * y + x) / (x + 2), r.zero(), r.const(ks[-1])]
        consts = [r.const(k) for k in ks] + [-r.const(ks[0]), r.one(), r.zero()]
        out += [(r, a, c) for a in elems for c in consts]
    return out


def test_constant_scaling_equals_the_general_product():
    for r, a, c in _scaling_cases():
        want = RingElem(r, a.num * c.num, a.den * c.den)
        assert a * c == want and c * a == want, (r, a, c)
        assert a * 3 == RingElem(r, a.num * 3, a.den)
        assert (-2) * a == RingElem(r, a.num * -2, a.den)


def test_constant_scaling_computes_no_gcd(monkeypatch):
    cases = _scaling_cases()
    calls = []
    real = funcrings.mp_gcd
    monkeypatch.setattr(funcrings, "mp_gcd", lambda f, g: calls.append(1) or real(f, g))
    products = [(a * c, c * a, a * 3, Fraction(1, 7) * a) for _, a, c in cases]
    assert calls == []
    assert len(products) == len(cases)


def test_adding_zero_returns_the_other_operand(monkeypatch):
    r = FunctionRing(QQ, ("x", "y"))
    f, z = (r.var("x") + 1) / r.var("y"), r.zero()
    calls = []
    real = RingElem.__init__

    def counted(self, *args):
        calls.append(1)
        real(self, *args)

    monkeypatch.setattr(RingElem, "__init__", counted)
    assert f + z is f and z + f is f and (z + z).is_zero()
    assert not calls


def test_integer_constants_are_built_once_per_ring():
    r, s = plain_xy(), plain_xy()
    assert r == s
    assert r.const(3) is r.const(3) and r.one() is r.const(1) and r.zero() is r.const(0)
    assert r.const(3) is not s.const(3) and r.const(3) == s.const(3)
    assert r.const(3).ring is r and s.const(3).ring is s
    assert r.const(-5) is r.memo[("const", -5)]
    # other constants are built afresh, each equal to its int twin
    assert r.const(Fraction(6, 2)) == r.const(3)


def test_scaling_by_plus_or_minus_one_makes_no_product(monkeypatch):
    r = plain_xy()
    x, y = r.var("x"), r.var("y")
    elems = [x, (x + 2) / (y - 1), r.const(Fraction(-3, 4)), r.zero()]
    negs = [-f for f in elems]
    calls = []
    for cls, name in ((MPoly, "__mul__"), (MPoly, "__rmul__"), (RingElem, "_coerce")):
        real = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda a, b, real=real: calls.append(1) or real(a, b))
    for f, nf in zip(elems, negs):
        assert f * 1 is f and 1 * f is f
        assert f * -1 == nf and -1 * f == nf
    assert calls == []
