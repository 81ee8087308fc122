"""Exterior derivative, wedge, bases, contraction, pullback."""

import gc
import random

import pytest

from ktangent.differentials import (
    BaseTag,
    DiffForm,
    absolute_on_dual,
    base_change,
    base_change_kernel_letters,
    base_level,
    base_q,
    base_top,
    contract_deps,
    d,
    dlog,
    dual_relative,
    letter_name,
    letters_of,
    pullback,
    wedge,
)
from ktangent.errors import (
    BaseIncompatible,
    DivisionByZero,
    Mismatch,
    NoDualBase,
    NonUnitBody,
    NotAnEnlargement,
)
from ktangent.funcrings import DualElem, FunctionRing, RingElem, transport
from ktangent.mpoly import MPoly
from ktangent.scalars import QQ, Algebraic, Transcendental, make_tower
from ktangent.suites import standard_towers, symbol_ring, unit_pool

from oracles import eps_part, specialize_eps


def ring_xy():
    return FunctionRing(QQ, ("x", "y"))


def ring_elliptic():
    xv, yv = MPoly.variable(QQ, 2, 0), MPoly.variable(QQ, 2, 1)
    return FunctionRing(QQ, ("x", "y"), yv * yv - xv**3 + xv - 1)


def ring_qt():
    tw = make_tower([Transcendental("t")])
    return FunctionRing(tw, ("x", "y"))


def test_d_polynomial():
    r = ring_xy()
    x, y = r.var("x"), r.var("y")
    w = d(x * x * y, base_q())
    assert w.coeff([("v", 0)]) == 2 * x * y
    assert w.coeff([("v", 1)]) == x * x
    v = d(x / y, base_q())
    assert v.coeff([("v", 0)]) == y.inv()
    assert v.coeff([("v", 1)]) == -x / (y * y)


def test_d_through_relation():
    r = ring_elliptic()
    x, y = r.var("x"), r.var("y")
    w = d(y, base_q())
    # 2y dy = (3x^2 - 1) dx
    assert w.coeff([("v", 0)]) == (3 * x * x - 1) / (2 * y)
    assert d(y * y, base_q()) == d(x**3 - x + 1, base_q())


def test_d_through_a_relation_that_involves_the_base_parameter():
    # F = y^2 - x^3 - t*x - 1 over Q(t): relative to Q, dy carries a dt term
    tw = make_tower([Transcendental("t")])
    xv, yv = MPoly.variable(tw, 2, 0), MPoly.variable(tw, 2, 1)
    r = FunctionRing(tw, ("x", "y"), yv * yv - xv**3 - MPoly.const(tw, 2, tw.gen("t")) * xv - 1)
    x, y, t = r.var("x"), r.var("y"), r.const(tw.gen("t"))
    dx, dy, dt = (d(v, base_q()) for v in (x, y, t))
    # F_y dy + F_x dx + F_t dt = 2y dy - (3x^2 + t) dx - x dt
    assert (2 * y * dy - (3 * x * x + t) * dx - x * dt).is_zero()
    assert not (2 * y * dy - (3 * x * x + t) * dx).is_zero()
    assert d(dy).is_zero()


def test_d_squared_zero():
    rng = random.Random(2026)
    for r in (ring_xy(), ring_elliptic(), ring_qt()):
        gens = list(r.gens().values())
        if r.tower.num_levels:
            gens.append(r.const(r.tower.gen("t")))
        for base in (base_q(), base_top(r.tower)):
            for _ in range(8):
                f = rng.choice(gens) * rng.choice(gens) + rng.choice(gens)
                g = rng.choice(gens) + 2
                w = d(f / g, base)
                assert d(w).is_zero()


def test_base_level_holds_the_levels_up_to_it_constant():
    tw = make_tower([Transcendental("t"), Transcendental("s")])
    r = FunctionRing(tw, ("x",))
    x, t, s = r.var("x"), r.const(tw.gen("t")), r.const(tw.gen("s"))
    assert base_level(0) == base_q() and base_level(2) == base_top(tw)
    b = base_level(1)  # over Q(t): dt is zero, ds is a letter
    assert d(t, b).is_zero() and not d(s, b).is_zero()
    assert d(x * t * s, b) == t * s * d(x, b) + t * x * d(s, b)


def test_d_of_eps_is_named_deps():
    r = ring_xy()
    eps = DualElem(r, r.zero(), r.one())
    assert letter_name(r, ("e",)) == "deps"
    assert str(d(eps, absolute_on_dual())) == "1 deps"


def test_wedge_signs():
    r = ring_xy()
    x, y = r.var("x"), r.var("y")
    dx = d(x, base_q())
    dy = d(y, base_q())
    assert wedge(dx, dy) == -wedge(dy, dx)
    assert wedge(dx, dx).is_zero()
    w = wedge(x * dx + y * dy, dy)
    assert w.coeff([("v", 0), ("v", 1)]) == x


def test_leibniz_on_products():
    r = ring_elliptic()
    rng = random.Random(13)
    gens = list(r.gens().values())
    for _ in range(10):
        f = rng.choice(gens) + rng.choice(gens) * rng.choice(gens)
        g = rng.choice(gens) + 1
        lhs = d(f * g, base_q())
        rhs = d(f, base_q()) * g + d(g, base_q()) * f
        assert lhs == rhs


def test_base_levels_and_change():
    r = ring_qt()
    t = r.const(r.tower.gen("t"))
    x = r.var("x")
    w = d(t * x, base_q())
    assert w.coeff([("t", 1)]) == x
    assert w.coeff([("v", 0)]) == t
    top = d(t * x, base_top(r.tower))
    assert top.coeff([("v", 0)]) == t
    assert top == base_change(w, base_top(r.tower))
    assert base_change_kernel_letters(r, base_q(), base_top(r.tower)) == ["dt"]
    with pytest.raises(NotAnEnlargement):
        base_change(top, base_q())


def test_dual_derivative_free_eps():
    r = ring_xy()
    x, y = r.var("x"), r.var("y")
    u = DualElem(r, x, y)
    w = d(u, absolute_on_dual())
    assert w.coeff([("v", 0)]) == DualElem(r, r.one())
    assert w.coeff([("v", 1)]) == DualElem(r, r.zero(), r.one())
    assert w.coeff([("e",)]) == DualElem(r, y)
    # over the dual-relative base d(eps) vanishes
    v = d(u, dual_relative(QQ))
    assert v.coeff([("e",)]) == DualElem(r, r.zero()) or ("e",) not in [
        k[0] for k in v.terms
    ]
    assert d(w).is_zero()
    assert d(v).is_zero()


def test_eps_times_deps_is_zero():
    r = ring_xy()
    x = r.var("x")
    base = absolute_on_dual()
    w = d(DualElem(r, x), base)  # dx with dual coefficients
    deps = DiffForm(r, base, 1, {(("e",),): DualElem(r, r.one())})
    eps = DualElem(r, r.zero(), r.one())
    assert (deps * eps).is_zero()
    assert wedge(w * eps, deps) == wedge(w, deps) * eps


def test_dlog_dual_unit():
    r = ring_xy()
    x, y = r.var("x"), r.var("y")
    u = DualElem(r, r.one(), y / x)  # 1 + eps y/x
    w = dlog(u, absolute_on_dual())
    got = contract_deps(w)
    assert got.degree == 0
    assert got.coeff([]) == y / x
    # letter parts are eps * d(y/x)
    assert w.coeff([("v", 1)]) == DualElem(r, r.zero(), x.inv())


def test_contract_deps_signs():
    r = ring_xy()
    x, y = r.var("x"), r.var("y")
    base = absolute_on_dual()
    dx = d(DualElem(r, x), base)
    deps = DiffForm(r, base, 1, {(("e",),): DualElem(r, r.one())})
    w = wedge(dx, deps) * y
    assert contract_deps(w) == d(x, base_q()) * y
    # deps in front costs a sign when commuted to the back
    v = wedge(deps, dx) * y
    assert contract_deps(v) == -(d(x, base_q()) * y)


def test_specialize_and_eps_part():
    r = ring_xy()
    x, y = r.var("x"), r.var("y")
    base = dual_relative(QQ)
    u = DualElem(r, x * y, y)
    w = d(u, base)
    body = specialize_eps(w)
    slope = eps_part(w)
    assert body == d(x * y, base_top(QQ))
    assert slope == d(y, base_top(QQ))


def test_mismatch_errors():
    r = ring_xy()
    x, y = r.var("x"), r.var("y")
    with pytest.raises(Mismatch):
        d(x, base_q()) + DiffForm.of_elem(y, base_q())
    rt = ring_qt()
    xt = rt.var("x")
    with pytest.raises(BaseIncompatible):
        d(xt, base_q()) + d(xt, base_top(rt.tower))
    with pytest.raises(NoDualBase):
        d(DualElem(r, x, y), base_q())
    with pytest.raises(NoDualBase):
        contract_deps(d(x, base_q()))


def test_pullback_commutes_with_d():
    # P^1 transition u = 1/v
    r0 = FunctionRing(QQ, ("u",))
    r1 = FunctionRing(QQ, ("v",))
    v = r1.var("v")
    subst = [v.inv()]
    rng = random.Random(3)
    u = r0.var("u")
    for _ in range(6):
        k = rng.randint(1, 4)
        f = u**k + rng.randint(-2, 2) * u + 1
        left = pullback(d(f, base_q()), subst, r1)
        right = d(transport(f, subst, r1), base_q())
        assert left == right


def test_pullback_chain_rule_on_curve():
    # overlap of the two cubic charts: x = xb/zb, y = 1/zb
    ra = ring_elliptic()
    xbv, zbv = MPoly.variable(QQ, 2, 0), MPoly.variable(QQ, 2, 1)
    rb = FunctionRing(QQ, ("xb", "zb"), zbv**3 - xbv * zbv**2 - zbv + xbv**3)
    xb, zb = rb.var("xb"), rb.var("zb")
    subst = [xb / zb, zb.inv()]
    x, y = ra.var("x"), ra.var("y")
    f = (x + y * y) / (x - 2)
    assert pullback(d(f, base_q()), subst, rb) == d(transport(f, subst, rb), base_q())


def _qt_charts():
    """Two planes over Q(t) glued by x = t*u + v, y = 1/u."""
    ra = ring_qt()
    rb = FunctionRing(ra.tower, ("u", "v"))
    u, v = rb.var("u"), rb.var("v")
    return ra, rb, [rb.const(rb.tower.gen("t")) * u + v, u.inv()]


@pytest.mark.parametrize("make_base", [lambda tw: base_q(), lambda tw: absolute_on_dual(),
                                       dual_relative],
                         ids=["base_q", "absolute_on_dual", "dual_relative"])
def test_pullback_over_qt_is_d_of_the_transported_element(make_base):
    # base_q and absolute_on_dual carry a dt letter, absolute_on_dual a d(eps)
    ra, rb, subst = _qt_charts()
    base = make_base(ra.tower)
    x, y = ra.var("x"), ra.var("y")
    t = ra.const(ra.tower.gen("t"))
    f, g = (x + t * y) / (x - t), x * y + t
    if base.is_dual():
        f, g = DualElem(ra, f, t * x), DualElem(ra, g, y * y)

    def moved(e):
        if isinstance(e, DualElem):
            return DualElem(rb, transport(e.body, subst, rb), transport(e.slope, subst, rb))
        return transport(e, subst, rb)

    assert pullback(d(f, base), subst, rb) == d(moved(f), base)
    w = wedge(d(f, base), d(g, base))
    if base.eps == "free":
        assert any(("e",) in key for key in w.terms)
    assert any(("t", 1) in key for key in w.terms) == (base.level == 0)
    assert pullback(w, subst, rb) == wedge(d(moved(f), base), d(moved(g), base))


def test_coefficients_follow_the_base():
    r = ring_xy()
    x, y = r.var("x"), r.var("y")
    with pytest.raises(NoDualBase):
        DiffForm(r, base_q(), 1, {(("v", 0),): DualElem(r, x, y)})
    w = DiffForm(r, dual_relative(QQ), 1, {(("v", 0),): x})
    c = w.terms[(("v", 0),)]
    assert isinstance(c, DualElem) and c == DualElem(r, x)
    with pytest.raises(NoDualBase):
        d(x, base_q()) * DualElem(r, y)
    # eps * d(eps) = 0 keeps only the body under d(eps)
    v = DiffForm(r, absolute_on_dual(), 1, {(("e",),): DualElem(r, x, y)})
    assert v.terms == {(("e",),): DualElem(r, x)}


def test_dropped_rings_are_freed_with_their_memos():
    # derived data lives on the ring, so no cache keeps a dead ring alive
    def alive():
        return sum(1 for o in gc.get_objects()
                   if isinstance(o, FunctionRing) and o.varnames[0].startswith("leak"))

    for i in range(300):
        r = FunctionRing(QQ, (f"leak{i}", "y"))
        x = r.var(f"leak{i}")
        letters_of(r, base_q())
        dlog((x + 1) / r.var("y"), base_q())
    assert alive() >= 1  # the last ring is still referenced here
    del r, x
    gc.collect()
    assert alive() == 0


# -- the fused quotient rule and dlog against a reference composition ---------

def _ref_partials(ring, base, P):
    """d of a polynomial letter by letter, through RingElem arithmetic, with
    the chain rule through the eliminated variable by implicit
    differentiation."""
    rel, v = ring.relation, ring.elim
    out = {}
    for kind, *i in letters_of(ring, base):
        if kind == "e":
            continue
        part = (lambda Q: Q.deriv(i[0])) if kind == "v" else (lambda Q: Q.coeff_deriv(i[0]))
        c = RingElem(ring, part(P))
        if rel is not None:
            c = c - (RingElem(ring, P.deriv(v)) * RingElem(ring, part(rel))
                     / RingElem(ring, rel.deriv(v)))
        out[(kind, *i)] = c
    return out


def _ref_d_coeffs(f, base):
    ring = f.ring
    dn, dd = _ref_partials(ring, base, f.num), _ref_partials(ring, base, f.den)
    num, den = RingElem(ring, f.num), RingElem(ring, f.den)
    return {l: (dn[l] * den - num * dd[l]) / (den * den) for l in dn}


def reference_d(f, base):
    """d through the quotient rule in RingElem arithmetic, one letter at a time."""
    ring = f.ring
    if not base.is_dual():
        terms = {(l,): c for l, c in _ref_d_coeffs(f, base).items()}
        return DiffForm(ring, base, 1, terms)
    if isinstance(f, RingElem):
        f = DualElem(ring, f)
    db, ds = _ref_d_coeffs(f.body, base), _ref_d_coeffs(f.slope, base)
    terms = {(l,): DualElem(ring, db[l], ds[l]) for l in db}
    if base.eps == "free":
        terms[(("e",),)] = DualElem(ring, f.slope)
    return DiffForm(ring, base, 1, terms)


def reference_dlog(f, base):
    return reference_d(f, base) * f.inv()


def ring_sqrt2():
    return FunctionRing(make_tower([Algebraic("r2", [-2, 0, 1])]), ("x", "y"))


def _samples(r, rng, n):
    """Random fractions over r, with tower generators among the constants."""
    gens = list(r.gens().values())
    gens += [r.const(r.tower.gen(nm)) for nm in r.tower.names]
    out = []
    while len(out) < n:
        f = rng.choice(gens) * rng.choice(gens) + rng.choice(gens) * rng.randint(-2, 2)
        g = rng.choice(gens) + rng.randint(1, 3)
        if not g.is_zero() and not f.is_zero():
            out.append(f / g)
    return out


@pytest.mark.parametrize("make", [ring_xy, ring_sqrt2, ring_qt, ring_elliptic])
def test_fused_d_and_dlog_match_the_reference(make):
    r = make()
    rng = random.Random(808)
    for base in (base_q(), base_top(r.tower)):
        for f in _samples(r, rng, 6) + [r.var("x"), r.one() * 3]:
            assert d(f, base) == reference_d(f, base)
            assert dlog(f, base) == reference_dlog(f, base)


@pytest.mark.parametrize("make", [ring_xy, ring_sqrt2, ring_qt, ring_elliptic])
def test_fused_dual_d_and_dlog_match_the_reference(make):
    r = make()
    rng = random.Random(909)
    fs = _samples(r, rng, 3)
    for base in (absolute_on_dual(), absolute_on_dual(r.tower.num_levels),
                 dual_relative(r.tower)):
        for body, slope in zip(fs, fs[1:] + [r.zero()]):
            u = DualElem(r, body, slope)
            assert d(u, base) == reference_d(u, base)
            assert dlog(u, base) == reference_dlog(u, base)
        assert dlog(fs[0], base) == reference_dlog(fs[0], base)


def test_dlog_of_a_zero_argument_raises():
    r = ring_elliptic()
    x = r.var("x")
    with pytest.raises(DivisionByZero):
        dlog(r.zero(), base_q())
    with pytest.raises(DivisionByZero):
        dlog(r.zero(), absolute_on_dual())
    with pytest.raises(NonUnitBody):
        dlog(DualElem(r, r.zero(), x), absolute_on_dual())
    with pytest.raises(NonUnitBody):
        dlog(DualElem(r, r.zero(), x), dual_relative(QQ))
    with pytest.raises(NoDualBase):
        dlog(DualElem(r, x, x), base_q())


def test_dlog_canonicalises_each_coefficient_once(monkeypatch):
    r = ring_qt()
    x, y = r.var("x"), r.var("y")
    t = r.const(r.tower.gen("t"))
    f = (x * y + t) / (x - t * y + 1)
    base = base_q()
    want = reference_dlog(f, base)
    calls = []
    real = RingElem.__init__

    def counted(self, *args):
        calls.append(1)
        real(self, *args)

    monkeypatch.setattr(RingElem, "__init__", counted)
    got = dlog(f, base)
    monkeypatch.undo()
    assert got == want
    assert len(calls) <= len(letters_of(r, base))


def test_d_of_a_form_adds_no_forms(monkeypatch):
    # d accumulates every term's contribution into one coefficient table,
    # as wedge does, instead of summing one single-term form per term
    r = ring_qt()
    x, y = r.var("x"), r.var("y")
    t = r.const(r.tower.gen("t"))
    for base in (base_q(), base_top(r.tower)):
        dx, dy = d(x, base), d(y, base)
        f, g = (x * y + t) / (x - y), x * t + y * y
        w = dx * f + dy * g
        want = wedge(d(f, base), dx) + wedge(d(g, base), dy)

        def refused(self, other):
            raise AssertionError("d added two forms")

        monkeypatch.setattr(DiffForm, "__add__", refused)
        got = d(w)
        monkeypatch.undo()
        assert got == want and not got.is_zero()


# -- the ring's memo of d, dlog and letters -----------------------------------

def _memo_cases():
    """(ring, elements) for every unit_pool ring and a Weierstrass chart."""
    cases = []
    for _, tw in standard_towers():
        r = symbol_ring(tw)
        cases.append((r, unit_pool(r)))
    r = ring_elliptic()
    x, y = r.var("x"), r.var("y")
    cases.append((r, [x, y, x + 1, y - 2, x * y + 1, (x + 2) / y, y / (x - 3)]))
    return cases


def _fresh(ring, f):
    """f rebuilt in a new ring structurally equal to its own."""
    if isinstance(f, DualElem):
        return DualElem(ring, _fresh(ring, f.body), _fresh(ring, f.slope))
    return RingElem(ring, f.num, f.den)


def test_memoised_d_and_dlog_equal_a_fresh_ring():
    for ring, pool in _memo_cases():
        elems = pool + [DualElem(ring, u, h) for u, h in zip(pool, pool[1:] + pool[:1])]
        tw = ring.tower
        for base in (base_q(), base_top(tw), absolute_on_dual(), dual_relative(tw)):
            fresh = FunctionRing(tw, ring.varnames, ring.relation)
            for f in elems:
                if isinstance(f, DualElem) and not base.is_dual():
                    continue
                g = _fresh(fresh, f)
                for op in (d, dlog):
                    first, second = op(f, base), op(f, base)
                    assert first == second == op(g, base), (op.__name__, f, base)
        assert ring.memo


def test_scaling_a_form_by_plus_or_minus_one_makes_no_product(monkeypatch):
    r = ring_qt()
    x, y = r.var("x"), r.var("y")
    t = r.const(r.tower.gen("t"))
    u = DualElem(r, x * y + t, y)
    forms = [wedge(d(x * t, base_q()), dlog(y + 1, base_q())),
             d(u, absolute_on_dual()), dlog(u, dual_relative(r.tower)),
             DiffForm.zero(r, base_top(r.tower), 1)]
    negs = [-w for w in forms]
    calls = []
    for cls in (RingElem, DualElem):
        for name in ("__mul__", "__rmul__"):
            real = getattr(cls, name)
            monkeypatch.setattr(cls, name, lambda a, b, real=real:
                                calls.append(1) or real(a, b))
    for w, nw in zip(forms, negs):
        assert w * 1 is w and 1 * w is w
        assert w * -1 == nw and -1 * w == nw
    assert calls == []
