"""Symbol words, the eps-splitting, and the maps to differential forms."""

import random
from fractions import Fraction

import pytest

from ktangent import milnor
from ktangent.differentials import (
    base_change,
    base_q,
    base_top,
    d,
    dual_relative,
    eps_part,
    specialize_eps,
)
from ktangent.errors import Mismatch, NonUnitEntry
from ktangent.funcrings import DualElem, FunctionRing
from ktangent.milnor import (
    EpsSymbol,
    SymbolWord,
    beta,
    beta_via_truncation,
    check_codifferential,
    eps_split,
    eps_to_absolute,
    relation_check,
    tilde_dlog,
)
from ktangent.scalars import QQ, Algebraic, Transcendental, make_tower
from ktangent.suites import symbol_ring


def ring_plain():
    return FunctionRing(QQ, ("x", "y"))


def ring_t():
    return FunctionRing(make_tower([Transcendental("t")]), ("x", "y"))


def test_symbol_requires_units():
    r = ring_plain()
    x = r.var("x")
    with pytest.raises(NonUnitEntry):
        SymbolWord.of((x, x - x))
    with pytest.raises(NonUnitEntry):
        EpsSymbol.of(x, (r.zero(),))


def test_eps_split_first_slot():
    r = ring_plain()
    x, y = r.var("x"), r.var("y")
    w = SymbolWord.of((DualElem(r, x, y), DualElem(r, y)))
    body, s = eps_split(w)
    assert body.factors == (((x, y), 1),)
    assert s.parts == ((y / x, (y,), 1),)


def test_eps_split_second_slot_sign():
    r = ring_plain()
    x, y = r.var("x"), r.var("y")
    w = SymbolWord.of((DualElem(r, y), DualElem(r, x, y)))
    _, s = eps_split(w)
    assert s.parts == ((y / x, (y,), -1),)


def test_worked_p2_oracle():
    # s = {1 + eps y/x, x}: all three maps computed by hand
    r = ring_plain()
    x, y = r.var("x"), r.var("y")
    s = EpsSymbol.of(y / x, (x,))
    tl = tilde_dlog(s)
    assert tl.coeff([("v", 0), ("v", 1)]) == -1 / (x * x)
    b = beta(s)
    assert b.coeff([("v", 0)]) == -y / (x * x)
    assert b.coeff([("v", 1)]).is_zero()
    assert beta_via_truncation(s) == b
    assert tilde_dlog(s) == d(beta(s)) * (-1) ** (s.p - 1)


def test_codifferential_random():
    rng = random.Random(40)
    for r in (ring_plain(), ring_t()):
        pool = _unit_pool(r)
        for p in (2, 3):
            for _ in range(8):
                s = _random_eps(rng, r, p, pool)
                rep = check_codifferential(s)
                assert rep["status"] == "pass", rep["witnesses"]


def test_beta_truncation_agreement_random():
    rng = random.Random(41)
    for r in (ring_plain(), ring_t()):
        pool = _unit_pool(r)
        for p in (2, 3):
            for _ in range(6):
                s = _random_eps(rng, r, p, pool)
                assert beta_via_truncation(s) == beta(s)


def test_eps_to_absolute_base_change():
    r = ring_t()
    t = r.const(r.tower.gen("t"))
    x, y = r.var("x"), r.var("y")
    s = EpsSymbol.of(t * x, (t * y,)) * EpsSymbol.of(y / x, (x + t,), -1)
    absolute = eps_to_absolute(s)
    # the absolute form remembers dt; the top-base form forgets it
    assert base_change(absolute, base_top(r.tower)) == beta(s)
    rng = random.Random(42)
    pool = _unit_pool(r)
    for p in (2, 3):
        for _ in range(6):
            s = _random_eps(rng, r, p, pool)
            assert base_change(eps_to_absolute(s), base_top(r.tower)) == beta(s)


def test_recombination_contract():
    # dlog of a dual word = dlog of the body + eps * tilde_dlog of the split
    rng = random.Random(43)
    for r in (ring_plain(), ring_t()):
        pool = _unit_pool(r)
        base = dual_relative(r.tower)
        for p in (1, 2, 3):
            for _ in range(6):
                entries = []
                for _ in range(p):
                    f = rng.choice(pool)
                    g = rng.choice(pool + [r.zero()])
                    entries.append(DualElem(r, f, g))
                w = SymbolWord.of(entries, rng.choice([-2, -1, 1, 2]))
                body, s = eps_split(w)
                full = w.dlog(base)
                assert specialize_eps(full) == body.dlog(base_top(r.tower))
                assert eps_part(full) == tilde_dlog(s)


def test_relations_die():
    r = ring_plain()
    x, y = r.var("x"), r.var("y")
    u = x / (x + y)  # keeps 1-u a unit: 1-u = y/(x+y)
    assert relation_check("steinberg", r, 2, (u, ()))["status"] == "pass"
    assert relation_check("bilinear", r, 2, (x, y, (x + 1,)))["status"] == "pass"
    assert relation_check("skew", r, 2, (x, y + 2, ()))["status"] == "pass"
    assert relation_check("eps_additive", r, 2, (x * y, y.inv(), (x,)))["status"] == "pass"


def test_embed_roundtrip():
    r = ring_plain()
    x, y = r.var("x"), r.var("y")
    s = EpsSymbol.of(x + y, (x, y), -2)
    w = s.embed()
    assert w.dual and w.p == 3
    body, s2 = eps_split(w)
    # embedding has trivial body symbols {1, x, y}; the eps part survives
    assert s2.parts == s.parts
    assert body.dlog(base_top(QQ)).is_zero()


def _unit_pool(r):
    x, y = r.var("x"), r.var("y")
    pool = [x, y, x + 1, y - 2, x + y, x * y + 1, (x + 2) / (y + 3)]
    if r.tower.num_levels:
        t = r.const(r.tower.gen("t"))
        pool += [t, t + x, t * y]
    return pool


def _random_eps(rng, r, p, pool):
    s = None
    for _ in range(rng.randint(1, 2)):
        h = rng.choice(pool) + rng.choice([0, 1, -1])
        tails = tuple(rng.choice(pool) for _ in range(p - 1))
        part = EpsSymbol.of(h, tails, rng.choice([-2, -1, 1, 2]))
        s = part if s is None else s * part
    return s


def test_codifferential_of_a_function_field_symbol_with_heavy_gcds():
    # its heavy gcds have the form (1/(t + 1)) * (a polynomial over Q), which
    # must run over Q: flattening t into the polynomial ring takes minutes
    tw = make_tower([Transcendental("t")])
    r = symbol_ring(tw)
    x, y, z = r.var("x"), r.var("y"), r.var("z")
    t = r.const(tw.gen("t"))
    s = (EpsSymbol.of(t + 1, (x, y - 2, z + 3), -2)
         * EpsSymbol.of(x + t + 1, (x * y + 1, x + t, z), 2))
    assert str(s) == ("{1 + eps*(1/(1/(t + 1))), x, y - 2, z + 3}^-2"
                      " * {1 + eps*(x + t + 1), x*y + 1, x + t, z}^2")
    assert check_codifferential(s)["status"] == "pass"


@pytest.mark.parametrize("make_base, witness", [
    (lambda tw: None, "(y/((1/2)*y + 1/2)) dx ^ dy"),
    (lambda tw: base_q(),
     "(y/((1/2)*y + 1/2)) dx ^ dy  +  (1/((-1/2)*y - 1/2)) dy ^ dt"),
])
def test_a_failing_codifferential_reports_the_difference(monkeypatch, make_base, witness):
    # a sign flip in beta breaks the identity; the witness is str(lhs - rhs),
    # the difference of the two sides, byte for byte
    r = ring_t()
    x, y = r.var("x"), r.var("y")
    s = EpsSymbol.of(x * y + r.const(r.tower.gen("t")), (y + 1,))
    base = make_base(r.tower)
    real = milnor.beta
    monkeypatch.setattr(milnor, "beta", lambda s, base=None: -real(s, base))
    lhs = tilde_dlog(s, base)
    rhs = d(-real(s, base)) * (-1) ** (s.p - 1)
    rep = check_codifferential(s, base)
    assert rep == {"name": "codifferential", "status": "fail", "witnesses": [witness]}
    assert witness == str(lhs - rhs)
