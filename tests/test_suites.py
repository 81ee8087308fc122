"""Seeded families: determinism, coverage, and the identities they enforce."""

import random

import pytest

from ktangent import differentials, milnor, suites
from ktangent.errors import VacuousCheck
from ktangent.suites import (standard_towers, symbol_ring, unit_pool,
                             random_symbol, codifferential_suite,
                             beta_agreement_suite, absolute_square_suite,
                             relations_suite, diagram_suite)
from ktangent.funcrings import FunctionRing
from ktangent.milnor import EpsSymbol


def test_standard_towers_shapes():
    (l0, t0), (l1, t1), (l2, t2) = standard_towers()
    assert t0.num_levels == 0
    assert t1.is_number_field() and t1.num_levels == 1
    assert not t2.is_number_field()


def test_unit_pool_is_invertible():
    for _, tw in standard_towers():
        ring = symbol_ring(tw)
        for f in unit_pool(ring):
            assert f.is_unit()
            f.inv()


def test_random_symbol_is_reproducible():
    ring = symbol_ring(standard_towers()[0][1])
    pool = unit_pool(ring)
    a = random_symbol(random.Random(5), ring, 3, pool)
    b = random_symbol(random.Random(5), ring, 3, pool)
    assert isinstance(a, EpsSymbol)
    assert str(a) == str(b)
    assert a.p == 3


def test_codifferential_suite_small():
    checks = codifferential_suite(p=2, seed=11, count=6)
    assert len(checks) == 1
    assert checks[0]["status"] == "pass"
    assert checks[0]["count"] == 6
    assert checks[0]["witnesses"] == []


def test_suite_reports_are_deterministic():
    a = codifferential_suite(p=3, seed=4, count=4)
    b = codifferential_suite(p=3, seed=4, count=4)
    assert a == b


def test_all_p_shape():
    checks = beta_agreement_suite(seed=2, count=3)
    assert [c["name"] for c in checks] == [
        "beta agreement p=2", "beta agreement p=3", "beta agreement p=4"]
    assert all(c["status"] == "pass" for c in checks)


def test_absolute_square_small():
    checks = absolute_square_suite(p=4, seed=9, count=6)
    assert checks[0]["status"] == "pass"


def test_relations_small():
    checks = relations_suite(seed=3, count=12)
    assert len(checks) == 1
    assert checks[0]["status"] == "pass"
    assert checks[0]["count"] == 12
    # all four kinds appear in the spread, counted in the structured field
    for kind in ("steinberg", "bilinear", "skew", "eps_additive"):
        assert kind in checks[0]["name"]
        assert checks[0]["kinds"][kind] == 3


def test_failing_relations_print_their_witnesses(monkeypatch):
    monkeypatch.setattr(suites, "relation_check", lambda kind, ring, p, data: {
        "status": "fail" if kind == "eps_additive" else "pass",
        "witnesses": ["w1", "w2"]})
    seen = []

    def nonzero(s):
        seen.append(s)
        return differentials.d(s.ring.var("x"), differentials.base_q())

    monkeypatch.setattr(suites, "eps_to_absolute", nonzero)
    check, = relations_suite(seed=3, count=4)
    assert check["status"] == "fail"
    assert check["witnesses"] == ["rationals eps_additive: w1",
                                  f"rationals eps_additive absolute: {seen[0]}"]


@pytest.mark.parametrize("runner, top", [
    (codifferential_suite, 4), (beta_agreement_suite, 5),
    (absolute_square_suite, 5), (diagram_suite, 4)])
def test_vacuous_weight_is_refused_before_anything_runs(monkeypatch, runner, top):
    built = []
    monkeypatch.setattr(suites, "FunctionRing", lambda *a, **k: built.append(a))
    with pytest.raises(VacuousCheck, match=f"at most {top}"):
        runner(p=top + 1)
    assert built == []
    suites.check_weight(runner, top)
    suites.check_weight(runner, None)


def test_diagram_suite_single_p():
    checks = diagram_suite(p=2)
    assert len(checks) == 1 and checks[0]["status"] == "pass"


def test_each_form_is_computed_once_per_ring(monkeypatch):
    # the computations under the ring's memo: d and dlog of one element,
    # and the wedge of the dlogs of one tail tuple, per ring and base
    seen = {}
    rings = []  # kept alive, so that no ring id is reused during the run

    def spy(module, name, kind, split):
        real = getattr(module, name)

        def counted(*args):
            ring, what, base = split(*args)
            rings.append(ring)
            key = (id(ring), kind, what, base)
            seen[key] = seen.get(key, 0) + 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    spy(differentials, "_d_coeffs", "d", lambda f, base: (f.ring, f, base))
    spy(differentials, "_dlog_coeffs", "dlog", lambda f, base: (f.ring, f, base))
    spy(milnor, "_wedge_dlogs", "tails", lambda ring, base, tails: (ring, tails, base))
    checks = (codifferential_suite(p=3) + beta_agreement_suite(p=4)
              + relations_suite(count=30))
    assert all(c["status"] == "pass" for c in checks)
    assert {key[1] for key in seen} == {"d", "dlog", "tails"}
    repeated = [key[1:] for key, n in seen.items() if n > 1]
    assert repeated == []


def test_no_memo_entry_changes_after_it_is_stored(monkeypatch):
    stored = []
    real = FunctionRing.remember

    def remember(ring, key, compute, *args):
        new = key not in ring.memo
        val = real(ring, key, compute, *args)
        if new:
            stored.append((ring, key, repr(val)))
        return val

    monkeypatch.setattr(FunctionRing, "remember", remember)
    assert all(c["status"] == "pass" for c in codifferential_suite())
    assert {key[0] for _, key, _ in stored} >= {"letters", "d", "dlog", "tails"}
    changed = [key for ring, key, snap in stored if repr(ring.memo[key]) != snap]
    assert changed == []


def _compared_forms(p, seed, count):
    """The forms the seeded identity suites build for weight p, grouped by
    (tower, base, degree), so that any two in a group can be subtracted:
    beta both ways, beta pushed up from the absolute base, tilde_dlog and
    the signed d(beta), the embedded word's dlog over both dual bases, and
    the double of each, which differs from every nonzero form."""
    groups = {}
    for label, tw, s in suites._symbol_family(p, seed, count):
        top, word = differentials.base_top(tw), s.embed()
        for w in (milnor.beta(s), milnor.beta_via_truncation(s),
                  differentials.base_change(milnor.eps_to_absolute(s), top),
                  milnor.tilde_dlog(s),
                  differentials.d(milnor.beta(s)) * (-1) ** (p - 1),
                  word.dlog(differentials.absolute_on_dual(tw.num_levels)),
                  word.dlog(differentials.dual_relative(tw))):
            groups.setdefault((label, w.base, w.degree), []).extend((w, w + w))
    return groups


@pytest.mark.parametrize("p", [2, 3, 4])
def test_form_equality_agrees_with_subtraction(p):
    # the identity suites decide equality with ==, which must hold exactly
    # when the difference is the zero form
    seen = set()
    for (label, base, degree), forms in _compared_forms(p, 40 + p, 9).items():
        for i, a in enumerate(forms):
            for b in forms[i:]:
                eq = a == b
                assert eq == (a - b).is_zero() and eq == (b == a), (label, base, a, b)
                seen.add((label, base.is_dual(), eq))
    assert seen == {(label, dual, eq) for label, _ in standard_towers()
                    for dual in (False, True) for eq in (False, True)}
