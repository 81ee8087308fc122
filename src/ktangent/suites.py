"""Seeded randomized check families shared by the command line and tests.

Each family is driven by a single ``random.Random(seed)``, so a fixed seed
reproduces the identical instances and the identical report.  Families
range over three scalar towers — the rationals, a quadratic extension, and
a rational-function field — with instances split round-robin between them.
Every runner returns a list of check dicts shaped like
``{"name", "status", "count", "witnesses"}`` that the report layer embeds
directly.  A runner given a weight at which every form it compares has
degree above its ring's variable count, and so is zero, refuses it
(``check_weight``) before building anything.
"""

import random

from .scalars import make_tower, Algebraic, Transcendental
from .funcrings import FunctionRing
from .differentials import base_top, base_change
from .milnor import (EpsSymbol, beta, beta_via_truncation, eps_to_absolute,
                     check_codifferential, relation_check)
from .complexes import alpha_delta_diagram
from .errors import VacuousCheck

DEFAULT_SEED = 20260401
_PS = (2, 3, 4)
_SYMBOL_VARS = ("x", "y", "z", "v")
_DIAGRAM_VARS = ("x", "y", "z")


def standard_towers():
    """The three scalar towers the randomized families range over."""
    return (("rationals", make_tower([])),
            ("quadratic", make_tower([Algebraic("r2", [-2, 0, 1])])),
            ("function-field", make_tower([Transcendental("t")])))


def symbol_ring(tower):
    """Four variables: enough room for nonzero degree-4 forms over Q."""
    return FunctionRing(tower, _SYMBOL_VARS)


def unit_pool(ring):
    """Nonzero elements the generators draw entries from.

    Everything here is a unit of the function field; the single quotient
    keeps a monomial denominator so arithmetic stays quick.
    """
    x, y, z, v = (ring.var(n) for n in ring.varnames)
    pool = [x, y, z, v, x + 1, y - 2, z + 3, x + y, x * y + 1, (x + 2) / y]
    for nm in ring.tower.names:
        g = ring.const(ring.tower.gen(nm))
        pool += [g, g + x]
    return pool


def random_symbol(rng, ring, p, pool):
    """A random symbol over the dual numbers with one or two parts."""
    s = None
    for _ in range(rng.choice((1, 1, 2))):
        h = rng.choice(pool) + rng.choice((0, 1, -1))
        tails = tuple(rng.choice(pool) for _ in range(p - 1))
        part = EpsSymbol.of(h, tails, rng.choice((-2, -1, 1, 2)))
        s = part if s is None else s * part
    return s


def _symbol_family(p, seed, count):
    """(label, tower, symbol) triples, spread round-robin over the towers."""
    rng = random.Random(seed)
    towers = standard_towers()
    rings = [(label, tw, symbol_ring(tw)) for label, tw in towers]
    pools = [unit_pool(ring) for _, _, ring in rings]
    out = []
    for i in range(count):
        label, tw, ring = rings[i % len(rings)]
        out.append((label, tw, random_symbol(rng, ring, p, pools[i % len(rings)])))
    return out


def _aggregate(name, count, bad):
    return {"name": name, "status": "pass" if not bad else "fail",
            "count": count, "witnesses": bad[:3]}


def _symbol_suite(name, holds, p, seed, count):
    """One aggregate check per weight: ``holds(tower, symbol)`` on a family."""
    checks = []
    for pp in _PS if p is None else (p,):
        fam = _symbol_family(pp, seed + pp, count)
        bad = [f"{label}: {s}" for label, tw, s in fam if not holds(tw, s)]
        checks.append(_aggregate(f"{name} p={pp}", len(fam), bad))
    return checks


def codifferential_suite(p=None, seed=DEFAULT_SEED, count=51):
    """tilde_dlog(s) agrees with the signed derivative of beta(s)."""
    check_weight(codifferential_suite, p)
    return _symbol_suite(
        "codifferential", lambda tw, s: check_codifferential(s)["status"] == "pass",
        p, seed, count)


def beta_agreement_suite(p=None, seed=DEFAULT_SEED, count=51):
    """beta computed directly agrees with beta via dual-number truncation."""
    check_weight(beta_agreement_suite, p)
    return _symbol_suite(
        "beta agreement", lambda tw, s: beta_via_truncation(s) == beta(s),
        p, seed, count)


def absolute_square_suite(p=None, seed=DEFAULT_SEED, count=51):
    """beta over the absolute base, pushed up the tower, recovers beta."""
    check_weight(absolute_square_suite, p)
    return _symbol_suite(
        "absolute square",
        lambda tw, s: base_change(eps_to_absolute(s), base_top(tw)) == beta(s),
        p, seed, count)


def relations_suite(seed=DEFAULT_SEED, count=134):
    """The defining relations die under every map to forms.

    Steinberg, bilinearity, and commutation instances go through dlog;
    additivity instances over the dual numbers go through tilde_dlog, both
    beta computations, and beta over the absolute base.  The default count
    leaves at least 100 instances of the first three kinds.
    """
    rng = random.Random(seed)
    towers = standard_towers()
    rings = [(label, symbol_ring(tw)) for label, tw in towers]
    pools = {label: unit_pool(ring) for label, ring in rings}
    kinds = ("steinberg", "bilinear", "skew", "eps_additive")
    per_kind = {k: 0 for k in kinds}
    bad = []
    for i in range(count):
        label, ring = rings[i % len(rings)]
        pool = pools[label]
        kind = kinds[i % len(kinds)]
        p = rng.choice((2, 3))
        rest = tuple(rng.choice(pool) for _ in range(p - 2))
        if kind == "steinberg":
            a, b = rng.choice(pool), rng.choice(pool)
            if (a + b).is_zero():
                b = b + ring.one()
            data = (a / (a + b), rest)
        elif kind in ("bilinear", "skew"):
            data = (rng.choice(pool), rng.choice(pool) + 3, rest)
        else:
            a = rng.choice(pool) + rng.choice((0, 1))
            b = rng.choice(pool)
            tails = tuple(rng.choice(pool) for _ in range(p - 1))
            data = (a, b, tails)
        rep = relation_check(kind, ring, p, data)
        per_kind[kind] += 1
        if rep["status"] != "pass":
            bad.append(f"{label} {kind}: {rep['witnesses'][:1]}")
        if kind == "eps_additive":
            a, b, tails = data
            s = (EpsSymbol.of(a + b, tails) * EpsSymbol.of(a, tails).inv()
                 * EpsSymbol.of(b, tails).inv())
            if not eps_to_absolute(s).is_zero():
                bad.append(f"{label} eps_additive absolute: {s}")
    name = "relations " + " ".join(f"{k}={n}" for k, n in sorted(per_kind.items()))
    check = _aggregate(name, count, bad)
    check["kinds"] = dict(sorted(per_kind.items()))
    return [check]


def diagram_suite(p=None):
    """The comparison diagram between the two complexes, on sample forms."""
    check_weight(diagram_suite, p)
    ring = FunctionRing(make_tower([]), _DIAGRAM_VARS)
    checks = []
    for pp in _PS if p is None else (p,):
        rep = alpha_delta_diagram(pp, ring)
        bad = [c["name"] for c in rep["checks"] if c["status"] != "pass"]
        checks.append(_aggregate(f"comparison diagram p={pp}",
                                 len(rep["checks"]), bad))
    return checks


# (variable count of the suite's ring, how far the degree of the forms a
# weight-p instance compares falls below p): tilde_dlog and d(beta) are
# p-forms, beta and the diagram's top samples (p - 1)-forms
_COMPARED = {codifferential_suite: (len(_SYMBOL_VARS), 0),
             beta_agreement_suite: (len(_SYMBOL_VARS), 1),
             absolute_square_suite: (len(_SYMBOL_VARS), 1),
             diagram_suite: (len(_DIAGRAM_VARS), 1)}


def check_weight(suite, p):
    """Raise VacuousCheck when ``suite`` at weight p would compare only forms
    of degree above its ring's variable count: every such form is zero, so
    each instance would pass without testing anything.  The default weights
    (p None) all leave room."""
    if p is None or suite not in _COMPARED:
        return
    nvars, drop = _COMPARED[suite]
    if p - drop > nvars:
        raise VacuousCheck(
            f"weight p={p} leaves nothing to check: the suite compares "
            f"{p - drop}-forms on {nvars} variables, and every one is zero "
            f"(p must be at most {nvars + drop})")
