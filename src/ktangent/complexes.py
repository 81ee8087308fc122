"""Desk-scale cochain complexes of differential forms and the zig-zag
comparison diagram between the tangent complex and its cone-shaped partner.

A Complex here is a finite diagram of form spaces indexed by an integer
range; terms are tuples of form degrees (length > 1 for direct sums) and
values are matching tuples of DiffForms.  Verification is by evaluation on
a fixed family of sample forms, not by symbol pushing.
"""

from __future__ import annotations

from itertools import combinations

from .differentials import (DiffForm, base_top, d, dual_relative, eps_part, letters_of,
                            specialize_eps, wedge)
from .errors import Mismatch
from .funcrings import DualElem


class Complex:
    """Terms ``terms[i]`` (tuple of form degrees) and maps ``diff[i]``."""

    __slots__ = ("ring", "base", "lo", "hi", "terms", "diff")

    def __init__(self, ring, base, lo, hi, terms, diff):
        self.ring = ring
        self.base = base
        self.lo = lo
        self.hi = hi
        self.terms = terms
        self.diff = diff

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def apply(self, i, val):
        if i >= self.hi:
            return None
        return self.diff[i](val)


def tangent_deligne(p, ring):
    """O -> Omega^1 -> .. -> Omega^(p-1), placed in degrees 1..p, with d
    taken over the full scalar tower."""
    base = base_top(ring.tower)
    terms = {i: (i - 1,) for i in range(1, p + 1)}
    diff = {i: (lambda v: (d(v[0]),)) for i in range(1, p)}
    return Complex(ring, base, 1, p, terms, diff)


def cone_partner(p, ring):
    """The cone-shaped complex receiving the tangent complex.

    Degrees 1..p-1 carry Omega^(i-1); degree p carries Omega^p + Omega^(p-1);
    degree p+1 carries Omega^(p+1) + Omega^p.  The structure maps delta are

        delta_i(x)      = d(x)            (i <= p-2)
        delta_(p-1)(x)  = (0, d(x))
        delta_p(x, y)   = (-d(x), -x + d(y))

    and the complex uses -delta as its differential.
    """
    base = base_top(ring.tower)
    terms = {i: (i - 1,) for i in range(1, p)}
    terms[p] = (p, p - 1)
    terms[p + 1] = (p + 1, p)

    def neg_delta(i):
        def f(v):
            dv = delta(p, ring, i, v)
            return tuple(-w for w in dv)
        return f

    diff = {i: neg_delta(i) for i in range(1, p + 1)}
    return Complex(ring, base, 1, p + 1, terms, diff)


def delta(p, ring, i, v):
    """The structure map of the cone partner at degree i (before negation)."""
    if i <= p - 2:
        return (d(v[0]),)
    if i == p - 1:
        x = v[0]
        return (DiffForm.zero(ring, base_top(ring.tower), p), d(x))
    if i == p:
        x, y = v
        return (-d(x), d(y) - x)
    raise Mismatch(f"no structure map at degree {i}")


def alpha(p, ring, i, v):
    """The comparison map at degree i: (-1)^(i-1) (with d in the last slot)."""
    sign = (-1) ** (i - 1)
    x = v[0]
    if i < p:
        return (x * sign,)
    if i == p:
        return (d(x) * sign, x * sign)
    raise Mismatch(f"alpha has no component at degree {i}")


def unique_preimage(pair, p):
    """Invert alpha_p on its image: (a, b) with a = d(b) comes from
    (-1)^(p-1) b; anything else is rejected."""
    a, b = pair
    sign = (-1) ** (p - 1)
    if a != d(b):
        raise Mismatch("pair is not in the image of the comparison map")
    return b * sign


def sample_forms(ring, base, q):
    """The fixed test family: coefficients {1, x, y, 1/x, x*y} on each
    q-subset of letters."""
    letters = letters_of(ring, base)
    gens = ring.gens()
    names = list(gens)
    x = gens[names[0]]
    y = gens[names[1]] if len(names) > 1 else x + 1
    coeffs = [ring.one(), x, y, x.inv(), x * y]
    out = []
    for key in combinations(letters, q):
        for c in coeffs:
            out.append(DiffForm(ring, base, q, {key: c}))
    return out


def verify_square(top, bottom, p, i, val):
    """One commuting square: bottom_diff(alpha_i(v)) == alpha_(i+1)(top_diff(v))."""
    left = bottom.apply(i, alpha(p, top.ring, i, val))
    dv = top.apply(i, val)
    if dv is None:
        right = tuple(DiffForm.zero(top.ring, top.base, w.degree) for w in left)
    else:
        right = alpha(p, top.ring, i + 1, dv)
    return all(a == b for a, b in zip(left, right))


def alpha_delta_diagram(p, ring):
    """Verify the full comparison diagram on the sample family; returns a report."""
    top = tangent_deligne(p, ring)
    bottom = cone_partner(p, ring)
    checks = []

    def record(name, ok, witness=""):
        checks.append({"name": name, "status": "pass" if ok else "fail",
                       "witnesses": [] if ok else [witness]})

    # d^2 = 0 upstairs and downstairs; in both complexes every degree i
    # with i + 2 <= hi carries the single term Omega^(i-1)
    for label, cx in (("top", top), ("cone", bottom)):
        for i in cx.degrees():
            if i + 2 > cx.hi:
                continue
            ok = True
            for v in sample_forms(ring, cx.base, i - 1):
                w = cx.apply(i + 1, cx.apply(i, (v,)))
                if w is not None and not all(c.is_zero() for c in w):
                    ok = False
                    break
            record(f"{label} d.d = 0 at {i}", ok)

    # commuting squares
    for i in range(1, p + 1):
        ok = True
        bad = ""
        for v in sample_forms(ring, top.base, i - 1):
            if not verify_square(top, bottom, p, i, (v,)):
                ok = False
                bad = str(v)
                break
        record(f"square at {i}", ok, bad)

    # alpha_p is injective with computable inverse on its image
    ok = True
    for v in sample_forms(ring, top.base, p - 1):
        got = unique_preimage(alpha(p, ring, p, (v,)), p)
        if got != v:
            ok = False
            break
    record("unique preimage through degree p", ok)

    status = "pass" if all(c["status"] == "pass" for c in checks) else "fail"
    return {"name": f"alpha_delta_diagram(p={p})", "status": status, "checks": checks}


def deformed_deligne_split(p, ring):
    """The dual-number tangent complex splits as body + eps * slope.

    Checks on the sample family that the two projections commute with d and
    jointly reconstruct the form; returns a report.
    """
    dbase = dual_relative(ring.tower)
    pbase = base_top(ring.tower)
    checks = []

    def record(name, ok, witness=""):
        checks.append({"name": name, "status": "pass" if ok else "fail",
                       "witnesses": [] if ok else [witness]})

    gens = list(ring.gens().values())
    x = gens[0]
    y = gens[1] if len(gens) > 1 else x + 1
    duals = [DualElem(ring, x * y + 1, x),
             DualElem(ring, x.inv(), y),
             DualElem(ring, y - 2, x * y)]
    for q in range(0, p):
        for u in duals:
            w = d(u, dbase) if q else DiffForm(ring, dbase, 0, {(): u})
            for _ in range(q - 1 if q else 0):
                w = wedge(w, d(duals[0], dbase))
            body, slope = specialize_eps(w), eps_part(w)
            dw = d(w)
            ok = (specialize_eps(dw) == d(body)) and (eps_part(dw) == d(slope))
            record(f"projections are chain maps (q={q}, {u.body})", ok, str(w))
            recon = _recombine(ring, dbase, body, slope)
            record(f"body + eps*slope reconstructs (q={q}, {u.body})", recon == w)
    status = "pass" if all(c["status"] == "pass" for c in checks) else "fail"
    return {"name": f"deformed_deligne_split(p={p})", "status": status, "checks": checks}


def _recombine(ring, dbase, body, slope):
    """body + eps*slope, both plain forms read over the dual base."""
    eps = DualElem(ring, ring.zero(), ring.one())
    return (DiffForm(ring, dbase, body.degree, body.terms)
            + DiffForm(ring, dbase, slope.degree, slope.terms) * eps)
