"""Milnor K-symbols over a function ring and its dual numbers.

A SymbolWord is a formal product of length-p symbols {a_1, .., a_p} with
integer exponents; entries are units of the ring (or dual numbers with
unit body).  Over the dual numbers every word splits as a body word times
a product of symbols {1 + eps*h, f_2, .., f_p}; EpsSymbol holds such
eps-parts, and the maps here send them to differential forms:

* tilde_dlog:  {1+eps h, f_2..} -> d(h) ^ dlog f_2 ^ .. ^ dlog f_p
* beta:        {1+eps h, f_2..} -> (-1)^(p-1) h dlog f_2 ^ .. ^ dlog f_p
* beta_via_truncation: the same map computed by differentiating the dual
  word with d(eps) kept as a letter and then reading off the trailing
  d(eps) coefficient.
* eps_to_absolute: beta's formula with d taken over Q instead of the full
  scalar tower.
"""

from __future__ import annotations

from .differentials import (
    DiffForm,
    absolute_on_dual,
    base_q,
    base_top,
    contract_deps,
    d,
    dlog as _dlog_elem,
    wedge,
)
from .errors import Mismatch, NonUnitEntry, RingMismatch
from .funcrings import DualElem


class SymbolWord:
    """Formal product of Milnor symbols with integer exponents."""

    __slots__ = ("ring", "p", "factors", "dual")

    def __init__(self, ring, p, factors, dual):
        self.ring = ring
        self.p = p
        self.factors = tuple(factors)
        self.dual = dual

    @classmethod
    def of(cls, entries, exp=1):
        entries = tuple(entries)
        if not entries:
            raise Mismatch("empty symbol")
        ring = entries[0].ring
        dual = isinstance(entries[0], DualElem)
        for e in entries:
            if e.ring != ring:
                raise RingMismatch("symbol entries from different rings")
            if isinstance(e, DualElem) != dual:
                raise Mismatch("mixed dual and plain entries in one symbol")
            if not e.is_unit():
                raise NonUnitEntry(f"symbol entry {e} is not a unit")
        return cls(ring, len(entries), ((entries, exp),), dual)

    @classmethod
    def one(cls, ring, p, dual=False):
        return cls(ring, p, (), dual)

    def __mul__(self, other):
        if not isinstance(other, SymbolWord):
            return NotImplemented
        if other.ring != self.ring or other.p != self.p or other.dual != self.dual:
            raise Mismatch("cannot multiply words of different shapes")
        return SymbolWord(self.ring, self.p, self.factors + other.factors, self.dual)

    def inv(self):
        return SymbolWord(self.ring, self.p,
                          tuple((es, -e) for es, e in self.factors), self.dual)

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return SymbolWord(self.ring, self.p,
                          tuple((es, e * n) for es, e in self.factors), self.dual)

    def dlog(self, base):
        """Sum over factors of exp * dlog(a_1) ^ .. ^ dlog(a_p)."""
        out = DiffForm.zero(self.ring, base, self.p)
        for entries, e in self.factors:
            if e:
                out = out + _dlog_tails(self.ring, base, entries) * e
        return out

    def __str__(self):
        if not self.factors:
            return "1"
        bits = []
        for es, e in self.factors:
            body = "{" + ", ".join(str(a) for a in es) + "}"
            bits.append(body if e == 1 else f"{body}^{e}")
        return " * ".join(bits)

    def __repr__(self):
        return f"SymbolWord({self})"


class EpsSymbol:
    """Formal product of symbols {1 + eps*h, f_2, .., f_p}^e over a plain ring."""

    __slots__ = ("ring", "p", "parts")

    def __init__(self, ring, p, parts):
        self.ring = ring
        self.p = p
        self.parts = tuple(parts)

    @classmethod
    def of(cls, h, tails, exp=1):
        tails = tuple(tails)
        ring = h.ring
        for f in tails:
            if f.ring != ring:
                raise RingMismatch("tail entries from a different ring")
            if not f.is_unit():
                raise NonUnitEntry(f"tail entry {f} is not a unit")
        return cls(ring, len(tails) + 1, ((h, tails, exp),))

    @classmethod
    def one(cls, ring, p):
        return cls(ring, p, ())

    def __mul__(self, other):
        if not isinstance(other, EpsSymbol):
            return NotImplemented
        if other.ring != self.ring or other.p != self.p:
            raise Mismatch("cannot multiply eps-symbols of different shapes")
        return EpsSymbol(self.ring, self.p, self.parts + other.parts)

    def inv(self):
        return EpsSymbol(self.ring, self.p,
                         tuple((h, t, -e) for h, t, e in self.parts))

    def embed(self):
        """The dual-number word this eps-symbol denotes."""
        out = SymbolWord.one(self.ring, self.p, dual=True)
        one = self.ring.one()
        for h, tails, e in self.parts:
            entries = [DualElem(self.ring, one, h)]
            entries += [DualElem(self.ring, f) for f in tails]
            out = out * SymbolWord.of(entries, e)
        return out

    def __str__(self):
        if not self.parts:
            return "1"
        bits = []
        for h, tails, e in self.parts:
            body = "{1 + eps*(%s)%s}" % (h, "".join(f", {f}" for f in tails))
            bits.append(body if e == 1 else f"{body}^{e}")
        return " * ".join(bits)

    def __repr__(self):
        return f"EpsSymbol({self})"


def eps_split(word):
    """Split a dual word into (body word, eps-symbol).

    Slot by slot: {.., f_i + eps g_i, ..} = {.., f_i, ..} * {1 + eps g_i/f_i,
    bodies of the other slots}^(sigma) with sigma = (-1)^(i-1) from moving the
    1+eps entry to the front.  The cross terms {1+eps a, .., 1+eps b, ..} die
    because eps^2 = 0.
    """
    if not word.dual:
        raise Mismatch("eps_split needs a word over the dual numbers")
    ring = word.ring
    body_factors = []
    eps_parts = []
    for entries, e in word.factors:
        bodies = tuple(u.body for u in entries)
        body_factors.append((bodies, e))
        for i, u in enumerate(entries):
            if u.slope.is_zero():
                continue
            h = u.slope / u.body
            tails = bodies[:i] + bodies[i + 1:]
            eps_parts.append((h, tails, e * (-1) ** i))
    body = SymbolWord(ring, word.p, tuple(body_factors), dual=False)
    return body, EpsSymbol(ring, word.p, eps_parts)


def _dlog_tails(ring, base, tails):
    """dlog(tails[0]) ^ .. ^ dlog(tails[-1]), None for no tails; computed
    once per ring (``_wedge_dlogs``)."""
    return ring.remember(("tails", tails, base), _wedge_dlogs, ring, base, tails)


def _wedge_dlogs(ring, base, tails):
    """dlog(tails[0]) wedged onto the memoised form of the rest, so tuples
    that end alike share their last factors' wedge."""
    if not tails:
        return None
    w = _dlog_elem(tails[0], base)
    rest = _dlog_tails(ring, base, tails[1:])
    return w if rest is None else wedge(w, rest)


def tilde_dlog(s, base=None):
    """d(h) ^ dlog(tails), summed with exponents; a degree-p form."""
    ring = s.ring
    if base is None:
        base = base_top(ring.tower)
    out = DiffForm.zero(ring, base, s.p)
    for h, tails, e in s.parts:
        w = d(h, base)
        t = _dlog_tails(ring, base, tails)
        if t is not None:
            w = wedge(w, t)
        out = out + w * e
    return out


def beta(s, base=None):
    """(-1)^(p-1) h dlog(tails), summed with exponents; degree p-1."""
    ring = s.ring
    if base is None:
        base = base_top(ring.tower)
    sign = (-1) ** (s.p - 1)
    out = DiffForm.zero(ring, base, s.p - 1)
    for h, tails, e in s.parts:
        t = _dlog_tails(ring, base, tails)
        if t is None:
            t = DiffForm.of_elem(ring.one(), base)
        out = out + t * (h * (e * sign))
    return out


def beta_via_truncation(s):
    """beta computed the long way: dlog the dual word with d(eps) a letter,
    then contract the trailing d(eps) and set eps to 0."""
    ring = s.ring
    word = s.embed()
    base = absolute_on_dual(level=ring.tower.num_levels)
    w = word.dlog(base)
    return contract_deps(w)


def eps_to_absolute(s):
    """beta's formula over the absolute base Q (tower letters survive)."""
    return beta(s, base=base_q())


def check_codifferential(s, base=None):
    """The identity tilde_dlog(s) = (-1)^(p-1) d(beta(s)); returns a report."""
    lhs = tilde_dlog(s, base)
    rhs = d(beta(s, base)) * ((-1) ** (s.p - 1))
    ok = lhs == rhs
    return {
        "name": "codifferential",
        "status": "pass" if ok else "fail",
        "witnesses": [] if ok else [str(lhs - rhs)],
    }


def relation_check(kind, ring, p, data):
    """Check that a defining K-theory relation dies under the form maps.

    Kinds: ``bilinear`` (slot multiplicativity), ``steinberg`` ({u, 1-u}),
    ``skew`` ({a,b}{b,a}), ``eps_additive`` ((1+eps a)(1+eps b) = 1+eps(a+b)).
    ``data`` supplies the entries; see the tests for shapes.
    """
    base = base_top(ring.tower)
    if kind == "bilinear":
        a, b, rest = data
        w = (SymbolWord.of((a * b,) + rest)
             * SymbolWord.of((a,) + rest).inv()
             * SymbolWord.of((b,) + rest).inv())
        val = w.dlog(base)
    elif kind == "steinberg":
        u, rest = data
        one = ring.one()
        w = SymbolWord.of((u, one - u) + rest)
        val = w.dlog(base)
    elif kind == "skew":
        a, b, rest = data
        w = SymbolWord.of((a, b) + rest) * SymbolWord.of((b, a) + rest)
        val = w.dlog(base)
    elif kind == "eps_additive":
        a, b, tails = data
        s = (EpsSymbol.of(a + b, tails)
             * EpsSymbol.of(a, tails).inv()
             * EpsSymbol.of(b, tails).inv())
        vals = [tilde_dlog(s), beta(s), beta_via_truncation(s)]
        bad = [str(v) for v in vals if not v.is_zero()]
        return {"name": f"relation:{kind}", "status": "pass" if not bad else "fail",
                "witnesses": bad}
    else:
        raise ValueError(f"unknown relation kind {kind!r}")
    ok = val.is_zero()
    return {"name": f"relation:{kind}", "status": "pass" if ok else "fail",
            "witnesses": [] if ok else [str(val)]}
