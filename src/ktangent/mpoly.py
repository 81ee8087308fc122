"""Multivariate polynomials with tower-field coefficients.

Internal support layer for function rings: sparse dict representation
(exponent tuple -> nonzero Scalar), reduction modulo a relation monic in
one variable, and gcd by the primitive polynomial remainder sequence.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DivisionByZero, TowerMismatch
from .scalars import Scalar, Tower, power


class MPoly:
    """A polynomial in nvars variables over a tower field."""

    __slots__ = ("tower", "nvars", "terms")

    def __init__(self, tower, nvars, terms):
        self.tower = tower
        self.nvars = nvars
        self.terms = terms  # dict[tuple[int, ...] -> Scalar], no zero values

    # -- constructors

    @classmethod
    def const(cls, tower, nvars, c):
        if not isinstance(c, Scalar):
            c = tower.from_fraction(c)
        if c.is_zero():
            return cls(tower, nvars, {})
        return cls(tower, nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, tower, nvars, i):
        e = [0] * nvars
        e[i] = 1
        return cls(tower, nvars, {tuple(e): tower.one()})

    def _mk(self, terms):
        return MPoly(self.tower, self.nvars, {e: c for e, c in terms.items() if not c.is_zero()})

    def _coerce(self, other):
        if isinstance(other, MPoly):
            if other.tower != self.tower or other.nvars != self.nvars:
                raise TowerMismatch("polynomials over different rings")
            return other
        if isinstance(other, (int, Fraction, Scalar)):
            return MPoly.const(self.tower, self.nvars, other)
        return None

    # -- ring operations

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in o.terms.items():
            s = out.get(e)
            out[e] = c if s is None else s + c
        return self._mk(out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.tower, self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o._is_one():
            return self
        if self._is_one():
            return o
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                p = c1 * c2
                s = out.get(e)
                out[e] = p if s is None else s + p
        return self._mk(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        return power(self, n, MPoly.const(self.tower, self.nvars, 1))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    # -- structure

    def degree_in(self, v):
        return max((e[v] for e in self.terms), default=-1)

    def lead_term(self):
        """Graded-lex leading (exponent, coefficient); None for the zero polynomial."""
        if not self.terms:
            return None
        e = max(self.terms, key=lambda t: (sum(t), t))
        return e, self.terms[e]

    def _is_one(self):
        if len(self.terms) != 1:
            return False
        (e, c), = self.terms.items()
        return not any(e) and c == 1

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        return self.terms.get((0,) * self.nvars, self.tower.zero())

    def deriv(self, v):
        out = {}
        for e, c in self.terms.items():
            if e[v] == 0:
                continue
            e2 = list(e)
            e2[v] -= 1
            out[tuple(e2)] = c * e[v]
        return self._mk(out)

    def coeff_deriv(self, level):
        """Apply the tower derivation d/d(gen at level) to every coefficient."""
        out = {}
        for e, c in self.terms.items():
            out[e] = c.d(level)
        return self._mk(out)

    def eval_scalars(self, vals):
        acc = self.tower.zero()
        for e, c in self.terms.items():
            term = c
            for i, k in enumerate(e):
                for _ in range(k):
                    term = term * vals[i]
            acc = acc + term
        return acc

    def split_by(self, v):
        """Return dict[deg -> MPoly] of v-coefficients (v zeroed out in keys)."""
        out = {}
        for e, c in self.terms.items():
            k = e[v]
            e2 = list(e)
            e2[v] = 0
            out.setdefault(k, {})[tuple(e2)] = c
        return {k: MPoly(self.tower, self.nvars, d) for k, d in out.items()}

    def coeff_of(self, v, k):
        out = {}
        for e, c in self.terms.items():
            if e[v] == k:
                e2 = list(e)
                e2[v] = 0
                out[tuple(e2)] = c
        return MPoly(self.tower, self.nvars, out)

    def shift(self, v, k):
        out = {}
        for e, c in self.terms.items():
            e2 = list(e)
            e2[v] += k
            out[tuple(e2)] = c
        return MPoly(self.tower, self.nvars, out)

    def vars_used(self):
        used = set()
        for e in self.terms:
            for i, k in enumerate(e):
                if k:
                    used.add(i)
        return used

    def render(self, names):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, key=lambda t: (-sum(t), tuple(-x for x in t))):
            c = self.terms[e]
            mono = "*".join(
                names[i] if k == 1 else f"{names[i]}^{k}" for i, k in enumerate(e) if k)
            cs = str(c)
            if not mono:
                bits.append(cs)
            elif cs == "1":
                bits.append(mono)
            elif cs == "-1":
                bits.append(f"-{mono}")
            else:
                if any(ch in cs[1:] for ch in "+-") or "/" in cs or " " in cs:
                    cs = f"({cs})"
                bits.append(f"{cs}*{mono}")
        out = bits[0]
        for b in bits[1:]:
            out += f" - {b[1:]}" if b.startswith("-") else f" + {b}"
        return out

    def __repr__(self):
        return self.render([f"x{i}" for i in range(self.nvars)])


def reduce_mod(f, rel, v):
    """Reduce f modulo a relation monic in variable v."""
    d = rel.degree_in(v)
    while f.degree_in(v) >= d:
        k = f.degree_in(v)
        lead = f.coeff_of(v, k)
        f = f - lead.shift(v, k - d) * rel
    return f


def div_exact(f, g):
    """Exact division f / g; raises DivisionByZero if g is zero or does not divide."""
    if g.is_zero():
        raise DivisionByZero("exact division by zero polynomial")
    if f.is_zero():
        return f
    if g.is_constant():
        c = g.constant_value().inv()
        return MPoly(f.tower, f.nvars, {e: cf * c for e, cf in f.terms.items()})
    v = max(g.vars_used())
    dg = g.degree_in(v)
    g_lead = g.coeff_of(v, dg)
    q = MPoly(f.tower, f.nvars, {})
    while not f.is_zero():
        df = f.degree_in(v)
        if df < dg:
            raise DivisionByZero("inexact polynomial division")
        f_lead = f.coeff_of(v, df)
        c = div_exact(f_lead, g_lead)
        t = c.shift(v, df - dg)
        q = q + t
        f = f - t * g
    return q


def _prem(f, g, v):
    """Pseudo-remainder of f by g with respect to v."""
    df, dg = f.degree_in(v), g.degree_in(v)
    lc = g.coeff_of(v, dg)
    r = f
    while not r.is_zero() and r.degree_in(v) >= dg:
        dr = r.degree_in(v)
        r_lead = r.coeff_of(v, dr)
        r = r * lc - r_lead.shift(v, dr - dg) * g
    return r


def _content(f, v):
    parts = list(f.split_by(v).values())
    g = parts[0]
    for p in parts[1:]:
        g = mp_gcd(g, p)
        if g.is_constant():
            break
    return g


def _normalize_lead(f):
    if f.is_zero():
        return f
    _, c = f.lead_term()
    if c.val == f.tower._ones[-1]:
        return f
    c = c.inv()
    return MPoly(f.tower, f.nvars, {e: cf * c for e, cf in f.terms.items()})


def mp_gcd(f, g):
    """Monic gcd in K[x_0..x_{n-1}] (graded-lex leading coefficient 1)."""
    if f.is_zero():
        return _normalize_lead(g)
    if g.is_zero():
        return _normalize_lead(f)
    if f.is_constant() or g.is_constant():
        return MPoly.const(f.tower, f.nvars, 1)
    tw = f.tower
    if tw.steps:
        # a unit of K does not change the monic gcd, and dividing by the
        # leading coefficient often leaves coefficients in a subfield
        f, g = _normalize_lead(f), _normalize_lead(g)
        k = len(tw.steps)
        for c in [*f.terms.values(), *g.terms.values()]:
            k = _constant_levels(tw, c.val, k)
            if not k:
                break
        if k:
            # the gcd over K of polynomials over a subfield is their gcd
            # over the subfield, with the same monic normalisation
            low = Tower(tw.steps[:-k], tw.names[:-k])
            G = mp_gcd(_descend(f, low, k), _descend(g, low, k))
            return MPoly(tw, f.nvars, {e: tw.embed(c) for e, c in G.terms.items()})
        if tw.steps[-1][0] == "tr":
            # rational-function coefficients swell badly in the remainder
            # sequence; move the transcendental generators into the
            # polynomial and do the work over the number-field part instead
            return _flatten_gcd(f, g)
    vs = f.vars_used() | g.vars_used()
    v = max(vs)
    if len(vs) == 1:
        return _gcd_univar(f, g, v)
    cf, cg = _content(f, v), _content(g, v)
    c = mp_gcd(cf, cg)
    a = div_exact(f, cf)
    b = div_exact(g, cg)
    if a.degree_in(v) < b.degree_in(v):
        a, b = b, a
    while not b.is_zero():
        r = _prem(a, b, v)
        if r.is_zero():
            a, b = b, r
            break
        a, b = b, div_exact(r, _content(r, v))
    if b.is_zero() and not a.is_zero():
        a = div_exact(a, _content(a, v))
    return _normalize_lead(c * a)


def _flatten_gcd(f, g):
    """gcd over K = NF(t_1..t_m) via gcd in NF[t_1..t_m, x_0..x_{n-1}].

    Clearing the t-denominators multiplies each input by a unit of K, and a
    gcd computed in the bigger polynomial ring agrees with the K[x]-gcd up to
    pure-t factors, which reinterpretation turns back into units.
    """
    tw = f.tower
    la = max((i for i, s in enumerate(tw.steps) if s[0] == "alg"), default=-1)
    m = len(tw.steps) - la - 1
    base = Tower(tw.steps[: la + 1], tw.names[: la + 1])
    n = f.nvars
    G = mp_gcd(_flatten_poly(f, base, m), _flatten_poly(g, base, m))
    return _normalize_lead(_unflatten(G, tw, n, m))


def _constant_levels(tw, v, m):
    """How many of the top m levels of tw the nonzero value v is constant in.

    A transcendental level holds a constant when its numerator and
    denominator both have length 1, an algebraic level when every
    coefficient but the first is zero; in both cases v[1][0] is the value
    one level down.
    """
    k = 0
    lv = len(tw.steps)
    while k < m:
        step = tw.steps[lv - 1]
        if step[0] == "tr":
            if len(v[1]) != 1 or len(v[2]) != 1:
                break
        else:
            z = tw._zeros[lv - 1]
            if any(c != z for c in v[1][1:]):
                break
        v = v[1][0]
        lv -= 1
        k += 1
    return k


def _descend(f, low, k):
    """f, whose coefficients are constant in the top k levels, over the tower low."""
    terms = {}
    for e, c in f.terms.items():
        v = c.val
        for _ in range(k):
            v = v[1][0]
        terms[e] = Scalar(low, v)
    return MPoly(low, f.nvars, terms)


def _conv_scalar(val, k, base, m):
    """Tower value (k transcendental levels above base) -> MPoly fraction in t-vars."""
    if k == 0:
        s = Scalar(base, val)
        return MPoly.const(base, m, s), MPoly.const(base, m, 1)

    def poly_of(coeffs):
        N = MPoly.const(base, m, 0)
        D = MPoly.const(base, m, 1)
        e = [0] * m
        e[k - 1] = 1
        tvar = MPoly(base, m, {tuple(e): base.one()})
        for i, c in enumerate(coeffs):
            cn, cd = _conv_scalar(c, k - 1, base, m)
            N = N * cd + cn * tvar**i * D
            D = D * cd
        return N, D

    n1, d1 = poly_of(val[1])
    n2, d2 = poly_of(val[2])
    return n1 * d2, d1 * n2


def _flatten_poly(f, base, m):
    n = f.nvars
    k = len(f.tower.steps) - base.num_levels
    F = MPoly.const(base, n + m, 0)
    D = MPoly.const(base, n + m, 1)
    one = MPoly.const(base, n + m, 1)
    for e, c in f.terms.items():
        cn, cd = _conv_scalar(c.val, k, base, m)
        cn = _shift_vars(cn, n)
        cd = _shift_vars(cd, n)
        mono = MPoly(base, n + m, {tuple(e) + (0,) * m: base.one()})
        F = F * cd + cn * mono * D
        if cd != one:
            D = D * cd
    return F


def _shift_vars(p, n):
    return MPoly(p.tower, n + p.nvars,
                 {(0,) * n + e: c for e, c in p.terms.items()})


def _unflatten(G, tw, n, m):
    base_n = tw.num_levels - m
    gens = [tw.gen(tw.names[base_n + j]) for j in range(m)]
    out = {}
    for e, c in G.terms.items():
        s = tw.embed(c)
        for j in range(m):
            for _ in range(e[n + j]):
                s = s * gens[j]
        key = e[:n]
        prev = out.get(key)
        out[key] = s if prev is None else prev + s
    return MPoly(tw, n, {e: c for e, c in out.items() if not c.is_zero()})


def _gcd_univar(f, g, v):
    a, b = f, g
    while not b.is_zero():
        # remainder via field division in the single variable
        db = b.degree_in(v)
        lb = b.coeff_of(v, db).constant_value()
        r = a
        while not r.is_zero() and r.degree_in(v) >= db:
            dr = r.degree_in(v)
            c = r.coeff_of(v, dr).constant_value() / lb
            r = r - MPoly.const(f.tower, f.nvars, c).shift(v, dr - db) * b
        a, b = b, r
    return _normalize_lead(a)
