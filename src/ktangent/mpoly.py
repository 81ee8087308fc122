"""Multivariate polynomials with tower-field coefficients.

Internal support layer for function rings: sparse dict representation
(packed exponent key -> nonzero raw value of the tower's top level, worked
on by the tower's bound arithmetic; a rational value is an int when it is
integral, else a Fraction, and ``Tower.value`` makes every constant), the
pseudo-remainder in one variable (the remainder, for a relation monic in
it), exact division and gcd. Over Q both run on a small integer kernel
(dicts from packed key to int). One walk down the tower (`_gcd`) serves
the gcd and the cancellation of a fraction. A gcd with a monomial is read
from the exponents, at any level, and so is a gcd with a side linear in a
variable, c x_v + r for a constant c and an r free of x_v: such a side is
irreducible, so one exact division decides between it and 1. Else the walk
takes one of four branches: over Q the heuristic gcd GCDHEU, whose trial
division gives the cofactors, or the primitive remainder sequence where
GCDHEU gives up; top levels that no coefficient depends on are dropped; a
top transcendental generator moves into the polynomial; a top algebraic
level divides both sides by their leading coefficients, which may free a
level, and else runs the remainder sequence.

A monomial x^e in n variables is one int, its packed key: a 16-bit field
per exponent, e_0 highest and e_{n-1} lowest, under a field holding the
total degree (Monagan and Pearce, CASC 2007).  Int order is then graded
lex, so a leading term is ``max`` of the keys, and a monomial product is
the sum of the keys.  A product, shift or power whose exponent would pass
the field raises DegreeTooLarge, checked once per operation, never per
term.  The term dict is private to this module.  Other modules read terms
through ``items`` and ``monomial``, as (exponent tuple, raw value) pairs,
and put a fraction in canonical form with ``lowest_terms`` and ``monic``.
Coefficients become Scalars only at the boundary: ``const`` and
arithmetic with a Scalar take one in.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import DegreeTooLarge, DivisionByZero, TowerMismatch
from .scalars import (QQ, RingOps, Scalar, Tower, _ONE_T, _pdivmod, _pgcd, _pmul, _qval, power,
                      render_terms)

_BITS = 16  # width of one exponent field
_FIELD = (1 << _BITS) - 1  # the largest exponent, and the mask of one field


def _shifts(n):
    """The bit offsets of the exponent fields of x_0, ..., x_{n-1}."""
    return range(_BITS * (n - 1), -1, -_BITS)


def _pack(e):
    """The key of the exponent vector e, whose entries fit their fields."""
    k = sum(e)
    for a in e:
        k = (k << _BITS) | a
    return k


def _unpack(k, n):
    """The exponent tuple of the key k of a monomial in n variables."""
    return tuple((k >> s) & _FIELD for s in _shifts(n))


def _offset(n, v):
    """The bit offset of the exponent field of x_v in a key of n variables."""
    return _BITS * (n - 1 - v)


def _step(n, v, k=1):
    """What adding k to the exponent of x_v adds to a key: its field and the total."""
    return (k << _offset(n, v)) + (k << _BITS * n)


def _degrees(keys, n):
    """The largest exponent of each variable over the keys (0 for none)."""
    out = [0] * n
    order = range(n - 1, -1, -1)  # the fields from the lowest up
    for e in keys:
        for i in order:
            a = e & _FIELD
            if a > out[i]:
                out[i] = a
            e >>= _BITS
    return out


def _check_product(ft, gt, n):
    """Raise DegreeTooLarge when an exponent of the product of the term dicts
    ft and gt would pass its field; a product calls it only when its total
    degree passes one field, which would otherwise bound every exponent."""
    for i, (a, b) in enumerate(zip(_degrees(ft, n), _degrees(gt, n))):
        if a + b > _FIELD:
            raise DegreeTooLarge(f"a product has degree {a + b} in x{i}; "
                                 f"an exponent is at most {_FIELD}")


class MPoly(RingOps):
    """A polynomial in nvars variables over a tower field."""

    __slots__ = ("tower", "nvars", "_terms", "_hash")

    def __init__(self, tower, nvars, terms):
        self.tower = tower
        self.nvars = nvars
        self._terms = terms  # dict[packed key -> raw value], no zero values

    # -- constructors

    @classmethod
    def const(cls, tower, nvars, c):
        """The constant c: an int, a Fraction, or a Scalar of tower or of a prefix of it."""
        v = tower.lift(c.tower, c.val) if isinstance(c, Scalar) else tower.value(c)
        if not v:
            return cls(tower, nvars, {})
        return cls(tower, nvars, {0: v})

    @classmethod
    def variable(cls, tower, nvars, i):
        return cls(tower, nvars, {_step(nvars, i): 1})

    def over(self, tower):
        """This polynomial with its coefficients embedded into tower, which
        extends its own."""
        lift, src = tower.lift, self.tower
        return MPoly(tower, self.nvars, {e: lift(src, c) for e, c in self._terms.items()})

    def _mk(self, terms):
        if not all(terms.values()):
            terms = {e: c for e, c in terms.items() if c}
        return MPoly(self.tower, self.nvars, terms)

    def _coerce(self, other):
        if isinstance(other, MPoly):
            if ((other.tower is not self.tower and other.tower != self.tower)
                    or other.nvars != self.nvars):
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
        add = self.tower.add
        out = dict(self._terms)
        for e, c in o._terms.items():
            s = out.get(e)
            out[e] = c if s is None else add(s, c)
        return self._mk(out)

    __radd__ = __add__

    def __neg__(self):
        neg = self.tower.neg
        return MPoly(self.tower, self.nvars, {e: neg(c) for e, c in self._terms.items()})

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ft, gt = self._terms, o._terms
        if len(gt) == 1 and gt.get(0) == 1:
            return self
        if len(ft) == 1 and ft.get(0) == 1:
            return o
        # the sum of the leading keys holds deg f + deg g in its total field
        # (a carry into that field needs the sum past one field already)
        if (max(ft, default=0) + max(gt, default=0)) >> _BITS * self.nvars > _FIELD:
            _check_product(ft, gt, self.nvars)
        add, mul = self.tower.add, self.tower.mul
        out = {}
        for e1, c1 in ft.items():
            for e2, c2 in gt.items():
                e = e1 + e2
                p = mul(c1, c2)
                s = out.get(e)
                out[e] = p if s is None else add(s, p)
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
        return self._terms == o._terms

    def __hash__(self):
        # no code changes a term dict after construction, so the hash is
        # computed once, on first use (the _hash slot stays unset until then)
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.nvars, frozenset(self._terms.items())))
            return self._hash

    def is_zero(self):
        return not self._terms

    # -- structure

    def degree_in(self, v):
        s = _offset(self.nvars, v)
        return max(map((_FIELD << s).__and__, self._terms), default=-1) >> s

    def items(self):
        """The (exponent tuple, raw value) pairs of the nonzero terms."""
        n = self.nvars
        return [(_unpack(e, n), c) for e, c in self._terms.items()]

    def monomial(self):
        """(exponent tuple, raw value) of a one-term polynomial, else None."""
        if len(self._terms) != 1:
            return None
        ((e, c),) = self._terms.items()
        return _unpack(e, self.nvars), c

    def is_constant(self):
        return not any(self._terms)

    def deriv(self, v):
        mul = self.tower.mul
        s, step = _offset(self.nvars, v), _step(self.nvars, v)
        out = {}
        for e, c in self._terms.items():
            k = (e >> s) & _FIELD
            if k:
                out[e - step] = mul(c, k)
        return self._mk(out)

    def coeff_deriv(self, level):
        """Apply the tower derivation d/d(gen at level) to every coefficient."""
        d = self.tower.d
        return self._mk({e: d(c, level) for e, c in self._terms.items()})

    def vanishes_at(self, point):
        """Whether the polynomial is zero at a point of rationals."""
        tw = self.tower
        add, mul = tw.add, tw.mul
        xs = [tw.value(x) for x in point]
        acc = 0
        for e, c in self.items():
            for x, k in zip(xs, e):
                for _ in range(k):
                    c = mul(c, x)
            acc = add(acc, c)
        return not acc

    def split_by(self, v):
        """Return dict[deg -> MPoly] of v-coefficients (v zeroed out in keys)."""
        n = self.nvars
        s, unit = _offset(n, v), _step(n, v)
        out = {}
        for e, c in self._terms.items():
            k = (e >> s) & _FIELD
            out.setdefault(k, {})[e - k * unit] = c
        return {k: MPoly(self.tower, n, d) for k, d in out.items()}

    def coeff_of(self, v, k):
        n = self.nvars
        s, drop = _offset(n, v), _step(n, v, k)
        return MPoly(self.tower, n, {e - drop: c for e, c in self._terms.items()
                                     if (e >> s) & _FIELD == k})

    def shift(self, v, k):
        """This polynomial times x_v^k, for k >= 0."""
        top = self.degree_in(v) + k
        if top > _FIELD:
            raise DegreeTooLarge(f"a shift reaches degree {top} in x{v}; "
                                 f"an exponent is at most {_FIELD}")
        step = _step(self.nvars, v, k)
        return MPoly(self.tower, self.nvars, {e + step: c for e, c in self._terms.items()})

    def vars_used(self):
        acc = 0
        for e in self._terms:
            acc |= e
        return {i for i, s in enumerate(_shifts(self.nvars)) if (acc >> s) & _FIELD}

    def render(self, names):
        render, n = self.tower.render, self.nvars
        return render_terms([
            (render(self._terms[k]),
             "*".join(names[i] if a == 1 else f"{names[i]}^{a}"
                      for i, a in enumerate(_unpack(k, n)) if a))
            for k in sorted(self._terms, reverse=True)])

    def __repr__(self):
        return self.render([f"x{i}" for i in range(self.nvars)])


def reduce_mod(f, g, v):
    """Pseudo-remainder lc^k * f - q * g of f by g in the variable v, with
    deg_v below deg_v g, for lc = lc_v(g) and k the number of steps.

    For a relation monic in v, lc is 1 and this is the remainder.
    """
    d = g.degree_in(v)
    lc = g.coeff_of(v, d)
    while f.degree_in(v) >= d:
        k = f.degree_in(v)
        f = f * lc - f.coeff_of(v, k).shift(v, k - d) * g
    return f


def div_exact(f, g):
    """Exact division f / g; raises DivisionByZero if g is zero or does not divide.

    Over Q the division runs on integer polynomials. Over a tower both
    operands are divided by their leading coefficients, the top levels that
    no coefficient then depends on are dropped, and the quotient is scaled
    back by lc(f)/lc(g).
    """
    if g.is_zero():
        raise DivisionByZero("exact division by zero polynomial")
    if f.is_zero():
        return f
    tw = f.tower
    if g.is_constant():
        return _scale(f, tw.inv(_lc(g)))
    if not tw.steps:
        # g primitive over Z divides f over Q exactly when it divides f's
        # integer form over Z (Gauss's lemma)
        sf, F = _to_ints(f)
        sg, G = _to_ints(g)
        return _from_ints(tw, f.nvars, _divide(F, G, QQ, f.nvars), sf / sg)
    c = tw.mul(_lc(f), tw.inv(_lc(g)))
    f, g = _normalize_lead(f), _normalize_lead(g)
    k = _subfield_levels(f, g)
    if k:
        low = Tower(tw.steps[:-k], tw.names[:-k])
        q = div_exact(_descend(f, low, k), _descend(g, low, k)).over(tw)
    else:
        q = MPoly(tw, f.nvars, _divide(f._terms, g._terms, tw, f.nvars))
    return _scale(q, c)


def _content(f, v):
    parts = list(f.split_by(v).values())
    g = parts[0]
    for p in parts[1:]:
        g = mp_gcd(g, p)
        if g.is_constant():
            break
    return g


def _lc(f):
    """The graded-lex leading coefficient of a nonzero f, as a raw value."""
    return f._terms[max(f._terms)]


def _scale(f, c):
    """f times the nonzero raw value c."""
    mul = f.tower.mul
    return MPoly(f.tower, f.nvars, {e: mul(cf, c) for e, cf in f._terms.items()})


def _normalize_lead(f):
    if f.is_zero():
        return f
    c = _lc(f)
    if c == 1:
        return f
    return _scale(f, f.tower.inv(c))


def mp_gcd(f, g):
    """Monic gcd in K[x_0..x_{n-1}] (graded-lex leading coefficient 1) by the
    gcd walk `_gcd`, after dividing each input over a tower by its leading
    coefficient: a unit does not change the monic gcd, and the quotients
    often have their coefficients in a subfield. When they do not and the
    top level is transcendental, the inputs go to the walk as given: 1/lc
    would put the t-powers of lc into the denominators that flattening
    multiplies through, past the degrees of the inputs."""
    if f.is_zero():
        return _normalize_lead(g)
    if g.is_zero():
        return _normalize_lead(f)
    if f.tower.steps:
        a, b = _normalize_lead(f), _normalize_lead(g)
        if f.tower.steps[-1][0] != "tr" or _subfield_levels(a, b):
            f, g = a, b
    G = _gcd(f, g)[0]
    return MPoly.const(f.tower, f.nvars, 1) if G is None else _normalize_lead(G)


def _cancel(f, g):
    """(u f / G, u g / G) for G = mp_gcd(f, g), nonzero f and g, and a unit u
    of the tower: the cofactors of the gcd walk `_gcd`, or two exact
    divisions by the gcd when the remainder sequence found it."""
    G, qf, qg = _gcd(f, g)
    return (div_exact(f, G), div_exact(g, G)) if qf is None else (qf, qg)


def monic(num, den):
    """The pair (num, den) times one unit of the tower, chosen so that num,
    which is nonzero, has graded-lex leading coefficient 1."""
    c = _lc(num)
    if c == 1:
        return num, den
    c = num.tower.inv(c)
    return _scale(num, c), _scale(den, c)


def lowest_terms(num, den):
    """The fraction num/den, both nonzero, with the gcd cancelled and made
    `monic`: the canonical pair of a function-ring element."""
    return monic(*_cancel(num, den))


def _gcd(f, g):
    """(G, qf, qg) for nonzero f and g: a gcd G and, unless the remainder
    sequence found G, the cofactors u f / G and u g / G for one unit u of
    the tower, else None for both. A constant gcd is G = None, with the
    cofactors f and g. When f or g is a monomial, so is every divisor of it:
    G is x^m for the componentwise least exponent m of f and g, and the
    cofactors (u = 1) are exponent shifts; a constant side gives G = None
    without reading the other side's exponents. Else a side p = c x_v + r,
    with c a constant and r free of x_v, is irreducible: G is p, with the
    cofactors 1 and q / p (u = 1), when p divides the other side q, and
    else G = None. The lcm of the t-denominators that flattening
    multiplies both sides by is a unit of K = L(t), and a gcd in
    L[x_0..x_{n-1}, t] is the K[x]-gcd up to pure-t factors, which are units
    of K.
    """
    tw, n = f.tower, f.nvars
    ft, gt = f._terms, g._terms
    if len(ft) == 1 or len(gt) == 1:
        if (len(ft) == 1 and 0 in ft) or (len(gt) == 1 and 0 in gt):
            return None, f, g
        keys = (*ft, *gt)
        m = _pack([min(map((_FIELD << s).__and__, keys)) >> s for s in _shifts(n)])
        if not m:
            return None, f, g
        return (MPoly(tw, n, {m: 1}), _shift_down(f, m), _shift_down(g, m))
    p = f if _is_linear(ft, n) else g if _is_linear(gt, n) else None
    if p is not None:
        # p is irreducible, so the gcd is p when p divides the other side, else 1
        try:
            q = div_exact(g if p is f else f, p)
        except DivisionByZero:
            return None, f, g
        one = MPoly.const(tw, n, 1)
        return (p, one, q) if p is f else (p, q, one)
    a, b = f, g
    if not tw.steps:
        (sf, F), (sg, G) = _to_ints(f), _to_ints(g)
        found = _heu_cofactors(F, G, n)
        if found is not None:
            H, QF, QG = found
            lead = max(H)
            if not lead:
                return None, f, g
            c = H[lead]
            return (_from_ints(tw, n, H, Fraction(1, c)), _from_ints(tw, n, QF, sf * c),
                    _from_ints(tw, n, QG, sg * c))
    else:
        k = _subfield_levels(f, g)
        if k:
            low = Tower(tw.steps[:-k], tw.names[:-k])
            return _up(_gcd(_descend(f, low, k), _descend(g, low, k)), f, g,
                       lambda p: p.over(tw))
        if tw.steps[-1][0] == "tr":
            # rational-function coefficients swell badly in the remainder
            # sequence, so the generator moves into the polynomial
            low = Tower(tw.steps[:-1], tw.names[:-1])
            cof = _lcm_cofactors(f, g)
            return _up(_gcd(_flatten(f, low, cof), _flatten(g, low, cof)), f, g,
                       lambda p: _unflatten(p, tw))
        a, b = _normalize_lead(f), _normalize_lead(g)
        if _subfield_levels(a, b):
            G, qa, qb = _gcd(a, b)
            if G is None:
                return None, f, g
            return (G, None, None) if qa is None else (G, _scale(qa, _lc(f)), _scale(qb, _lc(g)))
    G = _prs_gcd(a, b)
    return (None, f, g) if G.is_constant() else (G, None, None)


def _is_linear(terms, n):
    """Whether the term dict, in n variables, is c x_v + r for a constant c
    and an r free of x_v: such a polynomial is irreducible, as a factor free
    of x_v divides c."""
    top = _BITS * n
    for e in terms:
        if e >> top == 1:
            field = (e - (1 << top)) * _FIELD  # the mask of x_v's field
            if all(not k & field for k in terms if k != e):
                return True
    return False


def _shift_down(f, m):
    """f divided by the monomial of key m, which divides every term of f."""
    return MPoly(f.tower, f.nvars, {e - m: c for e, c in f._terms.items()})


def _up(found, f, g, up):
    """The walk's result for the images of f and g one level down, brought up by up."""
    if found[0] is None:
        return None, f, g
    return tuple(None if p is None else up(p) for p in found)


def _prs_gcd(f, g):
    """Monic gcd by the primitive polynomial remainder sequence."""
    vs = f.vars_used() | g.vars_used()
    v = max(vs)
    if len(vs) == 1:
        # one variable: the field Euclid on coefficient lists in v
        tw, n = f.tower, f.nvars
        h = _pgcd(tw, tw.num_levels, _coeff_list(f, v), _coeff_list(g, v))
        step = _step(n, v)
        return MPoly(tw, n, {k * step: c for k, c in enumerate(h) if c})
    cf, cg = _content(f, v), _content(g, v)
    c = mp_gcd(cf, cg)
    a = div_exact(f, cf)
    b = div_exact(g, cg)
    if a.degree_in(v) < b.degree_in(v):
        a, b = b, a
    # a and b stay primitive in v, so the last nonzero b is the gcd's
    # primitive part
    while True:
        r = reduce_mod(a, b, v)
        if r.is_zero():
            return _normalize_lead(c * b)
        a, b = b, div_exact(r, _content(r, v))


def _coeff_list(f, v):
    """The coefficient values of f, a polynomial in x_v alone, low degree first."""
    s = _offset(f.nvars, v)
    out = [0] * (f.degree_in(v) + 1)
    for e, c in f._terms.items():
        out[(e >> s) & _FIELD] = c
    return out


def _subfield_levels(f, g):
    """How many top levels of the tower no coefficient of f or g depends on."""
    tw = f.tower
    k = len(tw.steps)
    for c in (*f._terms.values(), *g._terms.values()):
        k = _constant_levels(tw, c, k)
        if not k:
            break
    return k


def _constant_levels(tw, v, m):
    """How many of the top m levels of tw the nonzero value v is constant in.

    A rational is constant in all of them. A transcendental level holds a
    constant when its numerator and denominator both have length 1, an
    algebraic level when every coefficient but the first is zero; in both
    cases v[1][0] is the value one level down.
    """
    k = 0
    while k < m:
        if type(v) is not tuple:
            return m
        if v[0] == "q":
            if len(v[1]) != 1 or len(v[2]) != 1:
                break
        elif any(v[1][1:]):
            break
        v = v[1][0]
        k += 1
    return k


def _descend(f, low, k):
    """f, whose coefficients are constant in the top k levels, over the tower low."""
    terms = {}
    for e, v in f._terms.items():
        for _ in range(k):
            if type(v) is not tuple:
                break
            v = v[1][0]
        terms[e] = v
    return MPoly(low, f.nvars, terms)


def _lcm_cofactors(f, g):
    """{den: (k, c)} for each distinct denominator den of the coefficients of
    f and g, fractions of polynomials in the top generator t of their tower:
    L / den = t^k c for L the lcm of those denominators. The power of t in
    each den is split off first, so a pure power costs no polynomial
    arithmetic. Each den is monic, so L and each c are monic too."""
    tw = f.tower
    lv = tw.num_levels - 1
    dens = {c[2] if type(c) is tuple else _ONE_T
            for c in (*f._terms.values(), *g._terms.values())}
    val = {den: next(i for i, a in enumerate(den) if a) for den in dens}
    top = max(val.values())
    L = _ONE_T
    for den, k in val.items():
        L = _pmul(tw, lv, L, _pdivmod(tw, lv, den[k:], _pgcd(tw, lv, L, den[k:]))[0])
    return {den: (top - k, _pdivmod(tw, lv, L, den[k:])[0]) for den, k in val.items()}


def _flatten(f, low, cof):
    """f times L, as a polynomial over low with the top generator t of f's
    tower as its last variable (f's coefficients are fractions of
    polynomials in t over low); ``cof`` maps each denominator den of f's
    coefficients to (k, c) with L / den = t^k c, as ``_lcm_cofactors``
    gives it."""
    tw = f.tower
    lv = tw.num_levels
    step = _step(f.nvars + 1, f.nvars)
    terms = {}
    for e, c in f._terms.items():
        num, den = c[1:] if type(c) is tuple else ((c,), _ONE_T)
        k, m = cof[den]
        num = _pmul(tw, lv - 1, num, m)
        if len(num) + k > _FIELD + 1:
            raise DegreeTooLarge(f"a coefficient has degree {len(num) - 1 + k} in "
                                 f"{tw.names[-1]}; an exponent is at most {_FIELD}")
        e <<= _BITS  # the key with a last exponent 0
        for i, a in enumerate(num, k):
            if a:
                terms[e + i * step] = a
    return MPoly(low, f.nvars + 1, terms)


def _unflatten(F, tw):
    """F, a polynomial over a prefix of tw with tw's top generator t as its
    last variable, as a polynomial over tw with polynomial-in-t coefficients."""
    n = F.nvars - 1
    step = _step(F.nvars, n)
    coeffs = {}
    for e, c in F._terms.items():
        i = e & _FIELD
        coeffs.setdefault((e - i * step) >> _BITS, {})[i] = c
    return MPoly(tw, n, {e: _qval(tuple(p.get(i, 0) for i in range(max(p) + 1)))
                         for e, p in coeffs.items()})


# -- the integer kernel: polynomials over Z as dicts from packed key to
# nonzero int; a key does not carry its variable count n, so each function
# that reads a field takes n

_HEU_TRIES = 6  # values of xi tried before GCDHEU gives up
_HEU_BITS = 8000  # cap on bit_length(xi) * degree of the evaluated variable


def _to_ints(f):
    """(s, F) with f = s * F and F a primitive integer polynomial; f over Q."""
    vals = list(f._terms.values())
    den = lcm(*(v.denominator for v in vals))
    F = {e: v.numerator * (den // v.denominator) for e, v in zip(f._terms, vals)}
    cont = gcd(*F.values())
    if cont != 1:
        F = {e: a // cont for e, a in F.items()}
    return Fraction(cont, den), F


def _from_ints(tw, nvars, F, s):
    """The polynomial s * F over Q."""
    p, q = s.numerator, s.denominator
    if q == 1:
        return MPoly(tw, nvars, {e: a * p for e, a in F.items()})
    return MPoly(tw, nvars, {e: Fraction(a * p, q) for e, a in F.items()})


def _divide(f, g, ring, n):
    """f / g by cancelling leading terms; f, g are dicts keyed in n variables.

    The coefficients are raw values of the tower ``ring`` with lc(g) = 1,
    or ints with ``ring`` QQ, whose operator bindings serve ints as well.
    Raises DivisionByZero when g does not divide f (over Z for ints). A
    quotient has degree deg f - deg g in each variable, which bounds the steps.
    """
    sub, mul, neg, is_zero = ring.sub, ring.mul, ring.neg, ring.is_zero
    top = [a - b for a, b in zip(_degrees(f, n), _degrees(g, n))]
    if min(top, default=0) < 0:
        raise DivisionByZero("inexact polynomial division")
    top = _pack(top)
    # bit b of x ^ y ^ (x - y) is the borrow into bit b, and x - y borrows
    # into the lowest bit of a field exactly when an exponent of y passes
    # that of x: the first test below asks lg | lr, the second d | x^top
    low = sum(1 << s for s in range(_BITS, _BITS * n + 1, _BITS))
    lg = max(g)
    cg = g[lg]
    unit = cg == 1
    r = dict(f)
    q = {}
    while r:
        lr = max(r)
        d = lr - lg
        c = r[lr]
        if (d ^ lr ^ lg) & low or ((top - d) ^ top ^ d) & low:
            raise DivisionByZero("inexact polynomial division")
        if not unit:
            c, m = divmod(c, cg)
            if m:
                raise DivisionByZero("inexact polynomial division")
        q[d] = c
        for e, a in g.items():
            k = d + e
            w = r.get(k)
            if w is None:
                r[k] = neg(mul(c, a))
            else:
                w = sub(w, mul(c, a))
                if is_zero(w):
                    del r[k]
                else:
                    r[k] = w
    return q


def _quotient(f, h, n):
    """f / h over Z, or None when h does not divide f."""
    try:
        return _divide(f, h, QQ, n)
    except DivisionByZero:
        return None


def _heu_cofactors(f, g, n):
    """(h, f/h, g/h) for h the gcd in Z[x_0..x_{n-1}] of nonzero integer
    polynomials f and g, by GCDHEU; None when it gives up.

    Evaluate one variable at xi, take the gcd of the images recursively, and
    rebuild xi-adically with coefficients in (-xi/2, xi/2] (Char, Geddes and
    Gonnet, J. Symb. Comp. 1989; Geddes, Czapor and Labahn, Algorithms for
    Computer Algebra, 7.7). For primitive f and g and xi >= 2 min(|f|, |g|) + 2,
    the primitive part of the rebuilt gcd is gcd(f, g) once it divides both,
    provided the recursive gcd is the whole gcd of the images, integer
    content included; so each level multiplies the gcd of the contents back.
    The trial divisions that accept h give the cofactors. The cap _HEU_BITS
    keeps the degree of a rebuilt gcd in x_v, at most deg + 2 digits of xi,
    far inside an exponent field.
    """
    cf, cg = gcd(*f.values()), gcd(*g.values())
    c = gcd(cf, cg)
    if cf != 1:
        f = {e: a // cf for e, a in f.items()}
    if cg != 1:
        g = {e: a // cg for e, a in g.items()}
    if not any(f) or not any(g):
        return {0: c}, _times(f, cf // c), _times(g, cg // c)
    df, dg = _degrees(f, n), _degrees(g, n)
    v = min((i for i in range(n) if df[i] or dg[i]), key=lambda i: max(df[i], dg[i]))
    deg = max(df[v], dg[v])
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 2
    for _ in range(_HEU_TRIES):
        if xi.bit_length() * deg > _HEU_BITS:
            return None
        fx, gx = _eval_at(f, v, xi, n), _eval_at(g, v, xi, n)
        if fx and gx:
            h = _heu_cofactors(fx, gx, n)
            if h is None:
                return None
            h = _interpolate(h[0], v, xi, n)
            ch = gcd(*h.values())
            h = {e: a // ch for e, a in h.items()}
            qf = _quotient(f, h, n)
            qg = None if qf is None else _quotient(g, h, n)
            if qg is not None:
                return _times(h, c), _times(qf, cf // c), _times(qg, cg // c)
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011  # about (1 + sqrt 3) xi^(5/4)
    return None


def _times(F, k):
    """The integer polynomial k * F."""
    return F if k == 1 else {e: a * k for e, a in F.items()}


def _eval_at(f, v, xi, n):
    """f, keyed in n variables, at x_v = xi; the exponent of x_v becomes 0."""
    s, unit = _offset(n, v), _step(n, v)
    out = {}
    pw = [1]
    for e, a in f.items():
        k = (e >> s) & _FIELD
        if k:
            while len(pw) <= k:
                pw.append(pw[-1] * xi)
            e -= k * unit
            a *= pw[k]
        out[e] = out.get(e, 0) + a
    return {e: a for e, a in out.items() if a}


def _interpolate(h, v, xi, n):
    """The polynomial in n variables with coefficients in (-xi/2, xi/2] that
    is h, free of x_v, at x_v = xi."""
    step = _step(n, v)
    out = {}
    half = xi // 2
    k = 0
    while h:
        rest = {}
        for e, a in h.items():
            r = a % xi
            if r > half:
                r -= xi
            if r:
                out[e + k * step] = r
            if a != r:
                rest[e] = (a - r) // xi
        h = rest
        k += 1
    return out
