"""Exact arithmetic in iterated field extensions of Q.

A tower is a list of steps, each either a new transcendental generator
(the field of rational functions in it) or an algebraic generator given
by a monic minimal polynomial over the tower built so far.  Elements are
kept in a recursive normal form so that structural equality is semantic
equality:

* a value equal to a rational is a bare rational at every level: an
  ``int`` when it is integral (so 0 and 1 are ``0`` and ``1`` everywhere,
  and sqrt(2)*sqrt(2) is ``2``), else a ``fractions.Fraction``; arithmetic
  may leave an integral Fraction, which compares, hashes and prints like
  the int;
* any other value at a transcendental step is ``("q", num, den)`` with
  ``num``/``den`` coefficient tuples over the level below, ``den`` monic,
  gcd 1;
* any other value at an algebraic step of degree d is ``("a", coeffs)``
  with exactly d coefficients over the level below (the residue ring basis
  1, g, .., g^(d-1)).

A tuple is never zero, so ``not v`` is the zero test at every level, a value
is rational exactly when it is not a tuple, and rational work runs on the
int and Fraction operators whatever the tower.  ``int / int`` is a float,
so it is never applied to raw values: ``_inv`` builds a Fraction, or an
int when the inverse is integral.

Sums of reduced fractions at a transcendental level skip the gcds whose
answer is known, by Henrici's rule (J. ACM 3, 1956; Knuth, TAOCP vol. 2,
4.5.1): over one denominator d a sum cancels only gcd(n1 + n2, d), and a
value plus a polynomial is already reduced.  Other sums, and products
unless both sides are polynomials, are cross-multiplied and reduced.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import partial

from .errors import DivisionByZero, DuplicateName, NonMonic, ReducibleMinpoly, TowerMismatch


class Transcendental:
    """Tower step adjoining an independent transcendental generator."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class Algebraic:
    """Tower step adjoining a root of a monic irreducible polynomial.

    ``minpoly`` lists coefficients from the constant term upward; entries
    may be ints, Fractions, or Scalars of the tower built so far.
    """

    __slots__ = ("name", "minpoly")

    def __init__(self, name: str, minpoly):
        self.name = name
        self.minpoly = list(minpoly)


# ---------------------------------------------------------------------------
# recursive value arithmetic
#
# All helpers take the tower and a level index: level 0 is Q, level i is the
# field after steps[i-1].  Values at each level are immutable, canonical, and
# compare correctly with ==.  Each helper tests for a rational (a value that
# is not a tuple) first: two rationals combine with the Python operators,
# and a rational meets a tuple by
# shifting or scaling the tuple's coefficients.  An irrational value plus or
# times a nonzero rational, and the inverse of an irrational value, are
# irrational, so only tuple-with-tuple results are normalised.

_ZERO, _ONE = 0, 1
_ONE_T = (1,)  # the monic constant denominator


def _qval(num, den=_ONE_T):
    """The value num/den at a transcendental level, for canonical num and den."""
    if not num:
        return _ZERO
    if len(num) == 1 and len(den) == 1 and type(num[0]) is not tuple:
        return num[0]
    return ("q", num, den)


def _aval(cs):
    """The value with the d coefficients cs at an algebraic level."""
    if type(cs[0]) is not tuple and not any(cs[1:]):
        return cs[0]
    return ("a", cs)


def _lift_one(tw, lv, v):
    """Embed a level lv-1 value as a constant at level lv."""
    if type(v) is not tuple:
        return v
    step = tw.steps[lv - 1]
    if step[0] == "tr":
        return ("q", (v,), _ONE_T)
    return ("a", (v,) + (_ZERO,) * (len(step[2]) - 2))


def _add(tw, lv, a, b):
    if type(a) is not tuple:
        if type(b) is not tuple:
            return a + b
        a, b = b, a
    if type(b) is not tuple:  # a is a tuple and b a rational
        if not b:
            return a
        if a[0] == "a":
            cs = a[1]
            return ("a", (_add(tw, lv - 1, cs[0], b),) + cs[1:])
        p = (b,)
    elif a[0] == "a":
        return _aval(tuple(_add(tw, lv - 1, x, y) for x, y in zip(a[1], b[1])))
    elif a[2] == b[2]:
        # over one denominator d only gcd(n1 + n2, d) can cancel; a monic
        # constant d is one, and then the sum is canonical
        num = _padd(tw, lv - 1, a[1], b[1])
        return _qval(tuple(num)) if len(a[2]) == 1 else _mkq(tw, lv, num, a[2])
    else:
        if len(a[2]) == 1:
            a, b = b, a
        if len(b[2]) != 1:
            n1, d1 = a[1], a[2]
            n2, d2 = b[1], b[2]
            num = _padd(tw, lv - 1, _pmul(tw, lv - 1, n1, d2), _pmul(tw, lv - 1, n2, d1))
            return _mkq(tw, lv, num, _pmul(tw, lv - 1, d1, d2))
        p = b[1]
    # num/den plus a polynomial p (a rational b among them) is
    # (num + p den)/den, still in lowest terms
    den = a[2]
    return ("q", tuple(_padd(tw, lv - 1, a[1], _pmul(tw, lv - 1, p, den))), den)


def _neg(tw, lv, a):
    if type(a) is not tuple:
        return -a
    if a[0] == "q":
        return ("q", tuple(_neg(tw, lv - 1, c) for c in a[1]), a[2])
    return ("a", tuple(_neg(tw, lv - 1, c) for c in a[1]))


def _sub(tw, lv, a, b):
    if type(a) is not tuple and type(b) is not tuple:
        return a - b
    return _add(tw, lv, a, _neg(tw, lv, b))


def _mul(tw, lv, a, b):
    if type(a) is not tuple:
        if type(b) is not tuple:
            return a * b
        a, b = b, a
    elif type(b) is tuple:
        if a[0] == "q":
            if len(a[2]) == 1 and len(b[2]) == 1:
                return _qval(tuple(_pmul(tw, lv - 1, a[1], b[1])))
            return _mkq(tw, lv, _pmul(tw, lv - 1, a[1], b[1]), _pmul(tw, lv - 1, a[2], b[2]))
        return _aval(_amod(tw, lv, _pmul(tw, lv - 1, a[1], b[1])))
    # a is a tuple and b a rational: scale the numerator or the coefficients
    if not b:
        return b
    scaled = tuple(_mul(tw, lv - 1, c, b) for c in a[1])
    return ("q", scaled, a[2]) if a[0] == "q" else ("a", scaled)


def _inv(tw, lv, a):
    if type(a) is not tuple:
        if not a:
            raise DivisionByZero("inverse of zero")
        # never int / int, which is a float; 1/a is an int when a's
        # numerator is +-1
        n, d = a.numerator, a.denominator
        return d if n == 1 else -d if n == -1 else Fraction(d, n)
    if a[0] == "q":
        num, den = a[1], a[2]
        c = _inv(tw, lv - 1, num[-1])
        if len(num) == 1:  # the inverse is the polynomial den / lead
            return ("q", tuple(_mul(tw, lv - 1, c, x) for x in den), _ONE_T)
        return ("q", tuple(_mul(tw, lv - 1, c, x) for x in den),
                tuple(_mul(tw, lv - 1, c, x) for x in num))
    if not any(a[1][1:]):  # a constant of the level below
        return ("a", _apad(tw, lv, [_inv(tw, lv - 1, a[1][0])]))
    m = tw.steps[lv - 1][2]
    g, s = _pxgcd_first(tw, lv - 1, _pstrip(tw, lv - 1, list(a[1])), list(m))
    if len(g) != 1:
        name = tw.steps[lv - 1][1]
        raise ReducibleMinpoly(
            f"minimal polynomial of {name} shares a factor with a nonzero element; tower is invalid")
    c = _inv(tw, lv - 1, g[0])
    inv_coeffs = [_mul(tw, lv - 1, c, x) for x in s]
    return ("a", _apad(tw, lv, inv_coeffs))


def _amod(tw, lv, coeffs):
    """Reduce a coefficient list modulo the (monic) minpoly at this level."""
    m = tw.steps[lv - 1][2]
    d = len(m) - 1
    cs = list(coeffs)
    while len(cs) > d:
        top = cs.pop()
        if not top:
            continue
        k = len(cs) - d
        for i in range(d):
            cs[k + i] = _sub(tw, lv - 1, cs[k + i], _mul(tw, lv - 1, top, m[i]))
    return _apad(tw, lv, cs)


def _apad(tw, lv, coeffs):
    cs = list(coeffs)
    d = len(tw.steps[lv - 1][2]) - 1
    while len(cs) < d:
        cs.append(_ZERO)
    return tuple(cs[:d])


# --- polynomial helpers over a tower level (lists of values, low degree first)


def _pstrip(tw, lv, p):
    while p and not p[-1]:
        p.pop()
    return p


def _padd(tw, lv, p, q):
    n = max(len(p), len(q))
    out = []
    for i in range(n):
        a = p[i] if i < len(p) else _ZERO
        b = q[i] if i < len(q) else _ZERO
        out.append(_add(tw, lv, a, b))
    return _pstrip(tw, lv, out)


def _psub(tw, lv, p, q):
    return _padd(tw, lv, p, [_neg(tw, lv, c) for c in q])


def _pscale(tw, lv, c, p):
    return _pstrip(tw, lv, [_mul(tw, lv, c, x) for x in p])


def _pmul(tw, lv, p, q):
    if not p or not q:
        return ()
    out = [_ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            out[i + j] = _add(tw, lv, out[i + j], _mul(tw, lv, a, b))
    return _pstrip(tw, lv, out)


def _pdivmod(tw, lv, p, q):
    """Division with remainder; the divisor's lead must be invertible (field)."""
    p = _pstrip(tw, lv, list(p))
    q = _pstrip(tw, lv, list(q))
    if not q:
        raise DivisionByZero("polynomial division by zero")
    inv_lead = _inv(tw, lv, q[-1])
    quot = [_ZERO] * max(0, len(p) - len(q) + 1)
    rem = list(p)
    while len(rem) >= len(q):
        c = _mul(tw, lv, rem[-1], inv_lead)
        k = len(rem) - len(q)
        quot[k] = c
        for i in range(len(q)):
            rem[k + i] = _sub(tw, lv, rem[k + i], _mul(tw, lv, c, q[i]))
        rem.pop()
        rem = _pstrip(tw, lv, rem)
    return quot, rem


def _pgcd(tw, lv, p, q):
    """Monic gcd over the (field) coefficients at this level."""
    a = _pstrip(tw, lv, list(p))
    b = _pstrip(tw, lv, list(q))
    while b:
        _, r = _pdivmod(tw, lv, a, b)
        a, b = b, r
    if not a:
        return []
    c = _inv(tw, lv, a[-1])
    return [_mul(tw, lv, c, x) for x in a]


def _pxgcd_first(tw, lv, p, q):
    """Extended Euclid returning (g, s) with s*p = g mod q, g monic."""
    a, b = list(p), list(q)
    sa, sb = [_ONE], []
    while b:
        quot, r = _pdivmod(tw, lv, a, b)
        a, b = b, r
        sa, sb = sb, _psub(tw, lv, sa, _pmul(tw, lv, quot, sb))
    if not a:
        raise DivisionByZero("extended gcd of zero polynomials")
    c = _inv(tw, lv, a[-1])
    return [_mul(tw, lv, c, x) for x in a], _pscale(tw, lv, c, sa)


def _peval(tw, lv, p, at):
    acc = _ZERO
    for c in reversed(list(p)):
        acc = _add(tw, lv, _mul(tw, lv, acc, at), c)
    return acc


def _pformal_deriv(tw, lv, p):
    out = []
    for k in range(1, len(p)):
        out.append(_mul(tw, lv, k, p[k]))
    return _pstrip(tw, lv, out)


def _mkq(tw, lv, num, den):
    """Canonical rational-function value at a transcendental level."""
    num = _pstrip(tw, lv - 1, list(num))
    den = _pstrip(tw, lv - 1, list(den))
    if not den:
        raise DivisionByZero("zero denominator in tower element")
    if not num:
        return _ZERO
    if len(num) > 1 and len(den) > 1:  # a nonzero constant is coprime to anything
        g = _pgcd(tw, lv - 1, num, den)
        if len(g) > 1:
            num, _ = _pdivmod(tw, lv - 1, num, g)
            den, _ = _pdivmod(tw, lv - 1, den, g)
    c = _inv(tw, lv - 1, den[-1])
    num = tuple(_mul(tw, lv - 1, c, x) for x in num)
    den = tuple(_mul(tw, lv - 1, c, x) for x in den)
    return _qval(num, den)


def _dgen(tw, lv, a, j):
    """Partial derivative with respect to the transcendental generator at level j."""
    if lv < j or type(a) is not tuple:
        return _ZERO
    # At lv == j differentiate N/D as polynomials in the generator. At lv > j
    # the level-lv generator is independent of (or algebraic over) the lower
    # field; differentiate coefficients, with the implicit-function rule
    # supplying the generator's own derivative in the algebraic case.
    if a[0] == "q":
        num, den = a[1], a[2]
        if lv == j:
            dn = _pformal_deriv(tw, lv - 1, num)
            dd = _pformal_deriv(tw, lv - 1, den)
        else:
            dn = _pstrip(tw, lv - 1, [_dgen(tw, lv - 1, c, j) for c in num])
            dd = _pstrip(tw, lv - 1, [_dgen(tw, lv - 1, c, j) for c in den])
        # the quotient rule (N'D - ND') / D^2
        top = _psub(tw, lv - 1, _pmul(tw, lv - 1, dn, den), _pmul(tw, lv - 1, num, dd))
        return _mkq(tw, lv, top, _pmul(tw, lv - 1, den, den))
    m = tw.steps[lv - 1][2]
    coeff_part = _aval(tuple(_dgen(tw, lv - 1, c, j) for c in a[1]))
    dm = [_dgen(tw, lv - 1, c, j) for c in m]
    if not any(dm):
        return coeff_part
    # dg = -(sum dm_k g^k) / m'(g)
    dm_at_g = _aval(_amod(tw, lv, dm))
    mprime_at_g = _aval(_amod(tw, lv, _pformal_deriv(tw, lv - 1, list(m))))
    dg = _neg(tw, lv, _mul(tw, lv, dm_at_g, _inv(tw, lv, mprime_at_g)))
    aprime = [_mul(tw, lv - 1, k, c) for k, c in enumerate(a[1])][1:]
    aprime_at_g = _aval(_amod(tw, lv, aprime))
    return _add(tw, lv, coeff_part, _mul(tw, lv, aprime_at_g, dg))


# --- rendering


def _needs_parens(s):
    return ("+" in s[1:]) or ("-" in s[1:]) or ("/" in s) or (" " in s)


def render_terms(terms):
    """A signed sum of (coefficient text, monomial text) terms, in order.

    An empty monomial is a constant term; coefficients 1 and -1 are left
    out, and a compound coefficient is parenthesized.  Tower values and
    ``MPoly`` both print through this one rule.
    """
    bits = []
    for cs, mono in terms:
        if not mono:
            bits.append(cs)
        elif cs == "1":
            bits.append(mono)
        elif cs == "-1":
            bits.append(f"-{mono}")
        else:
            bits.append(f"({cs})*{mono}" if _needs_parens(cs) else f"{cs}*{mono}")
    if not bits:
        return "0"
    out = bits[0]
    for b in bits[1:]:
        out += f" - {b[1:]}" if b.startswith("-") else f" + {b}"
    return out


def _render_poly(tw, lv, coeffs, name):
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        if coeffs[k]:
            mono = "" if k == 0 else name if k == 1 else f"{name}^{k}"
            terms.append((_render(tw, lv, coeffs[k]), mono))
    return render_terms(terms)


def _render(tw, lv, v):
    if type(v) is not tuple:
        return str(v)
    name = tw.steps[lv - 1][1]
    if v[0] == "q":
        num, den = v[1], v[2]
        ns = _render_poly(tw, lv - 1, num, name)
        if len(den) == 1:  # a monic constant denominator is one
            return ns
        ds = _render_poly(tw, lv - 1, den, name)
        if _needs_parens(ns):
            ns = f"({ns})"
        if _needs_parens(ds) or "^" in ds:
            ds = f"({ds})"
        return f"{ns}/{ds}"
    return _render_poly(tw, lv - 1, v[1], name)


# ---------------------------------------------------------------------------


class Tower:
    """An iterated extension of Q; construct with :func:`make_tower`."""

    __slots__ = ("steps", "names", "add", "sub", "mul", "neg", "inv")

    # a raw value is zero exactly when it is the rational 0, at every level
    is_zero = operator.not_

    def __init__(self, steps, names):
        self.steps = steps
        self.names = names
        # the top level's arithmetic on raw values, bound once; over Q these
        # are the plain int and Fraction operators
        lv = len(steps)
        self.add, self.sub, self.mul, self.neg, self.inv = (
            partial(fn, self, lv) for fn in (_add, _sub, _mul, _neg, _inv))
        if not lv:
            self.add, self.sub, self.mul, self.neg = (
                operator.add, operator.sub, operator.mul, operator.neg)

    @property
    def num_levels(self):
        return len(self.steps)

    def is_number_field(self):
        return all(s[0] == "alg" for s in self.steps)

    def transcendental_levels(self):
        return [i + 1 for i, s in enumerate(self.steps) if s[0] == "tr"]

    def zero(self):
        return Scalar(self, _ZERO)

    def one(self):
        return Scalar(self, _ONE)

    @staticmethod
    def value(r):
        """The raw value of a rational r (an int or a Fraction) at every level:
        an int when r is integral, else a Fraction.  Anything else, a float
        included, raises TypeError."""
        if isinstance(r, (int, Fraction)):
            return r.numerator if r.denominator == 1 else r
        raise TypeError(f"not a rational: {r!r}")

    def gen(self, name):
        lv = self.level_of(name)
        top = self.num_levels
        if self.steps[lv - 1][0] == "tr":
            v = ("q", (_ZERO, _ONE), _ONE_T)
        else:
            v = ("a", _apad(self, lv, [_ZERO, _ONE]))
        for k in range(lv + 1, top + 1):
            v = _lift_one(self, k, v)
        return Scalar(self, v)

    def level_of(self, name):
        for i, s in enumerate(self.steps):
            if s[1] == name:
                return i + 1
        raise KeyError(f"no tower generator named {name!r}")

    def is_prefix_of(self, other):
        return self.steps == other.steps[: len(self.steps)]

    def lift(self, src, v):
        """Re-express a raw value of the prefix tower src as one of this tower."""
        if src != self:
            if not src.is_prefix_of(self):
                raise TowerMismatch("embed: source tower is not a prefix of the target")
            for k in range(src.num_levels + 1, self.num_levels + 1):
                v = _lift_one(self, k, v)
        return v

    def embed(self, scalar):
        """Re-express a scalar from a prefix tower as an element of this tower."""
        return Scalar(self, self.lift(scalar.tower, scalar.val))

    def render(self, v):
        """The text of a raw value; scalars, polynomials and cochains print through it."""
        return _render(self, self.num_levels, v)

    def d(self, v, level):
        """The derivative of a raw value by the transcendental generator at ``level``."""
        if level not in self.transcendental_levels():
            raise ValueError(f"level {level} is not a transcendental step")
        return _dgen(self, self.num_levels, v, level)

    def extend(self, specs):
        """This tower followed by Transcendental/Algebraic steps.

        The existing steps were validated when this tower was built and are
        kept as they are; each new step is checked in full (name, monic
        minimal polynomial, root candidates, squarefreeness).
        """
        steps = list(self.steps)
        names = list(self.names)
        for spec in specs:
            if not isinstance(spec, (Transcendental, Algebraic)):
                raise TypeError(f"unknown tower step descriptor: {spec!r}")
            name = spec.name
            _check_name(name, names)
            if isinstance(spec, Transcendental):
                steps.append(("tr", name))
                names.append(name)
                continue
            tw = Tower(tuple(steps), tuple(names))
            lv = len(steps)
            coeffs = []
            for c in spec.minpoly:
                if isinstance(c, Scalar):
                    coeffs.append(tw.lift(c.tower, c.val))
                else:
                    coeffs.append(tw.value(c))
            coeffs = _pstrip(tw, lv, coeffs)
            if len(coeffs) < 3:
                raise NonMonic(f"minimal polynomial of {name} must have degree >= 2")
            if coeffs[-1] != 1:
                raise NonMonic(f"minimal polynomial of {name} is not monic")
            for cand in _root_candidates(tw, lv, coeffs):
                if not _peval(tw, lv, coeffs, cand):
                    raise ReducibleMinpoly(
                        f"minimal polynomial of {name} vanishes at {_render(tw, lv, cand)}")
            if len(_pgcd(tw, lv, coeffs, _pformal_deriv(tw, lv, coeffs))) > 1:
                raise ReducibleMinpoly(f"minimal polynomial of {name} has a repeated factor")
            steps.append(("alg", name, tuple(coeffs)))
            names.append(name)
        return Tower(tuple(steps), tuple(names))

    def __repr__(self):
        if not self.steps:
            return "Q"
        return "Q(" + ", ".join(self.names) + ")"

    def __eq__(self, other):
        return self is other or (isinstance(other, Tower) and self.steps == other.steps)

    def __hash__(self):
        return hash(("Tower", self.names))


def _root_candidates(tw, lv, m):
    """The values at which the minimal polynomial m over level lv must not
    vanish: its rational roots, found exactly, when every coefficient is
    rational, else a sample of small rationals n/d (|n| <= 8, d <= 4); then
    the prior generators g as +-g and +-g +- 1."""
    if all(type(c) is not tuple for c in m):
        cands = _rational_roots(m)
    else:
        cands = [Tower.value(Fraction(n, d))
                 for n in range(-8, 9) for d in (1, 2, 3, 4) if math.gcd(n, d) == 1]
    for name in tw.names:
        g = tw.gen(name).val
        for shift in (_ZERO, _ONE, -_ONE):
            cands.append(_add(tw, lv, g, shift))
            cands.append(_add(tw, lv, _neg(tw, lv, g), shift))
    return cands


def _rational_roots(m):
    """The rational roots of the monic polynomial m over Q.

    T = y/L, for L the lcm of the denominators, turns m into a monic integer
    polynomial f in y, whose rational roots are integers (Gauss), all in
    [-B, B] for B = 1 + max |f_k| (Cauchy), and each a bracket of f.
    """
    n = len(m) - 1
    L = math.lcm(*(c.denominator for c in m))
    f = [int(c * L ** (n - k)) for k, c in enumerate(m)]
    return [Tower.value(Fraction(b, L))
            for b in _brackets(f, 1 + max(map(abs, f))) if not _peval(QQ, 0, f, b)]


def _brackets(f, B):
    """Sorted integers b such that each real root of the integer polynomial f
    (of degree >= 1, with every root in (-B, B)) lies in [b, b + 1] for one
    of them, and each integer root is one of them.

    The roots of the derivative lie in (-B, B) too (Gauss-Lucas). For its
    brackets c_1 < .. < c_k, f is monotone on each of the pieces [-B, c_1],
    [c_1 + 1, c_2], .., [c_k + 1, B], which hold every integer of [-B, B];
    a root in a piece is bisected down to a bracket, and a root between
    c_i and c_i + 1 is covered by keeping c_i.
    """
    chain = [f]  # f and its derivatives down to degree 1
    while len(chain[-1]) > 2:
        chain.append(_pformal_deriv(QQ, 0, chain[-1]))
    crit = []
    for f in reversed(chain):  # each f's brackets from its derivative's
        out = set(crit)
        for a, b in zip([-B] + [c + 1 for c in crit], crit + [B]):
            fa, fb = _peval(QQ, 0, f, a), _peval(QQ, 0, f, b)
            if fa * fb <= 0:  # a root in [a, b]: bisect to a zero or a unit interval
                while b - a > 1 and fa and fb:
                    mid = (a + b) // 2
                    fm = _peval(QQ, 0, f, mid)
                    if fm * fa > 0:
                        a, fa = mid, fm
                    else:
                        b, fb = mid, fm
                out.add(b if not fb else a)
        crit = sorted(out)
    return crit


def make_tower(specs):
    """Build a Tower from Transcendental/Algebraic step descriptors."""
    return Tower((), ()).extend(specs)


def _check_name(name, names):
    if not name.isidentifier():
        raise DuplicateName(f"bad generator name {name!r}")
    if name in names:
        raise DuplicateName(f"generator {name!r} declared twice")


def power(x, n, one):
    """x**n for an int n by square-and-multiply (x.inv() first when n < 0).

    Each step multiplies as ``out * base`` with ``out`` starting at ``one``,
    so the accumulated power is always the left operand.
    """
    if n < 0:
        x, n = x.inv(), -n
    out = one
    while n:
        if n & 1:
            out = out * x
        n >>= 1
        if n:
            x = x * x
    return out


class Scalar:
    """An element of a tower field, in canonical form: a raw top-level value
    of its tower, with the tower's bound arithmetic."""

    __slots__ = ("tower", "val")

    def __init__(self, tower, val):
        self.tower = tower
        self.val = val

    def _coerce(self, other):
        """The raw value of other in this tower, or None."""
        if isinstance(other, Scalar):
            if other.tower != self.tower:
                raise TowerMismatch("scalars from different towers")
            return other.val
        if isinstance(other, (int, Fraction)):
            return self.tower.value(other)
        return None

    def __add__(self, other):
        o, tw = self._coerce(other), self.tower
        return NotImplemented if o is None else Scalar(tw, tw.add(self.val, o))

    __radd__ = __add__

    def __sub__(self, other):
        o, tw = self._coerce(other), self.tower
        return NotImplemented if o is None else Scalar(tw, tw.sub(self.val, o))

    def __rsub__(self, other):
        o, tw = self._coerce(other), self.tower
        return NotImplemented if o is None else Scalar(tw, tw.sub(o, self.val))

    def __mul__(self, other):
        o, tw = self._coerce(other), self.tower
        return NotImplemented if o is None else Scalar(tw, tw.mul(self.val, o))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o, tw = self._coerce(other), self.tower
        return NotImplemented if o is None else Scalar(tw, tw.mul(self.val, tw.inv(o)))

    def __rtruediv__(self, other):
        o, tw = self._coerce(other), self.tower
        return NotImplemented if o is None else Scalar(tw, tw.mul(o, tw.inv(self.val)))

    def __neg__(self):
        return Scalar(self.tower, self.tower.neg(self.val))

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return power(self, n, self.tower.one())

    def inv(self):
        return Scalar(self.tower, self.tower.inv(self.val))

    def d(self, level):
        """Partial derivative with respect to the transcendental generator at ``level``."""
        return Scalar(self.tower, self.tower.d(self.val, level))

    def is_zero(self):
        return not self.val

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.val == other  # a rational value is a bare int or Fraction
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.tower == other.tower and self.val == other.val

    def __hash__(self):
        return hash((self.tower.names, self.val))

    def __str__(self):
        return self.tower.render(self.val)

    def __repr__(self):
        return f"Scalar({self})"


QQ = make_tower([])
