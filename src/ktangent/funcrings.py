"""Function rings of affine charts and their dual-number extensions.

A FunctionRing models the fraction field of K[x_1..x_n] or of
K[x_1..x_n]/(F) with F monic in one (eliminated) variable.  Elements are
canonical fractions num/den: num reduced modulo the relation, den free of
the eliminated variable (denominators are rationalized), the pair in
lowest terms with num's graded-lex leading coefficient equal to 1
(``mpoly.lowest_terms``).  Elements compare and hash through their two
``MPoly``s and never read a term dict.  Since the pair is unique, two
elements are equal exactly when their difference is zero, and ``==``
decides it without building the difference.  The element of an int
constant, and each product and sum that needs a gcd, is built once per
ring and kept in ``FunctionRing.memo``, which is safe because no element
changes after construction.

DualElem adjoins a square-zero infinitesimal: body + eps * slope.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .errors import (
    DivisionByZero,
    DuplicateName,
    NameClash,
    NonMonic,
    NonUnitBody,
    RingMismatch,
    SingularRelation,
    TowerMismatch,
)
from .linalg import RowSpan
from .mpoly import MPoly, div_exact, lowest_terms, monic, mp_gcd, reduce_mod
from .scalars import Scalar, power

_PROBE = [Fraction(v) for v in (0, 1, -1, 2, -2, 3)] + [Fraction(1, 2), Fraction(-1, 2)]


class FunctionRing:
    """Chart coordinate ring (optionally with one monic relation).

    ``memo`` holds data derived from the ring and its elements, computed
    once per ring by ``remember``: ``differentials`` keeps the letters of
    each base and the d and dlog of elements there, ``milnor`` the wedge
    of dlogs of a tail tuple, ``const`` the element of each int
    constant, and ``RingElem`` the product ``("*", a, b)`` of two
    non-constant elements and the sum ``("+", a, b)`` of two nonzero ones,
    so that each is reduced to lowest terms once per ring.  Each entry is
    handed to every caller that asks for it, so no caller may change one
    in place.  The memo lives and dies with its ring.
    """

    __slots__ = ("tower", "varnames", "relation", "elim", "memo")

    # the field arithmetic ``linalg`` eliminates with, on elements
    add, sub, mul, neg, is_zero = (operator.add, operator.sub, operator.mul,
                                   operator.neg, operator.not_)
    inv = operator.methodcaller("inv")

    def __init__(self, tower, varnames, relation=None, smooth_check=True):
        varnames = tuple(varnames)
        if len(set(varnames)) != len(varnames):
            raise DuplicateName(f"repeated variable in {varnames}")
        for nm in varnames:
            if nm in tower.names:
                raise NameClash(f"variable {nm!r} collides with a tower generator")
        self.tower = tower
        self.varnames = varnames
        self.relation = relation
        self.elim = None
        self.memo = {}
        if relation is not None:
            if relation.tower != tower or relation.nvars != len(varnames):
                raise RingMismatch("relation polynomial belongs to a different ring")
            self.elim = self._pick_elim(relation)
            if smooth_check:
                self._probe_smooth(relation)

    def _pick_elim(self, rel):
        for v in range(len(self.varnames) - 1, -1, -1):
            d = rel.degree_in(v)
            if d >= 2 and rel.coeff_of(v, d) == 1:
                return v
        raise NonMonic("relation must be monic of degree >= 2 in some variable")

    def _probe_smooth(self, rel):
        """Bounded search for a singular point among small rational tuples."""
        n = len(self.varnames)
        grads = [rel.deriv(v) for v in range(n)]

        def walk(vals):
            if len(vals) == n:
                if not rel.vanishes_at(vals):
                    return
                if all(g.vanishes_at(vals) for g in grads):
                    raise SingularRelation(
                        f"relation is singular at ({', '.join(map(str, vals))})")
                return
            for f in _PROBE:
                walk(vals + [f])

        walk([])

    def remember(self, key, compute, *args):
        """``memo[key]``, set to ``compute(*args)`` on first use."""
        try:
            return self.memo[key]
        except KeyError:
            val = self.memo[key] = compute(*args)
            return val

    # -- element constructors

    def const(self, c):
        """The constant c; an int's element is built once and kept in ``memo``."""
        if type(c) is int:
            return self.remember(("const", c), self._const, c)
        return self._const(c)

    def _const(self, c):
        return RingElem(self, MPoly.const(self.tower, len(self.varnames), c), None)

    value = const

    def zero(self):
        return self.const(0)

    def one(self):
        return self.const(1)

    def var(self, name):
        i = self.varnames.index(name)
        return RingElem(self, MPoly.variable(self.tower, len(self.varnames), i), None)

    def gens(self):
        return {nm: self.var(nm) for nm in self.varnames}

    def _invert_reduced(self, den):
        """Invert a relation-ring element with den containing the eliminated var.

        Returns (P, q): P basis-reduced, q free of the eliminated variable,
        with den * P = q in the quotient ring.  The coordinates of 1/den in
        the basis 1, v, .., v^(d-1) solve a linear system over the fraction
        field of the relation-free ring; if den * P = 1 then den is a unit,
        so a solvable system is nonsingular and its solution unique.
        """
        rel, v = self.relation, self.elim
        free = FunctionRing(self.tower, self.varnames)
        span = RowSpan(free, track=True)
        for i in range(rel.degree_in(v)):
            img = reduce_mod(den.shift(v, i), rel, v)
            span.add({j: RingElem(free, c) for j, c in img.split_by(v).items()}, i)
        sol = span.solve({0: free.one()})
        if sol is None:
            raise DivisionByZero("denominator is not invertible modulo the relation")
        q = MPoly.const(self.tower, len(self.varnames), 1)
        for s in sol.values():
            q = div_exact(q * s.den, mp_gcd(q, s.den))
        P = MPoly.const(self.tower, len(self.varnames), 0)
        for i, s in sol.items():
            P = P + (s.num * div_exact(q, s.den)).shift(v, i)
        return P, q

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FunctionRing) and self.tower == other.tower
            and self.varnames == other.varnames and self.relation == other.relation)

    def __hash__(self):
        return hash((self.tower, self.varnames))

    def __repr__(self):
        base = f"{self.tower!r}[{', '.join(self.varnames)}]"
        if self.relation is None:
            return base
        return f"{base}/({self.relation.render(self.varnames)})"


class RingElem:
    """Canonical fraction in a function ring."""

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring, num, den=None):
        if den is None:
            den = MPoly.const(ring.tower, len(ring.varnames), 1)
        rel, v = ring.relation, ring.elim
        if rel is not None:
            num = reduce_mod(num, rel, v)
            den = reduce_mod(den, rel, v)
            if den.is_zero():
                raise DivisionByZero("zero denominator")
            if den.degree_in(v) > 0:
                inv_p, inv_q = ring._invert_reduced(den)
                num = reduce_mod(num * inv_p, rel, v)
                den = inv_q
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        self.ring = ring
        if num.is_zero():
            self.num, self.den = num, MPoly.const(ring.tower, len(ring.varnames), 1)
        else:
            self.num, self.den = lowest_terms(num, den)

    def _coerce(self, other):
        if isinstance(other, RingElem):
            if other.ring is not self.ring and other.ring != self.ring:
                raise RingMismatch("elements of different function rings")
            return other
        if isinstance(other, (int, Fraction, Scalar)):
            return self.ring.const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.num.is_zero() or self.num.is_zero():
            return self if o.num.is_zero() else o
        return self.ring.remember(("+", self, o), RingElem._sum, self, o)

    __radd__ = __add__

    def _sum(self, o):
        if self.den == o.den:
            return RingElem(self.ring, self.num + o.num, self.den)
        return RingElem(self.ring, self.num * o.den + o.num * self.den, self.den * o.den)

    def _product(self, o):
        return RingElem(self.ring, self.num * o.num, self.den * o.den)

    @classmethod
    def _canonical(cls, ring, num, den):
        """Wrap a pair that is already in canonical form, reducing nothing."""
        e = object.__new__(cls)
        e.ring = ring
        e.num = num
        e.den = den
        return e

    def __neg__(self):
        # the numerator keeps its leading coefficient 1; only den changes sign
        if self.num.is_zero():
            return self
        return RingElem._canonical(self.ring, self.num, -self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def is_constant(self):
        """True for a constant of K (stored as 1/(1/c), or 0)."""
        return self.num.is_constant() and self.den.is_constant()

    def __mul__(self, other):
        if type(other) is int and (other == 1 or other == -1):
            return self if other == 1 else -self
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_constant():
            a, c = self, o
        elif self.is_constant():
            a, c = o, self
        else:
            return self.ring.remember(("*", self, o), RingElem._product, self, o)
        # scaling by a nonzero constant moves only the denominator: the pair
        # stays coprime and num keeps its leading coefficient 1, so no gcd
        if a.num.is_zero() or c.num.is_zero():
            return c if c.num.is_zero() else a
        return RingElem._canonical(self.ring, a.num, a.den * c.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def inv(self):
        if self.num.is_zero():
            raise DivisionByZero("inverse of zero")
        ring = self.ring
        if ring.relation is not None and self.num.degree_in(ring.elim) > 0:
            # the new denominator must be rationalized modulo the relation
            return RingElem(ring, self.den, self.num)
        # (den, num) is already reduced, coprime and free of the eliminated
        # variable in its denominator; only the leading coefficient moves
        return RingElem._canonical(ring, *monic(self.den, self.num))

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if self.ring.relation is not None:
            return power(self, n, self.ring.one())
        b = self if n >= 0 else self.inv()
        n = abs(n)
        # powers of a coprime pair stay coprime, and the graded-lex
        # leading coefficient of num^n is 1^n
        return RingElem._canonical(self.ring, b.num ** n, b.den ** n)

    def is_zero(self):
        return self.num.is_zero()

    def is_unit(self):
        return not self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = self.ring.const(other)
        if not isinstance(other, RingElem):
            return NotImplemented
        return self.ring == other.ring and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        ns = self.num.render(self.ring.varnames)
        if self.den == 1:
            return ns
        ds = self.den.render(self.ring.varnames)
        if " " in ns or "/" in ns:
            ns = f"({ns})"
        if " " in ds or "/" in ds or "*" in ds or "^" in ds:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self):
        return f"RingElem({self})"


class DualElem:
    """body + eps * slope over a function ring, with eps^2 = 0."""

    __slots__ = ("ring", "body", "slope")

    def __init__(self, ring, body, slope=None):
        if slope is None:
            slope = ring.zero()
        if body.ring != ring or slope.ring != ring:
            raise RingMismatch("dual parts from a different ring")
        self.ring = ring
        self.body = body
        self.slope = slope

    def _coerce(self, other):
        if isinstance(other, DualElem):
            if other.ring != self.ring:
                raise RingMismatch("dual numbers over different rings")
            return other
        if isinstance(other, RingElem):
            return DualElem(self.ring, other)
        if isinstance(other, (int, Fraction, Scalar)):
            return DualElem(self.ring, self.ring.const(other))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return DualElem(self.ring, self.body + o.body, self.slope + o.slope)

    __radd__ = __add__

    def __neg__(self):
        return DualElem(self.ring, -self.body, -self.slope)

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
        return DualElem(self.ring, self.body * o.body,
                        self.body * o.slope + self.slope * o.body)

    __rmul__ = __mul__

    def inv(self):
        if self.body.is_zero():
            raise NonUnitBody("dual number with zero body has no inverse")
        b = self.body.inv()
        return DualElem(self.ring, b, -(b * b) * self.slope)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return power(self, n, DualElem(self.ring, self.ring.one()))

    def specialize(self):
        """Set eps to 0."""
        return self.body

    def is_unit(self):
        return self.body.is_unit()

    def is_zero(self):
        return self.body.is_zero() and self.slope.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Scalar, RingElem)):
            other = self._coerce(other)
        if not isinstance(other, DualElem):
            return NotImplemented
        return self.ring == other.ring and self.body == other.body and self.slope == other.slope

    def __hash__(self):
        return hash((self.body, self.slope))

    def __str__(self):
        if self.slope.is_zero():
            return str(self.body)
        return f"({self.body}) + eps*({self.slope})"

    def __repr__(self):
        return f"DualElem({self})"


def transport(elem, vals, target):
    """Substitute ring variables by target-ring elements (chart transition map).

    num(vals) = N1/D1 and den(vals) = N2/D2 are evaluated with polynomial
    arithmetic, and the result is canonicalised once as (N1 D2)/(D1 N2); a
    zero image of the denominator raises DivisionByZero.
    """
    n1, d1 = eval_fraction(elem.num, vals, target)
    n2, d2 = eval_fraction(elem.den, vals, target)
    return RingElem(target, n1 * d2, d1 * n2)


def eval_fraction(f, vals, target):
    """f at target-ring elements vals, as polynomials (N, D) with f(vals) = N/D.

    With vals[i] = a_i/b_i and k_i = deg_{x_i} f,
    f(a/b) = sum_e c_e prod a_i^e_i b_i^(k_i - e_i) / prod b_i^k_i.
    The powers of each a_i (reduced modulo the target's relation) and b_i
    are computed once; N is not reduced and N/D is not in lowest terms.
    """
    tower, n = target.tower, len(target.varnames)
    if f.tower != tower:
        raise TowerMismatch("evaluation into a ring over a different tower")
    rel, v = target.relation, target.elim
    one = MPoly.const(tower, n, 1)
    ks = [max(f.degree_in(i), 0) for i in range(f.nvars)]
    apow, bpow = [], []  # bpow[i] is None when b_i = 1
    for val, k in zip(vals, ks):
        pa, pb = [one], None if val.den == one else [one]
        for _ in range(k):
            a = pa[-1] * val.num
            pa.append(a if rel is None else reduce_mod(a, rel, v))
            if pb:
                pb.append(pb[-1] * val.den)
        apow.append(pa)
        bpow.append(pb)
    N = MPoly.const(tower, n, 0)
    for e, c in f.items():
        t = MPoly.const(tower, n, Scalar(tower, c))
        for i, ei in enumerate(e):
            if ei:
                t = t * apow[i][ei]
            if bpow[i] and ei < ks[i]:
                t = t * bpow[i][ks[i] - ei]
        N = N + t
    D = one
    for k, pb in zip(ks, bpow):
        if pb and k:
            D = D * pb[k]
    return N, D
