"""Exterior algebra over function rings, relative to a choice of base.

A BaseTag says which part of the scalar tower is treated as constants:
``level`` k kills d(g) for every generator at tower level <= k, while the
transcendental generators above k contribute genuine letters d(g).  Ring
variables always contribute letters, except a relation's eliminated
variable, whose differential expands through implicit differentiation.
Dual-number coefficients come in two flavors: ``eps="base"`` differentiates
over the dual base (d(eps) = 0) and ``eps="free"`` keeps d(eps) as an extra
letter, with eps * d(eps) = 0 because eps squares to zero.

Forms are dicts from sorted letter tuples to coefficients; structural
equality is semantic equality.  A form drops its zero coefficients, and
every coefficient is a canonical RingElem or DualElem, so two forms over
the same ring, base and degree are equal exactly when their difference is
the zero form: ``==`` decides it without building the difference, which
the package builds only to report it.  Scaling by the int 1 or -1 returns
the form or its negation and multiplies no coefficient.

The letters of a base, and the d and dlog of a ring element over it, are
computed once per ring and kept in the ring's ``memo``; a dual element's
d and dlog are assembled from the entries of its body and slope.  Memo
entries are shared, so nothing here changes a coefficient dict or a
form's ``terms`` in place.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    BaseIncompatible,
    DivisionByZero,
    Mismatch,
    NoDualBase,
    NonUnitBody,
    NotAnEnlargement,
    RingMismatch,
)
from .funcrings import DualElem, RingElem, transport
from .mpoly import MPoly
from .scalars import Scalar


class BaseTag:
    """Base of the derivation: tower level held constant, plus the eps mode."""

    __slots__ = ("level", "eps")

    def __init__(self, level, eps="none"):
        if eps not in ("none", "free", "base"):
            raise ValueError(f"bad eps mode {eps!r}")
        self.level = level
        self.eps = eps

    def is_dual(self):
        return self.eps != "none"

    def __eq__(self, other):
        return (isinstance(other, BaseTag) and self.level == other.level
                and self.eps == other.eps)

    def __hash__(self):
        return hash((self.level, self.eps))

    def __repr__(self):
        if self.eps == "none":
            return f"BaseTag(level={self.level})"
        return f"BaseTag(level={self.level}, eps={self.eps})"


def base_q():
    """Differentiate over Q: every tower generator gets a letter."""
    return BaseTag(0)


def base_level(k):
    return BaseTag(k)


def base_top(tower):
    """Differentiate over the whole tower (the analytic-model base)."""
    return BaseTag(tower.num_levels)


def absolute_on_dual(level=0):
    """d on A[eps] with eps free: d(eps) is a letter and eps*d(eps) = 0."""
    return BaseTag(level, "free")


def dual_relative(tower):
    """d on A[eps] over (base tower)[eps]: dual coefficients, d(eps) = 0."""
    return BaseTag(tower.num_levels, "base")


# letters: ("v", var_index) | ("t", tower_level) | ("e",)

def letters_of(ring, base):
    """The letters of (ring, base), in the order that sorts letter tuples."""
    return ring.remember(("letters", base), _letters, ring, base)[0]


def _letter_sort_key(ring, base):
    """{letter: its position in letters_of(ring, base)}."""
    return ring.remember(("letters", base), _letters, ring, base)[1]


def _letters(ring, base):
    letters = []
    for i in range(len(ring.varnames)):
        if i != ring.elim:
            letters.append(("v", i))
    for lv in ring.tower.transcendental_levels():
        if lv > base.level:
            letters.append(("t", lv))
    if base.eps == "free":
        letters.append(("e",))
    return tuple(letters), {l: i for i, l in enumerate(letters)}


def letter_name(ring, letter):
    if letter[0] == "v":
        return "d" + ring.varnames[letter[1]]
    if letter[0] == "t":
        return "d" + ring.tower.names[letter[1] - 1]
    return "deps"


class DiffForm:
    """A differential form of fixed degree over (ring, base)."""

    __slots__ = ("ring", "base", "degree", "terms")

    def __init__(self, ring, base, degree, terms):
        """Coefficients follow the base: a RingElem is lifted to a DualElem
        over a dual base, a DualElem over a plain base is refused, zeros are
        dropped, and eps * d(eps) = 0 keeps only the body under d(eps)."""
        self.ring = ring
        self.base = base
        self.degree = degree
        dual, free = base.is_dual(), base.eps == "free"
        clean = {}
        for key, c in terms.items():
            if isinstance(c, DualElem):
                if not dual:
                    raise NoDualBase("dual coefficient over a plain base")
                if free and ("e",) in key and not c.slope.is_zero():
                    c = DualElem(ring, c.body)
            elif dual:
                c = DualElem(ring, c)
            if not c.is_zero():
                clean[key] = c
        self.terms = clean

    # -- constructors

    @classmethod
    def zero(cls, ring, base, degree=0):
        return cls(ring, base, degree, {})

    @classmethod
    def of_elem(cls, elem, base):
        """Wrap a ring element (degree-0 form)."""
        return cls(elem.ring, base, 0, {(): elem})

    def _check(self, other):
        if other.ring is not self.ring and other.ring != self.ring:
            raise RingMismatch("forms over different rings")
        if other.base is not self.base and other.base != self.base:
            raise BaseIncompatible(f"forms over {self.base!r} and {other.base!r}")

    def __add__(self, other):
        if not isinstance(other, DiffForm):
            return NotImplemented
        self._check(other)
        if self.degree != other.degree:
            raise Mismatch("adding forms of different degree")
        out = dict(self.terms)
        for k, c in other.terms.items():
            _accumulate(out, k, 1, c)
        return DiffForm(self.ring, self.base, self.degree, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return DiffForm(self.ring, self.base, self.degree,
                        {k: -c for k, c in self.terms.items()})

    def __mul__(self, c):
        if type(c) is int and (c == 1 or c == -1):
            return self if c == 1 else -self
        if isinstance(c, (int, Fraction, Scalar)):
            c = self.ring.const(c)
        if isinstance(c, DualElem) and not self.base.is_dual():
            raise NoDualBase("dual scalar on a plain-base form")
        return DiffForm(self.ring, self.base, self.degree,
                        {k: v * c for k, v in self.terms.items()})

    __rmul__ = __mul__

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, DiffForm):
            return NotImplemented
        return (self.ring == other.ring and self.base == other.base
                and self.degree == other.degree and self.terms == other.terms)

    def __hash__(self):
        return hash((self.degree, frozenset(self.terms.keys())))

    def coeff(self, key):
        z = self.ring.zero()
        if self.base.is_dual():
            z = DualElem(self.ring, z)
        return self.terms.get(tuple(key), z)

    def __str__(self):
        if not self.terms:
            return "0"
        order = _letter_sort_key(self.ring, self.base)
        bits = []
        for key in sorted(self.terms, key=lambda k: tuple(order[l] for l in k)):
            c = self.terms[key]
            cs = str(c)
            if any(ch in cs for ch in "+-*/ ") and not (cs.startswith("(") and cs.endswith(")")):
                cs = f"({cs})"
            mono = " ^ ".join(letter_name(self.ring, l) for l in key)
            bits.append(f"{cs} {mono}".strip())
        return "  +  ".join(bits)

    def __repr__(self):
        return f"DiffForm<{self.degree}>({self})"


def _merge_letters(order, k1, k2):
    """Merge two sorted letter tuples; return (sign, merged) or (0, None)."""
    i, j = 0, 0
    out = []
    sign = 1
    while i < len(k1) and j < len(k2):
        a, b = order[k1[i]], order[k2[j]]
        if a == b:
            return 0, None
        if a < b:
            out.append(k1[i])
            i += 1
        else:
            # k2[j] hops over the remaining letters of k1
            if (len(k1) - i) % 2 == 1:
                sign = -sign
            out.append(k2[j])
            j += 1
    out.extend(k1[i:])
    out.extend(k2[j:])
    return sign, tuple(out)


def _accumulate(out, key, sign, c):
    """Add sign * c to the coefficient of key in out."""
    if sign < 0:
        c = -c
    s = out.get(key)
    out[key] = c if s is None else s + c


def wedge(a, b):
    """Exterior product of forms over the same (ring, base)."""
    a._check(b)
    order = _letter_sort_key(a.ring, a.base)
    out = {}
    for k1, c1 in a.terms.items():
        for k2, c2 in b.terms.items():
            sign, key = _merge_letters(order, k1, k2)
            if sign:
                _accumulate(out, key, sign, c1 * c2)
    return DiffForm(a.ring, a.base, a.degree + b.degree, out)


# -- exterior derivative ----------------------------------------------------

def _delim_parts(ring, base):
    """Expansion of d(eliminated var) as {letter: RingElem} via implicit diff."""
    rel, v = ring.relation, ring.elim
    f_v = RingElem(ring, rel.deriv(v))
    parts = {}
    for letter in letters_of(ring, base):
        if letter[0] == "v":
            p = RingElem(ring, rel.deriv(letter[1]))
        elif letter[0] == "t":
            p = RingElem(ring, rel.coeff_deriv(letter[1]))
        else:
            continue
        if p.is_zero():
            continue
        parts[letter] = -(p / f_v)
    return parts


def _d_mpoly(ring, base, P):
    """d of a polynomial as {letter: (num, den)}, plain polynomials with
    nothing reduced; the chain rule through the eliminated variable folds
    into the pair."""
    out = {}
    one = MPoly.const(ring.tower, len(ring.varnames), 1)
    delim = (ring.remember(("delim", base), _delim_parts, ring, base)
             if ring.relation is not None else None)
    p_elim = P.deriv(ring.elim) if ring.elim is not None else None
    for letter in letters_of(ring, base):
        if letter[0] == "v":
            c = P.deriv(letter[1])
        elif letter[0] == "t":
            c = P.coeff_deriv(letter[1])
        else:
            continue
        den = one
        if delim is not None and letter in delim and not p_elim.is_zero():
            e = delim[letter]
            c, den = c * e.den + p_elim * e.num, e.den
        if not c.is_zero():
            out[letter] = (c, den)
    return out


def _quotient_terms(f, base):
    """d(N/D) as {letter: (top, pd)} with d(f)[letter] = top / (pd * D^2):
    top = N'D - ND' with the partial denominators of N' and D' multiplied
    in, pd their product; nothing is reduced."""
    ring, N, D = f.ring, f.num, f.den
    dn = _d_mpoly(ring, base, N)
    dd = _d_mpoly(ring, base, D)
    out = {}
    for letter in letters_of(ring, base):
        a, b = dn.get(letter), dd.get(letter)
        if b is None:
            if a is not None:
                out[letter] = (a[0] * D, a[1])
        elif a is None:
            out[letter] = (-(N * b[0]), b[1])
        else:
            (n1, d1), (n2, d2) = a, b
            out[letter] = (n1 * D * d2 - N * n2 * d1, d1 * d2)
    return out


def _d_ringelem(f, base):
    """d(f) as {letter: RingElem}, computed once per ring (``_d_coeffs``)."""
    return f.ring.remember(("d", f, base), _d_coeffs, f, base)


def _dlog_ringelem(f, base):
    """dlog(f) as {letter: RingElem}, computed once per ring (``_dlog_coeffs``)."""
    return f.ring.remember(("dlog", f, base), _dlog_coeffs, f, base)


def _d_coeffs(f, base):
    """Quotient rule; returns {letter: RingElem}, each canonicalised once."""
    ring = f.ring
    DD = f.den * f.den
    out = {}
    for letter, (top, pd) in _quotient_terms(f, base).items():
        c = RingElem(ring, top, pd * DD)
        if not c.is_zero():
            out[letter] = c
    return out


def _dlog_coeffs(f, base):
    """dlog of a unit N/D as {letter: RingElem}: (N'D - ND')/(DN), each
    coefficient canonicalised once."""
    ring, N, D = f.ring, f.num, f.den
    if ring.relation is not None and N.degree_in(ring.elim) > 0:
        # 1/N must be rationalized modulo the relation: once, through inv
        g = f.inv()
        scale, den = g.num, D * D * g.den
    else:
        scale, den = MPoly.const(ring.tower, len(ring.varnames), 1), D * N
    out = {}
    for letter, (top, pd) in _quotient_terms(f, base).items():
        c = RingElem(ring, top * scale, pd * den)
        if not c.is_zero():
            out[letter] = c
    return out


def d(obj, base=None):
    """Exterior derivative of a ring element, dual element, or form."""
    if isinstance(obj, DiffForm):
        if base is not None and base != obj.base:
            raise BaseIncompatible("explicit base disagrees with the form's base")
        return _d_form(obj)
    if base is None:
        raise TypeError("d of a ring element needs a base")
    ring = obj.ring
    if isinstance(obj, RingElem):
        if base.is_dual():
            obj = DualElem(ring, obj)
        else:
            return DiffForm(ring, base, 1,
                            {(letter,): c for letter, c in _d_ringelem(obj, base).items()})
    if not isinstance(obj, DualElem):
        raise TypeError(f"cannot differentiate {obj!r}")
    if not base.is_dual():
        raise NoDualBase("dual element differentiated over a plain base")
    return _dual_form(ring, base, _d_ringelem(obj.body, base),
                      _d_ringelem(obj.slope, base), obj.slope)


def _dual_form(ring, base, body, slope, deps):
    """The 1-form sum of (body[l] + eps*slope[l]) dl, plus deps d(eps) when
    eps is free."""
    zero = ring.zero()
    terms = {(letter,): DualElem(ring, body.get(letter, zero), slope.get(letter, zero))
             for letter in body.keys() | slope.keys()}
    if base.eps == "free" and not deps.is_zero():
        terms[(("e",),)] = DualElem(ring, deps)
    return DiffForm(ring, base, 1, terms)


def _d_form(w):
    ring, base = w.ring, w.base
    order = _letter_sort_key(ring, base)
    out = {}
    for key, c in w.terms.items():
        for letters, cc in d(c, base).terms.items():
            sign, k = _merge_letters(order, letters, key)
            if sign:
                _accumulate(out, k, sign, cc)
    return DiffForm(ring, base, w.degree + 1, out)


def dlog(f, base):
    """d(f)/f for a unit f (ring or dual element).

    For a dual f = b + eps*s, dlog(f) = dlog(b) + eps*d(s/b); with eps free
    the d(eps) letter carries s/b (eps*d(eps) = 0).
    """
    ring = f.ring
    if isinstance(f, RingElem):
        if f.is_zero():
            raise DivisionByZero("inverse of zero")
        if not base.is_dual():
            return DiffForm(ring, base, 1,
                            {(letter,): c for letter, c in _dlog_ringelem(f, base).items()})
        f = DualElem(ring, f)
    if not isinstance(f, DualElem):
        raise TypeError(f"cannot take dlog of {f!r}")
    if not base.is_dual():
        raise NoDualBase("dual element differentiated over a plain base")
    if f.body.is_zero():
        raise NonUnitBody("dual number with zero body has no inverse")
    q = f.slope if f.slope.is_zero() else f.slope / f.body
    return _dual_form(ring, base, _dlog_ringelem(f.body, base), _d_ringelem(q, base), q)


def contract_deps(w):
    """Coefficient of the trailing d(eps), with eps then set to 0.

    Letters sort with d(eps) last, so stored coefficients already carry the
    sign of commuting d(eps) to the end of the word.
    """
    if w.base.eps != "free":
        raise NoDualBase("contract_deps needs a free-eps base")
    out = {key[:-1]: c.body for key, c in w.terms.items() if key and key[-1] == ("e",)}
    return DiffForm(w.ring, BaseTag(w.base.level), max(w.degree - 1, 0), out)


def specialize_eps(w):
    """Set eps = 0 (and drop d(eps) terms): lands over the plain base."""
    if not w.base.is_dual():
        return w
    return _plain_part(w, "body")


def eps_part(w):
    """The slope component: w = specialize(w) + eps * eps_part(w) (no d(eps) terms)."""
    if not w.base.is_dual():
        raise NoDualBase("eps_part of a plain form")
    return _plain_part(w, "slope")


def _plain_part(w, part):
    """The body or slope of each coefficient off d(eps), over the plain base."""
    out = {key: getattr(c, part) for key, c in w.terms.items() if ("e",) not in key}
    return DiffForm(w.ring, BaseTag(w.base.level), w.degree, out)


def base_change(w, to):
    """Enlarge the base: letters d(g) with g now in the base are killed."""
    frm = w.base
    if to.eps != frm.eps or to.level < frm.level:
        raise NotAnEnlargement(f"cannot change base {frm!r} -> {to!r}")
    out = {}
    for key, c in w.terms.items():
        if any(l[0] == "t" and l[1] <= to.level for l in key):
            continue
        out[key] = c
    return DiffForm(w.ring, to, w.degree, out)


def base_change_kernel_letters(ring, frm, to):
    """The letters annihilated by base_change, rendered as strings."""
    if to.eps != frm.eps or to.level < frm.level:
        raise NotAnEnlargement(f"cannot change base {frm!r} -> {to!r}")
    out = []
    for lv in ring.tower.transcendental_levels():
        if frm.level < lv <= to.level:
            out.append(letter_name(ring, ("t", lv)))
    return out


def pullback(w, subst, target_ring):
    """Transport a form along a chart substitution (source var -> target elem).

    ``subst`` lists an image for every source variable, eliminated one
    included (needed to transport coefficients).
    """
    base = w.base
    if target_ring.tower != w.ring.tower:
        raise RingMismatch("pullback between different towers")
    letter_imgs = {}
    for letter in letters_of(w.ring, base):
        if letter[0] == "v":
            letter_imgs[letter] = d(subst[letter[1]], base)
        else:
            letter_imgs[letter] = DiffForm(target_ring, base, 1, {(letter,): target_ring.one()})
    out = DiffForm.zero(target_ring, base, w.degree)
    for key, c in w.terms.items():
        if isinstance(c, DualElem):
            cc = DualElem(target_ring,
                          transport(c.body, subst, target_ring),
                          transport(c.slope, subst, target_ring))
        else:
            cc = transport(c, subst, target_ring)
        term = DiffForm(target_ring, base, 0, {(): cc})
        for letter in key:
            term = wedge(term, letter_imgs[letter])
        out = out + term
    return out
