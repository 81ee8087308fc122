"""Desk-scale Čech cohomology and hypercohomology on small covers.

Covers: the standard affine covers of P^1 and P^2 (``ProjectiveCover``), and
a two-chart cover of a smooth plane cubic in Weierstrass form
(``CubicCover``).  Each cover owns its section model; the engine lays out
cochains from it.  Section spaces are truncated to finite monomial windows;
all linear algebra is exact.  A computation is trusted only when the reported
dimensions agree at two window sizes (``stabilized``).
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .differentials import base_top
from .errors import (
    Mismatch,
    NotStabilized,
    SingularRelation,
    TowerMismatch,
    Unsupported,
    VacuousCheck,
    WindowOverflow,
    WindowTooLarge,
)
from .funcrings import FunctionRing
from .linalg import RowSpan, accumulate, kernel_basis
from .mpoly import MPoly, mp_gcd
from .scalars import Scalar


class TruncationPolicy:
    """Window size D and the stabilization increment delta."""

    __slots__ = ("D", "delta")

    def __init__(self, D=2, delta=2):
        if D < 1 or delta < 1:
            raise Unsupported("truncation policy needs D >= 1 and delta >= 1")
        self.D = D
        self.delta = delta

    def to_dict(self):
        return {"D": self.D, "delta": self.delta}

    def __repr__(self):
        return f"TruncationPolicy(D={self.D}, delta={self.delta})"


MAX_WINDOW_LABELS = 100_000  # labels of O(d) at D + delta that a run may enumerate


def check_window(cover, twist, policy):
    """Refuse a policy whose D + delta window would hold no label of
    O(twist), or more than MAX_WINDOW_LABELS, before any label is
    enumerated: two empty windows agree whatever the cohomology is, so their
    agreement certifies nothing."""
    D = policy.D + policy.delta
    count = cover.window_labels(twist, D)
    if not count:
        raise VacuousCheck(
            f"empty window: O({twist}) at D + delta = {D} has no Čech label, so "
            f"both windows are empty and their agreement shows nothing")
    if count > MAX_WINDOW_LABELS:
        raise WindowTooLarge(
            f"window too large: O({twist}) at D + delta = {D} has {count} Čech labels, "
            f"more than {MAX_WINDOW_LABELS}")


class Sheaf:
    """What to take sections of: Omega^r at a base, or a twist O(d)."""

    __slots__ = ("r", "twist", "base")

    def __init__(self, r, twist, base):
        self.r = r
        self.twist = twist
        self.base = base

    @classmethod
    def forms(cls, r, base=None):
        if r < 0:
            raise Unsupported(f"form degree r must be at least 0, got {r}")
        return cls(r, 0, base)

    @classmethod
    def twisted(cls, dtw):
        return cls(0, dtw, None)

    @classmethod
    def parse(cls, text):
        """The sheaf named ``omegaR`` or ``O(d)``."""
        t = text.strip()
        try:
            if t.startswith("omega"):
                return cls.forms(int(t[5:] or "0"))
            if t.startswith("O(") and t.endswith(")"):
                return cls.twisted(int(t[2:-1]))
        except ValueError:
            pass
        raise Unsupported(f"unknown sheaf {text!r}; use omegaR or O(d)")

    def describe(self):
        if self.twist:
            return f"O({self.twist})"
        return f"Omega^{self.r}"


class Cover:
    """Charts and a section model.  A form over U_S lives in the ring of
    the smallest chart in S (``ring``).  Each subclass owns its section
    model, which is all the engine reads of a label ``lab`` over U_S: the
    window's labels in column order (``labels``), the restriction to U_T and
    the exterior derivative as sparse vectors of raw tower values
    (``restrict``, ``d_label``), the label's text (``render_label``), and the
    window's size in closed form (``window_labels``).  Outside the engine,
    ``delta_r`` drops the labels ``has_base_letters`` names, and the symbol
    cochains place a form in the window with ``form_labels``.  A subclass
    keeps the data its model needs (``n`` on P^n, the cubic's ``gcoeffs``),
    and ``_like`` builds the same kind of cover over a larger tower from
    the charts ``extend_cover`` lifts.  The chart changes live in
    ``restrict`` as exact rewriting of labels; no cover keeps them as ring
    elements.
    """

    __slots__ = ("tower", "charts")

    def __init__(self, tower, charts):
        self.tower = tower
        self.charts = charts

    def subsets(self, size):
        return [tuple(c) for c in combinations(range(len(self.charts)), size)]

    def ring(self, S):
        """The ring a form over U_S lives in: the smallest chart's."""
        return self.charts[min(S)]

    @property
    def qmax(self):
        return len(self.charts) - 1

    def has_base_letters(self, lab):
        """Whether ``lab`` carries a base letter's dt, which forms over the tower kill."""
        return False


class ProjectiveCover(Cover):
    """The standard (n+1)-chart affine cover of P^n, built by ``cover_pn``.

    A section of O(d) over U_S is a homogeneous Laurent monomial X^a with
    sum(a) = d and negative exponents only at indices in S.  A section of
    Omega^r over U_S is a sum of X^a dy_J with sum(a) = 0, where
    y_j = X_j / X_min(S) are the affine coordinates of the smallest chart in
    S; the label (a, J, T) also wedges on the differentials of the base
    letters at the levels T.  Both kinds restrict along inclusions S in T by
    exact rewriting, and the windows are sized so that every restriction and
    every exterior derivative of a window element stays inside the target
    window: the truncated complex is a genuine subcomplex, and its
    differential squares to zero on the nose.

    Each label has an invariant multidegree: the exponent vector of its
    homogeneous-coordinate representation, counting every coordinate
    differential once.  Restrictions, chart changes, and the exterior
    derivative all preserve that vector, so truncating to the window
    min(v) >= -D keeps a genuine subcomplex which splits as a direct sum of
    complete multidegree pieces -- each piece computed exactly.
    """

    __slots__ = ("n",)

    def __init__(self, tower, charts, n):
        super().__init__(tower, charts)
        self.n = n

    def _like(self, tower, charts):
        return ProjectiveCover(tower, charts, self.n)

    def window_labels(self, twist, D):
        """A chart subset S of size s holds the exponent vectors summing to
        the twist with the s entries in S at least -D and the others at
        least 0: C(twist + sD + n, n) of them."""
        n = self.n
        return sum(comb(n + 1, s) * comb(twist + s * D + n, n)
                   for s in range(1, n + 2) if twist + s * D >= 0)

    def labels(self, S, r, twist, D, tlevels):
        n = self.n
        m = min(S)
        out = []
        for tsz in range(len(tlevels) + 1):
            jsz = r - tsz
            if jsz < 0 or jsz > n:
                continue
            jchoices = [tuple(c) for c in combinations(
                [j for j in range(n + 1) if j != m], jsz)]
            tchoices = [tuple(c) for c in combinations(tlevels, tsz)]
            for J in jchoices:
                # legality off S asks for a nonnegative monomial exponent,
                # which in multidegree terms is v_j >= 1 when dy_j is present
                lows = [-D if i in S else (1 if i in J else 0)
                        for i in range(n + 1)]
                for v in self._enum(lows, twist):
                    a = list(v)
                    for j in J:
                        a[j] -= 1
                    a[m] += jsz
                    a = tuple(a)
                    for T in tchoices:
                        out.append((a, J, T))
        out.sort()
        return out

    def _enum(self, lows, total):
        """The integer vectors v >= lows with sum(v) = total."""
        if len(lows) == 1:
            return [(total,)] if total >= lows[0] else []
        return [(v,) + rest for v in range(lows[0], total - sum(lows[1:]) + 1)
                for rest in self._enum(lows[1:], total - v)]

    def has_base_letters(self, lab):
        return bool(lab[2])

    # -- restriction of one basis element along S -> T (one new chart)

    def restrict(self, S, T, lab):
        m, m2 = min(S), min(T)
        if m2 == m:
            return {lab: 1}
        a, J, Tset = lab
        out = {}
        self._pn_expand(a, J, m, m2, 0, tuple(), 1, out)
        return {(av, jv, Tset): c for (av, jv), c in out.items()}

    def _pn_expand(self, a, J, m, m2, k, seq, sgn, out):
        # rewrite dy_J (chart-m coordinates) in chart-m2 coordinates,
        # accumulating Laurent-monomial coefficient shifts into a
        if k == len(J):
            inv = sum(x > y for x, y in combinations(seq, 2))
            key = (a, tuple(sorted(seq)))
            out[key] = out.get(key, 0) + sgn * (-1) ** inv
            return
        j = J[k]
        if j == m2:
            # y_{m2} = 1/w_m, so dy_{m2} = -(X_{m2}/X_m)^2 dw_m
            if m not in seq:
                a2 = self._shift(a, {m2: 2, m: -2})
                self._pn_expand(a2, J, m, m2, k + 1, seq + (m,), -sgn, out)
            return
        # y_j = w_j / w_m: dy_j = (X_{m2}/X_m) dw_j - (X_j X_{m2} / X_m^2) dw_m
        if j not in seq:
            a2 = self._shift(a, {m2: 1, m: -1})
            self._pn_expand(a2, J, m, m2, k + 1, seq + (j,), sgn, out)
        if m not in seq:
            a2 = self._shift(a, {j: 1, m2: 1, m: -2})
            self._pn_expand(a2, J, m, m2, k + 1, seq + (m,), -sgn, out)

    @staticmethod
    def _shift(a, delta):
        v = list(a)
        for i, dv in delta.items():
            v[i] += dv
        return tuple(v)

    # -- exterior derivative of one basis element (within a subset)

    def d_label(self, S, lab):
        a, J, Tset = lab
        if Tset:
            raise Unsupported("exterior derivative with explicit base letters "
                              "is not part of the hypercohomology model")
        m = min(S)
        out = {}
        for j in range(len(a)):
            if j == m or j in J or a[j] == 0:
                continue
            sign = (-1) ** sum(1 for jj in J if jj < j)
            a2 = self._shift(a, {j: -1, m: 1})
            J2 = tuple(sorted(J + (j,)))
            out[(a2, J2, Tset)] = sign * a[j]
        return out

    # -- labels as text, and forms as labels

    def render_label(self, S, lab):
        n = self.n
        m = min(S)
        a, J, Tset = lab
        parts = []
        for j in range(n + 1):
            if j == m or a[j] == 0:
                continue
            nm = _pn_varname(n, m, j)
            parts.append(nm if a[j] == 1 else f"{nm}^{a[j]}")
        body = "*".join(parts) if parts else "1"
        dparts = [f"d{_pn_varname(n, m, j)}" for j in J]
        dparts += [f"d{self.tower.names[lv - 1]}" for lv in Tset]
        where = "{" + ",".join(map(str, S)) + "}"
        if dparts:
            body += "*" + "/\\".join(dparts)
        return f"{where} {body}"

    def form_labels(self, S, w):
        """Window coordinates of a form over the smallest chart of ``S``, as
        raw values of the form's tower, for forms without base letters: each
        monomial coefficient is the label (a, J, ()) of its exponents."""
        F = w.ring.tower
        n = self.n
        m = min(S)
        order = [j for j in range(n + 1) if j != m]
        out = {}
        for key, elem in w.terms.items():
            if any(letter[0] != "v" for letter in key):
                raise Unsupported("only coordinate differentials can be "
                                  "placed in the window")
            J = tuple(order[letter[1]] for letter in key)
            mono = elem.den.monomial()
            if mono is None:
                raise WindowOverflow(f"denominator {elem.den!r} is not a monomial")
            dexp, dc = mono
            idc = F.inv(dc)
            for nexp, nc in elem.num.items():
                a = [0] * (n + 1)
                for i, j in enumerate(order):
                    a[j] = nexp[i] - dexp[i]
                a[m] = -sum(a)
                accumulate(out, (tuple(a), J, ()), F.mul(nc, idc), F)
        return out


class CubicCover(Cover):
    """The cover of a smooth Weierstrass cubic y^2 = g(x) (g monic of degree 3)
    by its charts A: z != 0 and B: y != 0, built by ``cover_plane_curve``.

    Only sections of regular functions (0-forms) are modeled.  Chart A's
    sections are spanned by x^i y^dl, labelled (i, dl, 0); chart B's by
    xb^i zb^j, labelled (i, j); the overlap's by the partial-fraction family
    x^i y^dl g^{-e}, labelled (i, dl, e).  Restriction from B applies the
    transition xb = x/y, zb = 1/y label by label; the relation of B pulls
    back to a multiple of A's whenever g(0) != 0, which ``cover_plane_curve``
    demands.  The partial fractions of x^i g^{-e} are memoised on the cover,
    so every window over it shares them.
    """

    __slots__ = ("gcoeffs", "_pf_memo")

    def __init__(self, tower, charts, gcoeffs):
        super().__init__(tower, charts)
        self.gcoeffs = gcoeffs
        self._pf_memo = {}

    def _like(self, tower, charts):
        return CubicCover(tower, charts, tuple(tower.embed(c) for c in self.gcoeffs))

    def window_labels(self, twist, D):
        """The two charts and the overlap hold 20D + 4 labels."""
        return 20 * D + 4

    def labels(self, S, r, twist, D, tlevels):
        if twist or r != 0:
            raise Unsupported("the curve cover exposes only sections of "
                              "regular functions (0-forms)")
        if S == (1,):
            return [(i, j) for j in (0, 1, 2) for i in range(2 * D + 1 - j)]
        labs = [(i, dl, 0) for i in range(2 * D + 1) for dl in (0, 1)]
        if S == (0,):
            return labs
        return sorted(labs + [(i, dl, e) for e in range(1, D + 1)
                              for i in (0, 1, 2) for dl in (0, 1)])

    def restrict(self, S, T, lab):
        if S == (0,):
            i, dl, _ = lab
            return {(i, dl, 0): 1}
        # xb^i zb^j = x^i y^-m with m = i + j, and y^-m = y^(m mod 2) g^-ceil(m/2)
        i, j = lab
        dl = (i + j) % 2
        pf = self._pf(i, (i + j + dl) // 2)
        return {(i2, dl, e2): c for (i2, e2), c in pf.items()}

    def _pf(self, i, e):
        """Partial fractions of x^i g^{-e}: dict (i', e') -> coefficient."""
        key = (i, e)
        hit = self._pf_memo.get(key)
        if hit is not None:
            return hit
        if e == 0 or i <= 2:
            res = {(i, e): 1}
        else:
            F = self.tower
            g0, g1, g2 = (c.val for c in self.gcoeffs)
            res = {}
            # x^i g^-e = x^(i-3) g^-(e-1) - g2 x^(i-1) g^-e - g1 x^(i-2) g^-e
            #            - g0 x^(i-3) g^-e
            for part, c in ((self._pf(i - 3, e - 1), None),
                            (self._pf(i - 1, e), F.neg(g2)),
                            (self._pf(i - 2, e), F.neg(g1)),
                            (self._pf(i - 3, e), F.neg(g0))):
                for k2, v in part.items():
                    accumulate(res, k2, v if c is None else F.mul(c, v), F)
        self._pf_memo[key] = res
        return res

    def d_label(self, S, lab):
        raise Unsupported("no form modules on the curve cover")

    def render_label(self, S, lab):
        where = "{" + ",".join("AB"[i] for i in S) + "}"
        if S == (1,):
            i, j = lab
            parts = [p for p in (f"xb^{i}" if i > 1 else "xb" * i,
                                 f"zb^{j}" if j > 1 else "zb" * j) if p]
            return where + " " + ("*".join(parts) if parts else "1")
        i, dl, e = lab
        parts = [p for p in (f"x^{i}" if i > 1 else "x" * i, "y" * dl) if p]
        body = "*".join(parts) if parts else "1"
        if e:
            body += f"/g^{e}" if e > 1 else "/g"
        return where + " " + body

    def form_labels(self, S, w):
        raise Unsupported("window coordinates of a form are modeled on the "
                          "projective covers only")


def _pn_varname(n, i, j):
    """Name of the coordinate X_j/X_i on chart i."""
    if n == 1:
        return "z" if i == 0 else "w"
    return {0: "u", 1: "v", 2: "w"}[i] + str(j)


def cover_pn(n, tower):
    """The standard (n+1)-chart affine cover of P^n, n in {1, 2}."""
    if n not in (1, 2):
        raise Unsupported(f"projective cover only modeled for n in {{1, 2}}, got {n}")
    charts = []
    for i in range(n + 1):
        names = tuple(_pn_varname(n, i, j) for j in range(n + 1) if j != i)
        charts.append(FunctionRing(tower, names))
    return ProjectiveCover(tower, charts, n)


def cover_plane_curve(F, tower):
    """Two-chart cover of the plane cubic F = 0, F = Y^2 Z - g_h(X, Z).

    F is a homogeneous cubic MPoly in three variables (X, Y, Z) whose
    dehomogenization at Z has the shape y^2 = g(x) with g monic of degree 3
    and g(0) != 0 (translate x if needed).

    The exact certificate gcd(g, g') = 1 is the cover's smoothness check: it
    proves the affine part smooth, and the point at infinity of a
    Weierstrass cubic is always smooth.  The chart rings are therefore built
    without FunctionRing's sampled probe, which applies only to user-built
    rings.
    """
    if F.tower != tower or F.nvars != 3:
        raise Unsupported("curve equation must be a 3-variable polynomial over the tower")
    c1 = None
    terms = [(mono, Scalar(tower, c)) for mono, c in F.items()]
    for mono, c in terms:
        if mono[1] not in (0, 2) or sum(mono) != 3:
            raise Unsupported("curve equation must be a homogeneous cubic "
                              "Y^2*Z - (cubic in X, Z)")
        if mono[1] == 2:
            if mono != (0, 2, 1):
                raise Unsupported("the Y-part of the cubic must be exactly Y^2*Z")
            c1 = c
    if c1 is None or c1.is_zero():
        raise Unsupported("curve equation needs a Y^2*Z term")
    # normalize so F = Y^2 Z - X^3 - g2 X^2 Z - g1 X Z^2 - g0 Z^3
    gc = {}
    for mono, c in terms:
        if mono[1] == 2:
            continue
        gc[mono[0]] = -(c / c1)
    if gc.get(3, tower.zero()) != tower.one():
        raise Unsupported("the cubic must be monic in X after normalizing Y^2*Z")
    g0 = gc.get(0, tower.zero())
    g1 = gc.get(1, tower.zero())
    g2 = gc.get(2, tower.zero())
    # exact smoothness: y^2 = g(x) is singular iff g has a repeated root
    gx = MPoly.const(tower, 1, 0)
    for k, c in ((0, g0), (1, g1), (2, g2), (3, tower.one())):
        gx = gx + MPoly.const(tower, 1, c) * MPoly.variable(tower, 1, 0) ** k
    if not mp_gcd(gx, gx.deriv(0)).is_constant():
        raise SingularRelation("the cubic has a repeated root: the curve is singular")
    if g0.is_zero():
        raise Unsupported("need g(0) != 0 for the second chart; translate x first")

    ra = FunctionRing(tower, ("x", "y"), _chart_a_relation(tower, g0, g1, g2),
                      smooth_check=False)
    rb = FunctionRing(tower, ("xb", "zb"), _chart_b_relation(tower, g0, g1, g2),
                      smooth_check=False)
    return CubicCover(tower, [ra, rb], (g0, g1, g2))


def _chart_a_relation(tower, g0, g1, g2):
    x = MPoly.variable(tower, 2, 0)
    y = MPoly.variable(tower, 2, 1)
    c = lambda v: MPoly.const(tower, 2, v)
    return y * y - x ** 3 - c(g2) * x * x - c(g1) * x - c(g0)


def _chart_b_relation(tower, g0, g1, g2):
    # F / Y^3 with xb = X/Y, zb = Z/Y, scaled monic in zb:
    # zb^3 + (g1/g0) xb zb^2 + (g2/g0) xb^2 zb - zb/g0 + xb^3/g0
    xb = MPoly.variable(tower, 2, 0)
    zb = MPoly.variable(tower, 2, 1)
    c = lambda v: MPoly.const(tower, 2, v)
    inv = tower.one() / g0
    return (zb ** 3 + c(g1 * inv) * xb * zb * zb + c(g2 * inv) * xb * xb * zb
            - c(inv) * zb + c(inv) * xb ** 3)


def extend_cover(cover, tower):
    """The same cover with its scalars embedded into a tower that extends its own.

    Embedding scalars is an injective ring map, so the gcd(g, g') = 1
    certificate proved over ``cover.tower`` still holds over ``tower``: the
    chart rings and their relations are lifted, not rebuilt or checked again.
    A tower that does not extend the cover's raises TowerMismatch.
    """
    if not cover.tower.is_prefix_of(tower):
        raise TowerMismatch("extend_cover: the tower does not extend the cover's")
    charts = [FunctionRing(tower, r.varnames,
                           None if r.relation is None else r.relation.over(tower),
                           smooth_check=False) for r in cover.charts]
    return cover._like(tower, charts)


def weierstrass_cubic(tower, a, b, c):
    """The homogeneous cubic Y^2 Z - X^3 - a X^2 Z - b X Z^2 - c Z^3 of
    y^2 = x^3 + a x^2 + b x + c."""
    X = MPoly.variable(tower, 3, 0)
    Y = MPoly.variable(tower, 3, 1)
    Z = MPoly.variable(tower, 3, 2)
    k = lambda v: MPoly.const(tower, 3, v)
    return Y * Y * Z - X ** 3 - k(a) * X * X * Z - k(b) * X * Z * Z - k(c) * Z ** 3


# ---------------------------------------------------------------------------
# the engine: truncated total complex of a (possibly one-row) double complex


class CechEngine:
    """Bases and exact differentials at one window size.

    ``rows`` maps a complex degree j to the form degree of its term; a bare
    sheaf is the single row {0: r}.  Total degree k holds the blocks
    (q = k - j, j); the total differential is the Čech differential plus
    (-1)^q times the exterior derivative.

    ``inner`` is an engine of the same complex at a smaller window, whose
    echelon forms this engine's extend (see ``_span``).
    """

    def __init__(self, cover, rows, base, twist, D, inner=None):
        self.cover = cover
        self.inner = inner
        self.rows = dict(sorted(rows.items()))
        self.D = D
        tower = cover.tower
        if base.eps != "none":
            raise Unsupported("cohomology over a dual-number base is not modeled")
        js = list(self.rows)
        for a, b in zip(js, js[1:]):
            if b != a + 1 or self.rows[b] != self.rows[a] + 1:
                raise Unsupported("rows must be consecutive with form degree "
                                  "rising by one")
        if twist and (len(js) > 1 or self.rows[js[0]] != 0):
            raise Unsupported("twists are modeled for function sheaves only")
        self.tlevels = tuple(lv for lv in tower.transcendental_levels()
                             if lv > base.level)
        if len(js) > 1 and self.tlevels:
            raise Unsupported("hypercohomology is modeled at the full base only")
        self._total = {}
        for j, r in self.rows.items():
            for q in range(cover.qmax + 1):
                self._total.setdefault(q + j, []).extend(
                    (q, j, S, lab) for S in cover.subsets(q + 1)
                    for lab in cover.labels(S, r, twist, D, self.tlevels))
        self._index = {}
        self._spans = {}
        self._reps = {}

    # -- total-degree bases and differential columns

    def total_basis(self, k):
        """The labels (q, j, S, lab) of total degree k, in column order."""
        return self._total.get(k, [])

    def index(self, k):
        """Position of each label in ``total_basis(k)``."""
        hit = self._index.get(k)
        if hit is None:
            hit = self._index[k] = {b: i for i, b in enumerate(self.total_basis(k))}
        return hit

    def column(self, k, q, j, S, lab):
        """The total differential of one basis element, as a sparse vector."""
        index = self.index(k + 1)
        F = self.cover.tower
        col = {}
        for knew in range(len(self.cover.charts)):
            if knew in S:
                continue
            T = tuple(sorted(S + (knew,)))
            sgn = (-1) ** T.index(knew)
            for lab2, c in self.cover.restrict(S, T, lab).items():
                idx = index.get((q + 1, j, T, lab2))
                if idx is None:
                    raise WindowOverflow(
                        f"restriction image {lab2} missed the window of {T}")
                accumulate(col, idx, c if sgn > 0 else F.neg(c), F)
        if j + 1 in self.rows:
            dsgn = (-1) ** q
            for lab2, c in self.cover.d_label(S, lab).items():
                idx = index.get((q, j + 1, S, lab2))
                if idx is None:
                    raise WindowOverflow(
                        f"derivative image {lab2} missed the window of {S}")
                accumulate(col, idx, c if dsgn > 0 else F.neg(c), F)
        return col

    def columns(self, k):
        return [self.column(k, *b) for b in self.total_basis(k)]

    def apply(self, k, vec):
        """d_k of a sparse cochain of total degree k."""
        basis = self.total_basis(k)
        F = self.cover.tower
        out = {}
        for idx, c in vec.items():
            for tgt, cf in self.column(k, *basis[idx]).items():
                accumulate(out, tgt, F.mul(c, cf), F)
        return out

    def _span(self, k):
        """Echelon form of d_k's columns, eliminated once per degree.

        ``express_span(k)`` keeps the tracked span of its kernel computation
        here; a degree it has not reached is eliminated untracked.  Over an
        ``inner`` engine the span starts from the inner echelon form, its
        rows carried to this engine's labels, and only the columns of labels
        the inner window lacks are built and eliminated: each inner column
        lands in the inner window (else the inner engine raised
        WindowOverflow), so it is this engine's column of the same label, and
        an increasing label map keeps every carried pivot the least key of
        its row, with coefficient 1.
        """
        span = self._spans.get(k)
        if span is None:
            span = self._spans[k] = RowSpan(self.cover.tower)
            basis, old = self.total_basis(k), {}
            if self.inner is not None:
                old = self.inner.index(k)
                pos = self._carry(k + 1)
                span.rows = {pos[p]: {pos[i]: c for i, c in row.items()}
                             for p, row in self.inner._span(k).rows.items()}
            new = [b for b in basis if b not in old]
            if len(basis) - len(new) != len(old):
                raise Mismatch(f"the smaller window has labels of degree {k} "
                               "that the larger one lacks")
            for b in new:
                span.add(self.column(k, *b))
        return span

    def _carry(self, k):
        """The position in ``total_basis(k)`` of each inner label of degree
        k, in inner order; Mismatch unless each is present and they rise."""
        index = self.index(k)
        pos = [index.get(b) for b in self.inner.total_basis(k)]
        if None in pos or any(a >= b for a, b in zip(pos, pos[1:])):
            raise Mismatch(f"the smaller window's labels of degree {k} are not "
                           "an ordered part of the larger window's")
        return pos

    def degree_range(self):
        js = list(self.rows)
        return range(js[0], js[-1] + self.cover.qmax + 1)

    def dim_at(self, k):
        nk = len(self.total_basis(k))
        if nk == 0:
            return 0
        return nk - self._span(k).rank - self._span(k - 1).rank

    def representatives(self, k):
        """A basis of cocycles at total degree k, independent mod coboundaries."""
        return self.express_span(k)[1]

    def express_span(self, k):
        """Tracked span of coboundaries plus chosen representatives, cached.

        The coboundary rows are those of ``_span(k - 1)`` and carry no tag,
        so solve() against the span writes a cocycle as (image part) +
        (combination of representatives) and returns only the ("rep", i)
        coordinates, which are the class coordinates.  Called in ascending
        degree before any rank, the one elimination of d_k's columns that
        finds the kernel also becomes ``_span(k)``.
        """
        hit = self._reps.get(k)
        if hit is None:
            F = self.cover.tower
            span = RowSpan(F, track=True)
            span.rows.update(self._span(k - 1).rows)
            reps = []
            echelon = RowSpan(F, track=True)
            for vec in kernel_basis(self.columns(k), F, echelon):
                if span.add(vec, ("rep", len(reps))) is not None:
                    reps.append(vec)
            self._spans.setdefault(k, echelon)
            hit = self._reps[k] = (span, reps)
        return hit

    def render_vector(self, k, vec):
        basis = self.total_basis(k)
        render = self.cover.tower.render
        bits = []
        for idx in sorted(vec):
            q, j, S, lab = basis[idx]
            bits.append(f"({render(vec[idx])})*{self.cover.render_label(S, lab)}")
        return " + ".join(bits) if bits else "0"


# ---------------------------------------------------------------------------
# reports


class CohomologyReport:
    """Exact dimensions at two window sizes, with representatives at the first."""

    __slots__ = ("kind", "dims", "dims_again", "stabilized", "policy",
                 "reps", "reps_rendered", "engine")

    def __init__(self, kind, dims, dims_again, policy, reps, reps_rendered, engine):
        self.kind = kind
        self.dims = dims
        self.dims_again = dims_again
        self.stabilized = dims == dims_again
        self.policy = policy
        self.reps = reps
        self.reps_rendered = reps_rendered
        self.engine = engine

    def dim(self, k):
        return self.dims.get(k, 0)

    def to_dict(self):
        return {
            "kind": self.kind,
            "dims": {str(k): v for k, v in self.dims.items()},
            "dims_at_larger_window": {str(k): v for k, v in self.dims_again.items()},
            "stabilized": self.stabilized,
            "policy": self.policy.to_dict(),
            "representatives": {str(k): v for k, v in self.reps_rendered.items()},
        }


def _run(cover, rows, base, twist, policy, require_stable, with_reps, kind):
    """Dimensions at D and D + delta, and representatives at D.  The D + delta
    engine starts each degree from the D engine's echelon form and
    eliminates only the columns of labels outside the D window."""
    lo = CechEngine(cover, rows, base, twist, policy.D)
    hi = CechEngine(cover, rows, base, twist, policy.D + policy.delta, inner=lo)
    # in ascending degree, so each of lo's degrees is eliminated once
    found = {k: lo.representatives(k) for k in lo.degree_range()} if with_reps else {}
    dims = {k: lo.dim_at(k) for k in lo.degree_range()}
    dims_again = {k: hi.dim_at(k) for k in hi.degree_range()}
    for k, vecs in found.items():
        if len(vecs) != dims[k]:
            raise Mismatch(f"rank bookkeeping disagrees at degree {k}: "
                           f"{len(vecs)} representatives for dimension {dims[k]}")
    reps = {k: vecs for k, vecs in found.items() if vecs}
    rendered = {k: [lo.render_vector(k, v) for v in vecs] for k, vecs in reps.items()}
    report = CohomologyReport(kind, dims, dims_again, policy, reps, rendered, lo)
    if require_stable and not report.stabilized:
        raise NotStabilized(f"dimensions moved: {dims} at D={policy.D} vs "
                            f"{dims_again} at D={policy.D + policy.delta}")
    return report


def sheaf_cohomology(cover, sheaf, policy, require_stable=False, with_reps=True):
    base = sheaf.base if sheaf.base is not None else base_top(cover.tower)
    return _run(cover, {0: sheaf.r}, base, sheaf.twist, policy,
                require_stable, with_reps, "sheaf")


def hypercohomology(cover, cx, policy, require_stable=False, with_reps=True):
    rows = {}
    for j in cx.degrees():
        if len(cx.terms[j]) != 1:
            raise Unsupported("hypercohomology is modeled for one-term rows only")
        rows[j] = cx.terms[j][0]
    if cx.base != base_top(cover.tower):
        raise Unsupported("the sheaf-level complex differentiates over the "
                          "full tower; its base must be the top base")
    return _run(cover, rows, cx.base, 0, policy, require_stable, with_reps, "hyper")


def verify_splitting(p, cover, policy):
    """dim H^(2p) of the tangent complex against the sum of its graded pieces.

    Also compares at total degree 2p-1.
    """
    from .complexes import tangent_deligne

    template = tangent_deligne(p, cover.charts[0])
    hyper = hypercohomology(cover, template, policy, require_stable=True,
                            with_reps=False)
    parts = []
    for i in range(1, p + 1):
        parts.append(sheaf_cohomology(cover, Sheaf.forms(i - 1), policy,
                                      require_stable=True, with_reps=False))
    checks = []
    for k in (2 * p, 2 * p - 1):
        lhs = hyper.dim(k)
        terms = {f"H^{k - i}(Omega^{i - 1})": parts[i - 1].dim(k - i)
                 for i in range(1, p + 1)}
        rhs = sum(terms.values())
        checks.append({
            "name": f"total degree {k}",
            "status": "pass" if lhs == rhs else "fail",
            "hyper": lhs,
            "sum": rhs,
            "pieces": terms,
        })
    status = "pass" if all(c["status"] == "pass" for c in checks) else "fail"
    return {"name": f"splitting p={p}", "status": status, "checks": checks,
            "stabilized": hyper.stabilized and all(x.stabilized for x in parts)}

