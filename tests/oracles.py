"""Independent oracles the tests check the library against.

None of this runs in a command.  A cover keeps no chart substitutions;
``substitutions`` builds them here as ring elements, each chart's
coordinates over every U_S, and ``verify_substitutions`` checks that they
compose along every inclusion and that the cubic's transition carries the
second chart's relation to zero.  The Čech oracle reads an engine vector as
honest differential forms, one per chart subset, and checks the cocycle
condition by pulling the forms back along those substitutions: form
arithmetic the engine never does, so it is a second opinion on the engine's
sparse differential.  The dual-number projections split a form over the
dual base into its body and its ε-slope.
"""

from ktangent.cech import CubicCover, ProjectiveCover
from ktangent.differentials import BaseTag, DiffForm, d, pullback, wedge
from ktangent.errors import Mismatch, NoDualBase
from ktangent.funcrings import eval_fraction, transport
from ktangent.mpoly import reduce_mod
from ktangent.scalars import Scalar


# -- chart substitutions


def _coordinates(cover, S):
    """X_j / X_min(S) for every j, as elements of ``cover.ring(S)``."""
    ring, m = cover.ring(S), min(S)
    coord = dict(zip([j for j in range(cover.n + 1) if j != m],
                     map(ring.var, ring.varnames)))
    coord[m] = ring.one()
    return coord


def substitutions(cover):
    """{S: {i: chart i's coordinates as elements of ``cover.ring(S)``}}
    for every chart subset S and every chart i in S."""
    if isinstance(cover, ProjectiveCover):
        out = {}
        for size in range(1, len(cover.charts) + 1):
            for S in cover.subsets(size):
                coord = _coordinates(cover, S)
                out[S] = {i: [coord[j] / coord[i] for j in sorted(coord) if j != i]
                          for i in S}
        return out
    assert isinstance(cover, CubicCover)
    ra, rb = cover.charts
    x, y = ra.var("x"), ra.var("y")
    return {(0,): {0: [x, y]}, (1,): {1: [rb.var("xb"), rb.var("zb")]},
            (0, 1): {0: [x, y], 1: [x / y, y.inv()]}}


def verify_substitutions(cover, subs):
    """Mismatch unless the substitutions compose along every inclusion S in
    T and, on the cubic, the transition carries chart B's relation to
    zero in chart A."""
    nch = len(cover.charts)
    for size in range(1, nch):
        for S in cover.subsets(size):
            for k in range(nch):
                if k in S:
                    continue
                T = tuple(sorted(S + (k,)))
                bridge, ring = subs[T][min(S)], cover.ring(T)
                for i in S:
                    got = [transport(e, bridge, ring) for e in subs[S][i]]
                    if got != subs[T][i]:
                        raise Mismatch(
                            f"substitutions for chart {i} disagree along {S} in {T}")
    if isinstance(cover, CubicCover):
        ra, rb = cover.charts
        pulled, _ = eval_fraction(rb.relation, subs[(0, 1)][1], ra)
        if not reduce_mod(pulled, ra.relation, ra.elim).is_zero():
            raise Mismatch("chart transition does not carry the relation to zero")


# -- Čech cochains as differential forms


def label_form(cover, S, lab, base):
    """One basis label of ``cover`` over U_S as a DiffForm over
    ``cover.ring(S)``."""
    ring = cover.ring(S)
    if isinstance(cover, ProjectiveCover):
        # lab = (a, J, T) is prod (X_j/X_m)^a_j dy_J dt_T, m = min(S)
        a, J, Tset = lab
        coord = _coordinates(cover, S)
        coeff = ring.one()
        for j, y in coord.items():
            if a[j] and j != min(S):
                coeff = coeff * y ** a[j]
        form = DiffForm.of_elem(coeff, base)
        for j in J:
            form = wedge(form, d(coord[j], base))
        for lv in Tset:
            form = wedge(form, DiffForm(ring, base, 1, {(("t", lv),): ring.one()}))
        return form
    assert isinstance(cover, CubicCover)
    if S == (1,):  # chart B: xb^i * zb^j
        i, j = lab
        return DiffForm.of_elem(ring.var("xb") ** i * ring.var("zb") ** j, base)
    i, dl, e = lab  # x^i y^dl g^-e
    x, y = ring.var("x"), ring.var("y")
    g0, g1, g2 = cover.gcoeffs
    g = x ** 3 + x * x * g2 + x * g1 + g0
    return DiffForm.of_elem(x ** i * (y if dl else ring.one()) * g ** (-e), base)


def cochain_forms(engine, k, vec, base):
    """An engine vector at total degree k as per-subset differential forms."""
    basis = engine.total_basis(k)
    cover = engine.cover
    out = {}
    for idx, c in vec.items():
        q, j, S, lab = basis[idx]
        f = label_form(cover, S, lab, base) * Scalar(cover.tower, c)
        cur = out.get(S)
        out[S] = f if cur is None else cur + f
    return out


def cech_cocycle_check(cover, base, q, comp_forms):
    """Alternating pullback sum over every (q+2)-subset; True iff all vanish."""
    subs = substitutions(cover)
    for T in cover.subsets(q + 2):
        total = None
        for pos in range(len(T)):
            S = T[:pos] + T[pos + 1:]
            f = comp_forms.get(S)
            if f is None:
                continue
            if min(S) == min(T):
                img = f
            else:
                img = pullback(f, subs[T][min(S)], cover.ring(T))
            img = img if pos % 2 == 0 else -img
            total = img if total is None else total + img
        if total is not None and not total.is_zero():
            return False
    return True


# -- the body and ε-slope of a form over a dual base


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
