"""Independent oracles the tests check the library against.

None of this runs in a command.  The Čech oracle reads an engine vector as
honest differential forms, one per chart subset, and checks the cocycle
condition by pulling the forms back along the chart substitutions: form
arithmetic the engine never does, so it is a second opinion on the engine's
sparse differential.  The dual-number projections split a form over the
dual base into its body and its ε-slope.
"""

from ktangent.cech import CubicCover, ProjectiveCover
from ktangent.differentials import BaseTag, DiffForm, d, pullback, wedge
from ktangent.errors import NoDualBase
from ktangent.scalars import Scalar


# -- Čech cochains as differential forms


def label_form(cover, S, lab, base):
    """One basis label of ``cover`` over U_S as a DiffForm over the
    intersection's model ring."""
    ring = cover.model(S).ring
    if isinstance(cover, ProjectiveCover):
        # the model ring is chart min(S)'s, whose variables are X_j / X_m for
        # j != m in order: lab = (a, J, T) is prod (X_j/X_m)^a_j dy_J dt_T
        m = min(S)
        a, J, Tset = lab
        coord = dict(zip([j for j in range(cover.n + 1) if j != m],
                         map(ring.var, ring.varnames)))
        coeff = ring.one()
        for j, y in coord.items():
            if a[j]:
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
    for T in cover.subsets(q + 2):
        mdl_t = cover.model(T)
        total = None
        for pos in range(len(T)):
            S = T[:pos] + T[pos + 1:]
            f = comp_forms.get(S)
            if f is None:
                continue
            if min(S) == min(T):
                img = f
            else:
                img = pullback(f, mdl_t.subs[min(S)], mdl_t.ring)
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
