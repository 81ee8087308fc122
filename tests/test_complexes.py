"""Tangent complex, cone partner, and the comparison diagram."""

import pytest

from ktangent import complexes
from ktangent.cech import tangent_rows
from ktangent.complexes import (
    alpha,
    alpha_delta_diagram,
    cone_partner,
    sample_forms,
    tangent_deligne,
    unique_preimage,
)
from ktangent.differentials import DiffForm, base_top, d, dual_relative, wedge
from ktangent.errors import Mismatch
from ktangent.funcrings import DualElem, FunctionRing
from ktangent.scalars import QQ, Transcendental, make_tower

from oracles import eps_part, specialize_eps


def ring3():
    return FunctionRing(QQ, ("x", "y", "z"))


def ring3_t():
    return FunctionRing(make_tower([Transcendental("t")]), ("x", "y", "z"))


def test_tangent_complex_shape():
    r = ring3()
    cx = tangent_deligne(3, r)
    assert list(cx.degrees()) == [1, 2, 3]
    assert cx.terms == {1: (0,), 2: (1,), 3: (2,)}
    x = r.var("x")
    v = (d(x * x) if False else d(x, cx.base),)
    out = cx.apply(2, v)
    assert out[0].is_zero()  # d d x = 0


@pytest.mark.parametrize("p", [1, 2, 3])
def test_the_cech_rows_are_the_tangent_complex(p):
    # the Čech layer computes tangent_deligne from its rows, without building it
    cx = tangent_deligne(p, ring3())
    assert tangent_rows(p) == {i: cx.terms[i][0] for i in cx.degrees()}
    assert cx.base == base_top(cx.ring.tower)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_diagram_passes(p):
    rep = alpha_delta_diagram(p, ring3())
    assert rep["status"] == "pass", [c for c in rep["checks"] if c["status"] != "pass"]


def test_diagram_passes_over_t():
    rep = alpha_delta_diagram(3, ring3_t())
    assert rep["status"] == "pass", [c for c in rep["checks"] if c["status"] != "pass"]


def test_unique_preimage_rejects_off_image():
    r = ring3()
    base = base_top(QQ)
    x, y = r.var("x"), r.var("y")
    p = 2
    good = alpha(p, r, p, (d(x, base) * y,))
    got = unique_preimage(good, p)
    assert got == d(x, base) * y
    with pytest.raises(Mismatch):
        unique_preimage((d(x, base) * 0, d(y, base) * x), p)  # a != d(b)


def test_cone_shape():
    r = ring3()
    cx = cone_partner(3, r)
    assert cx.terms[3] == (3, 2)
    assert cx.terms[4] == (4, 3)


def test_sample_family_size():
    r = ring3()
    fam = sample_forms(r, base_top(QQ), 1)
    # 3 letters x 5 coefficients
    assert len(fam) == 15


@pytest.mark.parametrize("make_ring, q", [
    pytest.param(ring3, 0, id="Q-q0"),
    pytest.param(ring3, 1, id="Q-q1"),
    pytest.param(ring3, 2, id="Q-q2"),
    pytest.param(ring3_t, 0, id="Q(t)-q0"),
    pytest.param(ring3_t, 1, id="Q(t)-q1"),
])
def test_dual_split_projections(make_ring, q):
    # a q-form w over the dual base is body + eps * slope: both projections
    # commute with d, and together they rebuild w
    ring = make_ring()
    dbase = dual_relative(ring.tower)
    x, y = ring.var("x"), ring.var("y")
    duals = [DualElem(ring, x * y + 1, x),
             DualElem(ring, x.inv(), y),
             DualElem(ring, y - 2, x * y)]
    eps = DualElem(ring, ring.zero(), ring.one())
    for u in duals:
        w = d(u, dbase) if q else DiffForm(ring, dbase, 0, {(): u})
        for _ in range(q - 1):
            w = wedge(w, d(duals[0], dbase))
        body, slope = specialize_eps(w), eps_part(w)
        dw = d(w)
        assert specialize_eps(dw) == d(body), str(w)
        assert eps_part(dw) == d(slope), str(w)
        assert (DiffForm(ring, dbase, body.degree, body.terms)
                + DiffForm(ring, dbase, slope.degree, slope.terms) * eps) == w


@pytest.mark.parametrize("p, witness", [(2, "y dx"), (3, "y dx ^ dz")])
def test_a_broken_structure_map_names_its_square(monkeypatch, p, witness):
    # delta_p(x, y) = (-d(x), d(y) + x) breaks only the square at p, and the
    # report names the first sample form on which it fails
    real = complexes.delta

    def broken(p, ring, i, v):
        if i == p:
            x, y = v
            return (-d(x), d(y) + x)
        return real(p, ring, i, v)

    monkeypatch.setattr(complexes, "delta", broken)
    rep = alpha_delta_diagram(p, ring3())
    assert rep["status"] == "fail"
    assert [c for c in rep["checks"] if c["status"] != "pass"] == [
        {"name": f"square at {p}", "status": "fail", "witnesses": [witness]}]
