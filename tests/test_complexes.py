"""Tangent complex, cone partner, and the comparison diagram."""

import pytest

from ktangent import complexes
from ktangent.complexes import (
    alpha,
    alpha_delta_diagram,
    cone_partner,
    deformed_deligne_split,
    sample_forms,
    tangent_deligne,
    unique_preimage,
)
from ktangent.differentials import base_top, d
from ktangent.errors import Mismatch
from ktangent.funcrings import FunctionRing
from ktangent.scalars import QQ, Transcendental, make_tower


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


def test_deformed_split():
    rep = deformed_deligne_split(3, ring3())
    assert rep["status"] == "pass", [c for c in rep["checks"] if c["status"] != "pass"]
    rep = deformed_deligne_split(2, ring3_t())
    assert rep["status"] == "pass"


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
