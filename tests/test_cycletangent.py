"""Formal tangent spaces, the two comparison maps, and symbol cochains."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from ktangent import cech, cycletangent
from ktangent.cech import TruncationPolicy, cover_pn, cover_plane_curve, weierstrass_cubic
from ktangent.cycletangent import (
    complex_model,
    composed_infinitesimal,
    delta_r,
    formal_tangent_chow,
    lambda_factorization_check,
    symbol_cochain,
)
from ktangent.errors import NotNumberField, Unsupported
from ktangent.milnor import EpsSymbol
from ktangent.scalars import QQ, Algebraic, Transcendental, make_tower

POL = TruncationPolicy(2, 2)


def curve(tower=QQ):
    # y^2 z = x^3 - x z^2 + z^3
    return cover_plane_curve(weierstrass_cubic(tower, 0, -1, 1), tower)


# -- the tangent space ---------------------------------------------------------


def test_tangent_space_dimensions():
    assert formal_tangent_chow(cover_pn(1, QQ), 1, POL).dim(1) == 0
    assert formal_tangent_chow(curve(), 1, POL).dim(1) == 1
    assert formal_tangent_chow(cover_pn(2, QQ), 2, POL).dim(2) == 0


def test_tangent_space_stabilizes():
    rep = formal_tangent_chow(curve(), 1, POL)
    assert rep.stabilized
    assert rep.reps_rendered[1] == ["(1)*{A,B} x^2*y/g"]


# -- the relative-to-absolute comparison ---------------------------------------


def test_comparison_is_identity_over_the_rationals():
    rep = delta_r(curve(), 1, POL)
    assert rep.verdict == "injective"
    assert rep.matrix == [[Fraction(1)]]
    assert rep.kernel_dim == 0
    assert rep.kernel_letters == []


def test_comparison_is_identity_over_number_fields():
    tw = make_tower([Algebraic("r2", [-2, 0, 1])])
    rep = delta_r(curve(tw), 1, POL)
    assert rep.verdict == "injective"
    assert len(rep.matrix) == 1 and len(rep.matrix[0]) == 1
    assert str(rep.matrix[0][0]) == "1"
    assert rep.kernel_letters == []


def test_comparison_on_zero_source_is_vacuous():
    rep = delta_r(cover_pn(2, QQ), 2, POL)
    assert rep.verdict == "vacuous"
    assert rep.vacuous
    assert rep.matrix == []


def test_comparison_names_the_killed_letters():
    tw = make_tower([Transcendental("s")])
    rep = delta_r(cover_pn(2, tw), 2, POL)
    assert rep.kernel_letters == ["ds"]
    rep2 = delta_r(curve(tw), 1, POL)
    assert rep2.kernel_letters == ["ds"]
    assert rep2.verdict == "injective"  # functions carry no ds component


def _runs(monkeypatch):
    """The sheaf_cohomology calls that delta_r makes, counted."""
    runs = []
    real = cycletangent.sheaf_cohomology
    monkeypatch.setattr(cycletangent, "sheaf_cohomology",
                        lambda *a, **kw: runs.append(a[1]) or real(*a, **kw))
    return runs


@pytest.mark.parametrize("build, p", [
    pytest.param(lambda: cover_pn(1, QQ), 1, id="line-p1"),
    pytest.param(lambda: cover_pn(1, QQ), 2, id="line-p2"),
    pytest.param(lambda: cover_pn(2, QQ), 1, id="plane-p1"),
    pytest.param(lambda: cover_pn(2, QQ), 2, id="plane-p2"),
    pytest.param(curve, 1, id="curve"),
    pytest.param(lambda: cover_pn(2, make_tower([Algebraic("r5", [-5, 0, 1])])), 2,
                 id="plane-sqrt5-p2"),
    pytest.param(lambda: curve(make_tower([Algebraic("r5", [-5, 0, 1])])), 1,
                 id="curve-sqrt5"),
    pytest.param(lambda: cover_pn(1, make_tower([Transcendental("s")])), 1, id="line-Qs-p1"),
    pytest.param(lambda: cover_pn(2, make_tower([Transcendental("s")])), 1,
                 id="plane-Qs-p1")])
def test_comparison_reuses_its_source_when_the_complexes_coincide(monkeypatch, build, p):
    runs = _runs(monkeypatch)
    reused = delta_r(build(), p, POL)
    assert len(runs) == 1 and reused.target is reused.source
    # the same report with the target computed on its own
    monkeypatch.setattr(cech.Sheaf, "same_complex", lambda *a: False)
    apart = delta_r(build(), p, POL)
    assert len(runs) == 3 and apart.target is not apart.source
    assert reused.to_dict() == apart.to_dict()
    assert reused.target.reps_rendered == apart.target.reps_rendered


def test_comparison_computes_its_target_where_base_letters_differ(monkeypatch):
    runs = _runs(monkeypatch)
    rep = delta_r(cover_pn(2, make_tower([Transcendental("s")])), 2, POL)
    assert len(runs) == 2 and rep.target is not rep.source
    assert rep.source.dims == {0: 1, 1: 1, 2: 0}
    assert rep.target.dims == {0: 0, 1: 1, 2: 0}


@pytest.mark.parametrize("induced", [delta_r, composed_infinitesimal])
@pytest.mark.parametrize("build, p", [
    pytest.param(lambda: cover_pn(1, QQ), 1, id="line"),
    pytest.param(lambda: cover_pn(2, QQ), 1, id="plane-p1"),
    pytest.param(lambda: cover_pn(2, QQ), 2, id="plane-p2"),
    pytest.param(curve, 1, id="curve")])
def test_each_degree_is_eliminated_once(monkeypatch, induced, build, p):
    built = {}      # id of a column list -> (engine, degree, the list)
    columns = Counter()
    kernels = Counter()
    real_columns = cech.CechEngine.columns
    real_kernel = cech.kernel_basis

    def counted_columns(self, k):
        cols = real_columns(self, k)
        columns[(self, k)] += 1
        built[id(cols)] = (self, k, cols)
        return cols

    def counted_kernel(cols, one=1, span=None):
        engine, k, _ = built[id(cols)]
        kernels[(engine, k)] += 1
        return real_kernel(cols, one, span)

    monkeypatch.setattr(cech.CechEngine, "columns", counted_columns)
    monkeypatch.setattr(cech, "kernel_basis", counted_kernel)
    rep = induced(build(), p, POL)
    assert kernels
    # the tracked elimination that finds the kernel also gives the rank
    assert set(columns.values()) == {1}
    for report in (rep.source, rep.target):
        engine = report.engine
        for k in engine.degree_range():
            reps = engine.representatives(k)
            assert reps is engine.express_span(k)[1]
            if k in report.reps:
                assert report.reps[k] is reps
    assert max(kernels.values()) == 1


# -- scalar extension ----------------------------------------------------------


def test_extension_model_avoids_name_collisions():
    tw = make_tower([Transcendental("t1")])
    big = complex_model(tw)
    assert big.names == ("t1", "t2", "t3")
    assert not big.is_number_field()
    assert tw.is_prefix_of(big)


def test_scalar_extension_keeps_the_curve_class_independent():
    rep = composed_infinitesimal(curve(), 1, POL)
    assert rep.verdict == "injective"
    assert rep.kernel_dim == 0
    assert not rep.vacuous
    d = rep.to_dict()
    assert d["matrix"] == [["1"]]
    assert d["source_dims"]["1"] == 1


def test_scalar_extension_on_zero_source_reports_injective():
    tw = make_tower([Algebraic("r2", [-2, 0, 1])])
    rep = composed_infinitesimal(cover_pn(2, tw), 2, POL)
    assert rep.verdict == "injective"
    assert rep.vacuous
    assert rep.kernel_dim == 0


def test_scalar_extension_refuses_transcendental_towers():
    tw = make_tower([Transcendental("s")])
    with pytest.raises(NotNumberField) as err:
        composed_infinitesimal(cover_pn(1, tw), 1, POL)
    assert "ds" in str(err.value)


def test_extension_model_rejected_when_not_an_extension():
    other = make_tower([Transcendental("u")])
    tw = make_tower([Algebraic("r2", [-2, 0, 1])])
    with pytest.raises(Unsupported):
        composed_infinitesimal(cover_pn(1, tw), 1, POL, cmodel=other)


# -- symbols as cochains --------------------------------------------------------


def overlap_ring(n=1):
    cov = cover_pn(n, QQ)
    return cov.ring(tuple(range(n + 1)))


def test_symbol_images_factor_on_the_line():
    ring = overlap_ring(1)
    z = ring.var("z")
    s1 = EpsSymbol(ring, 1, [(z ** 2 + ring.const(3), (), 1)])
    s2 = EpsSymbol(ring, 1, [(z.inv() * 2, (), -2)])
    rep = lambda_factorization_check([s1, s2], 1)
    assert rep["status"] == "pass"
    assert [c["name"] for c in rep["checks"]] == [
        "window", "single slot", "cocycle", "zero symbol", "additivity"]


def test_symbol_images_factor_on_the_plane():
    ring = overlap_ring(2)
    u1, u2 = ring.var("u1"), ring.var("u2")
    s1 = EpsSymbol(ring, 2, [(u1 * u2, (u1,), 1)])
    s2 = EpsSymbol(ring, 2, [(u2.inv(), (u1 * u2,), 2),
                             (ring.const(Fraction(1, 2)), (u2,), 1)])
    rep = lambda_factorization_check([s1, s2], 2)
    assert rep["status"] == "pass"


def test_oversized_symbol_reports_the_window_escape():
    ring = overlap_ring(1)
    z = ring.var("z")
    rep = lambda_factorization_check([EpsSymbol(ring, 1, [(z ** 40, (), 1)])], 1)
    assert rep["status"] == "fail"
    assert rep["checks"][0]["name"] == "window"
    assert "escapes the window" in rep["checks"][0]["witness"]


def test_line_symbol_vector_reads_off_the_coefficients():
    # beta({1 + eps h}^e) = e*h, so the window vector is the Laurent expansion
    rng = random.Random(20260816)
    cov = cover_pn(1, QQ)
    ring = cov.ring((0, 1))
    z = ring.var("z")
    from ktangent.cech import CechEngine
    from ktangent.complexes import tangent_deligne

    cx = tangent_deligne(1, cov.charts[0])
    eng = CechEngine(cov, {1: 0}, cx.base, 0, 2)
    index = eng.index(2)
    for _ in range(12):
        coeffs = {k: rng.randrange(-4, 5) for k in range(-2, 3)}
        h = ring.const(0)
        for k, c in coeffs.items():
            h = h + (z ** k) * c
        e = rng.choice([1, 2, -1])
        vec = symbol_cochain(eng, EpsSymbol(ring, 1, [(h, (), e)]))
        want = {}
        for k, c in coeffs.items():
            if c * e:
                lab = ((-k, k), (), ())
                idx = index[(1, 1, (0, 1), lab)]
                want[idx] = Fraction(c * e)
        assert vec == want


def test_unmodeled_symbol_degree_rejected():
    ring = overlap_ring(1)
    with pytest.raises(Unsupported):
        lambda_factorization_check([EpsSymbol(ring, 3, [])], 3)


def test_symbols_on_the_cubic_are_refused_by_name():
    # the cubic's window holds partial fractions, not Laurent monomials, so
    # placing a form there is refused rather than read as a projective label
    cov = curve()
    ring = cov.ring((0, 1))
    x = ring.var("x")
    with pytest.raises(Unsupported, match="projective covers only"):
        lambda_factorization_check([EpsSymbol(ring, 1, [(x + ring.const(2), (), 1)])],
                                   1, cover=cov)
