"""Open covers, truncated cochain complexes, and cohomology reports."""

import random
from fractions import Fraction

import pytest

from ktangent import cech, scalars
from ktangent.cech import (
    CechEngine,
    CubicCover,
    ProjectiveCover,
    Sheaf,
    TruncationPolicy,
    cover_plane_curve,
    cover_pn,
    extend_cover,
    hypercohomology,
    sheaf_cohomology,
    verify_splitting,
    weierstrass_cubic,
)
from ktangent.complexes import tangent_deligne
from ktangent.cycletangent import complex_model, composed_infinitesimal
from ktangent.differentials import BaseTag, base_top
from ktangent.errors import (
    Mismatch,
    NotStabilized,
    SingularRelation,
    TowerMismatch,
    Unsupported,
)
from ktangent.funcrings import FunctionRing, RingElem
from ktangent.linalg import vec_sub_scaled
from ktangent.mpoly import MPoly
from ktangent.scalars import QQ, Algebraic, Transcendental, make_tower

from oracles import cech_cocycle_check, cochain_forms, substitutions, verify_substitutions

POL = TruncationPolicy(2, 2)
ABS0 = BaseTag(0, "none")
R2 = make_tower([Algebraic("r2", [-2, 0, 1])])


def elliptic(tower=QQ):
    return cover_plane_curve(weierstrass_cubic(tower, 0, 0, 1), tower)


# -- covers ------------------------------------------------------------------


def test_projective_line_cover_shape():
    c = cover_pn(1, QQ)
    assert c.charts[0].varnames == ("z",)
    assert c.charts[1].varnames == ("w",)
    assert c.subsets(2) == [(0, 1)]
    assert c.qmax == 1


def test_projective_plane_cover_verifies_over_extension():
    tw = make_tower([Algebraic("r2", [-2, 0, 1])])
    c = cover_pn(2, tw)
    assert len(c.charts) == 3
    assert c.subsets(3) == [(0, 1, 2)]


def test_unmodeled_dimension_rejected():
    with pytest.raises(Unsupported):
        cover_pn(3, QQ)


def test_curve_cover_rejects_singular_cubics():
    with pytest.raises(SingularRelation):
        cover_plane_curve(weierstrass_cubic(QQ, 0, 0, 0), QQ)  # cusp
    with pytest.raises(SingularRelation):
        cover_plane_curve(weierstrass_cubic(QQ, 1, 0, 0), QQ)  # node


def test_curve_cover_rejects_a_cubic_singular_off_the_rationals():
    # y^2 = x^3 - 6x + 4*r2 = (x - r2)^2 (x + 2*r2), singular at (r2, 0): no
    # rational point is singular, so only the exact gcd(g, g') check sees it
    tw = make_tower([Algebraic("r2", [-2, 0, 1])])
    X, Y, Z = (MPoly.variable(tw, 3, i) for i in range(3))
    c = lambda v: MPoly.const(tw, 3, v)
    F = Y * Y * Z - X ** 3 + c(6) * X * Z * Z - c(4 * tw.gen("r2")) * Z ** 3
    with pytest.raises(SingularRelation):
        cover_plane_curve(F, tw)


def test_curve_cover_rejects_root_at_origin():
    with pytest.raises(Unsupported):
        cover_plane_curve(weierstrass_cubic(QQ, 0, -1, 0), QQ)


def test_non_weierstrass_cubic_rejected():
    x = MPoly.variable(QQ, 3, 0)
    y = MPoly.variable(QQ, 3, 1)
    z = MPoly.variable(QQ, 3, 2)
    with pytest.raises(Unsupported):
        cover_plane_curve(x ** 3 + y ** 3 + z ** 3, QQ)


def test_extend_cover_keeps_kind():
    tw = make_tower([Transcendental("t")])
    assert isinstance(extend_cover(cover_pn(2, QQ), tw), ProjectiveCover)
    big = extend_cover(elliptic(), tw)
    assert isinstance(big, CubicCover)
    assert big.tower is tw


@pytest.mark.parametrize("S, i, k", [((0, 1), 1, 0), ((0, 2), 2, 1), ((0, 1, 2), 2, 0)])
def test_verify_substitutions_catches_a_corrupted_substitution(S, i, k):
    cover = cover_pn(2, QQ)
    subs = substitutions(cover)
    verify_substitutions(cover, subs)
    imgs = subs[S][i]
    imgs[k] = imgs[k] + 1
    with pytest.raises(Mismatch):
        verify_substitutions(cover, subs)


def test_verify_substitutions_catches_a_transition_off_the_curve():
    # zb = 1/y + 1 still composes along (1,) in (0, 1); only the relation sees it
    cover = elliptic()
    subs = substitutions(cover)
    imgs = subs[(0, 1)][1]
    imgs[1] = imgs[1] + 1
    with pytest.raises(Mismatch, match="relation"):
        verify_substitutions(cover, subs)


@pytest.mark.parametrize("build", [lambda tw: cover_pn(1, tw), lambda tw: cover_pn(2, tw),
                                   elliptic], ids=["p1", "p2", "elliptic"])
def test_extend_cover_refuses_a_tower_that_does_not_extend_it(build):
    # the message is extend_cover's own; lifting a chart would refuse in other words
    r2 = make_tower([Algebraic("r2", [-2, 0, 1])])
    r3 = make_tower([Algebraic("r3", [-3, 0, 1])])
    with pytest.raises(TowerMismatch, match="does not extend the cover's"):
        extend_cover(build(r2), r3)


_TOWERS = {"Q": QQ, "Qsqrt2": R2, "Qs": make_tower([Transcendental("s")])}


def _covers():
    """Every kind of cover over Q, Q(sqrt 2) and Q(s), each beside an
    extension of it by a new transcendental."""
    for name, tw in _TOWERS.items():
        big = tw.extend([Transcendental("u")])
        for kind, build in (("p1", lambda tw=tw: cover_pn(1, tw)),
                            ("p2", lambda tw=tw: cover_pn(2, tw)),
                            ("elliptic", lambda tw=tw: elliptic(tw))):
            yield f"{kind}-{name}", build, big


def test_covers_build_and_extend_without_ring_elements(monkeypatch):
    # a cover is its charts and its section model: no chart coordinate is
    # built as a ring element, here or when its scalars are extended
    made = []
    real_init, real_canonical = RingElem.__init__, RingElem._canonical.__func__

    def init(self, *args):
        made.append("__init__")
        real_init(self, *args)

    def canonical(cls, *args):
        made.append("_canonical")
        return real_canonical(cls, *args)

    monkeypatch.setattr(RingElem, "__init__", init)
    monkeypatch.setattr(RingElem, "_canonical", classmethod(canonical))
    for name, build, big in _covers():
        extend_cover(build(), big)
        assert made == [], name


def _cubics():
    """The other cubic covers the tests build, over their towers."""
    for name, tw in _TOWERS.items():
        yield f"y2=x3-x+1-{name}", lambda tw=tw: cover_plane_curve(
            weierstrass_cubic(tw, 0, -1, 1), tw)
    yield "y2=x3-4x+4", lambda: cover_plane_curve(weierstrass_cubic(QQ, 0, -4, 4), QQ)
    yield "cubic-sqrt2", lambda: _cubic_over_sqrt2()
    yield "seeded", lambda: _seeded_cubic()


_SUBSTITUTION_COVERS = [(name, build) for name, build, _ in _covers()] + list(_cubics())


@pytest.mark.parametrize("build", [b for _, b in _SUBSTITUTION_COVERS],
                         ids=[n for n, _ in _SUBSTITUTION_COVERS])
def test_substitutions_compose_and_carry_the_relation(build):
    cover = build()
    verify_substitutions(cover, substitutions(cover))
    big = extend_cover(cover, cover.tower.extend([Transcendental("u")]))
    verify_substitutions(big, substitutions(big))


def _cubic_over_sqrt2():
    # y^2 = x^3 + r2*x + 1: a coefficient outside Q, discriminant -8*r2 - 27
    tw = make_tower([Algebraic("r2", [-2, 0, 1])])
    X, Y, Z = (MPoly.variable(tw, 3, i) for i in range(3))
    F = Y * Y * Z - X ** 3 - MPoly.const(tw, 3, tw.gen("r2")) * X * Z * Z - Z ** 3
    return cover_plane_curve(F, tw)


def _rebuilt(cover, tower):
    """The cover built again from scratch over ``tower``."""
    if isinstance(cover, ProjectiveCover):
        return cover_pn(cover.n, tower)
    g0, g1, g2 = (tower.embed(c) for c in cover.gcoeffs)
    X, Y, Z = (MPoly.variable(tower, 3, i) for i in range(3))
    c = lambda v: MPoly.const(tower, 3, v)
    F = Y * Y * Z - X ** 3 - c(g2) * X * X * Z - c(g1) * X * Z * Z - c(g0) * Z ** 3
    return cover_plane_curve(F, tower)


@pytest.mark.parametrize("build", [lambda: cover_pn(1, QQ), lambda: cover_pn(2, QQ),
                                   elliptic, _cubic_over_sqrt2],
                         ids=["p1", "p2", "elliptic", "cubic-sqrt2"])
def test_embedded_cover_equals_the_rebuilt_cover(build):
    cover = build()
    tw = complex_model(cover.tower)
    big = extend_cover(cover, tw)
    ref = _rebuilt(cover, tw)
    assert isinstance(big, type(ref)) and big.tower == ref.tower
    if isinstance(ref, ProjectiveCover):
        assert big.n == ref.n
    else:
        assert big.gcoeffs == ref.gcoeffs
    assert big.charts == ref.charts
    verify_substitutions(big, substitutions(big))


@pytest.mark.parametrize("build", [lambda: cover_pn(1, make_tower([Algebraic("r2", [-2, 0, 1])])),
                                   elliptic], ids=["p1-sqrt2", "elliptic"])
def test_scalar_extension_builds_and_verifies_no_cover(monkeypatch, build):
    cover = build()
    calls = []
    for name in ("cover_pn", "cover_plane_curve"):
        real = getattr(cech, name)

        def counted(*args, _name=name, _real=real):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(cech, name, counted)
    rep = composed_infinitesimal(cover, 1, POL)
    assert rep.verdict == "injective"
    assert calls == []


@pytest.mark.parametrize("build", [lambda: cover_pn(1, QQ), lambda: cover_pn(2, QQ), elliptic],
                         ids=["p1", "p2", "elliptic"])
def test_window_labels_counts_the_enumerated_labels(build):
    cover = build()
    for twist in (0,) if isinstance(cover, CubicCover) else (-4, -1, 0, 3):
        for D in (1, 2, 4):
            eng = CechEngine(cover, {0: 0}, ABS0, twist, D)
            assert cover.window_labels(twist, D) == sum(
                len(eng.total_basis(k)) for k in range(cover.qmax + 1))


# -- line bundles on the projective line --------------------------------------


@pytest.mark.parametrize("d", range(0, 6))
def test_line_sections_count(d):
    c = cover_pn(1, QQ)
    rep = sheaf_cohomology(c, Sheaf.twisted(d), TruncationPolicy(max(2, d), 2),
                           require_stable=True)
    assert rep.dims == {0: d + 1, 1: 0}


@pytest.mark.parametrize("d", range(1, 6))
def test_line_negative_twist_count(d):
    c = cover_pn(1, QQ)
    rep = sheaf_cohomology(c, Sheaf.twisted(-d), TruncationPolicy(max(2, d), 2),
                           require_stable=True)
    assert rep.dims == {0: 0, 1: d - 1}


def test_under_truncated_twist_detected():
    c = cover_pn(1, QQ)
    with pytest.raises(NotStabilized):
        sheaf_cohomology(c, Sheaf.twisted(-5), POL, require_stable=True)
    rep = sheaf_cohomology(c, Sheaf.twisted(-5), POL)
    assert not rep.stabilized


# -- form sheaves --------------------------------------------------------------


@pytest.mark.parametrize("r", [0, 1])
def test_line_form_cohomology(r):
    c = cover_pn(1, QQ)
    rep = sheaf_cohomology(c, Sheaf.forms(r), POL, require_stable=True)
    assert rep.dims == {0: 1 - r, 1: r}


@pytest.mark.parametrize("r", [0, 1, 2])
def test_plane_form_cohomology_is_diagonal(r):
    c = cover_pn(2, QQ)
    rep = sheaf_cohomology(c, Sheaf.forms(r), POL, require_stable=True)
    assert rep.dims == {q: (1 if q == r else 0) for q in (0, 1, 2)}


def test_plane_diagonal_classes_render_canonically():
    c = cover_pn(2, QQ)
    rep1 = sheaf_cohomology(c, Sheaf.forms(1), POL)
    assert rep1.reps_rendered[1] == [
        "(1)*{0,1} u1^-1*du1 + (1)*{0,2} u2^-1*du2 + (1)*{1,2} v2^-1*dv2"]
    rep2 = sheaf_cohomology(c, Sheaf.forms(2), POL)
    assert rep2.reps_rendered[2] == ["(1)*{0,1,2} u1^-1*u2^-1*du1/\\du2"]


def test_global_functions_are_constants():
    c = cover_pn(2, QQ)
    rep = sheaf_cohomology(c, Sheaf.forms(0), POL)
    assert rep.reps_rendered[0] == ["(1)*{0} 1 + (1)*{1} 1 + (1)*{2} 1"]


def test_curve_function_cohomology_any_window():
    c = elliptic()
    for D in (1, 2, 3):
        rep = sheaf_cohomology(c, Sheaf.forms(0), TruncationPolicy(D, 2),
                               require_stable=True)
        assert rep.dims == {0: 1, 1: 1}
    rep = sheaf_cohomology(c, Sheaf.forms(0), POL)
    assert rep.reps_rendered[0] == ["(1)*{A} 1 + (1)*{B} 1"]
    assert rep.reps_rendered[1] == ["(1)*{A,B} x^2*y/g"]


def test_second_curve_same_counts():
    c = cover_plane_curve(weierstrass_cubic(QQ, 0, -4, 4), QQ)
    rep = sheaf_cohomology(c, Sheaf.forms(0), POL, require_stable=True)
    assert rep.dims == {0: 1, 1: 1}


@pytest.mark.parametrize("window", [[], ["--D", "10"]], ids=["D2", "D10"])
def test_partial_fractions_are_computed_once_per_cover(monkeypatch, tmp_path, window):
    # the memo lives on the cover, so the D and D + delta windows share it;
    # the run builds one cubic, so (i, e) names an entry
    from ktangent.cli import main

    computed = []
    real = CubicCover._pf

    def spy(self, i, e):
        if (i, e) not in self._pf_memo:
            computed.append((i, e))
        return real(self, i, e)

    monkeypatch.setattr(CubicCover, "_pf", spy)
    argv = ["cech", "--instance", "elliptic", *window]
    assert main(argv + ["--json", str(tmp_path / "r.json"), "--quiet"]) == 0
    assert computed
    assert len(computed) == len(set(computed))


def test_curve_refuses_form_sheaves():
    with pytest.raises(Unsupported):
        sheaf_cohomology(elliptic(), Sheaf.forms(1), POL)


def test_twisted_forms_rejected():
    c = cover_pn(1, QQ)
    with pytest.raises(Unsupported):
        CechEngine(c, {0: 1}, ABS0, 3, 2)


def test_counts_identical_over_number_field():
    tw = make_tower([Algebraic("r2", [-2, 0, 1])])
    c = cover_pn(1, tw)
    rep = sheaf_cohomology(c, Sheaf.twisted(-3), TruncationPolicy(3, 2),
                           require_stable=True)
    assert rep.dims == {0: 0, 1: 2}


def test_relative_forms_see_the_base_parameter():
    tw = make_tower([Transcendental("t")])
    c = cover_pn(1, tw)
    rep = sheaf_cohomology(c, Sheaf.forms(1, base=ABS0), POL, require_stable=True)
    # dt is a new global one-form; z^-1 dz still generates degree one
    assert rep.dims == {0: 1, 1: 1}
    assert rep.reps_rendered[0] == ["(1)*{0} 1*dt + (1)*{1} 1*dt"]
    assert rep.reps_rendered[1] == ["(1)*{0,1} z^-1*dz"]


# -- the total complex ---------------------------------------------------------


def _square_is_zero(eng):
    lo = list(eng.degree_range())
    for k in lo[:-1]:
        basis1 = eng.total_basis(k + 1)
        for q, j, s, lab in eng.total_basis(k):
            acc = {}
            for idx, c in eng.column(k, q, j, s, lab).items():
                q2, j2, s2, lab2 = basis1[idx]
                for idx2, c2 in eng.column(k + 1, q2, j2, s2, lab2).items():
                    v = acc.get(idx2, 0)
                    v = c * c2 if v == 0 else v + c * c2
                    if v:
                        acc[idx2] = v
                    elif idx2 in acc:
                        del acc[idx2]
            if acc:
                return False
    return True


@pytest.mark.parametrize("p", [1, 2])
def test_total_differential_squares_to_zero(p):
    for cover in (cover_pn(1, QQ), cover_pn(2, QQ)):
        cx = tangent_deligne(p, cover.ring((0,)))
        rows = {i: cx.terms[i][0] for i in cx.degrees()}
        assert _square_is_zero(CechEngine(cover, rows, cx.base, 0, 2))


def test_curve_total_differential_squares_to_zero():
    cover = elliptic()
    assert _square_is_zero(CechEngine(cover, {1: 0}, ABS0, 0, 2))


def _seeded_cubic(seed=20261018):
    # a smooth y^2 = x^3 + b x + c with c != 0, drawn from a fixed seed
    rng = random.Random(seed)
    while True:
        b, c = rng.randint(-5, 5), rng.randint(-5, 5)
        if c and 4 * b ** 3 + 27 * c ** 2:
            return cover_plane_curve(weierstrass_cubic(QQ, 0, b, c), QQ)


def _deligne_rows(p, cover):
    cx = tangent_deligne(p, cover.ring((0,)))
    return CechEngine(cover, {i: cx.terms[i][0] for i in cx.degrees()}, cx.base, 0, 2)


_ENGINES = [
    pytest.param(lambda: CechEngine(cover_pn(1, QQ), {0: 1}, base_top(QQ), 0, 2),
                 id="line-omega1"),
    pytest.param(lambda: CechEngine(cover_pn(1, R2), {0: 0}, base_top(R2), -3, 4),
                 id="line-sqrt2-O(-3)"),
    pytest.param(lambda: CechEngine(cover_pn(2, QQ), {0: 1}, base_top(QQ), 0, 2),
                 id="plane-omega1"),
    pytest.param(lambda: CechEngine(_seeded_cubic(), {0: 0}, ABS0, 0, 2), id="cubic"),
    pytest.param(lambda: _deligne_rows(2, cover_pn(2, QQ)), id="plane-hyper-p2"),
]


@pytest.mark.parametrize("build", _ENGINES)
def test_index_inverts_the_total_basis(build):
    eng = build()
    ks = list(eng.degree_range())
    for k in range(ks[0] - 1, ks[-1] + 2):
        basis = eng.total_basis(k)
        assert eng.index(k) == {b: i for i, b in enumerate(basis)}
        assert len(eng.index(k)) == len(basis)
    assert any(eng.total_basis(k) for k in ks)


@pytest.mark.parametrize("build", _ENGINES)
def test_apply_is_the_differential_and_squares_to_zero(build):
    eng = build()
    nonzero = 0
    for k in eng.degree_range():
        for i, b in enumerate(eng.total_basis(k)):
            col = eng.column(k, *b)
            assert eng.apply(k, {i: 1}) == col
            assert eng.apply(k + 1, col) == {}
            nonzero += bool(col)
    assert nonzero


def test_the_elimination_layer_holds_no_scalar(monkeypatch):
    # engines, linalg and RingElem canonicalisation all work on raw tower values
    deep = complex_model(R2)
    line_deep = cover_pn(1, deep)
    line_s = cover_pn(1, make_tower([Transcendental("s")]))
    line_r2 = cover_pn(1, R2)
    cx = tangent_deligne(2, line_r2.charts[0])
    ring = FunctionRing(R2, ("x", "y"))
    x, y = (MPoly.variable(R2, 2, i) for i in (0, 1))
    r2 = MPoly.const(R2, 2, R2.gen("r2"))
    num, den = 3 * r2 * x * y + x + 1, 2 * y + r2
    made = []
    real_init = scalars.Scalar.__init__
    monkeypatch.setattr(scalars.Scalar, "__init__",
                        lambda self, tw, v: made.append(v) or real_init(self, tw, v))
    reports = [sheaf_cohomology(line_deep, Sheaf.forms(0), POL),
               sheaf_cohomology(line_deep, Sheaf.twisted(-3), POL),
               sheaf_cohomology(line_s, Sheaf.forms(1, base=ABS0), POL),
               hypercohomology(line_r2, cx, POL)]
    e = RingElem(ring, num, den)
    inv = e.inv()
    assert made == []
    assert [r.dims for r in reports] == [{0: 1, 1: 0}, {0: 0, 1: 2}, {0: 1, 1: 1},
                                         {1: 1, 2: 0, 3: 1}]
    vals = [c for r in reports for vecs in r.reps.values() for v in vecs
            for c in v.values()]
    assert vals and not any(isinstance(c, scalars.Scalar) for c in vals)
    assert e * inv == 1 and dict(e.num.items())[(1, 1)] == R2.value(1)


@pytest.mark.parametrize("run", [
    pytest.param(lambda: sheaf_cohomology(cover_pn(2, QQ), Sheaf.forms(1), POL),
                 id="plane-omega1"),
    pytest.param(lambda: sheaf_cohomology(cover_pn(1, R2), Sheaf.twisted(-3), POL),
                 id="line-sqrt2-O(-3)"),
    pytest.param(lambda: sheaf_cohomology(_seeded_cubic(), Sheaf.forms(0), POL), id="cubic"),
    pytest.param(lambda: hypercohomology(cover_pn(2, QQ),
                                         tangent_deligne(2, cover_pn(2, QQ).charts[0]), POL),
                 id="plane-hyper-p2"),
])
def test_representatives_exist_exactly_where_the_dimension_is_positive(run):
    rep = run()
    for k, dim in rep.dims.items():
        assert len(rep.engine.representatives(k)) == dim
        assert (k in rep.reps) == (dim > 0)


def test_one_term_complex_matches_shifted_sheaf():
    c = cover_pn(2, QQ)
    cx = tangent_deligne(1, c.ring((0,)))
    hyper = hypercohomology(c, cx, POL, require_stable=True)
    plain = sheaf_cohomology(c, Sheaf.forms(0), POL, require_stable=True)
    assert all(hyper.dim(k + 1) == plain.dim(k) for k in (0, 1, 2))


def test_hypercohomology_of_tangent_complex():
    expected = {
        (1, 1): {1: 1, 2: 0},
        (1, 2): {1: 1, 2: 0, 3: 1},
        (2, 1): {1: 1, 2: 0, 3: 0},
        (2, 2): {1: 1, 2: 0, 3: 1, 4: 0},
    }
    for (n, p), want in expected.items():
        c = cover_pn(n, QQ)
        cx = tangent_deligne(p, c.ring((0,)))
        rep = hypercohomology(c, cx, POL, require_stable=True)
        assert rep.dims == want, (n, p)


def test_curve_hypercohomology_sees_the_genus():
    c = elliptic()
    cx = tangent_deligne(1, c.ring((0,)))
    rep = hypercohomology(c, cx, POL, require_stable=True)
    assert rep.dims == {1: 1, 2: 1}


def test_hypercohomology_wants_the_top_base():
    tw = make_tower([Transcendental("t")])
    c = cover_pn(1, tw)
    from ktangent.complexes import Complex

    cx = Complex(c.ring((0,)), ABS0, 1, 2, {1: (0,), 2: (1,)}, {})
    with pytest.raises(Unsupported):
        hypercohomology(c, cx, POL)


@pytest.mark.parametrize("p", [1, 2])
def test_splitting_on_projective_spaces(p):
    for n in (1, 2):
        res = verify_splitting(p, cover_pn(n, QQ), POL)
        assert res["status"] == "pass"
        assert res["stabilized"]
        assert len(res["checks"]) == 2


def test_splitting_on_the_curve():
    res = verify_splitting(1, elliptic(), POL)
    assert res["status"] == "pass"
    assert res["checks"][0]["hyper"] == 1  # total degree 2 on a genus-one curve


# -- symbolic cross-checks -----------------------------------------------------


def test_plane_class_is_a_cocycle_symbolically():
    c = cover_pn(2, QQ)
    rep = sheaf_cohomology(c, Sheaf.forms(1), POL)
    vec = rep.reps[1][0]
    comp = cochain_forms(rep.engine, 1, vec, ABS0)
    assert cech_cocycle_check(c, ABS0, 1, comp)


def test_perturbed_class_fails_the_cocycle_test():
    c = cover_pn(2, QQ)
    rep = sheaf_cohomology(c, Sheaf.forms(1), POL)
    vec = dict(rep.reps[1][0])
    key = sorted(vec)[0]
    vec[key] = vec[key] * 2
    comp = cochain_forms(rep.engine, 1, vec, ABS0)
    assert not cech_cocycle_check(c, ABS0, 1, comp)


def test_random_coboundaries_are_cocycles():
    rng = random.Random(20260815)
    c = cover_pn(2, QQ)
    rep = sheaf_cohomology(c, Sheaf.forms(1), POL)
    eng = rep.engine
    basis0 = eng.total_basis(0)
    for _ in range(8):
        vec = {}
        for idx in rng.sample(range(len(basis0)), 4):
            coeff = rng.randrange(-3, 4)
            if coeff == 0:
                continue
            q, j, s, lab = basis0[idx]
            for tgt, cf in eng.column(0, q, j, s, lab).items():
                v = vec.get(tgt, 0) + cf * coeff
                if v:
                    vec[tgt] = v
                elif tgt in vec:
                    del vec[tgt]
        comp = cochain_forms(eng, 1, vec, ABS0)
        assert cech_cocycle_check(c, ABS0, 1, comp)


def test_curve_chart_b_labels_are_cocycle_checked():
    # chart B's labels (i, j) mean xb^i * zb^j; the H^0(O) class has a 1 there
    c = elliptic()
    rep = sheaf_cohomology(c, Sheaf.forms(0), POL)
    vec = rep.reps[0][0]
    assert cech_cocycle_check(c, ABS0, 0, cochain_forms(rep.engine, 0, vec, ABS0))
    xb = rep.engine.index(0)[(0, 0, (1,), (1, 0))]
    bent = {**vec, xb: Fraction(1)}
    assert not cech_cocycle_check(c, ABS0, 0, cochain_forms(rep.engine, 0, bent, ABS0))


def test_base_letter_classes_are_cocycle_checked():
    # Omega^1 of P^1 over Q(s) relative to Q: ds is a global class
    c = cover_pn(1, make_tower([Transcendental("s")]))
    rep = sheaf_cohomology(c, Sheaf.forms(1, base=ABS0), POL, require_stable=True)
    for k, vecs in rep.reps.items():
        for vec in vecs:
            assert cech_cocycle_check(c, ABS0, k, cochain_forms(rep.engine, k, vec, ABS0))
    (vec,) = rep.reps[0]
    tower = c.tower
    bent = {**vec, min(vec): tower.mul(vec[min(vec)], tower.value(2))}
    assert not cech_cocycle_check(c, ABS0, 0, cochain_forms(rep.engine, 0, bent, ABS0))


def test_report_serializes():
    c = cover_pn(1, QQ)
    rep = sheaf_cohomology(c, Sheaf.twisted(2), POL)
    d = rep.to_dict()
    assert d["stabilized"] is True
    assert d["dims"] == {"0": 3, "1": 0}
    assert d["policy"] == {"D": 2, "delta": 2}


def test_representative_count_matches_reported_dimension():
    c = cover_pn(2, QQ)
    for r in (0, 1, 2):
        rep = sheaf_cohomology(c, Sheaf.forms(r), POL)
        for k, dim in rep.dims.items():
            assert len(rep.reps.get(k, ())) == dim


@pytest.mark.parametrize("tower", [QQ, make_tower([Algebraic("r2", [-2, 0, 1])])])
def test_solve_reads_class_coordinates_modulo_coboundaries(tower):
    # H^1(O(-4)) on the line has dimension 3, and d_0 is injective
    eng = CechEngine(cover_pn(1, tower), {0: 0}, base_top(tower), -4, 4)
    span, reps = eng.express_span(1)
    assert len(reps) == 3
    cob = {}
    for i, col in enumerate(eng.columns(0)):
        cob = vec_sub_scaled(cob, -(i + 1), col, tower)
    assert cob
    for i, r in enumerate(reps):
        got = span.solve(vec_sub_scaled(cob, -1, r, tower))
        assert got == {("rep", i): 1}
    mix = vec_sub_scaled(vec_sub_scaled(cob, -2, reps[0], tower), 1, reps[2], tower)
    assert span.solve(mix) == {("rep", 0): 2, ("rep", 2): -1}


def test_t_constant_values_skip_rational_function_reduction(monkeypatch):
    # every scalar of H(O) on P^2 over Q(r2)(t1)(t2) is constant in t1, t2,
    # so no rational-function reduction should run
    tw = make_tower([Algebraic("r2", [-2, 0, 1]), Transcendental("t1"),
                     Transcendental("t2")])
    cover = cover_pn(2, tw)
    calls = []
    for name in ("_pgcd", "_mkq"):
        real = getattr(scalars, name)
        monkeypatch.setattr(scalars, name,
                            lambda *a, name=name, real=real: calls.append(name) or real(*a))
    rep = sheaf_cohomology(cover, Sheaf.forms(0), POL, require_stable=True)
    assert rep.dims == {0: 1, 1: 0, 2: 0}
    assert calls == []


# -- the larger window starts from the smaller one -----------------------------


def _window_runs():
    """(cover, rows, base, twist, policy) of sheaf and hypercohomology runs."""
    p1, p2, big = cover_pn(1, QQ), cover_pn(2, QQ), complex_model(R2)
    out = [pytest.param(p1, {0: 0}, base_top(QQ), d, POL, id=f"line-O({d})")
           for d in range(-5, 6)]
    out += [pytest.param(p2, {0: r}, base_top(QQ), 0, POL, id=f"plane-omega{r}")
            for r in (0, 1, 2)]
    out.append(pytest.param(_seeded_cubic(), {0: 0}, ABS0, 0, POL, id="cubic"))
    for p in (1, 2):
        cx = tangent_deligne(p, p2.ring((0,)))
        out.append(pytest.param(p2, {i: cx.terms[i][0] for i in cx.degrees()}, cx.base,
                                0, POL, id=f"plane-hyper-p{p}"))
    # base letters dt1, dt2 over Q(r2)(t1)(t2)
    out.append(pytest.param(cover_pn(1, big), {0: 1}, ABS0, 0, POL, id="line-deep-omega1"))
    # unstable: H^1 of O(-4) is 0 at D = 1 and 3 at D = 7
    out.append(pytest.param(p1, {0: 0}, base_top(QQ), -4, TruncationPolicy(1, 6),
                            id="line-O(-4)-unstable"))
    return out


@pytest.mark.parametrize("cover, rows, base, twist, policy", _window_runs())
def test_the_larger_window_eliminates_only_its_new_labels(monkeypatch, cover, rows, base,
                                                          twist, policy):
    engines, built = [], {}
    init, column = CechEngine.__init__, CechEngine.column

    def spy_init(self, *a, **kw):
        init(self, *a, **kw)
        engines.append(self)

    def spy_column(self, k, *b):
        built[(self.D, k)] = built.get((self.D, k), 0) + 1
        return column(self, k, *b)

    monkeypatch.setattr(CechEngine, "__init__", spy_init)
    monkeypatch.setattr(CechEngine, "column", spy_column)
    rep = cech._run(cover, rows, base, twist, policy, False, len(rows) == 1, "sheaf")
    lo, hi = engines
    assert hi.inner is lo and hi.D == lo.D + policy.delta
    ks = list(hi.degree_range())
    for k in range(ks[0], ks[-1] + 2):
        # (a) the smaller window's labels sit in the larger basis, in order
        pos = [hi.index(k)[b] for b in lo.total_basis(k)]
        assert pos == sorted(set(pos))
        # (c) the larger window builds only the columns of its new labels
        new = len(hi.total_basis(k)) - len(lo.total_basis(k))
        assert built.get((hi.D, k), 0) == new
    monkeypatch.undo()
    # (b) the same dimensions as a fresh engine eliminated from scratch
    fresh = CechEngine(cover, rows, base, twist, hi.D)
    assert rep.dims_again == {k: fresh.dim_at(k) for k in fresh.degree_range()}
    if policy.delta == 6:
        assert not rep.stabilized and rep.dims_again == {0: 0, 1: 3}


def test_an_inner_window_must_be_an_ordered_part_of_the_outer_one():
    c = cover_pn(1, QQ)
    args = (c, {0: 1}, base_top(QQ), 0)
    outer = CechEngine(*args, 4)
    # degree-1 labels of the inner window missing from the outer one, as
    # d_1's columns and as the indices of d_0's rows
    with pytest.raises(Mismatch):
        CechEngine(*args, 2, inner=outer)._span(1)
    inner = CechEngine(*args, 2)
    inner._total[1].append((1, 0, (0, 1), ((99, -99), (), ())))
    with pytest.raises(Mismatch):
        CechEngine(*args, 4, inner=inner)._span(0)
    # the same labels in another order
    inner = CechEngine(*args, 2)
    inner._total[1].reverse()
    with pytest.raises(Mismatch):
        CechEngine(*args, 4, inner=inner)._span(0)
    assert CechEngine(*args, 4, inner=CechEngine(*args, 2)).dim_at(0) == outer.dim_at(0)
