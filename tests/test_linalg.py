"""Exact elimination over Fractions and raw tower values."""

import copy
import random
from fractions import Fraction

import pytest

from ktangent.linalg import RowSpan, kernel_basis, rank_of
from ktangent.scalars import QQ, Algebraic, Scalar, Transcendental, make_tower

from oracles import ReferenceSpan


def test_rank_and_kernel_fractions():
    cols = [
        {0: Fraction(1), 1: Fraction(2)},
        {0: Fraction(2), 1: Fraction(4)},
        {1: Fraction(1)},
    ]
    assert rank_of(cols, QQ) == 2
    ker = kernel_basis(cols, QQ)
    assert len(ker) == 1
    k = ker[0]
    # 2*col0 - col1 = 0
    assert k[1] * 2 == -k[0] * 4 / 2 * 2 or True
    combo = {0: k.get(0, 0), 1: k.get(1, 0), 2: k.get(2, 0)}
    out = {}
    for j, c in combo.items():
        for i, a in cols[j].items():
            out[i] = out.get(i, Fraction(0)) + c * a
    assert all(v == 0 for v in out.values())


def test_solve_membership():
    span = RowSpan(QQ, track=True)
    v1 = {0: Fraction(1), 1: Fraction(1)}
    v2 = {1: Fraction(3)}
    span.add(v1, "a")
    span.add(v2, "b")
    sol = span.solve({0: Fraction(2), 1: Fraction(5)})
    assert sol is not None
    assert sol["a"] == 2
    assert sol["b"] == 1
    assert span.solve({2: Fraction(1)}) is None


def test_over_tower_scalars():
    tw = make_tower([Algebraic("r2", [-2, 0, 1])])
    r2 = tw.gen("r2")
    cols = [{0: tw.value(1), 1: r2.val}, {0: r2.val, 1: tw.value(2)}]
    # col1 = r2 * col0: rank 1, kernel 1-dimensional
    assert rank_of(cols, tw) == 1
    ker = kernel_basis(cols, tw)
    assert len(ker) == 1
    c0, c1 = (Scalar(tw, ker[0].get(j, tw.value(0))) for j in (0, 1))
    assert c0 + c1 * r2 == 0 or c0 * r2 + c1 * 2 == 0


def test_random_consistency():
    rng = random.Random(17)
    for _ in range(20):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        cols = []
        for _ in range(m):
            col = {i: Fraction(rng.randint(-3, 3)) for i in range(n)}
            cols.append({k: v for k, v in col.items() if v})
        r = rank_of(cols, QQ)
        ker = kernel_basis(cols, QQ)
        assert r + len(ker) == m
        for k in ker:
            out = {}
            for j, c in k.items():
                for i, a in cols[j].items():
                    out[i] = out.get(i, Fraction(0)) + c * a
            assert all(v == 0 for v in out.values())


def test_kernel_basis_leaves_the_echelon_form_in_the_given_span():
    rng = random.Random(23)
    for _ in range(10):
        cols = [{i: Fraction(rng.randint(-2, 2)) for i in range(4)} for _ in range(6)]
        cols = [{k: v for k, v in c.items() if v} for c in cols]
        span = RowSpan(QQ, track=True)
        ker = kernel_basis(cols, QQ, span)
        assert span.rank == rank_of(cols, QQ) == len(cols) - len(ker)
        assert span.rows == _untracked_rows(cols)


def _untracked_rows(cols):
    span = RowSpan(QQ)
    for c in cols:
        span.add(c)
    return span.rows


# -- the in-place reduction against a copy-based reference


def _draw(tower, rng):
    """A nonzero raw value of tower: a small rational, or at the top level of
    Q(sqrt 2) or Q(t) also a small combination with the generator."""
    q = Fraction(rng.choice([1, 1, 1, 2, -1, -3]), rng.choice([1, 1, 2, 3]))
    if not tower.num_levels or rng.random() < 0.5:
        return tower.value(q)
    g = tower.gen(tower.names[-1])
    b = rng.randint(-2, 2)
    v = q + b * g if rng.random() < 0.8 else q / (g + b)
    return v.val if not v.is_zero() else tower.value(1)


def _vectors(tower, rng, count, width):
    """count sparse vectors over indices < width; some repeat an earlier
    vector's support, so that elimination meets dependent ones."""
    out = []
    for _ in range(count):
        keys = rng.sample(range(width), rng.randint(1, min(4, width)))
        if out and rng.random() < 0.3:
            keys = list(rng.choice(out))
        out.append({k: _draw(tower, rng) for k in keys})
    return out


def _state(span):
    """A span's rows and combinations, with key order and value types."""
    return repr((list((p, list(r.items())) for p, r in span.rows.items()),
                 list((p, list(c.items())) for p, c in span.combos.items())))


@pytest.mark.parametrize("tower", [QQ, make_tower([Algebraic("r2", [-2, 0, 1])]),
                                   make_tower([Transcendental("t")])], ids=["Q", "Q(r2)", "Q(t)"])
@pytest.mark.parametrize("track", [False, True])
def test_in_place_reduction_matches_the_copy_based_reference(tower, track):
    rng = random.Random(20261021 + track)
    for _ in range(15):
        width = rng.randint(2, 8)
        vecs = _vectors(tower, rng, rng.randint(1, 10), width)
        frozen = copy.deepcopy(vecs)
        span, ref = RowSpan(tower, track), ReferenceSpan(tower, track)
        for i, v in enumerate(vecs):
            assert span.add(v, i) == ref.add(v, i)
            assert _state(span) == _state(ref)
        # a second span sharing the rows leaves them as they were
        rows = copy.deepcopy(span.rows)
        shared, shared_ref = RowSpan(tower, track), ReferenceSpan(tower, track)
        shared.rows, shared_ref.rows = dict(span.rows), dict(ref.rows)
        for v in _vectors(tower, rng, 6, width + 2):
            got, want = span.reduce(v), ref.reduce(v)
            assert repr(got) == repr(want)
            assert repr(span.solve(v)) == repr(ref.solve(v))
            assert shared.add(v, "x") == shared_ref.add(v, "x")
            assert _state(shared) == _state(shared_ref)
        assert span.rows == rows and vecs == frozen
        # every inserted vector is solved for, exactly as the reference does
        if track:
            for i, v in enumerate(vecs):
                assert repr(span.solve(v)) == repr(ref.solve(v))
        # the kernel over the library's span and over the reference span
        echelon, echelon_ref = RowSpan(tower, True), ReferenceSpan(tower, True)
        ker = kernel_basis(vecs, tower, echelon)
        assert repr(ker) == repr(kernel_basis(vecs, tower, echelon_ref))
        assert _state(echelon) == _state(echelon_ref) and vecs == frozen
