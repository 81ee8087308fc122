"""Sparse exact Gaussian elimination over a field given by its arithmetic.

Vectors are dicts mapping integer indices to nonzero coefficients.  Every
function takes the field ``F`` whose arithmetic it uses: ``F.add``,
``F.sub``, ``F.mul``, ``F.neg``, ``F.inv`` and ``F.is_zero`` on its raw
values, and ``F.value(n)`` for the value of a rational.  A ``Tower`` binds
these for its top level (over Q the plain operators on ints and
``Fraction``s, with no ``int / int``: inverses come from ``F.inv``), and a
``FunctionRing`` for its elements.  RowSpan keeps an incremental echelon
basis and can track how each stored row decomposes over the originally
inserted vectors, which is what cohomology representatives and induced-map
matrices are read from.
"""

from __future__ import annotations


def accumulate(vec, key, val, F):
    """vec[key] += val in place, keeping vec free of zero entries."""
    cur = vec.get(key)
    s = val if cur is None else F.add(cur, val)
    if F.is_zero(s):
        vec.pop(key, None)
    else:
        vec[key] = s


class RowSpan:
    """Incremental row echelon form with optional combination tracking."""

    __slots__ = ("field", "rows", "combos", "track")

    def __init__(self, field, track=False):
        self.field = field
        self.rows = {}
        self.combos = {}
        self.track = track

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vec):
        """Return (residual, expansion): vec = residual + sum expansion[t]*original_t.

        A stored row without a combination (one copied in untracked)
        contributes nothing to the expansion.
        """
        F = self.field
        sub, mul, neg, is_zero = F.sub, F.mul, F.neg, F.is_zero
        rows = self.rows
        v = dict(vec)
        expansion = {}
        while v:
            hits = [k for k in v if k in rows]
            if not hits:
                break
            p = min(hits)
            c = v.pop(p)  # stored rows have pivot coefficient 1
            # v -= c * row in place; the stored row itself is never written
            for k, a in rows[p].items():
                if k == p:
                    continue
                b = v.get(k)
                if b is None:  # c and a are nonzero, and so is their product
                    v[k] = neg(mul(c, a))
                    continue
                val = sub(b, mul(c, a))
                if is_zero(val):
                    del v[k]
                else:
                    v[k] = val
            if self.track:
                for t, a in self.combos.get(p, {}).items():
                    accumulate(expansion, t, mul(c, a), F)
        return v, expansion

    def add(self, vec, tag=None):
        """Insert vec; returns the new pivot index or None if dependent."""
        res, expansion = self.reduce(vec)
        if not res:
            return None
        return self._insert(res, expansion, tag)

    def _insert(self, res, expansion, tag):
        """Store a nonzero residual that ``reduce`` returned with ``expansion``."""
        F = self.field
        mul = F.mul
        p = min(res)
        if res[p] == 1:  # already scaled: store the residual as it stands
            ic = F.value(1)
            self.rows[p] = res
        else:
            ic = F.inv(res[p])
            self.rows[p] = {k: mul(a, ic) for k, a in res.items()}
        if self.track:
            combo = {t: F.neg(mul(a, ic)) for t, a in expansion.items()}
            prev = combo.get(tag)
            combo[tag] = F.add(prev, ic) if prev is not None else ic
            self.combos[p] = combo
        return p

    def solve(self, vec):
        """Expansion of vec over the original inserted vectors, or None."""
        res, expansion = self.reduce(vec)
        if res:
            return None
        return expansion


def rank_of(vectors, F):
    span = RowSpan(F)
    for v in vectors:
        span.add(v)
    return span.rank


def kernel_basis(cols, F, span=None):
    """Kernel of the map e_j -> cols[j]; vectors are dicts over column index.

    The free coordinate of each kernel vector is ``F.value(1)``.  The
    columns are eliminated into ``span`` (an empty tracked RowSpan over F,
    made here when not given), which afterwards holds their echelon form.
    """
    if span is None:
        span = RowSpan(F, track=True)
    one, neg = F.value(1), F.neg
    out = []
    for j, col in enumerate(cols):
        res, expansion = span.reduce(col)
        if res:
            span._insert(res, expansion, j)
            continue
        ker = {t: neg(a) for t, a in expansion.items()}
        ker[j] = one
        out.append(ker)
    return out
