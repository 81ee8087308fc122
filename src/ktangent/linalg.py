"""Sparse exact Gaussian elimination over any field-like coefficients.

Vectors are dicts mapping integer indices to nonzero coefficients; the
coefficient type only needs +, -, *, /, bool (Fraction and Scalar both
qualify).  RowSpan keeps an incremental echelon basis and can track how
each stored row decomposes over the originally inserted vectors, which is
what cohomology representatives and induced-map matrices are read from.
"""

from __future__ import annotations


def accumulate(vec, key, val):
    """vec[key] += val in place, keeping vec free of zero entries."""
    cur = vec.get(key)
    s = val if cur is None else cur + val
    if s:
        vec[key] = s
    else:
        vec.pop(key, None)


def vec_sub_scaled(v, c, w):
    """v - c*w, in place on a copy of v."""
    out = dict(v)
    for k, a in w.items():
        b = out.get(k)
        val = (b - c * a) if b is not None else -(c * a)
        if val:
            out[k] = val
        else:
            out.pop(k, None)
    return out


class RowSpan:
    """Incremental row echelon form with optional combination tracking."""

    __slots__ = ("rows", "combos", "track")

    def __init__(self, track=False):
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
        v = dict(vec)
        expansion = {}
        while v:
            hits = [k for k in v if k in self.rows]
            if not hits:
                break
            p = min(hits)
            c = v[p]  # stored rows have pivot coefficient 1
            v = vec_sub_scaled(v, c, self.rows[p])
            v.pop(p, None)
            if self.track:
                for t, a in self.combos.get(p, {}).items():
                    accumulate(expansion, t, c * a)
        return v, expansion

    def add(self, vec, tag=None):
        """Insert vec; returns the new pivot index or None if dependent."""
        res, expansion = self.reduce(vec)
        if not res:
            return None
        return self._insert(res, expansion, tag)

    def _insert(self, res, expansion, tag):
        """Store a nonzero residual that ``reduce`` returned with ``expansion``."""
        p = min(res)
        ic = 1 / res[p]
        self.rows[p] = {k: a * ic for k, a in res.items()}
        if self.track:
            combo = {t: -(a * ic) for t, a in expansion.items()}
            prev = combo.get(tag)
            combo[tag] = (prev + ic) if prev is not None else ic
            self.combos[p] = combo
        return p

    def solve(self, vec):
        """Expansion of vec over the original inserted vectors, or None."""
        res, expansion = self.reduce(vec)
        if res:
            return None
        return expansion


def rank_of(vectors):
    span = RowSpan()
    for v in vectors:
        span.add(v)
    return span.rank


def kernel_basis(cols, one=1, span=None):
    """Kernel of the map e_j -> cols[j]; vectors are dicts over column index.

    ``one`` is the multiplicative unit of the coefficient type, so that the
    free coordinate of each kernel vector matches the rest exactly.  The
    columns are eliminated into ``span`` (an empty tracked RowSpan, made
    here when not given), which afterwards holds their echelon form.
    """
    if span is None:
        span = RowSpan(track=True)
    out = []
    for j, col in enumerate(cols):
        res, expansion = span.reduce(col)
        if res:
            span._insert(res, expansion, j)
            continue
        ker = {t: -a for t, a in expansion.items()}
        ker[j] = one
        out.append(ker)
    return out
