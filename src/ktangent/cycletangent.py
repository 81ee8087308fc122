"""Formal tangent spaces of cycle groups and the maps between them.

The headline objects: the formal tangent space (cohomology of low-degree
forms relative to the rationals), the comparison map into forms relative
to the full scalar tower, and the scalar-extension map whose injectivity
is the point of the exercise.  Everything is certified by exact rank
computations on the window bases of the cochain engine.
"""

from .cech import (CechEngine, Sheaf, TruncationPolicy, cover_pn, extend_cover,
                   sheaf_cohomology)
from .complexes import tangent_deligne
from .differentials import base_change_kernel_letters, base_q, base_top
from .errors import Mismatch, NotNumberField, Unsupported, WindowOverflow
from .linalg import accumulate, rank_of
from .milnor import EpsSymbol, beta
from .scalars import Scalar, Transcendental


class TangentMapReport:
    """An exactly computed linear map between two cohomology spaces.

    Columns of ``matrix`` are the coordinates of the mapped source basis
    vectors in the target basis, found by residual elimination against the
    target's coboundary-plus-representative span.
    """

    __slots__ = ("name", "source", "target", "matrix", "kernel_dim",
                 "verdict", "vacuous", "kernel_letters")

    def __init__(self, name, source, target, matrix, kernel_dim, verdict,
                 vacuous, kernel_letters):
        self.name = name
        self.source = source
        self.target = target
        self.matrix = matrix
        self.kernel_dim = kernel_dim
        self.verdict = verdict
        self.vacuous = vacuous
        self.kernel_letters = kernel_letters

    def to_dict(self):
        return {
            "name": self.name,
            "source_dims": {str(k): v for k, v in self.source.dims.items()},
            "target_dims": {str(k): v for k, v in self.target.dims.items()},
            "matrix": [[str(c) for c in row] for row in self.matrix],
            "kernel_dim": self.kernel_dim,
            "verdict": self.verdict,
            "vacuous": self.vacuous,
            "kernel_letters": list(self.kernel_letters),
        }


def formal_tangent_chow(cover, p, policy):
    """Degree-p cohomology of (p-1)-forms relative to the rationals."""
    sheaf = Sheaf.forms(p - 1, base=base_q())
    return sheaf_cohomology(cover, sheaf, policy, require_stable=True)


def _verdict(cols, F):
    if not cols:
        return 0, "vacuous"
    kernel_dim = len(cols) - rank_of(({i: c for i, c in enumerate(col) if not F.is_zero(c)}
                                      for col in cols), F)
    return kernel_dim, ("injective" if kernel_dim == 0 else "not injective")


def _induced_map(name, src, tgt, p, letters):
    """The map on degree-p classes induced by carrying labels across windows.

    Each source representative is carried label by label into the target
    window, its coefficients lifted to the target's tower; a label carrying
    a base letter is dropped, since forms over the tower kill it.  Its
    column holds its coordinates in the target's representative basis,
    solved for against the target's coboundaries plus representatives.  The
    matrix entries leave as Scalars.
    """
    engine, src_cover = tgt.engine, src.engine.cover
    tower, src_tower = engine.cover.tower, src_cover.tower
    zero = tower.value(0)
    span, reps = engine.express_span(p)
    basis = src.engine.total_basis(p)
    index = engine.index(p)
    cols = []
    for vec in src.reps.get(p, []):
        img = {}
        for idx, c in vec.items():
            label = basis[idx]
            if src_cover.has_base_letters(label[3]):
                continue
            tidx = index.get(label)
            if tidx is None:
                raise Mismatch(f"label {label[3]} missing from the target window")
            img[tidx] = tower.lift(src_tower, c)
        sol = span.solve(img)
        if sol is None:
            raise Mismatch("a mapped class left the span of the target window")
        cols.append([sol.get(("rep", i), zero) for i in range(len(reps))])
    kernel_dim, verdict = _verdict(cols, tower)
    matrix = [[Scalar(tower, col[i]) for col in cols] for i in range(len(reps))]
    return TangentMapReport(name, src, tgt, matrix, kernel_dim, verdict,
                            not cols, letters)


def delta_r(cover, p, policy):
    """Compare forms relative to the rationals with forms over the tower.

    The map forgets the differentials of transcendental tower generators
    and keeps everything else; over a number field it is the identity on
    window labels.
    """
    src = formal_tangent_chow(cover, p, policy)
    tgt = sheaf_cohomology(cover, Sheaf.forms(p - 1), policy,
                           require_stable=True)
    letters = base_change_kernel_letters(cover.charts[0], base_q(),
                                         base_top(cover.tower))
    return _induced_map("delta_r", src, tgt, p, letters)


def complex_model(tower, count=2):
    """A finitely generated stand-in for a huge base field.

    Every identity the comparison uses -- flatness of the scalar extension
    and vanishing of d on the old base -- already holds over the tower
    extended by a few fresh transcendentals.
    """
    taken = set(tower.names)
    steps = []
    i = 1
    while len(steps) < count:
        name = f"t{i}"
        if name not in taken:
            steps.append(Transcendental(name))
        i += 1
    return tower.extend(steps)


def composed_infinitesimal(cover, p, policy, cmodel=None):
    """Scalar extension of the formal tangent space, with an exact rank check.

    Requires an all-algebraic scalar tower: there the forms relative to the
    rationals and relative to the tower agree, and extending the scalars
    preserves independence.  Towers with transcendental generators are
    refused, naming the differentials that the comparison would kill.
    """
    tower = cover.tower
    if not tower.is_number_field():
        letters = base_change_kernel_letters(cover.charts[0], base_q(),
                                             base_top(tower))
        raise NotNumberField(
            "scalar tower has transcendental generators; the comparison with "
            "forms relative to the tower kills " + ", ".join(letters))
    if cmodel is None:
        cmodel = complex_model(tower)
    if not tower.is_prefix_of(cmodel):
        raise Unsupported("the extension model must extend the cover's tower")
    src = sheaf_cohomology(cover, Sheaf.forms(p - 1), policy,
                           require_stable=True)
    big = extend_cover(cover, cmodel)
    tgt = sheaf_cohomology(big, Sheaf.forms(p - 1), policy,
                           require_stable=True)
    report = _induced_map("composed_infinitesimal", src, tgt, p, [])
    # an empty source is injectivity in its trivial form; the flag keeps
    # the distinction visible without weakening the verdict
    if report.verdict == "vacuous":
        report.verdict = "injective"
    return report


# ---------------------------------------------------------------------------
# symbols as cochains: the factorization of the symbol-to-class map


def symbol_cochain(engine, s):
    """The window vector of an eps-symbol: beta placed in the top corner.

    The symbol lives on the full intersection; its image sits in one spot
    of the total complex -- (cochain degree p, forms of degree p-1) -- and
    every other component is zero.
    """
    p = s.p
    cover = engine.cover
    full = tuple(range(len(cover.charts)))
    ring = cover.ring(full)
    if s.ring.varnames != ring.varnames:
        raise Unsupported("symbol entries must use the coordinates of the "
                          "smallest chart")
    w = beta(s)
    if p not in engine.rows or p > cover.qmax:
        raise Unsupported("the window carries no slot at the symbol position")
    index = engine.index(2 * p)
    lift, src = cover.tower.lift, w.ring.tower
    vec = {}
    for lab, c in cover.form_labels(full, w).items():
        idx = index.get((p, p, full, lab))
        if idx is None:
            raise WindowOverflow(f"symbol image {lab} escapes the window")
        vec[idx] = lift(src, c)
    return vec


def lambda_factorization_check(samples, p, policy=None, cover=None):
    """Symbol images land in a single slot, additively, and as cocycles."""
    if policy is None:
        policy = TruncationPolicy(2, 2)
    checks = []
    if not samples:
        raise Unsupported("need at least one sample symbol")
    ring0 = samples[0].ring
    if cover is None:
        if p not in (1, 2):
            raise Unsupported("built-in covers carry symbols for p in {1, 2}")
        cover = cover_pn(p, ring0.tower)
    if len(cover.charts) != p + 1:
        raise Unsupported("the symbol position is the top corner: the cover "
                          "needs exactly p+1 charts")
    cx = tangent_deligne(p, cover.charts[0])
    rows = {i: cx.terms[i][0] for i in cx.degrees()}
    engine = CechEngine(cover, rows, cx.base, 0, policy.D)
    k = 2 * p

    vecs = []
    windowed = True
    witness = None
    for s in samples:
        try:
            vecs.append(symbol_cochain(engine, s))
        except WindowOverflow as exc:
            windowed = False
            witness = str(exc)
            break
    checks.append({"name": "window", "status": "pass" if windowed else "fail",
                   **({"witness": witness} if witness else {})})
    if not windowed:
        return {"name": "lambda factorization", "p": p, "count": len(samples),
                "status": "fail", "checks": checks}

    basis = engine.total_basis(k)
    support_ok = all(basis[idx][:2] == (p, p) for vec in vecs for idx in vec)
    checks.append({"name": "single slot",
                   "status": "pass" if support_ok else "fail"})

    cocycle_ok = all(not engine.apply(k, vec) for vec in vecs)
    checks.append({"name": "cocycle",
                   "status": "pass" if cocycle_ok else "fail"})

    zero = symbol_cochain(engine, EpsSymbol(ring0, p, []))
    checks.append({"name": "zero symbol",
                   "status": "pass" if zero == {} else "fail"})

    additive = True
    for s1, s2 in zip(samples, samples[1:]):
        left = symbol_cochain(engine, s1 * s2)
        right = symbol_cochain(engine, s1)
        for idx, c in symbol_cochain(engine, s2).items():
            accumulate(right, idx, c, cover.tower)
        if left != right:
            additive = False
            break
    checks.append({"name": "additivity",
                   "status": "pass" if additive else "fail"})

    status = "pass" if all(c["status"] == "pass" for c in checks) else "fail"
    return {"name": "lambda factorization", "p": p, "count": len(samples),
            "status": status, "checks": checks}
