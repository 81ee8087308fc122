"""Per-layer tracing from outside the package.

The tracer wraps public functions and methods of ``ktangent`` after import.
Because the package binds names with ``from .x import y``, a module function
is replaced in every ``ktangent`` module namespace that holds it (for
example ``mp_gcd`` in ``mpoly``, ``funcrings`` and ``cech``); a method is
replaced on its class.

Every wrapped call is timed.  Self time is the call's duration minus the time
its traced children cover.  Inclusive time is summed only over outermost
calls (not nested in a call of the same metric group), so recursion and
helper layering are not double-counted.  Coarse calls also keep a span
``(name, start, end, parent span, check id)`` in memory; micro operations
(Scalar arithmetic, MPoly multiply, gcd, RingElem construction, RowSpan steps,
column builds, d and wedge) are aggregated only, to keep memory bounded.
"""

import sys
from time import perf_counter

FAILED = object()  # the result a hook sees when the wrapped call raised


class Tracer:
    def __init__(self):
        self.on = False
        self.stack = []        # one [child_time, span_id] per active traced call
        self.depth = {}        # metric group -> number of active calls
        self.stats = {}        # (target, variant) -> [calls, outer calls, inclusive s, self s]
        self.counts = {}       # extra counters filled by hooks
        self.spans = []        # [name, start, end, parent span, check id]
        self.span_ids = []     # ids of the active calls that keep spans
        self.check = None
        self.policy_D = []     # window D of the enclosing cohomology call
        self.engines = []      # keeps traced engines alive so ids stay unique
        self.columns = set()
        self.kinds = {}        # id(tower) -> (tower, kind)
        self.missing = []

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def tower_kind(self, tw):
        hit = self.kinds.get(id(tw))
        if hit is None:
            steps = tw.steps
            kind = ("rational" if not steps else
                    "function_field" if any(s[0] == "tr" for s in steps)
                    else "number_field")
            hit = self.kinds[id(tw)] = (tw, kind)
        return hit[1]

    # -- the wrapped call -------------------------------------------------

    def wrap(self, fn, target, group, masks=(), span=False, variant=None,
             before=None, after=None):
        tracer = self
        stack, depth, stats = self.stack, self.depth, self.stats
        depth.setdefault(group, 0)
        for m in masks:
            depth.setdefault(m, 0)

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            outer = not depth[group] and not any(depth[m] for m in masks)
            depth[group] += 1
            frame = [0.0, None]
            if span:
                frame[1] = len(tracer.spans)
                parent = tracer.span_ids[-1] if tracer.span_ids else None
                tracer.spans.append([target, 0.0, 0.0, parent, tracer.check])
                tracer.span_ids.append(frame[1])
            if before is not None:
                before(tracer, args, kwargs)
            stack.append(frame)
            res = FAILED
            t0 = perf_counter()
            try:
                res = fn(*args, **kwargs)
                return res
            finally:
                t1 = perf_counter()
                stack.pop()
                depth[group] -= 1
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                if span:
                    tracer.span_ids.pop()
                    rec = tracer.spans[frame[1]]
                    rec[1], rec[2] = t0, t1
                key = (target, variant(tracer, args, res) if variant else "")
                st = stats.get(key)
                if st is None:
                    st = stats[key] = [0, 0, 0.0, 0.0]
                st[0] += 1
                st[3] += dur - frame[0]
                if outer:
                    st[1] += 1
                    st[2] += dur
                if after is not None:
                    after(tracer, args, kwargs, res)

        traced.__wrapped__ = fn
        return traced

    def run_check(self, check_id, thunk):
        """Run one check as the root span of its own subtree."""
        self.check = check_id
        run = self.wrap(thunk, "check", "check", span=True)
        try:
            return run()
        finally:
            self.check = None

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every target in the currently imported ``ktangent`` modules."""
        pkg = [m for n, m in sorted(sys.modules.items())
               if n == "ktangent" or n.startswith("ktangent.")]
        wrapped = {}
        for t in TARGETS:
            mod = sys.modules.get("ktangent." + t["module"])
            owner_name, _, attr = t["path"].rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = (owner.__dict__.get(attr) if isinstance(owner, type)
                    else getattr(owner, attr, None)) if owner is not None else None
            if not callable(orig):
                self.missing.append(t["module"] + "." + t["path"])
                continue
            if orig in wrapped.values():
                continue  # an alias such as __radd__ = __add__, already wrapped
            if orig not in wrapped:
                opts = {k: v for k, v in t.items() if k not in ("module", "path")}
                wrapped[orig] = self.wrap(orig, **opts)
            if isinstance(owner, type):
                for name, val in list(vars(owner).items()):
                    if val is orig:
                        setattr(owner, name, wrapped[orig])
            else:
                for m in pkg:
                    for name, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, name, wrapped[orig])

    # -- reading the result -----------------------------------------------

    def total(self, targets, field, variant=None):
        """Sum one stats field (0 calls, 1 outer calls, 2 inclusive, 3 self)."""
        return sum(st[field] for (t, v), st in self.stats.items()
                   if t in targets and (variant is None or v == variant))

    def self_sum(self):
        return sum(st[3] for st in self.stats.values())

    def table(self):
        """Every (target, variant) with calls, outer calls, inclusive and self s."""
        return {f"{t}{'/' + v if v else ''}": {"calls": st[0], "outer": st[1],
                                                "incl_s": st[2], "self_s": st[3]}
                for (t, v), st in sorted(self.stats.items())}

    def layer_metrics(self):
        """The per-layer metrics of one traced pass, by name."""
        T, c = self.total, self.counts.get
        scal = ("Scalar.op", "Scalar.inv")
        adds = T(("RowSpan.add",), 0)
        distinct = len(self.columns)
        columns = T(("CechEngine.column",), 0)
        out = {
            "scalars.ops": T(scal, 0),
            "scalars.inv": T(("Scalar.inv",), 0),
            "mpoly.gcd_calls": T(("mp_gcd",), 1),
            "mpoly.gcd_nontrivial": T(("mp_gcd",), 1, "nontrivial"),
            "mpoly.gcd_s.trivial": T(("mp_gcd",), 2, "trivial"),
            "mpoly.gcd_s.nontrivial": T(("mp_gcd",), 2, "nontrivial"),
            "mpoly.mul_calls": T(("MPoly.__mul__",), 0),
            "mpoly.mul_s": T(("MPoly.__mul__",), 2),
            "funcrings.elem_new": T(("RingElem.__init__",), 0),
            "funcrings.elem_new_s": T(("RingElem.__init__",), 3),
            "funcrings.ring_new_s": T(("FunctionRing.__init__",), 2),
            "differentials.d_calls": T(("d",), 0),
            "differentials.d_s": T(("d",), 2),
            "differentials.wedge_calls": T(("wedge",), 0),
            "differentials.wedge_s": T(("wedge",), 2),
            "differentials.base_change_s": T(("base_change",), 2),
            "milnor.beta_s": T(("beta",), 2),
            "milnor.tilde_dlog_s": T(("tilde_dlog",), 2),
            "milnor.truncation_s": T(("beta_via_truncation",), 2),
            "milnor.absolute_s": T(("eps_to_absolute",), 2),
            "milnor.relation_s": T(("relation_check",), 2),
            "complexes.diagram_s": T(("alpha_delta_diagram",), 2),
            "complexes.tangent_deligne_s": T(("tangent_deligne",), 2),
            "linalg.adds": adds,
            "linalg.pivots": c("pivots", 0),
            "linalg.pivot_ratio": c("pivots", 0) / adds if adds else 0.0,
            "linalg.reduces": T(("RowSpan.reduce",), 0),
            "linalg.untracked_s": T(("RowSpan.add", "RowSpan.reduce", "RowSpan.solve"),
                                    2, "untracked"),
            "linalg.tracked_s": T(("RowSpan.add", "RowSpan.reduce", "RowSpan.solve"),
                                  2, "tracked"),
            "linalg.kernel_s": T(("kernel_basis",), 2),
            "cech.engines": T(("CechEngine.__init__",), 0),
            "cech.labels": c("labels", 0),
            "cech.columns": columns,
            "cech.column_rebuild_ratio": columns / distinct if distinct else 0.0,
            "cech.column_s": T(("CechEngine.column",), 2),
            "cech.dims_lo_s": T(("CechEngine.dim_at",), 2, "lo"),
            "cech.dims_hi_s": T(("CechEngine.dim_at",), 2, "hi"),
            "cech.reps_s": T(("CechEngine.representatives", "CechEngine.express_span"), 2),
            "cech.cover_s": T(("cover",), 2),
            "cech.extend_cover_s": T(("extend_cover",), 2),
            "cycletangent.composed_s": T(("composed_infinitesimal",), 2),
            "cycletangent.delta_r_s": T(("delta_r",), 2),
            "parser.load_s": T(("load_instance",), 2),
            "cli.render_s": T(("make_report", "render_json"), 2),
            "cli.report_bytes": c("report_bytes", 0),
        }
        for kind in ("rational", "number_field", "function_field"):
            out[f"scalars.self_s.{kind}"] = T(scal, 3, kind)
        return out


# -- hooks ------------------------------------------------------------------


def _scalar_kind(tr, args, res):
    return tr.tower_kind(args[0].tower)


def _gcd_kind(tr, args, res):
    return "trivial" if res is FAILED or res.is_constant() else "nontrivial"


def _tracked(tr, args, res):
    return "tracked" if args[0].track else "untracked"


def _pivot(tr, args, kwargs, res):
    if res is not None and res is not FAILED:
        tr.count("pivots")


def _engine_built(tr, args, kwargs, res):
    if res is FAILED:
        return
    engine = args[0]
    tr.engines.append(engine)
    tr.count("labels", sum(len(engine.total_basis(k)) for k in engine.degree_range()))


def _column_built(tr, args, kwargs, res):
    if res is not FAILED:
        tr.columns.add((id(args[0]),) + tuple(args[1:]))


def _window(tr, args, res):
    engine = args[0]
    return "hi" if tr.policy_D and engine.D > tr.policy_D[-1] else "lo"


def _enter_policy(tr, args, kwargs):
    policy = args[2] if len(args) > 2 else kwargs.get("policy")
    tr.policy_D.append(policy.D)


def _leave_policy(tr, args, kwargs, res):
    tr.policy_D.pop()


def _rendered(tr, args, kwargs, res):
    if isinstance(res, str):
        tr.count("report_bytes", len(res.encode("utf-8")))


def _t(module, path, target, group=None, **opts):
    return dict(module=module, path=path, target=target, group=group or target, **opts)


_SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__neg__", "__pow__")
_LINALG = "linalg"

TARGETS = (
    [_t("scalars", f"Scalar.{m}", "Scalar.op", "scalars", variant=_scalar_kind)
     for m in _SCALAR_OPS]
    + [_t("scalars", f"Scalar.{m}", "Scalar.inv", "scalars", variant=_scalar_kind)
       for m in ("inv", "__truediv__", "__rtruediv__")]
    + [
        _t("mpoly", "mp_gcd", "mp_gcd", variant=_gcd_kind),
        _t("mpoly", "MPoly.__mul__", "MPoly.__mul__"),
        _t("funcrings", "RingElem.__init__", "RingElem.__init__"),
        _t("funcrings", "FunctionRing.__init__", "FunctionRing.__init__", span=True),
        _t("differentials", "d", "d"),
        _t("differentials", "wedge", "wedge"),
        _t("differentials", "base_change", "base_change", span=True),
        _t("milnor", "beta", "beta", span=True),
        _t("milnor", "tilde_dlog", "tilde_dlog", span=True),
        _t("milnor", "beta_via_truncation", "beta_via_truncation", span=True),
        _t("milnor", "eps_to_absolute", "eps_to_absolute", span=True),
        _t("milnor", "relation_check", "relation_check", span=True),
        _t("complexes", "alpha_delta_diagram", "alpha_delta_diagram", span=True),
        _t("complexes", "tangent_deligne", "tangent_deligne", span=True),
        _t("linalg", "RowSpan.add", "RowSpan.add", _LINALG, variant=_tracked,
           after=_pivot),
        _t("linalg", "RowSpan.reduce", "RowSpan.reduce", _LINALG, variant=_tracked),
        _t("linalg", "RowSpan.solve", "RowSpan.solve", _LINALG, variant=_tracked),
        _t("linalg", "kernel_basis", "kernel_basis", _LINALG),
        _t("cech", "CechEngine.__init__", "CechEngine.__init__", span=True,
           after=_engine_built),
        _t("cech", "CechEngine.column", "CechEngine.column", after=_column_built),
        _t("cech", "CechEngine.dim_at", "CechEngine.dim_at", span=True, variant=_window),
        _t("cech", "CechEngine.representatives", "CechEngine.representatives",
           "cech.reps", span=True),
        _t("cech", "CechEngine.express_span", "CechEngine.express_span",
           "cech.reps", span=True),
        _t("cech", "cover_pn", "cover", masks=("extend_cover",), span=True),
        _t("cech", "cover_plane_curve", "cover", masks=("extend_cover",), span=True),
        _t("cech", "extend_cover", "extend_cover", span=True),
        _t("cech", "sheaf_cohomology", "sheaf_cohomology", "cech.run", span=True,
           before=_enter_policy, after=_leave_policy),
        _t("cech", "hypercohomology", "hypercohomology", "cech.run", span=True,
           before=_enter_policy, after=_leave_policy),
        _t("cycletangent", "composed_infinitesimal", "composed_infinitesimal", span=True),
        _t("cycletangent", "delta_r", "delta_r", span=True),
        _t("parser", "load_instance", "load_instance", span=True),
        _t("cli", "make_report", "make_report", "cli.render", span=True),
        _t("cli", "render_json", "render_json", "cli.render", span=True,
           after=_rendered),
    ]
)
