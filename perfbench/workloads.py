"""The three benchmark workloads: inputs from a seed, timed checks, gates.

A workload is used in three steps per pass:

* ``setup(kt, seed)`` builds the pass's inputs from the seed with the freshly
  imported package ``kt`` (a namespace of ``ktangent`` modules).  It is timed
  as part of ``setup_s`` and never traced.
* ``checks(kt, inputs)`` returns ``(check_id, thunk)`` pairs.  Each thunk is
  one timed check; it returns a raw outcome and does no judging.
* ``judge(kt, inputs, outcomes, memory)`` returns one failure message (or
  ``None``) per check, plus the failures of whole-pass gates.  ``memory`` is
  a dict kept across the passes of one run, for byte-identity gates.

Thunks look every library function up through its module at call time, so
the tracer's wrappers, installed after set-up, see every call.
"""

import json
import os
import random

# seeded inputs ---------------------------------------------------------------

# Short Weierstrass cubics y^2 = x^3 + b x + c.  c != 0 because the second
# chart of the cover needs g(0) != 0; b != 0 leaves out the j = 0 curves
# y^2 = x^3 + c, whose composed map costs about half as much as the rest, so
# that the seed moves the cost little.  (b, c) = (-3, +-2) is singular.
CUBIC_B = (-3, -2, -1, 1, 2, 3)
CUBIC_C = (-2, -1, 1, 2)
SQUAREFREE = (2, 3, 5, 6, 7)


def draw_cubic(kt, seed):
    """A smooth cubic y^2 = x^3 + b x + c drawn from the seed.

    Singular draws are rejected by the library itself: building the cover
    raises ``SingularRelation`` when g and g' share a root.  Returns
    ``((0, b, c), cover over Q, rejected draws)``.
    """
    rng = random.Random(f"{seed}:cubic")
    qq = kt.scalars.make_tower([])
    rejected = []
    while True:
        abc = (0, rng.choice(CUBIC_B), rng.choice(CUBIC_C))
        try:
            cover = kt.cech.cover_plane_curve(kt.cech.weierstrass_cubic(qq, *abc), qq)
        except kt.errors.SingularRelation:
            rejected.append(list(abc))
            continue
        return abc, cover, rejected


def draw_squarefree(seed):
    return random.Random(f"{seed}:sqrt").choice(SQUAREFREE)


# symbols -----------------------------------------------------------------------


class Symbols:
    """The acceptance criteria's epsilon-symbol checks, over Q, Q(sqrt 2), Q(t).

    Why: nearly all of the time is RingElem canonicalisation (mp_gcd), d and
    wedge, and the Milnor maps; no Cech engine or elimination runs.  The
    Q(t) third of each family forms the latency tail.

    The instances are the first sixth of those of criteria 1-5 (the first
    9 of the 51 symbols of each of the suites' families, the first 24 of
    their 134 relation instances, both at ``suites.DEFAULT_SEED``, and the
    diagram for p = 2, 3, 4; 108 checks), rebuilt with the public suites
    helpers and timed one by one; the seed sets the order in which they
    run.  A sixth keeps a pass near 3 s, so that a run holds enough passes
    to take each check at its fastest (see ``run.end_to_end``).  The seed does not set the family
    seed: about one fresh seed in twenty draws a Q(t) symbol whose gcd runs
    for minutes, and a sample of the families makes the cost depend on
    whether a few heavy instances are drawn.
    """

    name = "symbols"
    FAMILIES = ("codifferential", "beta agreement", "absolute square")
    PS = (2, 3, 4)
    RELATION_KINDS = ("steinberg", "bilinear", "skew", "eps_additive")

    def __init__(self, family_size=9, relation_count=24, diagram_ps=(2, 3, 4)):
        self.family_size = family_size
        self.relation_count = relation_count
        self.diagram_ps = tuple(diagram_ps)

    def setup(self, kt, seed):
        suites = kt.suites
        base = suites.DEFAULT_SEED
        rings = [(label, tw, suites.symbol_ring(tw))
                 for label, tw in suites.standard_towers()]
        pools = [suites.unit_pool(ring) for _, _, ring in rings]
        ntw = len(rings)
        items = []
        for p in self.PS:
            # the one family that every identity suite draws for this p
            rng = random.Random(base + p)
            for i in range(self.family_size):
                label, tw, ring = rings[i % ntw]
                s = suites.random_symbol(rng, ring, p, pools[i % ntw])
                items += [(f"{fam} p={p}", label, tw, s) for fam in self.FAMILIES]
        rng = random.Random(base)
        for i in range(self.relation_count):
            label, tw, ring = rings[i % ntw]
            kind = self.RELATION_KINDS[i % len(self.RELATION_KINDS)]
            data = self._relation_data(rng, ring, pools[i % ntw], kind)
            items.append(("relations", label, tw, (kind, ring) + data))
        qq3 = kt.funcrings.FunctionRing(kt.scalars.make_tower([]), ("x", "y", "z"))
        for p in self.diagram_ps:
            items.append((f"comparison diagram p={p}", "rationals", None, (p, qq3)))
        random.Random(f"{seed}:order").shuffle(items)
        return {"items": items, "seed": seed}

    @staticmethod
    def _relation_data(rng, ring, pool, kind):
        # the same instance shapes as suites.relations_suite
        p = rng.choice((2, 3))
        rest = tuple(rng.choice(pool) for _ in range(p - 2))
        if kind == "steinberg":
            a, b = rng.choice(pool), rng.choice(pool)
            if (a + b).is_zero():
                b = b + ring.one()
            return p, (a / (a + b), rest)
        if kind in ("bilinear", "skew"):
            return p, (rng.choice(pool), rng.choice(pool) + 3, rest)
        a = rng.choice(pool) + rng.choice((0, 1))
        b = rng.choice(pool)
        return p, (a, b, tuple(rng.choice(pool) for _ in range(p - 1)))

    def describe(self, inputs):
        return {"checks": len(inputs["items"]), "family_size": self.family_size,
                "relation_count": self.relation_count,
                "diagram_ps": list(self.diagram_ps),
                "first_checks": [f"{fam} {label}" for fam, label, _, _ in inputs["items"][:3]]}

    def checks(self, kt, inputs):
        out = []
        for n, (family, label, tw, data) in enumerate(inputs["items"]):
            out.append((f"{n}:{family}:{label}", self._thunk(kt, family, tw, data)))
        return out

    @staticmethod
    def _thunk(kt, family, tw, data):
        milnor, diff = kt.milnor, kt.differentials
        if family.startswith("codifferential"):
            return lambda: milnor.check_codifferential(data)["status"] == "pass"
        if family.startswith("beta agreement"):
            return lambda: (milnor.beta_via_truncation(data)
                            - milnor.beta(data)).is_zero()
        if family.startswith("absolute square"):
            return lambda: (diff.base_change(milnor.eps_to_absolute(data),
                                             diff.base_top(tw))
                            - milnor.beta(data)).is_zero()
        if family == "relations":
            kind, ring, p, args = data

            def relation():
                ok = milnor.relation_check(kind, ring, p, args)["status"] == "pass"
                if kind == "eps_additive":
                    a, b, tails = args
                    E = milnor.EpsSymbol
                    s = E.of(a + b, tails) * E.of(a, tails).inv() * E.of(b, tails).inv()
                    ok = ok and milnor.eps_to_absolute(s).is_zero()
                return ok
            return relation
        p, ring = data
        return lambda: kt.complexes.alpha_delta_diagram(p, ring)["status"] == "pass"

    def judge(self, kt, inputs, outcomes, memory):
        fails, groups = [], {}
        for (family, label, _, data), (ok, err) in zip(inputs["items"], outcomes):
            bad = err or (None if ok is True else f"{family} {label}: check failed")
            fails.append(bad)
            groups.setdefault(family, []).append(bad)
        # the aggregated report, rendered as the CLI renders it, must be
        # byte-identical on every pass of the run
        checks = [{"name": fam, "status": "fail" if any(bad) else "pass",
                   "count": len(bad), "witnesses": [b for b in bad if b][:3]}
                  for fam, bad in sorted(groups.items())]
        report = kt.cli.make_report("symbols", {"seed": inputs["seed"]}, checks)
        payload = kt.cli.render_json(report).encode("utf-8")
        first = memory.setdefault("report", payload)
        gates = [None if payload == first else "symbols report bytes changed between passes"]
        return fails, gates


# cech_q ----------------------------------------------------------------------


class CechQ:
    """The stabilisation gate over Q, dimensions only, at wide windows.

    Why: the timed part is CechEngine column builds and untracked RowSpan
    elimination over Fraction; no gcd, RingElem or Scalar work runs (covers
    are built in set-up).  Window sizes are chosen so that elimination
    dominates; the seeded cubic gets a smaller window so that the seed's
    share of the cost stays small.
    """

    name = "cech_q"

    def __init__(self, d_line=20, d_plane=20, d_curve=8, delta=2,
                 twists=range(-5, 6), splittings=(("plane", 1), ("plane", 2),
                                                  ("cubic", 1))):
        self.d_line, self.d_plane, self.d_curve = d_line, d_plane, d_curve
        self.delta = delta
        self.twists = tuple(twists)
        self.splittings = tuple(splittings)

    def setup(self, kt, seed):
        qq = kt.scalars.make_tower([])
        abc, cubic, rejected = draw_cubic(kt, seed)
        specs = self._specs()
        random.Random(f"{seed}:order").shuffle(specs)
        return {"covers": {"line": kt.cech.cover_pn(1, qq),
                           "plane": kt.cech.cover_pn(2, qq), "cubic": cubic},
                "specs": specs, "abc": abc, "rejected": rejected}

    def describe(self, inputs):
        return {"cubic_abc": list(inputs["abc"]), "rejected_cubics": inputs["rejected"],
                "checks": [spec[0] for spec in inputs["specs"]],
                "D": {"line": self.d_line, "plane": self.d_plane, "cubic": self.d_curve},
                "delta": self.delta}

    def _specs(self):
        """(check id, cover, what, argument, window D, expected dims)."""
        out = []
        for d in self.twists:
            out.append((f"P1 O({d})", "line", "twist", d, max(self.d_line, abs(d)),
                        {0: max(d + 1, 0), 1: max(-d - 1, 0)}))
        for r in range(3):
            out.append((f"P2 Omega^{r}", "plane", "forms", r, self.d_plane,
                        {q: int(q == r) for q in range(3)}))
        out.append(("cubic O", "cubic", "forms", 0, self.d_curve, {0: 1, 1: 1}))
        for cover, p in self.splittings:
            D = self.d_plane if cover == "plane" else self.d_curve
            out.append((f"splitting {cover} p={p}", cover, "split", p, D, None))
        return out

    def checks(self, kt, inputs):
        cech = kt.cech
        out = []
        for cid, cover, what, arg, D, _ in inputs["specs"]:
            cv = inputs["covers"][cover]
            policy = cech.TruncationPolicy(D, self.delta)
            if what == "split":
                thunk = (lambda cv=cv, p=arg, pol=policy:
                         cech.verify_splitting(p, cv, pol))
            else:
                thunk = (lambda cv=cv, what=what, arg=arg, pol=policy:
                         cech.sheaf_cohomology(
                             cv, cech.Sheaf.twisted(arg) if what == "twist"
                             else cech.Sheaf.forms(arg), pol, with_reps=False))
            out.append((cid, thunk))
        return out

    def judge(self, kt, inputs, outcomes, memory):
        fails = []
        for (cid, _, what, _, _, want), (rep, err) in zip(inputs["specs"], outcomes):
            if err:
                fails.append(err)
            elif what == "split":
                ok = rep["status"] == "pass" and rep["stabilized"] is True
                fails.append(None if ok else f"{cid}: {rep['status']}, "
                             f"stabilized={rep['stabilized']}")
            elif rep.dims != want or not rep.stabilized:
                fails.append(f"{cid}: dims {rep.dims} (want {want}), "
                             f"stabilized={rep.stabilized}")
            else:
                fails.append(None)
        return fails, []


# commands --------------------------------------------------------------------

_INSTANCE = """\
{tower}[cover]
kind = {kind}
{extra}
[policy]
D = 2
delta = 2

[checks]
p = 1
"""

_H_O = {"p1": [1, 0], "p2": [1, 0, 0], "elliptic": [1, 1]}


class Commands:
    """Every cover command through ``cli.main``, in-process, report to a file.

    Why: this is a user's latency.  Each call pays instance parsing, cover
    construction, extend_cover, tower Scalar arithmetic, tracked spans and
    report rendering; the same linalg layer as cech_q, used tracked and over
    towers instead of untracked over Q.

    The tower instances over Q(sqrt n) and Q(sqrt n)(t1)(t2) are on P^1:
    their P^2 versions take 4 s and 3 s, which would make a pass 12 s and
    leave too few passes in a run to take each check at its fastest (see
    ``run.end_to_end``).  On P^1 they take about 0.5 s and 0.4 s and pay the
    same number-field and function-field Scalar arithmetic.
    """

    name = "commands"
    COVER_COMMANDS = (("verify", "lemma2.4"), ("cech",), ("hypercoh",),
                      ("tangent-chow",), ("delta-r",), ("composed",))

    def __init__(self, builtins=("p1", "p2", "elliptic"), extras=True):
        self.builtins = tuple(builtins)
        self.extras = extras

    def setup(self, kt, seed):
        n = draw_squarefree(seed)
        abc, _, rejected = draw_cubic(kt, seed)
        work = kt.workdir
        files = {
            "sqrt": _INSTANCE.format(tower=f"[tower]\ngen r = algebraic -{n}, 0, 1\n\n",
                                     kind="projective-line", extra=""),
            "cubic": _INSTANCE.format(tower="", kind="plane-curve",
                                      extra="weierstrass = {}, {}, {}\n".format(*abc)),
            "deep": _INSTANCE.format(tower=f"[tower]\ngen r = algebraic -{n}, 0, 1\n"
                                           "gen t1 = transcendental\n"
                                           "gen t2 = transcendental\n\n",
                                     kind="projective-line", extra=""),
            "s": _INSTANCE.format(tower="[tower]\ngen s = transcendental\n\n",
                                  kind="projective-plane", extra=""),
        }
        paths = {}
        for key, text in files.items():
            paths[key] = os.path.join(work, f"{key}.ini")
            with open(paths[key], "w", encoding="utf-8") as fh:
                fh.write(text)
        runs = []
        for inst in self.builtins:
            for cmd in self.COVER_COMMANDS:
                runs.append((cmd, inst, _expect(cmd, inst)))
        if self.extras:
            runs += [(("composed",), "sqrt", {"verdict": "injective", "kernel_dim": 0}),
                     (("composed",), "cubic", {"verdict": "injective", "kernel_dim": 0}),
                     (("cech",), "deep", {"dims": [1, 0]}),
                     (("delta-r",), "s", {"kernel_dim": 0, "kernel_letters": ["ds"]}),
                     (("composed",), "s", {"rc": 1, "error": "NotNumberField"})]
        specs = []
        for i, (cmd, inst, want) in enumerate(runs):
            report = os.path.join(work, f"report-{i}.json")
            argv = list(cmd) + ["--instance", paths.get(inst, inst),
                                "--json", report, "--quiet"]
            specs.append((f"{' '.join(cmd)} {inst}", argv, report, want))
        random.Random(f"{seed}:order").shuffle(specs)
        return {"specs": specs, "n": n, "abc": abc, "rejected": rejected}

    def describe(self, inputs):
        return {"sqrt_n": inputs["n"], "cubic_abc": list(inputs["abc"]),
                "rejected_cubics": inputs["rejected"],
                "commands": [cid for cid, _, _, _ in inputs["specs"]]}

    def checks(self, kt, inputs):
        return [(cid, lambda argv=argv: kt.cli.main(argv))
                for cid, argv, _, _ in inputs["specs"]]

    def judge(self, kt, inputs, outcomes, memory):
        fails = []
        for (cid, _, report, want), (rc, err) in zip(inputs["specs"], outcomes):
            if err:
                fails.append(err)
                continue
            with open(report, "rb") as fh:
                payload = fh.read()
            bad = _command_failure(rc, json.loads(payload), want)
            first = memory.setdefault(cid, payload)
            if bad is None and payload != first:
                bad = "report bytes changed between passes"
            fails.append(None if bad is None else f"{cid}: {bad}")
        return fails, []


def _expect(cmd, inst):
    """The gate for one cover command on a built-in instance (p = 1)."""
    h = _H_O[inst]
    if cmd[0] == "cech":
        return {"dims": h}
    if cmd[0] == "hypercoh":
        return {"dims": {str(k + 1): v for k, v in enumerate(h)}}
    if cmd[0] == "tangent-chow":
        return {"dims": {str(k): v for k, v in enumerate(h)}, "dim": h[1]}
    if cmd[0] == "delta-r":
        return {"kernel_dim": 0, "kernel_letters": []}
    if cmd[0] == "composed":
        return {"verdict": "injective", "kernel_dim": 0}
    return {}


def _command_failure(rc, report, want):
    """None when one command's exit code and report meet ``want``."""
    checks = report["checks"]
    if rc != want.get("rc", 0):
        return f"exit code {rc}, want {want.get('rc', 0)}"
    if "error" in want:
        wit = checks[0]["witnesses"] if checks else []
        if checks[0]["status"] != "error" or not wit or not wit[0].startswith(want["error"]):
            return f"expected a {want['error']} refusal, got {checks}"
        return None
    for c in checks:
        if c["status"] != "pass":
            return f"check {c['name']} is {c['status']}: {c['witnesses'][:1]}"
        if c.get("stabilized") is False:
            return f"check {c['name']} did not stabilize"
    for key, val in want.items():
        if checks[0].get(key) != val:
            return f"{key} = {checks[0].get(key)!r}, want {val!r}"
    return None


WORKLOADS = {w.name: w for w in (Symbols, CechQ, Commands)}
