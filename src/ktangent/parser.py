"""Plain-text expression language for symbols, forms, and derivatives.

The grammar::

    expr     :=  expr OP expr  |  '-' expr  |  atom ['^' exponent]
    OP       :=  '+' | '-' | '/\\' | '∧' | '*' | '/'
    exponent :=  optional '-', digits, optionally parenthesized
    atom     :=  integer | name | 'eps'
              |  '(' expr ')'
              |  '{' expr (',' expr)* '}'
              |  ('d_Q' | 'd_k' | 'd_C' | 'd_Ceps') '(' expr ')'

One table, ``_PREC``, says how tightly each operator binds, and both the
parser (by precedence climbing) and the printer read it: ``^`` binds
tighter than unary minus, which binds tighter than ``*`` and ``/``, which
bind tighter than the wedge, which binds tighter than ``+`` and ``-``.  The
binary operators associate to the left, and ``^`` attaches once, to an
atom, so ``2^3^2`` is refused.  Rationals are spelled as quotients of
integers.  Braces build a Milnor symbol from their entries.
``d_Q``/``d_k``/``d_C``/``d_Ceps`` apply the exterior derivative over
whichever base the evaluation context assigns to that keyword; dlog is
deliberately not a primitive (spell it ``d_C(f)/f``).  The wedge accepts
the unicode sign and the two-character ASCII fallback interchangeably.  For
convenience when pasting typeset text, ``·`` is read as ``*`` and ``−`` as
``-``.

``parse`` produces an `Expr` tree whose printed form (`str`) parses back to
an equal tree, since the parser and the printer read the one table.
Nesting deeper than the stack allows is refused with InstanceSyntaxError at
the token reached.  ``evaluate`` interprets a tree against a function ring
and optional named bindings; it is where unknown identifiers are reported.
"""

import operator
from fractions import Fraction

from .errors import (InstanceSyntaxError, UnknownIdentifier, Unsupported,
                     Mismatch, DivisionByZero, DegreeTooLarge)
from .scalars import Scalar
from .funcrings import RingElem, DualElem
from .differentials import DiffForm, d, wedge
from .milnor import SymbolWord

DIFF_KEYWORDS = ("d_Q", "d_k", "d_C", "d_Ceps")

_BINARY = {"add": " + ", "sub": " - ", "wedge": " /\\ ", "mul": "*", "div": "/"}

# printing precedence; higher binds tighter
_PREC = {"add": 1, "sub": 1, "wedge": 2, "mul": 3, "div": 3,
         "neg": 4, "pow": 5, "num": 6, "name": 6, "eps": 6,
         "symbol": 6, "diff": 6}


class Expr:
    """A parsed expression; equality and hashing ignore source positions."""

    __slots__ = ("kind", "args", "pos")

    def __init__(self, kind, args, pos=(0, 0)):
        self.kind = kind
        self.args = tuple(args)
        self.pos = pos

    def __eq__(self, other):
        if not isinstance(other, Expr):
            return NotImplemented
        return self.kind == other.kind and self.args == other.args

    def __hash__(self):
        return hash((self.kind, self.args))

    def __str__(self):
        return _render(self)

    def __repr__(self):
        return f"Expr({self.kind}: {self})"


def _wrap(e, outer, tie_breaks):
    s = _render(e)
    p = _PREC[e.kind]
    if p < outer or (tie_breaks and p == outer):
        return f"({s})"
    return s


def _render(e):
    k = e.kind
    if k == "num":
        return str(e.args[0])
    if k == "name":
        return e.args[0]
    if k == "eps":
        return "eps"
    if k == "neg":
        return "-" + _wrap(e.args[0], _PREC["neg"], False)
    if k in _BINARY:
        p = _PREC[k]
        # the right operand re-parses into the left-nested slot, so a tie
        # in precedence there needs parentheses; on the left it does not
        return _wrap(e.args[0], p, False) + _BINARY[k] + _wrap(e.args[1], p, True)
    if k == "pow":
        return _wrap(e.args[0], _PREC["pow"], True) + "^" + str(e.args[1])
    if k == "symbol":
        return "{" + ", ".join(_render(a) for a in e.args) + "}"
    if k == "diff":
        return f"{e.args[0]}({_render(e.args[1])})"
    raise Mismatch(f"unprintable expression kind {k!r}")


# -- tokenizer ---------------------------------------------------------------

# one-character operators; the typeset wedge sign, product dot and minus
# read as their ASCII spellings
_OPS = {**{ch: ch for ch in "+-*/^(){},"}, "∧": "/\\", "·": "*", "−": "-"}


def _lex(text):
    toks = []
    line, start, i, n = 1, 0, 0, len(text)  # start: offset where the line begins
    while i < n:
        ch, j = text[i], i + 1
        at = (line, i - start + 1)
        if ch == "\n":
            line, start = line + 1, j
        elif ch.isdecimal():
            while j < n and text[j].isdecimal():
                j += 1
            toks.append(("num", int(text[i:j]), at))
        elif ch.isalpha() or ch == "_":
            # isalnum() would admit superscript and other non-decimal digits
            while j < n and (text[j].isalpha() or text[j].isdecimal() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j], at))
        elif text.startswith("/\\", i):
            j += 1
            toks.append(("op", "/\\", at))
        elif ch in _OPS:
            toks.append(("op", _OPS[ch], at))
        elif ch not in " \t\r":
            raise InstanceSyntaxError(f"unexpected character {ch!r}", *at)
        i = j
    toks.append(("end", "", (line, n - start + 1)))
    return toks


# -- precedence-climbing parser ----------------------------------------------

# the binary operators by their token, read off the printer's table
_INFIX = {s.strip(): k for k, s in _BINARY.items()}


class _Parser:
    __slots__ = ("toks", "i")

    def __init__(self, toks):
        self.toks = toks
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def take(self, text):
        kind, val, at = self.peek()
        if kind == "op" and val == text:
            self.i += 1
            return True
        return False

    def expect(self, text, what):
        if not self.take(text):
            kind, val, (ln, c) = self.peek()
            found = "end of input" if kind == "end" else repr(val)
            raise InstanceSyntaxError(f"expected {what}, found {found}", ln, c)

    def expr(self, floor=1):
        """The longest expression at the cursor whose binary operators all
        bind at least as tightly as floor (a `_PREC` value); each operand of
        a binary operator binds one step tighter, so the operators associate
        to the left."""
        at = self.peek()[2]
        if self.take("-"):
            e = Expr("neg", (self.expr(_PREC["neg"]),), at)
        else:
            e = self.atom()
            if self.take("^"):
                e = Expr("pow", (e, self.exponent()), e.pos)
        while True:
            kind, val, _ = self.peek()
            op = _INFIX.get(val) if kind == "op" else None
            if op is None or _PREC[op] < floor:
                return e
            self.i += 1
            e = Expr(op, (e, self.expr(_PREC[op] + 1)), e.pos)

    def exponent(self):
        paren = self.take("(")
        sign = -1 if self.take("-") else 1
        kind, val, (ln, c) = self.next()
        if kind != "num":
            raise InstanceSyntaxError("exponent must be an integer", ln, c)
        if paren:
            self.expect(")", "')' closing the exponent")
        return sign * val

    def atom(self):
        kind, val, at = self.next()
        if kind == "num":
            return Expr("num", (val,), at)
        if kind == "name":
            if val in DIFF_KEYWORDS:
                self.expect("(", f"'(' after {val}")
                inner = self.expr()
                self.expect(")", f"')' closing {val}(...)")
                return Expr("diff", (val, inner), at)
            if val == "eps":
                return Expr("eps", (), at)
            return Expr("name", (val,), at)
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect(")", "')'")
            return Expr(inner.kind, inner.args, at)  # placed at its '('
        if kind == "op" and val == "{":
            entries = [self.expr()]
            while self.take(","):
                entries.append(self.expr())
            self.expect("}", "'}' closing the symbol")
            return Expr("symbol", tuple(entries), at)
        found = "end of input" if kind == "end" else repr(val)
        raise InstanceSyntaxError(f"expected an expression, found {found}",
                                  at[0], at[1])


def parse(text):
    """Parse an expression; raise InstanceSyntaxError with line/column."""
    p = _Parser(_lex(text))
    try:
        e = p.expr()
    except RecursionError:
        # brackets nested past the stack; refuse at the token reached
        raise InstanceSyntaxError("expression nested too deeply", *p.peek()[2]) from None
    kind, val, (ln, c) = p.peek()
    if kind != "end":
        raise InstanceSyntaxError(f"unexpected {val!r} after the expression",
                                  ln, c)
    return e


# -- evaluation --------------------------------------------------------------

def _located(e):
    ln, c = e.pos
    return f"(line {ln}, col {c})"


_ARITH = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


def _arith(e, fn, *args):
    """fn(*args) for the node e, with Python's arithmetic errors as located
    package errors."""
    try:
        return fn(*args)
    except ZeroDivisionError:
        raise DivisionByZero(f"division by zero in '{e}' {_located(e)}") from None
    except DegreeTooLarge as exc:
        raise DegreeTooLarge(f"{exc}, in '{e}' {_located(e)}") from None
    except TypeError:
        raise Mismatch(f"cannot combine operands in '{e}' {_located(e)}") from None


def _invert(v):
    if isinstance(v, (int, Fraction, Scalar)):
        return Fraction(1) / v
    if isinstance(v, (RingElem, DualElem, SymbolWord)):
        return v.inv()
    if isinstance(v, DiffForm):
        if v.degree == 0:
            return v.coeff(()).inv()
        raise Mismatch("cannot divide by a positive-degree form")
    raise Mismatch(f"cannot invert {v!r}")


def _as_coeff(v, ring):
    if isinstance(v, (int, Fraction, Scalar)):
        if ring is None:
            raise Unsupported("a function ring is needed to interpret this expression")
        return ring.const(v)
    return v


def evaluate(e, ring=None, names=None, bases=None):
    """Interpret a parsed expression.

    ``ring`` resolves variable names and hosts eps and symbol entries;
    ``names`` supplies extra bindings (named forms, precomputed values);
    ``bases`` maps each derivative keyword that may occur to its BaseTag.
    Names are looked up as ring variables first, then tower generators,
    then ``names``.
    """
    k = e.kind
    if k == "num":
        return Fraction(e.args[0])
    if k == "eps":
        if ring is None:
            raise Unsupported(f"eps needs a function ring {_located(e)}")
        return DualElem(ring, ring.zero(), ring.one())
    if k == "name":
        nm = e.args[0]
        if ring is not None:
            if nm in ring.varnames:
                return ring.var(nm)
            if nm in ring.tower.names:
                return ring.const(ring.tower.gen(nm))
        if names and nm in names:
            return names[nm]
        raise UnknownIdentifier(f"'{nm}' is not defined {_located(e)}")
    if k == "neg":
        return -evaluate(e.args[0], ring, names, bases)
    if k == "pow":
        v = evaluate(e.args[0], ring, names, bases)
        if isinstance(v, int):
            v = Fraction(v)
        return _arith(e, operator.pow, v, e.args[1])
    if k in ("add", "sub", "mul", "div"):
        a = evaluate(e.args[0], ring, names, bases)
        b = evaluate(e.args[1], ring, names, bases)
        if isinstance(a, DiffForm) and isinstance(b, DiffForm):
            if k == "mul" and (a.degree == 0 or b.degree == 0):
                return wedge(a, b)
            if k == "div" and b.degree == 0:
                return a * _invert(b)
            if k in ("mul", "div"):
                raise Mismatch(f"products of forms need the wedge, in '{e}'")
        if k == "div":
            return _arith(e, lambda: a * _invert(b))
        return _arith(e, _ARITH[k], a, b)
    if k == "wedge":
        a = evaluate(e.args[0], ring, names, bases)
        b = evaluate(e.args[1], ring, names, bases)
        if isinstance(a, DiffForm) and not isinstance(b, DiffForm):
            b = DiffForm.of_elem(_as_coeff(b, a.ring), a.base)
        elif isinstance(b, DiffForm) and not isinstance(a, DiffForm):
            a = DiffForm.of_elem(_as_coeff(a, b.ring), b.base)
        if not (isinstance(a, DiffForm) and isinstance(b, DiffForm)):
            raise Mismatch(f"wedge of non-forms in '{e}' {_located(e)}")
        return wedge(a, b)
    if k == "diff":
        kw, inner = e.args
        if not bases or kw not in bases:
            raise Unsupported(f"{kw} has no base assigned here {_located(e)}")
        v = evaluate(inner, ring, names, bases)
        return _arith(e, d, _as_coeff(v, ring), bases[kw])
    if k == "symbol":
        vals = [evaluate(a, ring, names, bases) for a in e.args]
        host = ring
        for v in vals:
            if isinstance(v, (RingElem, DualElem)):
                host = v.ring
                break
        if host is None:
            raise Unsupported(f"symbol entries need a function ring {_located(e)}")
        vals = [_as_coeff(v, host) for v in vals]
        if any(isinstance(v, DualElem) for v in vals):
            vals = [v if isinstance(v, DualElem) else DualElem(host, v)
                    for v in vals]
        for v in vals:
            if not isinstance(v, (RingElem, DualElem)):
                raise Mismatch(f"a symbol entry is not a ring element in '{e}'")
        return SymbolWord.of(vals)
    raise Mismatch(f"unevaluable expression kind {k!r}")


# -- instance files ----------------------------------------------------------
#
# A declarative instance lives in a small sectioned text file:
#
#     # comments run to the end of the line
#     [tower]
#     gen r2 = algebraic -2, 0, 1     # minimal polynomial, low degree first
#     gen t = transcendental
#
#     [cover]
#     kind = plane-curve              # or projective-line, projective-plane
#     weierstrass = 0, -1, 1          # y^2 z = x^3 + a x^2 z + b x z^2 + c z^3
#
#     [policy]
#     D = 2
#     delta = 2
#
#     [checks]
#     p = 1
#     sheaf = omega0                  # or omega1, omega2, O(3), O(-2)
#
# Every section is optional; an empty tower means the rationals.  The same
# data is accepted as a JSON object with keys tower (list of
# {name, kind, minpoly}), cover, policy, and checks.

import json as _json

from .scalars import make_tower, Algebraic, Transcendental
from .cech import (Sheaf, TruncationPolicy, cover_pn, cover_plane_curve,
                   weierstrass_cubic)

_COVER_KINDS = ("projective-line", "projective-plane", "plane-curve")
_SECTIONS = ("tower", "cover", "policy", "checks")


class SuiteConfig:
    """A resolved instance: tower, geometry, truncation policy, check knobs."""

    __slots__ = ("tower", "cover", "cover_desc", "policy", "p", "sheaf")

    def __init__(self, tower, cover, cover_desc, policy, p, sheaf):
        self.tower = tower
        self.cover = cover
        self.cover_desc = cover_desc
        self.policy = policy
        self.p = p
        self.sheaf = sheaf

    def describe(self):
        """A JSON-ready echo of the resolved configuration; the sheaf is
        echoed only by the command that computes one (``cli`` ``cech``)."""
        out = {"tower": [list(step) for step in _tower_steps(self.tower)],
               "policy": {"D": self.policy.D, "delta": self.policy.delta},
               "p": self.p}
        if self.cover is not None:
            out["cover"] = self.cover_desc
        return out


def _tower_steps(tower):
    trans = set(tower.transcendental_levels())
    return [(nm, "transcendental" if (i + 1) in trans else "algebraic")
            for i, nm in enumerate(tower.names)]


# Python reads and prints no int of more than 4300 digits, so an instance
# holds none; an exponent past 4300 is refused before Fraction builds its
# power of ten, which for 1e999999999 does not finish
_MAX_DIGITS = 4300
_TOO_LONG = 10 ** _MAX_DIGITS


def _rat(text, ln=1):
    """The exact rational spelled by text, such as '-3/4', '1.25' or
    '5e-3', at line ln of an instance; every rational that an instance
    spells, in text or in JSON, is read here."""
    text = text.strip()
    try:
        exponent = text.lower().partition("e")[2]
        q = None if exponent and abs(int(exponent)) > _MAX_DIGITS else Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InstanceSyntaxError(f"expected a rational number, got {text!r}", ln, 1) from None
    if q is None or max(abs(q.numerator), q.denominator) >= _TOO_LONG:
        raise InstanceSyntaxError(f"{text!r} has more than {_MAX_DIGITS} digits", ln, 1)
    return q


def _int(text, ln):
    try:
        return int(str(text).strip())
    except ValueError:
        raise InstanceSyntaxError(f"expected an integer, got {str(text).strip()!r}",
                                  ln, 1)


def _read_sections(text):
    """Split instance text into {section: [(line, key, value), ...]}."""
    sections = {}
    current = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise InstanceSyntaxError("unterminated section header", ln, 1)
            current = line[1:-1].strip()
            if current not in _SECTIONS:
                raise InstanceSyntaxError(f"unknown section [{current}]", ln, 1)
            sections.setdefault(current, [])
            continue
        if current is None:
            raise InstanceSyntaxError("a key appears before any [section]", ln, 1)
        if "=" not in line:
            raise InstanceSyntaxError("expected 'key = value'", ln, 1)
        key, value = line.split("=", 1)
        sections[current].append((ln, key.strip(), value.strip()))
    return sections


def _spec_from_text(text):
    sections = _read_sections(text)
    spec = {"tower": [], "cover": {}, "policy": {}, "checks": {}}
    for ln, key, value in sections.get("tower", ()):
        words = key.split()
        if len(words) != 2 or words[0] != "gen":
            raise InstanceSyntaxError("tower lines look like 'gen NAME = ...'", ln, 1)
        nm = words[1]
        fields = [w.strip() for w in value.split(",")]
        head = fields[0].split()
        if head[0] == "transcendental" and len(head) == 1 and len(fields) == 1:
            spec["tower"].append({"name": nm, "kind": "transcendental"})
        elif head[0] == "algebraic" and len(head) == 2:
            coeffs = [_rat(head[1], ln)] + [_rat(f, ln) for f in fields[1:]]
            spec["tower"].append({"name": nm, "kind": "algebraic",
                                  "minpoly": coeffs})
        else:
            raise InstanceSyntaxError(
                "expected 'transcendental' or 'algebraic c0, c1, ...'", ln, 1)
    for section in _SECTIONS[1:]:
        for ln, key, value in sections.get(section, ()):
            if key in spec[section]:
                raise InstanceSyntaxError(f"duplicate key {key!r}", ln, 1)
            spec[section][key] = (ln, value)
    return spec


def _spec_from_json(obj):
    """Check a JSON instance's shape once, in the spec shape of a text instance.

    Rationals are Fractions (JSON decimals arrive as Fractions, read exactly
    from their text by `_rat`), and every section value is a ``(line,
    value)`` pair at line 1.  A malformed object raises InstanceSyntaxError, as a malformed
    text instance does.
    """
    def bad(msg):
        return InstanceSyntaxError(f"JSON instance: {msg}", 1, 1)

    def rats(v, what):
        if isinstance(v, list) and all(isinstance(c, (int, Fraction, str))
                                       and not isinstance(c, bool) for c in v):
            return [_rat(c) if isinstance(c, str) else Fraction(c) for c in v]
        raise bad(f"{what} must be a list of rationals, got {v!r}")

    for key, val in obj.items():
        if key not in _SECTIONS:
            raise bad(f"unknown key {key!r}")
        if not isinstance(val, list if key == "tower" else dict):
            raise bad(f"{key} must be {'a list' if key == 'tower' else 'an object'}")
    tables = {key: dict(obj.get(key, {})) for key in _SECTIONS[1:]}
    tower = []
    for step in obj.get("tower", []):
        if (not isinstance(step, dict) or not isinstance(step.get("name"), str)
                or set(step) - {"name", "kind", "minpoly"}):
            raise bad(f"a tower step is {{name, kind, minpoly}} with a string name, "
                      f"got {step!r}")
        if "minpoly" in step:
            step = {**step, "minpoly": rats(step["minpoly"], "minpoly")}
        tower.append(step)
    w = tables["cover"].get("weierstrass")
    if w is not None and not isinstance(w, str):
        tables["cover"]["weierstrass"] = rats(w, "weierstrass")
    if not isinstance(tables["checks"].get("sheaf", ""), str):
        raise bad(f"checks sheaf must be a string, got {tables['checks']['sheaf']!r}")
    spec = {key: {k: (1, v) for k, v in table.items()}
            for key, table in tables.items()}
    spec["tower"] = tower
    return spec


def _take(table, key, default=None):
    ln, v = table.pop(key, (0, None))
    return ln, default if v is None else v


def _reject_extras(table, section):
    if table:
        key, (ln, _) = next(iter(table.items()))
        raise InstanceSyntaxError(f"unknown {section} key {key!r}", ln, 1)


def _build_config(spec):
    steps = []
    for entry in spec["tower"]:
        nm, kind = entry.get("name"), entry.get("kind")
        if kind == "transcendental":
            steps.append(Transcendental(nm))
        elif kind == "algebraic":
            steps.append(Algebraic(nm, entry.get("minpoly", ())))
        else:
            raise Unsupported(f"unknown tower step kind {kind!r}")
    tower = make_tower(steps)

    cover = coverdesc = None
    ctab = spec["cover"]
    ln, kind = _take(ctab, "kind")
    if kind in ("projective-line", "projective-plane"):
        cover = cover_pn(1 if kind == "projective-line" else 2, tower)
        coverdesc = kind
    elif kind == "plane-curve":
        wln, wtext = _take(ctab, "weierstrass")
        if wtext is None:
            raise InstanceSyntaxError("plane-curve needs 'weierstrass = a, b, c'",
                                      ln, 1)
        if isinstance(wtext, str):
            abc = [_rat(w, wln) for w in wtext.split(",")]
        else:
            abc = wtext
        if len(abc) != 3:
            raise InstanceSyntaxError("weierstrass takes exactly three values",
                                      wln, 1)
        cover = cover_plane_curve(weierstrass_cubic(tower, *abc), tower)
        coverdesc = f"plane-curve {abc[0]},{abc[1]},{abc[2]}"
    elif kind is not None:
        raise InstanceSyntaxError(f"unknown cover kind {kind!r}", ln, 1)
    _reject_extras(ctab, "cover")

    ptab = spec["policy"]
    ln, Dv = _take(ptab, "D", 2)
    ln2, dv = _take(ptab, "delta", 2)
    _reject_extras(ptab, "policy")
    policy = TruncationPolicy(_int(Dv, ln), _int(dv, ln2))

    ktab = spec["checks"]
    ln, pv = _take(ktab, "p", 1)
    _, sheaf = _take(ktab, "sheaf")
    _reject_extras(ktab, "checks")
    if sheaf is not None:
        Sheaf.parse(sheaf)  # checked here; cech echoes the text as written
    p = _int(pv, ln)
    if p < 1:
        raise InstanceSyntaxError(f"weight p must be at least 1, got {p}", ln, 1)
    return SuiteConfig(tower, cover, coverdesc, policy, p, sheaf)


def load_instance(text):
    """Read an instance from sectioned text or its JSON mirror."""
    if text.lstrip().startswith("{"):
        try:
            obj = _json.loads(text, parse_float=_rat)
        except ValueError as exc:
            raise InstanceSyntaxError(f"bad JSON instance: {exc}", 1, 1)
        except RecursionError:
            raise InstanceSyntaxError("bad JSON instance: nested too deeply", 1, 1) from None
        return _build_config(_spec_from_json(obj))
    return _build_config(_spec_from_text(text))
