"""Text formats: models, specifications, controllers, run statistics.

The model format is line oriented.  ``#`` starts a comment anywhere.

    mdp
    states 4
    action 0 0 north        # optional display name for an action ordinal
    trans 0 0 1 1/2         # state, action, successor, probability
    trans 0 0 2 0.5
    label goal 2 3
    rew 0 0 1.5             # state, action, reward

Action ordinals of each state must be contiguous from 0.  Probabilities may
be decimals or fractions.  A single ``rew`` line makes the model rewarded,
with 0 for unlisted pairs.

The specification format is a single expression, free form over lines:

    exists a, b :
    same(3, {a, b}) & obs({1, 2}, a) ;
    forall x in {0} [a], exists y in {0, 1} [b] :
    P(x, F goal) >= 0.5 & !(R(y, F done) < 3) | P(x, F goal) = P(y, F goal) ~1e-4

``~eps`` gives the comparison tolerance of ``=`` (default applied later).
Operator precedence is ! over & over |, with parentheses.

Parsers raise ParseError for every malformed input, with the 1-based
line and column of the offending item.  Writers produce canonical text whose
reparse reproduces the value exactly (floats are written with repr).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from math import isinf, isnan

from .errors import ModelError, ParseError, SpecError
from .formulas import Query
from .model import Mdp, check_name, make_mdp
from .specs import (
    HyperSpec,
    Obs,
    Quantifier,
    Same,
    SpecAtom,
    SpecQuery,
    check_atom,
    check_constraint,
)

# Hard cap on declared state counts, so a hostile header cannot allocate.
STATE_CAP = 10**6

_RESERVED = frozenset(("exists", "forall", "in", "same", "obs", "P", "R", "F"))


# -- shared helpers ---------------------------------------------------------


def _split_tokens(line: str):
    """Whitespace tokens of one line, up to its comment, with 1-based start
    columns."""

    return [(m.group(), m.start() + 1) for m in re.finditer(r"[^\s#]+", line.partition("#")[0])]


# -- model format -----------------------------------------------------------


def parse_model(text: str, source: str = "<string>") -> Mdp:
    """Parse the model format above into an Mdp.  The text decides its
    syntax; make_mdp checks the rest, on the values as written, and its
    ModelError becomes a ParseError at the item it names (at the 'states'
    line for a state without 'trans' lines)."""

    n_states = None
    saw_mdp = False
    trans: dict[tuple[int, int], list[tuple[int, str]]] = {}
    # ModelError.where -> (line, column): a row at its first 'trans' line,
    # an entry at its successor token
    at: dict[tuple, tuple[int, int]] = {}
    names: dict[tuple[int, int], str] = {}
    labels: dict[str, set[int]] = {}
    rewards: dict[tuple[int, int], str] = {}
    tables = {"action": (names, "name"), "rew": (rewards, "reward")}

    def fail(msg, line, col):
        raise ParseError(msg, source, line, col)

    def take_int(tok, line, what, upper=None):
        text, col = tok
        if not text.isdecimal():
            fail(f"expected {what}, got {text!r}", line, col)
        v = int(text)
        if upper is not None and not v < upper:
            fail(f"{what} {v} out of range (model has {upper} states)", line, col)
        return v

    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = _split_tokens(raw)
        if not toks:
            continue
        word, col0 = toks[0]

        if word == "mdp":
            if saw_mdp:
                fail("duplicate 'mdp' header", lineno, col0)
            if len(toks) != 1:
                fail("unexpected tokens after 'mdp'", lineno, toks[1][1])
            saw_mdp = True
            continue
        if not saw_mdp:
            fail("input must start with 'mdp'", lineno, col0)

        if word == "states":
            if n_states is not None:
                fail("duplicate 'states' line", lineno, col0)
            if len(toks) != 2:
                fail("'states' takes exactly one count", lineno, col0)
            n_states = take_int(toks[1], lineno, "state count")
            if n_states > STATE_CAP:
                fail(f"state count {n_states} above cap {STATE_CAP}", lineno, toks[1][1])
            states_at = lineno, toks[1][1]
            continue
        if n_states is None:
            fail("'states' must come before other directives", lineno, col0)

        if word == "trans":
            if len(toks) != 5:
                fail("'trans' takes state, action, successor, probability", lineno, col0)
            s = take_int(toks[1], lineno, "state", n_states)
            a = take_int(toks[2], lineno, "action ordinal")
            t = take_int(toks[3], lineno, "successor")
            trans.setdefault((s, a), []).append((t, toks[4][0]))
            at.setdefault(("trans", s, a), (lineno, col0))
            at["trans", s, a, t] = lineno, toks[3][1]
        elif word in tables:
            table, what = tables[word]
            if len(toks) != 4:
                fail(f"'{word}' takes state, action, {what}", lineno, col0)
            s = take_int(toks[1], lineno, "state", n_states)
            a = take_int(toks[2], lineno, "action ordinal")
            if (s, a) in table:
                fail(f"duplicate {what} for action {a} of state {s}", lineno, col0)
            table[s, a] = toks[3][0]
            at[word, s, a] = lineno, col0
        elif word == "label":
            if len(toks) < 2:
                fail("'label' takes a name and states", lineno, col0)
            name = toks[1][0]
            group = labels.setdefault(name, set())
            for tok in toks[2:]:
                v = take_int(tok, lineno, "state")
                group.add(v)
                at.setdefault(("label", name, v), (lineno, tok[1]))
        else:
            fail(f"unknown directive {word!r}", lineno, col0)

    if not saw_mdp:
        raise ParseError("empty input: expected 'mdp'", source, 1, 1)
    if n_states is None:
        raise ParseError("missing 'states' line", source, 1, 1)

    keys = sorted(trans)
    nested = [[] for _ in range(n_states)]
    for s, a in keys:
        nested[s].append(sorted(trans[s, a]))
    for s, a in keys:
        if a >= len(nested[s]):
            fail(f"state {s}: action ordinals not contiguous from 0", *at["trans", s, a])
    try:
        return make_mdp(nested, labels or None, rewards or None, names or None)
    except ModelError as e:
        line, col = at.get(e.where, states_at)
        raise ParseError(str(e), source, line, col)


def write_model(m: Mdp) -> str:
    """Canonical text for an Mdp.  parse_model(write_model(m)) == m holds
    whenever no transition row needed renormalising.  A label or action
    name that model.check_name rejects raises ModelError.
    """

    lines = ["mdp", f"states {m.num_states}"]
    for s in range(m.num_states):
        for a in range(m.num_actions(s)):
            name = m.action_name(s, a)
            if name is None:
                continue
            lines.append(f"action {s} {a} {check_name(name, ('action', s, a))}")
    for s in range(m.num_states):
        for a in range(m.num_actions(s)):
            for t, p in m.trans[s][a]:
                lines.append(f"trans {s} {a} {t} {p!r}")
    for name, states in m.labels:
        check_name(name, ("label", name))
        lines.append(("label " + name + " " + " ".join(map(str, sorted(states)))).rstrip())
    if m.rewards is not None:
        for s in range(m.num_states):
            for a in range(m.num_actions(s)):
                lines.append(f"rew {s} {a} {m.rewards[s][a]!r}")
    return "\n".join(lines) + "\n"


# -- controller files -------------------------------------------------------


def parse_controller(text: str, m: Mdp, source: str = "<string>") -> dict[int, int]:
    """Lines of ``state action``, where action is an ordinal or a display
    name of one of the model's actions at that state.  Returns {state:
    action ordinal}.  States may be omitted, but not repeated."""

    out: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = _split_tokens(raw)
        if not toks:
            continue
        if len(toks) != 2:
            raise ParseError("expected 'state action'", source, lineno, toks[0][1])
        (stext, scol), (atext, acol) = toks
        if not stext.isdecimal():
            raise ParseError(f"expected a state index, got {stext!r}", source, lineno, scol)
        s = int(stext)
        if s >= m.num_states:
            raise ParseError(f"state {s} out of range", source, lineno, scol)
        if s in out:
            raise ParseError(f"state {s} assigned twice", source, lineno, scol)
        names = [m.action_name(s, a) for a in range(m.num_actions(s))]
        if atext.isdecimal():
            if int(atext) >= len(names):
                raise ParseError(f"state {s} has no action ordinal {atext}", source, lineno, acol)
            out[s] = int(atext)
        elif atext in names:
            out[s] = names.index(atext)
        else:
            raise ParseError(f"state {s} has no action named {atext!r}", source, lineno, acol)
    return out


# -- specification format ---------------------------------------------------

_MAX_DEPTH = 200


@dataclass
class _Tok:
    kind: str  # "ident" | "number" | "sym" | "eof"
    text: str
    line: int
    col: int


# The spec tokens, one alternative per kind, tried in order at each
# position.  A line break is a token of its own, so that columns restart
# after it; a skip (whitespace as str.isspace sees it, or a comment) and a
# line break yield no token.  Identifiers and numbers are ASCII only.
_SPEC_TOKEN_RE = re.compile(
    r"""
    (?P<newline>\n)
    | (?P<skip>[^\S\n]+ | \#[^\n]*)
    | (?P<ident>(?a:[A-Za-z_][A-Za-z0-9_]*))
    | (?P<number>(?a:\d+/\d+ | \d+\.\d*(?:[eE][+-]?\d+)? | \.\d+(?:[eE][+-]?\d+)? | \d+(?:[eE][+-]?\d+)?))
    | (?P<sym><= | >= | [<>=,:;{}()\[\]&|!~])
    | (?P<bad>.)
    """,
    re.VERBOSE,
)


def _scan_spec(text: str, source: str) -> list[_Tok]:
    toks = []
    line, start = 1, 0  # the line number and the offset of its first character
    for m in _SPEC_TOKEN_RE.finditer(text):
        kind, col = m.lastgroup, m.start() - start + 1
        if kind == "newline":
            line, start = line + 1, m.end()
        elif kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", source, line, col)
        elif kind != "skip":
            toks.append(_Tok(kind, m.group(), line, col))
    toks.append(_Tok("eof", "", line, len(text) - start + 1))
    return toks


class _SpecParser:
    def __init__(self, toks, source):
        self.toks = toks
        self.i = 0
        self.source = source

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def take(self) -> _Tok:
        tok = self.toks[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def fail(self, msg, tok=None):
        tok = tok or self.peek()
        raise ParseError(msg, self.source, tok.line, tok.col)

    def sym(self, s) -> _Tok:
        tok = self.take()
        if tok.kind != "sym" or tok.text != s:
            self.fail(f"expected {s!r}, got {tok.text or 'end of input'!r}", tok)
        return tok

    def ident(self, word=None) -> _Tok:
        tok = self.take()
        if tok.kind != "ident" or (word is not None and tok.text != word):
            want = repr(word) if word else "an identifier"
            self.fail(f"expected {want}, got {tok.text or 'end of input'!r}", tok)
        return tok

    def at_sym(self, s) -> bool:
        tok = self.peek()
        return tok.kind == "sym" and tok.text == s

    def checked(self, rule, item, context, tok):
        """The item, once the specs rule passes it with the context; a
        failure is reported at tok, the item's first token."""

        try:
            rule(item, context)
        except SpecError as e:
            self.fail(str(e), tok)
        return item

    # -- toplevel ----------------------------------------------------------

    def spec(self) -> HyperSpec:
        self.ident("exists")
        names = []
        while True:
            tok = self.ident()
            if tok.text in _RESERVED:
                self.fail(f"{tok.text!r} is reserved", tok)
            if tok.text in names:
                self.fail(f"duplicate controller name {tok.text!r}", tok)
            names.append(tok.text)
            if not self.at_sym(","):
                break
            self.take()
        self.sym(":")
        index = {nm: i for i, nm in enumerate(names)}

        constraints = []
        nxt = self.peek()
        if nxt.kind == "ident" and nxt.text in ("same", "obs"):
            while True:
                constraints.append(self.constraint(index))
                if self.at_sym("&"):
                    self.take()
                    continue
                break
            self.sym(";")

        quants = []
        vars_seen: dict[str, _Tok] = {}
        while True:
            quants.append(self.quantifier(index, vars_seen))
            if not self.at_sym(","):
                break
            self.take()
        self.sym(":")

        formula = self.disj(set(vars_seen), 0)
        tok = self.peek()
        if tok.kind != "eof":
            self.fail(f"unexpected trailing input {tok.text!r}", tok)

        return HyperSpec(tuple(names), tuple(constraints), tuple(quants), formula)

    def controller_ref(self, index) -> int:
        tok = self.ident()
        if tok.text not in index:
            self.fail(f"unknown controller {tok.text!r}", tok)
        return index[tok.text]

    def int_list(self, what) -> tuple[int, ...]:
        self.sym("{")
        out = []
        while True:
            tok = self.take()
            if tok.kind != "number" or not tok.text.isdigit():
                self.fail(f"expected {what}, got {tok.text or 'end of input'!r}", tok)
            out.append(int(tok.text))
            if self.at_sym(","):
                self.take()
                continue
            break
        self.sym("}")
        return tuple(out)

    def constraint(self, index):
        tok = self.ident()
        if tok.text == "same":
            self.sym("(")
            stok = self.take()
            if stok.kind != "number" or not stok.text.isdigit():
                self.fail("same() expects a state index", stok)
            self.sym(",")
            self.sym("{")
            ctrls = [self.controller_ref(index)]
            while self.at_sym(","):
                self.take()
                ctrls.append(self.controller_ref(index))
            self.sym("}")
            self.sym(")")
            c = Same(int(stok.text), tuple(ctrls))
        elif tok.text == "obs":
            self.sym("(")
            states = self.int_list("a state index")
            self.sym(",")
            ctrl = self.controller_ref(index)
            self.sym(")")
            c = Obs(states, ctrl)
        else:
            self.fail("expected same(...) or obs(...)", tok)
        return self.checked(check_constraint, c, len(index), tok)

    def quantifier(self, index, vars_seen) -> Quantifier:
        tok = self.ident()
        if tok.text not in ("forall", "exists"):
            self.fail("expected 'forall' or 'exists'", tok)
        var = self.ident()
        if var.text in _RESERVED:
            self.fail(f"{var.text!r} is reserved", var)
        if var.text in vars_seen:
            self.fail(f"state variable {var.text!r} bound twice", var)
        self.ident("in")
        domain = self.int_list("a state index")
        self.sym("[")
        ctrl = self.controller_ref(index)
        self.sym("]")
        vars_seen[var.text] = var
        return Quantifier(tok.text, var.text, domain, ctrl)

    # -- formulas ----------------------------------------------------------

    def disj(self, vars_known, depth):
        kids = [self.conj(vars_known, depth)]
        while self.at_sym("|"):
            self.take()
            kids.append(self.conj(vars_known, depth))
        return kids[0] if len(kids) == 1 else ("or", tuple(kids))

    def conj(self, vars_known, depth):
        kids = [self.unary(vars_known, depth)]
        while self.at_sym("&"):
            self.take()
            kids.append(self.unary(vars_known, depth))
        return kids[0] if len(kids) == 1 else ("and", tuple(kids))

    def unary(self, vars_known, depth):
        if depth > _MAX_DEPTH:
            self.fail("formula nesting too deep")
        if self.at_sym("!"):
            self.take()
            return ("not", self.unary(vars_known, depth + 1))
        if self.at_sym("("):
            self.take()
            node = self.disj(vars_known, depth + 1)
            self.sym(")")
            return node
        return ("atom", self.atom(vars_known))

    def query(self, vars_known) -> SpecQuery:
        tok = self.ident()
        if tok.text not in ("P", "R"):
            self.fail("expected a P(...) or R(...) query", tok)
        kind = "reach" if tok.text == "P" else "reward"
        self.sym("(")
        var = self.ident()
        if var.text not in vars_known:
            self.fail(f"state variable {var.text!r} is not quantified", var)
        self.sym(",")
        self.ident("F")
        label = self.ident()
        self.sym(")")
        return SpecQuery(kind, var.text, label.text)

    def number(self) -> float:
        tok = self.take()
        if tok.kind != "number":
            self.fail(f"expected a number, got {tok.text or 'end of input'!r}", tok)
        try:
            value = float(Fraction(tok.text)) if "/" in tok.text else float(tok.text)
        except (ValueError, ZeroDivisionError, OverflowError):
            self.fail(f"malformed number {tok.text!r}", tok)
        if isinf(value):
            self.fail(f"number {tok.text!r} is too large for a float", tok)
        return value

    def atom(self, vars_known) -> SpecAtom:
        first = self.peek()
        left = self.query(vars_known)
        tok = self.take()
        if tok.kind != "sym" or tok.text not in ("<", "<=", "=", ">=", ">"):
            self.fail(f"expected a comparison, got {tok.text or 'end of input'!r}", tok)
        rel = tok.text
        if self.peek().kind == "number":
            right = self.number()
        else:
            right = self.query(vars_known)
        eps = None
        if self.at_sym("~"):
            tildetok = self.take()
            if rel != "=":
                self.fail("~ tolerance only applies to =", tildetok)
            eps = self.number()
        return self.checked(check_atom, SpecAtom(left, rel, right, eps), vars_known, first)


def parse_spec(text: str, source: str = "<string>") -> HyperSpec:
    """Parse the specification grammar above into a HyperSpec."""

    return _SpecParser(_scan_spec(text, source), source).spec()


def write_spec(spec: HyperSpec) -> str:
    """Canonical text for a HyperSpec; reparsing reproduces it exactly."""

    names = spec.controller_names
    parts = ["exists " + ", ".join(names) + " :"]
    if spec.constraints:
        parts.append(" & ".join(_fmt_constraint(c, names) for c in spec.constraints) + " ;")
    parts.append(
        ", ".join(
            f"{q.kind} {q.var} in {{{', '.join(map(str, q.domain))}}} [{names[q.controller]}]"
            for q in spec.quantifiers
        )
        + " :"
    )
    parts.append(_fmt_formula(spec.formula, "root"))
    return "\n".join(parts) + "\n"


def _fmt_constraint(c, names) -> str:
    if isinstance(c, Same):
        return f"same({c.state}, {{{', '.join(names[i] for i in c.controllers)}}})"
    return f"obs({{{', '.join(map(str, c.states))}}}, {names[c.controller]})"


def _fmt_formula(node, ctx) -> str:
    """ctx is the enclosing operator ("root", "and", "or"); parentheses go
    wherever reparsing would otherwise rebind or flatten the tree."""

    tag = node[0]
    if tag == "atom":
        return _fmt_spec_atom(node[1])
    if tag == "not":
        child = node[1]
        inner = _fmt_formula(child, "root")
        if child[0] in ("and", "or"):
            inner = "(" + inner + ")"
        return "!" + inner
    if tag == "and":
        body = " & ".join(_fmt_formula(c, "and") for c in node[1])
        return "(" + body + ")" if ctx == "and" else body
    if tag == "or":
        body = " | ".join(_fmt_formula(c, "or") for c in node[1])
        return "(" + body + ")" if ctx in ("and", "or") else body
    raise SpecError(f"malformed formula node {node!r}")


def _fmt_query(q: SpecQuery) -> str:
    op = "P" if q.kind == "reach" else "R"
    return f"{op}({q.var}, F {q.target})"


def _fmt_spec_atom(a: SpecAtom) -> str:
    rhs = _fmt_query(a.right) if isinstance(a.right, SpecQuery) else repr(float(a.right))
    eps = f" ~{a.eps!r}" if a.eps is not None else ""
    return f"{_fmt_query(a.left)} {a.rel} {rhs}{eps}"


# -- instantiated atoms (for reports) ---------------------------------------


def format_atom(atom) -> str:
    """Readable text for a canonical (instantiated) comparison atom."""

    def side(x):
        if isinstance(x, Query):
            op = "P" if x.kind == "reach" else "R"
            return f"{op}(c{x.slot}@{x.state}, F {x.target})"
        return repr(float(x))

    rhs = side(atom.right)
    if atom.offset > 0:
        rhs += f" + {atom.offset!r}"
    elif atom.offset < 0:
        rhs += f" - {-atom.offset!r}"
    return f"{side(atom.left)} {'<' if atom.strict else '<='} {rhs}"


# -- statistics -------------------------------------------------------------

_STATS_KEYS = (
    "verdict",
    "mode",
    "method",
    "family_size",
    "iterations",
    "explored",
    "explored_fraction",
    "decided_families",
    "avg_decided_family_size",
    "splits",
    "ce_prunes",
    "enumerated_members",
    "factors",
    "analyses",
    "settling_analyses",
    "solves",
    "wall_time_s",
    "limit",
    "witness",
    "optimal_value",
    "satisfying_count",
    "atoms",
)


def _jsonable(x):
    if isinstance(x, float):
        if isnan(x):
            return "nan"
        if isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def write_stats(data: dict) -> str:
    """Deterministic JSON for a run report.  Known keys come first in a
    fixed order, unknown ones follow sorted; non-finite floats are encoded
    as the strings "inf", "-inf" and "nan"."""

    out = {"schema_version": 1}
    for key in _STATS_KEYS:
        if key in data:
            out[key] = _jsonable(data[key])
    for key in sorted(data):
        if key not in out:
            out[key] = _jsonable(data[key])
    return json.dumps(out, indent=2) + "\n"
