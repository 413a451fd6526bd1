"""Explicit-state MDP models.

States are dense 0-based integers.  Each state carries an ordered menu of
actions; action identity is the ordinal position in that menu, with an
optional display name.  A Markov chain is the special case with exactly one
action per state, as `impose` builds it.

make_mdp is the one place where the rules of a model are checked.
Transition rows must sum to 1 within PROB_SUM_TOL; rows inside the tolerance
are renormalised, rows outside it are rejected.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidControllerError, MissingRewardsError, ModelError

# Tolerance for accepting a transition row as a probability distribution.
PROB_SUM_TOL = 1e-9

# Default upper bound on memory unfolding (2 bits = 4 memory cells).
MEMORY_BITS_CAP = 2

Row = tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class Mdp:
    """Explicit MDP.

    trans[s][a] is the distribution of action ordinal a in state s, as a
    tuple of (successor, probability) pairs sorted by successor.  labels is
    a sorted tuple of (name, frozenset of states).  rewards, when present,
    mirrors the shape of trans with one nonnegative float per state/action.
    """

    num_states: int
    trans: tuple[tuple[Row, ...], ...]
    labels: tuple[tuple[str, frozenset[int]], ...] = ()
    rewards: tuple[tuple[float, ...], ...] | None = None
    action_names: tuple[tuple[str | None, ...], ...] | None = None

    # -- queries ---------------------------------------------------------

    def num_actions(self, s: int) -> int:
        return len(self.trans[s])

    def row(self, s: int, a: int) -> Row:
        return self.trans[s][a]

    def reward(self, s: int, a: int) -> float:
        if self.rewards is None:
            raise MissingRewardsError("model has no reward structure")
        return self.rewards[s][a]

    def action_name(self, s: int, a: int) -> str | None:
        if self.action_names is None:
            return None
        return self.action_names[s][a]

    def label_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.labels)

    def has_label(self, name: str) -> bool:
        return any(lbl == name for lbl, _ in self.labels)

    def target(self, label: str) -> frozenset[int]:
        """The states of a label, as the solvers take a target."""

        for name, states in self.labels:
            if name == label:
                return states
        raise ModelError(f"unknown label {label!r}")

    @property
    def has_rewards(self) -> bool:
        return self.rewards is not None


@dataclass(frozen=True)
class Controller:
    """Deterministic memoryless controller: one action ordinal per state."""

    choices: tuple[int, ...]

    def __getitem__(self, s: int) -> int:
        return self.choices[s]

    def __len__(self) -> int:
        return len(self.choices)


# -- construction ---------------------------------------------------------


def _index(x, n: int, what: str, where) -> int:
    """x as a state index below n."""

    try:
        i = operator.index(x)
    except TypeError:
        raise ModelError(f"{what} {x!r} is not an integer", where) from None
    if not 0 <= i < n:
        raise ModelError(f"{what} {i} out of range (model has {n} states)", where)
    return i


def _value(x, what: str, where) -> float:
    """x as a float "probability" or "reward", as what says; a string is
    read the way Fraction reads it.  where is (kind, state, action, ...)."""

    try:
        v = float(Fraction(x) if isinstance(x, str) else x)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ModelError(
            f"malformed {what} {x!r} in state {where[1]} action {where[2]}", where
        ) from None
    except OverflowError:
        v = math.inf
    if not (0.0 < v <= 1.0 + PROB_SUM_TOL if what == "probability" else 0.0 <= v < math.inf):
        raise ModelError(
            f"{what} {x!r} out of range in state {where[1]} action {where[2]}", where
        )
    return v


def check_name(name, where) -> str:
    """A label or action name, as where's kind says: a nonempty str with no
    whitespace and no '#', so that a model text can carry it."""

    if not (isinstance(name, str) and name and not any(c.isspace() or c == "#" for c in name)):
        raise ModelError(
            f"{where[0]} name {name!r} must be a nonempty string without whitespace or '#'", where
        )
    return name


def _row(entries, n: int, s: int, a: int) -> Row:
    """One transition row, checked and renormalised within PROB_SUM_TOL.
    Duplicates are found before any value is read, so that an error names
    the entry that breaks the row."""

    dist = {}
    try:
        for t, p in entries:
            if t in dist:
                raise ModelError(
                    f"duplicate successor {t} in state {s} action {a}", ("trans", s, a, t)
                )
            dist[t] = p
    except (TypeError, ValueError):  # not pairs, or an unhashable successor
        raise ModelError(
            f"row {entries!r} of state {s} action {a} is not (successor, probability) pairs",
            ("trans", s, a),
        ) from None
    row = {}
    for t, p in dist.items():
        where = ("trans", s, a, t)
        row[_index(t, n, "successor", where)] = _value(p, "probability", where)
    total = sum(row.values())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ModelError(
            f"row sums to {total!r}, not 1, in state {s} action {a}", ("trans", s, a)
        )
    if total != 1.0:
        row = {t: p / total for t, p in row.items()}
    return tuple(sorted(row.items()))


def _table(table, rows, what: str, default) -> list:
    """A per-(state, action) table nested as rows is.  A dict keyed by
    (state, action) must name existing actions only, and gives default for
    the others; a nested table must match the menus."""

    if not isinstance(table, dict):
        try:
            shape = [len(row) for row in table]
        except TypeError:
            shape = None
        if shape != [len(menu) for menu in rows]:
            raise ModelError(f"{what!r} table does not match the action menus", (what,))
        return table
    pairs = {(s, a) for s, menu in enumerate(rows) for a in range(len(menu))}
    for key in table:
        if key not in pairs:
            where = (what, *key) if isinstance(key, tuple) else (what, key)
            raise ModelError(f"{what!r} key {key!r} names no action of the model", where)
    return [[table.get((s, a), default) for a in range(len(menu))] for s, menu in enumerate(rows)]


def _items(x, what: str, where) -> list:
    """The items of x, the states, actions or label states that what names."""

    try:
        return list(x)
    except TypeError:
        raise ModelError(f"{what} must be a sequence, not {x!r}", where) from None


def make_mdp(trans, labels=None, rewards=None, action_names=None) -> Mdp:
    """Validate raw nested transition data and build an Mdp.

    trans is a sequence over states of sequences over actions of iterables
    of (successor, probability).  Probabilities and rewards may be floats,
    Fractions or strings read the way Fraction reads them.  rewards and
    action_names are dicts keyed by (state, action), or tables nested as
    trans is.  A model needs a state, an action in each state, rows that
    are distributions over states (renormalised within PROB_SUM_TOL),
    label states in range, finite nonnegative rewards, and label and action
    names that pass check_name (an action may have None, no name).  A
    violation raises ModelError with where ("state", s), ("trans", s, a, t),
    ("trans", s, a), ("label", name), ("label", name, s), ("rew", s, a),
    ("action", s, a), ("trans",) or ("label",) for trans or labels of the
    wrong kind, or ("rew",) or ("action",) for a nested table of the wrong
    shape.
    """

    trans = _items(trans, "model", ("trans",))
    n = len(trans)
    if n == 0:
        raise ModelError("model needs at least one state", ("state", 0))
    rows = []
    for s, menu in enumerate(trans):
        menu = _items(menu, f"state {s}'s actions", ("state", s))
        if len(menu) == 0:
            raise ModelError(f"state {s} has no actions", ("state", s))
        rows.append(tuple(_row(entries, n, s, a) for a, entries in enumerate(menu)))

    try:
        labels = dict(labels or {})
    except (TypeError, ValueError):
        raise ModelError(f"labels {labels!r} are not a mapping of names to states", ("label",)) from None
    for name in labels:
        check_name(name, ("label", name))
    label_out = []
    for name, states in sorted(labels.items()):
        states = _items(states, f"label {name!r} states", ("label", name))
        states = frozenset(_index(x, n, f"label {name!r} state", ("label", name, x)) for x in states)
        label_out.append((name, states))

    rew_out = None
    if rewards is not None:
        rew_out = tuple(
            tuple(_value(x, "reward", ("rew", s, a)) for a, x in enumerate(row))
            for s, row in enumerate(_table(rewards, rows, "rew", 0.0))
        )
    names_out = None
    if action_names is not None:
        names_out = tuple(
            tuple(nm if nm is None else check_name(nm, ("action", s, a)) for a, nm in enumerate(row))
            for s, row in enumerate(_table(action_names, rows, "action", None))
        )
        if all(nm is None for row in names_out for nm in row):
            names_out = None
    return Mdp(n, tuple(rows), tuple(label_out), rew_out, names_out)


# -- operations ------------------------------------------------------------


def impose(m: Mdp, controller: Controller) -> Mdp:
    """Impose a controller on an MDP, giving the induced Markov chain: the
    MDP whose state s has the one action the controller picks there, with
    its row, reward and name, and the MDP's labels.

    The controller must pick an enabled action ordinal in every state;
    anything else raises InvalidControllerError.
    """

    if len(controller) != m.num_states:
        raise InvalidControllerError(
            f"controller covers {len(controller)} states, model has {m.num_states}"
        )
    for s in range(m.num_states):
        if not (0 <= controller[s] < m.num_actions(s)):
            raise InvalidControllerError(f"state {s}: action {controller[s]} not enabled")

    def pick(table):
        return None if table is None else tuple((menu[a],) for menu, a in zip(table, controller.choices))

    names = pick(m.action_names)
    if names is not None and all(nm is None for (nm,) in names):
        names = None
    return Mdp(m.num_states, pick(m.trans), m.labels, pick(m.rewards), names)


def check_memory_bits(bits) -> int:
    """bits, checked as a number of memory bits to unfold: an int but not a
    bool, from 0 to MEMORY_BITS_CAP; else ModelError."""

    if not isinstance(bits, int) or isinstance(bits, bool):
        raise ModelError(f"memory bits {bits!r} is not an integer")
    if bits < 0:
        raise ModelError("memory bits must be nonnegative")
    if bits > MEMORY_BITS_CAP:
        raise ModelError(f"memory bits {bits} above cap {MEMORY_BITS_CAP}")
    return bits


def unfold_memory(m: Mdp, bits: int) -> Mdp:
    """Product of the MDP with a free finite memory of 2**bits cells.

    State (s, v) becomes index s * 2**bits + v; action (a, w) of the
    original action a and memory update w becomes ordinal a * 2**bits + w.
    Labels lift to every memory cell, rewards are preserved.  Memory starts
    at cell 0 by convention of the callers.
    """

    if check_memory_bits(bits) == 0:
        return m
    k = 1 << bits

    def unfold(table, entry):
        """State s's menu at each of its k cells, action a once per update w."""

        if table is None:
            return None
        return tuple(
            tuple(entry(x, w) for x in menu for w in range(k)) for menu in table for _v in range(k)
        )

    labels = tuple(
        (name, frozenset(s * k + v for s in states for v in range(k)))
        for name, states in m.labels
    )
    return Mdp(
        m.num_states * k,
        unfold(m.trans, lambda row, w: tuple((t * k + w, p) for t, p in row)),
        labels,
        unfold(m.rewards, lambda r, w: r),
        unfold(m.action_names, lambda nm, w: None if nm is None else f"{nm}@{w}"),
    )
