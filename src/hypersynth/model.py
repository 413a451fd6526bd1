"""Explicit-state MDP models.

States are dense 0-based integers.  Each state carries an ordered menu of
actions; action identity is the ordinal position in that menu, with an
optional display name.  A Markov chain is the special case with exactly one
action per state, as `impose` builds it.

Transition rows must sum to 1 within PROB_SUM_TOL; rows inside the tolerance
are renormalised, rows outside it are rejected.
"""

from __future__ import annotations

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


def _normalize_row(entries, where: str) -> Row:
    seen = {}
    for succ, prob in entries:
        if succ in seen:
            raise ModelError(f"duplicate successor {succ} in {where}")
        p = float(prob)
        if not (0.0 < p <= 1.0 + PROB_SUM_TOL):
            raise ModelError(f"probability {prob!r} out of range in {where}")
        seen[succ] = p
    if not seen:
        raise ModelError(f"empty distribution in {where}")
    total = sum(seen.values())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ModelError(f"row sums to {total!r}, not 1, in {where}")
    if total != 1.0:
        seen = {s: p / total for s, p in seen.items()}
    return tuple(sorted(seen.items()))


def make_mdp(trans, labels=None, rewards=None, action_names=None) -> Mdp:
    """Validate raw nested transition data and build an Mdp.

    trans is a sequence over states of sequences over actions of iterables
    of (successor, probability).  Probabilities may be floats, Fractions or
    strings understood by Fraction.  Rows are renormalised within
    PROB_SUM_TOL and rejected beyond it.
    """

    n = len(trans)
    rows_out = []
    for s, menu in enumerate(trans):
        if len(menu) == 0:
            raise ModelError(f"state {s} has no actions")
        menu_out = []
        for a, entries in enumerate(menu):
            row = _normalize_row(
                ((succ, _to_float(p)) for succ, p in entries), f"state {s} action {a}"
            )
            for succ, _ in row:
                if not (0 <= succ < n):
                    raise ModelError(f"successor {succ} out of range in state {s}")
            menu_out.append(row)
        rows_out.append(tuple(menu_out))

    label_out = ()
    if labels:
        items = []
        for name, states in sorted(dict(labels).items()):
            fs = frozenset(states)
            for s in fs:
                if not (0 <= s < n):
                    raise ModelError(f"label {name!r} names unknown state {s}")
            items.append((name, fs))
        label_out = tuple(items)

    rew_out = None
    if rewards is not None:
        rew_rows = []
        for s, menu in enumerate(trans):
            row = []
            for a in range(len(menu)):
                r = float(rewards.get((s, a), 0.0)) if isinstance(rewards, dict) else float(rewards[s][a])
                if r < 0:
                    raise ModelError(f"negative reward at state {s} action {a}")
                row.append(r)
            rew_rows.append(tuple(row))
        rew_out = tuple(rew_rows)

    names_out = None
    if action_names is not None:
        names_out = tuple(
            tuple(action_names.get((s, a)) if isinstance(action_names, dict) else action_names[s][a]
                  for a in range(len(trans[s])))
            for s in range(n)
        )
        if all(all(nm is None for nm in row) for row in names_out):
            names_out = None

    return Mdp(n, tuple(rows_out), label_out, rew_out, names_out)


def _to_float(p) -> float:
    if isinstance(p, str):
        return float(Fraction(p))
    if isinstance(p, Fraction):
        return float(p)
    return float(p)


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


def unfold_memory(m: Mdp, bits: int) -> Mdp:
    """Product of the MDP with a free finite memory of 2**bits cells.

    State (s, v) becomes index s * 2**bits + v; action (a, w) of the
    original action a and memory update w becomes ordinal a * 2**bits + w.
    Labels lift to every memory cell, rewards are preserved.  Memory starts
    at cell 0 by convention of the callers.
    """

    if bits < 0:
        raise ModelError("memory bits must be nonnegative")
    if bits > MEMORY_BITS_CAP:
        raise ModelError(f"memory bits {bits} above cap {MEMORY_BITS_CAP}")
    if bits == 0:
        return m
    k = 1 << bits
    n = m.num_states * k

    rows = []
    names = [] if m.action_names is not None else None
    rew = [] if m.rewards is not None else None
    for s in range(m.num_states):
        for _v in range(k):
            menu = []
            nm_row = [] if names is not None else None
            rw_row = [] if rew is not None else None
            for a in range(m.num_actions(s)):
                base = m.trans[s][a]
                for w in range(k):
                    menu.append(tuple((succ * k + w, p) for succ, p in base))
                    if nm_row is not None:
                        nm = m.action_names[s][a]
                        nm_row.append(None if nm is None else f"{nm}@{w}")
                    if rw_row is not None:
                        rw_row.append(m.rewards[s][a])
            rows.append(tuple(menu))
            if names is not None:
                names.append(tuple(nm_row))
            if rew is not None:
                rew.append(tuple(rw_row))

    labels = tuple(
        (name, frozenset(s * k + v for s in states for v in range(k)))
        for name, states in m.labels
    )
    return Mdp(
        n,
        tuple(rows),
        labels,
        tuple(rew) if rew is not None else None,
        tuple(names) if names is not None else None,
    )
