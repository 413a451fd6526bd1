"""Exact rational chain analysis, used as a test oracle.

Every float has an exact Fraction value, so converting a chain's rows to
Fractions and solving the linear systems with exact Gaussian elimination
yields the mathematically exact answer for the chain as stored.  Quadratic
memory and cubic time in rationals: intended for models of around ten
states, not for production checking.  Inputs, chains of one action per
state as `impose` builds them, are checked as the float solvers check them.
The qualitative sets are exact graph computations, so each system's live
states come from the float module's fixpoints (`_chain_sets`,
`_chain_closures`); reachability and reward share one solve (`_solve_chain`).
"""

from __future__ import annotations

from fractions import Fraction

from .analysis import _chain_closures, _chain_sets, _mask, _states, _target_states
from .errors import MissingRewardsError, ModelError
from .model import Mdp


def solve_fractions(a, b):
    """Solve a x = b by Gaussian elimination over Fractions.

    a is a list of rows, b a list; both are copied.  Raises ModelError on a
    singular matrix.
    """

    n = len(b)
    m = [list(map(Fraction, row)) + [Fraction(x)] for row, x in zip(a, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise ModelError("singular system in exact solve")
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def _rows(mc: Mdp):
    return [[(t, Fraction(p)) for t, p in menu[0]] for menu in mc.trans]


def _solve_chain(rows, mid, b, out) -> None:
    """Solve x = P x + b on the chain's states mid, ascending, into out at
    mid: rows are the chain's rows as _rows gives them, and b has one entry
    per state of mid."""

    idx = {s: i for i, s in enumerate(mid)}
    a = [[Fraction(1 if i == j else 0) for j in range(len(mid))] for i in range(len(mid))]
    for s in mid:
        for succ, p in rows[s]:
            if succ in idx:
                a[idx[s]][idx[succ]] -= p
    for s, x in zip(mid, solve_fractions(a, b)):
        out[s] = x


def reach_probs_exact(mc: Mdp, target) -> list[Fraction]:
    """Exact reachability probabilities of the chain as stored."""

    t = _target_states(mc, target)
    out = [Fraction(0)] * mc.num_states
    for s in t:
        out[s] = Fraction(1)
    inside = _mask(t)
    mid = _states(_chain_sets(mc, inside)[0] & ~inside)
    rows = _rows(mc)
    b = [sum((p for succ, p in rows[s] if succ in t), Fraction(0)) for s in mid]
    _solve_chain(rows, mid, b, out)
    return out


def expected_reward_exact(mc: Mdp, target):
    """Exact expected rewards; None marks states where the target is not
    almost surely reached (the float engine reports +inf there)."""

    if mc.rewards is None:
        raise MissingRewardsError("no rewards")
    t = _target_states(mc, target)
    out: list[Fraction | None] = [None] * mc.num_states
    for s in t:
        out[s] = Fraction(0)
    inside = _mask(t)
    mid = _states(_chain_sets(mc, inside)[1] & ~inside)
    _solve_chain(_rows(mc), mid, [Fraction(mc.rewards[s][0]) for s in mid], out)
    return out


def expected_visits_exact(mc: Mdp, from_state: int):
    """Exact expected visit counts for transient states; None marks states
    of a bottom SCC hit with positive probability (the float engine caps
    them), 0 marks unreachable ones."""

    n = mc.num_states
    if not (0 <= from_state < n):
        raise ModelError(f"state {from_state} out of range")
    reach, bottoms = _chain_closures(mc)
    reachable = reach[from_state]
    rows = _rows(mc)
    transient = sorted(s for s in range(n) if s not in bottoms)
    out: list[Fraction | None] = [Fraction(0)] * n
    if transient:
        idx = {s: i for i, s in enumerate(transient)}
        a = [[Fraction(1 if i == j else 0) for j in range(len(transient))] for i in range(len(transient))]
        b = [Fraction(0)] * len(transient)
        if from_state in idx:
            b[idx[from_state]] = Fraction(1)
        for s in transient:
            for succ, p in rows[s]:
                if succ in idx:
                    a[idx[succ]][idx[s]] -= p
        x = solve_fractions(a, b)
        for s in transient:
            out[s] = x[idx[s]] if s in reachable else Fraction(0)
    for s in bottoms:
        out[s] = None if s in reachable else Fraction(0)
    return out
