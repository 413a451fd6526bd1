"""Counterexample pruning for reachability comparisons.

A family member violating a mandatory comparison often does so for reasons
local to a few states.  Deflation makes that local structure explicit: keep
the chain's rows on a small kept set C, and send every other state straight
to a fresh top state with a weight drawn from a family-wide bound, else to
a fresh bottom state.  With upper-bound weights the deflated reachability
dominates the true value of every member that agrees on C; with lower-bound
weights it is dominated by it.

The deflated value is solved on the run's row tables, reading the member's
one action per state, with no chain built: every state outside the kept
non-target states holds a fixed value, 1 on the target and its clipped
weight elsewhere, and only the kept states that can reach a state of
positive fixed value are solved, by one policy evaluation.  Each solve is
then a system of at most |C| states, whatever the size of the model.

A violation lv > rv + offset is certified for a whole sub-box by deflating
the large side with lower-bound weights and the small side with upper-bound
weights: if the pessimistic left value still beats the optimistic right
value, every member that agrees with the checked one on the kept states
violates the comparison too.  The kept sets are grown greedily, cheapest
state first, until the certificate closes or the reachable parts are
exhausted; each step adds one state to one side and solves only that side
again.
"""

from __future__ import annotations

from dataclasses import dataclass

# bench/spans.py times chain solves by wrapping reach_probs at this
# module's name, so it stays importable here
from .analysis import (
    GUARD_BAND,
    RowTable,
    _attractor,
    _mask,
    _policy_iteration,
    _some_action_enters,
    _states,
    reach_probs,  # noqa: F401
)
from .family import split_node


def deflated_reach(rows: RowTable, choice, keep, exit_weights, target, root: int) -> float:
    """Reachability of target (plus the top state) from root in the chain
    that choice, one action ordinal per state, induces on the model of
    rows, deflated outside keep.

    Every state but the kept non-target ones holds a fixed value: 1 on the
    target, else its exit weight clipped to [0, 1].  The kept states that
    can reach a state of positive fixed value are solved by one policy
    evaluation on one-action menus, and the other kept states are worth 0.
    A root in the target is worth 1 and an unkept one its clipped weight,
    without a solve.
    """

    if root in target:
        return 1.0
    if root not in keep:
        return _clip(exit_weights[root])
    kept = [s for s in keep if s not in target]
    menus = {s: (choice[s],) for s in kept}
    inner, near, seeds = _mask(kept), 0, 0
    for s in kept:
        near |= rows.succ[s][choice[s]]
    # only the fixed values of the kept states' successors are read
    v = [0.0] * len(choice)
    for t in _states(near & ~inner):
        v[t] = 1.0 if t in target else _clip(exit_weights[t])
        if v[t] > 0.0:
            seeds |= 1 << t
    inside, _, _ = _attractor(seeds, _some_action_enters(rows, menus), inner)
    # one action per state, so the gain scan switches nothing
    _policy_iteration(rows, menus, _states(inside & inner), v, choice, 1.0)
    return _clip(v[root])


def _clip(w) -> float:
    return min(max(float(w), 0.0), 1.0)


@dataclass(frozen=True)
class CeSide:
    """One side of a violated comparison: the model's row tables and a
    member's action choice per state, with its root, target set and the
    family-wide per-state reachability bound used as exit weights when
    deflating."""

    rows: RowTable
    choice: tuple[int, ...]
    root: int
    target: frozenset[int]
    exit_weights: tuple


def grow_conflict(left, right, offset: float):
    """Grow kept sets until the violation is certified for the sub-box.

    left and right are CeSide or plain floats (scalar comparison sides).
    Certified means deflated(left, lower bounds) > deflated(right, upper
    bounds) + offset + GUARD_BAND, which the caller arranges by passing the
    matching exit weight arrays.  Expansion picks the frontier state with
    the fewest actions in the unrestricted model, ties by state index, then
    by side, left first; only the side that grew is solved again.  Returns
    (keep_left, keep_right) or None when even the full reachable sets leave
    the certificate open.
    """

    sides = [side if isinstance(side, CeSide) else None for side in (left, right)]
    keeps = [set() if side is not None else None for side in sides]
    frontiers = [{side.root} if side is not None else set() for side in sides]

    def value(pos):
        side = sides[pos]
        if side is None:
            return float((left, right)[pos])
        return deflated_reach(
            side.rows, side.choice, keeps[pos], side.exit_weights, side.target, side.root
        )

    values = [value(0), value(1)]
    while not values[0] > values[1] + offset + GUARD_BAND:
        best = None
        for pos in (0, 1):
            side = sides[pos]
            if side is None:
                continue
            for s in frontiers[pos] - keeps[pos]:
                key = (len(side.rows.succ[s]), s, pos)
                if best is None or key < best[0]:
                    best = (key, pos, s)
        if best is None:
            return None
        _, pos, s = best
        side = sides[pos]
        keeps[pos].add(s)
        frontiers[pos].update(_states(side.rows.succ[s][side.choice[s]]))
        values[pos] = value(pos)
    return frozenset(keeps[0] or ()), frozenset(keeps[1] or ())


def conflict_classes(space, node, slot_left, keep_left, slot_right, keep_right):
    """Parameter classes the certificate depends on: classes of kept states
    under their side's controller slot, skipping classes the node has
    already pinned to a single action."""

    ks = set()
    for slot, keep in ((slot_left, keep_left), (slot_right, keep_right)):
        if slot is None or keep is None:
            continue
        for s in keep:
            k = space.class_index(slot, s)
            if len(node.domains[k]) > 1:
                ks.add(k)
    return tuple(sorted(ks))


def complement_boxes(node, realisation, classes):
    """Carve the node along the realisation's choices on the classes.

    Returns (agree, rest): agree fixes every listed class to the
    realisation's action and holds exactly the members sharing the
    certificate's structure; rest is a list of disjoint boxes covering the
    complement, box j fixing the classes before it and excluding the
    realisation's action at its own class, one per listed class with two
    or more actions in the node.  Together they partition the node.
    """

    agree, rest = node, []
    for k in classes:
        if len(agree.domains[k]) > 1:
            agree, other = split_node(agree, k, (realisation[k],))
            rest.append(other)
    return agree, rest
