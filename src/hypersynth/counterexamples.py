"""Counterexample pruning for reachability comparisons.

A family member violating a mandatory comparison often does so for reasons
local to a few states.  Deflation makes that local structure explicit: keep
the chain's rows on a small kept set C, and send every other state straight
to a fresh top state with a weight drawn from a family-wide bound, else to
a fresh bottom state.  With upper-bound weights the deflated reachability
dominates the true value of every member that agrees on C; with lower-bound
weights it is dominated by it.

A violation lv > rv + offset is certified for a whole sub-box by deflating
the large side with lower-bound weights and the small side with upper-bound
weights: if the pessimistic left value still beats the optimistic right
value, every member that agrees with the checked one on the kept states
violates the comparison too.  The kept sets are grown greedily, cheapest
state first, until the certificate closes or the reachable parts are
exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import reach_probs
from .model import Mc


def build_deflated(mc: Mc, keep, exit_weights) -> Mc:
    """Deflate the chain outside the kept set.

    States in keep retain their rows.  Every other state s moves to the top
    state with probability exit_weights[s] and to the bottom state with the
    rest.  Top is state n, bottom is n + 1, both absorbing.  Labels are
    dropped; pass targets explicitly when solving.
    """

    n = mc.num_states
    rows = []
    for s in range(n):
        if s in keep:
            rows.append(mc.trans[s])
            continue
        g = min(max(float(exit_weights[s]), 0.0), 1.0)
        if g <= 0.0:
            rows.append(((n + 1, 1.0),))
        elif g >= 1.0:
            rows.append(((n, 1.0),))
        else:
            rows.append(((n, g), (n + 1, 1.0 - g)))
    rows.append(((n, 1.0),))
    rows.append(((n + 1, 1.0),))
    return Mc(n + 2, tuple(rows))


def deflated_reach(mc: Mc, keep, exit_weights, target, root: int) -> float:
    """Reachability of target (plus the top state) in the deflated chain."""

    d = build_deflated(mc, keep, exit_weights)
    t = frozenset(target) | {mc.num_states}
    return float(reach_probs(d, t)[root])


@dataclass(frozen=True)
class CeSide:
    """One side of a violated comparison: a member chain with its root,
    target set and the family-wide per-state reachability bound used as
    exit weights when deflating."""

    mc: Mc
    root: int
    target: frozenset[int]
    exit_weights: tuple


def grow_conflict(left, right, offset: float, guard: float, act_counts):
    """Grow kept sets until the violation is certified for the sub-box.

    left and right are CeSide or plain floats (scalar comparison sides).
    Certified means deflated(left, lower bounds) > deflated(right, upper
    bounds) + offset + guard, which the caller arranges by passing the
    matching exit weight arrays.  Expansion picks the frontier state with
    the fewest actions in the unrestricted model, ties by state index, then
    by side, left first.  Returns (keep_left, keep_right) or None when even
    the full reachable sets leave the certificate open.
    """

    sides = []
    for side in (left, right):
        if isinstance(side, CeSide):
            sides.append({"side": side, "keep": set()})
        else:
            sides.append({"side": float(side), "keep": None})

    def value(entry):
        side = entry["side"]
        if not isinstance(side, CeSide):
            return side
        return deflated_reach(side.mc, entry["keep"], side.exit_weights, side.target, side.root)

    def certified():
        return value(sides[0]) > value(sides[1]) + offset + guard

    if certified():
        return frozenset(sides[0]["keep"] or ()), frozenset(sides[1]["keep"] or ())

    while True:
        best = None
        for pos, entry in enumerate(sides):
            side = entry["side"]
            if not isinstance(side, CeSide):
                continue
            frontier = {side.root} | {
                t for s in entry["keep"] for t, _ in side.mc.trans[s]
            }
            for s in frontier - entry["keep"]:
                key = (act_counts[s], s, pos)
                if best is None or key < best[0]:
                    best = (key, pos, s)
        if best is None:
            return None
        _, pos, s = best
        sides[pos]["keep"].add(s)
        if certified():
            return frozenset(sides[0]["keep"] or ()), frozenset(sides[1]["keep"] or ())


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
    complement, box j fixing the first j classes and excluding the
    realisation's action at class j.  Together they partition the node.
    """

    rest = []
    for j, k in enumerate(classes):
        excluded = tuple(a for a in node.domains[k] if a != realisation[k])
        if not excluded:
            # class already decided in this node, nothing to carve
            continue
        child = node
        for kk in classes[:j]:
            child = child.with_domain(kk, (realisation[kk],))
        child = child.with_domain(k, excluded)
        rest.append(child)
    agree = node
    for k in classes:
        agree = agree.with_domain(k, (realisation[k],))
    return agree, rest
