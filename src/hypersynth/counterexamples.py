"""Counterexample pruning for reachability comparisons.

A family member violating a mandatory comparison often does so for reasons
local to a few states.  Deflation makes that local structure explicit: keep
the chain's rows on a small kept set C, and send every other state straight
to a fresh top state with a weight drawn from a family-wide bound, else to
a fresh bottom state.  With upper-bound weights the deflated reachability
dominates the true value of every member that agrees on C; with lower-bound
weights it is dominated by it.

The deflated chain is solved collapsed onto C: its states are the kept
non-target states plus top and bottom, an edge into the target goes to top,
and an edge to an unkept state splits between top and bottom by that
state's weight.  Each solve is then one chain of |C| + 2 states, whatever
the size of the model.

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

from .analysis import GUARD_BAND, reach_probs
from .model import Mc


def deflated_reach(mc: Mc, keep, exit_weights, target, root: int) -> float:
    """Reachability of target (plus the top state) from root in the chain
    deflated outside keep, solved on the kept set.

    The chain solved holds the kept non-target states plus top and bottom:
    an edge into the target goes to top, and an edge to an unkept state u
    with probability p goes to top with p * w_u and to bottom with the rest,
    w_u being u's exit weight clipped to [0, 1].  A root in the target is
    worth 1 and an unkept one its clipped weight, without a solve.
    """

    if root in target:
        return 1.0
    if root not in keep:
        return _clip(exit_weights[root])
    kept = sorted(s for s in keep if s not in target)
    idx = {s: i for i, s in enumerate(kept)}
    top, bottom = len(kept), len(kept) + 1
    rows = []
    for s in kept:
        row = []
        for t, p in mc.trans[s]:
            if t in target:
                row.append((top, p))
            elif t in idx:
                row.append((idx[t], p))
            else:
                w = _clip(exit_weights[t])
                if w > 0.0:
                    row.append((top, p * w))
                if w < 1.0:
                    row.append((bottom, p * (1.0 - w)))
        rows.append(tuple(row))
    rows.append(((top, 1.0),))
    rows.append(((bottom, 1.0),))
    return float(reach_probs(Mc(len(kept) + 2, tuple(rows)), frozenset({top}))[idx[root]])


def _clip(w) -> float:
    return min(max(float(w), 0.0), 1.0)


@dataclass(frozen=True)
class CeSide:
    """One side of a violated comparison: a member chain with its root,
    target set and the family-wide per-state reachability bound used as
    exit weights when deflating."""

    mc: Mc
    root: int
    target: frozenset[int]
    exit_weights: tuple


def grow_conflict(left, right, offset: float, act_counts):
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
        return deflated_reach(side.mc, keeps[pos], side.exit_weights, side.target, side.root)

    values = [value(0), value(1)]
    while not values[0] > values[1] + offset + GUARD_BAND:
        best = None
        for pos in (0, 1):
            if sides[pos] is None:
                continue
            for s in frontiers[pos] - keeps[pos]:
                key = (act_counts[s], s, pos)
                if best is None or key < best[0]:
                    best = (key, pos, s)
        if best is None:
            return None
        _, pos, s = best
        keeps[pos].add(s)
        frontiers[pos].update(t for t, _ in sides[pos].mc.trans[s])
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
