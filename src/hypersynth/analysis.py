"""Model checking of reachability and expected reward, for MCs and MDPs.

Markov chains are solved directly: a chain is an MDP with one action per
state, as `impose` builds it, so its qualitative sets are the MDPs'
maximal ones on its one action (`_chain_sets`), and its quantities come
from dense linear solves, exact up to machine precision.  The chain
solvers raise ModelError on a state with more than one action.
MDP extrema (min/max over all controllers) use qualitative precomputation
followed by policy iteration on the remaining states, so the values
returned are those of the witness policy, each from one dense linear solve.

Every qualitative set and witness, of an MDP or a chain, is grown on
integer bitmasks by one least fixpoint, `_attractor`, or by the forward
closures of `RowTable.reachable`; the batched member checks and the cones
below grow theirs on dense boolean arrays with `_grow`, the same least
fixpoint over a stack of graphs.  `_attractor` scans the states in index
order, and a state joins as soon as its scan finds an entering action,
with the lowest such ordinal, so a state may enter through one that
joined earlier in the same round.

The extremal solves range over the controllers choosing, in each state s,
among the ascending action ordinals allowed[s]; by default every action.
A box of a controller family is analysed in place this way, on the MDP's
row tables (`row_table`), built once per model: per state and action, the
row's successors as one bitmask, and its transitions leaving the state
with their total probability.
Every fixpoint and policy-iteration round scans only the allowed actions'
rows: a join test is an integer and of a row's mask with the set grown so
far, and policy iteration reads the leaving transitions and their mass
from the table.  Witnesses come out in the MDP's own ordinals.

Policy iteration starts from a proper policy, one under which every
undecided state leaves the undecided states with probability one: for
maximal reachability an action entering the attractor grown from the
target, for minimal reward the actions of a controller reaching the target
almost surely, and for minimal reachability and maximal reward any policy,
since there every policy is proper.  A state switches only to an action
whose gain beats its current action's by more than SWITCH_MARGIN, so every
policy stays proper and every evaluation is well posed; zero-reward
cycles and value-preserving loops are never entered.  The final policy is
the witness.

Members of a controller family are checked in batches on a model compiled
together with the formula (`compile_model`, `check_members`), in chunks
whose systems take at most CHUNK_BYTES.  Compiling works out the
formula's query groups once, its solve plan: the reach queries of a slot
whose targets are closed (no action leaves them) and pairwise disjoint
share one system, with one right-hand side per target; every other query
is a group of its own.
A batch takes its members as one (members x classes) array of action
ordinals and takes their chains' action rows, one (chains x states) array
per controller slot the plan uses.  A slot that leaves out some class
with more than one action in the family, as each slot of a
two-controller spec does, can have one chain under many members: the
array then holds each distinct chain once, and every member reads the
values of its own.  The qualitative sets are bounded once, when compiling, from
the MDP's graph: per target, the states that every controller leads to it
with positive probability (sure), and those that only some controller
does (undetermined); for a reward query, the same two for reaching it
almost surely.  Each member's chain is one controller, so its states that
can reach a target hold the sure ones and lie within sure and
undetermined.  A batch settles only the undetermined states, by one
expansion per query group over all its targets (`_grow`), one more for
a reward query's almost-sure states, and none when no state is
undetermined.  The groups are then solved in plan order for
all members.  Each chain's system holds
only its live states, those left to solve (mid), in index order, and no
padding: a batch makes one np.linalg.solve call per live-set size, so a
chain's values do not depend on its batch and are the same to the bit as
in a batch of that member alone.  check_mc on each member's imposed chains
stays the reference: qualitative sets and infinite values are the same,
and a group of one target solves check_mc's own system, so its values are
check_mc's exactly; a group of several targets solves them together, on
the states that can reach any of them, and agrees to within rounding.
A check that reads only some sides of the formula can run on the model cut
down to those sides' cones (`restrict_to_cones`), the states reachable
from theirs under any action: a closed set, so their values are the whole
model's, to within rounding.

Every dense solve of this module is counted (`solve_count`): one per
linear system an extremal or chain solve builds, and one per query group
of a batch of members, however many systems it solves
(`CompiledModel.solves`).  The synthesis loop prices its work in
these counts.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from functools import cached_property
from numbers import Integral

import numpy as np

from .errors import InvalidControllerError, MissingRewardsError, ModelError
from .formulas import InstantiatedFormula, Query
from .model import Controller, Mdp, Row

# The engine's numeric tolerances.  An atom is decided on a whole box (or a
# certificate closed) only with GUARD_BAND of slack on its bounds, to absorb
# solver noise; policy iteration switches a state's action only on a gain
# above SWITCH_MARGIN.
GUARD_BAND = 1e-7
SWITCH_MARGIN = 1e-10

# Expected-visit sentinel for states of a bottom SCC hit with positive
# probability; genuine transient counts are exact.
VISIT_CAP = 1e6

INF = float("inf")


class _SolveCount(threading.local):
    """Dense linear-solve calls made so far, per thread, so that runs in
    different threads do not mix their counts."""

    solves = 0


_count = _SolveCount()


def _dense_solve(a, b) -> np.ndarray:
    """np.linalg.solve, counted in solve_count; every solve of this module
    but the member checks' (_solve, which counts its own) goes through
    here."""

    _count.solves += 1
    return np.linalg.solve(a, b)


def solve_count() -> int:
    """Counted dense solves made so far in this thread: one per linear
    system of an extremal or chain solve, and one per query group of a
    batch of members.  Callers price work by the difference between two
    reads."""

    return _count.solves


def _target_states(model, target) -> frozenset[int]:
    try:
        states = frozenset(target)
    except TypeError:
        raise ModelError(f"target {target!r} is not a set of states") from None
    for s in states:
        if not isinstance(s, Integral):
            raise ModelError(f"target state {s!r} is not an integer")
        if not (0 <= s < model.num_states):
            raise ModelError(f"target state {s} out of range")
    return states


# ---------------------------------------------------------------------------
# Graph analysis: row tables and bitmask fixpoints, for MDPs and chains


@dataclass(frozen=True, eq=False)
class RowTable:
    """The transition rows of an MDP, as the fixpoints and the extremal
    solves read them, built once per model (`row_table`).  For action a of
    state s: succ[s][a] is the row's successors as a bitmask (bit t set
    when t is one), out[s][a] its transitions to other states in successor
    order, and leave[s][a] their total probability.  A chain's table for the
    graph fixpoints and closures (_chain_rows) has succ alone: out and leave
    are empty there, since only the extremal solves read them."""

    num_states: int
    succ: tuple[tuple[int, ...], ...]
    out: tuple[tuple[Row, ...], ...]
    leave: tuple[tuple[float, ...], ...]

    @property
    def everything(self) -> int:
        """The bitmask of every state."""

        return (1 << self.num_states) - 1

    def reachable(self, controller, state: int) -> list[int]:
        """The states reachable from state in the controller's chain, in
        ascending order."""

        seen = frontier = 1 << state
        while frontier:
            step = 0
            for s in _states(frontier):
                step |= self.succ[s][controller[s]]
            frontier = step & ~seen
            seen |= frontier
        return _states(seen)


def row_table(m: Mdp) -> RowTable:
    """The row tables of the MDP."""

    succ = tuple(tuple(_row_mask(row) for row in menu) for menu in m.trans)
    out = tuple(
        tuple(tuple((t, p) for t, p in row if t != s) for row in menu)
        for s, menu in enumerate(m.trans)
    )
    leave = tuple(tuple(sum(p for _, p in row) for row in menu) for menu in out)
    return RowTable(m.num_states, succ, out, leave)


def _mask(states) -> int:
    """The bitmask of distinct states."""

    return sum(1 << s for s in states)


def _row_mask(row: Row) -> int:
    """The bitmask of a row's successors.  Bits are or-ed, so a successor
    the row lists twice sets its bit once."""

    mask = 0
    for t, _ in row:
        mask |= 1 << t
    return mask


def _states(mask: int) -> list[int]:
    """The states of a bitmask, in ascending order."""

    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _attractor(seeds: int, joins, candidates: int):
    """Least fixpoint grown from the seeds in rounds, the sets as
    bitmasks.

    Each round scans the candidates still outside, in index order; a state
    joins at once, with the action joins(s, inside) names, or stays out
    when that is None.  Growth stops after a round with no joins.  Returns
    (inside, actions of the joined states, states left out in index order).
    """

    inside = seeds
    actions = {}
    outside = _states(candidates & ~inside)
    grew = True
    while grew:
        grew = False
        left = []
        for s in outside:
            a = joins(s, inside)
            if a is None:
                left.append(s)
            else:
                inside |= 1 << s
                actions[s] = a
                grew = True
        outside = left
    return inside, actions, outside


def _every_action(m: Mdp):
    """Per state, every action ordinal: the menus of the unrestricted MDP."""

    return [range(m.num_actions(s)) for s in range(m.num_states)]


def _some_action_enters(rows: RowTable, allowed):
    """An _attractor join rule: the first allowed action entering the
    inside."""

    succ = rows.succ

    def joins(s, inside):
        row = succ[s]
        for a in allowed[s]:
            if row[a] & inside:
                return a
        return None

    return joins


def _every_action_enters(rows: RowTable, allowed):
    """An _attractor join rule: every allowed action enters the inside.
    The action named is 0, since only the set grown is read."""

    succ = rows.succ

    def joins(s, inside):
        row = succ[s]
        for a in allowed[s]:
            if not row[a] & inside:
                return None
        return 0

    return joins


def _prob1_max(rows: RowTable, allowed, t: int, universe=None):
    """States where some controller reaches the target almost surely, as a
    bitmask, plus, per such state, an action of a controller that does.
    universe, a bitmask when given, holds them all, such as the states that
    can reach the target."""

    succ = rows.succ
    universe = rows.everything if universe is None else universe

    def joins(s, inside):
        row = succ[s]
        for a in allowed[s]:
            if not row[a] & off and row[a] & inside:
                return a
        return None

    while True:
        off = ~universe  # the states an action joining may not step into
        inside, actions, _ = _attractor(t, joins, universe)
        if inside == universe:
            return universe, actions
        universe = inside


def _avoid_sets(rows: RowTable, allowed, t: int):
    """Z: states with an action strategy that surely avoids the target
    forever, the complement of the states where every controller reaches
    it with positive probability.  B: states that can, avoiding the target,
    reach Z with positive probability.  Returns (Z, B, actions) with Z and
    B as bitmasks, where actions give, for each state of B, a choice
    realising the avoidance (on Z, one that stays in Z)."""

    succ = rows.succ
    _, _, left_out = _attractor(t, _every_action_enters(rows, allowed), rows.everything)
    z = _mask(left_out)
    off = ~z
    actions = {}
    for s in left_out:
        row = succ[s]
        for a in allowed[s]:
            if not row[a] & off:
                actions[s] = a
                break
    b, b_actions, _ = _attractor(z, _some_action_enters(rows, allowed), rows.everything & ~t)
    actions.update(b_actions)
    return z, b, actions


def _qualitative(rows: RowTable, allowed, t: int, direction: str):
    """(prob0, prob1, actions) for the direction, the sets as bitmasks.
    For max, the actions of a controller reaching the target almost surely
    on prob1, and elsewhere outside prob0 an action entering the attractor
    grown from the target, so that the target stays reachable; for min, the
    actions of _avoid_sets, which keep prob0 away from the target."""

    everything = rows.everything
    if direction == "max":
        can, actions, _ = _attractor(t, _some_action_enters(rows, allowed), everything)
        prob1, sure = _prob1_max(rows, allowed, t, can)
        actions.update(sure)
        return everything & ~can, prob1, actions
    if direction == "min":
        z, b, actions = _avoid_sets(rows, allowed, t)
        return z, everything & ~b, actions
    raise ModelError(f"unknown direction {direction!r}")


def qualitative_states(m: Mdp, target, direction: str, allowed=None):
    """Graph-only classification: (prob0, prob1) frozensets for the given
    optimisation direction over the controllers choosing among the allowed
    actions, as in extremal_reach."""

    allowed = _every_action(m) if allowed is None else allowed
    t = _mask(_target_states(m, target))
    prob0, prob1, _ = _qualitative(row_table(m), allowed, t, direction)
    return frozenset(_states(prob0)), frozenset(_states(prob1))


def _one_action(mc: Mdp) -> None:
    """Raise ModelError unless every state of the chain has one action."""

    for s, menu in enumerate(mc.trans):
        if len(menu) != 1:
            raise ModelError(f"state {s} has {len(menu)} actions; a chain has one")


def _chain_rows(mc: Mdp) -> RowTable:
    """The chain's row table with its successor masks alone, all that the
    graph fixpoints and closures read: out and leave are left empty."""

    _one_action(mc)
    return RowTable(mc.num_states, tuple((_row_mask(menu[0]),) for menu in mc.trans), (), ())


def _chain_sets(mc: Mdp, t: int) -> tuple[int, int]:
    """(can, almost): the states of the chain that reach the target t, a
    bitmask, with positive probability and almost surely, the target
    included, as bitmasks: the complement of extremal_reach's prob0 and its
    prob1, on the chain's one action."""

    rows = _chain_rows(mc)
    prob0, prob1, _ = _qualitative(rows, [(0,)] * mc.num_states, t, "max")
    return rows.everything & ~prob0, prob1


def _chain_closures(mc: Mdp):
    """(reach, bottoms): per state, the set of states reachable from it in
    the chain, and the set of states lying in some bottom SCC, which are
    those that every state they reach can reach back."""

    rows = _chain_rows(mc)
    only = (0,) * mc.num_states
    reach = [set(rows.reachable(only, s)) for s in range(mc.num_states)]
    return reach, {s for s, seen in enumerate(reach) if all(s in reach[u] for u in seen)}


# ---------------------------------------------------------------------------
# Markov chains


def reach_probs(mc: Mdp, target) -> np.ndarray:
    """Probability of eventually visiting the target, per state.

    States that cannot reach the target get exact 0, target states exact 1,
    everything else comes from a dense linear solve on the remaining block.
    """

    t = _target_states(mc, target)
    n = mc.num_states
    out = np.zeros(n)
    for s in t:
        out[s] = 1.0
    inside = _mask(t)
    mid = _states(_chain_sets(mc, inside)[0] & ~inside)
    if not mid:
        return out
    idx = {s: i for i, s in enumerate(mid)}
    a = np.eye(len(mid))
    b = np.zeros(len(mid))
    for s in mid:
        for succ, p in mc.trans[s][0]:
            if succ in t:
                b[idx[s]] += p
            elif succ in idx:
                a[idx[s], idx[succ]] -= p
    x = _dense_solve(a, b)
    for s in mid:
        out[s] = min(max(x[idx[s]], 0.0), 1.0)
    return out


def expected_reward(mc: Mdp, target) -> np.ndarray:
    """Expected total reward accumulated before the target is reached.

    Infinite where the target is not reached almost surely, zero on the
    target itself.  Requires a reward structure.
    """

    _one_action(mc)
    if mc.rewards is None:
        raise MissingRewardsError("expected_reward on a chain without rewards")
    t = _target_states(mc, target)
    n = mc.num_states
    out = np.full(n, INF)
    for s in t:
        out[s] = 0.0
    inside = _mask(t)
    mid = _states(_chain_sets(mc, inside)[1] & ~inside)
    if not mid:
        return out
    idx = {s: i for i, s in enumerate(mid)}
    a = np.eye(len(mid))
    b = np.zeros(len(mid))
    for s in mid:
        b[idx[s]] += mc.rewards[s][0]
        for succ, p in mc.trans[s][0]:
            if succ in idx:
                a[idx[s], idx[succ]] -= p
    x = _dense_solve(a, b)
    for s in mid:
        out[s] = max(x[idx[s]], 0.0)
    return out


def expected_visits(mc: Mdp, from_state: int) -> np.ndarray:
    """Expected number of visits to each state, starting from from_state.

    Transient states get the exact count from a linear solve; states of a
    bottom SCC entered with positive probability get VISIT_CAP; unreachable
    states get 0.
    """

    n = mc.num_states
    if not (0 <= from_state < n):
        raise ModelError(f"state {from_state} out of range")
    reach, bottoms = _chain_closures(mc)
    reachable = reach[from_state]
    out = np.zeros(n)
    transient = sorted(s for s in range(n) if s not in bottoms)
    if transient:
        idx = {s: i for i, s in enumerate(transient)}
        # visits(t) = [from] (I - Q)^{-1}, solved as (I - Q)^T x = e_from
        a = np.eye(len(transient))
        for s in transient:
            for succ, p in mc.trans[s][0]:
                if succ in idx:
                    a[idx[succ], idx[s]] -= p
        b = np.zeros(len(transient))
        if from_state in idx:
            b[idx[from_state]] = 1.0
        x = _dense_solve(a, b)
        for s in transient:
            out[s] = max(x[idx[s]], 0.0) if s in reachable else 0.0
    for s in bottoms:
        if s in reachable:
            out[s] = VISIT_CAP
    return out


# ---------------------------------------------------------------------------
# MDP quantitative analysis


@dataclass(frozen=True)
class ExtremalResult:
    """Extremal values over all controllers, one per state, plus a witness
    controller, the final policy of the policy iteration, whose own values
    they are.
    Witness ordinals are the model's own, each among the actions the
    solve allowed in its state."""

    values: tuple[float, ...]
    witness: Controller


def _policy_iteration(rows: RowTable, allowed, free, v, choice, sign, reward=None):
    """Policy iteration on the free states, in place on v and choice.

    The values of the other states are fixed.  choice must be proper on the
    free states (every free state leaves them with probability one), and is
    then proper after every round.  A round evaluates choice with one dense
    solve, each row divided by the probability of leaving its state, so a
    near-1 self-loop costs no precision.  Then each state takes its best
    allowed action (sign 1 maximises, -1 minimises; reward(s, a) is added
    for reward queries) when that beats the current action's gain,
    r + sum over t != s of p (v[t] - v[s]), by more than SWITCH_MARGIN;
    without a margin, rounding alone could switch tied actions back and
    forth for ever.  A strict switch from a proper policy yields a proper
    one, since rewards are nonnegative.  Stops after a round without a
    switch.  The transitions leaving each state and their mass come from
    the row tables.
    """

    if not free:
        return
    idx = {s: i for i, s in enumerate(free)}
    out, leave = rows.out, rows.leave
    while True:
        mat = np.eye(len(free))
        rhs = np.zeros(len(free))
        for s, i in idx.items():
            a = choice[s]
            r = reward(s, a) if reward else 0.0
            mass = leave[s][a]
            for t, p in out[s][a]:
                j = idx.get(t)
                if j is None:
                    r += p * v[t]
                else:
                    mat[i, j] -= p / mass
            rhs[i] = r / mass
        for s, x in zip(free, _dense_solve(mat, rhs).tolist()):
            v[s] = x
        switched = False
        for s in free:
            vs = v[s]
            gains = {}
            for a in allowed[s]:
                r = reward(s, a) if reward else 0.0
                gains[a] = sign * (r + sum(p * (v[t] - vs) for t, p in out[s][a]))
            best = max(gains, key=gains.get)  # the lowest ordinal among ties
            if gains[best] > gains[choice[s]] + SWITCH_MARGIN:
                choice[s] = best
                switched = True
        if not switched:
            return


def extremal_reach(m: Mdp, target, direction: str, allowed=None, rows=None) -> ExtremalResult:
    """Minimal or maximal reachability probability over all controllers
    choosing, in each state s, among the action ordinals allowed[s] (an
    ascending sequence; None allows every action).  rows is the model's
    row_table; a caller solving many boxes of one model passes it, and
    without it the table is built for this call."""

    rows = row_table(m) if rows is None else rows
    allowed = _every_action(m) if allowed is None else allowed
    t = _mask(_target_states(m, target))
    n = m.num_states
    prob0, prob1, actions = _qualitative(rows, allowed, t, direction)
    v = [0.0] * n
    for s in _states(t | prob1):
        v[s] = 1.0
    free = _states(rows.everything & ~(t | prob0 | prob1))
    # the qualitative actions are proper on the free states: for max they
    # lead toward the target, and for min every policy is proper off prob0
    choice = [menu[0] for menu in allowed]
    for s, a in actions.items():
        choice[s] = a
    sign = 1.0 if direction == "max" else -1.0
    _policy_iteration(rows, allowed, free, v, choice, sign)
    for s in free:  # the other states hold an exact 0 or 1
        v[s] = min(max(v[s], 0.0), 1.0)
    return ExtremalResult(tuple(v), Controller(tuple(choice)))


def extremal_reward(m: Mdp, target, direction: str, allowed=None, rows=None) -> ExtremalResult:
    """Minimal or maximal expected reward before the target, over all
    controllers choosing among the allowed actions, as in extremal_reach.
    States where the relevant direction cannot force almost-sure
    reachability carry the +inf sentinel."""

    if m.rewards is None:
        raise MissingRewardsError("reward query on a model without rewards")
    rows = row_table(m) if rows is None else rows
    allowed = _every_action(m) if allowed is None else allowed
    t = _mask(_target_states(m, target))
    n = m.num_states
    choice = [menu[0] for menu in allowed]
    if not t:
        return ExtremalResult((INF,) * n, Controller(tuple(choice)))

    v = [0.0] * n
    if direction == "max":
        # finite exactly off B, where every controller reaches almost
        # surely; there every policy is proper, and no action enters B
        _, infinite, actions = _avoid_sets(rows, allowed, t)
        sign = 1.0
    elif direction == "min":
        # finite where some controller reaches almost surely; the actions
        # of one that does are proper, and only actions staying in that
        # region stay allowed
        reach, actions = _prob1_max(rows, allowed, t)
        infinite = rows.everything & ~reach
        allowed = [
            [a for a in menu if not rows.succ[s][a] & infinite]
            for s, menu in enumerate(allowed)
        ]
        sign = -1.0
    else:
        raise ModelError(f"unknown direction {direction!r}")
    for s in _states(infinite):
        v[s] = INF
    for s, a in actions.items():
        choice[s] = a
    free = _states(rows.everything & ~(t | infinite))
    _policy_iteration(rows, allowed, free, v, choice, sign, m.reward)
    for s in free:  # the other states hold an exact 0 or INF
        v[s] = max(v[s], 0.0)
    return ExtremalResult(tuple(v), Controller(tuple(choice)))


# ---------------------------------------------------------------------------
# Formula evaluation on imposed chains


@dataclass(frozen=True)
class CheckResult:
    holds: bool
    atom_values: tuple[tuple[float, float, bool], ...]


def check_mc(mcs, formula: InstantiatedFormula) -> CheckResult:
    """Evaluate an instantiated formula on concrete chains, one per
    controller slot.  A single chain may be passed for one-controller
    formulas.  Atom values come from direct solves, so the verdict is exact
    up to machine arithmetic and the atoms' own offsets."""

    if isinstance(mcs, Mdp):
        mcs = (mcs,)
    found = {}
    for kind, slot, target in formula.queries:
        if slot >= len(mcs):
            raise ModelError(f"no chain for controller slot {slot}")
        mc = mcs[slot]
        solve = reach_probs if kind == "reach" else expected_reward
        found[kind, slot, target] = solve(mc, mc.target(target))

    def side_value(side):
        if isinstance(side, Query):
            return float(found[side.kind, side.slot, side.target][side.state])
        return float(side)

    truth = {}
    values = []
    for i, atom in enumerate(formula.atoms):
        lv = side_value(atom.left)
        rv = side_value(atom.right)
        ok = atom.holds(lv, rv)
        truth[i] = ok
        values.append((lv, rv, ok))
    return CheckResult(formula.evaluate(truth), tuple(values))


# ---------------------------------------------------------------------------
# Batched member checks on a compiled model

# Bytes that sets the members checked per batch: CHUNK_BYTES // (8 x
# states**2).  _solve's systems, (members x live x live) float64 arrays with
# at most states**2 entries per member, then stay within it, so memory stays
# flat whatever the family's size; larger batches raised the peak resident
# memory of the benchmark's oracle workload without making it faster.
CHUNK_BYTES = 1 << 18


@dataclass(frozen=True, eq=False)
class _Group:
    """Queries of one kind and slot that a batch answers with one counted
    solve, one system per chain: one target, or several closed and pairwise
    disjoint reach targets.  masks[k] marks the states of target k; into[r,
    k] is the probability of stepping from row r into target k.

    The rest bounds the live states of every chain the MDP has, from its
    graph (_bounds): sure[k] marks the states that reach target k with
    positive probability under every controller, the target included, and
    undetermined[k] those that reach it under some controller but not
    under every one.  A reward group also has sure_as, the states that
    reach its target almost surely under every controller, and
    undetermined_as, those that do under some but not every one."""

    kind: str
    slot: int
    targets: tuple[str, ...]
    masks: np.ndarray
    into: np.ndarray
    sure: np.ndarray
    undetermined: np.ndarray
    sure_as: np.ndarray | None
    undetermined_as: np.ndarray | None

    @cached_property
    def inside(self) -> np.ndarray:
        """The states of every target."""

        return self.masks.any(axis=0)

    @cached_property
    def free(self) -> np.ndarray:
        """The states left undetermined for some target, ascending."""

        return np.flatnonzero(self.undetermined.any(axis=0))

    @cached_property
    def free_as(self) -> np.ndarray:
        """The states left undetermined for almost-sure reaching, ascending."""

        return np.flatnonzero(self.undetermined_as)


@dataclass(frozen=True)
class CompiledModel:
    """An MDP, the parameter classes of its controller slots and a formula
    on them, as flat arrays.  Row offsets[s] + a of probs is the
    distribution of action a in state s over all states, and edges marks its
    positive entries; counts[s] is the number of actions of s; rewards has
    one entry per row (None without a reward structure); classes[slot][s]
    is the class deciding the slot's action in s, and varies[k] whether
    class k has more than one action in the family and some state reads
    it.  plan holds the formula's query groups in solve order, each with
    the bounds on its chains' live states (_Group)."""

    offsets: np.ndarray
    counts: np.ndarray
    probs: np.ndarray
    edges: np.ndarray
    rewards: np.ndarray | None
    classes: tuple[np.ndarray, ...]
    varies: np.ndarray
    formula: InstantiatedFormula
    plan: tuple[_Group, ...]

    @property
    def num_states(self) -> int:
        return self.probs.shape[1]

    @property
    def chunk(self) -> int:
        """Members per batch: so many that their systems, at most states**2
        floats each, take at most CHUNK_BYTES."""

        return max(1, CHUNK_BYTES // (8 * self.num_states**2))

    @property
    def solves(self) -> int:
        """The counted solves one check_members call makes on a nonempty
        batch, whatever its size: one per query group."""

        return len(self.plan)

    @cached_property
    def cones(self) -> np.ndarray:
        """cones[s, t] says t is reachable from s under any action: row s
        is the cone of s.  Built once per model, on first use, by growing
        each state's set of predecessors in the any-action graph."""

        n = self.num_states
        adjacent = np.logical_or.reduceat(self.edges, self.offsets)
        reached = np.eye(n, dtype=bool)[None]  # reached[0, t, s]: s reaches t
        _grow(reached, adjacent[None], np.arange(n), np.ones((n, n), dtype=bool))
        return np.ascontiguousarray(reached[0].T)


def compile_model(m: Mdp, space, formula: InstantiatedFormula, rows=None) -> CompiledModel:
    """Compile the MDP for checking the formula on members of the parameter
    space (a family.ParameterSpace built on it).  rows is the model's
    row_table, as in extremal_reach.  A query on a missing label or slot,
    or a reward query without rewards, raises here."""

    n = m.num_states
    counts = np.array([m.num_actions(s) for s in range(n)], dtype=np.intp)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1])).astype(np.intp)
    flat = [row for menu in m.trans for row in menu]
    probs = np.zeros((len(flat), n))
    for r, row in enumerate(flat):
        for t, p in row:
            probs[r, t] = p
    rewards = None
    if m.rewards is not None:
        rewards = np.array([r for menu in m.rewards for r in menu], dtype=float)
    classes = tuple(
        np.array([space.class_index(i, s) for s in range(n)], dtype=np.intp)
        for i in range(space.n_controllers)
    )
    varies = np.array([len(d) > 1 for d in space.domains], dtype=bool)
    edges = probs > 0
    table = row_table(m) if rows is None else rows
    plan = _solve_plan(m, table, probs, edges, np.repeat(np.arange(n), counts), formula)
    for g in plan:
        if g.slot >= len(classes):
            raise ModelError(f"no chain for controller slot {g.slot}")
        if g.kind == "reward" and rewards is None:
            raise MissingRewardsError("reward query on a model without rewards")
    return CompiledModel(offsets, counts, probs, edges, rewards, classes, varies, formula, plan)


def _solve_plan(m: Mdp, table: RowTable, probs, edges, row_state, formula) -> tuple[_Group, ...]:
    """The query groups answering each distinct (kind, slot, target) query
    of the formula.  The reach queries of a slot whose targets are closed
    (no action of a target's states leaves it), and disjoint from every
    other such target of the slot, form one group; every other query is a
    group of its own."""

    masks, into, bounds = {}, {}, {}
    for _, _, name in formula.queries:
        if name not in masks:
            mask = masks[name] = np.zeros(m.num_states, dtype=bool)
            mask[list(m.target(name))] = True
            into[name] = np.zeros(len(probs))
            for t in np.flatnonzero(mask):  # in successor order, as reach_probs adds
                into[name] += probs[:, t]
            rewarded = any(kind == "reward" and t == name for kind, _, t in formula.queries)
            bounds[name] = _bounds(table, _mask(m.target(name)), rewarded)
    groups = {(kind, slot, t): (kind, slot, (t,)) for kind, slot, t in formula.queries}
    closed: dict[int, list[str]] = {}
    for kind, slot, t in formula.queries:
        if kind == "reach" and not edges[masks[t][row_state]][:, ~masks[t]].any():
            closed.setdefault(slot, []).append(t)
    for slot, targets in closed.items():
        group = tuple(
            t for t in targets if not any((masks[t] & masks[u]).any() for u in targets if u != t)
        )
        for t in group:
            groups["reach", slot, t] = ("reach", slot, group)
    plan = []
    for kind, slot, targets in dict.fromkeys(groups.values()):
        own = np.stack([masks[t] for t in targets])
        stacked = np.stack([into[t] for t in targets], axis=-1)
        sure = np.stack([bounds[t][0] for t in targets])
        undetermined = np.stack([bounds[t][1] for t in targets])
        sure_as, undetermined_as = bounds[targets[0]][2:] if kind == "reward" else (None, None)
        plan.append(_Group(kind, slot, targets, own, stacked, sure, undetermined, sure_as, undetermined_as))
    return tuple(plan)


def _bounds(rows: RowTable, t: int, almost_surely: bool) -> list[np.ndarray]:
    """The sure and undetermined states of _Group for the target t, a
    bitmask, over every controller: [sure, undetermined], and with
    almost_surely also [sure_as, undetermined_as], as boolean arrays.  sure
    is the attractor of the states whose every action enters it, the
    complement of _avoid_sets' Z, and sure_as the complement of its B."""

    every = [range(len(menu)) for menu in rows.succ]
    everything = rows.everything
    sure, _, _ = _attractor(t, _every_action_enters(rows, every), everything)
    can, _, _ = _attractor(t, _some_action_enters(rows, every), everything)
    masks = [sure, can & ~sure]
    if almost_surely:
        _, avoiding, _ = _avoid_sets(rows, every, t)
        some_as, _ = _prob1_max(rows, every, t, can)
        masks += [everything & ~avoiding, some_as & avoiding]
    return [np.array([mask >> s & 1 for s in range(rows.num_states)], dtype=bool) for mask in masks]


@dataclass(frozen=True)
class MemberChecks:
    """Verdicts of a batch of members.  holds[b] is member b's verdict;
    values[b, i] holds the (left, right) side values of atom i and
    truth[b, i] whether it holds."""

    holds: np.ndarray
    values: np.ndarray
    truth: np.ndarray


def _grow(inside: np.ndarray, succ: np.ndarray, free: np.ndarray, join: np.ndarray) -> None:
    """Grow each state set inside[b, k], of a boolean (B, K, n) array, in
    place to its least fixpoint: state free[j] joins set k, where join[k, j]
    allows it, once one of its successors in graph b lies in the set.
    succ[b, j] marks the successors of free[j] in graph b, a boolean (B,
    len(free), n) array.  A round is one boolean matrix product, which
    numpy computes without BLAS: the first tests every state of the sets,
    and each later one only the states that joined in the round before."""

    step = succ.swapaxes(1, 2)
    open_ = join & ~inside[..., free]  # may join, not in yet
    new = np.matmul(inside, step) & open_
    step = step[:, free]
    while new.any():
        open_ ^= new
        new = np.matmul(new, step) & open_
    inside[..., free] |= join & ~open_


def _distinct_rows(a: np.ndarray):
    """(first, inverse): the index in a of the first occurrence of each
    distinct row of a 2-D array, rows compared bit for bit, in some order,
    and for each row of a the index of its distinct row."""

    a = np.ascontiguousarray(a)
    keys = a.view(np.dtype((np.void, a.dtype.itemsize * a.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first, inverse


def _slot(cm: CompiledModel, real: np.ndarray, i: int):
    """(rows, pick): the row of each slot-i chain's action in each state,
    and the index of each member's chain among them.  When a class that the
    slot does not read varies in the family, members of a batch can share a
    slot chain, so each distinct chain is kept once and pick is an index
    array; otherwise, and for a batch of one, each member has its own chain
    and pick is a full slice."""

    actions = real[:, cm.classes[i]]
    if ((actions < 0) | (actions >= cm.counts)).any():
        raise InvalidControllerError("realisation picks an action that is not enabled")
    pick = slice(None)
    unread = cm.varies.copy()
    unread[cm.classes[i]] = False
    if unread.any() and len(actions) > 1:
        first, pick = _distinct_rows(actions)
        actions = actions[first]
    return cm.offsets + actions, pick


def _solve(cm: CompiledModel, rows, mid, b) -> np.ndarray:
    """Solve x = P x + b for each column of b, a (B, n, columns) array, on
    each chain's own mid states, in index order: the matrix and right-hand
    side reach_probs and expected_reward build, so a chain's values do not
    depend on its batch.  Chains are solved in one np.linalg.solve call per
    size of mid, with one gather when every chain has the same mid; the
    batch is one counted solve.  x is 0 outside mid."""

    _count.solves += 1
    x = np.zeros(b.shape)
    if len(mid) == 1 or (mid[1:] == mid[0]).all():
        live = np.flatnonzero(mid[0])
        if len(live):
            a = cm.probs[rows[:, live, None], live]
            x[:, live] = np.linalg.solve(np.eye(len(live)) - a, b[:, live])
        return x
    sizes = mid.sum(axis=1)
    for k in set(sizes.tolist()) - {0}:
        chains = np.flatnonzero(sizes == k)
        live = np.nonzero(mid[chains])[1].reshape(len(chains), k)
        a = cm.probs[np.take_along_axis(rows[chains], live, axis=1)[:, :, None], live[:, None, :]]
        rhs = np.take_along_axis(b[chains], live[:, :, None], axis=1)
        x[chains[:, None], live] = np.linalg.solve(np.eye(k) - a, rhs)
    return x


def _can(cm: CompiledModel, g: _Group, rows) -> np.ndarray:
    """Per chain and target of the group, the states of the chain that can
    reach the target, the target included: the sure states, grown over the
    undetermined ones alone, in one pass for every target.  A (1, targets,
    n) array, shared by every chain, when no state is undetermined; else
    (chains, targets, n)."""

    if not len(g.free):
        return g.sure[None]
    can = np.broadcast_to(g.sure, (len(rows),) + g.sure.shape).copy()
    _grow(can, cm.edges[rows[:, g.free]], g.free, g.undetermined[:, g.free])
    return can


def _reach(cm: CompiledModel, g: _Group, rows) -> list[np.ndarray]:
    """The reach values of the slot's chains on each of the group's
    targets, from one solve with one column per target.  mid is the states
    that can reach some target, outside them all; a state that cannot reach
    a target keeps an exact 0 for it."""

    can = _can(cm, g, rows)
    mid = can.any(axis=1) & ~g.inside
    x = np.minimum(np.maximum(_solve(cm, rows, mid, g.into[rows]), 0.0), 1.0)
    # a lone target's can set is mid's
    own = mid[:, None] if len(g.masks) == 1 else mid[:, None] & can
    return list(np.where(g.masks, 1.0, np.where(own, x.swapaxes(1, 2), 0.0)).swapaxes(0, 1))


def _reward(cm: CompiledModel, g: _Group, rows) -> list[np.ndarray]:
    """The expected reward of the slot's chains before the group's one
    target.  mid is the states that reach it almost surely, outside it."""

    can = _can(cm, g, rows)[:, 0]
    # missed, the states of a chain that do not reach the target almost
    # surely, are those from which a path avoiding it meets a state unable
    # to reach it: seeded with the chain's states unable to reach it, and
    # with those where no controller reaches it almost surely, it grows
    # over the undetermined states alone
    missed = (~can | ~(g.sure_as | g.undetermined_as))[:, None]
    if len(g.free_as):
        missed = np.broadcast_to(missed, (len(rows),) + missed.shape[1:]).copy()
        _grow(missed, cm.edges[rows[:, g.free_as]], g.free_as, np.ones((1, len(g.free_as)), dtype=bool))
    mid = ~missed[:, 0] & ~g.inside
    x = np.maximum(_solve(cm, rows, mid, cm.rewards[rows][..., None])[..., 0], 0.0)
    return [np.where(g.inside, 0.0, np.where(mid, x, INF))]


def check_members(cm: CompiledModel, realisations) -> MemberChecks:
    """Check a batch of realisations (one action ordinal per parameter
    class each, as a sequence or a (members x classes) intp array, which is
    used as it is) against the compiled formula exactly, as check_mc does on
    each member's chains.  A batch whose realisations do not have one
    integer per class, or whose actions are not enabled, raises
    InvalidControllerError.

    The members' action rows are taken per slot that the plan uses, each
    distinct chain once where members can share one (see _slot).  Each
    chain's live states are its group's sure states plus those of the
    undetermined ones it settles (_can; the almost-sure ones likewise in
    _reward), and each query group of the plan is solved for every member,
    each chain on its live states (_solve), as one counted solve.  An empty
    batch makes no solve.
    """

    formula = cm.formula
    atoms = formula.atoms
    try:
        size = len(realisations)
    except TypeError:
        raise InvalidControllerError(f"realisations must be a sequence, not {realisations!r}") from None
    values = np.empty((size, len(atoms), 2))
    if not size:
        empty = np.zeros((0, len(atoms)), dtype=bool)
        return MemberChecks(empty.any(axis=1), values, empty)
    try:
        real = np.asarray(realisations)
    except ValueError as e:  # rows of different lengths
        raise InvalidControllerError(f"malformed realisations: {e}") from None
    if real.dtype.kind not in "iu" or real.shape != (size, len(cm.varies)):
        raise InvalidControllerError(
            f"realisations must be integers, one per class ({len(cm.varies)}), "
            f"not a {real.dtype} array of shape {real.shape}"
        )
    real = real.astype(np.intp, copy=False)
    slots = {}
    for g in cm.plan:
        if g.slot not in slots:
            slots[g.slot] = _slot(cm, real, g.slot)
    found = {}
    for g in cm.plan:
        rows = slots[g.slot][0]
        solved = (_reach if g.kind == "reach" else _reward)(cm, g, rows)
        for name, v in zip(g.targets, solved):
            found[g.kind, g.slot, name] = v
    for i, atom in enumerate(atoms):
        for j, side in enumerate((atom.left, atom.right)):
            if isinstance(side, Query):
                side = found[side.kind, side.slot, side.target][slots[side.slot][1], side.state]
            values[:, i, j] = side
    holds, truth = formula_holds(formula, values)
    return MemberChecks(holds, values, truth)


def formula_holds(formula: InstantiatedFormula, values: np.ndarray):
    """(holds, truth) of a batch from its side values: values[b, i] holds
    the (left, right) values of atom i in member b, truth[b, i] is whether
    the atom holds and holds[b] whether the formula does."""

    atoms = formula.atoms
    lv, bound = values[:, :, 0], values[:, :, 1] + [atom.offset for atom in atoms]
    truth = np.where([atom.strict for atom in atoms], lv < bound, lv <= bound)
    return np.broadcast_to(formula.evaluate(truth.T), (len(values),)), truth


def cone_classes(cm: CompiledModel) -> dict:
    """The classes each side of the formula can depend on: per (slot,
    state) of a query side, the varying classes deciding the slot's action
    in the states reachable from the state under any action (its cone)."""

    out = {}
    for atom in cm.formula.atoms:
        for side in (atom.left, atom.right):
            if isinstance(side, Query) and (side.slot, side.state) not in out:
                # a mask, not np.unique, whose integer path imports numpy.ma
                read = np.zeros(len(cm.varies), dtype=bool)
                read[cm.classes[side.slot][cm.cones[side.state]]] = True
                out[side.slot, side.state] = np.flatnonzero(read & cm.varies).tolist()
    return out


def restrict_to_cones(cm: CompiledModel, sides) -> CompiledModel:
    """The compiled model on the cones of some sides of its formula only.

    sides is a boolean (atoms x 2) array marking the sides kept.  The
    model keeps the states of the kept query sides' cones, in index order:
    a closed set, since no action leaves a cone, so every kept row keeps
    all its mass.  It keeps the query groups those queries fall in, whole.
    Its formula has the same atoms and tree: a kept query side is
    renumbered to the new state indices, a constant side stays, and every
    other query side becomes NaN, a value no check on this model computes.
    A class that no kept state reads does not vary in it, since its action
    changes nothing there.  The arrays are sliced from the compiled ones;
    nothing is rebuilt."""

    formula = cm.formula
    kept = {
        side
        for atom, keep in zip(formula.atoms, sides)
        for side, k in zip((atom.left, atom.right), keep)
        if k and isinstance(side, Query)
    }
    states = cm.cones[[q.state for q in kept]].any(axis=0)
    rows = np.repeat(states, cm.counts)
    counts = cm.counts[states]
    classes = tuple(c[states] for c in cm.classes)
    varies = np.zeros_like(cm.varies)
    for c in classes:
        varies[c] = cm.varies[c]
    renumber = np.cumsum(states) - 1

    def side(q):
        if not isinstance(q, Query):
            return q
        return replace(q, state=int(renumber[q.state])) if q in kept else np.nan

    atoms = tuple(replace(atom, left=side(atom.left), right=side(atom.right)) for atom in formula.atoms)
    read = {(q.kind, q.slot, q.target) for q in kept}
    plan = tuple(
        replace(
            g,
            masks=g.masks[:, states],
            into=g.into[rows],
            sure=g.sure[:, states],
            undetermined=g.undetermined[:, states],
            sure_as=None if g.sure_as is None else g.sure_as[states],
            undetermined_as=None if g.undetermined_as is None else g.undetermined_as[states],
        )
        for g in cm.plan
        if any((g.kind, g.slot, t) in read for t in g.targets)
    )
    return CompiledModel(
        np.cumsum(counts) - counts,
        counts,
        cm.probs[rows][:, states],
        cm.edges[rows][:, states],
        None if cm.rewards is None else cm.rewards[rows],
        classes,
        varies,
        InstantiatedFormula(atoms, formula.root),
        plan,
    )
