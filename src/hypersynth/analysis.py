"""Model checking of reachability and expected reward, for MCs and MDPs.

Markov chains are solved directly: qualitative sets come from graph
closures, quantities from dense linear solves, so chain results are exact
up to machine precision.  MDP extrema (min/max over all controllers) use
qualitative precomputation followed by Gauss-Seidel value iteration with a
sup-norm residual stop.

Every MDP qualitative set and witness is grown by one least fixpoint,
`_attractor`; only the prob0 set for max is a backward `_closure`.

Value iteration for reachability and for maximal reward runs from below;
minimal expected reward runs from above, seeded with the exact cost of a
known proper controller, because zero-reward cycles admit spurious smaller
fixpoints.  Witness actions are greedy, ties broken toward the lowest
action ordinal, except where plain greediness can select value-preserving
cycles (maximal reachability, minimal reward): there a state takes the
first near-optimal action entering the attractor grown from the target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MissingRewardsError, ModelError
from .formulas import InstantiatedFormula, Query
from .model import Controller, Mc, Mdp, TargetSet, impose

DEFAULT_TOL = 1e-8
MAX_SWEEPS = 10**6

# Expected-visit sentinel for states of a bottom SCC hit with positive
# probability; genuine transient counts are exact.
VISIT_CAP = 1e6

INF = float("inf")


def guard_band(tol: float) -> float:
    """Slack added to interval comparisons to absorb iteration noise."""

    return 10.0 * tol


def _target_states(model, target) -> frozenset[int]:
    if isinstance(target, TargetSet):
        states = target.states
    else:
        states = frozenset(target)
    for s in states:
        if not (0 <= s < model.num_states):
            raise ModelError(f"target state {s} out of range")
    return frozenset(states)


# ---------------------------------------------------------------------------
# Graph analysis


def _successors(mc: Mc) -> list[list[int]]:
    """Successor lists of the chain's graph."""

    return [[t for t, _ in row] for row in mc.trans]


def _predecessors(model, skip=frozenset()) -> list[list[int]]:
    """Predecessor lists of the model's graph, without the edges leaving
    skip; an MDP's edges are those of all its actions."""

    menus = ((row,) for row in model.trans) if isinstance(model, Mc) else model.trans
    pred = [[] for _ in range(model.num_states)]
    for s, menu in enumerate(menus):
        if s not in skip:
            for row in menu:
                for t, _ in row:
                    pred[t].append(s)
    return pred


def _closure(adj, seeds) -> set[int]:
    """The seeds plus every state reachable from them along adj, which
    holds successor lists (forward reach) or predecessor lists (backward)."""

    seen = set(seeds)
    stack = list(seen)
    while stack:
        for t in adj[stack.pop()]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def _bottom_scc_states(succ) -> set[int]:
    """States lying in some bottom SCC of the graph.

    Tarjan's algorithm with an explicit stack instead of recursion: a
    component is complete when its root's lowlink equals its index, and it
    is bottom when no edge leaves it.
    """

    n = len(succ)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n  # component id, set once the state leaves the Tarjan stack
    tarjan: list[int] = []
    bottoms: set[int] = set()
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        tarjan.append(root)
        work = [(root, 0)]
        while work:
            v, i = work[-1]
            if i < len(succ[v]):
                work[-1] = (v, i + 1)
                w = succ[v][i]
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    tarjan.append(w)
                    work.append((w, 0))
                elif comp[w] < 0:
                    low[v] = min(low[v], index[w])
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] != index[v]:
                continue
            members = []
            while True:
                w = tarjan.pop()
                comp[w] = v
                members.append(w)
                if w == v:
                    break
            if all(comp[t] == v for s in members for t in succ[s]):
                bottoms.update(members)
    return bottoms


def reach_probs(mc: Mc, target) -> np.ndarray:
    """Probability of eventually visiting the target, per state.

    States that cannot reach the target get exact 0, target states exact 1,
    everything else comes from a dense linear solve on the remaining block.
    """

    t = _target_states(mc, target)
    n = mc.num_states
    out = np.zeros(n)
    for s in t:
        out[s] = 1.0
    can = _closure(_predecessors(mc), t)
    mid = sorted(can - t)
    if not mid:
        return out
    idx = {s: i for i, s in enumerate(mid)}
    a = np.eye(len(mid))
    b = np.zeros(len(mid))
    for s in mid:
        for succ, p in mc.trans[s]:
            if succ in t:
                b[idx[s]] += p
            elif succ in idx:
                a[idx[s], idx[succ]] -= p
    x = np.linalg.solve(a, b)
    for s in mid:
        out[s] = min(max(x[idx[s]], 0.0), 1.0)
    return out


def _mc_almost_sure_reach(mc: Mc, t: frozenset[int]) -> set[int]:
    """States from which the target is hit with probability exactly one.

    Graph-based, from two backward closures: zero is the set of states that
    cannot reach the target; a state misses the target with positive
    probability exactly when it can reach zero along a path that avoids
    the target.
    """

    zero = set(range(mc.num_states)) - _closure(_predecessors(mc), t)
    return set(range(mc.num_states)) - _closure(_predecessors(mc, skip=t), zero)


def expected_reward(mc: Mc, target) -> np.ndarray:
    """Expected total reward accumulated before the target is reached.

    Infinite where the target is not reached almost surely, zero on the
    target itself.  Requires a reward structure.
    """

    if mc.rewards is None:
        raise MissingRewardsError("expected_reward on a chain without rewards")
    t = _target_states(mc, target)
    n = mc.num_states
    sure = _mc_almost_sure_reach(mc, t)
    out = np.full(n, INF)
    for s in t:
        out[s] = 0.0
    mid = sorted(sure - t)
    if not mid:
        return out
    idx = {s: i for i, s in enumerate(mid)}
    a = np.eye(len(mid))
    b = np.zeros(len(mid))
    for s in mid:
        b[idx[s]] += mc.rewards[s]
        for succ, p in mc.trans[s]:
            if succ in idx:
                a[idx[s], idx[succ]] -= p
    x = np.linalg.solve(a, b)
    for s in mid:
        out[s] = max(x[idx[s]], 0.0)
    return out


def expected_visits(mc: Mc, from_state: int) -> np.ndarray:
    """Expected number of visits to each state, starting from from_state.

    Transient states get the exact count from a linear solve; states of a
    bottom SCC entered with positive probability get VISIT_CAP; unreachable
    states get 0.
    """

    n = mc.num_states
    if not (0 <= from_state < n):
        raise ModelError(f"state {from_state} out of range")
    graph = _successors(mc)
    bottoms = _bottom_scc_states(graph)
    reachable = _closure(graph, (from_state,))
    out = np.zeros(n)
    transient = sorted(s for s in range(n) if s not in bottoms)
    if transient:
        idx = {s: i for i, s in enumerate(transient)}
        # visits(t) = [from] (I - Q)^{-1}, solved as (I - Q)^T x = e_from
        a = np.eye(len(transient))
        for s in transient:
            for succ, p in mc.trans[s]:
                if succ in idx:
                    a[idx[succ], idx[s]] -= p
        b = np.zeros(len(transient))
        if from_state in idx:
            b[idx[from_state]] = 1.0
        x = np.linalg.solve(a, b)
        for s in transient:
            out[s] = max(x[idx[s]], 0.0) if s in reachable else 0.0
    for s in bottoms:
        if s in reachable:
            out[s] = VISIT_CAP
    return out


# ---------------------------------------------------------------------------
# MDP qualitative analysis


def _attractor(m: Mdp, seeds, joins, candidates=None):
    """Least fixpoint grown from the seeds in rounds.

    Each round scans the candidates (default: every state) still outside, in
    index order; a state joins at once, with the action joins(s, inside)
    names, or stays out when that is None.  Growth stops after a round with
    no joins.  Returns (inside, actions of the joined states, states left
    out in index order).
    """

    inside = set(seeds)
    actions = {}
    pool = range(m.num_states) if candidates is None else sorted(candidates)
    outside = [s for s in pool if s not in inside]
    grew = True
    while grew:
        grew = False
        left = []
        for s in outside:
            a = joins(s, inside)
            if a is None:
                left.append(s)
            else:
                inside.add(s)
                actions[s] = a
                grew = True
        outside = left
    return inside, actions, outside


def _prob1_max(m: Mdp, t):
    """States where some controller reaches the target almost surely,
    plus, per such state, an action of a controller that does."""

    universe = set(range(m.num_states))

    def joins(s, inside):
        for a, row in enumerate(m.trans[s]):
            if all(succ in universe for succ, _ in row) and any(
                succ in inside for succ, _ in row
            ):
                return a
        return None

    while True:
        inside, actions, _ = _attractor(m, t, joins, universe)
        if inside == universe:
            return frozenset(universe), actions
        universe = inside


def _avoid_sets(m: Mdp, t):
    """Z: states with an action strategy that surely avoids the target
    forever, the complement of the states where every controller reaches
    it with positive probability.  B: states that can, avoiding the target,
    reach Z with positive probability.  Returns (Z, B, actions) where
    actions give, for each state of B, a choice realising the avoidance
    (on Z, one that stays in Z)."""

    def every_action_enters(s, inside):
        for row in m.trans[s]:
            if not any(succ in inside for succ, _ in row):
                return None
        return 0  # any action will do; the set is all that is used

    def some_action_enters(s, inside):
        for a, row in enumerate(m.trans[s]):
            if any(succ in inside for succ, _ in row):
                return a
        return None

    _, _, left_out = _attractor(m, t, every_action_enters)
    z = set(left_out)
    actions = {}
    for s in left_out:
        for a, row in enumerate(m.trans[s]):
            if all(succ in z for succ, _ in row):
                actions[s] = a
                break
    b, b_actions, _ = _attractor(
        m, z, some_action_enters, [s for s in range(m.num_states) if s not in t]
    )
    actions.update(b_actions)
    return z, b, actions


def _qualitative(m: Mdp, t, direction: str):
    """(prob0, prob1, actions) for the direction: for max, actions of a
    controller reaching the target almost surely from prob1; for min, the
    actions of _avoid_sets, which keep prob0 away from the target."""

    everything = set(range(m.num_states))
    if direction == "max":
        prob0 = frozenset(everything - _closure(_predecessors(m), t))
        prob1, actions = _prob1_max(m, t)
        return prob0, prob1, actions
    if direction == "min":
        z, b, actions = _avoid_sets(m, t)
        return frozenset(z), frozenset(everything - b), actions
    raise ModelError(f"unknown direction {direction!r}")


def qualitative_states(m: Mdp, target, direction: str):
    """Graph-only classification: (prob0, prob1) frozensets for the given
    optimisation direction over controllers."""

    prob0, prob1, _ = _qualitative(m, _target_states(m, target), direction)
    return prob0, prob1


# ---------------------------------------------------------------------------
# MDP quantitative analysis


@dataclass(frozen=True)
class ValueVector:
    """Per-state values with convergence metadata."""

    values: tuple[float, ...]
    kind: str
    direction: str
    sweeps: int
    residual: float

    def __getitem__(self, s: int) -> float:
        return self.values[s]


@dataclass(frozen=True)
class ExtremalResult:
    """Extremal values over all controllers plus a witness controller that
    attains them (up to iteration tolerance).  Witness ordinals are local
    to the model that was analysed."""

    values: ValueVector
    witness: Controller


def _row_value(row, v):
    return sum(p * v[t] for t, p in row)


def _gauss_seidel(m, free, v, q_of, better, tol, pin=None):
    """In-place optimising sweeps over the free states.  q_of(s, a, v)
    yields the action value; better(a, b) is True when a improves on b."""

    sweeps = 0
    residual = INF
    while residual > tol:
        if sweeps >= MAX_SWEEPS:
            raise ModelError("value iteration failed to converge")
        residual = 0.0
        for s in free:
            best = None
            for a in range(m.num_actions(s)):
                if pin is not None and not pin(s, a):
                    continue
                q = q_of(s, a, v)
                if best is None or better(q, best):
                    best = q
            delta = abs(best - v[s])
            if delta > residual:
                residual = delta
            v[s] = best
        sweeps += 1
    return sweeps, residual


def _greedy_choice(m, v, s, q_of, better, pin=None):
    best = None
    pick = 0
    for a in range(m.num_actions(s)):
        if pin is not None and not pin(s, a):
            continue
        q = q_of(s, a, v)
        if best is None or better(q, best):
            best = q
            pick = a
    return pick


def _blend_witness(m, v, choice, direction, solve):
    """Replace iterated values by the witness chain's exact values where
    those are sharper.  The witness value is attained by a member, so for
    max it is a valid lower bound on the extremum and for min an upper
    one; iteration error then survives only where the witness itself is
    suboptimal."""

    exact = solve(impose(m, Controller(tuple(choice))))
    if direction == "max":
        return [max(a, float(b)) for a, b in zip(v, exact)]
    return [min(a, float(b)) for a, b in zip(v, exact)]


def extremal_reach(m: Mdp, target, direction: str, tol: float = DEFAULT_TOL) -> ExtremalResult:
    """Minimal or maximal reachability probability over all controllers."""

    t = _target_states(m, target)
    n = m.num_states
    prob0, prob1, actions = _qualitative(m, t, direction)
    v = [0.0] * n
    for s in t:
        v[s] = 1.0
    for s in prob1:
        v[s] = 1.0
    free = [s for s in range(n) if s not in t and s not in prob0 and s not in prob1]

    def q_of(s, a, vec):
        return _row_value(m.trans[s][a], vec)

    if direction == "max":
        better = lambda a, b: a > b
    else:
        better = lambda a, b: a < b
    # iterate well below the guard band; the stopping residual understates
    # the distance to the fixpoint on slowly mixing chains
    sweeps, residual = (
        _gauss_seidel(m, free, v, q_of, better, tol * 0.01) if free else (0, 0.0)
    )

    tie = guard_band(tol)
    choice = [0] * n
    if direction == "max":
        # a near-optimal action that enters the grown region with positive
        # probability: the induced chain makes progress toward the target
        def joins(s, inside):
            for a, row in enumerate(m.trans[s]):
                if any(succ in inside for succ, _ in row) and _row_value(row, v) >= v[s] - tie:
                    return a
            return None

        _, joined, leftover = _attractor(m, t, joins)
        for s, a in joined.items():
            choice[s] = a
        for s in leftover:
            choice[s] = _greedy_choice(m, v, s, q_of, better)
    else:
        for s in range(n):
            if s in t:
                continue
            # on prob0 the avoiding action realises reach probability zero
            choice[s] = actions[s] if s in prob0 else _greedy_choice(m, v, s, q_of, better)

    v = _blend_witness(m, v, choice, direction, lambda mc: reach_probs(mc, t))
    vec = ValueVector(tuple(v), "reach", direction, sweeps, residual)
    return ExtremalResult(vec, Controller(tuple(choice)))


def extremal_reward(m: Mdp, target, direction: str, tol: float = DEFAULT_TOL) -> ExtremalResult:
    """Minimal or maximal expected reward before the target, over all
    controllers.  States where the relevant direction cannot force
    almost-sure reachability carry the +inf sentinel."""

    if m.rewards is None:
        raise MissingRewardsError("reward query on a model without rewards")
    t = _target_states(m, target)
    n = m.num_states
    if not t:
        vec = ValueVector((INF,) * n, "reward", direction, 0, 0.0)
        return ExtremalResult(vec, Controller((0,) * n))

    def q_of(s, a, vec):
        return m.rewards[s][a] + _row_value(m.trans[s][a], vec)

    tie = guard_band(tol)
    choice = [0] * n
    v = [0.0] * n

    if direction == "max":
        # finite exactly where every controller reaches almost surely
        _, b, avoid_actions = _avoid_sets(m, t)
        region = [s for s in range(n) if s not in b]
        free = [s for s in region if s not in t]
        for s in b:
            v[s] = INF
        better = lambda a, c: a > c
        sweeps, residual = (
            _gauss_seidel(m, free, v, q_of, better, tol * 0.01) if free else (0, 0.0)
        )
        for s in free:
            choice[s] = _greedy_choice(m, v, s, q_of, better)
        for s, a in avoid_actions.items():
            choice[s] = a
    elif direction == "min":
        prob1e, reach_actions = _prob1_max(m, t)
        region = sorted(prob1e)
        stays = lambda s, a: all(succ in prob1e for succ, _ in m.trans[s][a])
        # seed from the exact cost of the qualitative witness controller,
        # which is proper on the region; descending iteration then cannot
        # be captured by zero-reward cycles below the true minimum
        seed_choice = [reach_actions.get(s, 0) for s in range(n)]
        seed_costs = expected_reward(impose(m, Controller(tuple(seed_choice))), t)
        for s in range(n):
            if s in t:
                v[s] = 0.0
            elif s in prob1e:
                v[s] = float(seed_costs[s])
            else:
                v[s] = INF
        free = [s for s in region if s not in t]
        better = lambda a, c: a < c
        sweeps, residual = (
            _gauss_seidel(m, free, v, q_of, better, tol * 0.01, pin=stays)
            if free
            else (0, 0.0)
        )

        # as for maximal reachability, restricted to actions staying in the
        # region where the target is reached almost surely
        def joins(s, inside):
            for a, row in enumerate(m.trans[s]):
                if (
                    all(succ in prob1e for succ, _ in row)
                    and any(succ in inside for succ, _ in row)
                    and m.rewards[s][a] + _row_value(row, v) <= v[s] + tie
                ):
                    return a
            return None

        _, joined, leftover = _attractor(m, t, joins)
        for s, a in joined.items():
            choice[s] = a
        for s in leftover:
            if s in prob1e and s not in t:
                choice[s] = _greedy_choice(m, v, s, q_of, better, pin=stays)
    else:
        raise ModelError(f"unknown direction {direction!r}")

    v = _blend_witness(m, v, choice, direction, lambda mc: expected_reward(mc, t))
    vec = ValueVector(tuple(v), "reward", direction, sweeps, residual)
    return ExtremalResult(vec, Controller(tuple(choice)))


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

    if isinstance(mcs, Mc):
        mcs = (mcs,)
    cache: dict[tuple[str, int, str], np.ndarray] = {}

    def side_value(side):
        if isinstance(side, Query):
            key = (side.kind, side.slot, side.target)
            if key not in cache:
                if side.slot >= len(mcs):
                    raise ModelError(f"no chain for controller slot {side.slot}")
                mc = mcs[side.slot]
                tgt = mc.target(side.target)
                if side.kind == "reach":
                    cache[key] = reach_probs(mc, tgt)
                else:
                    cache[key] = expected_reward(mc, tgt)
            return float(cache[key][side.state])
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
