"""Model checking of reachability and expected reward, for MCs and MDPs.

Markov chains are solved directly: qualitative sets come from graph
fixpoints, quantities from dense linear solves, so chain results are exact
up to machine precision.  MDP extrema (min/max over all controllers) use
qualitative precomputation followed by Gauss-Seidel value iteration with a
sup-norm residual stop.

Value iteration for reachability and for maximal reward runs from below;
minimal expected reward runs from above, seeded with the exact cost of a
known proper controller, because zero-reward cycles admit spurious smaller
fixpoints.  Extremal witnesses are extracted greedily with ties broken
toward the lowest action ordinal, routed through an attractor construction
where plain greediness can select value-preserving cycles (maximal
reachability, minimal reward).
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


def _prob1_max(m: Mdp, t):
    """States where some controller reaches the target almost surely,
    plus, per such state, an action of a controller that does."""

    n = m.num_states
    universe = set(range(n))
    while True:
        inside = set(t)
        actions = {}
        changed = True
        while changed:
            changed = False
            for s in sorted(universe - inside):
                for a in range(m.num_actions(s)):
                    row = m.trans[s][a]
                    if all(succ in universe for succ, _ in row) and any(
                        succ in inside for succ, _ in row
                    ):
                        inside.add(s)
                        actions[s] = a
                        changed = True
                        break
        if inside == universe:
            return frozenset(universe), actions
        universe = inside


def _min_reach_positive(m: Mdp, t):
    """States where every controller reaches the target with positive
    probability (least fixpoint of the for-all-actions predecessor)."""

    n = m.num_states
    inside = set(t)
    changed = True
    while changed:
        changed = False
        for s in range(n):
            if s in inside:
                continue
            if all(
                any(succ in inside for succ, _ in row) for row in m.trans[s]
            ):
                inside.add(s)
                changed = True
    return inside


def _avoid_sets(m: Mdp, t):
    """Z: states with an action strategy that surely avoids the target
    forever.  B: states that can, avoiding the target, reach Z with
    positive probability.  Returns (Z, B, actions) where actions give, for
    each state of B, a choice realising the avoidance with positive
    probability."""

    n = m.num_states
    z = set(range(n)) - set(t)
    changed = True
    while changed:
        changed = False
        for s in sorted(z):
            if not any(
                all(succ in z for succ, _ in row) for row in m.trans[s]
            ):
                z.discard(s)
                changed = True
    actions = {}
    for s in sorted(z):
        for a in range(m.num_actions(s)):
            if all(succ in z for succ, _ in m.trans[s][a]):
                actions[s] = a
                break
    b = set(z)
    changed = True
    while changed:
        changed = False
        for s in range(n):
            if s in b or s in t:
                continue
            for a in range(m.num_actions(s)):
                if any(succ in b for succ, _ in m.trans[s][a]):
                    b.add(s)
                    actions[s] = a
                    changed = True
                    break
    return z, b, actions


def qualitative_states(m: Mdp, target, direction: str):
    """Graph-only classification: (prob0, prob1) frozensets for the given
    optimisation direction over controllers."""

    t = _target_states(m, target)
    if direction == "max":
        can = _closure(_predecessors(m), t)
        prob0 = frozenset(set(range(m.num_states)) - can)
        prob1, _ = _prob1_max(m, t)
        return prob0, prob1
    if direction == "min":
        positive = _min_reach_positive(m, t)
        prob0 = frozenset(set(range(m.num_states)) - positive)
        _, b, _ = _avoid_sets(m, t)
        prob1 = frozenset(set(range(m.num_states)) - b)
        return prob0, prob1
    raise ModelError(f"unknown direction {direction!r}")


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


def _attractor_witness(m, v, roots, choice, q_of, near_optimal, pin=None):
    """Assign choices by expanding from the roots: a state joins once it has
    a near-optimal action with positive probability of entering the grown
    region.  Guarantees the induced chain makes progress toward the roots."""

    inside = set(roots)
    todo = sorted(s for s in range(m.num_states) if s not in inside)
    changed = True
    while changed:
        changed = False
        for s in list(todo):
            found = None
            for a in range(m.num_actions(s)):
                if pin is not None and not pin(s, a):
                    continue
                if not near_optimal(s, a):
                    continue
                if any(succ in inside for succ, _ in m.trans[s][a]):
                    found = a
                    break
            if found is not None:
                choice[s] = found
                inside.add(s)
                todo.remove(s)
                changed = True
    return todo  # states the attractor could not justify


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
    prob0, prob1 = qualitative_states(m, target, direction)
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
        near = lambda s, a: q_of(s, a, v) >= v[s] - tie
        leftover = _attractor_witness(m, v, t, choice, q_of, near)
        for s in leftover:
            choice[s] = _greedy_choice(m, v, s, q_of, better)
    else:
        positive = _min_reach_positive(m, t)
        for s in range(n):
            if s in t:
                continue
            if s not in positive:
                # pick an action whose support stays outside the positive
                # region, realising reach probability zero
                for a in range(m.num_actions(s)):
                    if all(succ not in positive for succ, _ in m.trans[s][a]):
                        choice[s] = a
                        break
            else:
                choice[s] = _greedy_choice(m, v, s, q_of, better)

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
        inside = lambda s, a: all(succ in prob1e for succ, _ in m.trans[s][a])
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
            _gauss_seidel(m, free, v, q_of, better, tol * 0.01, pin=inside)
            if free
            else (0, 0.0)
        )
        near = lambda s, a: q_of(s, a, v) <= v[s] + tie
        leftover = _attractor_witness(m, v, t, choice, q_of, near, pin=inside)
        for s in leftover:
            if s in prob1e and s not in t:
                choice[s] = _greedy_choice(m, v, s, q_of, better, pin=inside)
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
