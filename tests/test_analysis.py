"""Numeric analysis against independent rational-arithmetic solves.

Every probabilistic quantity the engine computes in floats is recomputed
here with Fraction linear algebra on randomly generated chains, so a float
regression cannot hide behind tolerance stacking.
"""

import math
import random
from dataclasses import replace
from fractions import Fraction
from itertools import islice, product

import numpy as np
import pytest

from hypersynth import (
    Controller,
    check_mc,
    expected_reward,
    expected_visits,
    extremal_reach,
    extremal_reward,
    impose,
    make_mc,
    parse_spec,
    reach_probs,
)
from hypersynth.analysis import (
    INF,
    _bottom_scc_states,
    _closure,
    _mc_almost_sure_reach,
    check_members,
    compile_model,
    qualitative_states,
)
from hypersynth.errors import MissingRewardsError
from hypersynth.exact import (
    expected_reward_exact,
    expected_visits_exact,
    reach_probs_exact,
)
from hypersynth.family import build_parameter_space, induce
from hypersynth.formulas import Atom, InstantiatedFormula, Query
from hypersynth.synthesis import instantiate

from conftest import dyadic_row, random_instance, random_model


def _random_mc(seed):
    rng = random.Random(seed)
    m = random_model(rng, rewards=True)
    ctrl = Controller(tuple(rng.randrange(m.num_actions(s)) for s in range(m.num_states)))
    return m, impose(m, ctrl)


def _controllers(m):
    return [
        Controller(c) for c in product(*(range(m.num_actions(s)) for s in range(m.num_states)))
    ]


def test_reach_probs_vs_exact():
    for seed in range(60):
        m, mc = _random_mc(seed)
        target = m.target("goal")
        got = reach_probs(mc, target)
        want = reach_probs_exact(mc, set(target.states))
        for s in range(mc.num_states):
            assert got[s] == pytest.approx(float(want[s]), abs=1e-9), (seed, s)


def test_expected_reward_vs_exact():
    hits = 0
    for seed in range(80):
        m, mc = _random_mc(seed)
        target = m.target("goal")
        got = expected_reward(mc, target)
        want = expected_reward_exact(mc, set(target.states))
        for s in range(mc.num_states):
            if want[s] is None:
                assert got[s] == INF, (seed, s)
            else:
                hits += 1
                assert got[s] == pytest.approx(float(want[s]), abs=1e-8), (seed, s)
    assert hits > 50  # the generator produces plenty of finite cases


def test_expected_visits_vs_exact():
    for seed in range(60):
        _, mc = _random_mc(seed)
        for start in range(0, mc.num_states, 2):
            got = expected_visits(mc, start)
            want = expected_visits_exact(mc, start)
            for s in range(mc.num_states):
                if want[s] is None:
                    assert got[s] >= 1e6, (seed, start, s)
                else:
                    assert got[s] == pytest.approx(float(want[s]), abs=1e-7), (seed, start, s)


def test_reach_probs_hand_example(notes_mdp):
    mc = impose(notes_mdp, Controller((1, 0, 0, 0)))
    v = reach_probs(mc, notes_mdp.target("target"))
    assert v[0] == pytest.approx(0.4, abs=1e-12)
    assert v[1] == pytest.approx(0.65, abs=1e-12)
    assert v[2] == 1.0 and v[3] == 0.0


def test_expected_reward_geometric():
    # stay with probability 3/4 paying 2 per step: E = 2 * 4 = 8
    mc = make_mc(
        [[(0, 0.75), (1, 0.25)], [(1, 1.0)]],
        labels={"end": (1,)},
        rewards=[2.0, 0.0],
    )
    v = expected_reward(mc, mc.target("end"))
    assert v[0] == pytest.approx(8.0, abs=1e-8)
    assert v[1] == 0.0


def test_expected_reward_unreachable_is_inf():
    mc = make_mc(
        [[(0, 0.5), (1, 0.5)], [(1, 1.0)], [(2, 1.0)]],
        labels={"far": (2,)},
        rewards=[1.0, 1.0, 0.0],
    )
    v = expected_reward(mc, mc.target("far"))
    assert v[0] == INF and v[1] == INF and v[2] == 0.0


def test_empty_target_conventions():
    mc = make_mc([[(0, 1.0)]], labels={"none": ()}, rewards=[1.0])
    assert reach_probs(mc, mc.target("none"))[0] == 0.0
    assert expected_reward(mc, mc.target("none"))[0] == INF


def test_expected_visits_transient_loop():
    # fundamental matrix of Q = [[2/3, 1/3], [1/2, 0]]: first row (6, 2)
    mc = make_mc([[(0, 2 / 3.0), (1, 1 / 3.0)], [(0, 0.5), (2, 0.5)], [(2, 1.0)]])
    v = expected_visits(mc, 0)
    assert v[0] == pytest.approx(6.0, abs=1e-9)
    assert v[1] == pytest.approx(2.0, abs=1e-9)
    assert v[2] >= 1e6  # absorbing states saturate
    # unreachable states count zero
    mc2 = make_mc([[(0, 1.0)], [(1, 1.0)]])
    assert expected_visits(mc2, 0)[1] == 0.0


def test_qualitative_states():
    # prob0 and prob1 in both directions against the exact values of every
    # memoryless deterministic controller, which attain both extremes of
    # reachability
    for seed in range(100):
        rng = random.Random(3000 + seed)
        m = random_model(rng, max_states=6, max_actions=3, max_multi=3)
        target = m.target("goal")
        values = [reach_probs_exact(impose(m, c), set(target.states)) for c in _controllers(m)]
        for direction, extreme in (("min", min), ("max", max)):
            best = [extreme(col) for col in zip(*values)]
            prob0, prob1 = qualitative_states(m, target, direction)
            assert prob0 == {s for s, v in enumerate(best) if v == 0}, (seed, direction)
            assert prob1 == {s for s, v in enumerate(best) if v == 1}, (seed, direction)


def _extremal_oracle(m, target, kind):
    outs = []
    for ctrl in _controllers(m):
        mc = impose(m, ctrl)
        if kind == "reach":
            outs.append([float(x) for x in reach_probs_exact(mc, set(target.states))])
        else:
            vals = expected_reward_exact(mc, set(target.states))
            outs.append([INF if x is None else float(x) for x in vals])
    lo = [min(col) for col in zip(*outs)]
    hi = [max(col) for col in zip(*outs)]
    return lo, hi


def test_extremal_reach_vs_enumeration():
    for seed in range(40):
        rng = random.Random(1000 + seed)
        m = random_model(rng, max_states=6, max_actions=3, max_multi=3)
        target = m.target("goal")
        lo, hi = _extremal_oracle(m, target, "reach")
        rmin = extremal_reach(m, target, "min")
        rmax = extremal_reach(m, target, "max")
        for s in range(m.num_states):
            assert rmin.values[s] == pytest.approx(lo[s], abs=1e-7), (seed, s)
            assert rmax.values[s] == pytest.approx(hi[s], abs=1e-7), (seed, s)
        # witnesses attain the bound they certify
        vmin = reach_probs(impose(m, rmin.witness), target)
        vmax = reach_probs(impose(m, rmax.witness), target)
        for s in range(m.num_states):
            assert vmin[s] == pytest.approx(lo[s], abs=1e-7), (seed, s)
            assert vmax[s] == pytest.approx(hi[s], abs=1e-7), (seed, s)


def test_extremal_reward_vs_enumeration():
    for seed in range(40):
        rng = random.Random(2000 + seed)
        m = random_model(rng, max_states=6, max_actions=3, max_multi=3, rewards=True)
        target = m.target("goal")
        lo, hi = _extremal_oracle(m, target, "reward")
        rmin = extremal_reward(m, target, "min")
        rmax = extremal_reward(m, target, "max")
        for s in range(m.num_states):
            for got, want in ((rmin.values[s], lo[s]), (rmax.values[s], hi[s])):
                if want == INF:
                    assert got == INF, (seed, s)
                else:
                    assert got == pytest.approx(want, abs=1e-6), (seed, s)
        wmin = expected_reward(impose(m, rmin.witness), target)
        wmax = expected_reward(impose(m, rmax.witness), target)
        for s in range(m.num_states):
            if lo[s] == INF:
                assert wmin[s] == INF, (seed, s)
            else:
                assert wmin[s] == pytest.approx(lo[s], abs=1e-6), (seed, s)
            if hi[s] == INF:
                assert wmax[s] == INF, (seed, s)
            else:
                assert wmax[s] == pytest.approx(hi[s], abs=1e-6), (seed, s)


def test_check_mc_on_worked_example(notes_mdp):
    spec = parse_spec(
        "exists sigma : forall s in {0, 1} [sigma] : P(s, F target) <= 0.6"
    )
    formula = instantiate(spec, notes_mdp)
    good = check_mc(impose(notes_mdp, Controller((1, 1, 0, 0))), formula)
    assert good.holds
    bad = check_mc(impose(notes_mdp, Controller((0, 1, 0, 0))), formula)
    assert not bad.holds
    lv, rv, ok = bad.atom_values[0]
    assert lv == pytest.approx(0.7, abs=1e-12) and rv == 0.6 and not ok


def test_check_mc_equality_and_negation(notes_mdp):
    f_eq = instantiate(
        parse_spec("exists g : forall s in {0} [g] : P(s, F target) = 0.4 ~0.001"),
        notes_mdp,
    )
    assert check_mc(impose(notes_mdp, Controller((1, 0, 0, 0))), f_eq).holds
    assert not check_mc(impose(notes_mdp, Controller((0, 0, 0, 0))), f_eq).holds
    f_neg = instantiate(
        parse_spec("exists g : forall s in {0} [g] : !(P(s, F target) <= 0.5)"),
        notes_mdp,
    )
    assert check_mc(impose(notes_mdp, Controller((0, 0, 0, 0))), f_neg).holds
    assert not check_mc(impose(notes_mdp, Controller((1, 0, 0, 0))), f_neg).holds


def test_check_mc_handles_inf_rewards():
    mc = make_mc(
        [[(0, 1.0)], [(1, 1.0)]],
        labels={"end": (1,)},
        rewards=[1.0, 0.0],
    )
    m_text = "exists g : forall s in {0} [g] : R(s, F end) >= 5.0"
    # reward from the loop state never terminates: infinite, so >= holds
    from hypersynth import make_mdp

    m = make_mdp([[[(0, 1.0)]], [[(1, 1.0)]]], labels={"end": (1,)},
                 rewards=[[1.0], [0.0]])
    formula = instantiate(parse_spec(m_text), m)
    res = check_mc(impose(m, Controller((0, 0))), formula)
    assert res.holds
    # the >= normalises to scalar <= query; the query side is infinite
    lv, rv, ok = res.atom_values[0]
    assert lv == 5.0 and math.isinf(rv) and ok


# ---------------------------------------------------------------------------
# graph analysis against its definitions


def _random_graph_mc(rng):
    """A random chain in which some states are absorbing."""

    n = rng.randint(1, 12)
    absorbing = set(rng.sample(range(n), rng.randint(0, n // 3)))
    return make_mc([[(s, 1.0)] if s in absorbing else dyadic_row(rng, n) for s in range(n)])


def _reach(mc, s, leave=lambda u: True):
    """s plus every state reachable from it, stepping out of a state only
    where leave holds."""

    seen, todo = {s}, [s]
    while todo:
        u = todo.pop()
        if not leave(u):
            continue
        for v, _ in mc.trans[u]:
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return seen


def test_bottom_scc_states_match_definition():
    absorbing_seen = 0
    for seed in range(400):
        rng = random.Random(seed)
        mc = _random_graph_mc(rng)
        reach = [_reach(mc, s) for s in range(mc.num_states)]
        # s is in a bottom SCC iff everything it reaches reaches it back
        want = {s for s in range(mc.num_states) if all(s in reach[u] for u in reach[s])}
        succ = [[t for t, _ in row] for row in mc.trans]
        assert _bottom_scc_states(succ) == want, seed
        absorbing_seen += sum(row == ((s, 1.0),) for s, row in enumerate(mc.trans))
    assert absorbing_seen > 100


def test_almost_sure_reach_matches_definition():
    for seed in range(400):
        rng = random.Random(seed)
        mc = _random_graph_mc(rng)
        t = frozenset(rng.sample(range(mc.num_states), rng.randint(0, mc.num_states)))
        # s reaches t almost surely iff no state it reaches while avoiding t
        # is unable to reach t
        want = {
            s
            for s in range(mc.num_states)
            if all(_reach(mc, u) & t for u in _reach(mc, s, lambda u: u not in t))
        }
        assert _mc_almost_sure_reach(mc, t) == want, seed


# ---------------------------------------------------------------------------
# batched member checks against per-member check_mc


def _zero_reward_cycle(mc, target) -> bool:
    """Whether the chain has a cycle of zero-reward states off the target."""

    free = [s for s in range(mc.num_states) if s not in target and mc.rewards[s] == 0.0]
    succ = [[t for t, _ in mc.trans[s] if t in free] if s in free else [] for s in range(mc.num_states)]
    return any(s in _closure(succ, succ[s]) for s in free)


def _differential_instance(seed):
    """A random instance with an empty label added, and, on models with
    rewards, about half the rewards set to zero; plus a formula whose atoms
    are the spec's and one reach and reward query per slot, state and label."""

    rng = random.Random(10_000 + seed)
    m, spec = random_instance(seed, rewards=seed % 2 == 0)
    labels = m.labels + (("void", frozenset()),)
    rewards = m.rewards
    if rewards is not None:
        rewards = tuple(tuple(r if rng.random() < 0.5 else 0.0 for r in menu) for menu in rewards)
    m = replace(m, labels=labels, rewards=rewards)
    formula = instantiate(spec, m)
    kinds = ("reach", "reward") if m.has_rewards else ("reach",)
    extra = tuple(
        Atom(Query(kind, slot, s, label), rng.randint(0, 16) / 4.0)
        for kind in kinds
        for slot in range(spec.n_controllers)
        for s in range(m.num_states)
        for label in m.label_names()
    )
    return m, spec, InstantiatedFormula(formula.atoms + extra, formula.root)


def test_check_members_match_check_mc_on_random_instances():
    seen = dict(members=0, inf=0, two_slots=0, zero_cycles=0)
    for seed in range(200):
        m, spec, formula = _differential_instance(seed)
        space = build_parameter_space(m, spec.n_controllers, spec.constraints)
        compiled = compile_model(m, space)
        members = list(islice(product(*space.domains), 256))
        want_holds, want_values = [], []
        for real in members:
            mcs = [impose(m, induce(space, real, i)) for i in range(spec.n_controllers)]
            res = check_mc(mcs, formula)
            want_holds.append(res.holds)
            want_values.append([value[:2] for value in res.atom_values])
            if m.has_rewards:
                seen["zero_cycles"] += any(
                    _zero_reward_cycle(mc, mc.target(name)) for mc in mcs for name in m.label_names()
                )
        want_values = np.array(want_values)
        inf = np.isinf(want_values)
        for size in (1, 3, 256):
            batches = [
                check_members(compiled, formula, members[start : start + size])
                for start in range(0, len(members), size)
            ]
            holds = np.concatenate([batch.holds for batch in batches])
            values = np.concatenate([batch.values for batch in batches])
            assert holds.tolist() == want_holds, (seed, size)
            assert (np.isinf(values) == inf).all() and (values[inf] == want_values[inf]).all(), (seed, size)
            assert np.abs(values[~inf] - want_values[~inf]).max(initial=0.0) <= 1e-12, (seed, size)
        seen["members"] += len(members)
        seen["inf"] += inf.sum()
        seen["two_slots"] += spec.n_controllers == 2 and bool(spec.constraints)
    assert seen["members"] > 2000 and seen["inf"] > 1000 and seen["two_slots"] > 5
    assert seen["zero_cycles"] > 100


def test_check_members_reward_query_needs_rewards():
    m, spec = random_instance(3, rewards=False)
    space = build_parameter_space(m, spec.n_controllers, spec.constraints)
    formula = InstantiatedFormula((Atom(Query("reward", 0, 0, m.label_names()[0]), 1.0),), ("atom", 0))
    real = next(product(*space.domains))
    with pytest.raises(MissingRewardsError):
        check_mc([impose(m, induce(space, real, 0))], formula)
    with pytest.raises(MissingRewardsError):
        check_members(compile_model(m, space), formula, [real])
