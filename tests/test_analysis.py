"""Numeric analysis against independent rational-arithmetic solves.

Every probabilistic quantity the engine computes in floats is recomputed
here with Fraction linear algebra on randomly generated chains, so a float
regression cannot hide behind tolerance stacking.
"""

import math
import random
import threading
from dataclasses import replace
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
    make_mdp,
    parse_spec,
    reach_probs,
)
from hypersynth import analysis
from hypersynth.analysis import (
    INF,
    _chain_closures,
    _chain_sets,
    _mask,
    _prob1_max,
    _qualitative,
    _states,
    check_members,
    compile_model,
    cone_classes,
    qualitative_states,
    restrict_to_cones,
    row_table,
    solve_count,
)
from hypersynth.benchmarks import generate
from hypersynth.errors import InvalidControllerError, MissingRewardsError, ModelError
from hypersynth.exact import (
    expected_reward_exact,
    expected_visits_exact,
    reach_probs_exact,
)
from hypersynth.family import build_parameter_space, induce
from hypersynth.formulas import Atom, InstantiatedFormula, Query
from hypersynth.synthesis import instantiate

from conftest import dyadic_row, multi_sink_instance, random_instance, random_model


def _chain(rows, labels=None, rewards=None):
    """A chain: an Mdp with the one action rows[s] in each state s."""

    return make_mdp(
        [[row] for row in rows], labels, None if rewards is None else [[r] for r in rewards]
    )


def _random_mc(seed):
    rng = random.Random(seed)
    m = random_model(rng, rewards=True)
    ctrl = Controller(tuple(rng.randrange(m.num_actions(s)) for s in range(m.num_states)))
    return m, impose(m, ctrl)


def _controllers(m, allowed=None):
    if allowed is None:
        allowed = [range(m.num_actions(s)) for s in range(m.num_states)]
    return [Controller(c) for c in product(*allowed)]


def test_reach_probs_vs_exact():
    for seed in range(60):
        m, mc = _random_mc(seed)
        target = m.target("goal")
        got = reach_probs(mc, target)
        want = reach_probs_exact(mc, target)
        for s in range(mc.num_states):
            assert got[s] == pytest.approx(float(want[s]), abs=1e-9), (seed, s)


def test_expected_reward_vs_exact():
    hits = 0
    for seed in range(80):
        m, mc = _random_mc(seed)
        target = m.target("goal")
        got = expected_reward(mc, target)
        want = expected_reward_exact(mc, target)
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
    mc = _chain(
        [[(0, 0.75), (1, 0.25)], [(1, 1.0)]],
        labels={"end": (1,)},
        rewards=[2.0, 0.0],
    )
    v = expected_reward(mc, mc.target("end"))
    assert v[0] == pytest.approx(8.0, abs=1e-8)
    assert v[1] == 0.0


def test_expected_reward_unreachable_is_inf():
    mc = _chain(
        [[(0, 0.5), (1, 0.5)], [(1, 1.0)], [(2, 1.0)]],
        labels={"far": (2,)},
        rewards=[1.0, 1.0, 0.0],
    )
    v = expected_reward(mc, mc.target("far"))
    assert v[0] == INF and v[1] == INF and v[2] == 0.0


def test_empty_target_conventions():
    mc = _chain([[(0, 1.0)]], labels={"none": ()}, rewards=[1.0])
    assert reach_probs(mc, mc.target("none"))[0] == 0.0
    assert expected_reward(mc, mc.target("none"))[0] == INF
    # the extremal solves' witnesses keep to the allowed menus
    m = make_mdp([[[(0, 1.0)], [(0, 1.0)]]], labels={"none": ()}, rewards=[[1.0, 2.0]])
    for direction in ("min", "max"):
        reach = extremal_reach(m, m.target("none"), direction, allowed=[(1,)])
        assert reach.values[0] == 0.0 and reach.witness.choices == (1,)
        reward = extremal_reward(m, m.target("none"), direction, allowed=[(1,)])
        assert reward.values[0] == INF and reward.witness.choices == (1,)


def test_expected_visits_transient_loop():
    # fundamental matrix of Q = [[2/3, 1/3], [1/2, 0]]: first row (6, 2)
    mc = _chain([[(0, 2 / 3.0), (1, 1 / 3.0)], [(0, 0.5), (2, 0.5)], [(2, 1.0)]])
    v = expected_visits(mc, 0)
    assert v[0] == pytest.approx(6.0, abs=1e-9)
    assert v[1] == pytest.approx(2.0, abs=1e-9)
    assert v[2] >= 1e6  # absorbing states saturate
    # unreachable states count zero
    mc2 = _chain([[(0, 1.0)], [(1, 1.0)]])
    assert expected_visits(mc2, 0)[1] == 0.0


def test_qualitative_states():
    # prob0 and prob1 in both directions against the exact values of every
    # memoryless deterministic controller, which attain both extremes of
    # reachability; every action, then a random sub-menu per state, as a
    # box allows
    for seed in range(100):
        rng = random.Random(3000 + seed)
        m = random_model(rng, max_states=6, max_actions=3, max_multi=3)
        target = m.target("goal")
        for allowed in (None, _sub_menus(rng, m)):
            where = (seed, allowed)
            controllers = _controllers(m, allowed)
            values = [reach_probs_exact(impose(m, c), target) for c in controllers]
            for direction, extreme in (("min", min), ("max", max)):
                best = [extreme(col) for col in zip(*values)]
                prob0, prob1 = qualitative_states(m, target, direction, allowed)
                assert prob0 == {s for s, v in enumerate(best) if v == 0}, (where, direction)
                assert prob1 == {s for s, v in enumerate(best) if v == 1}, (where, direction)


def _scan_order_model():
    """Target 0 and sink 5, both absorbing.  States 1 to 4 reach the
    target surely: 1 steps into it, 2 into 1 or into the target, 3 into 4
    or into the target, and 4 has two actions both stepping into it.  State
    6 hits the target or the sink with 1/2 each; state 7 hits the target
    with 1/2 and else goes to 6 (action 0) or to the sink (action 1).
    State 8 loops on itself or steps into the sink."""

    return make_mdp(
        [
            [[(0, 1.0)]],
            [[(0, 1.0)]],
            [[(1, 1.0)], [(0, 1.0)]],
            [[(4, 1.0)], [(0, 1.0)]],
            [[(0, 1.0)], [(0, 1.0)]],
            [[(5, 1.0)]],
            [[(0, 0.5), (5, 0.5)]],
            [[(0, 0.5), (6, 0.5)], [(0, 0.5), (5, 0.5)]],
            [[(8, 1.0)], [(5, 1.0)]],
        ],
        labels={"goal": (0,)},
    )


def test_fixpoints_join_in_scan_order_with_the_lowest_action():
    # A state joins as soon as its scan finds an entering action, so state
    # 2 (max) and state 7 (min) enter through a state that joined earlier in
    # the same round, by action 0; an attractor adding a round's states at
    # once would give them action 1.  State 3 scans before state 4 joins,
    # so it takes action 1; state 4 and state 8 take the lowest of two.
    m = _scan_order_model()
    rows = row_table(m)
    every = [range(m.num_actions(s)) for s in range(m.num_states)]
    prob0, prob1, actions = _qualitative(rows, every, 1 << 0, "max")
    assert (prob0, prob1) == (1 << 5 | 1 << 8, 0b11111)
    assert actions == {1: 0, 2: 0, 3: 1, 4: 0, 6: 0, 7: 0}
    prob0, prob1, actions = _qualitative(rows, every, 1 << 0, "min")
    assert (prob0, prob1) == (1 << 5 | 1 << 8, 0b11111)
    assert actions == {5: 0, 6: 0, 7: 0, 8: 0}
    # witnesses keep the qualitative actions where the value is 0 or 1,
    # and policy iteration picks the better action of state 7
    hi = extremal_reach(m, m.target("goal"), "max")
    lo = extremal_reach(m, m.target("goal"), "min")
    assert hi.witness.choices == (0, 0, 0, 1, 0, 0, 0, 0, 0)
    assert lo.witness.choices == (0, 0, 0, 0, 0, 0, 0, 1, 0)
    assert hi.values == (1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.5, 0.75, 0.0)
    assert lo.values == (1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.5, 0.5, 0.0)


def test_extremal_reach_past_one_machine_word():
    # a ladder of 100 states, then the target (100) and a sink (101): from
    # state i, action 0 climbs to i + 1 with 1/2 and action 1 jumps to the
    # target with 3/8, else both fall into the sink.  The maximum is 1/2 at
    # the top rung by climbing and 3/8 below it by jumping; the minimum is
    # 3/8 at the top rung by jumping and halves with every rung below.
    k = 100
    trans = [[[(i + 1, 0.5), (k + 1, 0.5)], [(k, 0.375), (k + 1, 0.625)]] for i in range(k)]
    m = make_mdp(trans + [[[(k, 1.0)]], [[(k + 1, 1.0)]]], labels={"goal": (k,)})
    target = m.target("goal")
    for direction in ("min", "max"):
        assert qualitative_states(m, target, direction) == ({k + 1}, {k})
    hi = extremal_reach(m, target, "max")
    lo = extremal_reach(m, target, "min")
    assert hi.witness.choices == (1,) * (k - 1) + (0, 0, 0)
    assert lo.witness.choices == (0,) * (k - 1) + (1, 0, 0)
    for i in range(k):
        assert hi.values[i] == pytest.approx(0.5 if i == k - 1 else 0.375, rel=1e-12)
        assert lo.values[i] == pytest.approx(0.375 * 0.5 ** (k - 1 - i), rel=1e-9)
    # the witness closures from the bottom rung cross the word boundary too
    rows = row_table(m)
    assert rows.reachable(hi.witness, 0) == [0, k, k + 1]
    assert rows.reachable(lo.witness, 0) == list(range(k + 2))


def _extremal_oracle(m, target, kind, allowed=None):
    outs = []
    for ctrl in _controllers(m, allowed):
        mc = impose(m, ctrl)
        if kind == "reach":
            outs.append([float(x) for x in reach_probs_exact(mc, target)])
        else:
            vals = expected_reward_exact(mc, target)
            outs.append([INF if x is None else float(x) for x in vals])
    lo = [min(col) for col in zip(*outs)]
    hi = [max(col) for col in zip(*outs)]
    return lo, hi


def _sub_menus(rng, m):
    """A random nonempty ascending sub-menu of every state's actions."""

    return [
        tuple(sorted(rng.sample(range(m.num_actions(s)), rng.randint(1, m.num_actions(s)))))
        for s in range(m.num_states)
    ]


def _assert_within(m, allowed, witness, where):
    for s in range(m.num_states):
        menu = range(m.num_actions(s)) if allowed is None else allowed[s]
        assert witness[s] in menu, (where, s)


def test_extremal_reach_vs_enumeration():
    # every action, then a random sub-menu per state, as a box allows
    for seed in range(300):
        rng = random.Random(1000 + seed)
        m = random_model(rng, max_states=6, max_actions=3, max_multi=3)
        target = m.target("goal")
        for allowed in (None, _sub_menus(rng, m)):
            where = (seed, allowed)
            lo, hi = _extremal_oracle(m, target, "reach", allowed)
            rmin = extremal_reach(m, target, "min", allowed=allowed)
            rmax = extremal_reach(m, target, "max", allowed=allowed)
            for s in range(m.num_states):
                assert rmin.values[s] == pytest.approx(lo[s], abs=1e-10), (where, s)
                assert rmax.values[s] == pytest.approx(hi[s], abs=1e-10), (where, s)
            # witnesses stay in the menus and attain the bound they certify
            _assert_within(m, allowed, rmin.witness, where)
            _assert_within(m, allowed, rmax.witness, where)
            vmin = reach_probs(impose(m, rmin.witness), target)
            vmax = reach_probs(impose(m, rmax.witness), target)
            for s in range(m.num_states):
                assert vmin[s] == pytest.approx(lo[s], abs=1e-10), (where, s)
                assert vmax[s] == pytest.approx(hi[s], abs=1e-10), (where, s)


def test_extremal_reward_vs_enumeration():
    for seed in range(300):
        rng = random.Random(2000 + seed)
        m = random_model(rng, max_states=6, max_actions=3, max_multi=3, rewards=True)
        target = m.target("goal")
        for allowed in (None, _sub_menus(rng, m)):
            where = (seed, allowed)
            lo, hi = _extremal_oracle(m, target, "reward", allowed)
            rmin = extremal_reward(m, target, "min", allowed=allowed)
            rmax = extremal_reward(m, target, "max", allowed=allowed)
            for s in range(m.num_states):
                for got, want in ((rmin.values[s], lo[s]), (rmax.values[s], hi[s])):
                    if want == INF:
                        assert got == INF, (where, s)
                    else:
                        assert got == pytest.approx(want, abs=1e-9), (where, s)
            _assert_within(m, allowed, rmin.witness, where)
            _assert_within(m, allowed, rmax.witness, where)
            wmin = expected_reward(impose(m, rmin.witness), target)
            wmax = expected_reward(impose(m, rmax.witness), target)
            for s in range(m.num_states):
                if lo[s] == INF:
                    assert wmin[s] == INF, (where, s)
                else:
                    assert wmin[s] == pytest.approx(lo[s], abs=1e-9), (where, s)
                if hi[s] == INF:
                    assert wmax[s] == INF, (where, s)
                else:
                    assert wmax[s] == pytest.approx(hi[s], abs=1e-9), (where, s)


def test_check_mc_on_worked_example(notes_mdp):
    spec = parse_spec(
        "exists sigma : forall s in {0, 1} [sigma] : P(s, F target) <= 0.6"
    )
    formula = instantiate(spec, notes_mdp)
    mc = impose(notes_mdp, Controller((1, 1, 0, 0)))
    good = check_mc(mc, formula)
    assert good.holds
    # a single chain is taken as the one slot's chain
    assert check_mc((mc,), formula) == good
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
    m_text = "exists g : forall s in {0} [g] : R(s, F end) >= 5.0"
    # reward from the loop state never terminates: infinite, so >= holds
    m = make_mdp([[[(0, 1.0)]], [[(1, 1.0)]]], labels={"end": (1,)},
                 rewards=[[1.0], [0.0]])
    formula = instantiate(parse_spec(m_text), m)
    res = check_mc(impose(m, Controller((0, 0))), formula)
    assert res.holds
    # the >= normalises to scalar <= query; the query side is infinite
    lv, rv, ok = res.atom_values[0]
    assert lv == 5.0 and math.isinf(rv) and ok


def test_chain_solvers_reject_a_state_with_two_actions():
    m = make_mdp(
        [[[(0, 0.5), (1, 0.5)], [(1, 1.0)]], [[(1, 1.0)]]],
        labels={"end": (1,)},
        rewards=[[1.0, 2.0], [0.0]],
    )
    formula = instantiate(parse_spec("exists g : forall s in {0} [g] : P(s, F end) >= 0.5"), m)
    target = m.target("end")
    calls = (
        lambda: reach_probs(m, target),
        lambda: expected_reward(m, target),
        lambda: expected_visits(m, 0),
        lambda: check_mc(m, formula),
        lambda: check_mc((m,), formula),
        lambda: reach_probs_exact(m, target),
        lambda: expected_reward_exact(m, target),
        lambda: expected_visits_exact(m, 0),
        lambda: _chain_sets(m, _mask(target)),
        lambda: _chain_closures(m),
    )
    for call in calls:
        with pytest.raises(ModelError, match="state 0 has 2 actions"):
            call()


def test_exact_solvers_check_their_inputs_as_the_float_ones_do():
    mc = _chain([[(1, 0.5), (2, 0.5)], [(1, 1.0)], [(2, 1.0)]], rewards=[1.0, 0.0, 0.0])
    for target in ({-1}, {3}, {5}):
        for solve in (reach_probs, expected_reward, reach_probs_exact, expected_reward_exact):
            with pytest.raises(ModelError, match="out of range"):
                solve(mc, target)
    for start in (-1, 3):
        for solve in (expected_visits, expected_visits_exact):
            with pytest.raises(ModelError, match="out of range"):
                solve(mc, start)


# ---------------------------------------------------------------------------
# graph analysis against its definitions


def _random_graph_mc(rng):
    """A random chain in which some states are absorbing."""

    n = rng.randint(1, 12)
    absorbing = set(rng.sample(range(n), rng.randint(0, n // 3)))
    return _chain([[(s, 1.0)] if s in absorbing else dyadic_row(rng, n) for s in range(n)])


def _reach(mc, s, leave=lambda u: True):
    """s plus every state reachable from it, stepping out of a state only
    where leave holds."""

    seen, todo = {s}, [s]
    while todo:
        u = todo.pop()
        if not leave(u):
            continue
        for v, _ in mc.trans[u][0]:
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
        assert _chain_closures(mc)[1] == want, seed
        absorbing_seen += sum(menu[0] == ((s, 1.0),) for s, menu in enumerate(mc.trans))
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
        sure, _ = _prob1_max(row_table(mc), [(0,)] * mc.num_states, _mask(t))
        assert set(_states(sure)) == want, seed


def test_chain_sets_match_definition():
    # the live states of the chain solvers: s reaches t with positive
    # probability iff a path from s meets t, and almost surely as
    # _almost_surely defines it
    for seed in range(400):
        rng = random.Random(seed)
        mc = _random_graph_mc(rng)
        t = frozenset(rng.sample(range(mc.num_states), rng.randint(0, mc.num_states)))
        can, almost = _chain_sets(mc, _mask(t))
        assert set(_states(can)) == {s for s in range(mc.num_states) if _reach(mc, s) & t}, seed
        assert set(_states(almost)) == _almost_surely(mc, t), seed


def test_exact_reward_is_finite_exactly_where_exact_reach_is_one():
    # expected_reward_exact solves on the graph's almost-sure states; the
    # exact reach probabilities stay the reference for them
    counts = {True: 0, False: 0}
    for seed in range(300):
        rng = random.Random(seed)
        mc = _random_graph_mc(rng)
        mc = replace(mc, rewards=tuple((rng.randint(0, 3) / 2,) for _ in range(mc.num_states)))
        t = frozenset(rng.sample(range(mc.num_states), rng.randint(0, mc.num_states // 2)))
        reach = reach_probs_exact(mc, t)
        reward = expected_reward_exact(mc, t)
        for s in range(mc.num_states):
            finite = reward[s] is not None
            assert finite == (reach[s] == 1), (seed, s)
            counts[finite] += s not in t
    assert min(counts.values()) > 200, counts


# ---------------------------------------------------------------------------
# batched member checks against per-member check_mc


def _zero_reward_cycle(mc, target) -> bool:
    """Whether the chain has a cycle of zero-reward states off the target."""

    free = {s for s in range(mc.num_states) if s not in target and mc.rewards[s][0] == 0.0}
    return any(
        s in _reach(mc, t, free.__contains__) for s in free for t, _ in mc.trans[s][0] if t in free
    )


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


def _lone_sides(compiled):
    """Per (atom, side) of the compiled formula, whether check_members
    solves it as check_mc does: a constant, or a query whose group has one
    target.  A group of several targets solves them in one system, on the
    states that can reach any of them, so it can round differently."""

    lone = {(g.kind, g.slot, g.targets[0]) for g in compiled.plan if len(g.targets) == 1}

    def solved_alone(side):
        return not isinstance(side, Query) or (side.kind, side.slot, side.target) in lone

    return np.array([[solved_alone(atom.left), solved_alone(atom.right)] for atom in compiled.formula.atoms])


def test_check_members_match_check_mc_on_random_instances():
    # single-target groups solve check_mc's own systems, so their values
    # equal check_mc's exactly (up to the sign of a zero, which check_mc's
    # Python max keeps); grouped targets agree within rounding
    seen = dict(members=0, inf=0, two_slots=0, zero_cycles=0, lone=0, grouped=0)
    for seed in range(200):
        m, spec, formula = _differential_instance(seed)
        space = build_parameter_space(m, spec.n_controllers, spec.constraints)
        compiled = compile_model(m, space, formula)
        lone = _lone_sides(compiled)
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
                check_members(compiled, members[start : start + size])
                for start in range(0, len(members), size)
            ]
            holds = np.concatenate([batch.holds for batch in batches])
            values = np.concatenate([batch.values for batch in batches])
            assert holds.tolist() == want_holds, (seed, size)
            assert (np.isinf(values) == inf).all() and (values[inf] == want_values[inf]).all(), (seed, size)
            assert (values[:, lone] == want_values[:, lone]).all(), (seed, size)
            assert np.abs(values[~inf] - want_values[~inf]).max(initial=0.0) <= 1e-12, (seed, size)
        seen["members"] += len(members)
        seen["lone"] += lone.sum() * len(members)
        seen["grouped"] += (~lone).sum() * len(members)
        seen["inf"] += inf.sum()
        seen["two_slots"] += spec.n_controllers == 2 and bool(spec.constraints)
    assert seen["members"] > 2000 and seen["inf"] > 1000 and seen["two_slots"] > 5
    assert seen["zero_cycles"] > 100
    assert seen["lone"] > 100_000 and seen["grouped"] > 1_000


def test_check_members_solve_shared_slot_chains_bit_for_bit():
    # a batch solves each distinct chain of a slot once; every value is
    # the one a batch of that member alone computes, to the bit
    shared = 0
    for seed in range(100):
        m, spec, formula = _differential_instance(seed)
        if spec.n_controllers != 2:
            continue
        space = build_parameter_space(m, spec.n_controllers, spec.constraints)
        compiled = compile_model(m, space, formula)
        members = np.array(list(islice(product(*space.domains), 64)), dtype=np.intp)
        got = check_members(compiled, members)
        alone = [check_members(compiled, members[b : b + 1]) for b in range(len(members))]
        assert got.values.tobytes() == np.concatenate([a.values for a in alone]).tobytes(), seed
        assert (got.truth == np.concatenate([a.truth for a in alone])).all(), seed
        assert (got.holds == np.concatenate([a.holds for a in alone])).all(), seed
        chains = np.unique(members[:, compiled.classes[0]], axis=0)
        shared += len(chains) < len(members)
    assert shared > 30


def test_check_members_match_check_mc_exactly_on_maze_sd():
    # maze-sd simple's members reach the goal from 7 of its 10 states; each
    # member's system is solved on those states alone, as check_mc solves it
    m, spec = generate("maze-sd", variant="simple")
    space = build_parameter_space(m, spec.n_controllers, spec.constraints)
    formula = instantiate(spec, m)
    compiled = compile_model(m, space, formula)
    members = list(islice(product(*space.domains), 300))
    got = np.concatenate(
        [check_members(compiled, members[start : start + 64]).values for start in range(0, len(members), 64)]
    )
    want = [
        [value[:2] for value in check_mc([impose(m, induce(space, real, 0))], formula).atom_values]
        for real in members
    ]
    assert (got == np.array(want)).all()


def _live_sets_model():
    """States 0-2 and an absorbing goal 3.  Action 0 of each state moves
    on toward the goal and action 1 loops, so the states that can reach
    the goal, a member's live set, range from none to all three."""

    trans = [
        [[(1, 1.0)], [(0, 1.0)]],
        [[(2, 0.5), (3, 0.5)], [(1, 1.0)]],
        [[(3, 0.25), (0, 0.75)], [(2, 1.0)]],
        [[(3, 1.0)]],
    ]
    rewards = [[1.0, 2.0], [0.5, 1.0], [3.0, 0.0], [0.0]]
    return make_mdp(trans, labels={"goal": (3,)}, rewards=rewards)


def test_check_members_solve_live_sets_of_every_size():
    # a batch mixes members whose live sets differ in size, one of them
    # empty; each member's values are those of its batch of one, to the
    # bit, and the batch costs one counted solve per query group
    m = _live_sets_model()
    space = build_parameter_space(m, 1, ())
    formula = InstantiatedFormula(
        tuple(Atom(Query(kind, 0, s, "goal"), 0.5) for kind in ("reach", "reward") for s in range(4)),
        ("atom", 0),
    )
    compiled = compile_model(m, space, formula)
    members = np.array(list(product(*space.domains)), dtype=np.intp)
    chains = [impose(m, induce(space, tuple(real), 0)) for real in members]
    live = {len(_states(_chain_sets(mc, _mask({3}))[0])) - 1 for mc in chains}
    assert live == {0, 1, 2, 3}
    before = solve_count()
    got = check_members(compiled, members)
    assert solve_count() == before + compiled.solves
    alone = [check_members(compiled, members[b : b + 1]) for b in range(len(members))]
    assert got.values.tobytes() == np.concatenate([a.values for a in alone]).tobytes()
    for b, real in enumerate(members.tolist()):
        want = check_mc([impose(m, induce(space, real, 0))], formula).atom_values
        assert (got.values[b] == [value[:2] for value in want]).all(), real


def _almost_surely(mc, t):
    """The states of the chain that reach the target t almost surely: those
    from which every state reached while avoiding t can still reach it."""

    return {
        s
        for s in range(mc.num_states)
        if all(_reach(mc, u) & t for u in _reach(mc, s, lambda u: u not in t))
    }


def _group_sets(g, k):
    """The states of each of group g's bounds for its target k, as sets."""

    def states(a):
        return set(np.flatnonzero(a).tolist())

    sets = [states(g.sure[k]), states(g.undetermined[k])]
    if g.kind == "reward":
        sets += [states(g.sure_as), states(g.undetermined_as)]
    return sets


def test_every_chain_lives_within_the_bounds_of_its_groups():
    # each member's chain is one controller of the MDP: the states that can
    # reach a target hold the group's sure set and lie in sure plus
    # undetermined, and on a reward group the states reaching it almost
    # surely lie between sure_as and sure_as plus undetermined_as
    seen = dict(chains=0, reward=0, grown=0, grown_as=0)
    for seed in range(100):
        m, spec, formula = _differential_instance(seed)
        space = build_parameter_space(m, spec.n_controllers, spec.constraints)
        compiled = compile_model(m, space, formula)
        for real in islice(product(*space.domains), 0, 5 * 30, 5):
            mcs = [impose(m, induce(space, real, i)) for i in range(spec.n_controllers)]
            for g in compiled.plan:
                mc = mcs[g.slot]
                for k, name in enumerate(g.targets):
                    t = frozenset(mc.target(name))
                    bounds = _group_sets(g, k)
                    sure, undetermined = bounds[:2]
                    assert not sure & undetermined, (seed, g.targets)
                    can = set(_states(_chain_sets(mc, _mask(t))[0]))
                    assert sure <= can <= sure | undetermined, (seed, real, name)
                    seen["grown"] += can != sure
                    seen["chains"] += 1
                    if g.kind == "reward":
                        sure_as, undetermined_as = bounds[2:]
                        assert not sure_as & undetermined_as, (seed, name)
                        surely = _almost_surely(mc, t)
                        assert sure_as <= surely <= sure_as | undetermined_as, (seed, real, name)
                        seen["grown_as"] += surely != sure_as
                        seen["reward"] += 1
    assert seen["chains"] > 3000 and seen["reward"] > 1000
    assert seen["grown"] > 400 and seen["grown_as"] > 150


def _undetermined_model():
    """State 0 steps into the goal 1 under action 0 and into the sink 2
    under action 1.  State 3 steps to 0 or loops, and 4 steps into 3, so
    they reach the goal as 0 does; state 5 steps into the goal or to 0 and
    state 6 into 5, so they reach the goal under every controller, but
    almost surely only when 0 does."""

    trans = [
        [[(1, 1.0)], [(2, 1.0)]],
        [[(1, 1.0)]],
        [[(2, 1.0)]],
        [[(0, 0.5), (3, 0.5)]],
        [[(3, 1.0)]],
        [[(1, 0.5), (0, 0.5)]],
        [[(5, 1.0)]],
    ]
    rewards = [[1.0, 2.0], [0.0], [0.0], [0.5], [1.0], [3.0], [0.25]]
    return make_mdp(trans, labels={"goal": (1,)}, rewards=rewards)


def test_check_members_grow_the_undetermined_states(monkeypatch):
    # the graph of the MDP leaves 0, 3 and 4 undetermined for reaching the
    # goal and 0 and 3-6 for reaching it almost surely; each member's chain
    # settles them, along 4 -> 3 -> 0, and gets check_mc's values
    m = _undetermined_model()
    space = build_parameter_space(m, 1, ())
    formula = InstantiatedFormula(
        tuple(Atom(Query(kind, 0, s, "goal"), 0.5) for kind in ("reach", "reward") for s in range(7)),
        ("atom", 0),
    )
    compiled = compile_model(m, space, formula)
    reach, reward = compiled.plan
    assert _group_sets(reach, 0) == [{1, 5, 6}, {0, 3, 4}]
    assert _group_sets(reward, 0) == [{1, 5, 6}, {0, 3, 4}, {1}, {0, 3, 4, 5, 6}]
    grown = []
    grow = analysis._grow
    monkeypatch.setattr(analysis, "_grow", lambda *args: grown.append(args[2].tolist()) or grow(*args))
    members = np.array(list(product(*space.domains)), dtype=np.intp)
    assert len(members) == 2
    got = check_members(compiled, members)
    # one pass for the can set of each group, one for the almost-sure set
    assert grown == [[0, 3, 4], [0, 3, 4], [0, 3, 4, 5, 6]]
    for b, real in enumerate(members.tolist()):
        want = check_mc([impose(m, induce(space, real, 0))], formula).atom_values
        assert (got.values[b] == [value[:2] for value in want]).all(), real
        assert got.values[b].tobytes() == check_members(compiled, members[b : b + 1]).values[0].tobytes()
    assert got.values[:, :7, 0].tolist() == [[1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0], [0.0, 1.0, 0.0, 0.0, 0.0, 0.5, 0.5]]
    assert np.isinf(got.values[1, [7, 9, 10, 11, 12, 13], 0]).all()
    assert np.isfinite(got.values[0, [7, 8, 10, 11, 12, 13], 0]).all()


@pytest.mark.parametrize(
    "bench, params", [("maze-sd", dict(variant="simple")), ("timing-attack", dict(n=6))]
)
def test_check_members_grow_nothing_when_the_model_decides_every_state(monkeypatch, bench, params):
    # every controller of these models has the same live states, so no
    # state is undetermined and a batch runs no expansion round
    m, spec = generate(bench, **params)
    space = build_parameter_space(m, spec.n_controllers, spec.constraints)
    compiled = compile_model(m, space, instantiate(spec, m))
    for g in compiled.plan:
        assert not g.undetermined.any()
        assert g.undetermined_as is None or not g.undetermined_as.any()
    grown = []
    monkeypatch.setattr(analysis, "_grow", lambda *args: grown.append(args))
    members = np.array(list(islice(product(*space.domains), compiled.chunk)), dtype=np.intp)
    got = check_members(compiled, members)
    assert grown == []
    for b in (0, len(members) - 1):
        mc = impose(m, induce(space, members[b].tolist(), 0))
        want = check_mc([mc], compiled.formula).atom_values
        assert (got.values[b] == [value[:2] for value in want]).all()


def test_check_members_reject_a_disabled_action_before_sharing_chains(monkeypatch):
    m, spec = generate("maze-sd", variant="checkpoint")  # two slots reading disjoint classes
    space = build_parameter_space(m, spec.n_controllers, spec.constraints)
    compiled = compile_model(m, space, instantiate(spec, m))
    members = np.array(list(islice(product(*space.domains), 8)), dtype=np.intp)
    shared = []
    distinct_rows = analysis._distinct_rows
    monkeypatch.setattr(analysis, "_distinct_rows", lambda a: shared.append(a) or distinct_rows(a))
    check_members(compiled, members)
    assert len(shared) == 2  # both slots share chains among these members
    for bad in (-1, None):
        broken = members.copy()
        for classes in compiled.classes:  # one disabled pick in each slot
            k = int(classes[np.flatnonzero(compiled.varies[classes])[0]])
            broken[3, k] = bad if bad is not None else len(space.domains[k])
        shared.clear()
        with pytest.raises(InvalidControllerError):
            check_members(compiled, broken)
        assert shared == []


def test_check_members_reject_malformed_realisations():
    # each batch is checked once: one integer action per parameter class
    m, spec = generate("maze-sd", variant="simple")
    space = build_parameter_space(m, spec.n_controllers, spec.constraints)
    compiled = compile_model(m, space, instantiate(spec, m))
    width = space.n_classes
    good = (0,) * width
    check_members(compiled, [good])
    check_members(compiled, np.zeros((2, width), dtype=np.uint8))
    for bad in (
        [good[1:]],  # too short
        [good + (0,)],  # too long
        [(0.5,) + good[1:]],  # not an action ordinal
        np.zeros((1, width)),  # whole numbers, but floats
        [(True,) * width],
        [good, good[1:]],  # rows of different widths
        [[good]],
        good,  # one realisation, not a batch of them
    ):
        with pytest.raises(InvalidControllerError):
            check_members(compiled, bad)


def _cone(m, state):
    """The states reachable from state under any action."""

    seen, todo = {state}, [state]
    while todo:
        s = todo.pop()
        for row in m.trans[s]:
            for t, _ in row:
                if t not in seen:
                    seen.add(t)
                    todo.append(t)
    return seen


def test_restriction_to_a_cone_keeps_its_values():
    # a side's values on its cone alone equal the full model's, within
    # rounding, with INF in the same places; so do the verdicts of atoms
    # whose other side is a constant.  The cones are those of a search
    # written here, and the cut model's bounds on its live states are the
    # slices of the whole model's
    seen = dict(sides=0, reward=0, void=0, two_slots=0, inf=0, zero_cycles=0, smaller=0)
    for seed in range(0, 200, 2):
        m, spec, formula = _differential_instance(seed)
        space = build_parameter_space(m, spec.n_controllers, spec.constraints)
        compiled = compile_model(m, space, formula)
        assert [set(np.flatnonzero(row).tolist()) for row in compiled.cones] == [
            _cone(m, s) for s in range(m.num_states)
        ]
        groups = {(g.kind, g.slot, g.targets): g for g in compiled.plan}
        members = np.array(list(islice(product(*space.domains), 32)), dtype=np.intp)
        full = check_members(compiled, members)
        atoms = formula.atoms
        for i, atom in enumerate(atoms):
            for j, side in enumerate((atom.left, atom.right)):
                if not isinstance(side, Query):
                    continue
                keep = np.zeros((len(atoms), 2), dtype=bool)
                keep[i, j] = True
                cone = _cone(m, side.state)
                cut = restrict_to_cones(compiled, keep)
                assert cut.num_states == len(cone), (seed, i, j)
                # a cone is closed, so its bounds are the whole model's, sliced
                inside = sorted(cone)
                for g in cut.plan:
                    whole = groups[g.kind, g.slot, g.targets]
                    assert (g.sure == whole.sure[:, inside]).all(), (seed, i, j)
                    assert (g.undetermined == whole.undetermined[:, inside]).all(), (seed, i, j)
                    if g.kind == "reward":
                        assert (g.sure_as == whole.sure_as[inside]).all(), (seed, i, j)
                        assert (g.undetermined_as == whole.undetermined_as[inside]).all(), (seed, i, j)
                assert np.abs(cut.probs.sum(axis=1) - 1.0).max() <= 1e-12, (seed, i, j)
                assert cut.edges.sum() == sum(len(row) for s in cone for row in m.trans[s])
                got = check_members(cut, members)
                want = full.values[:, i, j]
                inf = np.isinf(want)
                assert (np.isinf(got.values[:, i, j]) == inf).all(), (seed, i, j)
                assert np.abs(got.values[~inf, i, j] - want[~inf]).max(initial=0.0) <= 1e-12
                if not isinstance((atom.left, atom.right)[1 - j], Query):
                    assert (got.truth[:, i] == full.truth[:, i]).all(), (seed, i, j)
                seen["sides"] += 1
                seen["reward"] += side.kind == "reward"
                seen["void"] += side.target == "void"
                seen["inf"] += inf.sum()
                seen["smaller"] += cut.num_states < m.num_states
        seen["two_slots"] += spec.n_controllers == 2
        if m.has_rewards:
            mcs = [impose(m, induce(space, members[0], i)) for i in range(spec.n_controllers)]
            seen["zero_cycles"] += any(
                _zero_reward_cycle(mc, mc.target(name)) for mc in mcs for name in m.label_names()
            )
    assert seen["sides"] > 4000 and seen["smaller"] > 1000 and seen["inf"] > 10_000
    assert seen["reward"] > 1500 and seen["void"] > 1000
    assert seen["two_slots"] > 30 and seen["zero_cycles"] > 40


def test_restriction_keeps_the_groups_its_sides_read():
    # thread-scheduling 4/8's two sides read one query from disjoint cones
    # of 10 and 6 states; each keeps the query's group and its own side,
    # renumbered, and keeping no side keeps no state and no group
    m, spec = generate("thread-scheduling", h1=4, h2=8)
    space = build_parameter_space(m, spec.n_controllers, spec.constraints)
    compiled = compile_model(m, space, instantiate(spec, m))
    atom = compiled.formula.atoms[0]
    assert compiled.num_states == 15 and len(compiled.plan) == 1
    members = np.array(list(islice(product(*space.domains), 40)), dtype=np.intp)
    full = check_members(compiled, members)
    for j, states in ((0, 10), (1, 6)):
        keep = np.zeros((1, 2), dtype=bool)
        keep[0, j] = True
        cut = restrict_to_cones(compiled, keep)
        side = (cut.formula.atoms[0].left, cut.formula.atoms[0].right)
        assert cut.num_states == states and len(cut.plan) == 1
        assert side[j].state == sorted(_cone(m, (atom.left, atom.right)[j].state)).index(
            (atom.left, atom.right)[j].state
        )
        assert np.isnan(side[1 - j])
        got = check_members(cut, members)
        assert np.isnan(got.values[:, 0, 1 - j]).all()
        assert np.abs(got.values[:, 0, j] - full.values[:, 0, j]).max() <= 1e-12
    before = solve_count()
    cut = restrict_to_cones(compiled, np.zeros((1, 2), dtype=bool))
    assert cut.num_states == 0 and cut.plan == ()
    assert np.isnan(check_members(cut, members[:1]).values).all()
    assert solve_count() == before


def test_check_members_of_an_empty_batch():
    m, spec = generate("timing-attack", n=2)
    space = build_parameter_space(m, spec.n_controllers, spec.constraints)
    formula = instantiate(spec, m)
    before = solve_count()
    got = check_members(compile_model(m, space, formula), [])
    assert solve_count() == before
    atoms = len(formula.atoms)
    assert got.holds.shape == (0,) and got.values.shape == (0, atoms, 2)
    assert got.truth.shape == (0, atoms)


def test_check_members_reward_query_needs_rewards():
    m, spec = random_instance(3, rewards=False)
    space = build_parameter_space(m, spec.n_controllers, spec.constraints)
    formula = InstantiatedFormula((Atom(Query("reward", 0, 0, m.label_names()[0]), 1.0),), ("atom", 0))
    real = next(product(*space.domains))
    with pytest.raises(MissingRewardsError):
        check_mc([impose(m, induce(space, real, 0))], formula)
    with pytest.raises(MissingRewardsError):
        check_members(compile_model(m, space, formula), [real])


def test_compile_model_rejects_a_label_the_model_lacks():
    # the formula is compiled with the model, so a query on a missing label
    # fails there, before any member is checked
    m, spec = generate("timing-attack", n=2)
    space = build_parameter_space(m, spec.n_controllers, spec.constraints)
    formula = instantiate(spec, m)
    missing = Atom(Query("reach", 0, 0, "nowhere"), 0.5)
    formula = InstantiatedFormula(formula.atoms + (missing,), formula.root)
    before = solve_count()
    with pytest.raises(ModelError, match="unknown label 'nowhere'"):
        compile_model(m, space, formula)
    assert solve_count() == before


def test_solve_count_counts_each_solve_call_in_its_own_thread():
    mc = _chain([[(1, 0.5), (2, 0.5)], [(0, 0.5), (2, 0.5)], [(2, 1.0)]], labels={"goal": (2,)})
    before = solve_count()
    reach_probs(mc, mc.target("goal"))  # states 0 and 1 in one solve
    assert solve_count() == before + 1
    reach_probs(mc, frozenset({0, 1, 2}))  # nothing left to solve
    assert solve_count() == before + 1
    # another thread's solves stay out of this thread's count
    seen = []

    def other():
        seen.append(solve_count())
        reach_probs(mc, mc.target("goal"))
        seen.append(solve_count())

    worker = threading.Thread(target=other)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert seen == [0, 1] and solve_count() == before + 1


# ---------------------------------------------------------------------------
# query groups: closed, disjoint reach targets share one solve


def _sinks_model():
    """Absorbing sinks 4, 5 and 6 (labels D, A and B), a trap 9 in no
    label, and state 7 (label leak), which steps into A.  State 2 can reach
    B, and under its second action the trap, but never A or D.  AL, A plus
    state 7, is closed and overlaps A: solved together, state 7 would get 0
    for A."""

    trans = [
        [[(1, 0.5), (2, 0.5)], [(3, 0.25), (8, 0.75)]],
        [[(5, 0.25), (6, 0.75)], [(1, 0.5), (5, 0.5)]],
        [[(6, 1.0)], [(2, 0.5), (6, 0.25), (9, 0.25)]],
        [[(7, 0.5), (0, 0.5)]],
        [[(4, 1.0)]],
        [[(5, 1.0)]],
        [[(6, 1.0)]],
        [[(5, 1.0)]],
        [[(4, 0.5), (8, 0.25), (2, 0.25)], [(8, 0.5), (0, 0.5)]],
        [[(9, 1.0)]],
    ]
    rewards = [[1.0] * len(menu) for menu in trans]
    labels = {"A": (5,), "B": (6,), "D": (4,), "leak": (7,), "AL": (5, 7)}
    return make_mdp(trans, labels=labels, rewards=rewards)


def _reach_formula(m, slots, labels, reward=None):
    """One reach atom per slot, state and label, plus one reward atom per
    slot when a reward target is named."""

    atoms = [
        Atom(Query("reach", slot, s, label), 0.5)
        for slot in slots
        for s in range(m.num_states)
        for label in labels
    ]
    if reward is not None:
        atoms += [Atom(Query("reward", slot, 0, reward), 4.0) for slot in slots]
    return InstantiatedFormula(tuple(atoms), ("and", tuple(("atom", i) for i in range(len(atoms)))))


@pytest.mark.parametrize(
    "labels, reward, groups",
    [
        # disjoint closed sinks: one group per slot
        (("A", "B", "D"), None, [("A", "B", "D")]),
        # a target with a leaving action is solved on its own
        (("A", "leak", "B"), None, [("A", "B"), ("leak",)]),
        # AL overlaps A, so neither joins B and D
        (("A", "B", "AL", "D"), None, [("B", "D"), ("A",), ("AL",)]),
        # a reward query keeps its own solve
        (("A", "B"), "D", [("A", "B"), ("D",)]),
    ],
)
def test_check_members_groups_closed_disjoint_targets(labels, reward, groups):
    m = _sinks_model()
    space = build_parameter_space(m, 2, ())
    formula = _reach_formula(m, (0, 1), labels, reward)
    compiled = compile_model(m, space, formula)
    assert sorted({group.targets for group in compiled.plan}) == sorted(groups)
    plan = {(g.kind, g.slot, t): g for g in compiled.plan for t in g.targets}
    members = list(product(*space.domains))
    before = solve_count()
    got = check_members(compiled, members)
    assert solve_count() - before == compiled.solves == 2 * len(groups)
    partial = 0
    for b, real in enumerate(members):
        mcs = [impose(m, induce(space, real, i)) for i in range(2)]
        exact = {
            key: (reach_probs_exact if key[0] == "reach" else expected_reward_exact)(
                mcs[key[1]], mcs[key[1]].target(key[2])
            )
            for key in plan
        }
        for i, atom in enumerate(formula.atoms):
            q, value = atom.left, got.values[b, i, 0]
            want = exact[q.kind, q.slot, q.target][q.state]
            if want is None:
                assert value == INF, (real, atom)
            elif want == 0:
                assert value == 0.0, (real, atom)  # exactly, not rounding noise
                # the state reaches another target of its group
                targets = plan[q.kind, q.slot, q.target].targets
                partial += any(exact[q.kind, q.slot, t][q.state] > 0 for t in targets)
            else:
                assert abs(value - float(want)) <= 1e-12, (real, atom)
    assert partial > 0


def test_check_members_keep_exact_zeros_on_random_multi_sink_models():
    # in one solve of several sinks, a state that reaches some of them but
    # not another comes out of the solve with rounding noise for that one
    zeros = 0
    for seed in range(30):
        m, _ = multi_sink_instance(seed)
        space = build_parameter_space(m, 1, ())
        formula = _reach_formula(m, (0,), m.label_names())
        compiled = compile_model(m, space, formula)
        assert compiled.solves == 1
        members = list(product(*space.domains))
        got = check_members(compiled, members).values[:, :, 0]
        for b, real in enumerate(members):
            mc = impose(m, induce(space, real, 0))
            exact = {name: reach_probs_exact(mc, mc.target(name)) for name in m.label_names()}
            want = np.array([float(exact[atom.left.target][atom.left.state]) for atom in formula.atoms])
            assert (got[b][want == 0] == 0.0).all(), (seed, real)
            assert np.abs(got[b] - want).max() <= 1e-12, (seed, real)
            zeros += (want == 0).sum()
    assert zeros > 1000


def test_cone_classes_are_the_varying_classes_each_side_reaches():
    # thread-scheduling 4/8: the chain from state 0 decides at states 0-3,
    # the chain from state 5 at states 5-12; the chain ends and the shared
    # abort state have one action each
    m, spec = generate("thread-scheduling", h1=4, h2=8)
    space = build_parameter_space(m, spec.n_controllers, spec.constraints)
    cones = cone_classes(compile_model(m, space, instantiate(spec, m)))
    assert cones == {
        (0, 0): [space.class_index(0, s) for s in range(4)],
        (0, 5): [space.class_index(0, s) for s in range(5, 13)],
    }
