import random

from hypersynth import Controller, build_parameter_space, impose, reach_probs, root_node
from hypersynth import counterexamples
from hypersynth.analysis import GUARD_BAND, _chain_rows, extremal_reach, row_table
from hypersynth.counterexamples import (
    CeSide,
    complement_boxes,
    conflict_classes,
    deflated_reach,
    grow_conflict,
)
from hypersynth.exact import reach_probs_exact
from hypersynth.model import Mc, Mdp

from conftest import dyadic_row, notes_example, random_model


def _full_deflated(mc, keep, weights):
    """The deflated chain over every state: kept states keep their rows,
    every other state s goes to top (state n) with its clipped weight and
    to bottom (state n + 1) with the rest."""

    n = mc.num_states
    rows = []
    for s in range(n):
        if s in keep:
            rows.append(mc.trans[s])
            continue
        g = min(max(weights[s], 0.0), 1.0)
        rows.append(tuple((t, p) for t, p in ((n, g), (n + 1, 1.0 - g)) if p > 0))
    rows += [((n, 1.0),), ((n + 1, 1.0),)]
    return Mc(n + 2, tuple(rows))


def _full_deflated_reach(mc, keep, weights, target, root):
    n = mc.num_states
    return float(reach_probs(_full_deflated(mc, keep, weights), frozenset(target) | {n})[root])


def _rows(mc):
    """The chain's row table, as a model with one action per state, which
    the choice (0,) * n picks."""

    return row_table(Mdp(mc.num_states, tuple((row,) for row in mc.trans)))


def _random_chain(rng, n):
    """A chain with some absorbing states, so that closed classes missing
    the target come up."""

    rows = [((s, 1.0),) if rng.random() < 0.2 else tuple(dyadic_row(rng, n)) for s in range(n)]
    return Mc(n, tuple(rows))


def test_deflated_reach_matches_the_full_deflated_chain():
    rng = random.Random(11)
    seen = {"weight 0": 0, "weight 1": 0, "weight between": 0,
            "closed class in C": 0, "root in target": 0, "unkept root": 0}
    for _ in range(400):
        n = rng.randint(2, 8)
        mc = _random_chain(rng, n)
        target = frozenset(rng.sample(range(n), rng.randint(0, n // 2)))
        keep = frozenset(rng.sample(range(n), rng.randint(0, n)))
        weights = tuple(
            rng.choice((0.0, 1.0, -0.25, 1.5, rng.random(), rng.random())) for _ in range(n)
        )
        root = rng.randrange(n)
        got = deflated_reach(_rows(mc), (0,) * n, keep, weights, target, root)
        want = _full_deflated_reach(mc, keep, weights, target, root)
        assert abs(got - want) <= 1e-12, (mc, keep, weights, target, root)

        unkept = [min(max(w, 0.0), 1.0) for s, w in enumerate(weights) if s not in keep]
        seen["weight 0"] += 0.0 in unkept
        seen["weight 1"] += 1.0 in unkept
        seen["weight between"] += any(0.0 < w < 1.0 for w in unkept)
        inside = keep - target
        rows, only = _chain_rows(mc), (0,) * n
        seen["closed class in C"] += any(set(rows.reachable(only, s)) <= inside for s in inside)
        seen["root in target"] += root in target
        seen["unkept root"] += root not in keep and root not in target
    assert min(seen.values()) >= 20, seen


def test_repeated_successors_match_the_exact_values():
    # a row that lists a successor twice reaches it once: the successor
    # masks must or the bits, as summing them would set the next state's
    mc = Mc(3, (((1, 0.25), (2, 0.5), (1, 0.25)), ((1, 1.0),), ((2, 1.0),)))
    want = [float(x) for x in reach_probs_exact(mc, {1})]
    assert reach_probs(mc, {1}).tolist() == want == [0.5, 1.0, 0.0]
    # both unkept successors of the kept state are worth their weight, and
    # in the full deflated chain each sends an edge to top and one to bottom
    mc = Mc(3, (((0, 0.5), (1, 0.25), (2, 0.25)), ((1, 1.0),), ((2, 1.0),)))
    weights = (0.0, 0.5, 0.75)
    got = deflated_reach(_rows(mc), (0, 0, 0), {0}, weights, frozenset(), 0)
    want = reach_probs_exact(_full_deflated(mc, {0}, weights), {3})[0]
    assert got == float(want) == 0.625


def test_deflation_brackets_member_value():
    # with the node's extremal vectors as exit weights, the deflated value
    # brackets the true value from the matching side, for any kept set
    rng = random.Random(3)
    for _ in range(60):
        m = random_model(rng, max_states=6)
        target = m.target("goal")
        lo = extremal_reach(m, target, "min").values
        hi = extremal_reach(m, target, "max").values
        ctrl = Controller(tuple(rng.randrange(m.num_actions(s)) for s in range(m.num_states)))
        true = reach_probs(impose(m, ctrl), target)
        root = rng.randrange(m.num_states)
        keep = frozenset(rng.sample(range(m.num_states), rng.randint(0, m.num_states - 1)))
        rows = row_table(m)
        below = deflated_reach(rows, ctrl.choices, keep, tuple(lo), target, root)
        above = deflated_reach(rows, ctrl.choices, keep, tuple(hi), target, root)
        assert below <= true[root] + 1e-9
        assert above >= true[root] - 1e-9


def test_grow_conflict_on_worked_example():
    m, spec = notes_example()
    space = build_parameter_space(m, 1, spec.constraints)
    node = root_node(space)
    lo = extremal_reach(m, m.target("target"), "min").values
    # the member choosing action 0 everywhere violates at state 0: 0.7 > 0.6
    left = CeSide(row_table(m), (0, 0, 0, 0), 0, frozenset({2}), tuple(lo))
    got = grow_conflict(left, 0.6, 0.0)
    assert got is not None
    keep_left, keep_right = got
    # the violation is certified by the choice at state 0 alone: dropping
    # everything else still pushes the value above 0.6
    assert keep_left == frozenset({0})
    assert keep_right == frozenset()
    # and the matching classes name exactly the state-0 choice
    ks = conflict_classes(space, node, 0, keep_left, None, keep_right)
    assert ks == (space.class_index(0, 0),)


def test_grow_conflict_gives_up_without_certificate():
    m, _ = notes_example()
    lo = extremal_reach(m, m.target("target"), "min").values
    # the member choosing (1, 1, 0, 0) satisfies: 0.4 <= 0.6
    left = CeSide(row_table(m), (1, 1, 0, 0), 0, frozenset({2}), tuple(lo))
    got = grow_conflict(left, 0.6, 0.0)
    assert got is None


def _reference_growth(m, left, right, offset):
    """grow_conflict as first written, on the member chains imposed on m:
    both sides re-solved on the full deflated chain after every step."""

    keeps = [set(), set()]
    mcs = [impose(m, Controller(side.choice)) for side in (left, right)]
    act_counts = [m.num_actions(s) for s in range(m.num_states)]

    def value(pos):
        side = (left, right)[pos]
        return _full_deflated_reach(mcs[pos], keeps[pos], side.exit_weights, side.target, side.root)

    while not value(0) > value(1) + offset + GUARD_BAND:
        best = None
        for pos, side in enumerate((left, right)):
            frontier = {side.root} | {t for s in keeps[pos] for t, _ in mcs[pos].trans[s]}
            for s in frontier - keeps[pos]:
                key = (act_counts[s], s, pos)
                if best is None or key < best[0]:
                    best = (key, pos, s)
        if best is None:
            return None
        keeps[best[1]].add(best[2])
    return frozenset(keeps[0]), frozenset(keeps[1])


def test_grow_conflict_solves_once_per_step(monkeypatch):
    # two solves to start, then one per state added: only the grown side
    # is solved again; kept sets match re-solving both sides every step
    solves = []
    solve = counterexamples.deflated_reach

    def counted(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(counterexamples, "deflated_reach", counted)
    rng = random.Random(5)
    certified = given_up = 0
    for _ in range(150):
        m = random_model(rng, max_states=7)
        target = m.target("goal")
        lo = tuple(extremal_reach(m, m.target("goal"), "min").values)
        hi = tuple(extremal_reach(m, m.target("goal"), "max").values)
        rows = row_table(m)
        sides = []
        for weights in (lo, hi):
            choice = tuple(rng.randrange(m.num_actions(s)) for s in range(m.num_states))
            sides.append(CeSide(rows, choice, rng.randrange(m.num_states), target, weights))
        offset = rng.choice((-0.5, -0.1, 0.0, 0.1))
        solves.clear()
        got = grow_conflict(sides[0], sides[1], offset)
        assert got == _reference_growth(m, sides[0], sides[1], offset)
        if got is None:
            # gave up with both reachable parts kept
            only = (0,) * m.num_states
            steps = sum(
                len(_chain_rows(impose(m, Controller(side.choice))).reachable(only, side.root))
                for side in sides
            )
            given_up += 1
        else:
            steps = len(got[0]) + len(got[1])
            certified += 1
        assert len(solves) == 2 + steps
    assert certified >= 20 and given_up >= 20, (certified, given_up)


def test_complement_boxes_partition_counts():
    rng = random.Random(17)
    for _ in range(200):
        m = random_model(rng)
        space = build_parameter_space(m, rng.randint(1, 2))
        node = root_node(space)
        for k in range(space.n_classes):
            if len(node.domain(k)) > 1 and rng.random() < 0.25:
                keep = sorted(rng.sample(node.domain(k), rng.randint(1, len(node.domain(k)))))
                node = node.with_domain(k, tuple(keep))
        real = tuple(rng.choice(node.domain(k)) for k in range(space.n_classes))
        pool = [k for k in range(space.n_classes) if len(node.domain(k)) > 1]
        classes = tuple(sorted(rng.sample(pool, min(len(pool), rng.randint(0, 3)))))
        agree, rest = complement_boxes(node, real, classes)
        # the agreeing box plus the complements tile the node exactly
        assert agree.size() + sum(b.size() for b in rest) == node.size()
        assert agree.contains(real)
        assert not any(b.contains(real) for b in rest)
        for _ in range(10):
            sample = tuple(rng.choice(node.domain(k)) for k in range(space.n_classes))
            hits = agree.contains(sample) + sum(b.contains(sample) for b in rest)
            assert hits == 1


def test_scalar_sides_pass_through():
    m, _ = notes_example()
    space = build_parameter_space(m, 1)
    node = root_node(space)
    ks = conflict_classes(space, node, None, None, None, None)
    assert ks == ()
    agree, rest = complement_boxes(node, node.first_realisation(), ())
    assert agree.size() == node.size() and rest == []
