"""Shared fixtures and random instance generators.

Random models use dyadic probabilities (integer numerators over a power of
two) so float rows sum to exactly 1.0; the text writers then round-trip
bit for bit.  Sizes stay small enough that brute-force enumeration over
the controller family is cheap, which the synthesis tests lean on.
"""

from __future__ import annotations

import random

import pytest

from hypersynth import make_mdp, parse_spec
from hypersynth.specs import (
    HyperSpec,
    Obs,
    Quantifier,
    Same,
    SpecAtom,
    SpecQuery,
)

# ---------------------------------------------------------------------------
# the worked four-state example used across the suite


def notes_example():
    """Two decision states feeding a target and a sink.  Action a is the
    greedy risky choice, b the safe one; only (b, b) keeps both initial
    states at probability <= 0.6."""

    m = make_mdp(
        [
            [[(2, 0.7), (3, 0.3)], [(2, 0.4), (3, 0.6)]],
            [[(2, 0.65), (3, 0.35)], [(2, 0.5), (3, 0.5)]],
            [[(2, 1.0)]],
            [[(3, 1.0)]],
        ],
        labels={"target": (2,)},
        action_names=[["a", "b"], ["a", "b"], [None], [None]],
    )
    spec = parse_spec(
        "exists sigma : forall s in {0, 1} [sigma] : P(s, F target) <= 0.6"
    )
    return m, spec


def binary_family(k: int):
    """An MDP whose family lists its members in the order of their value.

    State 0 enters decision state 1 + i with probability 2**-(i + 1) and the
    sink with the rest; action 1 of a decision state goes to the target,
    action 0 to the sink.  Decision state 1 is the most significant class, so
    the member with lexicographic index j reaches the target from state 0
    with probability exactly j / 2**k.
    """

    target, sink = k + 1, k + 2
    trans = [[[(1 + i, 2.0 ** -(i + 1)) for i in range(k)] + [(sink, 2.0**-k)]]]
    trans += [[[(sink, 1.0)], [(target, 1.0)]] for _ in range(k)]
    trans += [[[(target, 1.0)]], [[(sink, 1.0)]]]
    return make_mdp(trans, labels={"target": (target,)})


def binary_spec(threshold: float):
    """Members of binary_family satisfy this when their value is at least
    the threshold."""

    return parse_spec(f"exists sigma : forall s in {{0}} [sigma] : P(s, F target) >= {threshold!r}")


@pytest.fixture
def notes_mdp():
    return notes_example()[0]


@pytest.fixture
def notes_spec():
    return notes_example()[1]


# ---------------------------------------------------------------------------
# random instances


def dyadic_row(rng: random.Random, n: int, max_support: int = 3):
    """A distribution over up to max_support states whose float values sum
    to exactly 1.0 (all are multiples of 1/16)."""

    support = rng.sample(range(n), rng.randint(1, min(max_support, n)))
    denom = 16
    cuts = sorted(rng.sample(range(1, denom), len(support) - 1))
    weights = [b - a for a, b in zip([0] + cuts, cuts + [denom])]
    return sorted((s, w / denom) for s, w in zip(support, weights))


def random_model(
    rng: random.Random,
    max_states: int = 8,
    max_actions: int = 3,
    max_multi: int = 3,
    rewards: bool | None = None,
):
    n = rng.randint(3, max_states)
    n_multi = rng.randint(1, max_multi)
    multi = set(rng.sample(range(n), min(n, n_multi)))
    trans = []
    for s in range(n):
        k = rng.randint(2, max_actions) if s in multi else 1
        trans.append([dyadic_row(rng, n) for _ in range(k)])

    labels = {}
    for name in ("goal", "mark")[: rng.randint(1, 2)]:
        labels[name] = tuple(
            sorted(rng.sample(range(n), rng.randint(1, max(1, n // 2))))
        )

    if rewards is None:
        rewards = rng.random() < 0.4
    rew = None
    if rewards:
        rew = {
            (s, a): rng.randint(0, 8) / 4.0
            for s in range(n)
            for a in range(len(trans[s]))
        }

    names = None
    if rng.random() < 0.5:
        names = [
            [f"act{a}" if len(trans[s]) > 1 else None for a in range(len(trans[s]))]
            for s in range(n)
        ]
    return make_mdp(trans, labels=labels, rewards=rew, action_names=names)


def _random_atom(rng: random.Random, m, variables):
    kind = "reward" if (m.has_rewards and rng.random() < 0.3) else "reach"
    labels = sorted(m.label_names())
    left = SpecQuery(kind, rng.choice(variables), rng.choice(labels))
    rel = rng.choice(("<", "<=", "=", ">=", ">"))
    if rng.random() < 0.5:
        right = SpecQuery(kind, rng.choice(variables), rng.choice(labels))
    elif kind == "reach":
        right = rng.randint(0, 16) / 16.0
    else:
        right = rng.randint(0, 24) / 4.0
    eps = None
    if rel == "=" and rng.random() < 0.5:
        eps = rng.choice((0.01, 0.05, 0.1))
    return ("atom", SpecAtom(left, rel, right, eps))


def _random_formula(rng: random.Random, m, variables, depth: int = 0):
    r = rng.random()
    if depth >= 2 or r < 0.45:
        node = _random_atom(rng, m, variables)
    else:
        op = "and" if r < 0.75 else "or"
        kids = tuple(
            _random_formula(rng, m, variables, depth + 1)
            for _ in range(rng.randint(2, 3))
        )
        node = (op, kids)
    if rng.random() < 0.25:
        node = ("not", node)
    return node


def random_spec(rng: random.Random, m, max_controllers: int = 2) -> HyperSpec:
    n_ctrl = rng.randint(1, max_controllers)
    names = tuple(f"c{i}" for i in range(n_ctrl))

    constraints = []
    if rng.random() < 0.3:
        if n_ctrl == 2 and rng.random() < 0.5:
            constraints.append(Same(rng.randrange(m.num_states), (0, 1)))
        else:
            by_menu: dict[int, list[int]] = {}
            for s in range(m.num_states):
                by_menu.setdefault(m.num_actions(s), []).append(s)
            pools = [v for v in by_menu.values() if len(v) >= 2]
            if pools:
                pool = rng.choice(pools)
                states = tuple(sorted(rng.sample(pool, 2)))
                constraints.append(Obs(states, rng.randrange(n_ctrl)))

    quants = []
    variables = []
    for i in range(n_ctrl):
        var = f"s{i + 1}"
        variables.append(var)
        domain = tuple(
            sorted(rng.sample(range(m.num_states), rng.randint(1, 2)))
        )
        quants.append(
            Quantifier(rng.choice(("forall", "exists")), var, domain, i)
        )

    formula = _random_formula(rng, m, variables)
    return HyperSpec(names, tuple(constraints), tuple(quants), formula)


def random_instance(seed: int, rewards: bool | None = None, max_controllers: int = 2):
    rng = random.Random(seed)
    m = random_model(rng, rewards=rewards)
    spec = random_spec(rng, m, max_controllers=max_controllers)
    return m, spec


def multi_sink_instance(seed: int, sinks: int = 3):
    """A random model whose last states are absorbing sinks, each the only
    state of its label d0, d1, ...: closed, pairwise disjoint reach targets,
    as knuth-yao-pc's die outcomes are.  The spec compares reaching them
    from states 0 and 1 under one controller, with thresholds drawn from
    the seed."""

    rng = random.Random(70_000 + seed)
    n = rng.randint(2, 5) + sinks
    trans = [[dyadic_row(rng, n) for _ in range(rng.randint(1, 3))] for _ in range(n - sinks)]
    trans += [[[(s, 1.0)]] for s in range(n - sinks, n)]
    m = make_mdp(trans, labels={f"d{i}": (n - sinks + i,) for i in range(sinks)})
    low, high = rng.choice((0.125, 0.25, 0.375)), rng.choice((0.25, 0.5, 0.625))
    spec = parse_spec(
        "exists sigma : forall s1 in {0} [sigma], forall s2 in {1} [sigma] : "
        f"P(s1, F d0) >= {low} & P(s2, F d1) <= {high} "
        f"& P(s1, F d2) = P(s2, F d2) ~{rng.choice((0.0625, 0.125))}"
    )
    return m, spec


def two_cone_instance(seed: int, controllers: int = 1, tie: bool = False):
    """Two disjoint random sub-models under one quantified pair of states.

    Sub-model A holds states 0 .. a-1 and B the rest; no row of one enters
    the other, and action 0 of every state but the last of its sub-model
    enters the next state, so each sub-model lies in the cone of its first
    state.  The spec quantifies s1 over {0} and s2 over {a}, s1 on the
    first controller and s2 on the last, under a random formula and an
    atom comparing the two.
    With one controller the two cones share no class, and with two each
    controller's classes in the other sub-model are free.  tie makes both
    first states decision states with two actions and ties their classes:
    by obs({0, a}, c0) with one controller, and with two by same(0, {c0,
    c1}) and obs({0, a}, c1), so that the cones form one factor."""

    rng = random.Random(90_000 + seed)
    sizes = (rng.randint(2, 4), rng.randint(2, 4))
    trans = []
    base = 0
    for n in sizes:
        multi = set(rng.sample(range(n), rng.randint(1, 2)))
        if tie:
            multi.add(0)
        for s in range(n):
            k = rng.randint(2, 3) if s in multi else 1
            if tie and s == 0:
                k = 2
            rows = []
            for a in range(k):
                row = dict((base + t, p) for t, p in dyadic_row(rng, n))
                if a == 0 and s + 1 < n and base + s + 1 not in row:
                    row = {t: p / 2 for t, p in row.items()}
                    row[base + s + 1] = row.get(base + s + 1, 0.0) + 0.5
                rows.append(sorted(row.items()))
            trans.append(rows)
        base += n
    total = len(trans)
    labels = {
        name: tuple(sorted(rng.sample(range(total), rng.randint(1, total // 2))))
        for name in ("goal", "mark")
    }
    rewards = None
    if rng.random() < 0.4:
        rewards = {(s, a): rng.randint(0, 8) / 4.0 for s in range(total) for a in range(len(trans[s]))}
    m = make_mdp(trans, labels=labels, rewards=rewards)

    a = sizes[0]
    last = controllers - 1
    constraints = []
    if tie and controllers == 1:
        constraints.append(Obs((0, a), 0))
    elif tie:
        constraints += [Same(0, (0, 1)), Obs((0, a), 1)]
    quants = (
        Quantifier(rng.choice(("forall", "exists")), "s1", (0,), 0),
        Quantifier(rng.choice(("forall", "exists")), "s2", (a,), last),
    )
    kind = "reward" if rewards and rng.random() < 0.3 else "reach"
    across = SpecAtom(
        SpecQuery(kind, "s1", rng.choice(("goal", "mark"))),
        rng.choice(("<", "<=", "=", ">=", ">")),
        SpecQuery(kind, "s2", rng.choice(("goal", "mark"))),
        None,
    )
    formula = (rng.choice(("and", "or")), (("atom", across), _random_formula(rng, m, ["s1", "s2"])))
    names = tuple(f"c{i}" for i in range(controllers))
    return m, HyperSpec(names, tuple(constraints), quants, formula)
