"""End-to-end acceptance checks.

One test per pinned criterion, each with its tolerance stated inline.
These are deliberately heavier than the unit suites: they sweep random
instances, cross-check the engine against brute force, and pin the
behaviour of the shipped benchmark generators.
"""

from __future__ import annotations

import random
import time

from hypersynth import (
    Controller,
    ParseError,
    SpecError,
    check_mc,
    expected_reward,
    extremal_reach,
    generate,
    impose,
    instantiate,
    lift_spec_memory,
    make_mdp,
    parse_model,
    parse_spec,
    reach_probs,
    synthesize,
    unfold_memory,
    write_model,
    write_spec,
)
from hypersynth.analysis import GUARD_BAND, row_table
from hypersynth.counterexamples import complement_boxes, deflated_reach
from hypersynth.family import (
    build_parameter_space,
    induce,
    root_node,
    split_node,
)
from hypersynth.formulas import Query
from hypersynth.synthesis import AtomVerdict, NodeAnalyzer, _Synthesizer

from conftest import random_instance, random_model

SIXTH = 1.0 / 6.0


def _narrow(rng: random.Random, node):
    """Shrink a random selection of class domains, keeping all nonempty."""

    for k in range(node.space.n_classes):
        dom = node.domain(k)
        if len(dom) > 1 and rng.random() < 0.4:
            keep = sorted(rng.sample(dom, rng.randint(1, len(dom))))
            node = node.with_domain(k, tuple(keep))
    return node


def _random_member(rng: random.Random, node):
    return tuple(rng.choice(node.domain(k)) for k in range(node.space.n_classes))


def _side_value(m, mcs, side):
    if not isinstance(side, Query):
        return float(side)
    mc = mcs[side.slot]
    tgt = m.target(side.target)
    vec = reach_probs(mc, tgt) if side.kind == "reach" else expected_reward(mc, tgt)
    return float(vec[side.state])


# -- criterion 1: dice construction reproduces the fair die ---------------


def test_c01_knuth_yao_die_values():
    """The textbook coin-flip controller yields 1/6 per face, within 1e-6,
    and the whole check runs in under a second."""

    t0 = time.perf_counter()
    m, spec = generate("knuth-yao-pc")

    def ordinal(state: int, name: str) -> int:
        for a in range(m.num_actions(state)):
            if m.action_name(state, a) == name:
                return a
        raise AssertionError(f"no action {name!r} at state {state}")

    choices = [0] * m.num_states
    choices[7] = ordinal(7, "pair_8_9")
    choices[8] = ordinal(8, "pair_10_11")
    mc = impose(m, Controller(tuple(choices)))

    for k in range(1, 7):
        tgt = m.target(f"die{k}")
        v_die = reach_probs(mc, tgt)
        # state 0 roots the fixed die chain, state 7 the controllable one
        assert abs(float(v_die[0]) - SIXTH) <= 1e-6, (k, float(v_die[0]))
        assert abs(float(v_die[7]) - SIXTH) <= 1e-6, (k, float(v_die[7]))

    # the controller also satisfies the shipped equality spec
    formula = instantiate(spec, m)
    assert check_mc([mc], formula).holds
    assert time.perf_counter() - t0 < 1.0


# -- criterion 2: benchmark family sizes are exact -------------------------


def test_c02_benchmark_family_sizes():
    m0, s0 = generate("knuth-yao-pc", n=0)
    sp0 = build_parameter_space(m0, s0.n_controllers, s0.constraints)
    assert m0.num_states == 20
    assert sp0.family_size() == 156  # 78 pair choices x 2 at the second stage

    m1, s1 = generate("knuth-yao-pc", n=1)
    sp1 = build_parameter_space(m1, s1.n_controllers, s1.constraints)
    assert sp1.family_size() == 6084  # 78^2

    mm, sm = generate("maze-sd")
    spm = build_parameter_space(mm, sm.n_controllers, sm.constraints)
    assert mm.num_states == 10
    assert spm.family_size() == 16384  # 4^7 compass choices


# -- criterion 3: pinned engine behaviour on the benchmarks ----------------


def test_c03_benchmark_engine_behaviour():
    # scheduling: the candidate boxes decide the root immediately
    m, spec = generate("thread-scheduling", h1=10, h2=20)
    out = synthesize(m, spec)
    assert out.feasible
    assert out.stats["iterations"] == 1

    # plain maze: no controller works, and the run accounts for every member
    m, spec = generate("maze-sd")
    out = synthesize(m, spec)
    assert out.verdict == "unfeasible"
    assert out.stats["explored_fraction"] == 1.0

    # dice: feasible well inside the time budget
    t0 = time.perf_counter()
    m, spec = generate("knuth-yao-pc")
    out = synthesize(m, spec)
    elapsed = time.perf_counter() - t0
    assert out.feasible
    assert elapsed < 60.0, elapsed


# -- criterion 4: methods agree on random instances ------------------------


def _box_members(box):
    import itertools

    return sorted(itertools.product(*box.domains))


def test_c04_methods_agree_on_random_instances(monkeypatch):
    """Refinement, hybrid pruning and brute force agree on at least 200
    random instances, in every mode: same verdicts, same satisfying sets,
    same best distances; feasible witnesses recheck exactly.

    On instances this small most boxes past the root are cheaper to settle
    by member checks than to analyse, so refinement and hybrid also run a
    second time ("ar/analyse", "hybrid/analyse") with that switch turned
    off, which keeps the interval analysis of every box under the test."""

    def solve(m, spec, meth, mode="feasibility"):
        method, _, analyse = meth.partition("/")
        if not analyse:
            return synthesize(m, spec, mode=mode, method=method)
        with monkeypatch.context() as mp:
            mp.setattr("hypersynth.synthesis.cheaper_to_enumerate", lambda *costs: False)
            out = synthesize(m, spec, mode=mode, method=method)
        assert out.stats["enumerated_members"] == 0
        return out

    methods = ("oracle", "ar", "hybrid", "ar/analyse", "hybrid/analyse")
    checked = feasible = optimal_checked = switched = 0
    for seed in range(50_000, 50_400):
        if checked >= 200:
            break
        m, spec = random_instance(seed, rewards=(seed % 3 == 0))
        outs = {meth: solve(m, spec, meth) for meth in methods}
        switched += outs["ar"].stats["enumerated_members"]
        verdicts = {o.verdict for o in outs.values()}
        assert len(verdicts) == 1, (seed, {k: o.verdict for k, o in outs.items()})
        checked += 1

        formula = instantiate(spec, m)
        space = build_parameter_space(m, spec.n_controllers, spec.constraints)
        if outs["oracle"].feasible:
            feasible += 1
            for meth, out in outs.items():
                real = out.realisation
                assert root_node(space).contains(real), (seed, meth)
                mcs = [
                    impose(m, induce(space, real, i))
                    for i in range(spec.n_controllers)
                ]
                assert check_mc(mcs, formula).holds, (seed, meth)

        # complete mode: identical satisfying sets, member for member
        members = {}
        for meth in methods:
            out = solve(m, spec, meth, "complete")
            flat = []
            for box in out.satisfying:
                flat.extend(_box_members(box))
            members[meth] = sorted(flat)
        for meth in methods:
            assert members[meth] == members["oracle"], (seed, meth)

        # optimal mode: same verdict and best distance where the spec has
        # the mirrored two-controller shape the objective needs
        try:
            opt = {meth: solve(m, spec, meth, "optimal") for meth in methods}
        except SpecError:
            continue
        assert len({o.verdict for o in opt.values()}) == 1, seed
        values = {o.optimal_value for o in opt.values()}
        assert len(values) == 1, (seed, values)
        if opt["oracle"].feasible:
            optimal_checked += 1

    assert checked >= 200
    assert feasible >= 10
    assert checked - feasible >= 10
    assert optimal_checked >= 10
    assert switched > 0  # the shipped runs did settle boxes by member checks


# -- criterion 5: interval bounds contain every member ----------------------


def test_c05_bounds_contain_member_values():
    """On 1000 sampled (box, member) pairs each query side's interval
    contains the member's exact value within the guard band; boxes ruled
    wholly unsatisfying contain no satisfying member."""

    rng = random.Random(515)
    pairs = unsat_checked = 0

    for seed in range(60_000, 60_400):
        if pairs >= 1000 and unsat_checked >= 10:
            break
        m, spec = random_instance(seed, rewards=(seed % 2 == 0))
        try:
            formula = instantiate(spec, m)
            space = build_parameter_space(m, spec.n_controllers, spec.constraints)
        except Exception:
            continue
        analyzer = NodeAnalyzer(m, space, formula)
        node = _narrow(rng, root_node(space))
        real = _random_member(rng, node)
        mcs = [impose(m, induce(space, real, i)) for i in range(spec.n_controllers)]

        bounds = analyzer.side_bounds(node)
        for i, atom in enumerate(formula.atoms):
            for side in (atom.left, atom.right):
                if not isinstance(side, Query):
                    continue
                lo, hi = bounds[side.kind, side.slot, side.target]
                lb = float(lo.values[side.state])
                ub = float(hi.values[side.state])
                v = _side_value(m, mcs, side)
                assert lb - GUARD_BAND <= v <= ub + GUARD_BAND, (seed, side, lb, v, ub)
                pairs += 1

            # every box ruled wholly unsatisfying gets 10 member rechecks
            verdict = analyzer.atom_verdict(bounds, i)
            if verdict.case == "allunsat":
                for _ in range(10):
                    member = _random_member(rng, node)
                    mem_mcs = [
                        impose(m, induce(space, member, j))
                        for j in range(spec.n_controllers)
                    ]
                    lv = _side_value(m, mem_mcs, atom.left)
                    rv = _side_value(m, mem_mcs, atom.right)
                    assert not atom.holds(lv, rv), (seed, i, lv, rv)
                unsat_checked += 1

    assert pairs >= 1000, pairs
    assert unsat_checked >= 10, unsat_checked


# -- criterion 6: splits and complements tile the box exactly ---------------


def test_c06_partition_laws():
    """1000 random splits and 1000 random member complements each
    partition the box: sizes add up and every member lands in one part."""

    rng = random.Random(606)
    splits = comps = 0
    while splits < 1000 or comps < 1000:
        m = random_model(rng)
        n_ctrl = rng.randint(1, 2)
        space = build_parameter_space(m, n_ctrl, ())
        node = _narrow(rng, root_node(space))
        wide = [k for k in range(space.n_classes) if len(node.domain(k)) > 1]

        if wide and splits < 1000:
            k = rng.choice(wide)
            dom = node.domain(k)
            acts = tuple(sorted(rng.sample(dom, rng.randint(1, len(dom)))))
            parts = split_node(node, k, acts)
            assert sum(p.size() for p in parts) == node.size()
            seen = []
            for p in parts:
                assert set(p.domain(k)) <= set(dom)
                seen.extend(p.domain(k))
                # no child may keep two of the conflicting actions open, so
                # the inconsistent assignment cannot survive the split
                assert len(set(p.domain(k)) & set(acts)) <= 1
            assert sorted(seen) == sorted(dom)  # disjoint cover of the class
            for _ in range(5):
                r = _random_member(rng, node)
                assert sum(p.contains(r) for p in parts) == 1
            splits += 1

        if comps < 1000:
            real = _random_member(rng, node)
            classes = tuple(
                sorted(rng.sample(range(space.n_classes),
                                  rng.randint(0, space.n_classes)))
            )
            agree, rest = complement_boxes(node, real, classes)
            assert agree.size() + sum(r.size() for r in rest) == node.size()
            assert agree.contains(real)
            assert not any(r.contains(real) for r in rest)
            for _ in range(5):
                r = _random_member(rng, node)
                hits = agree.contains(r) + sum(b.contains(r) for b in rest)
                assert hits == 1
            comps += 1


# -- criterion 7: splits take the widest conflict ----------------------------


def test_c07_split_takes_the_widest_conflict():
    """A conflicting box splits on the class its witnesses use the most
    actions on, the lowest class on ties, and a box without verdicts on its
    first class with two or more actions; on maze-sd checkpoint optimal
    that one split leaves 1,024 members to enumerate."""

    # s0 branches to s1 (two actions) and s2 (three actions)
    m = make_mdp(
        [
            [((1, 0.5), (2, 0.5))],
            [((3, 1.0),), ((4, 1.0),)],
            [((3, 1.0),), ((4, 1.0),), ((2, 1.0),)],
            [((3, 1.0),)],
            [((4, 1.0),)],
        ],
        labels={"goal": (3,)},
    )
    spec = parse_spec("exists c : forall s in {0} [c] : P(s, F goal) <= 1\n")
    engine = _Synthesizer(m, spec, "feasibility", "ar", None, None)
    space = engine.space
    k1, k2 = space.class_index(0, 1), space.class_index(0, 2)
    assert k1 < k2
    node = root_node(space)

    def split_on(conflicts):
        verdict = AtomVerdict(
            case="open", tag="0", left=(0.0, 1.0), right=(0.0, 1.0),
            conflict_actions=conflicts,
        )
        stack = []
        engine._split(node, stack, {0: verdict} if conflicts is not None else None)
        changed = {
            k for child in stack for k, dom in enumerate(child.domains)
            if dom != node.domains[k]
        }
        return changed, sorted(child.domains[min(changed)] for child in stack)

    # the widest conflict wins over a lower class index
    wide = AtomVerdict(
        "open", "0", (0.0, 1.0), (0.0, 1.0), conflict_actions={k1: (0, 1), k2: (0, 1, 2)},
    )
    assert engine.analyzer.score_conflicts(wide) == {k1: 2, k2: 3}
    assert split_on({k1: (0, 1), k2: (0, 1, 2)}) == ({k2}, [(0,), (1,), (2,)])
    # ties go to the lowest class index, whatever the order of the verdict
    assert split_on({k2: (0, 1), k1: (0, 1)}) == ({k1}, [(0,), (1,)])
    # without verdicts: the first class with two or more actions
    assert split_on(None) == ({k1}, [(0,), (1,)])
    assert engine.splits == 3

    mm, sm = generate("maze-sd", variant="checkpoint")
    for method in ("ar", "hybrid"):
        out = synthesize(mm, sm, mode="optimal", method=method)
        assert out.optimal_value == 3, method
        assert out.stats["splits"] == 1, method
        assert out.stats["enumerated_members"] == 1024, method


# -- criterion 8: deflation brackets the true value --------------------------


def test_c08_deflation_directions():
    """With per-state exit weights taken below (resp. above) every member's
    reach vector, deflating any member moves its value down (resp. up).
    500 random (box, member, kept-set) samples, slack 1e-10."""

    rng = random.Random(808)
    done = 0
    while done < 500:
        m = random_model(rng, max_states=6)
        space = build_parameter_space(m, 1, ())
        node = _narrow(rng, root_node(space))
        tgt = m.target("goal")

        members = set()
        budget = min(node.size(), 40)
        while len(members) < budget:
            members.add(_random_member(rng, node))
        vectors = []
        for r in sorted(members):
            mc = impose(m, induce(space, r, 0))
            vectors.append([float(x) for x in reach_probs(mc, tgt)])
        lo = [min(col) for col in zip(*vectors)]
        hi = [max(col) for col in zip(*vectors)]

        rows = row_table(m)
        for r in list(sorted(members))[:5]:
            ctrl = induce(space, r, 0)
            true = [float(x) for x in reach_probs(impose(m, ctrl), tgt)]
            keep = frozenset(
                rng.sample(range(m.num_states), rng.randrange(m.num_states))
            )
            root = rng.randrange(m.num_states)
            below = deflated_reach(rows, ctrl.choices, keep, lo, tgt, root)
            above = deflated_reach(rows, ctrl.choices, keep, hi, tgt, root)
            assert below <= true[root] + 1e-10, (below, true[root])
            assert above >= true[root] - 1e-10, (above, true[root])
            done += 1


# -- criterion 9: memory unfolding law and value invariance -------------------


def test_c09_memory_unfolding():
    """One added memory bit squares the family and multiplies by 4 per
    class; extremal reach at memory value 0 is unchanged within 1e-8."""

    rng = random.Random(909)
    for _ in range(15):
        m = random_model(rng, max_states=6)
        space = build_parameter_space(m, 1, ())
        mu = unfold_memory(m, 1)
        space_u = build_parameter_space(mu, 1, ())
        assert (
            space_u.family_size()
            == space.family_size() ** 2 * 4 ** space.n_classes
        )

        tgt = m.target("goal")
        tgt_u = mu.target("goal")
        for direction in ("min", "max"):
            base = extremal_reach(m, tgt, direction).values
            lifted = extremal_reach(mu, tgt_u, direction).values
            for s in range(m.num_states):
                assert abs(float(base[s]) - float(lifted[2 * s])) <= 1e-8

    # the shipped spec lifter keeps the checkpoint maze solvable and
    # reproduces the same law through the full pipeline
    m, spec = generate("maze-sd", variant="checkpoint")
    space = build_parameter_space(m, spec.n_controllers, spec.constraints)
    mu = unfold_memory(m, 1)
    spec_u = lift_spec_memory(spec, 1)
    space_u = build_parameter_space(mu, spec_u.n_controllers, spec_u.constraints)
    assert (
        space_u.family_size()
        == space.family_size() ** 2 * 4 ** space.n_classes
    )


# -- criterion 10: serialisation round-trips and parser robustness ------------


def test_c10_roundtrip_and_fuzz():
    """100 random models and specs survive write/parse bit-exactly; 100k
    random text mutations never raise anything but the typed parse error."""

    rng = random.Random(1010)
    for seed in range(80_000, 80_100):
        m, spec = random_instance(seed, rewards=(seed % 2 == 0))
        m2 = parse_model(write_model(m))
        assert m2.trans == m.trans
        assert m2.labels == m.labels
        assert m2.rewards == m.rewards
        assert m2.action_names == m.action_names
        assert parse_spec(write_spec(spec)) == spec

    model_text = write_model(random_instance(80_000)[0])
    spec_text = write_spec(random_instance(80_001)[1])
    alphabet = list("abcdefxyz0123456789 :.,{}()&|!;=<>~\nPRF@\"-")
    for i in range(100_000):
        base = model_text if i % 2 == 0 else spec_text
        chars = list(base)
        for _ in range(rng.randint(1, 3)):
            op = rng.randrange(3)
            if op == 0:
                chars.insert(rng.randrange(len(chars) + 1), rng.choice(alphabet))
            elif op == 1 and chars:
                chars[rng.randrange(len(chars))] = rng.choice(alphabet)
            elif chars:
                del chars[rng.randrange(len(chars))]
        text = "".join(chars)
        try:
            out = parse_model(text) if i % 2 == 0 else parse_spec(text)
            assert out is not None
        except ParseError:
            pass
