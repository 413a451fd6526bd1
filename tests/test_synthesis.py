import math
import random
from itertools import islice, product

import pytest

from hypersynth import (
    Controller,
    LimitExceeded,
    check_mc,
    enumerate_satisfying,
    generate,
    impose,
    lift_spec_memory,
    parse_spec,
    synthesize,
    unfold_memory,
)
from hypersynth import synthesis
from hypersynth.analysis import compile_model
from hypersynth.errors import SpecError
from hypersynth.family import build_parameter_space, induce
from hypersynth.formulas import Query
from hypersynth.synthesis import (
    _Synthesizer,
    cheaper_to_enumerate,
    distance_pairs,
    instantiate,
    max_distance_completion,
    node_distance_bound,
    realisation_distance,
)
from hypersynth.family import root_node

from conftest import binary_family, binary_spec, notes_example, random_instance


# ---------------------------------------------------------------------------
# instantiation


def test_instantiate_forall_conjunction(notes_mdp):
    spec = parse_spec(
        "exists g : forall s in {0, 1} [g] : P(s, F target) <= 0.6"
    )
    f = instantiate(spec, notes_mdp)
    assert len(f.atoms) == 2
    assert f.root == ("and", (("atom", 0), ("atom", 1)))
    assert f.atoms[0].left == Query("reach", 0, 0, "target")
    assert f.atoms[1].left == Query("reach", 0, 1, "target")
    assert not f.atoms[0].strict and f.atoms[0].offset == 0.0


def test_instantiate_exists_disjunction(notes_mdp):
    spec = parse_spec("exists g : exists s in {0, 1} [g] : P(s, F target) <= 0.6")
    f = instantiate(spec, notes_mdp)
    assert f.root == ("or", (("atom", 0), ("atom", 1)))


def test_instantiate_flips_and_negates(notes_mdp):
    # a > b becomes b < a; the negation of <= flips to strict <
    spec = parse_spec(
        "exists g : forall s in {0} [g] : "
        "P(s, F target) > 0.5 & !(P(s, F target) <= 0.7)"
    )
    f = instantiate(spec, notes_mdp)
    a0, a1 = f.atoms
    assert a0.left == 0.5 and isinstance(a0.right, Query) and a0.strict
    assert a1.left == 0.7 and isinstance(a1.right, Query) and a1.strict


def test_instantiate_equality_expansion(notes_mdp):
    spec = parse_spec(
        "exists g : forall s in {0} [g] : P(s, F target) = 0.4 ~0.01"
    )
    f = instantiate(spec, notes_mdp)
    assert len(f.atoms) == 2
    assert f.root[0] == "and"
    for atom in f.atoms:
        assert not atom.strict
        assert atom.offset == pytest.approx(0.01)
    # negated equality turns into a strict two-sided disjunction
    spec2 = parse_spec(
        "exists g : forall s in {0} [g] : !(P(s, F target) = 0.4 ~0.01)"
    )
    f2 = instantiate(spec2, notes_mdp)
    assert f2.root[0] == "or"
    for atom in f2.atoms:
        assert atom.strict
        assert atom.offset == pytest.approx(-0.01)


def test_instantiate_dedupes_atoms(notes_mdp):
    spec = parse_spec(
        "exists g : forall s in {0, 0} [g] : P(s, F target) <= 0.6"
    )
    # both domain entries instantiate to the same atom
    f = instantiate(spec, notes_mdp)
    assert len(f.atoms) == 1


def test_quantifier_order_first_outermost(notes_mdp):
    spec = parse_spec(
        "exists g : forall s1 in {0, 1} [g], exists s2 in {0, 1} [g] : "
        "P(s1, F target) <= P(s2, F target)"
    )
    f = instantiate(spec, notes_mdp)
    # outer forall over s1, inner exists over s2
    assert f.root[0] == "and"
    assert all(k[0] == "or" or k[0] == "const" or k[0] == "atom" for k in f.root[1])


# ---------------------------------------------------------------------------
# worked example behaviour


def test_worked_example_all_methods():
    m, spec = notes_example()
    want = [(1, 1, 0, 0)]
    assert enumerate_satisfying(m, spec) == want
    for method in ("ar", "hybrid", "oracle"):
        out = synthesize(m, spec, method=method)
        assert out.verdict == "feasible"
        assert out.realisation == (1, 1, 0, 0)
        res = check_mc([impose(m, c) for c in out.witness], instantiate(spec, m))
        assert res.holds


def test_worked_example_complete_modes():
    m, spec = notes_example()
    for method in ("ar", "hybrid", "oracle"):
        out = synthesize(m, spec, mode="complete", method=method)
        assert out.verdict == "feasible"
        assert out.stats["satisfying_count"] == 1
        members = sorted(
            r for b in out.satisfying for r in product(*b.domains)
        )
        assert members == [(1, 1, 0, 0)]


def test_worked_example_hybrid_prunes():
    m, spec = notes_example()
    out = synthesize(m, spec, mode="complete", method="hybrid")
    assert out.stats["ce_prunes"] >= 1


def test_unfeasible_explores_everything():
    m, spec = notes_example()
    tight = parse_spec(
        "exists sigma : forall s in {0, 1} [sigma] : P(s, F target) <= 0.3"
    )
    for method in ("ar", "hybrid"):
        out = synthesize(m, tight, method=method)
        assert out.verdict == "unfeasible"
        assert out.stats["explored_fraction"] == 1.0
    assert enumerate_satisfying(m, tight) == []


# ---------------------------------------------------------------------------
# random parity: interval engine vs brute force vs hybrid


def _oracle_feasible(m, spec):
    space = build_parameter_space(m, spec.n_controllers, spec.constraints)
    formula = instantiate(spec, m)
    for real in product(*space.domains):
        ctrls = tuple(induce(space, real, i) for i in range(spec.n_controllers))
        if check_mc(tuple(impose(m, c) for c in ctrls), formula).holds:
            return True
    return False


def test_methods_agree_on_random_instances():
    feasible = 0
    total = 0
    for seed in range(120):
        try:
            m, spec = random_instance(seed)
        except Exception:
            continue
        try:
            want = _oracle_feasible(m, spec)
        except SpecError:
            continue
        total += 1
        feasible += want
        for method in ("ar", "hybrid"):
            out = synthesize(m, spec, method=method)
            assert (out.verdict == "feasible") == want, (seed, method)
            if want:
                res = check_mc(
                    [impose(m, c) for c in out.witness], instantiate(spec, m)
                )
                assert res.holds, (seed, method)
    assert total >= 100
    assert 10 < feasible < total  # both answers are exercised


def test_complete_counts_agree_on_random_instances():
    checked = 0
    for seed in range(60):
        try:
            m, spec = random_instance(seed)
        except Exception:
            continue
        members = enumerate_satisfying(m, spec)
        for method in ("ar", "hybrid"):
            out = synthesize(m, spec, mode="complete", method=method)
            got = sorted(r for b in out.satisfying for r in product(*b.domains))
            assert got == members, (seed, method)
            assert out.stats["satisfying_count"] == len(members)
        checked += 1
    assert checked >= 50


# ---------------------------------------------------------------------------
# optimal mode


def test_distance_helpers(notes_mdp):
    spec = parse_spec(
        "exists a, b : forall s1 in {0} [a], forall s2 in {0} [b] : "
        "P(s1, F target) <= P(s2, F target)"
    )
    space = build_parameter_space(notes_mdp, 2, spec.constraints)
    pairs = distance_pairs(space)
    assert len(pairs) == 4
    node = root_node(space)
    assert node_distance_bound(node, pairs) == 2  # two states offer choices
    real = max_distance_completion(node, pairs)
    assert realisation_distance(real, pairs) == 2
    assert node.contains(real)


def test_distance_needs_two_controllers(notes_mdp):
    space = build_parameter_space(notes_mdp, 1)
    with pytest.raises(SpecError):
        distance_pairs(space)


def _oracle_optimal(m, spec):
    space = build_parameter_space(m, spec.n_controllers, spec.constraints)
    formula = instantiate(spec, m)
    pairs = distance_pairs(space)
    from itertools import product

    best = None
    for real in product(*space.domains):
        ctrls = tuple(induce(space, real, i) for i in range(spec.n_controllers))
        if check_mc(tuple(impose(m, c) for c in ctrls), formula).holds:
            d = realisation_distance(real, pairs)
            best = d if best is None else max(best, d)
    return best


def test_optimal_matches_oracle_on_random_instances():
    solved = 0
    for seed in range(70):
        try:
            m, spec = random_instance(1000 + seed, max_controllers=2)
        except Exception:
            continue
        if spec.n_controllers != 2 or spec.constraints:
            continue
        want = _oracle_optimal(m, spec)
        for method in ("ar", "hybrid"):
            out = synthesize(m, spec, mode="optimal", method=method)
            if want is None:
                assert out.verdict == "unfeasible", (seed, method)
            else:
                assert out.verdict == "feasible", (seed, method)
                assert out.optimal_value == want, (seed, method)
                pairs = distance_pairs(
                    build_parameter_space(m, 2, spec.constraints)
                )
                assert realisation_distance(out.realisation, pairs) == want
                res = check_mc(
                    [impose(m, c) for c in out.witness], instantiate(spec, m)
                )
                assert res.holds, (seed, method)
        solved += 1
    assert solved >= 15


# ---------------------------------------------------------------------------
# limits and memory


def test_iteration_limit_raises():
    m, _ = notes_example()
    # no member hits 0.55 exactly, and the root interval straddles it, so
    # the search must keep splitting; limited to one box it has to abort
    stubborn = parse_spec(
        "exists sigma : forall s in {0} [sigma] : P(s, F target) = 0.55 ~0.000001"
    )
    base = synthesize(m, stubborn)
    assert base.verdict == "unfeasible"
    assert base.stats["iterations"] > 1
    with pytest.raises(LimitExceeded) as e:
        synthesize(m, stubborn, max_iters=1)
    stats = getattr(e.value, "stats", None)
    assert stats is not None and stats["iterations"] >= 1


def test_time_limit_raises():
    m, _ = notes_example()
    stubborn = parse_spec(
        "exists sigma : forall s in {0} [sigma] : P(s, F target) = 0.55 ~0.000001"
    )
    with pytest.raises(LimitExceeded):
        synthesize(m, stubborn, time_limit=0.0)


# ---------------------------------------------------------------------------
# settling cheap boxes by member checks

# unfeasible on the worked example, and its root splits into two boxes of two
STUBBORN = "exists sigma : forall s in {0} [sigma] : P(s, F target) = 0.55 ~0.000001"


def test_cheaper_to_enumerate_on_fixed_costs():
    assert cheaper_to_enumerate(4, 0.001, 0.005)
    assert not cheaper_to_enumerate(6, 0.001, 0.005)
    assert cheaper_to_enumerate(4, 0.25, 1.0)  # equal costs enumerate
    assert cheaper_to_enumerate(1, 0.002, 0.002)
    assert not cheaper_to_enumerate(2, 0.002, 0.002)
    # a cost not measured yet never enumerates
    assert not cheaper_to_enumerate(1, None, 1.0)
    assert not cheaper_to_enumerate(1, 1e-6, None)


def _always_enumerate(monkeypatch):
    """Make every box past the root cheap enough to enumerate; the returned
    list collects the boxes the loop hands to the enumerator."""

    seen = []
    enumerate_box = _Synthesizer._enumerate

    def spy(self, node):
        seen.append(node)
        return enumerate_box(self, node)

    monkeypatch.setattr("hypersynth.synthesis.cheaper_to_enumerate", lambda size, check_s, analysis_s: True)
    monkeypatch.setattr(_Synthesizer, "_enumerate", spy)
    return seen


def test_root_is_analysed_even_when_enumeration_pays(monkeypatch):
    seen = _always_enumerate(monkeypatch)
    m, _ = notes_example()
    out = synthesize(m, parse_spec(STUBBORN), mode="complete")
    assert out.verdict == "unfeasible"
    assert seen and all(node.size() < out.stats["family_size"] for node in seen)
    assert out.stats["enumerated_members"] == sum(node.size() for node in seen)
    assert out.stats["explored_fraction"] == 1.0
    assert out.stats["atoms"]  # filled by the root's analysis


def test_enumerated_boxes_keep_answers_on_random_instances(monkeypatch):
    _always_enumerate(monkeypatch)
    for seed in range(40):
        m, spec = random_instance(seed)
        want = enumerate_satisfying(m, spec)
        for method in ("ar", "hybrid"):
            out = synthesize(m, spec, mode="complete", method=method)
            got = sorted(r for b in out.satisfying for r in product(*b.domains))
            assert got == want, (seed, method)
            out = synthesize(m, spec, method=method)
            assert out.feasible == bool(want), (seed, method)
            if out.feasible:
                assert out.realisation in want, (seed, method)


def test_iteration_limit_can_stop_an_enumerated_box(monkeypatch):
    seen = _always_enumerate(monkeypatch)
    m, _ = notes_example()
    spec = parse_spec(STUBBORN)
    base = synthesize(m, spec)
    seen.clear()
    with pytest.raises(LimitExceeded) as e:
        synthesize(m, spec, max_iters=2)  # the root, then one member
    stats = e.value.stats
    assert seen[0].size() == 2 and stats["enumerated_members"] == 1
    assert stats["verdict"] == "unknown"
    assert set(stats) == set(base.stats)


def test_time_limit_can_stop_an_enumerated_box(monkeypatch):
    seen = _always_enumerate(monkeypatch)
    m, _ = notes_example()
    spec = parse_spec(STUBBORN)
    base = synthesize(m, spec, mode="complete")
    settle = _Synthesizer._settle

    def expire(self, real, holds):
        done = settle(self, real, holds)
        if self.enumerated:
            self.time_limit = 0.0  # the clock runs out after the first enumerated member
        return done

    monkeypatch.setattr(_Synthesizer, "_settle", expire)
    seen.clear()
    with pytest.raises(LimitExceeded) as e:
        synthesize(m, spec, mode="complete", time_limit=60.0)
    stats = e.value.stats
    assert seen[0].size() == 2 and stats["enumerated_members"] == 1
    assert set(stats) == set(base.stats)


# ---------------------------------------------------------------------------
# members checked in chunks

BINARY_K = 12  # 4,096 members, several chunks at the family's model size


def _chunk(m, spec):
    return compile_model(m, build_parameter_space(m, spec.n_controllers, spec.constraints)).chunk


def _member(m, j):
    space = build_parameter_space(m, 1)
    return next(islice(product(*space.domains), j, None))


def test_oracle_stops_at_first_satisfying_member_mid_chunk():
    m = binary_family(BINARY_K)
    chunk = _chunk(m, binary_spec(0.0))
    j = chunk + chunk // 2  # 0-based index of the first satisfying member
    assert 2 * chunk < 2**BINARY_K
    out = synthesize(m, binary_spec((j - 0.5) / 2**BINARY_K), method="oracle")
    assert out.verdict == "feasible" and out.realisation == _member(m, j)
    assert out.stats["iterations"] == out.stats["enumerated_members"] == j + 1


def test_iteration_limit_mid_chunk_counts_exactly():
    m = binary_family(BINARY_K)
    never = parse_spec("exists sigma : forall s in {0} [sigma] : P(s, F target) < 0")
    limit = _chunk(m, never) + 7
    with pytest.raises(LimitExceeded) as e:
        synthesize(m, never, method="oracle", max_iters=limit)
    stats = e.value.stats
    assert stats["iterations"] == stats["enumerated_members"] == stats["explored"] == limit


def test_oracle_checks_members_in_chunks_only(monkeypatch):
    m, spec = generate("timing-attack", n=6)
    batches, imposed = [], []
    batched = synthesis.check_members

    def spy(compiled, formula, realisations):
        batches.append(len(realisations))
        return batched(compiled, formula, realisations)

    monkeypatch.setattr(synthesis, "check_members", spy)
    monkeypatch.setattr(synthesis, "impose", lambda *args: imposed.append(args))
    out = synthesize(m, spec, mode="complete", method="oracle")
    size = out.stats["family_size"]
    assert size == 4096 and out.stats["enumerated_members"] == size == sum(batches)
    assert len(batches) <= math.ceil(size / _chunk(m, spec)) + 1
    assert imposed == []


def test_memory_unfolding_can_help():
    # a single bit of memory lets one controller pass a two-visit test that
    # no memoryless controller passes: first visit goes right, second left
    m, spec = notes_example()
    u = unfold_memory(m, 1)
    lifted = lift_spec_memory(spec, 1)
    out = synthesize(u, lifted)
    assert out.verdict == "feasible"  # sanity: still feasible after lifting
    space = build_parameter_space(u, 1, lifted.constraints)
    assert space.family_size() == 4096
