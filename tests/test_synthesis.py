import math
import os
import random
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import islice, product
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from hypersynth import (
    LimitExceeded,
    check_mc,
    enumerate_satisfying,
    extremal_reach,
    generate,
    impose,
    lift_spec_memory,
    make_mdp,
    parse_spec,
    synthesize,
    unfold_memory,
)
from hypersynth import analysis, counterexamples, synthesis
from hypersynth.analysis import check_members, compile_model, solve_count
from hypersynth.errors import ConstraintError, SpecError
from hypersynth.exact import reach_probs_exact
from hypersynth.family import FamilyNode, build_parameter_space, induce
from hypersynth.formulas import FALSE, TRUE, Query, substitute
from hypersynth.model import Mdp
from hypersynth.specs import DEFAULT_EQ_EPS, Obs, Same, validate_spec
from hypersynth.synthesis import (
    METHODS,
    MODES,
    _Synthesizer,
    cheaper_to_enumerate,
    distance_pairs,
    instantiate,
    max_distance_completion,
    member_chunks,
    node_distance_bound,
    prefix_boxes,
    realisation_distance,
    subtree_price,
)
from hypersynth.family import root_node

from conftest import (
    binary_family,
    binary_spec,
    multi_sink_instance,
    notes_example,
    random_instance,
    two_cone_instance,
)


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
    # without ~eps an equality takes DEFAULT_EQ_EPS, and ~0 asks for exact
    # equality
    for suffix, eps in (("", DEFAULT_EQ_EPS), (" ~0", 0.0)):
        spec3 = parse_spec("exists g : forall s in {0} [g] : P(s, F target) = 0.4" + suffix)
        assert [atom.offset for atom in instantiate(spec3, notes_mdp).atoms] == [eps, eps]


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
    # obs ties the two decision states, so the family does not factor and
    # complete mode refines it
    m, _ = notes_example()
    spec = parse_spec(
        "exists sigma : obs({0, 1}, sigma) ; forall s in {0, 1} [sigma] : P(s, F target) <= 0.6"
    )
    out = synthesize(m, spec, mode="complete", method="hybrid")
    assert out.stats["factors"] == 0
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


def test_a_failed_allsat_recheck_splits_the_box(monkeypatch):
    # Answer every open atom as allsat, as an unsound bound would; allunsat
    # stays, so discards remain sound.  A box is then accepted only through
    # its recheck, which fails on some boxes and splits them, and the
    # verdicts stay the oracle's.
    atom_verdict = synthesis.NodeAnalyzer.atom_verdict
    handle_allsat = _Synthesizer._handle_allsat
    rechecks = []

    def lying(self, bounds, i):
        v = atom_verdict(self, bounds, i)
        return replace(v, case="allsat") if v.case == "open" else v

    def recorded(self, node, stack):
        splits = self.splits
        out = handle_allsat(self, node, stack)
        rechecks.append(self.splits > splits)
        return out

    monkeypatch.setattr(synthesis.NodeAnalyzer, "atom_verdict", lying)
    monkeypatch.setattr(_Synthesizer, "_handle_allsat", recorded)
    for seed in range(60):
        try:
            m, spec = random_instance(seed)
        except Exception:
            continue
        want = _oracle_feasible(m, spec)
        for method in ("ar", "hybrid"):
            out = synthesize(m, spec, method=method)
            assert (out.verdict == "feasible") == want, (seed, method)
    assert any(rechecks) and not all(rechecks)


def test_a_failed_candidate_is_passed_over(monkeypatch):
    # random_instance(339) is the one seed in 0-399 where a composed
    # candidate of an open box fails its check, under feasibility and
    # optimal mode and both refinement methods
    m, spec = random_instance(339)
    handle_open = _Synthesizer._handle_open
    failed = []

    def recorded(self, node, residual, verdicts, bounds, stack):
        candidates = [pa.complete(node) for pa in synthesis._compose(residual, verdicts)]
        if candidates:
            failed.append(not check_members(self.compiled, candidates).holds.all())
        return handle_open(self, node, residual, verdicts, bounds, stack)

    monkeypatch.setattr(_Synthesizer, "_handle_open", recorded)
    want_optimal = _oracle_optimal(m, spec)
    assert want_optimal is not None and _oracle_feasible(m, spec)
    for mode in ("feasibility", "optimal"):
        for method in ("ar", "hybrid"):
            failed.clear()
            out = synthesize(m, spec, mode=mode, method=method)
            assert any(failed), (mode, method)
            assert out.verdict == "feasible", (mode, method)
            assert check_mc([impose(m, c) for c in out.witness], instantiate(spec, m)).holds
            if mode == "optimal":
                assert out.optimal_value == want_optimal, method


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


def _self_loop(eps):
    """Action 1 at state 0 loops with 1 - 2 eps and escapes to the goal and
    to a sink with eps each, so it reaches the goal with probability 1/2;
    action 0 reaches it with 0.1 only."""

    m = make_mdp(
        [
            [[(1, 0.1), (2, 0.9)], [(0, 1.0 - 2.0 * eps), (1, eps), (2, eps)]],
            [[(1, 1.0)]],
            [[(2, 1.0)]],
        ],
        labels={"goal": (1,)},
    )
    return m, parse_spec("exists sigma : forall s in {0} [sigma] : P(s, F goal) >= 0.3")


@pytest.mark.parametrize("eps", [2e-10, 1e-9, 5.5e-9, 1e-8])
def test_near_one_self_loop(eps):
    m, spec = _self_loop(eps)
    assert extremal_reach(m, m.target("goal"), "max").values[0] == pytest.approx(0.5, abs=1e-12)
    for method in ("ar", "hybrid", "oracle"):
        assert synthesize(m, spec, method=method).verdict == "feasible", method


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


@pytest.mark.parametrize("eps", [-1.0, float("nan"), float("inf")])
def test_bad_equality_tolerance_is_rejected(eps):
    # with a negative or NaN tolerance every member would fail the equality,
    # and the answer would be wrong
    m, _ = notes_example()
    good = parse_spec("exists g : forall s in {0} [g] : P(s, F target) = 0.4")
    bad = replace(good, formula=("atom", replace(good.formula[1], eps=eps)))
    with pytest.raises(SpecError):
        validate_spec(bad)
    with pytest.raises(SpecError):
        instantiate(bad, m)
    with pytest.raises(SpecError):
        enumerate_satisfying(m, bad)
    for method in METHODS:
        with pytest.raises(SpecError):
            synthesize(m, bad, method=method)


def _edit_quantifier(spec, **fields):
    return replace(spec, quantifiers=(replace(spec.quantifiers[0], **fields),) + spec.quantifiers[1:])


def _edit_atom(spec, **fields):
    return replace(spec, formula=("atom", replace(spec.formula[1], **fields)))


BAD_SPEC_EDITS = {
    "domain 0.5": lambda spec: _edit_quantifier(spec, domain=(0.5,)),
    "domain '0'": lambda spec: _edit_quantifier(spec, domain=("0",)),
    "quantifier controller 0.0": lambda spec: _edit_quantifier(spec, controller=0.0),
    "bound 'abc'": lambda spec: _edit_atom(spec, right="abc"),
    "bound None": lambda spec: _edit_atom(spec, right=None),
    "tolerance 'x'": lambda spec: _edit_atom(spec, rel="=", eps="x"),
    "same state '1'": lambda spec: replace(spec, constraints=(Same("1", (0, 1)),)),
    "obs state 1.5": lambda spec: replace(spec, constraints=(Obs((0, 1.5), 0),)),
    "obs controller 0.0": lambda spec: replace(spec, constraints=(Obs((0, 1), 0.0),)),
    "constraints None": lambda spec: replace(spec, constraints=None),
    "quantifiers None": lambda spec: replace(spec, quantifiers=None),
    "node ('not',)": lambda spec: replace(spec, formula=("not",)),
    "node ('atom',)": lambda spec: replace(spec, formula=("atom",)),
    "formula None": lambda spec: replace(spec, formula=None),
}


@pytest.mark.parametrize("edit", BAD_SPEC_EDITS)
def test_malformed_api_specs_raise_package_errors(edit):
    # each edit once crashed with a TypeError, ValueError, KeyError or
    # IndexError, or a controller index of 0.0 was read as 0
    for bench, params in [("thread-scheduling", {"h1": 2, "h2": 3}), ("timing-attack", {"n": 2})]:
        m, spec = generate(bench, **params)
        assert spec.formula[0] == "atom" and spec.constraints == ()
        bad = BAD_SPEC_EDITS[edit](spec)
        for method in METHODS:
            with pytest.raises((SpecError, ConstraintError)):
                synthesize(m, bad, method=method)
        with pytest.raises((SpecError, ConstraintError)):
            enumerate_satisfying(m, bad)


@pytest.mark.parametrize("method", METHODS)
def test_time_and_iteration_limits_are_validated(method):
    m, spec = notes_example()
    with pytest.raises(SpecError):
        synthesize(m, spec, method=method, time_limit=float("nan"))
    for limits in (
        {"max_iters": -5},
        {"max_iters": -1},
        {"max_iters": 2.5},
        {"time_limit": -1.0},
        {"time_limit": -1e-9},
        {"time_limit": "3"},
    ):
        with pytest.raises(SpecError):
            synthesize(m, spec, method=method, **limits)
    # a limit of 0 is valid: the run stops at its first check
    for limits in ({"max_iters": 0}, {"time_limit": 0.0}):
        try:
            synthesize(m, spec, method=method, **limits)
        except LimitExceeded:
            pass


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
    # costs in solves: the solves of a box's batches against the price of
    # analysing the box
    assert cheaper_to_enumerate(3, 3.5)
    assert not cheaper_to_enumerate(4, 3.5)
    assert cheaper_to_enumerate(4, 4.0)  # equal costs enumerate
    # a formula without queries checks members for free
    assert cheaper_to_enumerate(0, 0.0)
    # before any analysis is counted, nothing is enumerated
    assert not cheaper_to_enumerate(0, None)


def test_subtree_price_follows_the_settle_rate():
    # an uncounted run never enumerates
    assert subtree_price(0, 0, 0) is None
    assert not cheaper_to_enumerate(0, subtree_price(0, 0, 0))
    # analyses that never settle raise the price, the more the more of them
    never = [subtree_price(12 * n, n, 0) for n in (1, 10, 100)]
    assert 12 < never[0] < never[1] < never[2]
    assert never[2] == 12 * 102
    # analyses that always settle bring it toward the mean solves of one
    always = [subtree_price(12 * n, n, n) for n in (1, 10, 100, 10_000)]
    assert all(a > b > 12 for a, b in zip(always, always[1:]))
    assert always[-1] == pytest.approx(12, rel=1e-3)


@pytest.mark.parametrize(
    "bench, params, mode, groups",
    [
        # six reach queries on the closed, disjoint die sinks: one group
        ("knuth-yao-pc", {"n": 1}, "feasibility", 1),
        # two reward queries, each a group of its own
        ("maze-sd", {"variant": "checkpoint"}, "optimal", 2),
    ],
    ids=["knuth-yao-pc", "maze-sd"],
)
def test_a_batch_of_member_checks_costs_one_solve_per_group(
    monkeypatch, bench, params, mode, groups
):
    m, spec = generate(bench, **params)
    engine = _Synthesizer(m, spec, mode, "ar", None, None)
    assert "compiled" not in vars(engine)  # nothing compiles before it is needed
    assert engine.compiled.solves == groups
    members = list(islice(product(*engine.space.domains), engine.compiled.chunk + 1))
    for batch in (members[:1], members[:-1], members):
        before = solve_count()
        check_members(engine.compiled, batch)
        assert solve_count() - before == engine.compiled.solves
    # in every mode a box pays for its own batches
    prices = []
    monkeypatch.setattr(synthesis, "cheaper_to_enumerate", lambda solves, price: prices.append(solves))
    chunk = engine.compiled.chunk
    for engine.mode in ("complete", "optimal"):
        prices.clear()
        for size in (1, chunk, chunk + 1):
            engine._enumeration_pays(SimpleNamespace(size=lambda size=size: size))
        assert prices == [groups, groups, 2 * groups]


@pytest.mark.parametrize(
    "bench, params, mode",
    [("knuth-yao-pc", {"n": 1}, "feasibility"), ("maze-sd", {"variant": "checkpoint"}, "optimal")],
    ids=["knuth-yao-pc", "maze-sd"],
)
def test_a_box_analysis_solves_each_query_once(monkeypatch, bench, params, mode):
    """Analysing an open box makes one min and one max solve per distinct
    query, however many atoms share it, and a hybrid certificate try on the
    box makes none.  A box decided by its first query makes that query's
    two solves only."""

    m, spec = generate(bench, **params)
    engine = _Synthesizer(m, spec, mode, "hybrid", None, None)
    solves = []
    for name in ("extremal_reach", "extremal_reward"):
        solve = getattr(synthesis, name)

        def spy(*args, _solve=solve, _name=name):
            solves.append(_name)
            return _solve(*args)

        monkeypatch.setattr(synthesis, name, spy)
    tries = []
    try_prune = engine._try_conflict_prune

    def counted_try(*args):
        before = len(solves)
        out = try_prune(*args)
        tries.append(len(solves) - before)
        return out

    monkeypatch.setattr(engine, "_try_conflict_prune", counted_try)
    root = root_node(engine.space)
    engine._analyse(root, [])
    queries = engine.formula.queries
    assert len(queries) < 2 * len(engine.formula.atoms)  # atoms share queries
    assert len(solves) == 2 * len(queries)
    assert sorted(set(solves)) == sorted({f"extremal_{kind}" for kind, _, _ in queries})
    if bench == "knuth-yao-pc":
        assert tries == [0] and engine.ce_prunes == 1
        # fixing the first varying class at its second action falsifies an
        # atom of the first die query; the box is analysed as at iteration
        # 2, past the run's first analysis, which solves every query
        engine.iterations = 2
        k = next(k for k, d in enumerate(root.domains) if len(d) > 1)
        domains = root.domains
        box = FamilyNode(engine.space, (*domains[:k], domains[k][1:2], *domains[k + 1 :]))
        solves.clear()
        explored = engine.explored
        engine._analyse(box, [])
        assert len(queries) > 1 and solves == ["extremal_reach"] * 2
        assert tries == [0] and engine.explored == explored + box.size()


def _decided_by_first_query(engine, node) -> bool:
    """Whether the bounds of the formula's first query alone decide the
    formula on the node."""

    analyzer = engine.analyzer
    bounds = analyzer.side_bounds(node, engine.formula.queries[:1])
    forced = {}
    for i in analyzer.completed[0]:
        v = analyzer.atom_verdict(bounds, i)
        if v.case != "open":
            forced[i] = v.case == "allsat"
    return substitute(engine.formula.root, forced) in (TRUE, FALSE)


def test_a_box_discarded_by_its_first_query_mines_nothing(monkeypatch):
    # knuth-yao-pc n=2 is a conjunction over six die queries; fixing its
    # first varying class at its last action falsifies a die1 atom
    m, spec = generate("knuth-yao-pc", n=2)
    engine = _Synthesizer(m, spec, "feasibility", "ar", None, None)
    root = root_node(engine.space)
    engine._refine(root, [])  # the run's first analysis
    k = next(k for k, d in enumerate(root.domains) if len(d) > 1)
    domains = root.domains
    box = FamilyNode(engine.space, (*domains[:k], domains[k][-1:], *domains[k + 1 :]))
    assert _decided_by_first_query(engine, box)

    calls = {"solves": [], "restricts": 0, "mined": 0}
    reach, restrict = synthesis.extremal_reach, synthesis.node_restrict
    mine = synthesis.controller_box

    def solve(*args):
        calls["solves"].append(args[2])
        return reach(*args)

    def restricted(*args):
        calls["restricts"] += 1
        return restrict(*args)

    def mined(*args):
        calls["mined"] += 1
        return mine(*args)

    monkeypatch.setattr(synthesis, "extremal_reach", solve)
    monkeypatch.setattr(synthesis, "node_restrict", restricted)
    monkeypatch.setattr(synthesis, "controller_box", mined)
    monkeypatch.setattr(analysis.RowTable, "reachable", None)  # mining would call it
    stack, explored = [], engine.explored
    assert engine._refine(box, stack) is None
    assert calls == {"solves": ["min", "max"], "restricts": 1, "mined": 0}
    assert stack == [] and engine.explored == explored + box.size()
    assert engine.analyses == 2 and engine.settling == 1


def test_the_first_analysis_reports_every_atom():
    # each root is decided by its first of two queries, yet the report
    # covers every atom, with the tags the eager analysis gave: tag 1 an
    # allsat atom, 2 an allunsat one, and 0, 3, 4, 5 the open ones
    for seed, tags in ((7, "1115225121115251"), (51, "21252052120205")):
        m, spec = random_instance(seed)
        engine = _Synthesizer(m, spec, "feasibility", "ar", None, None)
        assert len(engine.formula.queries) == 2
        assert _decided_by_first_query(engine, root_node(engine.space))
        out = synthesize(m, spec, method="ar")
        assert out.verdict == "unfeasible" and out.stats["analyses"] == 1
        report = out.stats["atoms"]
        assert "".join(a["tag"] for a in report) == tags, seed
        cases = {"1": "allsat", "2": "allunsat"}
        assert [a["case"] for a in report] == [cases.get(t, "open") for t in tags]


@pytest.mark.parametrize("controllers, tie", [(1, False), (1, True), (2, False), (2, True)])
def test_analysing_every_box_agrees_with_the_oracle_on_two_cone_instances(
    monkeypatch, controllers, tie
):
    # with enumeration never cheaper and no join, every box is analysed,
    # so many are decided before their last query; the verdicts, witnesses
    # and satisfying sets stay the oracle's.  Families of over 300 members
    # take seconds to refine down to single members, and are passed over
    monkeypatch.setattr(synthesis, "cheaper_to_enumerate", lambda solves, price: False)
    monkeypatch.setattr(_Synthesizer, "_factors", lambda self: None)
    analysed = 0
    for seed in range(60):
        m, spec = two_cone_instance(seed, controllers, tie)
        if build_parameter_space(m, spec.n_controllers, spec.constraints).family_size() > 300:
            continue
        want = enumerate_satisfying(m, spec)
        for method in ("ar", "hybrid"):
            out = synthesize(m, spec, method=method)
            assert out.feasible == bool(want), (seed, method)
            assert out.realisation is None or out.realisation in want, (seed, method)
            out = synthesize(m, spec, mode="complete", method=method)
            got = [r for box in out.satisfying for r in product(*box.domains)]
            assert sorted(got) == want, (seed, method)
            assert out.stats["satisfying_count"] == len(want)
            analysed += out.stats["analyses"]
    assert analysed > 200


# the complete and search problems of the benchmark, with its modes and
# methods; the self-loop eps is drawn there, one per band
BENCH_PROBLEMS = [
    ("timing-attack", {"n": 6}, "complete", "ar"),
    ("thread-scheduling", {"h1": 4, "h2": 8}, "complete", "hybrid"),
    ("knuth-yao-pc", {"n": 2}, "feasibility", "ar"),
    ("knuth-yao-pc", {"n": 1}, "feasibility", "hybrid"),
    ("maze-sd", {"variant": "checkpoint"}, "optimal", "ar"),
    ("maze-sd", {"variant": "checkpoint"}, "optimal", "hybrid"),
    ("thread-scheduling", {}, "feasibility", "ar"),
    *(("self-loop", {"eps": eps}, "feasibility", method) for eps in (1e-12, 1e-9) for method in ("ar", "hybrid")),
]


@pytest.mark.parametrize("bench, params, mode, method", BENCH_PROBLEMS)
def test_runs_repeat_exactly(monkeypatch, bench, params, mode, method):
    m, spec = _self_loop(**params) if bench == "self-loop" else generate(bench, **params)
    first = synthesize(m, spec, mode=mode, method=method)
    # the second run reads a clock that jumps at random: only wall_time_s
    # may follow it
    rng = random.Random(0)
    monkeypatch.setattr(synthesis, "time", SimpleNamespace(perf_counter=lambda: rng.uniform(0, 1e3)))
    second = synthesize(m, spec, mode=mode, method=method)
    for out in (first, second):
        del out.stats["wall_time_s"]
    assert second.stats == first.stats
    assert second.realisation == first.realisation
    assert list(second.satisfying.boxes()) == list(first.satisfying.boxes())
    assert first.stats["solves"] > 0


def _holds_exactly(m, spec, witness) -> bool:
    """The instantiated reach formula on the witness controllers, evaluated
    in rationals."""

    formula = instantiate(spec, m)
    probs = {}

    def value(side):
        if not isinstance(side, Query):
            return Fraction(side)
        key = (side.slot, side.target)
        if key not in probs:
            mc = impose(m, witness[side.slot])
            probs[key] = reach_probs_exact(mc, mc.target(side.target))
        return probs[key][side.state]

    truth = {}
    for i, atom in enumerate(formula.atoms):
        bound = value(atom.right) + Fraction(atom.offset)
        truth[i] = value(atom.left) < bound if atom.strict else value(atom.left) <= bound
    return formula.evaluate(truth)


def test_methods_agree_where_sink_queries_share_a_solve():
    # every reach query of these specs is on a closed sink of its own, so a
    # batch of member checks is one solve, which changes what the switch
    # enumerates; verdicts stay the oracle's and witnesses hold exactly
    cases = [generate("knuth-yao-pc", n=1)] + [multi_sink_instance(seed) for seed in range(20)]
    verdicts = []
    for m, spec in cases:
        assert _Synthesizer(m, spec, "feasibility", "ar", None, None).compiled.solves == 1
        outs = {method: synthesize(m, spec, method=method) for method in ("ar", "hybrid", "oracle")}
        assert len({out.verdict for out in outs.values()}) == 1, {k: o.verdict for k, o in outs.items()}
        for method, out in outs.items():
            if out.feasible:
                assert _holds_exactly(m, spec, out.witness), method
        verdicts.append(outs["oracle"].verdict)
    assert verdicts[0] == "feasible" and "unfeasible" in verdicts


def _shuffled_actions(m, seed):
    """m with each state's action list shuffled by
    random.Random(1000 * seed + state).  Actions keep their names, so the
    family and the verdict stay the same."""

    orders = []
    for s in range(m.num_states):
        order = list(range(m.num_actions(s)))
        random.Random(1000 * seed + s).shuffle(order)
        orders.append(order)

    def permute(table):
        return None if table is None else tuple(
            tuple(menu[a] for a in order) for menu, order in zip(table, orders)
        )

    return replace(
        m,
        trans=permute(m.trans),
        rewards=permute(m.rewards),
        action_names=permute(m.action_names),
    )


def test_certificates_prune_on_the_box_solver(monkeypatch):
    # hybrid certifies on the run's row tables: no engine path builds a
    # chain or calls a chain solver, and each run still prunes and finds a
    # witness that holds in rationals
    m, spec = generate("knuth-yao-pc", n=2)

    def forbidden(*args, **kwargs):
        raise AssertionError("chain built or solved on an engine path")

    for model in [m] + [_shuffled_actions(m, seed) for seed in (1, 2, 3)]:
        with monkeypatch.context() as patch:
            patch.setattr(Mdp, "__init__", forbidden)
            for module, name in (
                (synthesis, "impose"),
                (synthesis, "check_mc"),
                (counterexamples, "reach_probs"),
                (analysis, "reach_probs"),
                (analysis, "expected_reward"),
            ):
                patch.setattr(module, name, forbidden)
            out = synthesize(model, spec, method="hybrid")
        assert out.feasible
        assert out.stats["ce_prunes"] > 0
        assert _holds_exactly(model, spec, out.witness)


def test_hybrid_settles_knuth_yao_in_few_analyses():
    # one chunked member check settles what each analysis would prune one
    # member of
    m, spec = generate("knuth-yao-pc", n=1)
    out = synthesize(m, spec, method="hybrid")
    assert out.feasible
    assert 1 <= out.stats["analyses"] <= 20


def test_stats_count_analyses():
    m, _ = notes_example()
    spec = parse_spec(STUBBORN)
    out = synthesize(m, spec, mode="complete")
    assert 1 <= out.stats["analyses"] <= out.stats["iterations"]
    assert 0 <= out.stats["settling_analyses"] <= out.stats["analyses"]
    out = synthesize(m, spec, mode="complete", method="oracle")
    assert out.stats["analyses"] == out.stats["settling_analyses"] == 0


def _always_enumerate(monkeypatch):
    """Make every box past the root cheap enough to enumerate; the returned
    list collects the boxes the loop hands to the enumerator."""

    seen = []
    enumerate_box = _Synthesizer._enumerate

    def spy(self, node):
        seen.append(node)
        return enumerate_box(self, node)

    monkeypatch.setattr("hypersynth.synthesis.cheaper_to_enumerate", lambda solves, price: True)
    monkeypatch.setattr(_Synthesizer, "_enumerate", spy)
    return seen


def test_root_is_analysed_even_when_enumeration_pays(monkeypatch):
    seen = _always_enumerate(monkeypatch)
    # no member of binary_family(3) reaches the target with 2.5 / 8; its
    # one side's cone holds every class, so the family does not factor
    m = binary_family(3)
    spec = parse_spec("exists sigma : forall s in {0} [sigma] : P(s, F target) = 0.3125 ~0.000001")
    out = synthesize(m, spec, mode="complete")
    assert out.verdict == "unfeasible" and out.stats["factors"] == 0
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
    # the engine's clock moves one second per batch of member checks, so a
    # limit of 1.5 s runs out during the enumeration's second batch
    seen = _always_enumerate(monkeypatch)
    m, spec = binary_family(BINARY_K), binary_spec(0.3)
    base = synthesize(m, spec, mode="complete")
    seen.clear()
    batches = _count_batches(monkeypatch)
    monkeypatch.setattr(synthesis, "time", SimpleNamespace(perf_counter=lambda: float(len(batches))))
    with pytest.raises(LimitExceeded) as e:
        synthesize(m, spec, mode="complete", time_limit=1.5)
    stats = e.value.stats
    chunk = _chunk(m, spec)
    assert seen[0].size() > 2 * chunk and len(batches) == 2
    assert stats["enumerated_members"] == stats["explored"] == chunk
    assert stats["iterations"] == 1 + chunk  # the root's analysis, then one chunk
    want = set(enumerate_satisfying(m, spec))
    assert stats["satisfying_count"] == sum(r in want for r in islice(product(*seen[0].domains), chunk))
    assert set(stats) == set(base.stats)


def _count_batches(monkeypatch, states=None):
    """Record the size of every check_members batch, and in states, when
    given, the state count of the model it runs on."""

    batches = []
    batched = synthesis.check_members

    def spy(compiled, realisations):
        batches.append(len(realisations))
        if states is not None:
            states.append(compiled.num_states)
        return batched(compiled, realisations)

    monkeypatch.setattr(synthesis, "check_members", spy)
    return batches


@pytest.mark.parametrize("mode", MODES)
def test_run_enumerates_one_box_per_batch(monkeypatch, mode):
    monkeypatch.setattr("hypersynth.synthesis.cheaper_to_enumerate", lambda *costs: True)
    boxes, batches, enumerating = [], [], []
    split, enumerate_box = synthesis.split_node, _Synthesizer._enumerate
    batched = synthesis.check_members

    def split_spy(*args):
        children = split(*args)
        boxes.extend(children)
        return children

    def enumerate_spy(self, *args):
        enumerating.append(True)
        try:
            return enumerate_box(self, *args)
        finally:
            enumerating.pop()

    def check_spy(compiled, realisations):
        if enumerating:
            batches.append(np.asarray(realisations).tolist())
        return batched(compiled, realisations)

    monkeypatch.setattr(synthesis, "split_node", split_spy)
    monkeypatch.setattr(_Synthesizer, "_enumerate", enumerate_spy)
    monkeypatch.setattr(synthesis, "check_members", check_spy)
    # the root splits into two boxes of two members, and the family does
    # not factor
    m, spec = random_instance(361)
    out = synthesize(m, spec, mode=mode)
    assert out.stats["factors"] == 0 and out.stats["splits"] == 1
    assert [b.size() for b in boxes] == [2, 2] and batches

    def within(box, batch):
        return all(a in dom for real in batch for a, dom in zip(real, box.domains))

    assert all(any(within(box, batch) for box in boxes) for batch in batches)


@pytest.mark.parametrize(
    "bench, params, mode",
    [("knuth-yao-pc", {"n": 1}, "feasibility"), ("maze-sd", {"variant": "checkpoint"}, "optimal")],
)
def test_hybrid_checks_each_open_box_in_one_batch(monkeypatch, bench, params, mode):
    # the candidates and hybrid's first member of an open box share a batch
    monkeypatch.setattr("hypersynth.synthesis.cheaper_to_enumerate", lambda solves, price: False)
    batches = _count_batches(monkeypatch)
    per_box = []
    handle_open = _Synthesizer._handle_open

    def spy(self, *args):
        before = len(batches)
        try:
            return handle_open(self, *args)
        finally:
            per_box.append(batches[before:])

    monkeypatch.setattr(_Synthesizer, "_handle_open", spy)
    m, spec = generate(bench, **params)
    out = synthesize(m, spec, mode=mode, method="hybrid")
    assert out.verdict == "feasible"
    assert len(per_box) > 1 and all(len(sizes) == 1 for sizes in per_box)
    if mode == "optimal":
        # one open box has a candidate as well as the member hybrid checks
        assert any(sizes == [2] for sizes in per_box)


# ---------------------------------------------------------------------------
# factored families in complete mode


@pytest.mark.parametrize("controllers, tie", [(1, False), (1, True), (2, False), (2, True)])
def test_complete_joins_agree_with_the_oracle_on_two_cone_instances(controllers, tie):
    # a join answers member for member as the oracle does, in disjoint
    # boxes whose first member is the least satisfying one; cones tied by
    # obs() and same() form one factor, which with one controller leaves
    # nothing to join
    joined = 0
    for seed in range(60):
        m, spec = two_cone_instance(seed, controllers, tie)
        want = enumerate_satisfying(m, spec)
        for method in ("ar", "hybrid"):
            out = synthesize(m, spec, mode="complete", method=method)
            got = [r for box in out.satisfying for r in product(*box.domains)]
            assert sorted(got) == want, (seed, method)
            assert out.stats["satisfying_count"] == len(want)
            factors = out.stats["factors"]
            if controllers == 1 and tie:
                assert factors == 0, (seed, method)
            if factors:
                joined += 1
                assert factors == (1 if tie else 2), (seed, method)
                assert out.stats["explored"] == out.stats["family_size"]
                assert out.realisation == (want[0] if want else None), (seed, method)
    if not (controllers == 1 and tie):
        assert joined >= 20


def test_a_join_does_not_import_numpy_ma():
    # numpy's np.unique on integers imports numpy.ma, about 1 MB that no
    # run needs; a fresh process shows whether a join pulls it in
    code = (
        "import sys\n"
        "from hypersynth import generate, synthesize\n"
        "m, spec = generate('timing-attack', n=6)\n"
        "out = synthesize(m, spec, mode='complete', method='ar')\n"
        "assert out.stats['factors'] == 2 and out.stats['satisfying_count'] == 2510\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ)
    src = str(Path(synthesis.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


def _joined_prefix_boxes(m, spec, members):
    """The satisfying set of a factored family as the maximal prefix boxes
    over its factors' classes, free classes whole, laid out from the whole
    product of the factors' classes."""

    engine = _Synthesizer(m, spec, "complete", "ar", None, None)
    factors, _, _ = engine._factors()
    domains = engine.space.domains
    layout = sorted(k for classes in factors for k in classes)
    holds = np.zeros([len(domains[k]) for k in layout], dtype=bool)
    for digits in np.ndindex(holds.shape):
        real = [d[0] for d in domains]
        for k, x in zip(layout, digits):
            real[k] = domains[k][x]
        holds[digits] = tuple(real) in members
    return prefix_boxes(domains, layout, holds)


@pytest.mark.parametrize("controllers, tie", [(1, False), (2, False), (2, True)])
def test_joined_satisfying_sets_agree_with_the_oracle(monkeypatch, controllers, tie):
    # a joined answer keeps its value classes, not its members: its count,
    # least member and membership agree with the oracle, and its boxes are
    # the maximal prefix boxes of the product, in order, whether they are
    # laid out in one block or walked down to blocks of a few members
    joined = 0
    for seed in range(60):
        m, spec = two_cone_instance(seed, controllers, tie)
        want = enumerate_satisfying(m, spec)
        out = synthesize(m, spec, mode="complete")
        if not out.stats["factors"]:
            continue
        joined += 1
        answer = out.satisfying
        assert answer.count == out.stats["satisfying_count"] == len(want), seed
        assert answer.first() == (want[0] if want else None) == out.realisation, seed
        members = set(want)
        space = answer.space
        assert all(answer.contains(r) == (r in members) for r in product(*space.domains)), seed
        boxes = _joined_prefix_boxes(m, spec, members)
        assert [box.domains for box in answer.boxes()] == boxes, seed
        for chunk_bytes in (8, 64, 512):
            monkeypatch.setattr(synthesis, "CHUNK_BYTES", chunk_bytes)
            assert [box.domains for box in answer] == boxes, (seed, chunk_bytes)
        monkeypatch.undo()
    assert joined >= 15


def _two_binary_families(k: int):
    """Two copies of binary_family(k) sharing the target and sink, each
    root quantified on one controller: every member of a factor reaches the
    target with its own probability, so no value row of a table repeats."""

    def copy(root):
        head = [[(root + 1 + i, 2.0 ** -(i + 1)) for i in range(k)] + [(sink, 2.0**-k)]]
        return [head] + [[[(sink, 1.0)], [(target, 1.0)]] for _ in range(k)]

    target, sink = 2 * k + 2, 2 * k + 3
    trans = copy(0) + copy(k + 1) + [[[(target, 1.0)]], [[(sink, 1.0)]]]
    m = make_mdp(trans, labels={"target": (target,)})
    spec = parse_spec(
        f"exists sigma : forall s1 in {{0}} [sigma], forall s2 in {{{k + 1}}} [sigma] : "
        "P(s1, F target) = P(s2, F target) ~0.2"
    )
    return m, spec


def test_a_join_whose_tables_repeat_no_row():
    m, spec = _two_binary_families(4)
    want = enumerate_satisfying(m, spec)
    out = synthesize(m, spec, mode="complete")
    (join,) = out.satisfying.parts
    assert out.stats["factors"] == 2 and join.held.shape == (16, 16)
    assert out.satisfying.count == len(want) and 0 < len(want) < 256
    feasible = synthesize(m, spec)
    assert not feasible.satisfying and list(feasible.satisfying) == []
    assert out.realisation == want[0]
    assert [box.domains for box in out.satisfying] == _joined_prefix_boxes(m, spec, set(want))


def _close_pairs(n: int, tolerance: float) -> int:
    # pairs (i, j) of 0..n-1 with |i - j| <= tolerance * n, not an integer
    w = math.floor(tolerance * n)
    return n * (2 * w + 1) - w * (w + 1)


def test_a_large_join_holds_one_byte_per_tuple_of_value_classes():
    # 2,048 x 2,048 tuples, none repeated: the atoms are evaluated a chunk
    # at a time, so the join's peak is held, not the tuples' side values
    m, spec = _two_binary_families(11)
    tracemalloc.start()
    try:
        out = synthesize(m, spec, mode="complete")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (join,) = out.satisfying.parts
    assert out.stats["factors"] == 2 and join.held.shape == (2048, 2048)
    assert peak < 2 * join.held.size
    assert out.stats["satisfying_count"] == _close_pairs(2048, 0.2)
    assert out.realisation == (0,) * join.space.n_classes


def test_the_time_limit_stops_the_join_between_chunks(monkeypatch):
    # 64 x 64 tuples in chunks of 64; the clock moves one second per chunk
    m, spec = _two_binary_families(6)
    atoms = len(instantiate(spec, m).atoms)
    monkeypatch.setattr(synthesis, "CHUNK_BYTES", 64 * 2 * atoms * 8)
    chunks = []
    evaluate = synthesis.formula_holds

    def spy(formula, values):
        chunks.append(len(values))
        return evaluate(formula, values)

    monkeypatch.setattr(synthesis, "formula_holds", spy)
    monkeypatch.setattr(synthesis, "time", SimpleNamespace(perf_counter=lambda: float(len(chunks))))
    with pytest.raises(LimitExceeded) as e:
        synthesize(m, spec, mode="complete", time_limit=10.5)
    stats = e.value.stats
    assert chunks == [64] * 11
    assert stats["verdict"] == "unknown" and stats["factors"] == 2
    assert stats["enumerated_members"] == 128 and stats["satisfying_count"] == 0


def test_a_join_whose_value_classes_pass_the_memory_bound_is_refined(monkeypatch):
    # two tables of 64 members and 64 x 64 tuples of value classes fit in
    # exactly this many bytes; one byte less and the family is refined
    # after the tables are checked, to the same members
    m, spec = _two_binary_families(6)
    bound = 16 * len(instantiate(spec, m).atoms) * 128 + 2 * 64 * 64
    outs = []
    for join_bytes in (bound, bound - 1):
        monkeypatch.setattr(synthesis, "JOIN_BYTES", join_bytes)
        outs.append(synthesize(m, spec, mode="complete"))
    joined, refined = outs
    assert joined.stats["factors"] == 2 and joined.stats["enumerated_members"] == 128
    assert refined.stats["factors"] == 0 and refined.stats["enumerated_members"] > 128
    members = [sorted(r for box in out.satisfying for r in product(*box.domains)) for out in outs]
    assert members[0] == members[1] and len(members[0]) == _close_pairs(64, 0.2)


def test_an_oracle_answer_is_its_members_as_boxes_of_one():
    m, spec = generate("thread-scheduling", h1=2, h2=3)
    want = enumerate_satisfying(m, spec)
    out = synthesize(m, spec, mode="complete", method="oracle")
    answer = out.satisfying
    assert [box.domains for box in answer.boxes()] == [tuple((a,) for a in r) for r in want]
    assert answer and answer.count == len(want) > 0 and answer.first() == want[0]
    space = answer.space
    members = set(want)
    assert all(answer.contains(r) == (r in members) for r in product(*space.domains))
    assert not answer.contains(want[0][:-1])


@pytest.mark.parametrize("seed", range(20))
def test_prefix_boxes_are_the_maximal_prefix_boxes_in_order(seed):
    rng = np.random.default_rng(seed)
    domains = ((0, 1), (0,), (0, 1, 2), (1, 3), (0, 2))
    classes = [3, 0, 2]  # listed out of index order; 1 is fixed and 4 left whole
    holds = rng.random([len(domains[k]) for k in classes]) < rng.choice([0.2, 0.6, 0.9, 1.0])
    boxes = prefix_boxes(domains, classes, holds)
    members = [r for box in boxes for r in product(*box)]
    marked = [r for r in product(*domains) if holds[tuple(domains[k].index(r[k]) for k in classes)]]
    assert members == marked  # disjoint, complete and in lexicographic order
    # maximal: a box fixes a prefix of classes 0, 2, 3 whose one-shorter
    # prefix has a member outside the marked set
    layout = sorted(classes)
    for box in boxes:
        n = sum(len(box[k]) == 1 for k in layout)
        assert all(box[k] == domains[k] for k in layout[n:]) and box[4] == domains[4]
        if n:
            parent = [box[k] if k in layout[: n - 1] else domains[k] for k in range(len(domains))]
            assert not set(product(*parent)) <= set(marked)


def test_complete_bench_calls_join_factor_tables():
    # each factor's members are checked once: 64 + 64 on timing-attack n=6
    # and 16 + 256 on thread-scheduling 4/8, against 4,096 members each
    m, spec = generate("timing-attack", n=6)
    out = synthesize(m, spec, mode="complete", method="ar")
    stats = out.stats
    assert stats["factors"] == 2 and stats["enumerated_members"] == 128
    assert stats["explored"] == stats["family_size"] == 4096
    assert stats["satisfying_count"] == 2510 and sum(1 for _ in out.satisfying.boxes()) <= 1716
    m, spec = generate("thread-scheduling", h1=4, h2=8)
    out = synthesize(m, spec, mode="complete", method="hybrid")
    stats = out.stats
    assert stats["factors"] == 2 and stats["enumerated_members"] == 272
    assert stats["explored"] == stats["family_size"] == 4096
    assert stats["satisfying_count"] == 3302 and sum(1 for _ in out.satisfying.boxes()) <= 792


@pytest.mark.parametrize(
    "bench, params, method, tables, states, whole",
    [
        ("timing-attack", {"n": 6}, "ar", [64, 64], [7, 7], 2),
        ("thread-scheduling", {"h1": 4, "h2": 8}, "hybrid", [16, 256], [6, 10], 3),
    ],
)
def test_factor_tables_are_checked_on_their_cones(monkeypatch, bench, params, method, tables, states, whole):
    # each table batch solves one copy of the self-composition: the model
    # cut down to its factor's cones, of 7 + 7 of 14 states and 6 + 10 of
    # 15.  The chunk follows the smaller model, so each table is one batch,
    # where the whole model's chunk would take `whole` batches.  Last, the
    # sides of no factor, here none, are solved for the member taking
    # every first action, on a model of no state
    m, spec = generate(bench, **params)
    seen = []
    batches = _count_batches(monkeypatch, seen)
    out = synthesize(m, spec, mode="complete", method=method)
    assert out.stats["factors"] == 2 and out.stats["enumerated_members"] == sum(tables)
    assert batches == tables + [1] and seen == states + [0]
    assert sum(-(-size // _chunk(m, spec)) for size in tables) == whole


def test_satisfying_members_follow_the_boxes():
    # members() lists the members of boxes() in their order, whether the
    # answer is a join, refined boxes or members checked one by one; a
    # join of the bench's two tables, with no free class, lists them in
    # lexicographic order
    kinds = set()
    cases = [two_cone_instance(seed, 1) for seed in range(20)] + [random_instance(seed) for seed in range(40)]
    for m, spec in cases:
        want = enumerate_satisfying(m, spec)
        out = synthesize(m, spec, mode="complete")
        got = list(out.satisfying.members())
        assert got == [r for box in out.satisfying.boxes() for r in product(*box.domains)]
        assert sorted(got) == want and len(got) == out.satisfying.count
        kinds.add(out.stats["factors"] > 0)
    assert kinds == {False, True}
    m, spec = generate("timing-attack", n=6)
    assert list(synthesize(m, spec, mode="complete").satisfying.members()) == enumerate_satisfying(m, spec)


def test_a_join_past_its_memory_bound_is_refined(monkeypatch):
    # timing-attack n=6 joins two tables of 64 members into 4,096 members;
    # with a bound that the tables alone fill, the family is refined before
    # they are checked, to the same answer
    m, spec = generate("timing-attack", n=6)
    joined = synthesize(m, spec, mode="complete")
    monkeypatch.setattr(synthesis, "JOIN_BYTES", 16 * len(instantiate(spec, m).atoms) * 128 + 1)
    refined = synthesize(m, spec, mode="complete")
    monkeypatch.setattr(_Synthesizer, "_factors", lambda self: None)
    unjoined = synthesize(m, spec, mode="complete")
    assert joined.stats["factors"] == 2 and refined.stats["factors"] == 0
    assert refined.stats["enumerated_members"] == unjoined.stats["enumerated_members"] > 128
    members = [sorted(r for box in out.satisfying for r in product(*box.domains)) for out in (joined, refined)]
    assert members[0] == members[1] and len(members[0]) == 2510


def test_limits_stop_the_factor_tables(monkeypatch):
    m, spec = generate("timing-attack", n=6)
    base = synthesize(m, spec, mode="complete")
    # the root's analysis, the first factor's 64 members, then 5 of the
    # second's: the limit stops at its member exactly
    with pytest.raises(LimitExceeded) as e:
        synthesize(m, spec, mode="complete", max_iters=70)
    stats = e.value.stats
    assert set(stats) == set(base.stats)
    assert stats["verdict"] == "unknown" and stats["factors"] == 2
    assert stats["iterations"] == 70 and stats["enumerated_members"] == 69
    assert stats["explored"] == stats["satisfying_count"] == 0
    # the engine's clock moves one second per batch, and each factor's
    # table is one batch: a limit of 1.5 s runs out on the second table
    batches = _count_batches(monkeypatch)
    monkeypatch.setattr(synthesis, "time", SimpleNamespace(perf_counter=lambda: float(len(batches))))
    with pytest.raises(LimitExceeded) as e:
        synthesize(m, spec, mode="complete", time_limit=1.5)
    stats = e.value.stats
    assert batches == [64, 64]
    assert set(stats) == set(base.stats)
    assert stats["factors"] == 2 and stats["enumerated_members"] == 64


# ---------------------------------------------------------------------------
# members checked in chunks

BINARY_K = 12  # 4,096 members, several chunks at the family's model size


def _chunk(m, spec):
    space = build_parameter_space(m, spec.n_controllers, spec.constraints)
    return compile_model(m, space, instantiate(spec, m)).chunk


def _member(m, j):
    space = build_parameter_space(m, 1)
    return next(islice(product(*space.domains), j, None))


BOXES = [
    ((0, 1), (0, 1, 2), (1,)),
    ((1,), (2,), (0,)),  # a box of one member
    ((0, 2), (1, 3), (0, 1, 2, 4)),  # larger than most chunks below
    ((1,), (0, 1), (3,)),
]


@pytest.mark.parametrize("limit", [None, 5, 1])
@pytest.mark.parametrize("size", [1, 2, 5, 7, 64])
def test_member_chunks_follow_product_order(monkeypatch, size, limit):
    # with a small index limit, a box's leading classes are stepped through
    # in Python, as for a box with more members than an intp can number,
    # and each step may end in a part-filled chunk
    if limit is not None:
        monkeypatch.setattr(synthesis, "_INDEX_LIMIT", limit)
    for box in BOXES:
        chunks = list(member_chunks(box, size))
        assert all(c.dtype == np.intp and c.shape[1] == 3 for c in chunks)
        assert all(0 < len(c) <= size for c in chunks)
        if limit is None:
            assert [len(c) for c in chunks[:-1]] == [size] * (len(chunks) - 1)
        assert [tuple(r) for c in chunks for r in c.tolist()] == list(product(*box))


def test_member_chunks_of_a_box_past_the_index_range():
    box = ((0, 1),) * 70 + ((0, 1, 2),)  # 3 * 2**70 members
    got = [r for c in islice(member_chunks(box, 100), 2) for r in c.tolist()]
    assert got == [list(r) for r in islice(product(*box), 200)]


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
    # in complete mode every member below settles as a satisfying box
    with pytest.raises(LimitExceeded) as e:
        synthesize(m, binary_spec(0.0), mode="complete", method="oracle", max_iters=limit)
    stats = e.value.stats
    assert stats["iterations"] == stats["enumerated_members"] == stats["satisfying_count"] == limit


def test_oracle_checks_members_in_chunks_only(monkeypatch):
    m, spec = generate("timing-attack", n=6)
    batches, imposed = _count_batches(monkeypatch), []
    monkeypatch.setattr(synthesis, "impose", lambda *args: imposed.append(args))
    out = synthesize(m, spec, mode="complete", method="oracle")
    size = out.stats["family_size"]
    assert size == 4096 and out.stats["enumerated_members"] == size == sum(batches)
    assert len(batches) <= math.ceil(size / _chunk(m, spec)) + 1
    assert imposed == []


def test_oracle_solves_are_its_batches(monkeypatch):
    m, spec = generate("maze-sd", variant="checkpoint")
    batches = _count_batches(monkeypatch)
    out = synthesize(m, spec, mode="optimal", method="oracle")
    queries = _Synthesizer(m, spec, "optimal", "oracle", None, None).compiled.solves
    assert len(batches) > 1 and queries > 1
    assert out.stats["solves"] == len(batches) * queries


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
