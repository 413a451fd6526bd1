import random
from itertools import product

import pytest

from hypersynth import (
    ConstraintError,
    Controller,
    SpecError,
    build_parameter_space,
    induce,
    node_restrict,
    root_node,
    split_node,
)
from hypersynth.family import (
    EMPTY_ASSIGNMENT,
    PartialAssignment,
    controller_box,
)
from hypersynth.specs import Obs, Same

from conftest import random_model


def test_unconstrained_space(notes_mdp):
    space = build_parameter_space(notes_mdp, 1)
    assert space.n_classes == 4
    assert space.family_size() == 4  # 2 * 2 * 1 * 1
    assert space.domains[space.class_index(0, 0)] == (0, 1)
    assert space.domains[space.class_index(0, 2)] == (0,)


def test_two_controller_space(notes_mdp):
    space = build_parameter_space(notes_mdp, 2)
    assert space.n_classes == 8
    assert space.family_size() == 16


def test_same_constraint_merges_across_controllers(notes_mdp):
    space = build_parameter_space(notes_mdp, 2, (Same(0, (0, 1)),))
    assert space.n_classes == 7
    assert space.family_size() == 8
    k = space.class_index(0, 0)
    assert k == space.class_index(1, 0)
    assert set(space.members[k]) == {(0, 0), (1, 0)}


def test_obs_constraint_merges_states(notes_mdp):
    space = build_parameter_space(notes_mdp, 1, (Obs((0, 1), 0),))
    assert space.n_classes == 3
    assert space.family_size() == 2
    assert space.class_index(0, 0) == space.class_index(0, 1)


def test_obs_requires_equal_menus(notes_mdp):
    with pytest.raises(ConstraintError):
        build_parameter_space(notes_mdp, 1, (Obs((0, 2), 0),))


def test_induce_respects_ties(notes_mdp):
    space = build_parameter_space(notes_mdp, 1, (Obs((0, 1), 0),))
    real = tuple(1 if len(d) > 1 else 0 for d in space.domains)
    ctrl = induce(space, real, 0)
    assert ctrl[0] == 1 and ctrl[1] == 1


def test_node_restrict_and_first_realisation(notes_mdp):
    space = build_parameter_space(notes_mdp, 1)
    node = root_node(space)
    k = space.class_index(0, 0)
    child = node.with_domain(k, (1,))
    assert node_restrict(notes_mdp, node, 0) == [(0, 1), (0, 1), (0,), (0,)]
    # the box's menus hold the model's own ordinals
    assert node_restrict(notes_mdp, child, 0) == [(1,), (0, 1), (0,), (0,)]
    real = child.first_realisation()
    assert real[k] == 1
    assert child.contains(real)
    assert not node.with_domain(k, (0,)).contains(real)


def test_split_node_partitions():
    rng = random.Random(5)
    for _ in range(100):
        m = random_model(rng)
        space = build_parameter_space(m, rng.randint(1, 2))
        node = root_node(space)
        # randomly narrow a few classes
        for k in range(space.n_classes):
            if len(node.domain(k)) > 1 and rng.random() < 0.3:
                keep = sorted(
                    rng.sample(node.domain(k), rng.randint(1, len(node.domain(k))))
                )
                node = node.with_domain(k, tuple(keep))
        splittable = [k for k in range(space.n_classes) if len(node.domain(k)) > 1]
        if not splittable:
            continue
        k = rng.choice(splittable)
        acts = sorted(rng.sample(node.domain(k), rng.randint(1, len(node.domain(k)))))
        children = split_node(node, k, acts)
        assert sum(c.size() for c in children) == node.size()
        # membership: every member of the parent is in exactly one child
        for _ in range(20):
            real = tuple(rng.choice(node.domain(i)) for i in range(space.n_classes))
            assert sum(1 for c in children if c.contains(real)) == 1


def test_partial_assignment_merge():
    a = PartialAssignment.of({0: 1, 2: 0})
    b = PartialAssignment.of({2: 0, 3: 1})
    c = a.merge(b)
    assert c is not None and c.as_dict() == {0: 1, 2: 0, 3: 1}
    d = PartialAssignment.of({2: 1})
    assert a.merge(d) is None
    assert EMPTY_ASSIGNMENT.merge(a).as_dict() == a.as_dict()


def test_partial_assignment_complete(notes_mdp):
    space = build_parameter_space(notes_mdp, 1)
    node = root_node(space)
    pa = PartialAssignment.of({space.class_index(0, 1): 1})
    real = pa.complete(node)
    assert real[space.class_index(0, 1)] == 1
    assert real[space.class_index(0, 0)] == node.domain(space.class_index(0, 0))[0]


def test_consistency_conflicts_and_box(notes_mdp):
    space = build_parameter_space(notes_mdp, 1, (Obs((0, 1), 0),))
    # a controller assigning different actions to tied states conflicts
    # once both states are relevant, and then has no box
    ctrl = Controller((0, 1, 0, 0))
    k = space.class_index(0, 0)
    assert controller_box(space, 0, ctrl, frozenset({0, 1})) == (None, {k: (0, 1)})
    # with only one tied state relevant there is no conflict, and the box
    # pins the class to that state's action
    box, conflicts = controller_box(space, 0, ctrl, frozenset({1}))
    assert conflicts == {}
    assert box is not None and box.as_dict()[k] == 1


def test_family_sizes_match_enumeration():
    rng = random.Random(11)
    for _ in range(30):
        m = random_model(rng, max_states=5, max_actions=3, max_multi=2)
        space = build_parameter_space(m, 1)
        count = sum(1 for _ in product(*space.domains))
        assert count == space.family_size()


@pytest.mark.parametrize(
    "n_controllers, constraints, error",
    [
        (1, None, SpecError),
        (1, 5, SpecError),
        (1.5, (), ConstraintError),
        ("2", (), ConstraintError),
        (True, (), ConstraintError),
        (False, (), ConstraintError),
    ],
)
def test_malformed_counts_and_constraint_containers_raise_package_errors(
    notes_mdp, n_controllers, constraints, error
):
    with pytest.raises(error):
        build_parameter_space(notes_mdp, n_controllers, constraints)
