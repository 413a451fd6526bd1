import math
import random

import pytest

from hypersynth import (
    Controller,
    ModelError,
    impose,
    make_mc,
    make_mdp,
    unfold_memory,
)
from hypersynth.errors import InvalidControllerError, MissingRewardsError
from hypersynth.model import MEMORY_BITS_CAP

from conftest import random_model


def test_make_mdp_basic(notes_mdp):
    m = notes_mdp
    assert m.num_states == 4
    assert m.num_actions(0) == 2
    assert m.num_actions(2) == 1
    assert m.row(0, 1) == ((2, 0.4), (3, 0.6))
    assert m.action_name(0, 0) == "a"
    assert m.action_name(2, 0) is None
    assert m.has_label("target")
    assert m.target("target") == {2}
    assert not m.has_rewards


def test_row_normalization():
    # within tolerance the row is renormalised to sum exactly
    m = make_mdp([[[(0, 1.0 / 3), (1, 1.0 / 3), (2, 1.0 / 3)]], [[(1, 1.0)]], [[(2, 1.0)]]])
    total = sum(p for _, p in m.row(0, 0))
    assert math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-12)


def test_bad_rows_rejected():
    with pytest.raises(ModelError):
        make_mdp([[[(0, 0.5)]]])  # sums to 0.5
    with pytest.raises(ModelError):
        make_mdp([[[(0, 0.5), (1, 0.6)]]])  # sums to 1.1
    with pytest.raises(ModelError):
        make_mdp([[[(5, 1.0)]]])  # successor out of range
    with pytest.raises(ModelError):
        make_mdp([[]])  # state without actions
    with pytest.raises(ModelError):
        make_mdp([[[(0, 1.0)]]], labels={"x": (7,)})  # label out of range


def test_duplicate_successors_rejected():
    with pytest.raises(ModelError):
        make_mdp([[[(0, 0.25), (0, 0.25), (1, 0.5)]], [[(1, 1.0)]]])


def test_rewards_shapes():
    trans = [[[(1, 1.0)], [(0, 0.5), (1, 0.5)]], [[(1, 1.0)]]]
    m = make_mdp(trans, rewards={(0, 0): 1.0, (0, 1): 2.0, (1, 0): 0.0})
    assert m.has_rewards
    assert m.reward(0, 1) == 2.0
    m2 = make_mdp(trans, rewards=[[1.0, 2.0], [0.0]])
    assert m2.reward(0, 1) == 2.0
    # dict rewards default omitted pairs to zero
    m3 = make_mdp(trans, rewards={(0, 1): 2.0})
    assert m3.reward(0, 0) == 0.0
    with pytest.raises(ModelError):
        make_mdp(trans, rewards={(0, 0): 1.0, (0, 1): -2.0, (1, 0): 0.0})


def test_impose_and_choices(notes_mdp):
    mc = impose(notes_mdp, Controller((1, 1, 0, 0)))
    assert mc.num_states == 4
    assert mc.trans[0] == ((2, 0.4), (3, 0.6))
    with pytest.raises(InvalidControllerError):
        impose(notes_mdp, Controller((2, 0, 0, 0)))
    with pytest.raises(InvalidControllerError):
        impose(notes_mdp, Controller((0, 0, 0)))


def test_impose_carries_rewards():
    trans = [[[(1, 1.0)], [(0, 0.5), (1, 0.5)]], [[(1, 1.0)]]]
    m = make_mdp(trans, rewards=[[1.0, 2.0], [0.0]])
    mc = impose(m, Controller((1, 0)))
    assert mc.rewards == (2.0, 0.0)


def test_make_mc():
    mc = make_mc([[(1, 1.0)], [(1, 1.0)]], labels={"end": (1,)})
    assert mc.num_states == 2
    assert mc.trans[0] == ((1, 1.0),)


def test_reward_query_needs_rewards(notes_mdp):
    assert not notes_mdp.has_rewards
    with pytest.raises(MissingRewardsError):
        notes_mdp.reward(0, 0)


def test_unfold_memory_shape(notes_mdp):
    u = unfold_memory(notes_mdp, 1)
    assert u.num_states == notes_mdp.num_states * 2
    # every action splits per target memory value
    assert u.num_actions(0) == notes_mdp.num_actions(0) * 2
    # transition probabilities are preserved, successors land on the
    # chosen memory copy
    row = u.row(0, 0)  # action (a=0, write=0)
    assert row == tuple((t * 2, p) for t, p in notes_mdp.row(0, 0))
    row1 = u.row(0, 1)  # action (a=0, write=1)
    assert row1 == tuple((t * 2 + 1, p) for t, p in notes_mdp.row(0, 0))
    # labels lift to all copies
    assert u.target("target") == {4, 5}
    # memory-tagged action names
    assert u.action_name(0, 0) == "a@0"
    assert u.action_name(0, 1) == "a@1"


def test_unfold_memory_cap(notes_mdp):
    with pytest.raises(ModelError):
        unfold_memory(notes_mdp, MEMORY_BITS_CAP + 1)
    assert unfold_memory(notes_mdp, 0) is notes_mdp


def test_random_models_well_formed():
    for seed in range(40):
        m = random_model(random.Random(seed))
        for s in range(m.num_states):
            assert m.num_actions(s) >= 1
            for a in range(m.num_actions(s)):
                row = m.row(s, a)
                assert sum(p for _, p in row) == pytest.approx(1.0, abs=1e-12)
                assert all(0 <= t < m.num_states for t, _ in row)
                assert all(p > 0 for _, p in row)
