import math
import random
import string
from fractions import Fraction

import pytest

from hypersynth import (
    Controller,
    ModelError,
    Mdp,
    impose,
    lift_spec_memory,
    make_mdp,
    parse_model,
    unfold_memory,
    write_model,
)
from hypersynth.errors import InvalidControllerError, MissingRewardsError
from hypersynth.model import MEMORY_BITS_CAP

from conftest import notes_example, random_model


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


# one bad input each; where names the item that breaks the rule
ONE = [[(0, 1.0)]]


@pytest.mark.parametrize(
    "kwargs, where",
    [
        ({"trans": []}, ("state", 0)),
        ({"trans": [ONE, []]}, ("state", 1)),
        ({"trans": [[[(0, "abc")]]]}, ("trans", 0, 0, 0)),
        ({"trans": [[[(0, "1/0")]]]}, ("trans", 0, 0, 0)),
        ({"trans": [[[(0, None)]]]}, ("trans", 0, 0, 0)),
        ({"trans": [[[(0, "1e400")]]]}, ("trans", 0, 0, 0)),
        ({"trans": [[[(0, "1e-400"), (1, 1.0)]], ONE]}, ("trans", 0, 0, 0)),
        ({"trans": [[[(0, 0.5), (0, 0.5)]]]}, ("trans", 0, 0, 0)),
        ({"trans": [[[(1.0, 1.0)]], ONE]}, ("trans", 0, 0, 1.0)),
        ({"trans": [[[(2, 1.0)]], ONE]}, ("trans", 0, 0, 2)),
        ({"trans": [[[(0, 0.5)]]]}, ("trans", 0, 0)),
        ({"trans": [[[]]]}, ("trans", 0, 0)),
        ({"trans": [ONE], "rewards": [[math.nan]]}, ("rew", 0, 0)),
        ({"trans": [ONE], "rewards": [[math.inf]]}, ("rew", 0, 0)),
        ({"trans": [ONE], "rewards": [["abc"]]}, ("rew", 0, 0)),
        ({"trans": [ONE], "rewards": {(0, 0): "1e400"}}, ("rew", 0, 0)),
        ({"trans": [ONE], "rewards": {(0, 0): -1.0}}, ("rew", 0, 0)),
        ({"trans": [ONE], "rewards": {(0, 5): 1.0}}, ("rew", 0, 5)),
        ({"trans": [ONE], "action_names": {(0, 5): "x"}}, ("action", 0, 5)),
        ({"trans": [ONE], "rewards": [[]]}, ("rew",)),
        ({"trans": [ONE], "rewards": []}, ("rew",)),
        ({"trans": [ONE], "action_names": [["a", "b"]]}, ("action",)),
        ({"trans": [ONE, ONE], "labels": {"x": (1.5,)}}, ("label", "x", 1.5)),
        ({"trans": [ONE], "labels": {"x": (0, 7)}}, ("label", "x", 7)),
        # names must be nonempty strs without whitespace or '#'
        ({"trans": [ONE], "labels": {"a": (0,), 5: (0,)}}, ("label", 5)),
        ({"trans": [ONE], "labels": {None: (0,)}}, ("label", None)),
        ({"trans": [ONE], "labels": {"": (0,)}}, ("label", "")),
        ({"trans": [ONE], "labels": {"a b": (0,)}}, ("label", "a b")),
        ({"trans": [ONE], "action_names": {(0, 0): ""}}, ("action", 0, 0)),
        ({"trans": [ONE], "action_names": {(0, 0): 5}}, ("action", 0, 0)),
        ({"trans": [ONE], "action_names": [["a#b"]]}, ("action", 0, 0)),
        ({"trans": [ONE], "action_names": [["a\nb"]]}, ("action", 0, 0)),
        # data of the wrong kind: trans, a menu, a row, labels, label states
        ({"trans": 5}, ("trans",)),
        ({"trans": [5]}, ("state", 0)),
        ({"trans": [[None]]}, ("trans", 0, 0)),
        ({"trans": [[[(0,)]]]}, ("trans", 0, 0)),
        ({"trans": [[[([0], 1.0)]]]}, ("trans", 0, 0)),
        ({"trans": [ONE], "labels": 5}, ("label",)),
        ({"trans": [ONE], "labels": {"a": 0}}, ("label", "a")),
        ({"trans": [ONE], "rewards": 5}, ("rew",)),
        ({"trans": [ONE], "action_names": [5]}, ("action",)),
    ],
)
def test_make_mdp_rejects_with_a_model_error_naming_the_item(kwargs, where):
    with pytest.raises(ModelError) as e:
        make_mdp(**kwargs)
    assert type(e.value) is ModelError
    assert e.value.where == where


@pytest.mark.parametrize(
    "labels, names, where",
    [
        ((), ((5,),), ("action", 0, 0)),
        ((), (("",),), ("action", 0, 0)),
        (((5, frozenset({0})),), None, ("label", 5)),
        ((("a b", frozenset({0})),), None, ("label", "a b")),
    ],
)
def test_write_model_rejects_names_with_a_model_error(labels, names, where):
    # an Mdp built without make_mdp can hold names no model text carries
    m = Mdp(1, ((((0, 1.0),),),), labels, None, names)
    with pytest.raises(ModelError) as e:
        write_model(m)
    assert e.value.where == where


NAME_CHARS = string.ascii_letters + string.digits + "_-.:@/!$%é"


def test_model_text_round_trips_random_names():
    for seed in range(300):
        rng = random.Random(seed)
        m = random_model(rng, rewards=rng.random() < 0.5)

        def name():
            return "".join(rng.choice(NAME_CHARS) for _ in range(rng.randint(1, 6)))

        labels = {name(): states for _, states in m.labels}
        names = [[rng.choice((None, name())) for _ in menu] for menu in m.trans]
        m = make_mdp(m.trans, labels, m.rewards, names)
        assert parse_model(write_model(m)) == m, seed


def test_make_mdp_reads_probability_strings_as_fractions():
    m = make_mdp([[[(0, "1/3"), (1, Fraction(2, 3))]], [[(1, "1e0")]]], rewards=[["1/4"], [0]])
    assert m.trans == (((((0, 1 / 3), (1, 2 / 3)),), (((1, 1.0),),)))
    assert m.rewards == ((0.25,), (0.0,))


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
    assert mc.trans[0] == (((2, 0.4), (3, 0.6)),)
    with pytest.raises(InvalidControllerError):
        impose(notes_mdp, Controller((2, 0, 0, 0)))
    with pytest.raises(InvalidControllerError):
        impose(notes_mdp, Controller((0, 0, 0)))


def test_impose_carries_rewards():
    trans = [[[(1, 1.0)], [(0, 0.5), (1, 0.5)]], [[(1, 1.0)]]]
    m = make_mdp(trans, rewards=[[1.0, 2.0], [0.0]])
    mc = impose(m, Controller((1, 0)))
    assert mc.rewards == ((2.0,), (0.0,))


def test_impose_gives_a_one_action_mdp():
    for seed in range(100):
        rng = random.Random(seed)
        m = random_model(rng)
        ctrl = Controller(tuple(rng.randrange(m.num_actions(s)) for s in range(m.num_states)))
        mc = impose(m, ctrl)
        assert isinstance(mc, Mdp)
        assert mc.num_states == m.num_states and mc.labels == m.labels
        assert mc.has_rewards == m.has_rewards
        for s, a in enumerate(ctrl.choices):
            assert mc.trans[s] == (m.trans[s][a],)
            assert mc.action_name(s, 0) == m.action_name(s, a)
            if m.has_rewards:
                assert mc.rewards[s] == (m.rewards[s][a],)
        # dyadic rows need no renormalising, so the chain round-trips as text
        assert parse_model(write_model(mc)) == mc, seed
    # a chain that picks no named action has no names, as make_mdp builds it
    m = make_mdp([[[(0, 1.0)], [(0, 1.0)]]], action_names=[[None, "b"]])
    mc = impose(m, Controller((0,)))
    assert mc.action_names is None
    assert parse_model(write_model(mc)) == mc


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
    with pytest.raises(ModelError):
        unfold_memory(notes_mdp, 1.5)
    assert unfold_memory(notes_mdp, 0) is notes_mdp


@pytest.mark.parametrize("bits", [-1, 1.5, True, MEMORY_BITS_CAP + 1])
def test_unfold_and_lift_reject_the_same_memory_bits(bits):
    m, spec = notes_example()
    errors = []
    for lift in (lambda: unfold_memory(m, bits), lambda: lift_spec_memory(spec, bits)):
        with pytest.raises(ModelError) as e:
            lift()
        errors.append((type(e.value), str(e.value)))
    assert errors[0] == errors[1]


def test_unfold_memory_copies_rewards():
    m = make_mdp([[[(1, 1.0)], [(0, 0.5), (1, 0.5)]], [[(1, 1.0)]]], rewards=[[1.0, 2.0], [0.0]])
    u = unfold_memory(m, 1)
    assert u.rewards == ((1.0, 1.0, 2.0, 2.0),) * 2 + ((0.0, 0.0),) * 2
    assert u.action_names is None


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
