import json
import math
import random

import pytest

from hypersynth import (
    ParseError,
    parse_controller,
    parse_model,
    parse_spec,
    write_model,
    write_spec,
    write_stats,
)
from hypersynth.specs import Obs, Quantifier, Same, validate_spec
from hypersynth.errors import SpecError

from conftest import random_model, random_spec


MODEL_TEXT = """\
# two decision states, a target and a sink
mdp
states 4
action 0 0 a
action 0 1 b
action 1 0 a
action 1 1 b
trans 0 0 2 0.7
trans 0 0 3 0.3
trans 0 1 2 0.4
trans 0 1 3 0.6
trans 1 0 2 0.65
trans 1 0 3 0.35
trans 1 1 2 1/2
trans 1 1 3 0.5
trans 2 0 2 1.0
trans 3 0 3 1.0
label target 2
"""


def test_parse_model_basic():
    m = parse_model(MODEL_TEXT)
    assert m.num_states == 4
    assert m.num_actions(0) == 2
    assert m.row(0, 0) == ((2, 0.7), (3, 0.3))
    assert m.row(1, 1) == ((2, 0.5), (3, 0.5))  # fraction syntax
    assert m.action_name(0, 1) == "b"
    assert m.target("target") == {2}


@pytest.mark.parametrize(
    "mutation, fragment",
    [
        ("trans 0 0 2 0.7", "sum"),  # drop one line: row sums to 0.3
        ("states 4", "states 3"),  # state out of range
        ("label target 2", "label target 9"),  # label out of range
        ("trans 3 0 3 1.0", "trans 3 0 3 2.0"),  # bad probability
        ("mdp", "mdq"),  # wrong header
    ],
)
def test_parse_model_rejects(mutation, fragment):
    bad = MODEL_TEXT.replace(mutation, fragment if fragment != "sum" else "")
    with pytest.raises(ParseError):
        parse_model(bad)


def test_parse_error_carries_position():
    bad = "mdp\nstates 1\ntrans 0 0 0 frog\n"
    with pytest.raises(ParseError) as e:
        parse_model(bad, source="m.txt")
    err = e.value
    assert err.source == "m.txt"
    assert err.line == 3
    assert "m.txt:3:" in str(err)
    # checks made once the whole model is read point at the line they name
    for text, where in (
        ("trans 0 0 0 1\naction 0 3 x\n", "m.txt:5:1: 'action' key (0, 3) names no action"),
        ("trans 0 0 0 1\n  rew 0 2 1\n", "m.txt:5:3: 'rew' key (0, 2) names no action"),
        # ordinals 0, 2, 3 of three actions: 3 is out of place, first named on line 5
        (
            "trans 0 0 0 1\ntrans 0 3 0 0.5\ntrans 0 2 0 1\ntrans 0 3 1 0.5\n",
            "m.txt:5:1: state 0: action ordinals not contiguous from 0",
        ),
    ):
        with pytest.raises(ParseError) as e:
            parse_model("mdp\nstates 2\ntrans 1 0 1 1\n" + text, source="m.txt")
        assert where in str(e.value)
    # a digit that is not a decimal digit is no state count
    with pytest.raises(ParseError) as e:
        parse_model("mdp\nstates \u00b2\n", source="m.txt")
    assert "m.txt:2:8: expected state count" in str(e.value)
    # a literal beyond float range is rejected at its own token
    with pytest.raises(ParseError) as e:
        parse_spec("exists g : forall s in {0} [g] :\n P(s, F goal) = 0.4 ~1e400", source="s.spec")
    assert (e.value.line, e.value.col) == (2, 22)
    assert "s.spec:2:22: number '1e400' is too large" in str(e.value)


# each text breaks one rule; the error points at the item that breaks it
@pytest.mark.parametrize(
    "body, where",
    [
        ("states 0\n", "2:8: model needs at least one state"),
        ("states 2\ntrans 1 0 1 1\n", "2:8: state 0 has no actions"),
        ("states 2\ntrans 1 0 1 1\ntrans 0 0 0 1e-400\ntrans 0 0 1 1\n", "4:11: probability '1e-400' out of range"),
        ("states 1\ntrans 0 0 0 1e400\n", "3:11: probability '1e400' out of range"),
        ("states 1\ntrans 0 0 0 1/0\n", "3:11: malformed probability '1/0'"),
        ("states 2\ntrans 1 0 1 1\ntrans 0 0 1 0.5\ntrans 0 0 1 0.5\n", "5:11: duplicate successor 1"),
        ("states 2\ntrans 1 0 1 1\ntrans 0 0 2 1\n", "4:11: successor 2 out of range"),
        ("states 2\ntrans 1 0 1 1\ntrans 0 0 1 0.25\n\ntrans 0 0 0 0.25\n", "4:1: row sums to 0.5"),
        ("states 2\ntrans 1 0 1 1\ntrans 0 0 0 1\nlabel goal 1 5\n", "5:14: label 'goal' state 5 out of range"),
        ("states 1\ntrans 0 0 0 1\nrew 0 0 1e400\n", "4:1: reward '1e400' out of range"),
        ("states 1\ntrans 0 0 0 1\nrew 0 0 nan\n", "4:1: malformed reward 'nan'"),
        ("states 1\ntrans 0 0 0 1\n rew 0 0 -1\n", "4:2: reward '-1' out of range"),
    ],
)
def test_parse_model_points_at_the_offending_item(body, where):
    with pytest.raises(ParseError) as e:
        parse_model("mdp\n" + body, source="m.txt")
    assert e.value.line >= 1 and e.value.col >= 1
    assert str(e.value).startswith("m.txt:" + where), str(e.value)


def test_model_roundtrip_exact():
    for seed in range(100):
        m = random_model(random.Random(seed))
        text = write_model(m)
        m2 = parse_model(text)
        assert m2.num_states == m.num_states
        assert m2.trans == m.trans  # dyadic probabilities survive bit-exact
        assert m2.labels == m.labels
        assert m2.rewards == m.rewards
        assert m2.action_names == m.action_names


SPEC_TEXT = """\
exists sigma1, sigma2 :
same(0, {sigma1, sigma2}) & obs({0, 1}, sigma1) ;
forall s1 in {0, 1} [sigma1], exists s2 in {2} [sigma2] :
P(s1, F goal) <= P(s2, F goal) & !(R(s1, F mark) > 3.5 | P(s2, F goal) = 0.5 ~0.01)
"""


def test_parse_spec_basic():
    spec = parse_spec(SPEC_TEXT)
    assert spec.controller_names == ("sigma1", "sigma2")
    assert spec.constraints == (Same(0, (0, 1)), Obs((0, 1), 0))
    assert spec.quantifiers[0] == Quantifier("forall", "s1", (0, 1), 0)
    assert spec.quantifiers[1] == Quantifier("exists", "s2", (2,), 1)
    root = spec.formula
    assert root[0] == "and"
    assert root[1][1][0] == "not"


def test_spec_roundtrip():
    spec = parse_spec(SPEC_TEXT)
    text = write_spec(spec)
    assert parse_spec(text) == spec
    # and the writer is a fixpoint
    assert write_spec(parse_spec(text)) == text


def test_spec_roundtrip_random():
    count = 0
    for seed in range(150):
        rng = random.Random(seed)
        m = random_model(rng, rewards=True)
        spec = random_spec(rng, m)
        try:
            validate_spec(spec)
        except SpecError:
            continue
        count += 1
        text = write_spec(spec)
        assert parse_spec(text) == spec, seed
    assert count > 100


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("exists : forall s in {0} [g] : P(s, F goal) <= 1", "expected an identifier"),
        ("exists g : forall s in {0} [h] : P(s, F goal) <= 1", "unknown controller"),
        ("exists g : forall s in {0} [g] : P(t, F goal) <= 1", "t"),
        ("exists g : forall s in {0} [g] : P(s, F goal) < ", "end of input"),
        # the end of input is where the text ends, past a trailing comment
        ("exists g : forall s in {0} [g] :\n P(s, F goal) < # cut", "2:22: expected an identifier"),
        ("exists g : forall s in {0} [g] : P(s, F goal) <= 1 extra", "trailing"),
        ("exists g : forall s in {0} [g] : P(s, F goal) <= 2.0", "1:34: probability bound"),
        ("exists g : forall s in {0} [g] : P(s, F goal) < 1 ~0.1", "~"),
        ("exists forall : forall s in {0} [forall] : P(s, F goal) <= 1", "reserved"),
        ("exists g : forall s in {0} [g], forall s in {1} [g] : P(s, F goal) <= 1", "bound twice"),
        ("exists g : forall s in {0} [g] : P(s, F goal) <= R(s, F goal)", "1:34: cannot compare"),
        ("exists g : forall s in {0} [g] : P(s, F goal) = 0.4 ~1e400", "too large"),
        ("exists g : forall s in {0} [g] : P(s, F goal) >= 1e400", "too large"),
        ("exists g : same(3, {g}) ; forall s in {0} [g] : P(s, F goal) <= 1", "1:12: same()"),
        ("exists g : obs({1}, g) ; forall s in {0} [g] : P(s, F goal) <= 1", "1:12: obs()"),
    ],
)
def test_parse_spec_rejects(text, fragment):
    # a fragment starting with line:col also pins where the error points
    with pytest.raises(ParseError) as e:
        parse_spec(text)
    assert fragment.lower() in str(e.value).lower()


def test_deep_nesting_rejected():
    text = (
        "exists g : forall s in {0} [g] : "
        + "(" * 300
        + "P(s, F goal) <= 1"
        + ")" * 300
    )
    with pytest.raises(ParseError):
        parse_spec(text)


def test_parse_controller_file():
    m = parse_model(MODEL_TEXT)
    got = parse_controller("0 b\n1 1\n# comment\n\n3 0\n", m)
    assert got == {0: 1, 1: 1, 3: 0}
    with pytest.raises(ParseError):
        parse_controller("0 a\n0 b\n", m)  # duplicate state
    with pytest.raises(ParseError):
        parse_controller("x a\n", m)
    # each action resolves against the model at its own token
    for text, where in (
        ("0 a\n1  zigzag\n", "c.ctrl:2:4: state 1 has no action named 'zigzag'"),
        ("0 a\n\n 99 a\n", "c.ctrl:3:2: state 99 out of range"),
        ("0 7\n", "c.ctrl:1:3: state 0 has no action ordinal 7"),
        ("\u00b2 a\n", "c.ctrl:1:1: expected a state index, got '\u00b2'"),
        ("0 \u00b2\n", "c.ctrl:1:3: state 0 has no action named '\u00b2'"),
    ):
        with pytest.raises(ParseError) as e:
            parse_controller(text, m, source="c.ctrl")
        assert str(e.value) == where


def test_write_stats_shape():
    stats = {
        "verdict": "feasible",
        "mode": "feasibility",
        "method": "ar",
        "family_size": 156,
        "iterations": 3,
        "explored": 10,
        "explored_fraction": 0.5,
        "decided_families": 2,
        "avg_decided_family_size": 5.0,
        "splits": 1,
        "ce_prunes": 0,
        "enumerated_members": 4,
        "factors": 2,
        "analyses": 2,
        "settling_analyses": 1,
        "solves": 7,
        "wall_time_s": 0.5,
        "limit": None,
        "witness": None,
        "optimal_value": None,
        "atoms": [{"atom": "x", "lb_left": math.inf}],
    }
    text = write_stats(stats)
    data = json.loads(text)
    assert list(data)[0] == "schema_version"
    assert data["schema_version"] == 1
    assert data["family_size"] == 156
    assert list(data).index("enumerated_members") == list(data).index("ce_prunes") + 1
    keys = list(data)
    assert keys.index("factors") == keys.index("enumerated_members") + 1 == keys.index("analyses") - 1
    assert keys.index("settling_analyses") == keys.index("analyses") + 1
    assert data["factors"] == 2
    assert keys.index("solves") == keys.index("settling_analyses") + 1 == keys.index("wall_time_s") - 1
    assert data["atoms"][0]["lb_left"] == "inf"
    # key order is stable
    assert text == write_stats(dict(reversed(list(stats.items()))))
