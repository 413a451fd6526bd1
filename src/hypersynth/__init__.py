"""Deductive controller-family synthesis for probabilistic hyperproperties.

Models are explicit MDPs whose per-state action menus span a finite family
of memoryless deterministic controllers, optionally tied together by
structural constraints.  Specifications quantify controllers
existentially and initial states over them, then compare reachability
probabilities and expected rewards across executions.  The synthesis
engine decides feasibility, enumerates all satisfying members, or finds a
maximally different satisfying controller pair, by interval abstraction
refinement with optional conflict-based pruning.
"""

from .analysis import (
    CheckResult,
    check_mc,
    expected_reward,
    expected_visits,
    extremal_reach,
    extremal_reward,
    reach_probs,
)
from .benchmarks import BENCHMARKS, generate
from .errors import (
    ConstraintError,
    HypersynthError,
    LimitExceeded,
    ModelError,
    ParseError,
    SpecError,
)
from .family import (
    FamilyNode,
    ParameterSpace,
    build_parameter_space,
    induce,
    node_restrict,
    root_node,
    split_node,
)
from .model import (
    Controller,
    Mdp,
    impose,
    make_mdp,
    unfold_memory,
)
from .specs import (
    DEFAULT_EQ_EPS,
    HyperSpec,
    Obs,
    Quantifier,
    Same,
    SpecAtom,
    SpecQuery,
    lift_spec_memory,
    validate_spec,
)
from .synthesis import (
    SatisfyingSet,
    SynthesisOutcome,
    instantiate,
    synthesize,
)
from .textio import (
    parse_controller,
    parse_model,
    parse_spec,
    write_model,
    write_spec,
    write_stats,
)

__version__ = "0.1.0"

__all__ = [
    "BENCHMARKS",
    "CheckResult",
    "ConstraintError",
    "Controller",
    "DEFAULT_EQ_EPS",
    "FamilyNode",
    "HyperSpec",
    "HypersynthError",
    "LimitExceeded",
    "Mdp",
    "ModelError",
    "Obs",
    "ParameterSpace",
    "ParseError",
    "Quantifier",
    "Same",
    "SatisfyingSet",
    "SpecAtom",
    "SpecError",
    "SpecQuery",
    "SynthesisOutcome",
    "build_parameter_space",
    "check_mc",
    "expected_reward",
    "expected_visits",
    "extremal_reach",
    "extremal_reward",
    "generate",
    "impose",
    "induce",
    "instantiate",
    "lift_spec_memory",
    "make_mdp",
    "node_restrict",
    "parse_controller",
    "parse_model",
    "parse_spec",
    "reach_probs",
    "root_node",
    "split_node",
    "synthesize",
    "unfold_memory",
    "validate_spec",
    "write_model",
    "write_spec",
    "write_stats",
]
