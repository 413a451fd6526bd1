"""The benchmark's workloads, their pinned answers and the answer check.

Every instance is handed to the package as text (a written model and a
written spec), as a user would hand it over; the benchmark parses the text
during set-up and times the ``synthesize`` call on the parsed objects.

Expected answers are pinned here, not recomputed per run:

- the verdict of every call;
- in complete mode, the number of satisfying members and a SHA-256 digest of
  their sorted list, both taken once from the oracle's enumeration;
- in optimal mode, the optimal value.

Every witness a call returns is also re-evaluated with the rational solves
of ``hypersynth.exact``.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from hypersynth import (
    generate,
    impose,
    instantiate,
    make_mdp,
    write_model,
    write_spec,
)
from hypersynth.exact import expected_reward_exact, reach_probs_exact
from hypersynth.formulas import Query

WORKLOADS = ("complete", "search", "oracle")


@dataclass(frozen=True)
class Expect:
    """The right answer of one call.  ``error`` names an exception class
    the call must raise; otherwise the call must return ``verdict``."""

    verdict: str | None = None
    members: tuple[int, str] | None = None  # complete mode: (count, digest)
    optimal: int | None = None
    error: str | None = None


@dataclass(frozen=True)
class Instance:
    problem: str  # model, spec and mode; the same problem may recur under another method
    method: str
    mode: str
    model_text: str
    spec_text: str
    expect: Expect
    why: str
    # set when the call is known to fail at the commit that pinned it; its
    # failures lower correct_rate but are not counted in ``failed``
    defect: str | None = None

    @property
    def name(self) -> str:
        return f"{self.problem} [{self.method}]"


def members_digest(members) -> str:
    """SHA-256 of the sorted member list, one realisation per line."""

    text = "\n".join(" ".join(map(str, r)) for r in sorted(members))
    return hashlib.sha256(text.encode()).hexdigest()


# Pinned from method="oracle" at the commit that introduced the benchmark.
TIMING_6_MEMBERS = (2510, "cc5827fb90e6f5ca359db2d0a4e3dc6e84837b51ab3f78d2807db8444cfc2f2a")
THREAD_4_8_MEMBERS = (3302, "451b8af91b831cad6588fa7914c9c51c68d17f485cb16a125841701722f8da58")

HOSTILE_SPEC = "exists sigma : forall s in {0} [sigma] : P(s, F goal) >= 0.3\n"
# Value iteration stops early (small band) or hits its sweep limit (large
# band) on the near-1 self-loop.
HOSTILE_DEFECT = "ROADMAP item 2"


def hostile_model_text(eps: float) -> str:
    """The 3-state near-1 self-loop model.  Action 1 at state 0 loops with
    1 - 2*eps and escapes to goal and sink with eps each, so it reaches the
    goal with probability 1/2; action 0 reaches it with 0.1 only."""

    m = make_mdp(
        [
            [[(1, 0.1), (2, 0.9)], [(0, 1.0 - 2.0 * eps), (1, eps), (2, eps)]],
            [[(1, 1.0)]],
            [[(2, 1.0)]],
        ],
        labels={"goal": (1,)},
    )
    return write_model(m)


def hostile_eps(seed: int) -> tuple[float, float]:
    """Escape masses for the hostile instances, log-uniform in two bands:
    [1e-13, 1e-10], where value iteration stops early, and [2e-10, 1e-8],
    where it runs into its sweep limit."""

    rng = random.Random(seed)
    return 10 ** rng.uniform(-13, -10), 10 ** rng.uniform(math.log10(2e-10), -8)


def _generated(bench: str, mode: str, method: str, expect: Expect, why: str, **params):
    m, spec = generate(bench, **params)
    args = " ".join(f"{k}={v}" for k, v in params.items())
    problem = f"{bench}{' ' + args if args else ''} {mode}"
    return Instance(problem, method, mode, write_model(m), write_spec(spec), expect, why)


def _hostile(band: str, eps: float, method: str) -> Instance:
    return Instance(
        f"self-loop eps={eps:.3e} feasibility",
        method,
        "feasibility",
        hostile_model_text(eps),
        HOSTILE_SPEC,
        Expect("feasible"),
        f"Near-1 self-loop, {band} band: the answer is feasible (1/2 via action 1).",
        HOSTILE_DEFECT,
    )


FEASIBLE = Expect("feasible")
UNFEASIBLE = Expect("unfeasible")
CHECKPOINT_OPTIMUM = Expect("feasible", optimal=3)


def build(workload: str, seed: int) -> list[Instance]:
    """The workload's calls, in order.  The seed draws the escape mass of
    the hostile instances in ``search``; the other instances are fixed."""

    if workload == "complete":
        return [
            _generated(
                "timing-attack", "complete", "ar", Expect("feasible", TIMING_6_MEMBERS),
                "Boxes accepted wholesale and rechecked; extremal reward solves "
                "dominate, and iterations exceed the family size.",
                n=6,
            ),
            _generated(
                "thread-scheduling", "complete", "hybrid", Expect("feasible", THREAD_4_8_MEMBERS),
                "Certificate-driven pruning in complete mode; grow_conflict takes "
                "about half the time.",
                h1=4, h2=8,
            ),
        ]
    if workload == "search":
        eps_small, eps_large = hostile_eps(seed)
        return [
            _generated(
                "knuth-yao-pc", "feasibility", "ar", FEASIBLE,
                "474,552 members decided in 140 iterations; box restriction "
                "is a visible share.",
                n=2,
            ),
            _generated(
                "knuth-yao-pc", "feasibility", "hybrid", FEASIBLE,
                "Witness search where certificate growth costs more than it saves.",
                n=1,
            ),
            _generated(
                "maze-sd", "optimal", "ar", CHECKPOINT_OPTIMUM,
                "The only case with obs constraints and ~eps equality; optimal mode.",
                variant="checkpoint",
            ),
            _generated(
                "maze-sd", "optimal", "hybrid", CHECKPOINT_OPTIMUM,
                "The optimal-mode case again under hybrid.",
                variant="checkpoint",
            ),
            _generated(
                "thread-scheduling", "feasibility", "ar", FEASIBLE,
                "A family of about 1e9 decided in one iteration.",
            ),
            _hostile("small", eps_small, "ar"),
            _hostile("small", eps_small, "hybrid"),
            _hostile("large", eps_large, "ar"),
            _hostile("large", eps_large, "hybrid"),
        ]
    if workload == "oracle":
        why = "Brute force on an instance AR also decides: member checks only."
        return [
            _generated(
                "maze-sd", "feasibility", "oracle", UNFEASIBLE,
                "Unfeasible, so every one of the 16,384 members is checked; AR takes "
                "over 30 s here and is left out of the benchmark for that reason.",
                variant="simple",
            ),
            _generated("timing-attack", "complete", "oracle", Expect("feasible", TIMING_6_MEMBERS), why, n=6),
            _generated("thread-scheduling", "complete", "oracle", Expect("feasible", THREAD_4_8_MEMBERS), why, h1=4, h2=8),
            _generated("knuth-yao-pc", "feasibility", "oracle", FEASIBLE, why, n=1),
            _generated("maze-sd", "optimal", "oracle", CHECKPOINT_OPTIMUM, why, variant="checkpoint"),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose one of {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# answer check


def exact_holds(m, spec, witness) -> bool:
    """Re-evaluate the instantiated formula on the witness controllers with
    rational chain solves; unreached reward targets count as +inf."""

    formula = instantiate(spec, m)
    solved: dict = {}

    def value(side):
        if not isinstance(side, Query):
            return Fraction(side)
        key = (side.kind, side.slot, side.target)
        if key not in solved:
            mc = impose(m, witness[side.slot])
            target = mc.target(side.target)
            solve = reach_probs_exact if side.kind == "reach" else expected_reward_exact
            solved[key] = solve(mc, target)
        v = solved[key][side.state]
        return math.inf if v is None else v

    truth = {}
    for i, atom in enumerate(formula.atoms):
        bound = value(atom.right) + Fraction(atom.offset)
        lv = value(atom.left)
        truth[i] = lv < bound if atom.strict else lv <= bound
    return formula.evaluate(truth)


def check(inst: Instance, m, spec, outcome, error) -> str | None:
    """None when the call's result is right, else what is wrong with it."""

    want = inst.expect
    if error is not None:
        if want.error and any(c.__name__ == want.error for c in type(error).__mro__):
            return None
        return f"raised {type(error).__name__}: {error}"
    if want.error:
        return f"returned {outcome.verdict}, expected {want.error}"
    if outcome.verdict != want.verdict:
        return f"verdict {outcome.verdict}, expected {want.verdict}"
    if want.members is not None:
        members = [r for box in outcome.satisfying for r in itertools.product(*box.domains)]
        if len(set(members)) != len(members):
            return "satisfying boxes overlap"
        got = (len(members), members_digest(members))
        if got != want.members:
            return f"satisfying set {got[0]} members (digest {got[1][:12]}), expected {want.members[0]}"
    if want.optimal is not None and outcome.optimal_value != want.optimal:
        return f"optimal value {outcome.optimal_value}, expected {want.optimal}"
    if outcome.verdict == "feasible":
        try:
            holds = exact_holds(m, spec, outcome.witness)
        except Exception as e:  # a malformed witness is a wrong answer, not a crash
            return f"witness could not be checked: {type(e).__name__}: {e}"
        if not holds:
            return "witness fails the exact check"
    return None
