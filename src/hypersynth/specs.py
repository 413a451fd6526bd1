"""Abstract syntax for hyperproperty specifications.

A specification existentially asks for n controllers subject to structural
constraints, then states a property over quantified initial states, each
state variable bound to one of the controllers.  The property body is a
Boolean combination of threshold and two-sided comparisons of reachability
probabilities or expected rewards.

Controllers are referenced by index here; the surface syntax uses names,
resolved by the parser.  Formula trees are nested tuples:
("atom", SpecAtom) | ("not", node) | ("and", (nodes...)) | ("or", (nodes...)).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

from .errors import SpecError

RELATIONS = ("<", "<=", "=", ">=", ">")

# Tolerance used for "=" atoms that do not carry their own ~eps suffix.
DEFAULT_EQ_EPS = 1e-6


@dataclass(frozen=True)
class Same:
    """The listed controllers agree on the action at one state."""

    state: int
    controllers: tuple[int, ...]


@dataclass(frozen=True)
class Obs:
    """One controller cannot distinguish the listed states."""

    states: tuple[int, ...]
    controller: int


@dataclass(frozen=True)
class Quantifier:
    kind: str  # "forall" | "exists"
    var: str
    domain: tuple[int, ...]
    controller: int


@dataclass(frozen=True)
class SpecQuery:
    kind: str  # "reach" | "reward"
    var: str
    target: str


@dataclass(frozen=True)
class SpecAtom:
    left: SpecQuery
    rel: str
    right: SpecQuery | float
    eps: float | None = None  # only for "=", None means the default


@dataclass(frozen=True)
class HyperSpec:
    controller_names: tuple[str, ...]
    constraints: tuple[Same | Obs, ...]
    quantifiers: tuple[Quantifier, ...]
    formula: tuple

    @property
    def n_controllers(self) -> int:
        return len(self.controller_names)


def formula_atoms(node):
    """All SpecAtoms in the tree, left to right, duplicates kept."""

    tag = node[0]
    if tag == "atom":
        yield node[1]
    elif tag == "not":
        yield from formula_atoms(node[1])
    elif tag in ("and", "or"):
        for c in node[1]:
            yield from formula_atoms(c)
    else:
        raise SpecError(f"malformed formula node {node!r}")


def validate_spec(spec: HyperSpec) -> None:
    """Internal consistency of a specification, independent of any model.

    State ranges and label existence are checked later, when the spec is
    paired with a model.
    """

    names = spec.controller_names
    if len(set(names)) != len(names):
        raise SpecError("duplicate controller names")
    if not names:
        raise SpecError("a specification needs at least one controller")

    seen_vars = {}
    for q in spec.quantifiers:
        if q.kind not in ("forall", "exists"):
            raise SpecError(f"unknown quantifier kind {q.kind!r}")
        if q.var in seen_vars:
            raise SpecError(f"state variable {q.var!r} bound twice")
        if not q.domain:
            raise SpecError(f"empty domain for state variable {q.var!r}")
        if not (0 <= q.controller < len(names)):
            raise SpecError(f"quantifier for {q.var!r} names an unknown controller")
        seen_vars[q.var] = q
    if not spec.quantifiers:
        raise SpecError("a specification needs at least one state quantifier")

    for c in spec.constraints:
        check_constraint(c, len(names))
    for atom in formula_atoms(spec.formula):
        check_atom(atom, seen_vars)


def check_constraint(c, n_controllers: int) -> None:
    """The rules of one structural constraint over n controllers."""

    if isinstance(c, Same):
        if len(set(c.controllers)) < 2:
            raise SpecError("same() needs at least two distinct controllers")
        if any(not (0 <= i < n_controllers) for i in c.controllers):
            raise SpecError("same() names an unknown controller")
    elif isinstance(c, Obs):
        if len(set(c.states)) < 2:
            raise SpecError("obs() needs at least two distinct states")
        if not (0 <= c.controller < n_controllers):
            raise SpecError("obs() names an unknown controller")
    else:
        raise SpecError(f"unknown constraint {c!r}")


def check_atom(atom: SpecAtom, variables) -> None:
    """The rules of one comparison, whose queries may name the given
    quantified state variables."""

    if not isinstance(atom.left, SpecQuery):
        raise SpecError("comparison left side must be a P or R query")
    sides = [atom.left]
    if isinstance(atom.right, SpecQuery):
        sides.append(atom.right)
        if atom.right.kind != atom.left.kind:
            raise SpecError("cannot compare a probability with a reward")
    else:
        bound = float(atom.right)
        if not isfinite(bound):
            raise SpecError("comparison bound must be finite")
        if atom.left.kind == "reach" and not (0.0 <= bound <= 1.0):
            raise SpecError(f"probability bound {bound} outside [0, 1]")
        if atom.left.kind == "reward" and bound < 0.0:
            raise SpecError(f"negative reward bound {bound}")
    for side in sides:
        if side.kind not in ("reach", "reward"):
            raise SpecError(f"unknown query kind {side.kind!r}")
        if side.var not in variables:
            raise SpecError(f"state variable {side.var!r} is not quantified")
    if atom.rel not in RELATIONS:
        raise SpecError(f"unknown relation {atom.rel!r}")
    if atom.eps is not None:
        if atom.rel != "=":
            raise SpecError("~eps tolerance is only meaningful for =")
        if not (atom.eps >= 0.0 and isfinite(atom.eps)):
            raise SpecError(f"bad equality tolerance {atom.eps!r}")


def check_against_model(spec: HyperSpec, m) -> None:
    """Range and label checks that need the model."""

    n = m.num_states
    for q in spec.quantifiers:
        for s in q.domain:
            if not (0 <= s < n):
                raise SpecError(f"initial state {s} of {q.var!r} out of range")
    for c in spec.constraints:
        states = (c.state,) if isinstance(c, Same) else c.states
        for s in states:
            if not (0 <= s < n):
                raise SpecError(f"constraint state {s} out of range")
    for atom in formula_atoms(spec.formula):
        sides = [atom.left] + ([atom.right] if isinstance(atom.right, SpecQuery) else [])
        for side in sides:
            if not m.has_label(side.target):
                raise SpecError(f"model has no label {side.target!r}")
            if side.kind == "reward" and not m.has_rewards:
                raise SpecError("reward query against a model without rewards")


def lift_spec_memory(spec: HyperSpec, bits: int) -> HyperSpec:
    """Restate a specification against a memory-unfolded model.

    Unfolding indexes states as s * 2**bits + v for memory value v.
    Quantified initial states move to their memory-0 copies; same and obs
    constraints replicate across every memory value so the structural
    requirements bind each copy the way they bound the original.  Labels
    are lifted by the unfolding itself, so atoms pass through unchanged.
    """

    if bits <= 0:
        return spec
    w = 1 << bits
    quants = tuple(
        Quantifier(q.kind, q.var, tuple(s * w for s in q.domain), q.controller)
        for q in spec.quantifiers
    )
    cons: list = []
    for c in spec.constraints:
        if isinstance(c, Same):
            for v in range(w):
                cons.append(Same(c.state * w + v, c.controllers))
        else:
            for v in range(w):
                cons.append(Obs(tuple(s * w + v for s in c.states), c.controller))
    return HyperSpec(spec.controller_names, tuple(cons), quants, spec.formula)
