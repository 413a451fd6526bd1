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
from numbers import Integral, Real

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

    if not (isinstance(node, tuple) and len(node) == 2):
        raise SpecError(f"malformed formula node {node!r}")
    tag, arg = node
    if tag == "atom" and isinstance(arg, SpecAtom):
        yield arg
    elif tag == "not":
        yield from formula_atoms(arg)
    elif tag in ("and", "or") and isinstance(arg, tuple):
        for c in arg:
            yield from formula_atoms(c)
    else:
        raise SpecError(f"malformed formula node {node!r}")


def _check_index(what: str, i, bound: int | None = None) -> None:
    """An integer index, below bound when one is given."""

    if not isinstance(i, Integral):
        raise SpecError(f"{what} must be an integer, not {i!r}")
    if bound is not None and not 0 <= i < bound:
        raise SpecError(f"{what} {i} out of range")


def _check_indices(what: str, indices, bound: int | None = None) -> None:
    """A tuple of indices, each passing _check_index."""

    if not isinstance(indices, tuple):
        raise SpecError(f"{what}: expected a tuple, not {indices!r}")
    for i in indices:
        _check_index(what, i, bound)


def validate_spec(spec: HyperSpec) -> None:
    """Internal consistency of a specification, independent of any model.

    State ranges and label existence are checked later, when the spec is
    paired with a model.
    """

    for part in ("controller_names", "constraints", "quantifiers"):
        if not isinstance(getattr(spec, part), tuple):
            raise SpecError(f"{part} must be a tuple, not {getattr(spec, part)!r}")
    names = spec.controller_names
    if len(set(names)) != len(names):
        raise SpecError("duplicate controller names")
    if not names:
        raise SpecError("a specification needs at least one controller")

    seen_vars = {}
    for q in spec.quantifiers:
        if not (isinstance(q, Quantifier) and isinstance(q.var, str)):
            raise SpecError(f"malformed quantifier {q!r}")
        if q.kind not in ("forall", "exists"):
            raise SpecError(f"unknown quantifier kind {q.kind!r}")
        if q.var in seen_vars:
            raise SpecError(f"state variable {q.var!r} bound twice")
        _check_indices(f"initial state of {q.var!r}", q.domain)
        if not q.domain:
            raise SpecError(f"empty domain for state variable {q.var!r}")
        _check_index(f"controller of {q.var!r}", q.controller, len(names))
        seen_vars[q.var] = q
    if not spec.quantifiers:
        raise SpecError("a specification needs at least one state quantifier")

    for c in spec.constraints:
        check_constraint(c, len(names))
    for atom in formula_atoms(spec.formula):
        check_atom(atom, seen_vars)


def check_constraint(c, n_controllers: int, num_states: int | None = None) -> None:
    """The type and range rules of one structural constraint over n
    controllers, and over a model's states when their number is given."""

    if isinstance(c, Same):
        _check_index("same() state", c.state, num_states)
        _check_indices("same() controller", c.controllers, n_controllers)
        if len(set(c.controllers)) < 2:
            raise SpecError("same() needs at least two distinct controllers")
    elif isinstance(c, Obs):
        _check_indices("obs() state", c.states, num_states)
        _check_index("obs() controller", c.controller, n_controllers)
        if len(set(c.states)) < 2:
            raise SpecError("obs() needs at least two distinct states")
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
    elif not isinstance(atom.right, Real):
        raise SpecError(f"comparison bound must be a number, not {atom.right!r}")
    else:
        bound = float(atom.right)
        if not isfinite(bound):
            raise SpecError("comparison bound must be finite")
        if atom.left.kind == "reach" and not (0.0 <= bound <= 1.0):
            raise SpecError(f"probability bound {bound} outside [0, 1]")
        if atom.left.kind == "reward" and bound < 0.0:
            raise SpecError(f"negative reward bound {bound}")
    for side in sides:
        if not (isinstance(side.var, str) and isinstance(side.target, str)):
            raise SpecError(f"malformed query {side!r}")
        if side.kind not in ("reach", "reward"):
            raise SpecError(f"unknown query kind {side.kind!r}")
        if side.var not in variables:
            raise SpecError(f"state variable {side.var!r} is not quantified")
    if atom.rel not in RELATIONS:
        raise SpecError(f"unknown relation {atom.rel!r}")
    if atom.eps is not None:
        if atom.rel != "=":
            raise SpecError("~eps tolerance is only meaningful for =")
        if not (isinstance(atom.eps, Real) and atom.eps >= 0.0 and isfinite(atom.eps)):
            raise SpecError(f"bad equality tolerance {atom.eps!r}")


def check_against_model(spec: HyperSpec, m) -> None:
    """Range and label checks that need the model."""

    n = m.num_states
    for q in spec.quantifiers:
        for s in q.domain:
            if not (0 <= s < n):
                raise SpecError(f"initial state {s} of {q.var!r} out of range")
    for c in spec.constraints:
        check_constraint(c, spec.n_controllers, n)
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
