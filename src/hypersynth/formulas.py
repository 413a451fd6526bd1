"""Instantiated quantifier-free formulas over model-checking queries.

After quantifier instantiation a property is a Boolean combination of
comparison atoms.  Negation is eliminated up front by flipping comparisons,
so the tree only contains conjunction, disjunction, atoms and constants.

An Atom is canonical: value(left) REL value(right) + offset, where REL is
``<`` when strict else ``<=``.  Equality with tolerance eps is expanded by
the instantiation step into two non-strict atoms with +eps offsets, and the
negation of equality into two strict atoms with -eps offsets, so nothing
here ever deals with ``=`` directly.  A side is either a Query or a float.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce


@dataclass(frozen=True)
class Query:
    """One comparison side: a reachability or reward value in one chain.

    kind is "reach" or "reward"; slot indexes the controller the value is
    measured under; state is the initial state; target is a label name.
    """

    kind: str
    slot: int
    state: int
    target: str


@dataclass(frozen=True)
class Atom:
    left: Query | float
    right: Query | float
    strict: bool = False
    offset: float = 0.0

    def holds(self, lv: float, rv: float) -> bool:
        bound = rv + self.offset
        return lv < bound if self.strict else lv <= bound


# Formula nodes are nested tuples:
#   ("atom", index) | ("and", (node, ...)) | ("or", (node, ...)) | ("const", bool)

TRUE = ("const", True)
FALSE = ("const", False)


def f_atom(i):
    return ("atom", i)


def f_and(children):
    kids = []
    for c in children:
        if c == TRUE:
            continue
        if c == FALSE:
            return FALSE
        if c[0] == "and":
            kids.extend(c[1])
        else:
            kids.append(c)
    if not kids:
        return TRUE
    if len(kids) == 1:
        return kids[0]
    return ("and", tuple(kids))


def f_or(children):
    kids = []
    for c in children:
        if c == FALSE:
            continue
        if c == TRUE:
            return TRUE
        if c[0] == "or":
            kids.extend(c[1])
        else:
            kids.append(c)
    if not kids:
        return FALSE
    if len(kids) == 1:
        return kids[0]
    return ("or", tuple(kids))


def atoms_in(node) -> tuple[int, ...]:
    """Atom indices appearing in the node, in first-occurrence order."""

    seen: list[int] = []

    def walk(nd):
        tag = nd[0]
        if tag == "atom":
            if nd[1] not in seen:
                seen.append(nd[1])
        elif tag in ("and", "or"):
            for c in nd[1]:
                walk(c)

    walk(node)
    return tuple(seen)


def evaluate(node, truth):
    """Evaluate under a full assignment.  truth maps atom index to bool, or
    to an array of bools (one per member of a batch): the result is then
    an array too, except where the node is a constant."""

    tag = node[0]
    if tag == "const":
        return node[1]
    if tag == "atom":
        return truth[node[1]]
    kids = [evaluate(c, truth) for c in node[1]]
    if tag == "and":
        return reduce(operator.and_, kids, True)
    return reduce(operator.or_, kids, False)


def substitute(node, decided):
    """Partially evaluate.  decided maps atom index to bool for known atoms;
    missing atoms stay symbolic.  Simplifies constants away."""

    tag = node[0]
    if tag == "const":
        return node
    if tag == "atom":
        if node[1] in decided:
            return TRUE if decided[node[1]] else FALSE
        return node
    kids = [substitute(c, decided) for c in node[1]]
    return f_and(kids) if tag == "and" else f_or(kids)


def mandatory_atoms(node) -> frozenset[int]:
    """Atoms implied by the formula: wherever the formula holds, these hold.

    Computed structurally: an atom is mandatory below a conjunction if it is
    mandatory in any child, below a disjunction only if mandatory in every
    child.  Sound but not complete, which is all the callers need.
    """

    tag = node[0]
    if tag == "atom":
        return frozenset((node[1],))
    if tag == "and":
        out: frozenset[int] = frozenset()
        for c in node[1]:
            out |= mandatory_atoms(c)
        return out
    if tag == "or":
        kids = [mandatory_atoms(c) for c in node[1]]
        out = kids[0]
        for k in kids[1:]:
            out &= k
        return out
    return frozenset()


@dataclass(frozen=True)
class InstantiatedFormula:
    """Deduplicated atom table plus a Boolean tree over atom indices."""

    atoms: tuple[Atom, ...]
    root: tuple

    def evaluate(self, truth) -> bool:
        return evaluate(self.root, truth)

    def atom_order(self) -> tuple[int, ...]:
        return atoms_in(self.root)
