"""Controller families as parameter spaces.

Synthesising n controllers for an MDP means assigning one action per
(controller, state) pair.  Structural constraints declare pairs
synonymous: same(s, C) makes the listed controllers agree at state s, and
obs(S, c) makes controller c blind inside the state set S.  The synonymy
closure partitions the pairs into parameter classes; a realisation picks
one enabled action per class, and the family is the product of the class
domains.

A FamilyNode is a box inside that product: every class restricted to a
nonempty subset of its domain.  Splitting a node partitions it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from numbers import Integral

from .errors import ConstraintError, ModelError, SpecError
from .model import Controller, Mdp
from .specs import Same, check_constraint


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # keep the lexicographically least pair as representative so
            # class identity does not depend on merge order
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


@dataclass(frozen=True)
class ParameterSpace:
    """Synonymy classes over (controller, state) pairs with their domains."""

    n_controllers: int
    num_states: int
    members: tuple[tuple[tuple[int, int], ...], ...]
    domains: tuple[tuple[int, ...], ...]
    class_of: dict

    @property
    def n_classes(self) -> int:
        return len(self.domains)

    def class_index(self, controller: int, state: int) -> int:
        return self.class_of[(controller, state)]

    def family_size(self) -> int:
        return prod(len(d) for d in self.domains)

    def describe_class(self, k: int) -> str:
        (i, s) = self.members[k][0]
        extra = len(self.members[k]) - 1
        tail = f"+{extra}" if extra else ""
        return f"k(c{i},s{s}){tail}"


def build_parameter_space(m: Mdp, n_controllers: int, constraints=()) -> ParameterSpace:
    """Close the structural constraints into parameter classes.

    n_controllers must be a positive integer (not a bool), else
    ConstraintError.  constraints must be an iterable, and each constraint
    must pass specs.check_constraint on the model's states, else SpecError.
    Classes merged by an obs constraint must expose identical action menus;
    a size mismatch raises ConstraintError.  same() merges across
    controllers at a single state, so menus match trivially.
    """

    if isinstance(n_controllers, bool) or not isinstance(n_controllers, Integral):
        raise ConstraintError(
            f"the number of controllers must be an integer, not {n_controllers!r}"
        )
    if n_controllers < 1:
        raise ConstraintError("need at least one controller")
    try:
        constraints = tuple(constraints)
    except TypeError:
        raise SpecError(f"constraints must be an iterable, not {constraints!r}") from None
    pairs = [(i, s) for i in range(n_controllers) for s in range(m.num_states)]
    uf = _UnionFind(pairs)

    for c in constraints:
        check_constraint(c, n_controllers, m.num_states)
        if isinstance(c, Same):
            ctrls = sorted(set(c.controllers))
            for i in ctrls[1:]:
                uf.union((ctrls[0], c.state), (i, c.state))
        else:
            states = sorted(set(c.states))
            for s in states[1:]:
                uf.union((c.controller, states[0]), (c.controller, s))

    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for p in pairs:
        groups.setdefault(uf.find(p), []).append(p)

    members = []
    domains = []
    class_of = {}
    for root in sorted(groups):
        group = tuple(sorted(groups[root]))
        menu_sizes = {m.num_actions(s) for _, s in group}
        if len(menu_sizes) != 1:
            states = sorted({s for _, s in group})
            raise ConstraintError(
                f"constraint merges states {states} with different action menus"
            )
        k = len(members)
        members.append(group)
        domains.append(tuple(range(menu_sizes.pop())))
        for p in group:
            class_of[p] = k
    return ParameterSpace(n_controllers, m.num_states, tuple(members), tuple(domains), class_of)


@dataclass(frozen=True)
class FamilyNode:
    """A box of realisations: per-class nonempty domain subsets."""

    space: ParameterSpace
    domains: tuple[tuple[int, ...], ...]

    def size(self) -> int:
        return prod(len(d) for d in self.domains)

    def domain(self, k: int) -> tuple[int, ...]:
        return self.domains[k]

    def contains(self, realisation) -> bool:
        return all(realisation[k] in d for k, d in enumerate(self.domains))

    def first_realisation(self) -> tuple[int, ...]:
        return tuple(d[0] for d in self.domains)

    def with_domain(self, k: int, new_domain) -> "FamilyNode":
        nd = tuple(sorted(new_domain))
        if not nd:
            raise ModelError("empty class domain")
        if any(a not in self.domains[k] for a in nd):
            raise ModelError("domain not a subset of the node's")
        doms = list(self.domains)
        doms[k] = nd
        return FamilyNode(self.space, tuple(doms))


def root_node(space: ParameterSpace) -> FamilyNode:
    return FamilyNode(space, space.domains)


def induce(space: ParameterSpace, realisation, controller: int) -> Controller:
    """The controller a realisation induces for one controller index."""

    choices = tuple(
        realisation[space.class_index(controller, s)] for s in range(space.num_states)
    )
    return Controller(choices)


def node_restrict(m: Mdp, node: FamilyNode, controller: int) -> list[tuple[int, ...]]:
    """The MDP restricted to the node for one controller: per state, the
    ascending action ordinals the node allows there."""

    return [node.domains[node.space.class_index(controller, s)] for s in range(m.num_states)]


@dataclass(frozen=True)
class PartialAssignment:
    """A sub-box fixing some classes to single actions."""

    fixed: tuple[tuple[int, int], ...]  # (class, action), sorted by class

    @staticmethod
    def of(mapping) -> "PartialAssignment":
        return PartialAssignment(tuple(sorted(mapping.items())))

    def as_dict(self) -> dict[int, int]:
        return dict(self.fixed)

    def merge(self, other: "PartialAssignment"):
        """Intersection of the two sub-boxes; None when they disagree."""

        out = self.as_dict()
        for k, a in other.fixed:
            if out.get(k, a) != a:
                return None
            out[k] = a
        return PartialAssignment.of(out)

    def complete(self, node: FamilyNode) -> tuple[int, ...]:
        """Extend to a full realisation, unfixed classes lexicographically
        least within the node."""

        fixed = self.as_dict()
        return tuple(
            fixed.get(k, node.domains[k][0]) for k in range(len(node.domains))
        )


EMPTY_ASSIGNMENT = PartialAssignment(())


def controller_box(space: ParameterSpace, slot: int, controller: Controller, relevant):
    """(box, conflicts) of the controller on the relevant states.

    conflicts maps each class whose member states for this controller slot,
    restricted to the relevant set, receive more than one distinct action
    to those actions, sorted.  box is None when there are conflicts, and
    otherwise the PartialAssignment of the realisations inducing this
    controller on the relevant states.  Classes without relevant member
    states stay free: choices there do not affect the analysed value and
    are repaired by whatever the realisation assigns.
    """

    chosen: dict[int, set[int]] = {}
    for s in relevant:
        chosen.setdefault(space.class_index(slot, s), set()).add(controller[s])
    conflicts = {k: tuple(sorted(acts)) for k, acts in chosen.items() if len(acts) > 1}
    if conflicts:
        return None, conflicts
    return PartialAssignment.of({k: min(acts) for k, acts in chosen.items()}), conflicts


def split_node(node: FamilyNode, k: int, actions) -> list[FamilyNode]:
    """Partition the node on class k: one child per listed action, plus one
    child holding the rest of the domain, if any.  The children partition
    the parent exactly, and any controller using two of the listed actions
    on class-k states is excluded from every child."""

    acts = sorted(set(actions))
    domain = node.domains[k]
    if any(a not in domain for a in acts):
        raise ModelError("split actions outside the node domain")
    if len(acts) < 2 and len(acts) == len(domain):
        raise ModelError("split must shrink the domain")
    children = [node.with_domain(k, (a,)) for a in acts]
    rest = tuple(a for a in domain if a not in set(acts))
    if rest:
        children.append(node.with_domain(k, rest))
    return children
