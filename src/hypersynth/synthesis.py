"""Controller family synthesis by abstraction refinement.

The engine answers: does the family hold a tuple of controllers satisfying
an instantiated hyperproperty, and in complete or optimal modes, which
members or which maximally different pair.

A family node (box) is analysed query by query.  Each distinct query of
the formula, in formula order, gets its minimal and maximal values over the
controllers of the MDP restricted to the node, which is the MDP itself with
each state's actions limited to those the node allows (see
family.node_restrict).  After each query, the atoms whose sides are now all
bounded are classified, and those decided on the whole box simplify the
formula.  Once the residual collapses the analysis stops, and the box is
classified wholesale: substitution is monotone, so the atoms left
unclassified could not change it.  The run's first analysis solves every
query regardless, for the atom report of the stats.  Only an open box
mines its open atoms' extremal witnesses for candidate members, which are
verified exactly before being reported.  Undecided boxes are split on the
parameter class where the witnesses of the first conflicting open atom use
the most actions, and the pieces go back on a LIFO stack.  Every verdict
that leaves the engine rests on exact member checks or on interval bounds
with the guard band analysis.GUARD_BAND, never on iteration noise.

The hybrid method additionally checks one concrete member per open box and,
when that member violates a mandatory reachability comparison, prunes away
the whole sub-box sharing the violation's local structure (see
counterexamples).

Every method runs one loop, _Synthesizer.run, which builds the outcome and
its stats, or a limit's, once the loop ends.  The oracle is that loop
enumerating the root box.

Member checks run on the model and formula, compiled together once per run
(see analysis).  The enumerator streams the members of one box as arrays of
action ordinals, in lexicographic order, and checks each chunk with one
batched call.  It then settles the chunk in one step, in that order: the
first member that holds is the witness, or those that hold join the
satisfying set as one array, or the first at the greatest distance updates
the incumbent.  Limits are checked before and after each batch, and iterations
are counted per member, so an iteration limit stops at its member exactly.
An open box checks its candidates and hybrid's member in one batch; a box
of one member and an accepted box's recheck are batches of one.

Refinement settles a popped box by exact member checks instead, through the
oracle's enumerator, when checking all its members is expected to cost no
more than settling it by analysis.  Both sides are priced in counted dense
solves (analysis.solve_count), so the same call makes the same decisions on
every run and every machine: one per linear system of an analysis, which
solves only the queries it needed, and one per query group of the formula
for a batch of member checks, however many members and systems it solves
(analysis.CompiledModel.solves), known from the compiled model before any
check runs.  Enumerating a box of N members costs its own batches, groups *
ceil(N / chunk).  An analysis is priced by the subtree it leaves behind:
the mean solves of one box analysis (policy-iteration rounds, certificate
solves and the member checks made during it) over the run's settle rate,
(settling + 1) / (analyses + 2), where an analysis is counted as it starts
and settles when members were settled during it or it found the outcome.
The root is always analysed, since no analysis has been counted when it
is popped.

In complete mode a family that factors is settled by a join instead of
refinement, once the root's analysis leaves it open.  A side of the formula
(a slot and an initial state) can only read the classes of its cone, the
states reachable from its state under any action (analysis.cone_classes).
Sides whose cones share a varying class form one factor, and a varying
class in no cone is free.  With two or more factors, or one and a free
class, each factor's members are checked once, on the compiled model
restricted to the cones of the factor's sides (analysis.restrict_to_cones),
and the rows of side values in each factor's table are grouped bit for bit
into value classes.  Sides of no factor are solved once, on their own
cones.  The atoms are evaluated once per tuple of value classes, one per
factor, never on the product of the tables.
A join whose tables and tuples would hold more than JOIN_BYTES is not made,
and the family is refined.  The answer is a SatisfyingSet that keeps the
join as found: its count and least member come from the held tuples, and
its boxes, the maximal boxes that fix a prefix of the factors' classes in
index order, free classes whole, in lexicographic order (prefix_boxes), are
laid out only when asked for, a block of members at a time.  Feasibility
and optimal modes do not join.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from itertools import chain, product
from math import prod
from numbers import Integral, Real

import numpy as np

# bench/spans.py times member checks by wrapping check_mc and impose, and
# chain solves by wrapping reach_probs, expected_reward and expected_visits,
# at this module's names.  The engine calls none of them, but every hooked
# name must resolve, so all of them stay importable here
from .analysis import (
    CHUNK_BYTES,
    GUARD_BAND,
    CompiledModel,
    RowTable,
    _distinct_rows,
    check_mc,  # noqa: F401
    check_members,
    compile_model,
    cone_classes,
    expected_reward,  # noqa: F401
    expected_visits,  # noqa: F401
    extremal_reach,
    extremal_reward,
    formula_holds,
    reach_probs,  # noqa: F401
    restrict_to_cones,
    row_table,
    solve_count,
)
from .counterexamples import CeSide, complement_boxes, conflict_classes, grow_conflict
from .errors import LimitExceeded, ModelError, SpecError
from .family import (
    EMPTY_ASSIGNMENT,
    FamilyNode,
    ParameterSpace,
    PartialAssignment,
    _UnionFind,
    build_parameter_space,
    controller_box,
    induce,
    node_restrict,  # bench/spans.py times box restriction by wrapping it here
    root_node,
    split_node,
)
from .formulas import (
    FALSE,
    TRUE,
    Atom,
    InstantiatedFormula,
    Query,
    f_and,
    f_atom,
    f_or,
    mandatory_atoms,
    substitute,
)
from .model import Controller, Mdp, impose  # noqa: F401
from .specs import DEFAULT_EQ_EPS, HyperSpec, check_against_model, validate_spec
from .textio import format_atom

MODES = ("feasibility", "complete", "optimal")
METHODS = ("ar", "hybrid", "oracle")

# Candidate combinations tried per open box before splitting.
COMPOSE_CAP = 8

# Bytes a complete-mode join may hold besides its answer's parts: its
# factors' value tables, 16 bytes per atom and table member, and 2 bytes per
# tuple of their value classes, for the tuples that hold and the fullness
# of a box's tuples when its boxes are laid out.  A family whose join would
# hold more is refined instead.
JOIN_BYTES = 1 << 26


# ---------------------------------------------------------------------------
# Quantifier instantiation


def instantiate(spec: HyperSpec, m: Mdp) -> InstantiatedFormula:
    """Expand state quantifiers into a quantifier-free formula.

    forall becomes conjunction and exists disjunction over the domain, the
    first quantifier outermost.  Negation is eliminated by flipping
    comparisons, and (in)equality is expanded into two one-sided atoms with
    the tolerance folded into the offset: the atom's own ~eps, else
    DEFAULT_EQ_EPS.  Atoms are deduplicated; the table keeps
    first-occurrence order.
    """

    if not isinstance(m, Mdp):
        raise ModelError(f"a model must be an Mdp, not {m!r}")
    validate_spec(spec)
    check_against_model(spec, m)

    atoms: list[Atom] = []
    index: dict[Atom, int] = {}

    def emit(atom: Atom):
        i = index.get(atom)
        if i is None:
            i = len(atoms)
            atoms.append(atom)
            index[atom] = i
        return f_atom(i)

    def side_of(x, env):
        if isinstance(x, (int, float)):
            return float(x)
        slot, state = env[x.var]
        return Query(x.kind, slot, state, x.target)

    def atom_node(sa, env, neg):
        a = side_of(sa.left, env)
        b = side_of(sa.right, env)
        rel = sa.rel
        if rel == ">":
            a, b, rel = b, a, "<"
        elif rel == ">=":
            a, b, rel = b, a, "<="
        if rel == "=":
            eps = sa.eps if sa.eps is not None else DEFAULT_EQ_EPS
            if neg:
                return f_or([
                    emit(Atom(b, a, strict=True, offset=-eps)),
                    emit(Atom(a, b, strict=True, offset=-eps)),
                ])
            return f_and([
                emit(Atom(a, b, strict=False, offset=eps)),
                emit(Atom(b, a, strict=False, offset=eps)),
            ])
        if neg:
            # not (a <= b) is b < a; not (a < b) is b <= a
            return emit(Atom(b, a, strict=(rel == "<=")))
        return emit(Atom(a, b, strict=(rel == "<")))

    def tr(node, env, neg):
        tag = node[0]
        if tag == "not":
            return tr(node[1], env, not neg)
        if tag == "atom":
            return atom_node(node[1], env, neg)
        kids = [tr(c, env, neg) for c in node[1]]
        if (tag == "and") != neg:
            return f_and(kids)
        return f_or(kids)

    def expand(qi, env):
        if qi == len(spec.quantifiers):
            return tr(spec.formula, env, False)
        q = spec.quantifiers[qi]
        kids = []
        for s in q.domain:
            env2 = dict(env)
            env2[q.var] = (q.controller, s)
            kids.append(expand(qi + 1, env2))
        return f_and(kids) if q.kind == "forall" else f_or(kids)

    root = expand(0, {})
    return InstantiatedFormula(tuple(atoms), root)


# ---------------------------------------------------------------------------
# Interval analysis of one box


@dataclass
class AtomVerdict:
    case: str  # "allsat" | "allunsat" | "open"
    tag: str   # table row that fired: "1".."5", or "0" for none
    left: tuple[float, float]
    right: tuple[float, float]
    candidates: tuple[PartialAssignment, ...] = ()
    disagreements: tuple[tuple[int, int, int], ...] = ()
    conflict_actions: dict = field(default_factory=dict)


class NodeAnalyzer:
    """Interval bounds of a box's queries, and atom classification on them."""

    def __init__(self, m: Mdp, space: ParameterSpace, formula: InstantiatedFormula):
        self.m = m
        self.space = space
        self.formula = formula

    @cached_property
    def rows(self) -> RowTable:
        """The model's row tables, built on the run's first box analysis."""

        return row_table(self.m)

    @cached_property
    def completed(self) -> tuple[tuple[int, ...], ...]:
        """Per query of formula.queries, the atoms it completes: those whose
        sides are all bounded once it and the queries before it are."""

        position = {query: j for j, query in enumerate(self.formula.queries)}
        out = [[] for _ in position]
        for i, atom in enumerate(self.formula.atoms):
            last = max(
                position[q.kind, q.slot, q.target]
                for q in (atom.left, atom.right)
                if isinstance(q, Query)
            )
            out[last].append(i)
        return tuple(map(tuple, out))

    def side_bounds(self, node: FamilyNode, queries=None, menus=None) -> dict:
        """The box's bounds table: per (kind, slot, target) query, by default
        every query of the formula, its (min, max) ExtremalResult over the
        box, whose witnesses choose among the box's actions.  menus keeps
        each slot's restriction of the box across calls on it."""

        menus = {} if menus is None else menus
        bounds = {}
        for kind, slot, target in self.formula.queries if queries is None else queries:
            if slot not in menus:
                menus[slot] = node_restrict(self.m, node, slot)
            solve = extremal_reach if kind == "reach" else extremal_reward
            tgt = self.m.target(target)
            bounds[kind, slot, target] = tuple(
                solve(self.m, tgt, d, menus[slot], self.rows) for d in ("min", "max")
            )
        return bounds

    def atom_verdict(self, bounds: dict, i: int) -> AtomVerdict:
        """Classify atom i on a box, given the side_bounds of its queries.
        An open atom comes unmined, with tag "0" and no candidates: mine
        completes it once the box is known to be open."""

        atom = self.formula.atoms[i]
        off = atom.offset

        def interval(side):
            if isinstance(side, Query):
                lo, hi = bounds[side.kind, side.slot, side.target]
                return float(lo.values[side.state]), float(hi.values[side.state])
            return float(side), float(side)

        lo_l, hi_l = interval(atom.left)
        lo_r, hi_r = interval(atom.right)

        if atom.strict:
            if hi_l < lo_r + off - GUARD_BAND:
                return AtomVerdict("allsat", "1", (lo_l, hi_l), (lo_r, hi_r))
            if lo_l >= hi_r + off + GUARD_BAND:
                return AtomVerdict("allunsat", "2", (lo_l, hi_l), (lo_r, hi_r))
        else:
            if hi_l <= lo_r + off - GUARD_BAND:
                return AtomVerdict("allsat", "1", (lo_l, hi_l), (lo_r, hi_r))
            if lo_l > hi_r + off + GUARD_BAND:
                return AtomVerdict("allunsat", "2", (lo_l, hi_l), (lo_r, hi_r))
        return AtomVerdict("open", "0", (lo_l, hi_l), (lo_r, hi_r))

    def mine(self, bounds: dict, i: int, verdict: AtomVerdict) -> AtomVerdict:
        """Atom i's open verdict, completed from the satisfaction-directed
        witnesses of its sides (the left side's minimiser, the right side's
        maximiser): its candidates, the class disagreement between them and
        the actions its witnesses conflict on."""

        atom = self.formula.atoms[i]
        off = atom.offset
        (lo_l, hi_l), (lo_r, hi_r) = verdict.left, verdict.right
        boxes, conflict_actions = [], {}
        for pick, q in enumerate((atom.left, atom.right)):
            if not isinstance(q, Query):
                boxes.append(EMPTY_ASSIGNMENT)
                continue
            witness = bounds[q.kind, q.slot, q.target][pick].witness
            relevant = self.rows.reachable(witness, q.state)
            box, conflicts = controller_box(self.space, q.slot, witness, relevant)
            boxes.append(box)
            for k, acts in conflicts.items():
                conflict_actions[k] = tuple(sorted(set(conflict_actions.get(k, ())) | set(acts)))

        tag = "0"
        candidates: tuple[PartialAssignment, ...] = ()
        disagreements: tuple[tuple[int, int, int], ...] = ()
        box_l, box_r = boxes
        # a strict atom's candidate must be able to satisfy it strictly, not
        # just touch the bound
        cond5 = lo_r + off <= lo_l <= hi_r + off <= hi_l and atom.holds(lo_l, hi_r)
        cond3 = atom.holds(lo_l, lo_r)
        cond4 = atom.holds(hi_l, hi_r)
        if cond5 and box_l is not None and box_r is not None:
            merged = box_l.merge(box_r)
            if merged is not None:
                tag, candidates = "5", (merged,)
            else:
                tag = "5"
                left_fix, right_fix = box_l.as_dict(), box_r.as_dict()
                for k in sorted(left_fix):
                    if k in right_fix and right_fix[k] != left_fix[k]:
                        disagreements = ((k, left_fix[k], right_fix[k]),)
                        break
                picks = [b for c, b in ((cond3, box_l), (cond4, box_r)) if c and b is not None]
                candidates = tuple(dict.fromkeys(picks))
        elif cond3 and box_l is not None:
            tag, candidates = "3", (box_l,)
        elif cond4 and box_r is not None:
            tag, candidates = "4", (box_r,)

        return replace(
            verdict,
            tag=tag,
            candidates=candidates,
            disagreements=disagreements,
            conflict_actions=conflict_actions,
        )

    def score_conflicts(self, verdict: AtomVerdict) -> dict:
        """Split score per conflicting class: how many actions the
        witnesses use on it.  bench/spans.py times it as the split-score
        layer."""

        return {k: len(acts) for k, acts in verdict.conflict_actions.items()}


def _capped(items) -> list:
    """The distinct items, in order, up to COMPOSE_CAP of them; items is
    read no further than the last one kept."""

    out = []
    for item in items:
        if item not in out:
            out.append(item)
            if len(out) == COMPOSE_CAP:
                break
    return out


def _compose(residual, verdicts):
    """Candidate sub-boxes whose members plausibly satisfy the residual, an
    atom or an and/or node with no constant inside: conjunctions merge
    compatible candidates, disjunctions concatenate, each capped."""

    tag = residual[0]
    if tag == "atom":
        return list(verdicts[residual[1]].candidates)
    if tag == "and":
        acc = [EMPTY_ASSIGNMENT]
        for child in residual[1]:
            kids = _compose(child, verdicts)
            acc = _capped(m for pa in acc for cb in kids if (m := pa.merge(cb)) is not None)
            if not acc:
                return []
        return acc
    # tag == "or"
    return _capped(cb for child in residual[1] for cb in _compose(child, verdicts))


# ---------------------------------------------------------------------------
# Distance objective (optimal mode)


def distance_pairs(space: ParameterSpace):
    """Mirror the two controllers' parameter classes by member state sets.

    The distance between two realisations is the number of mirrored pairs
    assigned different actions.  Requires exactly two controllers whose
    unshared classes mirror each other; shared (same-merged) classes can
    never differ and are skipped.
    """

    if space.n_controllers != 2:
        raise SpecError("the distance objective needs exactly two controllers")
    sides: tuple[dict, dict] = ({}, {})
    for k, members in enumerate(space.members):
        slots = {i for i, _ in members}
        if len(slots) == 1:
            (slot,) = slots
            sides[slot][frozenset(s for _, s in members)] = k
    if set(sides[0]) != set(sides[1]):
        raise SpecError("controller structures do not mirror; distance undefined")
    keys = sorted(sides[0], key=min)
    return tuple((sides[0][key], sides[1][key]) for key in keys)


def realisation_distance(realisation, pairs) -> int:
    return sum(1 for k0, k1 in pairs if realisation[k0] != realisation[k1])


def node_distance_bound(node: FamilyNode, pairs) -> int:
    bound = 0
    for k0, k1 in pairs:
        d0, d1 = node.domains[k0], node.domains[k1]
        if len(d0) > 1 or len(d1) > 1 or d0[0] != d1[0]:
            bound += 1
    return bound


def max_distance_completion(node: FamilyNode, pairs):
    """A member of the node attaining the node's distance bound."""

    real = list(node.first_realisation())
    for k0, k1 in pairs:
        if real[k0] != real[k1]:
            continue
        alt = next((a for a in node.domains[k1] if a != real[k0]), None)
        if alt is not None:
            real[k1] = alt
            continue
        alt = next((a for a in node.domains[k0] if a != real[k1]), None)
        if alt is not None:
            real[k0] = alt
    return tuple(real)


# ---------------------------------------------------------------------------
# Member checks


def controllers(space: ParameterSpace, realisation) -> tuple[Controller, ...]:
    """The realisation's controller for each slot."""

    return tuple(induce(space, realisation, i) for i in range(space.n_controllers))


# The largest member count np.unravel_index numbers in one array.
_INDEX_LIMIT = np.iinfo(np.intp).max


def member_chunks(domains, size: int):
    """The members of the box given by its per-class domains, in the order
    itertools.product lists them, as consecutive (members x classes) intp
    arrays of up to size rows.

    The members are numbered in the mixed radix of the domain sizes and
    decoded with np.unravel_index.  When the box has more members than an
    intp can number, its leading classes are stepped through in Python and
    the rest decoded as before, so each step ends in a chunk of its own."""

    radix = [len(d) for d in domains]
    cut, count = len(radix), 1
    while cut and count * radix[cut - 1] <= _INDEX_LIMIT:
        cut -= 1
        count *= radix[cut]
    tail = [np.array(d, dtype=np.intp) for d in domains[cut:]]
    for head in product(*domains[:cut]):
        for start in range(0, count, size):
            stop = min(count, start + size)
            block = np.empty((stop - start, len(radix)), dtype=np.intp)
            block[:, :cut] = head
            if tail:
                digits = np.unravel_index(np.arange(start, stop), radix[cut:])
                for k, (dom, digit) in enumerate(zip(tail, digits), cut):
                    block[:, k] = dom[digit]
            yield block


def prefix_boxes(domains, classes, holds: np.ndarray) -> list[tuple]:
    """The members a boolean array marks, as the per-class domains of the
    fewest boxes that fix a prefix of the listed classes in index order and
    leave the rest whole.

    holds has one axis per listed class, in the order listed, over that
    class's domain, and marks the members that hold; every class not listed
    stays whole in each box.  A box is emitted at the shortest prefix below
    which every member holds, so the boxes are disjoint and maximal, and
    they come in lexicographic order, the first starting at the least
    member that holds."""

    layout = sorted(classes)
    dims = [len(domains[k]) for k in layout]
    full = [holds.transpose(np.argsort(classes))]
    for _ in layout:
        full.append(full[-1].all(axis=-1))
    full.reverse()  # full[n]: every member below a prefix of n classes holds
    starts, fixed = [], []
    for n, whole in enumerate(full):
        top = whole if n == 0 else whole & ~full[n - 1][..., None]
        first = np.flatnonzero(top) * prod(dims[n:])
        starts.append(first)
        fixed.append(np.full(len(first), n))
    starts, fixed = np.concatenate(starts), np.concatenate(fixed)
    order = np.argsort(starts)
    digits = np.stack(np.unravel_index(starts[order], dims), axis=-1)
    digits[np.arange(len(layout)) >= fixed[order][:, None]] = -1
    # per class, its domain in every box: a fixed class the singleton of
    # its digit's action, a class left whole (digit -1) its whole domain
    columns = [[d] * len(digits) for d in domains]
    for j, k in enumerate(layout):
        pieces = np.empty(dims[j] + 1, dtype=object)
        for a, action in enumerate(domains[k]):
            pieces[a] = (action,)
        pieces[-1] = domains[k]
        columns[k] = pieces[digits[:, j]].tolist()
    return list(zip(*columns))


def satisfying_realisations(m: Mdp, space: ParameterSpace, formula: InstantiatedFormula):
    """Yield every satisfying realisation, lexicographically.  Members are
    checked a batch at a time, a batch only once the previous one's
    satisfying members have all been asked for."""

    compiled = compile_model(m, space, formula)
    for chunk in member_chunks(space.domains, compiled.chunk):
        holds = check_members(compiled, chunk).holds
        yield from map(tuple, chunk[holds].tolist())


def subtree_price(analysis_solves: int, analyses: int, settling: int) -> float | None:
    """Expected solves to settle a box by analysing it: the mean solves of
    an analysis over the share of analyses that settle something, counted
    as (settling + 1) / (analyses + 2), since an analysis that settles
    nothing leaves a subtree of boxes to analyse in turn.  None while no
    analysis is counted."""

    if not analyses:
        return None
    return analysis_solves / analyses * (analyses + 2) / (settling + 1)


def cheaper_to_enumerate(solves: int, price: float | None) -> bool:
    """Whether checking all members of a box, at the given solves of its
    batches, is expected to cost no more than settling it by analysis, at
    the solves an analysis is priced at (None while no analysis is
    counted)."""

    return price is not None and solves <= price


# ---------------------------------------------------------------------------
# Outcome


class _Join:
    """The satisfying members of a joined family.  A member holds when the
    value classes of its factors' table members, one per factor, form a
    tuple that holds; no free class changes that.

    factors lists each factor's classes in index order; classes[f] gives
    each member of factor f's table, in product order, its value class;
    held has one axis per factor, over its value classes.  count and the
    least member come from the join."""

    def __init__(self, space: ParameterSpace, factors, classes, held, count: int, least: tuple):
        self.space = space
        self.factors = factors
        self.classes = classes
        self.held = held
        self.count = count
        self.least = least
        self.dims = [[len(space.domains[k]) for k in members] for members in factors]

    def first(self) -> tuple:
        return self.least

    def contains(self, realisation) -> bool:
        domains = self.space.domains
        if not all(a in d for a, d in zip(realisation, domains)):
            return False
        cell = tuple(
            classes[np.ravel_multi_index([domains[k].index(realisation[k]) for k in members], dims)]
            for members, classes, dims in zip(self.factors, self.classes, self.dims)
        )
        return bool(self.held[cell])

    def boxes(self):
        """The prefix boxes of the set, in lexicographic order.

        The boxes below a prefix of the factors' classes with at most
        CHUNK_BYTES // 8 members are laid out by prefix_boxes on their
        holds, gathered from held.  A prefix with more members is walked
        depth first.  Its members take one range of each factor's table,
        so it is a box when every tuple of the value classes met in those
        ranges holds, is dropped when none does, and is otherwise split on
        its next class."""

        space, held = self.space, self.held
        layout = sorted(k for members in self.factors for k in members)
        dims = [len(space.domains[k]) for k in layout]
        owner = {k: f for f, members in enumerate(self.factors) for k in members}
        node = partial(FamilyNode, space)
        present = {}

        def met(f, start, span):
            if (f, start, span) not in present:
                mask = np.zeros(held.shape[f], dtype=bool)
                mask[self.classes[f][start : start + span]] = True
                present[f, start, span] = mask
            return present[f, start, span]

        def walk(n, box, starts, spans):
            if n < len(layout) and prod(dims[n:]) <= CHUNK_BYTES // 8:
                cells = tuple(
                    self.classes[f][start : start + span].reshape(
                        [d if owner[k] == f else 1 for k, d in zip(layout[n:], dims[n:])]
                    )
                    for f, (start, span) in enumerate(zip(starts, spans))
                )
                return map(node, prefix_boxes(box, layout[n:], held[cells]))
            sub = held[np.ix_(*(met(f, *range_) for f, range_ in enumerate(zip(starts, spans))))]
            if sub.all():
                return iter((node(box),))
            if not sub.any():
                return iter(())
            k = layout[n]
            f = owner[k]
            width = spans[f] // dims[n]
            return chain.from_iterable(
                walk(
                    n + 1,
                    box[:k] + ((action,),) + box[k + 1 :],
                    [*starts[:f], starts[f] + x * width, *starts[f + 1 :]],
                    [*spans[:f], width, *spans[f + 1 :]],
                )
                for x, action in enumerate(space.domains[k])
            )

        return walk(0, space.domains, [0] * len(self.factors), [len(c) for c in self.classes])


class SatisfyingSet:
    """The satisfying members of a complete-mode run, kept in the parts
    they were found in, in that order: a box accepted whole (a FamilyNode),
    an array of members checked one by one (members x classes), or a join
    (at most one, and then alone).

    count is the number of members.  boxes(), also the iteration, yields
    the answer as disjoint boxes, one part after the other: a checked
    member as a box of one and a join as its prefix boxes, built only as
    they are asked for.  members() yields their members in that order."""

    def __init__(self, space: ParameterSpace):
        self.space = space
        self.parts: list = []
        self.count = 0

    def __repr__(self) -> str:
        return f"SatisfyingSet(count={self.count}, parts={len(self.parts)})"

    def __bool__(self) -> bool:
        return self.count > 0

    def add(self, part, count: int):
        """Append a part of count members; a part of none is not kept."""

        if count:
            self.parts.append(part)
            self.count += count

    def first(self) -> tuple | None:
        """The first member of the first part, None when the set is empty;
        a join's least member."""

        if not self.parts:
            return None
        part = self.parts[0]
        if isinstance(part, FamilyNode):
            return part.first_realisation()
        if isinstance(part, np.ndarray):
            return tuple(part[0].tolist())
        return part.first()

    def contains(self, realisation) -> bool:
        realisation = tuple(realisation)
        if len(realisation) != self.space.n_classes:
            return False
        for part in self.parts:
            if isinstance(part, np.ndarray):
                if (part == realisation).all(axis=1).any():
                    return True
            elif part.contains(realisation):
                return True
        return False

    def boxes(self):
        return chain.from_iterable(map(self._boxes, self.parts))

    def members(self):
        """The members of boxes(), in the same order, one realisation
        tuple at a time."""

        return chain.from_iterable(product(*box.domains) for box in self.boxes())

    def _boxes(self, part):
        if isinstance(part, FamilyNode):
            return (part,)
        if isinstance(part, np.ndarray):
            return (FamilyNode(self.space, tuple(zip(real))) for real in part.tolist())
        return part.boxes()

    __iter__ = boxes


@dataclass
class SynthesisOutcome:
    verdict: str  # "feasible" | "unfeasible"
    realisation: tuple | None
    witness: tuple | None  # Controllers, one per slot
    satisfying: SatisfyingSet  # complete mode: the members that hold
    optimal_value: int | None = None
    stats: dict = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        return self.verdict == "feasible"


# ---------------------------------------------------------------------------
# The synthesis loop


class _Synthesizer:
    def __init__(self, m, spec, mode, method, max_iters, time_limit):
        self.m = m
        self.mode = mode
        self.method = method
        self.formula = instantiate(spec, m)  # validates the spec first
        self.space = build_parameter_space(m, spec.n_controllers, spec.constraints)
        self.pairs = distance_pairs(self.space) if mode == "optimal" else None
        self.max_iters = max_iters
        self.time_limit = time_limit
        self.analyzer = NodeAnalyzer(m, self.space, self.formula)

        self.t0 = time.perf_counter()
        self.solves0 = solve_count()
        self.iterations = 0
        self.explored = 0
        self.decided = 0
        self.splits = 0
        self.ce_prunes = 0
        self.enumerated = 0
        self.factors = 0
        self.atom_report = []
        self.sat = SatisfyingSet(self.space)
        self.incumbent: int | None = None
        self.incumbent_real = None
        # solves made by box analyses, the analyses, and those during which
        # members were settled or an outcome found
        self.analysis_solves = 0
        self.analyses = 0
        self.settling = 0

    # -- bookkeeping ----------------------------------------------------

    def _elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def _check_limits(self):
        if self.max_iters is not None and self.iterations >= self.max_iters:
            raise LimitExceeded(f"iteration limit {self.max_iters} reached")
        self._check_time()

    def _check_time(self):
        if self.time_limit is not None and self._elapsed() > self.time_limit:
            raise LimitExceeded(f"time limit {self.time_limit}s exceeded")

    def _stats(self, verdict, realisation=None, witness=None, optimal_value=None, limit=None):
        size = self.space.family_size()
        out = {
            "verdict": verdict,
            "mode": self.mode,
            "method": self.method,
            "family_size": size,
            "iterations": self.iterations,
            "explored": self.explored,
            "explored_fraction": self.explored / size,
            "decided_families": self.decided,
            "avg_decided_family_size": (self.explored / self.decided) if self.decided else 0.0,
            "splits": self.splits,
            "ce_prunes": self.ce_prunes,
            "enumerated_members": self.enumerated,
            "factors": self.factors,
            "analyses": self.analyses,
            "settling_analyses": self.settling,
            "solves": solve_count() - self.solves0,
            "wall_time_s": self._elapsed(),
            "limit": limit,
            "witness": None if witness is None else {
                "realisation": list(realisation),
                "controllers": [list(c.choices) for c in witness],
            },
            "optimal_value": optimal_value,
            "atoms": list(self.atom_report),
        }
        if self.mode == "complete":
            out["satisfying_count"] = self.sat.count
        return out

    # -- member checks ----------------------------------------------------

    @cached_property
    def compiled(self) -> CompiledModel:
        """The model and formula compiled for member checks, on the run's
        first one."""

        return compile_model(self.m, self.space, self.formula, self.analyzer.rows)

    def _decide(self, members: int):
        """Count a box of this many members as settled, whichever way."""

        self.explored += members
        self.decided += 1

    def _note_sat(self, realisation):
        """Optimal mode: fold a verified member into the incumbent."""

        d = realisation_distance(realisation, self.pairs)
        if self.incumbent is None or d > self.incumbent:
            self.incumbent = d
            self.incumbent_real = tuple(realisation)

    def _outranked(self, node) -> bool:
        """Optimal mode: no member of the node can beat the incumbent."""

        return (
            self.mode == "optimal"
            and self.incumbent is not None
            and node_distance_bound(node, self.pairs) <= self.incumbent
        )

    def _enumeration_pays(self, node) -> bool:
        compiled = self.compiled
        return cheaper_to_enumerate(
            compiled.solves * -(-node.size() // compiled.chunk),
            subtree_price(self.analysis_solves, self.analyses, self.settling),
        )

    # -- the loop ----------------------------------------------------------

    def run(self) -> SynthesisOutcome:
        """The loop of every method: the oracle enumerates the root, ar and
        hybrid refine it and enumerate the boxes cheaper to check than to
        analyse.  A box's handler returns the witness that ends the loop, or
        None."""

        root = root_node(self.space)
        stack, real = [root], None
        try:
            while stack and real is None:
                node = stack.pop()
                if self.method == "oracle" or (
                    node is not root and not self._outranked(node) and self._enumeration_pays(node)
                ):
                    real = self._enumerate(node)
                else:
                    real = self._refine(node, stack)
        except LimitExceeded as exc:
            exc.stats = self._stats("unknown", limit=str(exc))
            raise
        if self.mode == "complete":
            real = self.sat.first()
        elif self.mode == "optimal":
            real = self.incumbent_real
        verdict = "unfeasible" if real is None else "feasible"
        witness = None if real is None else controllers(self.space, real)
        stats = self._stats(verdict, real, witness, self.incumbent)
        return SynthesisOutcome(verdict, real, witness, self.sat, self.incumbent, stats)

    def _refine(self, node, stack):
        """One refinement step: prune the box against the incumbent, check
        it if it has one member, or else analyse it, counting its solves."""

        self._check_limits()
        self.iterations += 1
        if self._outranked(node):
            self._decide(node.size())
            return None
        if node.size() == 1:
            real = np.array([node.first_realisation()], dtype=np.intp)
            return self._settle(real, check_members(self.compiled, real).holds)
        self.analyses += 1
        explored, solves = self.explored, solve_count()
        real = self._analyse(node, stack)
        self.analysis_solves += solve_count() - solves
        self.settling += real is not None or self.explored > explored
        return real

    def _analyse(self, node, stack):
        """Interval-analyse a box, then decide, split or prune it.

        The queries are solved one at a time, in formula order.  After each,
        the atoms it completes are classified and substituted into the
        formula, and the analysis stops once the residual is decided: since
        substitute is monotone, the atoms left unclassified could not change
        it.  Only an open box, and the run's first, whose atoms the stats
        report, has every query solved and its open atoms mined."""

        analyzer = self.analyzer
        report = self.iterations == 1
        bounds, menus, verdicts, forced = {}, {}, {}, {}
        residual = self.formula.root
        for query, atoms in zip(self.formula.queries, analyzer.completed):
            if residual in (TRUE, FALSE) and not report:
                break
            bounds.update(analyzer.side_bounds(node, (query,), menus))
            for i in atoms:
                verdicts[i] = v = analyzer.atom_verdict(bounds, i)
                if v.case != "open":
                    forced[i] = v.case == "allsat"
            residual = substitute(self.formula.root, forced)

        if report or residual not in (TRUE, FALSE):
            for i, v in verdicts.items():
                if v.case == "open":
                    verdicts[i] = analyzer.mine(bounds, i, v)
        if report:
            self.atom_report = [
                {
                    "atom": format_atom(self.formula.atoms[i]),
                    "case": v.case,
                    "tag": v.tag,
                    "lb_left": v.left[0],
                    "ub_left": v.left[1],
                    "lb_right": v.right[0],
                    "ub_right": v.right[1],
                }
                for i, v in sorted(verdicts.items())
            ]

        if residual == FALSE:
            self._decide(node.size())
            return None
        if residual == TRUE:
            return self._handle_allsat(node, stack)
        if self.mode == "complete" and node.domains == self.space.domains:
            factors = self._factors()
            if factors is not None and self._join(*factors):
                return None
        return self._handle_open(node, residual, verdicts, bounds, stack)

    def _checked(self, compiled, domains):
        """Check the members of the box given by its per-class domains on
        the compiled model, a chunk of index arrays at a time
        (member_chunks).  Yields each chunk,
        cut to the members the iteration limit leaves room for, with its
        checks; the caller counts the members it takes as iterations.  The
        limits are checked before and after each batch, and once more after
        a cut chunk, so the counts stop at the limit's member exactly."""

        for chunk in member_chunks(domains, compiled.chunk):
            self._check_limits()
            checks = check_members(compiled, chunk)
            self._check_limits()
            room = len(chunk) if self.max_iters is None else self.max_iters - self.iterations
            yield chunk[:room], checks
            if room < len(chunk):
                self._check_limits()  # the iteration limit, reached mid-chunk

    def _enumerate(self, node):
        """Settle a box by checking its members in lexicographic order: the
        oracle's whole run, and refinement's on cheap boxes.  Each chunk is
        checked in one batch and settled in one step."""

        for members, checks in self._checked(self.compiled, node.domains):
            explored = self.explored
            real = self._settle(members, checks.holds[: len(members)])
            self.iterations += self.explored - explored
            self.enumerated += self.explored - explored
            if real is not None:
                return real
        return None

    # -- factored families (complete mode) -------------------------------

    def _factors(self):
        """(factors, free, owner) when the family factors into a join: two
        or more factors, or one and a free class, whose tables fit in
        JOIN_BYTES; else None.

        A side's values depend only on the varying classes of its cone
        (analysis.cone_classes).  Sides whose cones share a class fall in
        one factor, its classes listed in index order; factors come in the
        order of their first class.  A varying class in no cone is free:
        no side reads it.  owner[i, j] is the factor of side j of atom i,
        or -1 for a constant side or one whose cone holds no varying
        class."""

        cones = cone_classes(self.compiled)
        groups = _UnionFind(range(self.space.n_classes))
        for classes in cones.values():
            for k in classes[1:]:
                groups.union(classes[0], k)
        reached = {k for classes in cones.values() for k in classes}
        by_root: dict[int, list[int]] = {}
        for k in sorted(reached):
            by_root.setdefault(groups.find(k), []).append(k)
        factors = list(by_root.values())
        free = [k for k, d in enumerate(self.space.domains) if len(d) > 1 and k not in reached]
        if len(factors) < 2 and not (factors and free):
            return None
        atoms = self.formula.atoms
        sizes = [prod(len(self.space.domains[k]) for k in classes) for classes in factors]
        if 16 * len(atoms) * sum(sizes) + 2 > JOIN_BYTES:
            return None
        factor_of = {k: f for f, classes in enumerate(factors) for k in classes}
        owner = np.full((len(atoms), 2), -1)
        for i, atom in enumerate(atoms):
            for j, side in enumerate((atom.left, atom.right)):
                if isinstance(side, Query) and cones[side.slot, side.state]:
                    owner[i, j] = factor_of[cones[side.slot, side.state][0]]
        return factors, free, owner

    def _join(self, factors, free, owner) -> bool:
        """Settle the whole family as the join of its factors' value
        tables, into one part of the satisfying set (_Join).  False, with
        nothing settled, when the tables and the tuples of their value
        classes would hold more than JOIN_BYTES; the family is refined.

        Each factor's members are checked once, on the model restricted to
        its sides' cones (analysis.restrict_to_cones), which read no class
        outside the factor, and counted as enumerated members.  The rows of
        a factor's side values are grouped bit for bit into value classes:
        equal rows give every atom the same truth.  The sides of no factor
        are solved once, on their own cones, for the member taking every
        class's first action.  The atoms are evaluated once per tuple of
        value classes, one per factor, a chunk of about CHUNK_BYTES of side
        values at a time, with those sides as constants.  A tuple that holds
        adds the product of its classes' sizes to the count.  Its least
        member takes each factor's least table member in its class, and
        every other class at its first action; the set's least member is
        the least of these."""

        self.factors = len(factors)
        space = self.space
        rows, classes, least = [], [], []
        for f, members in enumerate(factors):
            model = restrict_to_cones(self.compiled, owner == f)
            box = [d if k in members else d[:1] for k, d in enumerate(space.domains)]
            parts = []
            for chunk, checks in self._checked(model, box):
                parts.append(checks.values[: len(chunk)][:, owner == f])
                self.iterations += len(chunk)
                self.enumerated += len(chunk)
            table = np.concatenate(parts)
            first, inverse = _distinct_rows(table)
            rows.append(table[first])
            classes.append(inverse)
            least.append(first)

        shape = [len(distinct) for distinct in rows]
        tables = [len(inverse) for inverse in classes]
        if 16 * len(self.formula.atoms) * sum(tables) + 2 * prod(shape) > JOIN_BYTES:
            self.factors = 0
            return False
        lowest = np.array([[d[0] for d in space.domains]], dtype=np.intp)
        base = check_members(restrict_to_cones(self.compiled, owner == -1), lowest).values[0]
        # the weights of all tuples sum to the product of the tables
        exact = np.intp if prod(tables) <= _INDEX_LIMIT else object
        sizes = [np.bincount(c, minlength=n).astype(exact) for c, n in zip(classes, shape)]
        # the lexicographic index of a tuple's least member is the sum of
        # its value classes' ranks: factors own disjoint classes, and a
        # class's domain is its actions 0, 1, ..., so a table member's
        # digits are its actions
        radix = [len(d) for d in space.domains]
        index = np.intp if prod(radix) <= _INDEX_LIMIT else object
        ranks = []
        for members, first in zip(factors, least):
            digits = np.unravel_index(first, [radix[k] for k in members])
            strides = (prod(radix[k + 1 :]) for k in members)
            ranks.append(sum(d.astype(index) * w for d, w in zip(digits, strides)))
        held = np.empty(prod(shape), dtype=bool)
        count, best = 0, None
        step = max(1, CHUNK_BYTES // base.nbytes)
        for start in range(0, len(held), step):
            self._check_time()
            picks = np.unravel_index(np.arange(start, min(len(held), start + step)), shape)
            values = np.repeat(base[None], len(picks[0]), axis=0)
            for f, pick in enumerate(picks):
                values[:, owner == f] = rows[f][pick]
            holds = held[start : start + step] = formula_holds(self.formula, values)[0]
            if not holds.any():
                continue
            hits = [pick[holds] for pick in picks]
            count += int(prod(size[hit] for size, hit in zip(sizes, hits)).sum())
            rank = sum(r[hit] for r, hit in zip(ranks, hits))
            low = rank.argmin()
            if best is None or rank[low] < best[0]:
                best = rank[low], [hit[low] for hit in hits]

        real = [0] * space.n_classes
        for members, first, c in zip(factors, least, best[1] if count else ()):
            for k, a in zip(members, np.unravel_index(first[c], [radix[k] for k in members])):
                real[k] = int(a)
        count *= prod(len(space.domains[k]) for k in free)
        self.sat.add(_Join(space, factors, classes, held.reshape(shape), count, tuple(real)), count)
        self._decide(space.family_size())
        return True

    def _settle(self, members, holds):
        """Act on checked members, settling each as a box of one, in order:
        in feasibility mode up to the first that holds, which is returned
        as the witness; in complete mode those that hold are added to the
        satisfying set as one array of members; in optimal mode the first
        that holds at the greatest distance is folded into the incumbent."""

        hits = np.flatnonzero(holds)
        if self.mode == "feasibility" and hits.size:
            members = members[: hits[0] + 1]
        self.explored += len(members)
        self.decided += len(members)
        if not hits.size:
            return None
        if self.mode == "feasibility":
            return tuple(members[-1].tolist())
        sat = members[hits]
        if self.mode == "complete":
            self.sat.add(sat, len(sat))
            return None
        left, right = [k0 for k0, _ in self.pairs], [k1 for _, k1 in self.pairs]
        distances = np.count_nonzero(sat[:, left] != sat[:, right], axis=1)
        self._note_sat(tuple(sat[distances.argmax()].tolist()))
        return None

    def _handle_allsat(self, node, stack):
        """Interval analysis certified every member.  Recheck one, in
        optimal mode a member attaining the box's distance bound and
        otherwise the first, then act on the box by mode; split it when the
        recheck fails."""

        if self.mode == "optimal":
            real = max_distance_completion(node, self.pairs)
        else:
            real = node.first_realisation()
        if not check_members(self.compiled, [real]).holds[0]:
            self._split(node, stack)
            return None
        if self.mode == "feasibility":
            return real
        if self.mode == "complete":
            self.sat.add(node, node.size())
        else:
            self._note_sat(real)
        self._decide(node.size())
        return None

    def _handle_open(self, node, residual, verdicts, bounds, stack):
        """Check the open box's candidates, and under hybrid its first
        member, in one batch; then prune or split the box."""

        candidates = []
        if self.mode != "complete":
            candidates = [pa.complete(node) for pa in _compose(residual, verdicts)]
        first = [node.first_realisation()] if self.method == "hybrid" else []
        checks = check_members(self.compiled, candidates + first) if candidates or first else None
        for j, real in enumerate(candidates):
            if not checks.holds[j]:
                continue
            if self.mode == "feasibility":
                return real
            self._note_sat(real)
        if self._outranked(node):
            self._decide(node.size())
            return None

        if first:
            real = first[0]
            if checks.holds[-1]:
                if self.mode == "feasibility":
                    return real
                if self.mode == "optimal":
                    self._note_sat(real)
            else:
                rest = self._try_conflict_prune(node, residual, real, checks.truth[-1], bounds)
                if rest is not None:
                    stack.extend(rest)
                    return None

        self._split(node, stack, verdicts)
        return None

    def _split(self, node, stack, verdicts=None):
        """Split the box and push the pieces.  Of the open atoms, in atom
        order, the first whose witnesses conflict splits on its widest
        conflicting class (the lowest on ties), else the first whose
        candidates disagree splits on that class.  Without such an atom,
        or without verdicts, the first class with two or more actions gets
        one child per action."""

        open_verdicts = []
        if verdicts:
            open_verdicts = [
                verdicts[i] for i in self.formula.atom_order() if verdicts[i].case == "open"
            ]
        conflicting = [v for v in open_verdicts if v.conflict_actions]
        disagreeing = [v for v in open_verdicts if v.disagreements]
        if conflicting:
            scores = self.analyzer.score_conflicts(conflicting[0])
            k = max(sorted(scores), key=scores.get)
            actions = conflicting[0].conflict_actions[k]
        elif disagreeing:
            k, a_left, a_right = disagreeing[0].disagreements[0]
            actions = (a_left, a_right)
        else:
            k = next((k for k, dom in enumerate(node.domains) if len(dom) > 1), None)
            if k is None:
                raise AssertionError("split requested on a singleton box")
            actions = node.domains[k]
        self.splits += 1
        stack.extend(split_node(node, k, actions))

    # -- hybrid counterexamples ------------------------------------------

    def _try_conflict_prune(self, node, residual, real, truth, bounds):
        """Certify the checked member's violation for a sub-box and carve
        it out; truth[i] is whether the member meets atom i, and bounds is
        the box's side_bounds table, whose lower bounds deflate a left side
        and upper bounds a right one.  Returns the complement boxes, or None
        when no mandatory reachability comparison yields a certificate."""

        choices = tuple(c.choices for c in controllers(self.space, real))
        best = None
        for i in sorted(mandatory_atoms(residual)):
            if truth[i]:
                continue  # this atom holds; not the reason for failure
            atom = self.formula.atoms[i]
            if any(
                isinstance(side, Query) and side.kind == "reward"
                for side in (atom.left, atom.right)
            ):
                continue
            sides = []
            slots = []
            for pick, side in enumerate((atom.left, atom.right)):
                if not isinstance(side, Query):
                    sides.append(float(side))
                    slots.append(None)
                    continue
                weights = bounds[side.kind, side.slot, side.target][pick].values
                target = self.m.target(side.target)
                choice = choices[side.slot]
                sides.append(CeSide(self.analyzer.rows, choice, side.state, target, weights))
                slots.append(side.slot)
            grown = grow_conflict(sides[0], sides[1], atom.offset)
            if grown is None:
                continue
            classes = conflict_classes(
                self.space, node, slots[0], grown[0], slots[1], grown[1]
            )
            key = (len(classes), i)
            if best is None or key < best[0]:
                best = (key, classes)
        if best is None:
            return None
        agree, rest = complement_boxes(node, real, best[1])
        self._decide(agree.size())
        self.ce_prunes += 1
        return rest


def synthesize(
    m: Mdp,
    spec: HyperSpec,
    *,
    mode: str = "feasibility",
    method: str = "ar",
    max_iters: int | None = None,
    time_limit: float | None = None,
) -> SynthesisOutcome:
    """Decide the specification over the controller family of the model.

    mode picks the question: feasibility (one witness), complete (all
    satisfying members, as disjoint boxes), optimal (a satisfying pair of
    controllers differing in as many decisions as possible).  method picks
    the engine: "ar" pure interval refinement, "hybrid" adds member checks
    with counterexample pruning, "oracle" checks every member directly.
    """

    if mode not in MODES:
        raise SpecError(f"unknown mode {mode!r}")
    if method not in METHODS:
        raise SpecError(f"unknown method {method!r}")
    # NaN fails every comparison, so it is rejected with the negatives; a
    # bool is an Integral, but neither a duration nor a count
    for limit, kind, rule in (
        (time_limit, Real, "time limit must be a nonnegative number"),
        (max_iters, Integral, "iteration limit must be a nonnegative integer"),
    ):
        valid = limit is None or isinstance(limit, kind) and type(limit) is not bool and limit >= 0
        if not valid:
            raise SpecError(f"{rule}, not {limit!r}")
    return _Synthesizer(m, spec, mode, method, max_iters, time_limit).run()
