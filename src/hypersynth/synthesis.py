"""Controller family synthesis by abstraction refinement.

The engine answers: does the family hold a tuple of controllers satisfying
an instantiated hyperproperty, and in complete or optimal modes, which
members or which maximally different pair.

A family node (box) is analysed in one table: each distinct query of the
formula gets its minimal and maximal values over the controllers of the MDP
restricted to the node, which is the MDP itself with each state's actions
limited to those the node allows (see family.node_restrict), and every
atom is classified on that table.  Atoms decided on the whole box simplify
the formula; a box whose residual collapses is classified wholesale.  Open
boxes produce
candidate members from the extremal witnesses, which are verified exactly
before being reported.  Undecided boxes are split on the parameter class
where the witnesses of the first conflicting open atom use the most
actions, and the pieces go back on a LIFO stack.  Every verdict that
leaves the engine rests on exact member checks or on interval bounds with
the guard band analysis.GUARD_BAND, never on iteration noise.

The hybrid method additionally checks one concrete member per open box and,
when that member violates a mandatory reachability comparison, prunes away
the whole sub-box sharing the violation's local structure (see
counterexamples).

Member checks run on the model and formula, compiled together once per run
(see analysis).  The enumerator streams the members of one or more boxes
as arrays of action ordinals, box by box and in lexicographic order within
a box, and checks each chunk with one batched call.  It then settles the
chunk in one step, in that order: the first member that holds is the
witness, or every one that holds is a satisfying box, or the first at the
greatest distance updates the incumbent.  Limits are checked before and
after each batch, and iterations are counted per member, so an iteration
limit stops at its member exactly.  When refinement enumerates a box, the
boxes right below it on the stack that it would enumerate too join the
call, so that no box but the last ends in a part-filled chunk, except in
optimal mode.  An open box checks its candidates and hybrid's member in
one batch; a box of one member and an accepted box's recheck are batches
of one.

Refinement settles a popped box by exact member checks instead, through the
oracle's enumerator, when checking all its members is expected to cost no
more than settling it by analysis.  Both sides are priced in dense
linear-solve calls (analysis.solve_count), one per call whether it solves
one system or a batch, so the same call makes the same decisions on every
run and every machine.  A batch of member checks makes one solve per
query group of the formula (analysis.CompiledModel.solves), known from the
compiled model before any check runs.  Enumerating a box of N members costs
its share of the batches: groups * N / chunk, since stacked sibling boxes
share a chunk, or in optimal mode, where each box gets its own batches,
groups * ceil(N / chunk).  An analysis is priced by the subtree it leaves
behind: the mean solves of one box analysis (policy-iteration rounds,
certificate solves and the member checks made during it) over the
run's settle rate, (settling + 1) / (analyses + 2), where an analysis
settles when members were settled during it or it found the outcome.
The root is always analysed, since no analysis has been counted when it is popped.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from math import isnan

import numpy as np

# bench/spans.py times member checks by wrapping check_mc and impose, and
# chain solves by wrapping reach_probs, expected_reward and expected_visits,
# at this module's names.  The engine calls none of them, but every hooked
# name must resolve, so all of them stay importable here
from .analysis import (
    GUARD_BAND,
    CompiledModel,
    RowTable,
    check_mc,  # noqa: F401
    check_members,
    compile_model,
    expected_reward,  # noqa: F401
    expected_visits,  # noqa: F401
    extremal_reach,
    extremal_reward,
    reach_probs,  # noqa: F401
    row_table,
    solve_count,
)
from .counterexamples import CeSide, complement_boxes, conflict_classes, grow_conflict
from .errors import LimitExceeded, SpecError
from .family import (
    EMPTY_ASSIGNMENT,
    FamilyNode,
    ParameterSpace,
    PartialAssignment,
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

    def side_bounds(self, node: FamilyNode) -> dict:
        """The box's bounds table: per (kind, slot, target) query of the
        formula, its (min, max) ExtremalResult over the box, whose witnesses
        choose among the box's actions."""

        menus, bounds = {}, {}
        for kind, slot, target in self.formula.queries:
            if slot not in menus:
                menus[slot] = node_restrict(self.m, node, slot)
            solve = extremal_reach if kind == "reach" else extremal_reward
            tgt = self.m.target(target)
            bounds[kind, slot, target] = tuple(
                solve(self.m, tgt, d, menus[slot], self.rows) for d in ("min", "max")
            )
        return bounds

    def atom_verdict(self, bounds: dict, i: int) -> AtomVerdict:
        """Classify atom i on a box, given the box's side_bounds table."""

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

        # open: mine the satisfaction-directed witnesses (the left side's
        # minimiser, the right side's maximiser) for candidates
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

        # margin requirements: a strict atom's candidate must be able to
        # satisfy strictly, not just touch the bound
        def sat_possible(a, b):
            return a < b if atom.strict else a <= b

        tag = "0"
        candidates: tuple[PartialAssignment, ...] = ()
        disagreements: tuple[tuple[int, int, int], ...] = ()
        box_l, box_r = boxes
        cond5 = lo_r + off <= lo_l <= hi_r + off <= hi_l and sat_possible(lo_l, hi_r + off)
        cond3 = sat_possible(lo_l, lo_r + off)
        cond4 = sat_possible(hi_l, hi_r + off)
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

        return AtomVerdict(
            "open", tag, (lo_l, hi_l), (lo_r, hi_r), candidates, disagreements, conflict_actions,
        )

    def score_conflicts(self, verdict: AtomVerdict) -> dict:
        """Split score per conflicting class: how many actions the
        witnesses use on it.  bench/spans.py times it as the split-score
        layer."""

        return {k: len(acts) for k, acts in verdict.conflict_actions.items()}


def _compose(residual, verdicts):
    """Candidate sub-boxes whose members plausibly satisfy the residual, an
    atom or an and/or node with no constant inside: conjunctions merge
    compatible candidates, disjunctions concatenate."""

    tag = residual[0]
    if tag == "atom":
        return list(verdicts[residual[1]].candidates)
    if tag == "and":
        acc = [EMPTY_ASSIGNMENT]
        for child in residual[1]:
            step = []
            for pa in acc:
                for cb in _compose(child, verdicts):
                    merged = pa.merge(cb)
                    if merged is not None and merged not in step:
                        step.append(merged)
                    if len(step) >= COMPOSE_CAP:
                        break
                if len(step) >= COMPOSE_CAP:
                    break
            if not step:
                return []
            acc = step
        return acc[:COMPOSE_CAP]
    out = []  # tag == "or"
    for child in residual[1]:
        for cb in _compose(child, verdicts):
            if cb not in out:
                out.append(cb)
        if len(out) >= COMPOSE_CAP:
            break
    return out[:COMPOSE_CAP]


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


def member_chunks(boxes, size: int):
    """The members of the boxes, each box given by its per-class domains,
    as consecutive (members x classes) intp arrays of up to size rows.  The
    boxes come one after another, each in the order itertools.product lists
    it, and a box's last chunk is filled up with the next box's members.

    A box's members are numbered in the mixed radix of its domain sizes and
    decoded with np.unravel_index.  When a box has more members than an
    intp can number, its leading classes are stepped through in Python and
    the rest decoded as before."""

    parts, filled = [], 0
    for domains in boxes:
        radix = [len(d) for d in domains]
        cut, count = len(radix), 1
        while cut and count * radix[cut - 1] <= _INDEX_LIMIT:
            cut -= 1
            count *= radix[cut]
        tail = [np.array(d, dtype=np.intp) for d in domains[cut:]]
        for head in product(*domains[:cut]):
            start = 0
            while start < count:
                stop = min(count, start + size - filled)
                block = np.empty((stop - start, len(radix)), dtype=np.intp)
                block[:, :cut] = head
                if tail:
                    digits = np.unravel_index(np.arange(start, stop), radix[cut:])
                    for k, (dom, digit) in enumerate(zip(tail, digits), cut):
                        block[:, k] = dom[digit]
                parts.append(block)
                filled += stop - start
                start = stop
                if filled == size:
                    yield np.concatenate(parts)
                    parts, filled = [], 0
    if parts:
        yield np.concatenate(parts)


def satisfying_realisations(m: Mdp, space: ParameterSpace, formula: InstantiatedFormula):
    """Yield every satisfying realisation, lexicographically.  Members are
    checked a batch at a time, a batch only once the previous one's
    satisfying members have all been asked for."""

    compiled = compile_model(m, space, formula)
    for chunk in member_chunks([space.domains], compiled.chunk):
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


def cheaper_to_enumerate(size: int, member_cost: float, price: float | None) -> bool:
    """Whether checking all ``size`` members of a box is expected to cost no
    more than settling it by analysis, given the solves per enumerated
    member and the solves an analysis is priced at (None while no analysis
    is counted)."""

    if price is None:
        return False
    return size * member_cost <= price


# ---------------------------------------------------------------------------
# Outcome


@dataclass
class SynthesisOutcome:
    verdict: str  # "feasible" | "unfeasible"
    realisation: tuple | None
    witness: tuple | None  # Controllers, one per slot
    satisfying: tuple = ()  # complete mode: disjoint boxes of members
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
        self.space = build_parameter_space(m, spec.n_controllers, spec.constraints)
        self.formula = instantiate(spec, m)
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
        self.atom_report = []
        self.sat_boxes: list[FamilyNode] = []
        self.satisfying = 0  # members of sat_boxes
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
            exc = LimitExceeded(f"iteration limit {self.max_iters} reached")
            exc.stats = self._stats("unknown")
            raise exc
        if self.time_limit is not None and self._elapsed() > self.time_limit:
            exc = LimitExceeded(f"time limit {self.time_limit}s exceeded")
            exc.stats = self._stats("unknown")
            raise exc

    def _stats(self, verdict, realisation=None, witness=None, optimal_value=None):
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
            "analyses": self.analyses,
            "settling_analyses": self.settling,
            "solves": solve_count() - self.solves0,
            "wall_time_s": self._elapsed(),
            "limit": None,
            "witness": None,
            "optimal_value": optimal_value,
            "atoms": list(self.atom_report),
        }
        if witness is not None:
            out["witness"] = {
                "realisation": list(realisation),
                "controllers": [list(c.choices) for c in witness],
            }
        if self.mode == "complete":
            out["satisfying_count"] = self.satisfying
        return out

    def _outcome(self, verdict, realisation=None, witness=None, optimal_value=None):
        return SynthesisOutcome(
            verdict,
            realisation,
            witness,
            tuple(self.sat_boxes),
            optimal_value,
            self._stats(verdict, realisation, witness, optimal_value),
        )

    # -- member checks ----------------------------------------------------

    @cached_property
    def compiled(self) -> CompiledModel:
        """The model and formula compiled for member checks, on the run's
        first one."""

        return compile_model(self.m, self.space, self.formula)

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

    def _member_solves(self, size: int) -> float:
        """Solves per member of enumerating a box of this size: a share of
        its chunk's batch, which stacked sibling boxes share, or in optimal
        mode a share of the box's own batches."""

        chunk, solves = self.compiled.chunk, self.compiled.solves
        if self.mode == "optimal":
            return solves * -(-size // chunk) / size
        return solves / chunk

    def _enumeration_pays(self, node) -> bool:
        size = node.size()
        return cheaper_to_enumerate(
            size,
            self._member_solves(size),
            subtree_price(self.analysis_solves, self.analyses, self.settling),
        )

    # -- the loop ----------------------------------------------------------

    def run(self) -> SynthesisOutcome:
        root = root_node(self.space)
        stack = [root]
        while stack:
            node = stack.pop()
            if node is root or self._outranked(node) or not self._enumeration_pays(node):
                done = self._refine(node, stack)
            else:
                done = self._enumerate(self._siblings(node, stack))
            if done is not None:
                return done
        return self._finish()

    def _siblings(self, node, stack):
        """The popped box plus the boxes right below it on the stack that
        the switch would enumerate too.  Optimal mode takes one box at a
        time: a member found in one box can outrank the next."""

        nodes = [node]
        while self.mode != "optimal" and stack and self._enumeration_pays(stack[-1]):
            nodes.append(stack.pop())
        return nodes

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
            return self._found(self._settle(real, check_members(self.compiled, real).holds))
        explored, solves = self.explored, solve_count()
        done = self._analyse(node, stack)
        self.analysis_solves += solve_count() - solves
        self.analyses += 1
        self.settling += done is not None or self.explored > explored
        return done

    def _analyse(self, node, stack):
        """Interval-analyse a box, then decide, split or prune it."""

        bounds = self.analyzer.side_bounds(node)
        verdicts = {
            i: self.analyzer.atom_verdict(bounds, i) for i in range(len(self.formula.atoms))
        }
        if self.iterations == 1:
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

        forced = {}
        for i, v in verdicts.items():
            if v.case == "allsat":
                forced[i] = True
            elif v.case == "allunsat":
                forced[i] = False
        residual = substitute(self.formula.root, forced)

        if residual == FALSE:
            self._decide(node.size())
            return None
        if residual == TRUE:
            return self._handle_allsat(node, stack)
        return self._handle_open(node, residual, verdicts, bounds, stack)

    def _enumerate(self, nodes):
        """Settle boxes by checking their members, box by box and each in
        lexicographic order: the oracle's whole run, and refinement's on
        cheap boxes.  The members of all the boxes form one stream of index
        arrays (member_chunks), so small sibling boxes share a batch.  Each
        chunk is checked in one batch and settled in one step.  The limits
        are checked before and after each batch, and a chunk is settled no
        further than the iteration limit allows, so the counts stop at that
        member exactly."""

        for chunk in member_chunks((node.domains for node in nodes), self.compiled.chunk):
            self._check_limits()
            holds = check_members(self.compiled, chunk).holds
            self._check_limits()
            room = len(chunk) if self.max_iters is None else self.max_iters - self.iterations
            explored = self.explored
            witness = self._settle(chunk[:room], holds[:room])
            self.iterations += self.explored - explored
            self.enumerated += self.explored - explored
            if witness is not None:
                return self._found(witness)
            if room < len(chunk):
                self._check_limits()  # the iteration limit, reached mid-chunk
        return None

    def _finish(self) -> SynthesisOutcome:
        if self.mode == "complete" and self.sat_boxes:
            return self._found(self.sat_boxes[0].first_realisation())
        if self.mode == "optimal" and self.incumbent is not None:
            return self._found(self.incumbent_real, self.incumbent)
        return self._outcome("unfeasible")

    def _found(self, witness, optimal_value=None):
        """The feasible outcome of a witness realisation, if any, with its optimal value."""

        if witness is None:
            return None
        return self._outcome("feasible", witness, controllers(self.space, witness), optimal_value)

    def _settle(self, members, holds):
        """Act on checked members, settling each as a box of one, in order:
        in feasibility mode up to the first that holds, which is returned
        as the witness; in complete mode every one that holds is a
        satisfying box; in optimal mode the first that holds at the
        greatest distance is folded into the incumbent."""

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
            self.sat_boxes.extend(FamilyNode(self.space, tuple(zip(real))) for real in sat.tolist())
            self.satisfying += len(sat)
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
            return self._found(real)
        if self.mode == "complete":
            self.sat_boxes.append(node)
            self.satisfying += node.size()
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
                return self._found(real)
            self._note_sat(real)
        if self._outranked(node):
            self._decide(node.size())
            return None

        if first:
            real = first[0]
            if checks.holds[-1]:
                if self.mode == "feasibility":
                    return self._found(real)
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

    # -- exhaustive enumeration ------------------------------------------

    def run_oracle(self) -> SynthesisOutcome:
        done = self._enumerate([root_node(self.space)])
        return done if done is not None else self._finish()


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
    if time_limit is not None and isnan(time_limit):
        raise SpecError("time limit is NaN")
    if time_limit is not None and time_limit < 0:
        raise SpecError(f"time limit must not be negative, not {time_limit!r}")
    if max_iters is not None and max_iters < 0:
        raise SpecError(f"iteration limit must not be negative, not {max_iters!r}")
    engine = _Synthesizer(m, spec, mode, method, max_iters, time_limit)
    if method == "oracle":
        return engine.run_oracle()
    return engine.run()


def enumerate_satisfying(m: Mdp, spec: HyperSpec):
    """All satisfying realisations, lexicographically.  Test oracle."""

    space = build_parameter_space(m, spec.n_controllers, spec.constraints)
    return list(satisfying_realisations(m, space, instantiate(spec, m)))
