"""Controller family synthesis by abstraction refinement.

The engine answers: does the family hold a tuple of controllers satisfying
an instantiated hyperproperty, and in complete or optimal modes, which
members or which maximally different pair.

A family node (box) is analysed atom by atom: each comparison side gets a
value interval from optimistic and pessimistic controllers of the MDP
restricted to the node, which is the MDP itself with each state's actions
limited to those the node allows (see family.node_restrict).  Atoms
decided on the whole box simplify the formula; a box whose residual
collapses is classified wholesale.  Open boxes produce
candidate members from the extremal witnesses, which are verified exactly
before being reported.  Undecided boxes are split on the parameter class
where the witnesses of the first conflicting open atom use the most
actions, and the pieces go back on a LIFO stack.  Every verdict that
leaves the engine rests on exact member checks or on interval bounds with
a guard band, never on iteration noise.

The hybrid method additionally checks one concrete member per open box and,
when that member violates a mandatory reachability comparison, prunes away
the whole sub-box sharing the violation's local structure (see
counterexamples).

Member checks run on the model compiled once per run (see analysis).  The
enumerator checks the members of one or more boxes as one stream, in
chunks with one batched call each, then settles them one by one, box by box
and in lexicographic order within a box, checking limits and counting
iterations per member.  When refinement enumerates a box, the boxes right
below it on the stack that it would enumerate too join the call, so that
no box but the last ends in a part-filled chunk, except in optimal mode.  An open box checks its
candidates and hybrid's member in one batch; a box of one member and an
accepted box's recheck are batches of one.

Refinement settles a popped box by exact member checks instead, through the
oracle's enumerator, when checking all its members is expected to cost no
more than settling it by analysis.  Both sides are priced in dense
linear-solve calls (analysis.solve_count), one per call whether it solves
one system or a batch, so the same call makes the same decisions on every
run and every machine.  A batch of member checks makes one solve per
distinct (kind, slot, target) query of the formula, known before any check
runs.  Enumerating a box of N members costs its share of the batches:
queries * N / chunk, since stacked sibling boxes share a chunk, or in
optimal mode, where each box gets its own batches, queries * ceil(N /
chunk).  An analysis is priced by the subtree it leaves behind: the mean
solves of one box analysis (policy-iteration rounds, chain solves and the
member checks made during it) over the run's settle rate, (settling + 1) /
(analyses + 2), where an analysis settles when members were settled during
it or it found the outcome.  The root is always analysed, since no
analysis has been counted when it is popped.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice, product
from math import isfinite, isnan

# bench/spans.py times member checks by wrapping check_mc and impose, and
# chain solves by wrapping reach_probs, expected_reward and expected_visits,
# at this module's names, so all of them stay importable here
from .analysis import (
    DEFAULT_TOL,
    CheckResult,
    CompiledModel,
    batch_solves,
    check_mc,  # noqa: F401
    check_members,
    compile_model,
    expected_reward,  # noqa: F401
    expected_visits,  # noqa: F401
    extremal_reach,
    extremal_reward,
    guard_band,
    reach_probs,  # noqa: F401
    solve_count,
    _closure,
    _successors,
)
from .counterexamples import CeSide, complement_boxes, conflict_classes, grow_conflict
from .errors import LimitExceeded, ModelError, SpecError
from .family import (
    EMPTY_ASSIGNMENT,
    FamilyNode,
    ParameterSpace,
    PartialAssignment,
    build_parameter_space,
    consistency_conflicts,
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
from .model import Controller, Mdp, impose
from .specs import DEFAULT_EQ_EPS, HyperSpec, check_against_model, check_eq_eps, validate_spec
from .textio import format_atom

MODES = ("feasibility", "complete", "optimal")
METHODS = ("ar", "hybrid", "oracle")

# Candidate combinations tried per open box before splitting.
COMPOSE_CAP = 8


# ---------------------------------------------------------------------------
# Quantifier instantiation


def instantiate(spec: HyperSpec, m: Mdp, eps_eq: float = DEFAULT_EQ_EPS) -> InstantiatedFormula:
    """Expand state quantifiers into a quantifier-free formula.

    forall becomes conjunction and exists disjunction over the domain, the
    first quantifier outermost.  Negation is eliminated by flipping
    comparisons, and (in)equality is expanded into two one-sided atoms with
    the tolerance folded into the offset.  Atoms are deduplicated; the
    table keeps first-occurrence order.
    """

    validate_spec(spec)
    check_against_model(spec, m)
    check_eq_eps(eps_eq)

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
            eps = sa.eps if sa.eps is not None else eps_eq
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


@dataclass(frozen=True)
class SideBounds:
    """Extremal value vectors of one (slot, kind, target) side over a box,
    with witness controllers choosing among the box's actions."""

    min_values: object
    max_values: object
    min_controller: Controller
    max_controller: Controller


@dataclass
class AtomVerdict:
    index: int
    case: str  # "allsat" | "allunsat" | "open"
    tag: str   # table row that fired: "1".."5", or "0" for none
    left: tuple[float, float]
    right: tuple[float, float]
    candidates: tuple[PartialAssignment, ...] = ()
    disagreements: tuple[tuple[int, int, int], ...] = ()
    conflict_actions: dict = field(default_factory=dict)


class NodeAnalyzer:
    """Per-box interval bounds and atom classification, with caching."""

    def __init__(self, m: Mdp, space: ParameterSpace, formula: InstantiatedFormula, tol: float):
        self.m = m
        self.space = space
        self.formula = formula
        self.tol = tol
        self.guard = guard_band(tol)
        # bounds of the box last asked about, keyed by (slot, kind, target);
        # a box's sides are only asked for while that box is analysed
        self._box = None
        self._bounds: dict = {}

    def side_bounds(self, node: FamilyNode, q: Query) -> SideBounds:
        if node.domains != self._box:
            self._box = node.domains
            self._bounds.clear()
        key = (q.slot, q.kind, q.target)
        got = self._bounds.get(key)
        if got is not None:
            return got
        allowed = node_restrict(self.m, node, q.slot)
        tgt = self.m.target(q.target)
        solve = extremal_reach if q.kind == "reach" else extremal_reward
        lo = solve(self.m, tgt, "min", self.tol, allowed)
        hi = solve(self.m, tgt, "max", self.tol, allowed)
        got = SideBounds(lo.values, hi.values, lo.witness, hi.witness)
        self._bounds[key] = got
        return got

    def atom_verdict(self, node: FamilyNode, i: int) -> AtomVerdict:
        atom = self.formula.atoms[i]
        off = atom.offset
        g = self.guard

        def interval(side):
            if isinstance(side, Query):
                sb = self.side_bounds(node, side)
                return (float(sb.min_values[side.state]), float(sb.max_values[side.state])), sb
            return (float(side), float(side)), None

        (lo_l, hi_l), sb_l = interval(atom.left)
        (lo_r, hi_r), sb_r = interval(atom.right)

        if atom.strict:
            if hi_l < lo_r + off - g:
                return AtomVerdict(i, "allsat", "1", (lo_l, hi_l), (lo_r, hi_r))
            if lo_l >= hi_r + off + g:
                return AtomVerdict(i, "allunsat", "2", (lo_l, hi_l), (lo_r, hi_r))
        else:
            if hi_l <= lo_r + off - g:
                return AtomVerdict(i, "allsat", "1", (lo_l, hi_l), (lo_r, hi_r))
            if lo_l > hi_r + off + g:
                return AtomVerdict(i, "allunsat", "2", (lo_l, hi_l), (lo_r, hi_r))

        # open: mine the satisfaction-directed witnesses for candidates
        boxes = {}
        conflict_actions: dict = {}
        for side_name, q, sb, wit_attr in (
            ("left", atom.left, sb_l, "min_controller"),
            ("right", atom.right, sb_r, "max_controller"),
        ):
            if not isinstance(q, Query):
                boxes[side_name] = EMPTY_ASSIGNMENT
                continue
            witness = getattr(sb, wit_attr)
            relevant = frozenset(_closure(_successors(impose(self.m, witness)), (q.state,)))
            conflicts = consistency_conflicts(self.space, q.slot, witness, relevant)
            if conflicts:
                boxes[side_name] = None
                for k, acts in conflicts.items():
                    merged = set(conflict_actions.get(k, ())) | set(acts)
                    conflict_actions[k] = tuple(sorted(merged))
            else:
                boxes[side_name] = controller_box(self.space, q.slot, witness, relevant)

        # margin requirements: a strict atom's candidate must be able to
        # satisfy strictly, not just touch the bound
        def sat_possible(a, b):
            return a < b if atom.strict else a <= b

        tag = "0"
        candidates: tuple[PartialAssignment, ...] = ()
        disagreements: tuple[tuple[int, int, int], ...] = ()
        box_l, box_r = boxes.get("left"), boxes.get("right")
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
            i, "open", tag, (lo_l, hi_l), (lo_r, hi_r),
            candidates, disagreements, conflict_actions,
        )

    def score_conflicts(self, verdict: AtomVerdict) -> dict:
        """Split score per conflicting class: how many actions the
        witnesses use on it.  bench/spans.py times it as the split-score
        layer."""

        return {k: len(acts) for k, acts in verdict.conflict_actions.items()}


def _compose(residual, verdicts, cap: int = COMPOSE_CAP):
    """Candidate sub-boxes whose members plausibly satisfy the residual:
    conjunctions merge compatible candidates, disjunctions concatenate."""

    tag = residual[0]
    if residual == TRUE:
        return [EMPTY_ASSIGNMENT]
    if tag == "atom":
        return list(verdicts[residual[1]].candidates)
    if tag == "and":
        acc = [EMPTY_ASSIGNMENT]
        for child in residual[1]:
            step = []
            for pa in acc:
                for cb in _compose(child, verdicts, cap):
                    merged = pa.merge(cb)
                    if merged is not None and merged not in step:
                        step.append(merged)
                    if len(step) >= cap:
                        break
                if len(step) >= cap:
                    break
            if not step:
                return []
            acc = step
        return acc[:cap]
    if tag == "or":
        out = []
        for child in residual[1]:
            for cb in _compose(child, verdicts, cap):
                if cb not in out:
                    out.append(cb)
            if len(out) >= cap:
                break
        return out[:cap]
    return []


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


def check_member(compiled: CompiledModel, formula: InstantiatedFormula, realisation) -> CheckResult:
    """Check one realisation exactly, as a batch of one."""

    return check_members(compiled, formula, [realisation])[0]


def _chunks(members, size: int):
    """Consecutive lists of up to size members, in the members' order."""

    members = iter(members)
    while chunk := list(islice(members, size)):
        yield chunk


def satisfying_realisations(m: Mdp, space: ParameterSpace, formula: InstantiatedFormula):
    """Yield every satisfying realisation, lexicographically.  Members are
    checked a batch at a time, a batch only once the previous one's
    satisfying members have all been asked for."""

    compiled = compile_model(m, space)
    for chunk in _chunks(product(*space.domains), compiled.chunk):
        holds = check_members(compiled, formula, chunk).holds
        yield from (real for real, ok in zip(chunk, holds) if ok)


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
    def __init__(self, m, spec, mode, method, tol, eps_eq, max_iters, time_limit):
        self.m = m
        self.spec = spec
        self.mode = mode
        self.method = method
        self.tol = tol
        self.guard = guard_band(tol)
        self.space = build_parameter_space(m, spec.n_controllers, spec.constraints)
        self.formula = instantiate(spec, m, eps_eq)
        self.pairs = distance_pairs(self.space) if mode == "optimal" else None
        self.max_iters = max_iters
        self.time_limit = time_limit
        self.analyzer = NodeAnalyzer(m, self.space, self.formula, tol)
        self.act_counts = [m.num_actions(s) for s in range(m.num_states)]

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
        self.batch_solves = batch_solves(self.formula)
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
        """The model compiled for member checks, on the run's first one."""

        return compile_model(self.m, self.space)

    def _check(self, realisations):
        """Check members in one batch."""

        return check_members(self.compiled, self.formula, realisations)

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

        chunk = self.compiled.chunk
        if self.mode == "optimal":
            return self.batch_solves * -(-size // chunk) / size
        return self.batch_solves / chunk

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
            real = node.first_realisation()
            return self._settle(real, self._check([real]).holds[0])
        explored, solves = self.explored, solve_count()
        done = self._analyse(node, stack)
        self.analysis_solves += solve_count() - solves
        self.analyses += 1
        self.settling += done is not None or self.explored > explored
        return done

    def _analyse(self, node, stack):
        """Interval-analyse a box, then decide, split or prune it."""

        verdicts = {
            i: self.analyzer.atom_verdict(node, i)
            for i in range(len(self.formula.atoms))
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
        return self._handle_open(node, residual, verdicts, stack)

    def _enumerate(self, nodes):
        """Settle boxes by checking their members, box by box and each in
        lexicographic order: the oracle's whole run, and refinement's on
        cheap boxes.  The members of all the boxes form one stream, checked
        a chunk at a time, so small sibling boxes share a batch; limits,
        counts and results are still taken member by member, in order."""

        members = chain.from_iterable(product(*node.domains) for node in nodes)
        for chunk in _chunks(members, self.compiled.chunk):
            self._check_limits()
            holds = self._check(chunk).holds
            for real, ok in zip(chunk, holds.tolist()):
                self._check_limits()
                self.iterations += 1
                self.enumerated += 1
                done = self._settle(real, ok)
                if done is not None:
                    return done
        return None

    def _finish(self) -> SynthesisOutcome:
        if self.mode == "complete" and self.sat_boxes:
            real = self.sat_boxes[0].first_realisation()
            return self._outcome("feasible", real, controllers(self.space, real))
        if self.mode == "optimal" and self.incumbent is not None:
            real = self.incumbent_real
            return self._outcome("feasible", real, controllers(self.space, real), self.incumbent)
        return self._outcome("unfeasible")

    def _settle(self, real, holds):
        """Act on one checked member, settling it."""

        self._decide(1)
        if not holds:
            return None
        if self.mode == "feasibility":
            return self._outcome("feasible", real, controllers(self.space, real))
        if self.mode == "complete":
            self.sat_boxes.append(FamilyNode(self.space, tuple((a,) for a in real)))
            self.satisfying += 1
            return None
        self._note_sat(real)
        return None

    def _handle_allsat(self, node, stack):
        """Interval analysis certified every member; recheck one and act."""

        if self.mode == "complete":
            if self._check([node.first_realisation()]).holds[0]:
                self.sat_boxes.append(node)
                self.satisfying += node.size()
                self._decide(node.size())
                return None
            self._split(node, stack)
            return None
        if self.mode == "optimal":
            real = max_distance_completion(node, self.pairs)
            if self._check([real]).holds[0]:
                self._note_sat(real)
                self._decide(node.size())
                return None
            self._split(node, stack)
            return None
        real = node.first_realisation()
        if self._check([real]).holds[0]:
            return self._outcome("feasible", real, controllers(self.space, real))
        self._split(node, stack)
        return None

    def _handle_open(self, node, residual, verdicts, stack):
        """Check the open box's candidates, and under hybrid its first
        member, in one batch; then prune or split the box."""

        candidates = []
        if self.mode != "complete":
            candidates = [pa.complete(node) for pa in _compose(residual, verdicts)]
        first = [node.first_realisation()] if self.method == "hybrid" else []
        checks = self._check(candidates + first) if candidates or first else None
        for j, real in enumerate(candidates):
            if not checks.holds[j]:
                continue
            if self.mode == "feasibility":
                return self._outcome("feasible", real, controllers(self.space, real))
            self._note_sat(real)
        if self._outranked(node):
            self._decide(node.size())
            return None

        if first:
            real = first[0]
            res = checks[len(candidates)]
            if res.holds:
                if self.mode == "feasibility":
                    return self._outcome("feasible", real, controllers(self.space, real))
                if self.mode == "optimal":
                    self._note_sat(real)
            else:
                rest = self._try_conflict_prune(node, residual, real, res)
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

    def _try_conflict_prune(self, node, residual, real, res):
        """Certify the checked member's violation for a sub-box and carve
        it out.  Returns the complement boxes, or None when no mandatory
        reachability comparison yields a certificate."""

        mcs = tuple(impose(self.m, c) for c in controllers(self.space, real))
        best = None
        for i in sorted(mandatory_atoms(residual)):
            if res.atom_values[i][2]:
                continue  # this atom holds; not the reason for failure
            atom = self.formula.atoms[i]
            if any(
                isinstance(side, Query) and side.kind == "reward"
                for side in (atom.left, atom.right)
            ):
                continue
            sides = []
            slots = []
            for side, attr in ((atom.left, "min_values"), (atom.right, "max_values")):
                if not isinstance(side, Query):
                    sides.append(float(side))
                    slots.append(None)
                    continue
                sb = self.analyzer.side_bounds(node, side)
                sides.append(
                    CeSide(
                        mcs[side.slot],
                        side.state,
                        frozenset(self.m.label_states(side.target)),
                        getattr(sb, attr),
                    )
                )
                slots.append(side.slot)
            grown = grow_conflict(sides[0], sides[1], atom.offset, self.guard, self.act_counts)
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
    tol: float = DEFAULT_TOL,
    eps_eq: float = DEFAULT_EQ_EPS,
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
    if not (tol > 0 and isfinite(tol)):
        raise ModelError(f"tol must be positive and finite, not {tol!r}")
    if time_limit is not None and isnan(time_limit):
        raise SpecError("time limit is NaN")
    if time_limit is not None and time_limit < 0:
        raise SpecError(f"time limit must not be negative, not {time_limit!r}")
    if max_iters is not None and max_iters < 0:
        raise SpecError(f"iteration limit must not be negative, not {max_iters!r}")
    engine = _Synthesizer(m, spec, mode, method, tol, eps_eq, max_iters, time_limit)
    if method == "oracle":
        return engine.run_oracle()
    return engine.run()


def enumerate_satisfying(m: Mdp, spec: HyperSpec, eps_eq: float = DEFAULT_EQ_EPS):
    """All satisfying realisations, lexicographically.  Test oracle."""

    space = build_parameter_space(m, spec.n_controllers, spec.constraints)
    return list(satisfying_realisations(m, space, instantiate(spec, m, eps_eq)))
