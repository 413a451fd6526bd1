"""Built-in benchmark families.

Each generator is deterministic in its parameters and returns a model
together with a matching specification, written in the spec language and
read by ``parse_spec``, so the same call always produces byte-identical
files through the text writers.  The families:

knuth-yao-pc      program-conformance: resynthesise a fair die from fair
                  coins next to a reference die, with the first n+1 coin
                  states free to pick any pair of successors.
maze-sd           a 2x5 slippery gridworld; the "simple" variant asks for a
                  start cell dominating another, which no controller
                  achieves; the "checkpoint" variant adds wear-out, per-move
                  checkpoint rewards and observation classes.
thread-scheduling two per-secret instruction chains where a scheduler may
                  take risky speedups; asks for a run-length side channel.
timing-attack     two secret-indexed bit loops with fast/slow schedules and
                  expected-time rewards; asks the patched loop to be no
                  slower than the baseline.
"""

from __future__ import annotations

from .errors import SpecError
from .model import Mdp, make_mdp
from .specs import HyperSpec
from .textio import parse_spec


# ---------------------------------------------------------------------------
# knuth-yao-pc


def knuth_yao_pc(n: int = 0) -> tuple[Mdp, HyperSpec]:
    """Die-from-coins conformance with n+1 unconstrained coin states.

    States 0..6 hold a reference die (0 branches uniformly to the six
    absorbing outcomes 1..6).  States 7..13 are the seven coin-flip states
    of the classic construction, 14..19 its six outcome sinks.  Coin states
    up to 7+n may pick any unordered pair {u, v} of implementation states
    as their fair flip; the rest keep the textbook row.  With n = 0 the
    second flip state additionally chooses between its own textbook row and
    that of the other flip state at its depth, giving a family of 156; each
    further freed state multiplies the family by 78.
    """

    if not 0 <= n <= 6:
        raise SpecError("knuth-yao-pc takes n between 0 and 6")

    ky_row = {
        7: ((8, 0.5), (9, 0.5)),
        8: ((10, 0.5), (11, 0.5)),
        9: ((12, 0.5), (13, 0.5)),
        10: ((8, 0.5), (14, 0.5)),
        11: ((15, 0.5), (16, 0.5)),
        12: ((17, 0.5), (18, 0.5)),
        13: ((9, 0.5), (19, 0.5)),
    }
    pairs = [(u, v) for u in range(7, 20) for v in range(u + 1, 20)]

    trans = []
    names = []
    for s in range(20):
        if s == 0:
            trans.append([[(k, 1.0 / 6.0) for k in range(1, 7)]])
            names.append(["roll"])
        elif 1 <= s <= 6 or s >= 14:
            trans.append([[(s, 1.0)]])
            names.append([None])
        elif s <= 7 + n:
            trans.append([[(u, 0.5), (v, 0.5)] for u, v in pairs])
            names.append([f"pair_{u}_{v}" for u, v in pairs])
        elif n == 0 and s == 8:
            trans.append([[(10, 0.5), (11, 0.5)], [(12, 0.5), (13, 0.5)]])
            names.append(["pair_10_11", "pair_12_13"])
        else:
            trans.append([list(ky_row[s])])
            names.append(["ky"])

    labels = {f"die{k}": (k, 13 + k) for k in range(1, 7)}
    m = make_mdp(trans, labels=labels, action_names=names)

    fair = " & ".join(f"P(s1, F die{k}) = P(s2, F die{k})" for k in range(1, 7))
    spec = parse_spec(
        f"exists sigma : forall s1 in {{0}} [sigma], forall s2 in {{7}} [sigma] : {fair}"
    )
    return m, spec


# ---------------------------------------------------------------------------
# maze-sd


_MAZE_COLS, _MAZE_ROWS = 5, 2
_MAZE_TRAPS = (4, 5)
_MAZE_GOAL = 9
_MAZE_SLIP = 0.8


def _maze_neighbors(s: int) -> list[int]:
    x, y = s % _MAZE_COLS, s // _MAZE_COLS
    out = []
    for dx, dy in ((0, -1), (1, 0), (0, 1), (-1, 0)):
        nx, ny = x + dx, y + dy
        if 0 <= nx < _MAZE_COLS and 0 <= ny < _MAZE_ROWS:
            out.append(ny * _MAZE_COLS + nx)
    return out


def _maze_move(s: int, direction: int) -> list[tuple[int, float]]:
    """One compass action under slip: the intended cell gets 0.8, the rest
    leaks to the other neighbours; bumping a wall stays put instead."""

    x, y = s % _MAZE_COLS, s // _MAZE_COLS
    dx, dy = ((0, -1), (1, 0), (0, 1), (-1, 0))[direction]
    nx, ny = x + dx, y + dy
    nbrs = _maze_neighbors(s)
    dist: dict[int, float] = {}
    if 0 <= nx < _MAZE_COLS and 0 <= ny < _MAZE_ROWS:
        target = ny * _MAZE_COLS + nx
        others = [t for t in nbrs if t != target]
        if not others:
            return [(target, 1.0)]
        dist[target] = _MAZE_SLIP
        for t in others:
            dist[t] = dist.get(t, 0.0) + (1.0 - _MAZE_SLIP) / len(others)
    else:
        dist[s] = _MAZE_SLIP
        for t in nbrs:
            dist[t] = dist.get(t, 0.0) + (1.0 - _MAZE_SLIP) / len(nbrs)
    return sorted(dist.items())


def maze_sd(variant: str = "simple", delta: float = 0.02) -> tuple[Mdp, HyperSpec]:
    """Slippery 2x5 maze (cells 0-4 on top, 5-9 below; traps 4 and 5,
    goal 9).  Every non-absorbing cell exposes the four compass moves.

    simple      one controller, asks P(F goal) from cell 0 to dominate the
                value from cell 8.  Unsatisfiable: the goal is entered from
                8 only, and cell 0 risks the trap on every move, so the
                start value is a strict fraction of the cell-8 value.
    checkpoint  adds an absorbing wear-out sink every move reaches with
                probability delta, rewards each move by its chance of
                entering a checkpoint cell (2 or 7), and merges cells with
                equal wall signatures into observation classes.  Two
                observation-limited patrol controllers from cell 0 must
                match expected checkpoint visits; meant for the optimal
                (most-different-pair) mode.
    """

    free = [s for s in range(10) if s not in _MAZE_TRAPS and s != _MAZE_GOAL]
    dirs = ["north", "east", "south", "west"]

    if variant == "simple":
        trans = []
        names = []
        for s in range(10):
            if s in _MAZE_TRAPS or s == _MAZE_GOAL:
                trans.append([[(s, 1.0)]])
                names.append([None])
            else:
                trans.append([_maze_move(s, d) for d in range(4)])
                names.append(list(dirs))
        m = make_mdp(trans, labels={"goal": (_MAZE_GOAL,)}, action_names=names)
        spec = parse_spec(
            "exists sigma : forall s1 in {0} [sigma], forall s2 in {8} [sigma] :"
            " P(s1, F goal) >= P(s2, F goal)"
        )
        return m, spec

    if variant != "checkpoint":
        raise SpecError(f"unknown maze-sd variant {variant!r}")
    if not 0.0 < delta < 1.0:
        raise SpecError("maze-sd checkpoint needs 0 < delta < 1")

    broken = 10
    checkpoints = (2, 7)
    trans = []
    names = []
    rewards: dict[tuple[int, int], float] = {}
    for s in range(10):
        if s in _MAZE_TRAPS or s == _MAZE_GOAL:
            trans.append([[(s, 1.0 - delta), (broken, delta)]])
            names.append([None])
            rewards[(s, 0)] = 0.0
        else:
            rows = []
            for d in range(4):
                row = [(t, p * (1.0 - delta)) for t, p in _maze_move(s, d)]
                row.append((broken, delta))
                rows.append(row)
                rewards[(s, d)] = sum(
                    p for t, p in _maze_move(s, d) if t in checkpoints
                )
            trans.append(rows)
            names.append(list(dirs))
    trans.append([[(broken, 1.0)]])
    names.append([None])
    rewards[(broken, 0)] = 0.0

    m = make_mdp(
        trans,
        labels={"goal": (_MAZE_GOAL,), "broken": (broken,)},
        rewards=rewards,
        action_names=names,
    )

    # cells sharing a wall signature are observationally identical
    spec = parse_spec(
        "exists sigma1, sigma2 :"
        " obs({1, 2, 3}, sigma1) & obs({6, 7, 8}, sigma1)"
        " & obs({1, 2, 3}, sigma2) & obs({6, 7, 8}, sigma2) ;"
        " forall s1 in {0} [sigma1], forall s2 in {0} [sigma2] :"
        " R(s1, F broken) = R(s2, F broken) ~0.75"
    )
    return m, spec


# ---------------------------------------------------------------------------
# thread-scheduling


def thread_scheduling(h1: int = 10, h2: int = 20) -> tuple[Mdp, HyperSpec]:
    """Two secret-length instruction chains under one scheduler.

    Chain i has h_i steps; each step runs safely (always advances) or
    riskily (advances with probability one half, otherwise aborts).  The
    termination probabilities of the two chains form the observable; the
    specification asks the scheduler to make the first chain terminate
    strictly more often, a run-length side channel revealing the secret.
    """

    if h1 < 1 or h2 < 1:
        raise SpecError("thread-scheduling needs chain lengths of at least 1")

    init2 = h1 + 1
    abort = h1 + h2 + 2
    n = abort + 1

    trans = []
    names = []
    for s in range(n):
        if s == h1 or s == h1 + 1 + h2 or s == abort:
            trans.append([[(s, 1.0)]])
            names.append([None])
        else:
            nxt = s + 1
            trans.append([
                [(nxt, 1.0)],
                [(nxt, 0.5), (abort, 0.5)],
            ])
            names.append(["safe", "risky"])

    labels = {"done": (h1, h1 + 1 + h2), "abort": (abort,)}
    m = make_mdp(trans, labels=labels, action_names=names)
    spec = parse_spec(
        f"exists sigma : forall s1 in {{0}} [sigma], forall s2 in {{{init2}}} [sigma] :"
        " P(s1, F done) > P(s2, F done)"
    )
    return m, spec


# ---------------------------------------------------------------------------
# timing-attack


def timing_attack(n: int = 4) -> tuple[Mdp, HyperSpec]:
    """Two n-bit loops timed by expected reward under one schedule.

    Each bit is processed fast (one tick, always advances) or slow (two
    ticks, advances with probability one half, so four expected ticks per
    bit).  The baseline loop starts at state 0, the patched loop right
    after it; the requirement is that the patched loop's expected running
    time does not exceed the baseline's.
    """

    if n < 1:
        raise SpecError("timing-attack needs at least 1 bit")

    init2 = n + 1
    total = 2 * (n + 1)

    trans = []
    names = []
    rewards: dict[tuple[int, int], float] = {}
    for s in range(total):
        if s == n or s == total - 1:
            trans.append([[(s, 1.0)]])
            names.append([None])
            rewards[(s, 0)] = 0.0
        else:
            nxt = s + 1
            trans.append([
                [(nxt, 1.0)],
                [(nxt, 0.5), (s, 0.5)],
            ])
            names.append(["fast", "slow"])
            rewards[(s, 0)] = 1.0
            rewards[(s, 1)] = 2.0

    labels = {"done": (n, total - 1)}
    m = make_mdp(trans, labels=labels, rewards=rewards, action_names=names)
    spec = parse_spec(
        f"exists sigma : forall s1 in {{{init2}}} [sigma], forall s2 in {{0}} [sigma] :"
        " R(s1, F done) <= R(s2, F done)"
    )
    return m, spec


# ---------------------------------------------------------------------------
# registry


def generate(bench: str, **params) -> tuple[Mdp, HyperSpec]:
    """Instantiate a named benchmark.  Unknown names or parameters raise
    SpecError with the valid choices."""

    makers = {
        "knuth-yao-pc": knuth_yao_pc,
        "maze-sd": maze_sd,
        "thread-scheduling": thread_scheduling,
        "timing-attack": timing_attack,
    }
    maker = makers.get(bench)
    if maker is None:
        raise SpecError(
            f"unknown benchmark {bench!r}; choose one of {', '.join(sorted(makers))}"
        )
    try:
        return maker(**params)
    except TypeError as e:
        raise SpecError(f"bad parameters for {bench}: {e}")


BENCHMARKS = ("knuth-yao-pc", "maze-sd", "thread-scheduling", "timing-attack")
