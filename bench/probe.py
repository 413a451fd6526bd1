"""A fixed piece of Python work that measures how fast the machine runs now.

On a shared machine the same code runs up to about 1.5 times slower for
stretches of seconds to minutes, whatever the benchmark does.  The
benchmark times this probe next to every call it measures and scales the
call's time by ``REFERENCE_S / probe time``: a slow stretch slows the probe
and the call alike, so the scaled time stays put, while a change to the
package moves the call and not the probe.

The probe is value iteration over a seeded random MDP held in Python lists,
the same kind of loop as the package's own solves, but frozen here so that
no change to the package changes it.
"""

from __future__ import annotations

import random
import time

# Seconds one probe takes on the machine the benchmark's times are scaled to:
# a 2-vCPU VM with Python 3.11 in its fast stretches.
REFERENCE_S = 0.030

STATES = 300
SWEEPS = 12
REPEATS = 20


def _model(seed: int = 0) -> list[list[list[tuple[int, float]]]]:
    """STATES states with two actions of three weighted successors each."""

    rng = random.Random(seed)
    rows = []
    for _ in range(STATES):
        actions = []
        for _ in range(2):
            succ = rng.sample(range(STATES), 3)
            weights = [rng.random() for _ in succ]
            total = sum(weights)
            actions.append([(j, w / total) for j, w in zip(succ, weights)])
        rows.append(actions)
    return rows


_ROWS = _model()


def _sweeps() -> float:
    """Maximal reachability of state 0 by Gauss-Seidel sweeps."""

    v = [0.0] * STATES
    v[0] = 1.0
    for _ in range(SWEEPS):
        for s in range(1, STATES):
            best = 0.0
            for action in _ROWS[s]:
                x = 0.0
                for j, p in action:
                    x += p * v[j]
                if x > best:
                    best = x
            v[s] = best
    return sum(v)


def probe() -> float:
    """Seconds the probe takes now."""

    start = time.perf_counter()
    for _ in range(REPEATS):
        _sweeps()
    return time.perf_counter() - start
