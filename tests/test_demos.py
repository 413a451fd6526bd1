"""The demos run to completion.

Each demo is run as its own process, the way a reader would run it, and
must exit with status 0.  `maze_domination.py` is left out: it takes tens
of seconds, and `test_acceptance.py::test_c03_benchmark_engine_behaviour`
already makes its plain maze-sd call.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("counterexample_pruning", "dice_conformance", "memory_unfolding", "structural_constraints")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_cleanly(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
