"""Spans recorded from outside the package, and the layer metrics they give.

The tracer replaces functions by wrappers at the names the package modules
resolve at call time (for example ``hypersynth.synthesis.extremal_reach``),
so no code under ``src/`` changes.  Each wrapped call records one span
(name, start, end, parent) in memory; ``layer_metrics`` turns the spans of
one traced pass into per-layer times and counts.

A layer's time is the sum of the self times of its spans: a span's duration
minus the part of it that its child spans cover.  Self times therefore add
up, and what no wrapper covers shows as the self time of the root
``synthesize`` span (``synthesis.self_s``).
"""

from __future__ import annotations

import functools
import time

# (module, attribute) -> span name.  Chain solves are wrapped at every module
# that calls them, so they are counted from every caller.
MODULE_HOOKS = {
    ("synthesis", "extremal_reach"): "analysis.extremal",
    ("synthesis", "extremal_reward"): "analysis.extremal",
    ("synthesis", "reach_probs"): "analysis.chain",
    ("synthesis", "expected_reward"): "analysis.chain",
    ("synthesis", "expected_visits"): "analysis.chain",
    ("analysis", "reach_probs"): "analysis.chain",
    ("analysis", "expected_reward"): "analysis.chain",
    ("analysis", "expected_visits"): "analysis.chain",
    ("counterexamples", "reach_probs"): "analysis.chain",
    ("synthesis", "impose"): "analysis.impose",
    ("synthesis", "check_mc"): "analysis.member_check",
    ("synthesis", "node_restrict"): "family.restrict",
    ("synthesis", "split_node"): "family.split",
    ("synthesis", "grow_conflict"): "counterexamples.certificate",
    ("synthesis", "conflict_classes"): "counterexamples.complement",
    ("synthesis", "complement_boxes"): "counterexamples.complement",
}

# (class in hypersynth.synthesis, method) -> span name
METHOD_HOOKS = {
    ("NodeAnalyzer", "side_bounds"): "synthesis.bounds",
    ("NodeAnalyzer", "score_conflicts"): "synthesis.split_score",
}

ROOT = "synthesis.synthesize"
PARSE = "textio.parse"

# layer time metric -> span names whose self times it sums
LAYER_TIMES = {
    "analysis.extremal_s": ("analysis.extremal",),
    "analysis.chain_s": ("analysis.chain",),
    "analysis.member_check_s": ("analysis.member_check", "analysis.impose"),
    "counterexamples.certificate_s": (
        "counterexamples.certificate",
        "counterexamples.complement",
    ),
    "family.restrict_s": ("family.restrict",),
    "family.split_s": ("family.split",),
    "synthesis.bounds_s": ("synthesis.bounds",),
    "synthesis.split_score_s": ("synthesis.split_score",),
    "synthesis.self_s": (ROOT,),
}


def unit(metric: str) -> str:
    """Unit of a per-layer metric, read off its name."""

    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_yield", "_share", "_per_member")):
        return "ratio"
    return "count"


class Tracer:
    """Collects spans of wrapped calls.  Single-threaded by design: the
    benchmark is one closed-loop client, so the open-span stack is the
    call stack."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span; the span is kept even if fn raises."""

        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, 0.0, 0.0, parent))
        self._open.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[idx] = (name, start, end, parent)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self, package) -> None:
        """Wrap every hooked name.  A hook whose target no longer exists is
        listed in ``missing`` instead of failing, so a refactor of the
        package shows as a zero layer and a note, not a crash."""

        for (module_name, attr), name in MODULE_HOOKS.items():
            module = getattr(package, module_name)
            self._patch(module, attr, name, f"{module_name}.{attr}")
        for (cls_name, attr), name in METHOD_HOOKS.items():
            cls = getattr(package.synthesis, cls_name, None)
            self._patch(cls, attr, name, f"synthesis.{cls_name}.{attr}")

    def _patch(self, owner, attr, name, label):
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.missing.append(label)
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it its children cover.

    Children are clipped to the parent's interval and merged before their
    length is taken, so overlapping children are not counted twice.
    """

    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (_, start, end, _), kids in zip(spans, children):
        covered = 0.0
        reach = start
        for k_start, k_end in sorted(kids):
            lo, hi = max(k_start, reach), min(k_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_metrics(spans, outcomes_stats, traced_verdict_s: float, untraced_verdict_s: float):
    """Per-layer metrics of one traced pass.

    spans: the pass's spans, roots being ``synthesize`` and parse calls.
    outcomes_stats: the stats dict of each call (None where it raised
    without stats).
    """

    selfs = self_times(spans)
    by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (name, *_), st in zip(spans, selfs):
        by_name[name] = by_name.get(name, 0.0) + st
        calls[name] = calls.get(name, 0) + 1

    out = {metric: sum(by_name.get(n, 0.0) for n in names) for metric, names in LAYER_TIMES.items()}

    # a side_bounds call "hits" when no extremal solve ran beneath it
    solved = set()
    for name, _, _, parent in spans:
        if name == "analysis.extremal":
            while parent >= 0 and spans[parent][0] != "synthesis.bounds":
                parent = spans[parent][3]
            if parent >= 0:
                solved.add(parent)
    bounds_calls = calls.get("synthesis.bounds", 0)

    stats = [s for s in outcomes_stats if s]
    iterations = sum(s["iterations"] for s in stats)
    prunes = sum(s["ce_prunes"] for s in stats)
    certificates = calls.get("counterexamples.certificate", 0)
    layered = sum(st for (name, *_), st in zip(spans, selfs) if name not in (ROOT, PARSE))

    out.update({
        "textio.parse_s": by_name.get(PARSE, 0.0),
        "analysis.extremal_calls": calls.get("analysis.extremal", 0),
        "analysis.chain_calls": calls.get("analysis.chain", 0),
        "analysis.member_checks": calls.get("analysis.member_check", 0),
        "counterexamples.certificate_calls": certificates,
        "counterexamples.certificate_yield": prunes / certificates if certificates else 0.0,
        "family.restrict_calls": calls.get("family.restrict", 0),
        "family.split_calls": calls.get("family.split", 0),
        "synthesis.bounds_calls": bounds_calls,
        "synthesis.bounds_hit_ratio": (bounds_calls - len(solved)) / bounds_calls if bounds_calls else 0.0,
        "synthesis.iterations": iterations,
        "synthesis.iterations_per_member": max(
            (s["iterations"] / s["family_size"] for s in stats), default=0.0
        ),
        "trace.layer_share": layered / traced_verdict_s,
        "trace.overhead_ratio": traced_verdict_s / untraced_verdict_s,
    })
    return out
