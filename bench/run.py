"""Synthesis benchmark: time to verdict on three fixed workloads.

Usage, from the root of a source checkout:

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

The package is imported from the checkout's ``src/`` directory; nothing is
installed.  One process is one closed-loop client: each ``synthesize`` call
starts after the previous one returned, without threads.  A run

1. builds the workload's inputs (model and spec text) from the seed,
2. warms up: calls ``synthesize`` untimed on every instance without a known
   defect, cut short by its ``time_limit``, so that the first timed pass
   does not pay the interpreter's one-off warm-up,
3. runs passes over the workload's calls until another pass would overrun
   ``--seconds`` (at least one), checking every answer,
4. sets up, that is parses every instance's text, several times before each
   pass and after the last, and reports the median as ``setup_s``,
5. with ``--trace 1``, runs one more pass with spans recorded around the
   package's layers and reports per-layer metrics instead of end-to-end ones;
   the spans go to ``bench/out/``.

Every call and every batch of set-ups is timed between two runs of the
machine-speed probe in ``probe.py``, and the end-to-end times are scaled by
``probe.REFERENCE_S`` over the probe's mean time around them: seconds on a
machine of fixed speed.  The report prints the unscaled times as well.

A report goes to standard output; its last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every answer outside the pinned known defects is right, 1 when one
is wrong, and 2 when the checkout holds no package source.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import probe
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# Parsing takes milliseconds, so each set-up is repeated and the median kept.
SETUPS_PER_PASS = 8

# The first call of a process on a problem runs about 30% slower than later
# ones; an untimed call of this many seconds per instance takes that away.
WARMUP_LIMIT_S = 0.3

END_TO_END_UNITS = {
    "verdict_s": "s",
    "verdict_geomean_s": "s",
    "correct_rate": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass
class Call:
    """One timed call.  The outcome object itself is dropped once checked,
    so earlier passes hold no memory while later ones run."""

    instance: object
    seconds: float
    scale: float  # probe.REFERENCE_S over the probe's mean time around the call
    outcome: str  # verdict, verdict/optimal value, or the exception's class name
    stats: dict | None  # from the outcome, or from a LimitExceeded
    problem: str | None  # None when the answer is right

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale

    @property
    def failed(self) -> bool:
        return self.problem is not None and self.instance.defect is None


def set_up(instances, parse_model, parse_spec):
    return [(parse_model(i.model_text), parse_spec(i.spec_text)) for i in instances]


def scale(before: float, after: float) -> float:
    """Factor that takes a time measured between two probes to the
    reference speed."""

    return probe.REFERENCE_S / ((before + after) / 2)


def timed_set_ups(instances, hs, times: list) -> list:
    """Set up SETUPS_PER_PASS times, appending each scaled duration to times."""

    before = probe.probe()
    raw = []
    for _ in range(SETUPS_PER_PASS):
        start = time.perf_counter()
        parsed = set_up(instances, hs.parse_model, hs.parse_spec)
        raw.append(time.perf_counter() - start)
    factor = scale(before, probe.probe())
    times.extend(t * factor for t in raw)
    return parsed


def warm_up(instances, hs) -> None:
    """Call every instance without a known defect once, untimed and unchecked,
    for at most WARMUP_LIMIT_S of search each."""

    for inst in instances:
        if inst.defect is not None:
            continue
        m, spec = hs.parse_model(inst.model_text), hs.parse_spec(inst.spec_text)
        try:
            hs.synthesize(m, spec, mode=inst.mode, method=inst.method, time_limit=WARMUP_LIMIT_S)
        except Exception:  # LimitExceeded as a rule; anything else is judged in the timed passes
            pass


def run_pass(instances, parsed, synthesize, check) -> list[Call]:
    """One call per instance, in order, each timed between two probes and
    checked."""

    calls = []
    before = probe.probe()
    for inst, (m, spec) in zip(instances, parsed):
        outcome = error = None
        gc.collect()  # each call starts from the same heap, not from the last call's garbage
        start = time.perf_counter()
        try:
            outcome = synthesize(m, spec, mode=inst.mode, method=inst.method)
        except Exception as e:  # any exception is a result the check judges
            error = e
        seconds = time.perf_counter() - start
        after = probe.probe()
        problem = check(inst, m, spec, outcome, error)
        if error is not None:
            text, stats = type(error).__name__, getattr(error, "stats", None)
        else:
            text, stats = outcome.verdict, outcome.stats
            if outcome.optimal_value is not None:
                text += f"/{outcome.optimal_value}"
        calls.append(Call(inst, seconds, scale(before, after), text, stats, problem))
        before = after
    return calls


def geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload: str, seed: int, seconds: float, trace: bool, hs, workloads) -> dict:
    """One run of one workload; ``hs`` and ``workloads`` are the modules,
    imported once the package source has been found."""

    instances = workloads.build(workload, seed)

    # Set-ups are spread over the run, before every pass and after the last,
    # so that their median does not rest on one moment of machine speed.
    setup_times: list[float] = []
    passes: list[list[Call]] = []
    began = time.perf_counter()
    warm_up(instances, hs)
    while True:
        parsed = timed_set_ups(instances, hs, setup_times)
        passes.append(run_pass(instances, parsed, hs.synthesize, workloads.check))
        elapsed = time.perf_counter() - began
        if elapsed + sum(c.seconds for c in passes[-1]) > seconds:
            break
    timed_set_ups(instances, hs, setup_times)
    verdicts = [sum(c.scaled for c in p) for p in passes]
    calls = [c for p in passes for c in p]
    result = {
        "workload": workload,
        "instances": instances,
        "passes": passes,
        "unscaled_verdict_s": statistics.median(sum(c.seconds for c in p) for p in passes),
        "metrics": {
            "verdict_s": statistics.median(verdicts),
            "verdict_geomean_s": statistics.median(geomean([c.scaled for c in p]) for p in passes),
            "correct_rate": sum(c.problem is None for c in calls) / len(calls),
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": statistics.median(setup_times),
        },
    }

    if trace:
        gc.collect()
        tracer = spans.Tracer()
        tracer.install(hs)
        with tracer:
            parse_model = tracer.wrap(spans.PARSE, hs.parse_model)
            parse_spec = tracer.wrap(spans.PARSE, hs.parse_spec)
            traced_parsed = set_up(instances, parse_model, parse_spec)
            traced = run_pass(
                instances, traced_parsed, tracer.wrap(spans.ROOT, hs.synthesize), workloads.check
            )
        result["traced"] = traced
        result["missing_hooks"] = tracer.missing
        # Spans are unscaled, so the traced pass is too; the untraced verdict
        # is brought to the traced pass's machine speed to compare with it.
        traced_s = sum(c.seconds for c in traced)
        speed = sum(c.scaled for c in traced) / traced_s
        result["layers"] = spans.layer_metrics(
            tracer.spans,
            [c.stats for c in traced],
            traced_s,
            result["metrics"]["verdict_s"] / speed,
        )
        result["spans_file"] = write_spans(workload, seed, tracer.spans)
    return result


def write_spans(workload: str, seed: int, recorded) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    with path.open("w") as f:
        f.write(json.dumps({"workload": workload, "seed": seed, "fields": ["name", "start", "end", "parent"]}) + "\n")
        for s in recorded:
            f.write(json.dumps(s) + "\n")
    return path


# ---------------------------------------------------------------------------
# report


def machine_info(hs) -> str:
    import numpy

    return (
        f"nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__} hypersynth={hs.__version__}"
    )


def print_calls(calls: list[Call]) -> None:
    head = ("call", "time_s", "scaled_s", "outcome", "iters", "explored", "family", "splits",
            "prunes", "check")
    print("  {:<52} {:>9} {:>9} {:>13} {:>7} {:>10} {:>11} {:>7} {:>7}  {}".format(*head))
    for c in calls:
        st = c.stats or {}
        row = [st.get(k, "-") for k in ("iterations", "explored", "family_size", "splits", "ce_prunes")]
        status = "ok" if c.problem is None else ("KNOWN DEFECT" if c.instance.defect else "FAIL")
        print("  {:<52} {:>9.4f} {:>9.4f} {:>13} {:>7} {:>10} {:>11} {:>7} {:>7}  {}".format(
            c.instance.name, c.seconds, c.scaled, c.outcome, *row, status))


def print_report(res: dict, trace: bool) -> None:
    print(f"== workload {res['workload']}: {len(res['instances'])} calls per pass, "
          f"{len(res['passes'])} untraced pass(es)")
    for inst in res["instances"]:
        print(f"  - {inst.name}: {inst.why}")
    print("per call (last untraced pass):")
    print_calls(res["passes"][-1])
    calls = [c for p in res["passes"] for c in p] + res.get("traced", [])
    wrong = [c for c in calls if c.problem is not None]
    seen = Counter((c.instance.name, c.instance.defect, c.problem) for c in wrong)
    for (name, defect, problem), times in seen.items():
        tag = f"known defect, {defect}" if defect else "FAILURE"
        print(f"  {tag}: {name}: {problem} (in {times} of {len(res['passes']) + trace} passes)")
    failed = sum(c.failed for c in calls)
    print(f"  error_rate {len(wrong) / len(calls):.4f} ({len(wrong)}/{len(calls)} calls wrong, "
          f"{failed} outside known defects)")
    print("end-to-end (tracing off; times scaled to the probe's reference speed):")
    for name, value in res["metrics"].items():
        print(f"  {name:<20} {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"  unscaled verdict_s   {res['unscaled_verdict_s']:.6g} s")
    if trace:
        print(f"per layer (one traced pass; spans in {res['spans_file'].relative_to(ROOT)}):")
        for name, value in res["layers"].items():
            print(f"  {name:<36} {value:.6g}")
        if res["missing_hooks"]:
            print(f"  hooks not found, their layers read 0: {', '.join(res['missing_hooks'])}")


def print_oracle_ratios(results: list[dict]) -> None:
    """AR or hybrid time next to the oracle's on the same problem."""

    oracle = {}
    for res in results:
        for c in res["passes"][-1]:
            if c.instance.method == "oracle":
                oracle[c.instance.problem] = c.scaled
    print("== refinement vs oracle (last untraced pass, scaled times; ratio < 1 means refinement wins)")
    for res in results:
        for c in res["passes"][-1]:
            base = oracle.get(c.instance.problem)
            if c.instance.method != "oracle" and base is not None:
                print(f"  {c.instance.name:<52} {c.scaled:9.4f} s vs oracle {base:9.4f} s"
                      f"  ratio {c.scaled / base:7.2f}")


def result_line(results: list[dict], trace: bool) -> dict:
    calls = [c for r in results for p in r["passes"] for c in p]
    calls += [c for r in results for c in r.get("traced", [])]
    failed = sum(c.failed for c in calls)
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else r["workload"] + "."
        if trace:
            for name, value in r["layers"].items():
                metrics[prefix + name] = {"value": value, "unit": spans.unit(name)}
        else:
            for name, value in r["metrics"].items():
                metrics[prefix + name] = {"value": value, "unit": END_TO_END_UNITS[name]}
    return {"correct": failed == 0, "attempted": len(calls), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    help="complete, search, oracle, or all (default)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "hypersynth" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hypersynth as hs
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if any(n not in workloads.WORKLOADS for n in names):
        ap.error(f"unknown workload {args.workload!r}")

    print(f"hypersynth benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"machine: {machine_info(hs)}")
    results = []
    for name in names:
        res = measure(name, args.seed, args.seconds, bool(args.trace), hs, workloads)
        print_report(res, bool(args.trace))
        results.append(res)
    if len(results) > 1:
        print_oracle_ratios(results)
    line = result_line(results, bool(args.trace))
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
