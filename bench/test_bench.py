"""Tests of the benchmark's own arithmetic and answer check.

Only small instances are synthesised here; the workloads themselves are
exercised by running ``bench/run.py``.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from hypersynth import generate, parse_model, parse_spec, synthesize, write_model, write_spec  # noqa: E402


def test_self_times_of_nested_spans():
    recorded = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.1", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        # overlapping children are merged, and clipped to the parent
        ("b.1", 5.0, 7.0, 3),
        ("b.2", 6.0, 9.5, 3),
    ]
    assert spans.self_times(recorded) == [3.0, 2.0, 1.0, 0.0, 2.0, 3.5]


def test_layer_metrics_sum_self_times_and_count_cache_hits():
    recorded = [
        ("synthesis.synthesize", 0.0, 10.0, -1),
        ("synthesis.bounds", 1.0, 5.0, 0),
        ("analysis.extremal", 2.0, 4.0, 1),
        ("analysis.chain", 3.0, 3.5, 2),
        ("synthesis.bounds", 6.0, 6.5, 0),  # cache hit: no solve beneath
        ("counterexamples.certificate", 7.0, 8.0, 0),
    ]
    stats = [{"iterations": 6, "family_size": 4, "ce_prunes": 1}]
    got = spans.layer_metrics(recorded, stats, traced_verdict_s=10.0, untraced_verdict_s=8.0)
    assert got["analysis.extremal_s"] == 1.5
    assert got["analysis.chain_s"] == 0.5
    assert got["analysis.extremal_calls"] == 1
    assert got["synthesis.bounds_s"] == 2.5
    assert got["synthesis.self_s"] == 4.5
    assert got["synthesis.bounds_calls"] == 2
    assert got["synthesis.bounds_hit_ratio"] == 0.5
    assert got["counterexamples.certificate_yield"] == 1.0
    assert got["synthesis.iterations_per_member"] == 1.5
    assert got["trace.layer_share"] == pytest.approx(0.55)
    assert got["trace.overhead_ratio"] == 1.25


def _instance(bench, mode, expect, method="ar", **params):
    m, spec = generate(bench, **params)
    return workloads.Instance(
        f"{bench} {mode}", method, mode, write_model(m), write_spec(spec), expect, "test"
    )


def _run(inst):
    parsed = run.set_up([inst], parse_model, parse_spec)
    (call,) = run.run_pass([inst], parsed, synthesize, workloads.check)
    return call


SMALL_COMPLETE = dict(bench="thread-scheduling", mode="complete", h1=2, h2=3)


def _small_complete_members():
    m, spec = generate("thread-scheduling", h1=2, h2=3)
    out = synthesize(m, spec, mode="complete", method="oracle")
    return [r for box in out.satisfying for r in itertools.product(*box.domains)]


def test_right_answers_pass():
    members = _small_complete_members()
    expect = workloads.Expect("feasible", (len(members), workloads.members_digest(members)))
    for method in ("ar", "hybrid", "oracle"):
        call = _run(_instance(expect=expect, method=method, **SMALL_COMPLETE))
        assert call.problem is None, call.problem
        assert not call.failed


@pytest.mark.parametrize(
    "doctor",
    [
        lambda e: replace(e, verdict="unfeasible"),
        lambda e: replace(e, members=(e.members[0], "0" * 64)),
        lambda e: replace(e, members=(e.members[0] + 1, e.members[1])),
    ],
    ids=["verdict", "digest", "count"],
)
def test_doctored_answer_is_a_failure(doctor):
    members = _small_complete_members()
    right = workloads.Expect("feasible", (len(members), workloads.members_digest(members)))
    call = _run(_instance(expect=doctor(right), **SMALL_COMPLETE))
    assert call.problem is not None
    assert call.failed


def test_doctored_optimal_value_is_a_failure():
    inst = _instance("maze-sd", "optimal", workloads.Expect("feasible", optimal=4),
                     variant="checkpoint")
    call = _run(inst)
    assert call.outcome == "feasible/3"
    assert call.failed


def test_witness_failing_the_exact_check_is_detected():
    m, spec = generate("thread-scheduling", h1=2, h2=3)
    out = synthesize(m, spec)
    assert workloads.exact_holds(m, spec, out.witness)
    safe = type(out.witness[0])(tuple(0 for _ in out.witness[0].choices))
    # the all-safe scheduler finishes both chains surely: 1 > 1 fails
    assert not workloads.exact_holds(m, spec, (safe,))

    inst = _instance("thread-scheduling", "feasibility", workloads.Expect("feasible"), h1=2, h2=3)
    assert workloads.check(inst, m, spec, replace(out, witness=(safe,)), None) is not None
    assert workloads.check(inst, m, spec, replace(out, witness=None), None) is not None


def test_calls_are_scaled_by_the_probes_around_them(monkeypatch):
    probes = iter([0.06, 0.03, 0.09])  # before the first call, between, after the last
    monkeypatch.setattr(run.probe, "probe", lambda: next(probes))
    inst = _instance("thread-scheduling", "feasibility", workloads.Expect("feasible"), h1=2, h2=3)
    parsed = run.set_up([inst, inst], parse_model, parse_spec)
    first, second = run.run_pass([inst, inst], parsed, synthesize, workloads.check)
    ref = run.probe.REFERENCE_S
    assert first.scale == pytest.approx(ref / 0.045)
    assert second.scale == pytest.approx(ref / 0.06)
    assert second.scaled == pytest.approx(second.seconds * ref / 0.06)


def test_missing_and_unexpected_exceptions_are_failures():
    expect_error = workloads.Expect(error="SpecError")
    missing = _run(_instance("thread-scheduling", "feasibility", expect_error, h1=2, h2=3))
    assert missing.outcome == "feasible" and missing.failed

    bad_spec = "exists sigma : forall s in {0} [sigma] : P(s, F nowhere) >= 0.5\n"
    inst = replace(_instance("thread-scheduling", "feasibility", workloads.Expect("feasible"),
                             h1=2, h2=3), spec_text=bad_spec)
    unexpected = _run(inst)
    assert unexpected.outcome == "SpecError" and unexpected.failed
    expected = _run(replace(inst, expect=expect_error))
    assert expected.problem is None


def test_known_defect_lowers_correct_rate_but_is_not_failed():
    small_band_ar = workloads.build("search", seed=1)[5]
    assert small_band_ar.defect is not None
    call = _run(small_band_ar)
    assert call.problem is not None  # unfeasible where the answer is feasible
    assert not call.failed


def test_search_seed_draws_eps_in_both_bands():
    for seed in range(50):
        small, large = workloads.hostile_eps(seed)
        assert 1e-13 <= small <= 1e-10 and 2e-10 <= large <= 1e-8
    assert workloads.build("search", 7) == workloads.build("search", 7)
    assert workloads.build("search", 7) != workloads.build("search", 8)


def test_tracer_restores_the_package():
    import hypersynth

    before = hypersynth.synthesis.extremal_reach
    with spans.Tracer() as tracer:
        tracer.install(hypersynth)
        assert hypersynth.synthesis.extremal_reach is not before
        m, spec = generate("thread-scheduling", h1=2, h2=3)
        tracer.span(spans.ROOT, synthesize, m, spec)
    assert hypersynth.synthesis.extremal_reach is before
    assert tracer.missing == []
    names = {s[0] for s in tracer.spans}
    assert {"synthesis.synthesize", "synthesis.bounds", "analysis.extremal"} <= names


def test_missing_source_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "oracle", "--seconds", "1"]) == 2
    out = capsys.readouterr()
    assert out.out == ""


def test_metric_names_and_units_match_benchmark_json():
    import json

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    layers = spans.layer_metrics([("synthesis.synthesize", 0.0, 1.0, -1)], [], 1.0, 1.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: spans.unit(name) for name in layers
    }
