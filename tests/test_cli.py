import json

import pytest

from hypersynth import enumerate_satisfying, parse_model, parse_spec, synthesis, write_model, write_spec
from hypersynth.cli import main

from conftest import binary_family, binary_spec, notes_example


@pytest.fixture
def files(tmp_path):
    m, spec = notes_example()
    model = tmp_path / "m.model"
    model.write_text(write_model(m))
    sp = tmp_path / "m.spec"
    sp.write_text(write_spec(spec))
    return tmp_path, str(model), str(sp)


def test_synth_feasible_exit_zero(files, capsys):
    tmp, model, spec = files
    stats = tmp / "stats.json"
    code = main(["synth", "--model", model, "--spec", spec, "--stats-out", str(stats)])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: feasible" in out
    data = json.loads(stats.read_text())
    assert data["schema_version"] == 1
    assert data["verdict"] == "feasible"
    assert data["witness"]["realisation"] == [1, 1, 0, 0]
    assert data["atoms"] and {"case", "tag"} <= set(data["atoms"][0])
    counts = f"in {data['iterations']} iterations ({data['analyses']} analyses, "
    assert counts + f"{data['enumerated_members']} enumerated members)" in out


def test_synth_unfeasible_exit_one(files, tmp_path):
    tmp, model, _ = files
    sp = tmp_path / "tight.spec"
    sp.write_text(
        "exists sigma : forall s in {0, 1} [sigma] : P(s, F target) <= 0.3\n"
    )
    code = main(["synth", "--model", model, "--spec", str(sp)])
    assert code == 1


def test_synth_parse_error_exit_two(files, tmp_path, capsys):
    tmp, model, _ = files
    sp = tmp_path / "broken.spec"
    sp.write_text("exists g : whatever\n")
    code = main(["synth", "--model", model, "--spec", str(sp)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_bad_settings_exit_two(files, capsys):
    tmp, model, spec = files
    good = tmp / "good.ctrl"
    good.write_text("0 b\n1 1\n")
    # an equality tolerance that overflows to inf
    bad = tmp / "bad.spec"
    bad.write_text("exists sigma : forall s in {0} [sigma] : P(s, F target) = 0.4 ~1e400\n")
    for cmd, extra in (("synth", []), ("check", ["--controller", str(good)]), ("enumerate", [])):
        assert main([cmd, "--model", model, "--spec", spec, *extra]) == 0, cmd
        assert main([cmd, "--model", model, "--spec", str(bad), *extra]) == 2, cmd
    assert main(["synth", "--model", model, "--spec", spec, "--time-limit", "nan"]) == 2
    assert "error:" in capsys.readouterr().err


def test_synth_limit_exit_three(files, tmp_path):
    tmp, model, _ = files
    sp = tmp_path / "stubborn.spec"
    sp.write_text(
        "exists sigma : forall s in {0} [sigma] : P(s, F target) = 0.55 ~0.000001\n"
    )
    stats = tmp_path / "aborted.json"
    code = main([
        "synth", "--model", model, "--spec", str(sp),
        "--max-iters", "1", "--stats-out", str(stats),
    ])
    assert code == 3
    data = json.loads(stats.read_text())
    assert data["limit"] is not None


def test_synth_memory_bits(files):
    tmp, model, spec = files
    code = main(["synth", "--model", model, "--spec", spec, "--memory-bits", "1"])
    assert code == 0


def test_check_accepts_names_and_fills_defaults(files, tmp_path, capsys):
    tmp, model, spec = files
    good = tmp_path / "good.ctrl"
    good.write_text("0 b\n1 1\n")
    assert main(["check", "--model", model, "--spec", spec, "--controller", str(good)]) == 0
    assert "satisfied" in capsys.readouterr().out
    bad = tmp_path / "bad.ctrl"
    bad.write_text("0 a\n")
    assert main(["check", "--model", model, "--spec", spec, "--controller", str(bad)]) == 1
    unknown = tmp_path / "unknown.ctrl"
    unknown.write_text("0 zigzag\n")
    assert main(["check", "--model", model, "--spec", spec, "--controller", str(unknown)]) == 2


def test_check_reports_controller_errors_at_their_token(files, tmp_path, capsys):
    tmp, model, spec = files
    for text, where in (
        ("0 a\n1 zigzag\n", "2:3: state 1 has no action named 'zigzag'"),
        ("0 a\n99 b\n", "2:1: state 99 out of range"),
        ("0 7\n", "1:3: state 0 has no action ordinal 7"),
    ):
        ctrl = tmp_path / "c1.ctrl"
        ctrl.write_text(text)
        assert main(["check", "--model", model, "--spec", spec, "--controller", str(ctrl)]) == 2
        assert f"error: {ctrl}:{where}\n" in capsys.readouterr().err


def test_synth_complete_and_optimal_summaries(files, tmp_path, capsys):
    tmp, model, spec = files
    assert main(["synth", "--model", model, "--spec", spec, "--mode", "complete"]) == 0
    out = capsys.readouterr().out
    assert "verdict: feasible\n" in out
    assert "satisfying members: 1\n" in out
    assert "largest decision distance" not in out
    # two controllers that may each pick any action: the most different
    # pair disagrees at both decision states
    sp = tmp_path / "two.spec"
    sp.write_text(
        "exists a, b : forall x in {0, 1} [a], forall y in {0, 1} [b] :"
        " P(x, F target) <= 0.7 & P(y, F target) <= 0.7\n"
    )
    assert main(["synth", "--model", model, "--spec", str(sp), "--mode", "optimal"]) == 0
    out = capsys.readouterr().out
    assert "largest decision distance: 2\n" in out
    assert "satisfying members" not in out


def test_check_reports_tied_state_contradiction(files, tmp_path, capsys):
    tmp, model, _ = files
    sp = tmp_path / "tied.spec"
    sp.write_text(
        "exists sigma :\nobs({0, 1}, sigma) ;\n"
        "forall s in {0, 1} [sigma] :\nP(s, F target) <= 0.6\n"
    )
    ctrl = tmp_path / "tied.ctrl"
    ctrl.write_text("0 a\n1 b\n")
    code = main(["check", "--model", model, "--spec", str(sp), "--controller", str(ctrl)])
    assert code == 1
    assert "structural violation" in capsys.readouterr().out


def test_check_controller_count_mismatch(files):
    tmp, model, spec = files
    c = tmp / "one.ctrl"
    c.write_text("0 b\n")
    code = main([
        "check", "--model", model, "--spec", spec,
        "--controller", str(c), "--controller", str(c),
    ])
    assert code == 2


def test_enumerate_lists_members(files, capsys):
    tmp, model, spec = files
    code = main(["enumerate", "--model", model, "--spec", spec])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.strip().splitlines() == ["1 1 0 0"]
    assert "satisfying members: 1" in captured.err


def test_enumerate_none_exit_one(files, tmp_path):
    tmp, model, _ = files
    sp = tmp_path / "tight.spec"
    sp.write_text(
        "exists sigma : forall s in {0, 1} [sigma] : P(s, F target) <= 0.3\n"
    )
    assert main(["enumerate", "--model", model, "--spec", str(sp)]) == 1


def _loose_spec(tmp_path):
    """Two of the four members satisfy this spec: (b, a) and (b, b)."""

    sp = tmp_path / "loose.spec"
    sp.write_text("exists sigma : forall s in {0, 1} [sigma] : P(s, F target) <= 0.68\n")
    return str(sp)


def test_enumerate_limit_stops_after_one_member(files, tmp_path, capsys):
    tmp, model, _ = files
    code = main(["enumerate", "--model", model, "--spec", _loose_spec(tmp_path), "--limit", "1"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.strip().splitlines() == ["1 0 0 0"]
    assert "satisfying members: 1" in captured.err


def test_enumerate_limit_below_one_exits_two(files, tmp_path, capsys):
    tmp, model, _ = files
    for limit in ("0", "-3"):
        code = main(["enumerate", "--model", model, "--spec", _loose_spec(tmp_path), "--limit", limit])
        captured = capsys.readouterr()
        assert code == 2, limit
        assert captured.out == "" and "error:" in captured.err


def test_synth_negative_limits_exit_two(files, capsys):
    tmp, model, spec = files
    base = ["synth", "--model", model, "--spec", spec]
    assert main([*base, "--max-iters", "-5"]) == 2
    assert main([*base, "--time-limit", "-1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_enumerate_matches_library_order(files, tmp_path, capsys):
    tmp, model, _ = files
    spec = _loose_spec(tmp_path)
    code = main(["enumerate", "--model", model, "--spec", spec])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    m = parse_model(open(model).read())
    want = enumerate_satisfying(m, parse_spec(open(spec).read()))
    assert len(want) == 2
    assert lines == [" ".join(map(str, real)) for real in want]


def test_enumerate_limit_checks_one_chunk(tmp_path, monkeypatch, capsys):
    m = binary_family(12)  # every member satisfies P >= 0; the family spans several chunks
    model, spec = tmp_path / "b.model", tmp_path / "b.spec"
    model.write_text(write_model(m))
    spec.write_text(write_spec(binary_spec(0.0)))
    batches = []
    batched = synthesis.check_members

    def spy(compiled, realisations):
        batches.append(len(realisations))
        return batched(compiled, realisations)

    monkeypatch.setattr(synthesis, "check_members", spy)
    code = main(["enumerate", "--model", str(model), "--spec", str(spec), "--limit", "1"])
    assert code == 0
    assert capsys.readouterr().out.split() == ["0"] * len(m.trans)
    assert len(batches) == 1 and batches[0] < 2**12


def test_synth_oracle_unfeasible_checks_every_member(files, tmp_path):
    tmp, model, _ = files
    sp = tmp_path / "tight.spec"
    sp.write_text(
        "exists sigma : forall s in {0, 1} [sigma] : P(s, F target) <= 0.3\n"
    )
    stats = tmp_path / "oracle.json"
    code = main([
        "synth", "--model", model, "--spec", str(sp),
        "--method", "oracle", "--stats-out", str(stats),
    ])
    assert code == 1
    data = json.loads(stats.read_text())
    assert data["verdict"] == "unfeasible"
    assert data["explored"] == data["iterations"] == data["family_size"] == 4


def test_generate_writes_parseable_files(tmp_path):
    model = tmp_path / "b.model"
    spec = tmp_path / "b.spec"
    code = main([
        "generate", "--bench", "thread-scheduling",
        "--param", "h1=3", "--param", "h2=4",
        "--out-model", str(model), "--out-spec", str(spec),
    ])
    assert code == 0
    m = parse_model(model.read_text())
    sp = parse_spec(spec.read_text())
    assert m.num_states == 3 + 4 + 3
    assert sp.controller_names == ("sigma",)
    # deterministic: a second run produces identical bytes
    model2 = tmp_path / "b2.model"
    spec2 = tmp_path / "b2.spec"
    main([
        "generate", "--bench", "thread-scheduling",
        "--param", "h1=3", "--param", "h2=4",
        "--out-model", str(model2), "--out-spec", str(spec2),
    ])
    assert model.read_text() == model2.read_text()
    assert spec.read_text() == spec2.read_text()


def test_generate_bad_params_exit_two(tmp_path, capsys):
    code = main(["generate", "--bench", "maze-sd", "--param", "variant=bogus"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_generated_files_synthesize(tmp_path):
    model = tmp_path / "t.model"
    spec = tmp_path / "t.spec"
    main([
        "generate", "--bench", "timing-attack", "--param", "n=2",
        "--out-model", str(model), "--out-spec", str(spec),
    ])
    assert main(["synth", "--model", str(model), "--spec", str(spec)]) == 0
