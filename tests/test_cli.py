import argparse
import copy
import dataclasses
import json
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from freeferm import cli, dense, learning, sampling
from freeferm.errors import TooManyModes, ValidationError

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cfg(**kw):
    cfg = cli.ExperimentConfig(**kw)
    return cli.run(cfg)


def test_run_determinism():
    kw = dict(command="estimate", modes=2, eps=0.4, delta=0.2, trials=4, seed=11,
              scheme="commuting", state_spec="random_gaussian:mixed")
    a = run_cfg(**kw)
    b = run_cfg(**kw)
    assert a["results"] == b["results"]


def test_records_depend_only_on_seed_and_trial():
    for kw in (
        dict(command="tomo-mixed", modes=2, eps=0.4, delta=0.2, seed=3,
             state_spec="random_gaussian:mixed"),
        dict(command="test-rank", modes=3, rank_exponent=1, eps_a=0.0, eps_b=0.8,
             delta=0.2, seed=3, state_spec="product:0.5,1,1"),
    ):
        short = run_cfg(**kw, trials=3)
        long = run_cfg(**kw, trials=6)
        assert short["results"] == long["results"][:3]


def test_verify_bounds_no_violations():
    rec = run_cfg(command="verify-bounds", modes=3, trials=12, seed=1)
    assert rec["aggregate"]["violations"] == 0
    assert "errors" not in rec["aggregate"]  # only runs with a failed trial carry it


def test_test_pure_command():
    rec = run_cfg(command="test-pure", modes=3, eps_a=0.0, eps_b=0.8, delta=0.1,
                  trials=3, seed=5, state_spec="random_gaussian:pure",
                  expected="CaseA")
    assert rec["aggregate"]["success_fraction"] == 1.0


def test_reduce_id_command():
    rec = run_cfg(command="reduce-id", modes=3, eps=0.5, delta=0.1, trials=2, seed=6,
                  state_spec="product:0,0,0", expected="MaximallyMixed")
    assert rec["aggregate"]["success_fraction"] == 1.0


def test_robustness_command():
    rec = run_cfg(command="robustness", modes=2, eps=0.3, delta=0.1, trials=2, seed=7,
                  noise_kind="depolarizing", noise_strength=0.02)
    assert rec["aggregate"]["success_fraction"] == 1.0


def test_ghz3_and_dense_fixture_specs(tmp_path):
    rec = run_cfg(command="tomo-mixed", modes=3, eps=0.3, delta=0.1, trials=1, seed=8,
                  state_spec="ghz3")
    assert rec["results"][0]["dense_error"] >= 0.0

    from freeferm import dense
    path = tmp_path / "state.txt"
    with open(path, "w") as f:
        dense.write_dense(f, dense.ghz3())
    rec2 = run_cfg(command="tomo-mixed", modes=3, eps=0.3, delta=0.1, trials=1, seed=8,
                   state_spec=f"dense_fixture:{path}")
    assert rec2["results"][0]["dense_error"] == rec["results"][0]["dense_error"]


def test_bad_dense_fixture_exits_2(tmp_path, capsys, monkeypatch):
    def no_trial(*args):
        raise AssertionError("a trial ran on an invalid fixture")

    monkeypatch.setitem(cli._TRIAL_WORKERS, "estimate", no_trial)
    skewed = np.eye(4, dtype=complex) / 4
    skewed[0, 1] = 0.1
    for name, rho in (("trace2", dense.DenseState(2, np.eye(4) / 2)),
                      ("nonhermitian", dense.DenseState(2, skewed)),
                      ("three_modes", dense.ghz3())):
        path = tmp_path / f"{name}.txt"
        with open(path, "w") as f:
            dense.write_dense(f, rho)
        argv = ["estimate", "--modes", "2", "--trials", "1",
                "--state-spec", f"dense_fixture:{path}", "--out", str(tmp_path / "x.json")]
        assert cli.main(argv) == 2, name
        assert "invalid configuration:" in capsys.readouterr().err


def test_sweep_single_point_slope_absent():
    rec = run_cfg(command="sweep", axis="shots", points=[1000.0], sub_command="estimate",
                  modes=2, eps=0.3, delta=0.2, trials=3, seed=9,
                  state_spec="product:0.4,0.1")
    assert rec["aggregate"]["slope"] is None


def test_sweep_shots_slope():
    rec = run_cfg(command="sweep", axis="shots", points=[1000, 4000, 16000, 64000],
                  sub_command="estimate", modes=3, eps=0.3, delta=0.2, trials=15,
                  seed=10, state_spec="product:0.5,0.2,-0.4")
    assert -0.6 <= rec["aggregate"]["slope"] <= -0.4


def test_tomo_mixed_guarantee_config():
    # the headline run: 50 trials at n=4 with the stated shot budget
    rec = run_cfg(command="tomo-mixed", modes=4, eps=0.2, delta=0.1, trials=50,
                  seed=7, scheme="commuting", state_spec="random_gaussian:mixed")
    assert rec["aggregate"]["success_fraction"] >= 0.9


def test_sweep_eps_axis_tomo():
    rec = run_cfg(command="sweep", axis="eps", points=[0.3, 0.5], sub_command="tomo-mixed",
                  modes=2, delta=0.2, trials=5, seed=12,
                  state_spec="random_gaussian:mixed")
    for sub in rec["results"]:
        assert sub["aggregate"]["success_fraction"] >= 1.0 - 0.2


def test_config_validation_errors():
    with pytest.raises(ValidationError):
        run_cfg(command="bogus")
    with pytest.raises(ValidationError):
        run_cfg(command="estimate", modes=0)
    with pytest.raises(ValidationError):
        run_cfg(command="estimate", state_spec="widget:4")
    with pytest.raises(ValidationError):
        run_cfg(command="sweep", axis="shots", points=[], sub_command="estimate")


def test_sampling_cap_checked_at_validation(monkeypatch, capsys, tmp_path):
    cap = sampling.MAX_SAMPLING_MODES
    message = f"mode count {cap + 2} exceeds sampling cap {cap}"
    for kw in (
        dict(command="estimate", modes=cap + 2),
        dict(command="tomo-mixed", modes=cap + 2),
        dict(command="sweep", axis="modes", points=[4.0, float(cap + 2)],
             sub_command="estimate"),
    ):
        with pytest.raises(ValidationError, match=message):
            cli.ExperimentConfig(**kw).validate()
    # the cap is the commuting sampler's: other schemes pass, and verify-bounds
    # meets the smaller dense cap instead
    cli.ExperimentConfig(command="estimate", modes=cap + 2, scheme="pauli_pairs").validate()
    with pytest.raises(ValidationError, match="exceeds dense cap"):
        cli.ExperimentConfig(command="verify-bounds", modes=cap + 2).validate()
    cli.ExperimentConfig(command="estimate", modes=cap).validate()
    # rejected before any trial runs, with the sampler's message
    def no_trial(*args):
        raise AssertionError("a trial ran")
    monkeypatch.setitem(cli._TRIAL_WORKERS, "estimate", no_trial)
    assert cli.main(["estimate", "--modes", str(cap + 2),
                     "--out", str(tmp_path / "x.json")]) == 2
    assert f"invalid configuration: {message}" in capsys.readouterr().err


def test_failed_trial_is_recorded_not_fatal(tmp_path):
    # trial 9 of this run breaks the robustness promise
    out = tmp_path / "r.json"
    assert cli.main(["robustness", "--modes", "3", "--noise-strength", "0.02",
                     "--seed", "1", "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert [r["trial"] for r in rec["results"]] == list(range(10))
    failed = [r for r in rec["results"]
              if r["verdict_or_error"].startswith("PromiseNotCertified: ")]
    assert failed and all(r["ok"] is False and r["shots"] == 0 for r in failed)
    assert rec["aggregate"]["errors"] == {"PromiseNotCertified": len(failed)}


def test_failed_trials_are_not_violations(monkeypatch):
    real = cli._TRIAL_WORKERS["verify-bounds"]

    def flaky(cfg, trial, stream):
        if trial % 2:
            raise TooManyModes("injected")
        return real(cfg, trial, stream)

    def invalid(cfg, trial, stream):
        raise ValidationError("bad")

    monkeypatch.setitem(cli._TRIAL_WORKERS, "verify-bounds", flaky)
    rec = run_cfg(command="verify-bounds", modes=3, trials=4, seed=1)
    agg = rec["aggregate"]
    assert agg["violations"] == 0 and agg["success_fraction"] == 1.0
    assert agg["errors"] == {"TooManyModes": 2}
    assert rec["results"][1] == {"trial": 1, "ok": False,
                                 "verdict_or_error": "TooManyModes: injected", "shots": 0}
    # a validation error inside a trial still aborts the run
    monkeypatch.setitem(cli._TRIAL_WORKERS, "verify-bounds", invalid)
    with pytest.raises(ValidationError):
        run_cfg(command="verify-bounds", modes=3, trials=2, seed=1)


def test_stdout_record_is_pure_json(capsys):
    assert cli.main(["estimate", "--modes", "2", "--eps", "0.4", "--delta", "0.2",
                     "--trials", "2", "--seed", "1", "--out", "-"]) == 0
    captured = capsys.readouterr()
    rec = json.loads(captured.out)
    assert len(rec["results"]) == 2
    assert captured.err.startswith("estimate: ") and captured.err.rstrip().endswith("-> -")


def test_csv_output(tmp_path):
    out = tmp_path / "r.csv"
    cfg = cli.ExperimentConfig(command="estimate", modes=2, eps=0.4, delta=0.2,
                               trials=3, seed=2, format="csv", out_path=str(out))
    record = cli.run(cfg)
    cli.write_record(record, cfg)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "trial,verdict_or_error,shots,seed_stream"
    assert len(lines) == 4
    assert lines[1].startswith("0,") and lines[1].endswith(",2:0")


def test_main_exit_codes(tmp_path):
    out = str(tmp_path / "ok.json")
    assert cli.main(["estimate", "--modes", "2", "--eps", "0.4", "--delta", "0.2",
                     "--trials", "2", "--seed", "1", "--out", out]) == 0
    assert os.path.exists(out)
    # budget overflow -> 3
    assert cli.main(["estimate", "--modes", "4", "--eps", "0.001", "--delta", "0.01",
                     "--trials", "1", "--seed", "1", "--shot-cap", "1000",
                     "--out", out]) == 3
    assert cli.main(["robustness", "--modes", "3", "--noise-strength", "0", "--trials", "1",
                     "--shot-cap", "10", "--out", out]) == 3
    # validation error -> 2
    assert cli.main(["estimate", "--modes", "0", "--out", out]) == 2
    # malformed argv -> 2 and --help -> 0, returned rather than raised
    assert cli.main(["estimate", "--modes", "two"]) == 2
    assert cli.main(["no-such-command"]) == 2
    assert cli.main(["estimate", "--help"]) == 0
    # unwritable output -> 2
    assert cli.main(["estimate", "--modes", "2", "--eps", "0.4", "--delta", "0.2",
                     "--trials", "1", "--seed", "1",
                     "--out", str(tmp_path / "nodir" / "x.json")]) == 2


def test_out_of_range_input_exits_2(tmp_path, capsys):
    out = str(tmp_path / "x.json")
    for argv in (
        ["estimate", "--modes", "2", "--eps", "3", "--trials", "1"],
        ["robustness", "--modes", "2", "--noise-strength", "1.5", "--trials", "1"],
    ):
        assert cli.main([*argv, "--out", out]) == 2
        assert "invalid configuration:" in capsys.readouterr().err
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"modes": 2, "workers": 2}))
    assert cli.main(["estimate", "--config", str(cfg_path), "--out", out]) == 2
    assert "invalid configuration:" in capsys.readouterr().err


def test_config_file_and_env_out(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "modes": 2, "eps": 0.4, "delta": 0.2, "trials": 2, "seed": 4,
        "state_spec": "random_gaussian:mixed",
    }))
    monkeypatch.setenv("FREEFERM_OUT_DIR", str(tmp_path))
    assert cli.main(["estimate", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "estimate.json").exists()
    payload = json.loads((tmp_path / "estimate.json").read_text())
    assert payload["config"]["seed"] == 4
    # the echoed config reproduces the run exactly
    echoed = {k: v for k, v in payload["config"].items()}
    rec2 = cli.run(cli.ExperimentConfig(**echoed))
    assert rec2["results"] == payload["results"]


def test_flag_overrides_config_file(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"modes": 2, "trials": 2, "eps": 0.4,
                                    "delta": 0.2, "seed": 4}))
    out = str(tmp_path / "o.json")
    assert cli.main(["estimate", "--config", str(cfg_path), "--seed", "9",
                     "--out", out]) == 0
    assert json.loads(open(out).read())["config"]["seed"] == 9


def test_size_caps_checked_at_validation(monkeypatch, capsys, tmp_path):
    dense_cap = dense.MAX_DENSE_MODES
    robust_cap = learning.MAX_ROBUSTNESS_MODES
    local_cap = learning.MAX_LOCAL_MODES
    zeros = lambda n: "product:" + ",".join(["0"] * n)  # noqa: E731
    noise_kind = tmp_path / "noise_kind.json"  # a key outside the row, even at its default
    noise_kind.write_text(json.dumps({"noise_kind": "depolarizing"}))
    # (rejected argv, a valid twin: at the cap, or the field where it is read)
    cases = (
        (["verify-bounds", "--modes", str(dense_cap + 1)],
         ["verify-bounds", "--modes", str(dense_cap)]),
        (["robustness", "--modes", str(robust_cap + 1)],
         ["robustness", "--modes", str(robust_cap)]),
        (["reduce-id", "--modes", str(local_cap + 1), "--state-spec", zeros(local_cap + 1)],
         ["reduce-id", "--modes", str(local_cap), "--state-spec", zeros(local_cap)]),
        (["test-rank", "--modes", "8", "--rank-exponent", str(local_cap + 1)],
         ["test-rank", "--modes", "8", "--rank-exponent", str(local_cap)]),
        (["estimate", "--modes", "4", "--state-spec", "ghz3"],
         ["estimate", "--modes", "3", "--state-spec", "ghz3"]),
        (["estimate", "--modes", "3", "--state-spec", zeros(2)],
         ["estimate", "--modes", "3", "--state-spec", zeros(3)]),
        # infeasible thresholds
        (["test-rank", "--modes", "3", "--rank-exponent", "3", "--eps-a", "0", "--eps-b", "0.8"],
         ["test-rank", "--modes", "3", "--rank-exponent", "2", "--eps-a", "0", "--eps-b", "0.8"]),
        (["test-pure", "--modes", "3", "--eps-a", "0.3", "--eps-b", "0.5"],
         ["test-pure", "--modes", "3", "--eps-a", "0.01", "--eps-b", "0.5"]),
        # a field the command does not read
        (["robustness", "--modes", "3", "--state-spec", "ghz3"],
         ["tomo-mixed", "--modes", "3", "--state-spec", "ghz3"]),
        (["verify-bounds", "--scheme", "exact"], ["estimate", "--scheme", "exact"]),
        (["estimate", "--noise-kind", "trace_perturbation"],
         ["robustness", "--noise-kind", "trace_perturbation"]),
        (["sweep", "--axis", "shots", "--points", "1000,4000", "--sub-command", "tomo-mixed"],
         ["sweep", "--axis", "shots", "--points", "1000,4000", "--sub-command", "estimate"]),
        (["sweep", "--axis", "modes", "--points", "2,3", "--modes", "5", "--sub-command",
          "estimate"],
         ["sweep", "--axis", "shots", "--points", "1000", "--modes", "5", "--sub-command",
          "estimate"]),
        (["sweep", "--axis", "eps", "--points", "0.3", "--sub-command", "tomo-mixed",
          "--format", "csv"],
         ["tomo-mixed", "--format", "csv"]),
        (["estimate", "--config", str(noise_kind)], ["robustness", "--config", str(noise_kind)]),
        # shot counts below 1, for a command and at a sweep point
        (["estimate", "--modes", "3", "--shots", "-5"],
         ["estimate", "--modes", "3", "--shots", "1"]),
        (["estimate", "--modes", "3", "--shots", "0"],
         ["estimate", "--modes", "3", "--shots", "1"]),
        (["sweep", "--axis", "shots", "--points", "1000,-3", "--sub-command", "estimate"],
         ["sweep", "--axis", "shots", "--points", "1000,1", "--sub-command", "estimate"]),
    )

    def no_trial(*args):
        raise AssertionError("a trial ran")

    for name in cli._TRIAL_WORKERS:
        monkeypatch.setitem(cli._TRIAL_WORKERS, name, no_trial)
    parser = cli.build_parser()
    for rejected, twin in cases:
        assert cli.main([*rejected, "--trials", "2", "--out", str(tmp_path / "x.json")]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration:" in err or "unrecognized arguments:" in err
        cli.config_from_args(parser.parse_args(twin)).validate()
    # a command that ignores the spec rejects one set away from its default
    with pytest.raises(ValidationError, match=r"robustness does not take \['state_spec'\]"):
        cli.ExperimentConfig(command="robustness", modes=4, state_spec="ghz3").validate()


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_each_command_takes_only_the_fields_it_reads():
    names = {f.name for f in dataclasses.fields(cli.ExperimentConfig)}
    commands = _subparsers(cli.build_parser())
    assert set(commands) == set(cli.COMMAND_FIELDS)
    for name, sub in commands.items():
        row = cli.COMMAND_FIELDS[name]
        assert set(row) <= names - {"command"}
        assert {a.dest for a in sub._actions} - {"help"} == {*row, "config"}, name


def test_readme_examples_parse_and_validate():
    # every example command validates, and the flag table lists each parser's flags
    common = {"--config", "--trials", "--seed", "--out"}
    text = README.read_text()
    examples = [shlex.split(line)[1:] for line in text.replace("\\\n", " ").splitlines()
                if line.startswith("freeferm ")]
    assert len(examples) >= 4
    parser = cli.build_parser()
    for argv in examples:
        cli.config_from_args(parser.parse_args(argv)).validate()
    table = dict(re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", text, re.MULTILINE))
    commands = _subparsers(parser)
    assert set(table) == set(commands)
    for name, sub in commands.items():
        flags = {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
        assert set(re.findall(r"`(--[a-z-]+)`", table[name])) | common == flags, name


# Seed 0, first three trials (a trial's record depends only on the seed and its
# index), recorded with numpy 2.4.6 and scipy 1.17.1: argv, exit code, results,
# aggregate.
SEEDED_RECORDS = (
    ("verify-bounds --modes 4", 0, [
        {"trial": 0, "mode": "mixed_mixed", "trace_dist": 1.5680731173525544,
         "lb_infty": 1.5024534230024766, "ub_mixed": 2.0, "ub_pure": None,
         "ub_pure_vs_any": None, "ok": True, "verdict_or_error": "ok", "shots": 0},
        {"trial": 1, "mode": "pure_pure", "trace_dist": 1.9575388903144353,
         "lb_infty": 1.949813812975413, "ub_mixed": 2.0, "ub_pure": 2.0,
         "ub_pure_vs_any": None, "ok": True, "verdict_or_error": "ok", "shots": 0},
        {"trial": 2, "mode": "pure_vs_any", "trace_dist": 1.9131443096264182,
         "lb_infty": 1.2610132433273114, "ub_mixed": 2.0, "ub_pure": None,
         "ub_pure_vs_any": 2.0, "ok": True, "verdict_or_error": "ok", "shots": 0},
    ], {"trials": 3, "shot_total": 0, "success_fraction": 1.0, "violations": 0}),
    ("test-rank --modes 6 --rank-exponent 4 --eps-a 0 --eps-b 0.5 --scheme commuting "
     "--state-spec product:0.3,0.5,0.7,0.9,1,1 --expected CaseA", 0, [
        {"trial": 0, "verdict_or_error": "CaseA", "shots": 10548530440,
         "lambda_hat": 0.9999477911460677, "threshold": 0.21875,
         "stage": "tomography_stage", "ok": True},
        {"trial": 1, "verdict_or_error": "CaseA", "shots": 10548530440,
         "lambda_hat": 0.9999970319118338, "threshold": 0.21875,
         "stage": "tomography_stage", "ok": True},
        {"trial": 2, "verdict_or_error": "CaseA", "shots": 10548530440,
         "lambda_hat": 0.9999941555909724, "threshold": 0.21875,
         "stage": "tomography_stage", "ok": True},
    ], {"trials": 3, "shot_total": 31645591320, "success_fraction": 1.0}),
    ("robustness --modes 3 --noise-strength 0.02", 0, [
        {"trial": 0, "dense_error": 0.02813605546562884, "promise_value": 0.02099055654515794,
         "ok": True, "verdict_or_error": "0.028136", "shots": 190710},
        {"trial": 1, "dense_error": 0.03315197213019479, "promise_value": 0.015113463436746289,
         "ok": True, "verdict_or_error": "0.033152", "shots": 190710},
        {"trial": 2, "dense_error": 0.016385264762255436, "promise_value": 0.0037134938933928285,
         "ok": True, "verdict_or_error": "0.016385", "shots": 190710},
    ], {"trials": 3, "shot_total": 572130, "success_fraction": 1.0,
        "median_error": 0.02813605546562884}),
    ("tomo-mixed --modes 4", 0, [
        {"trial": 0, "shots": 661655, "dense_error": 0.01603175857635116, "ok": True,
         "verdict_or_error": "0.016032"},
        {"trial": 1, "shots": 661655, "dense_error": 0.016037424334775813, "ok": True,
         "verdict_or_error": "0.016037"},
        {"trial": 2, "shots": 661655, "dense_error": 0.017390698012724908, "ok": True,
         "verdict_or_error": "0.017391"},
    ], {"trials": 3, "shot_total": 1984965, "success_fraction": 1.0,
        "median_error": 0.016037424334775813}),
    ("estimate --modes 4 --scheme commuting", 0, [
        {"trial": 0, "error_inf": 0.038752255721033364, "ok": True,
         "verdict_or_error": "0.038752", "shots": 82707},
        {"trial": 1, "error_inf": 0.03240156744102941, "ok": True,
         "verdict_or_error": "0.032402", "shots": 82707},
        {"trial": 2, "error_inf": 0.04299562908487101, "ok": True,
         "verdict_or_error": "0.042996", "shots": 82707},
    ], {"trials": 3, "shot_total": 248121, "success_fraction": 1.0,
        "median_error": 0.038752255721033364}),
    ("estimate --modes 4 --scheme pauli_pairs", 0, [
        {"trial": 0, "error_inf": 0.025254858152206124, "ok": True,
         "verdict_or_error": "0.025255", "shots": 519698},
        {"trial": 1, "error_inf": 0.03816518794294091, "ok": True,
         "verdict_or_error": "0.038165", "shots": 519698},
        {"trial": 2, "error_inf": 0.026854416598048568, "ok": True,
         "verdict_or_error": "0.026854", "shots": 519698},
    ], {"trials": 3, "shot_total": 1559094, "success_fraction": 1.0,
        "median_error": 0.026854416598048568}),
)


def _assert_record_matches(got, want, path):
    """Floats to 1e-9; exit codes, verdicts, ok flags and shot counts exactly."""
    if isinstance(want, float):
        assert got == pytest.approx(want, rel=0.0, abs=1e-9), path
    elif isinstance(want, dict):
        assert got.keys() == want.keys(), path
        for k in want:
            _assert_record_matches(got[k], want[k], f"{path}.{k}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_record_matches(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, path


@pytest.mark.parametrize("argv,code,results,aggregate", SEEDED_RECORDS,
                         ids=["verify-bounds", "test-rank", "robustness", "tomo-mixed",
                              "estimate-commuting", "estimate-pauli_pairs"])
def test_seeded_records(tmp_path, argv, code, results, aggregate):
    out = tmp_path / "r.json"
    assert cli.main([*argv.split(), "--seed", "0", "--trials", "3", "--out", str(out)]) == code
    rec = json.loads(out.read_text())
    _assert_record_matches(rec["results"], results, "results")
    _assert_record_matches(rec["aggregate"], aggregate, "aggregate")
