import copy
import dataclasses
import json
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from freeferm import cli, dense, learning, sampling, states
from freeferm.errors import TooManyModes, ValidationError

README = Path(__file__).resolve().parents[1] / "README.md"


def _set_trial(monkeypatch, command, worker):
    """Replace ``command``'s per-trial worker for one test."""
    monkeypatch.setitem(cli.COMMANDS, command, cli.COMMANDS[command]._replace(trial=worker))


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


def test_reduce_id_record_carries_its_statistic():
    # Γ = 0.5 (+) 0 (+) 0: the largest normal eigenvalue decides at the first stage
    rec = run_cfg(command="reduce-id", modes=3, eps=0.5, delta=0.1, trials=1, seed=6,
                  scheme="exact", state_spec="product:0.5,0,0")
    assert rec["results"] == [{
        "trial": 0, "verdict_or_error": "FarFromMaximallyMixed", "shots": 0, "lambda_hat": 0.5,
        "threshold": 0.5 / 9, "stage": "eigenvalue_stage"}]


def test_unscored_tomography_record():
    # no dense truth at six modes, and no pure one: the trial is learned, not scored
    for kw in (dict(command="tomo-pure", state_spec="random_gaussian:mixed"),
               dict(command="tomo-mixed")):
        rec = run_cfg(modes=6, trials=2, seed=2, **kw)
        for r in rec["results"]:
            assert r["verdict_or_error"] == "learned"
            assert "ok" not in r and "dense_error" not in r
        assert "success_fraction" not in rec["aggregate"]
        assert "median_error" not in rec["aggregate"]


def test_tomo_scores_a_gaussian_truth_in_one_frame():
    # the one-frame distance equals the one from two dense states, for shared
    # (vacuum, product) and per-trial (random_gaussian) sources, pure and mixed
    for n in range(1, dense.MAX_TRIAL_DENSE_MODES + 1):
        for command, spec in (("tomo-pure", "vacuum"), ("tomo-pure", "random_gaussian:pure"),
                              ("tomo-mixed", "product:" + ",".join(["0.6"] * n)),
                              ("tomo-mixed", "random_gaussian:mixed")):
            cfg = cli.ExperimentConfig(command=command, modes=n, state_spec=spec, seed=n)
            source = cfg.validate()
            stream = sampling.RngStream(cfg.seed, (0,))
            rec = cli._trial_tomo(cfg, 0, stream, source)
            src = source(stream)
            tomograph = learning.tomograph_pure if command == "tomo-pure" \
                else learning.tomograph_mixed
            learned = tomograph(src, cfg.eps, cfg.delta, stream.child(1),
                                scheme=cfg.scheme).learned
            want = dense.state_metrics(dense.gaussian_to_dense(learned),
                                       dense.gaussian_to_dense(src.state))
            assert abs(rec["dense_error"] - want) <= 1e-12, (n, command, spec)


def test_tomo_scoring_synthesises_one_unitary_per_trial(monkeypatch):
    calls = []
    real = dense.gaussian_unitary

    def counted(q):
        calls.append(q.shape)
        return real(q)

    monkeypatch.setattr(dense, "gaussian_unitary", counted)
    for spec in ("vacuum", "random_gaussian:mixed"):
        calls.clear()
        rec = run_cfg(command="tomo-mixed", modes=5, trials=10, state_spec=spec)
        assert "success_fraction" in rec["aggregate"], spec
        assert len(calls) == 10, spec


@pytest.mark.parametrize("n,argv", [
    (6, "--state-spec vacuum"), (6, "--state-spec random_gaussian:pure"),
    (128, "--scheme pauli_pairs --state-spec random_gaussian:pure")])
def test_tomo_pure_scores_a_pure_truth_by_its_overlap(tmp_path, n, argv):
    # above the dense cap a pure Gaussian truth is scored exactly, in O(n^3)
    out = tmp_path / "r.json"
    assert cli.main(["tomo-pure", "--modes", str(n), *argv.split(), "--trials", "2",
                     "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    for r in rec["results"]:
        assert r["referee"] == "overlap" and r["ok"], r
        assert r["verdict_or_error"] == f"{r['exact_error']:.6f}"
    assert rec["aggregate"]["success_fraction"] == 1.0
    errs = [r["exact_error"] for r in rec["results"]]
    assert rec["aggregate"]["median_error"] == float(np.median(errs))


def test_overlap_score_matches_the_dense_referee():
    # 2 sqrt(1 - |<psi|phi>|^2) is the trace distance of two pure states
    for n in range(1, dense.MAX_TRIAL_DENSE_MODES + 1):
        for spec in ("vacuum", "random_gaussian:pure"):
            cfg = cli.ExperimentConfig(command="tomo-pure", modes=n, state_spec=spec, seed=n)
            source = cfg.validate()
            stream = sampling.RngStream(cfg.seed, (0,))
            truth = source(stream).state
            learned = learning.tomograph_pure(source(stream), cfg.eps, cfg.delta,
                                              stream.child(1)).learned
            overlap = 2.0 * np.sqrt(1.0 - states.overlap_pure(learned, truth))
            assert abs(overlap - dense.state_metrics(learned, truth)) <= 1e-12, (n, spec)


@pytest.mark.parametrize("argv", ["estimate", "tomo-pure", "test-pure --eps-b 0.9"])
def test_pauli_pairs_on_a_pure_one_mode_state(tmp_path, argv):
    # a drawn pure 1-mode Γ can have |Γ_01| = 1 + 4.4e-16; the draw clips it
    out = tmp_path / "r.json"
    assert cli.main([*argv.split(), "--modes", "1", "--scheme", "pauli_pairs", "--state-spec",
                     "random_gaussian:pure", "--seed", "2", "--trials", "2",
                     "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert "errors" not in rec["aggregate"]
    if argv == "estimate":
        assert all(r["error_inf"] <= 0.2 for r in rec["results"])


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

    for command in ("estimate", "tomo-mixed"):
        _set_trial(monkeypatch, command, no_trial)
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
    header = "must be a mode count >= 1"
    for name, text, message in (
            ("empty", "", header), ("non_integer", "two\n", header), ("negative", "-1\n", header),
            # NaN fails every comparison, so non-finite entries are refused first
            ("nan", "1\n0.5 0 nan 0\nnan 0 0.5 0\n", "non-finite entry"),
            ("inf", "1\n0.5 0 inf 0\ninf 0 0.5 0\n", "non-finite entry"),
            ("third_row", "1\n0.5 0 0 0\n0 0 0.5 0\n0 0 0 0\n", "data after the 2 rows"),
            # a mode count past the dense cap is refused at the header, before any row
            ("eleven_modes", "11\n", "exceeds dense cap 10")):
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        for command in ("estimate", "tomo-mixed"):
            argv = [command, "--modes", "1", "--trials", "1",
                    "--state-spec", f"dense_fixture:{path}", "--out", str(tmp_path / "x.json")]
            assert cli.main(argv) == 2, (name, command)
            assert message in capsys.readouterr().err, (name, command)


def test_sweep_single_point_slope_absent():
    rec = run_cfg(command="sweep", axis="shots", points=[1000.0], sub_command="estimate",
                  modes=2, eps=0.3, delta=0.2, trials=3, seed=9,
                  state_spec="product:0.4,0.1")
    assert rec["aggregate"]["slope"] is None
    # points that share one x value have no slope either
    rec = run_cfg(command="sweep", axis="shots", points=[1000.0, 1000.0],
                  sub_command="estimate", modes=2, trials=2)
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
    # a config built in Python meets the flags' type rule too
    for kw in (dict(modes="3"), dict(eps="0.2"), dict(trials=2.0)):
        with pytest.raises(ValidationError, match="is not a --"):
            run_cfg(command="estimate", **kw)
    with pytest.raises(ValidationError, match="scheme must be one of pauli_pairs, commuting, exact"):
        run_cfg(command="estimate", scheme="nope")


def test_random_gaussian_spec_needs_pure_or_mixed(capsys):
    assert cli.main(["estimate", "--state-spec", "random_gaussian:both", "--out", "-"]) == 2
    assert "random_gaussian needs :pure or :mixed, got 'random_gaussian:both'" in \
        capsys.readouterr().err


def test_vacuum_and_ghz3_specs_take_no_argument(capsys, tmp_path):
    # an argument after either kind is refused before any trial runs, not ignored
    out = tmp_path / "r.json"
    for spec in ("vacuum:7", "ghz3:junk", "vacuum:"):
        argv = ["estimate", "--modes", "3", "--state-spec", spec, "--out", str(out)]
        assert cli.main(argv) == 2
        assert f"{spec.partition(':')[0]} takes no argument, got {spec!r}" in capsys.readouterr().err
        assert not out.exists()


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
    _set_trial(monkeypatch, "estimate", no_trial)
    assert cli.main(["estimate", "--modes", str(cap + 2),
                     "--out", str(tmp_path / "x.json")]) == 2
    assert f"invalid configuration: {message}" in capsys.readouterr().err


def test_draw_ceiling_bounds_every_count(tmp_path, capsys):
    out = str(tmp_path / "r.json")
    ceiling = sampling.MAX_DRAW  # 2^63 - 1
    for scheme in ("commuting", "pauli_pairs"):
        assert cli.main(["estimate", "--modes", "3", "--scheme", scheme, "--shots",
                         str(ceiling), "--trials", "1", "--out", out]) == 0
        assert json.loads(Path(out).read_text())["results"][0]["shots"] == ceiling
        for shots in (ceiling + 1, 10 ** 20):
            assert cli.main(["estimate", "--modes", "3", "--scheme", scheme, "--shots",
                             str(shots), "--trials", "1", "--out", out]) == 3
            assert "shots exceed the draw ceiling" in capsys.readouterr().err
    # one round of 2 outcomes: its Poisson mean meets numpy's Poisson ceiling
    assert cli.main(["estimate", "--modes", "1", "--scheme", "commuting", "--shots",
                     str(ceiling), "--trials", "1", "--out", out]) == 0
    assert json.loads(Path(out).read_text())["results"][0]["shots"] == ceiling
    # reduce-id's stage 1 draws about 4.5e18 copies and passes; stage 3's
    # per-Pauli count, about 3.1e19, does not
    assert cli.main(["reduce-id", "--modes", "6", "--eps", "0.000002",
                     "--state-spec", "product:0,0,0,0,0,0", "--trials", "1", "--out", out]) == 3
    assert "copies per Pauli exceed the draw ceiling" in capsys.readouterr().err
    # here every draw fits, stage 1's 9.1e14 copies and each of stage 3's 4095
    # per-Pauli counts of 6.3e15, but the trial's total of 2.6e19 does not: no record
    total = str(tmp_path / "total.json")
    assert cli.main(["reduce-id", "--modes", "6", "--eps", "0.00014",
                     "--state-spec", "product:0,0,0,0,0,0", "--trials", "1", "--out", total]) == 3
    assert "a trial's total of 25979500186704241732 copies exceeds the draw ceiling" \
        in capsys.readouterr().err
    assert not Path(total).exists()


def test_draw_ceiling_bounds_a_run_total(tmp_path, capsys):
    # one trial's 5.7e18 copies fit the ceiling, two trials' 1.1e19 do not: no record
    argv = ["reduce-id", "--modes", "6", "--eps", "0.0003", "--state-spec",
            "product:0,0,0,0,0,0", "--out"]
    one, two = tmp_path / "one.json", tmp_path / "two.json"
    assert cli.main([*argv, str(one), "--trials", "1"]) == 0
    assert json.loads(one.read_text())["aggregate"]["shot_total"] == 5657757818437813409
    assert cli.main([*argv, str(two), "--trials", "2"]) == 3
    assert ("the run's total of 11315515636875626818 copies after trial 1 exceeds the draw "
            "ceiling") in capsys.readouterr().err
    assert not two.exists()


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
    real = cli.COMMANDS["verify-bounds"].trial

    def flaky(cfg, trial, stream, source):
        if trial % 2:
            raise TooManyModes("injected")
        return real(cfg, trial, stream, source)

    def invalid(cfg, trial, stream, source):
        raise ValidationError("bad")

    _set_trial(monkeypatch, "verify-bounds", flaky)
    rec = run_cfg(command="verify-bounds", modes=3, trials=4, seed=1)
    agg = rec["aggregate"]
    assert agg["violations"] == 0 and agg["success_fraction"] == 1.0
    assert agg["errors"] == {"TooManyModes": 2}
    assert rec["results"][1] == {"trial": 1, "ok": False,
                                 "verdict_or_error": "TooManyModes: injected", "shots": 0}
    # a validation error inside a trial still aborts the run
    _set_trial(monkeypatch, "verify-bounds", invalid)
    with pytest.raises(ValidationError):
        run_cfg(command="verify-bounds", modes=3, trials=2, seed=1)


def test_stdout_record_is_pure_json(capsys):
    assert cli.main(["estimate", "--modes", "2", "--eps", "0.4", "--delta", "0.2",
                     "--trials", "2", "--seed", "1", "--out", "-"]) == 0
    captured = capsys.readouterr()
    rec = json.loads(captured.out)
    assert len(rec["results"]) == 2
    assert captured.err.startswith("estimate: ") and captured.err.rstrip().endswith("-> -")


def test_back_to_back_main_calls_write_their_own_records(tmp_path, capsys):
    # the parser is built once per process; each call still parses its own argv
    runs = (("estimate", "--modes", "2", "--eps", "0.4", "--delta", "0.2", "--seed", "1"),
            ("verify-bounds", "--modes", "3", "--seed", "2"))
    for argv in runs:
        out = tmp_path / f"{argv[0]}.json"
        assert cli.main([*argv, "--trials", "2", "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        want = cli.config_from_args(cli.build_parser().parse_args([*argv, "--trials", "2"]))
        assert rec["config"]["command"] == argv[0] and len(rec["results"]) == 2
        assert rec["results"] == cli.run(want)["results"]
    assert cli.main(["estimate", "--modes", "0"]) == 2
    assert "invalid configuration" in capsys.readouterr().err
    assert cli.build_parser() is cli.build_parser()


def test_shots_rule_has_one_owner():
    with pytest.raises(ValidationError) as lib:
        sampling.check_shots(0)
    with pytest.raises(ValidationError) as cfg:
        cli.ExperimentConfig(command="estimate", modes=2, shots=0).validate()
    assert str(cfg.value) == str(lib.value) == "total_shots must be >= 1, got 0"


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
    # a budget above the draw ceiling -> 3
    assert cli.main(["estimate", "--modes", "4", "--eps", "1e-9", "--delta", "0.01",
                     "--trials", "1", "--seed", "1", "--out", out]) == 3
    assert cli.main(["robustness", "--modes", "3", "--noise-strength", "0", "--eps", "1e-9",
                     "--trials", "1", "--out", out]) == 3
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


def test_out_of_range_input_exits_2(tmp_path, capsys, monkeypatch):
    def no_trial(*args):
        raise AssertionError("a trial ran on an out-of-range input")

    for command in cli.COMMANDS:
        _set_trial(monkeypatch, command, no_trial)
    out = str(tmp_path / "x.json")
    for argv in (
        ["estimate", "--modes", "2", "--eps", "3", "--trials", "1"],
        ["estimate", "--modes", "2", "--eps", "-1", "--shots", "100", "--trials", "1"],
        ["tomo-mixed", "--modes", "2", "--eps", "1.5", "--trials", "1"],
        ["tomo-pure", "--modes", "2", "--eps", "1.0", "--trials", "1"],
        ["robustness", "--modes", "2", "--eps", "1.5", "--trials", "1"],
        ["reduce-id", "--modes", "2", "--eps", "-1", "--trials", "1"],
        ["reduce-id", "--modes", "2", "--eps", "30", "--trials", "1"],
        ["reduce-id", "--modes", "2", "--eps", "5", "--trials", "1"],
        ["sweep", "--axis", "eps", "--points", "0.1,1.5", "--sub-command", "tomo-mixed",
         "--modes", "2", "--trials", "1"],
        ["test-pure", "--modes", "2", "--eps-a", "0.6", "--eps-b", "0.5", "--trials", "1"],
        ["robustness", "--modes", "2", "--noise-strength", "1.5", "--trials", "1"],
        ["robustness", "--modes", "2", "--noise-kind", "trace_perturbation",
         "--noise-strength", "3", "--trials", "1"],
        ["robustness", "--modes", "2", "--noise-kind", "trace_perturbation",
         "--noise-strength", "-0.5", "--trials", "1"],
    ):
        assert cli.main([*argv, "--out", out]) == 2
        assert "invalid configuration:" in capsys.readouterr().err
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"modes": 2, "workers": 2}))
    assert cli.main(["estimate", "--config", str(cfg_path), "--out", out]) == 2
    assert "invalid configuration:" in capsys.readouterr().err


def test_eps_b_above_two_exits_2_at_validation(tmp_path, capsys, monkeypatch):
    # eps_b is an unhalved trace distance, at most 2; the threshold formulas
    # square it, so 1e200 would overflow and inf would leave no copies
    def no_trial(*args):
        raise AssertionError("a trial ran with eps_b above 2")

    for command in ("test-pure", "test-rank"):
        _set_trial(monkeypatch, command, no_trial)
    out = str(tmp_path / "x.json")
    for eps_b in ("1e200", "inf", "2.5"):
        for argv in (["test-pure", "--modes", "3"],
                     ["test-rank", "--modes", "3", "--rank-exponent", "1"]):
            argv = [*argv, "--eps-b", eps_b, "--state-spec", "vacuum", "--trials", "1"]
            assert cli.main([*argv, "--out", out]) == 2, argv
            err = capsys.readouterr().err
            assert "invalid configuration:" in err and "2 >= eps_b" in err, err
    # 2 itself is in range
    assert learning.TestConfig(eps_a=0.0, eps_b=2.0, delta=0.1).eps_b == 2.0


def test_product_lambdas_checked_at_validation(tmp_path, capsys, monkeypatch):
    # out-of-range and non-finite lambdas are refused before any trial runs,
    # not recorded as one NotAValidCorrelationMatrix or NotAntisymmetric per trial
    def no_trial(*args):
        raise AssertionError("a trial ran on a bad product spec")

    _set_trial(monkeypatch, "estimate", no_trial)
    out = str(tmp_path / "x.json")
    for spec in ("product:1.5,0.2", "product:nan,0.2", "product:0.2,-inf"):
        argv = ["estimate", "--modes", "2", "--state-spec", spec, "--trials", "2", "--out", out]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "invalid configuration:" in err and "finite and in [-1, 1]" in err, err


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
    robust_cap = dense.MAX_TRIAL_DENSE_MODES
    local_cap = learning.MAX_LOCAL_MODES
    zeros = lambda n: "product:" + ",".join(["0"] * n)  # noqa: E731
    configs = {
        "noise_kind": {"noise_kind": "depolarizing"},  # a key outside the row, even at its default
        "modes_text": {"modes": "abc"},
        "modes_float": {"modes": 3.0},
        "seed_bool": {"seed": True},
        "shots_null": {"shots": None},
        "command": {"command": "estimate"},  # the command is named on the command line only
        "points_list": {"axis": "shots", "points": [1000, "x"], "sub_command": "estimate"},
        "modes": {"modes": 3},
        "points": {"axis": "shots", "points": [1000, 4000], "sub_command": "estimate"},
    }
    for name, values in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(values))
    (tmp_path / "not_json.json").write_text("{modes: 3")
    (tmp_path / "not_object.json").write_text("[3]")
    cfg = {name: ["--config", str(tmp_path / f"{name}.json")]
           for name in (*configs, "not_json", "not_object")}
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
        # the swept field given, on the command line or in a config file, even at its default
        (["sweep", "--axis", "modes", "--points", "4,5", "--modes", "3", "--sub-command",
          "estimate"],
         ["sweep", "--axis", "shots", "--points", "1000", "--modes", "3", "--sub-command",
          "estimate"]),
        (["sweep", "--axis", "eps", "--points", "0.3", "--eps", "0.2", "--sub-command",
          "estimate"],
         ["sweep", "--axis", "shots", "--points", "1000", "--eps", "0.2", "--sub-command",
          "estimate"]),
        (["sweep", "--axis", "modes", "--points", "4,5", "--sub-command", "estimate",
          *cfg["modes"]],
         ["sweep", "--axis", "shots", "--points", "1000", "--sub-command", "estimate",
          *cfg["modes"]]),
        (["sweep", "--axis", "eps", "--points", "0.3", "--sub-command", "tomo-mixed",
          "--format", "csv"],
         ["tomo-mixed", "--format", "csv"]),
        (["estimate", *cfg["noise_kind"]], ["robustness", *cfg["noise_kind"]]),
        # config-file values of a type other than their flag's, and malformed files
        (["estimate", *cfg["modes_text"]], ["estimate", *cfg["modes"]]),
        (["estimate", *cfg["modes_float"]], ["estimate", *cfg["modes"]]),
        (["estimate", *cfg["seed_bool"]], ["estimate", *cfg["modes"]]),
        (["estimate", *cfg["shots_null"]], ["estimate", *cfg["modes"]]),
        (["estimate", *cfg["command"]], ["estimate", *cfg["modes"]]),
        (["sweep", *cfg["points_list"]], ["sweep", *cfg["points"]]),
        (["estimate", *cfg["not_json"]], ["estimate", *cfg["modes"]]),
        (["estimate", *cfg["not_object"]], ["estimate", *cfg["modes"]]),
        # sweep points that are not numbers, or not integers on the modes and shots axes
        (["sweep", "--axis", "shots", "--points", "1000,abc", "--sub-command", "estimate"],
         ["sweep", "--axis", "shots", "--points", "1000,4000", "--sub-command", "estimate"]),
        (["sweep", "--axis", "shots", "--points", "1e400", "--sub-command", "estimate"],
         ["sweep", "--axis", "shots", "--points", "1e3", "--sub-command", "estimate"]),
        (["sweep", "--axis", "modes", "--points", "2.5", "--sub-command", "estimate"],
         ["sweep", "--axis", "modes", "--points", "2", "--sub-command", "estimate"]),
        (["sweep", "--axis", "shots", "--points", "1000.5", "--sub-command", "estimate"],
         ["sweep", "--axis", "eps", "--points", "0.5", "--sub-command", "estimate"]),
        # a negative seed, and shot counts below 1, for a command and at a sweep point
        (["estimate", "--modes", "3", "--seed", "-1"],
         ["estimate", "--modes", "3", "--seed", "0"]),
        (["estimate", "--modes", "3", "--shots", "-5"],
         ["estimate", "--modes", "3", "--shots", "1"]),
        (["estimate", "--modes", "3", "--shots", "0"],
         ["estimate", "--modes", "3", "--shots", "1"]),
        (["sweep", "--axis", "shots", "--points", "1000,-3", "--sub-command", "estimate"],
         ["sweep", "--axis", "shots", "--points", "1000,1", "--sub-command", "estimate"]),
        # the exact scheme draws no copies, so a copy total or a failure
        # probability would be ignored
        (["estimate", "--scheme", "exact", "--shots", "10"], ["estimate", "--scheme", "exact"]),
        (["estimate", "--scheme", "exact", "--delta", "0.5"],
         ["estimate", "--scheme", "commuting", "--delta", "0.5"]),
        (["tomo-pure", "--scheme", "exact", "--delta", "0.05"],
         ["tomo-pure", "--scheme", "exact", "--delta", "0.1"]),
        (["robustness", "--scheme", "exact", "--delta", "0.5"],
         ["robustness", "--scheme", "pauli_pairs", "--delta", "0.5"]),
        (["sweep", "--axis", "eps", "--points", "0.3,0.5", "--sub-command", "tomo-mixed",
          "--scheme", "exact", "--delta", "0.5"],
         ["sweep", "--axis", "eps", "--points", "0.3,0.5", "--sub-command", "tomo-mixed",
          "--scheme", "exact"]),
        (["sweep", "--axis", "shots", "--points", "1000,4000", "--sub-command", "estimate",
          "--scheme", "exact"],
         ["sweep", "--axis", "eps", "--points", "0.3,0.5", "--sub-command", "estimate",
          "--scheme", "exact"]),
    )

    def no_trial(*args):
        raise AssertionError("a trial ran")

    for name in cli.COMMANDS:
        _set_trial(monkeypatch, name, no_trial)
    parser = cli.build_parser()
    for rejected, twin in cases:
        assert cli.main([*rejected, "--trials", "2", "--out", str(tmp_path / "x.json")]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration:" in err, (rejected, err)
        cli.config_from_args(parser.parse_args(twin)).validate()
    # a target set outside the tester's two is refused with the tester's message
    for argv, kept in ((["test-pure", "--gaussian-set", "rank_set"], "pure_set or mixed_set"),
                       (["test-rank", "--rank-exponent", "1", "--gaussian-set", "pure_set"],
                        "rank_set or mixed_set")):
        assert cli.main([*argv, "--out", str(tmp_path / "x.json")]) == 2
        assert f"supports gaussian_set {kept}" in capsys.readouterr().err
    # a command that ignores the spec rejects one set away from its default
    with pytest.raises(ValidationError, match=r"robustness does not take \['state_spec'\]"):
        cli.ExperimentConfig(command="robustness", modes=4, state_spec="ghz3").validate()


def test_swept_field_refused_when_given(capsys, tmp_path):
    argv = ["sweep", "--axis", "modes", "--points", "4,5", "--sub-command", "estimate",
            "--modes", "3", "--trials", "1", "--out", str(tmp_path / "x.json")]
    assert cli.main(argv) == 2
    assert "a sweep along modes sets modes at each point" in capsys.readouterr().err
    # a config built in code cannot tell a value given at the default from none
    cli.ExperimentConfig(command="sweep", axis="modes", points=[4.0, 5.0],
                         sub_command="estimate", modes=3).validate()
    with pytest.raises(ValidationError, match="a sweep along modes sets modes at each point"):
        cli.ExperimentConfig(command="sweep", axis="modes", points=[4.0, 5.0],
                             sub_command="estimate", modes=4).validate()


def test_unwritable_destination_exits_2_before_any_trial(tmp_path, capsys, monkeypatch):
    def no_trial(*args):
        raise AssertionError("a trial ran")

    _set_trial(monkeypatch, "verify-bounds", no_trial)
    argv = ["verify-bounds", "--modes", "9", "--trials", "3"]
    (tmp_path / "verify-bounds.json").mkdir()
    missing = tmp_path / "missing" / "r.json"
    # --out under a missing directory or naming a directory, and the default
    # path under FREEFERM_OUT_DIR in the same two cases
    for out, out_dir in ((missing, None), (tmp_path, None), (None, missing.parent),
                         (None, tmp_path)):
        if out_dir is not None:
            monkeypatch.setenv("FREEFERM_OUT_DIR", str(out_dir))
        target = out or out_dir / "verify-bounds.json"
        with pytest.raises(OSError) as opened:  # the error writing the record would meet
            open(target, "w")
        assert cli.main([*argv, *(["--out", str(out)] if out else [])]) == 2
        assert capsys.readouterr().err == f"i/o error: {opened.value}\n"
    # stdout, and a file in an existing directory, reach the trials
    for out in ("-", str(tmp_path / "r.json")):
        with pytest.raises(AssertionError, match="a trial ran"):
            cli.main([*argv, "--out", out])


def _flag_value(field_name):
    """A flag value that parses and differs from the field's default."""
    choices = cli._FLAGS[field_name][1].get("choices")
    return choices[-1] if choices else "1"


def test_each_command_takes_only_the_fields_it_reads(monkeypatch, capsys, tmp_path):
    def no_trial(*args):
        raise AssertionError("a trial ran")

    for name in cli.COMMANDS:
        _set_trial(monkeypatch, name, no_trial)
    default = cli.ExperimentConfig("estimate")
    out = ["--out", str(tmp_path / "x.json")]
    for command, row in cli.COMMANDS.items():
        for field_name, (flag, _) in cli._FLAGS.items():
            argv = [command, flag, _flag_value(field_name)]
            if field_name in row.fields:  # every row flag parses and sets its field
                cfg = cli.config_from_args(cli.build_parser().parse_args(argv))
                assert getattr(cfg, field_name) != getattr(default, field_name), argv
            else:  # every other flag exits 2 before any trial
                assert cli.main([*argv, *out]) == 2, argv
                err = capsys.readouterr().err
                assert f"invalid configuration: {command} does not take ['{field_name}']" in err


def test_command_table_rows_are_well_formed():
    # each row names only config fields, and once each; each command but sweep
    # has its check and its trial worker; each flag belongs to one field
    names = {f.name for f in dataclasses.fields(cli.ExperimentConfig)} - {"command"}
    for command, row in cli.COMMANDS.items():
        assert set(row.fields) <= names, (command, set(row.fields) - names)
        assert len(set(row.fields)) == len(row.fields), command
        if command == "sweep":
            assert row.check is None and row.trial is None
        else:
            assert callable(row.check) and callable(row.trial), command
    flags = [flag for flag, _ in cli._FLAGS.values()]
    assert len(set(flags)) == len(flags) and "--config" not in flags


def test_expected_outside_the_verdicts_exits_2(monkeypatch, capsys, tmp_path):
    # --expected is one of the command's two verdicts: another spelling, and the
    # other tester kind's verdict, are refused before any trial runs
    def no_trial(*args):
        raise AssertionError("a trial ran")

    cases = learning.CASE_A, learning.CASE_B
    identity = learning.MAXIMALLY_MIXED, learning.FAR_FROM_MAXIMALLY_MIXED
    for argv, verdicts, others in (
        (["test-pure", "--modes", "3", "--eps-b", "0.9"], cases, identity),
        (["test-rank", "--modes", "3", "--rank-exponent", "1", "--eps-b", "0.9"], cases, identity),
        (["reduce-id", "--modes", "3", "--eps", "0.5"], identity, cases),
    ):
        _set_trial(monkeypatch, argv[0], no_trial)
        argv = [*argv, "--state-spec", "vacuum", "--trials", "1",
                "--out", str(tmp_path / "x.json")]
        for wrong in (verdicts[0].lower(), *others):
            assert cli.main([*argv, "--expected", wrong]) == 2, (argv, wrong)
            assert capsys.readouterr().err == (
                f"invalid configuration: expected must be one of {', '.join(verdicts)}, "
                f"got {wrong!r}\n")
        for verdict in verdicts:
            with pytest.raises(AssertionError, match="a trial ran"):
                cli.main([*argv, "--expected", verdict])


def test_dense_fixture_read_per_run_not_per_trial(tmp_path, monkeypatch):
    path = tmp_path / "ghz3.txt"
    with open(path, "w") as f:
        dense.write_dense(f, dense.ghz3())
    reads = []
    real = dense.read_dense

    def counted(f):
        reads.append(f.name)
        return real(f)

    monkeypatch.setattr(dense, "read_dense", counted)
    assert cli.main(["estimate", "--modes", "3", "--eps", "0.4", "--delta", "0.2", "--trials", "5",
                     "--state-spec", f"dense_fixture:{path}",
                     "--out", str(tmp_path / "x.json")]) == 0
    assert len(reads) == 1  # at validation, whose source the trials share
    reads.clear()
    assert cli.main(["sweep", "--axis", "shots", "--points", "1000,4000", "--sub-command",
                     "estimate", "--modes", "3", "--trials", "2",
                     "--state-spec", f"dense_fixture:{path}",
                     "--out", str(tmp_path / "x.json")]) == 0
    assert len(reads) == 2  # once per sweep point


def test_every_record_is_plain_json():
    configs = (
        dict(command="verify-bounds", modes=2, trials=3),
        dict(command="estimate", modes=2, eps=0.4, delta=0.2, trials=2),
        dict(command="test-pure", modes=3, eps_a=0.0, eps_b=0.8, trials=1,
             state_spec="random_gaussian:pure", expected="CaseA"),
        dict(command="test-rank", modes=3, rank_exponent=1, eps_a=0.0, eps_b=0.8, trials=1,
             state_spec="product:0.5,1,1", expected="CaseA"),
        dict(command="reduce-id", modes=2, eps=0.5, trials=1, state_spec="product:0,0",
             expected="MaximallyMixed"),
        dict(command="tomo-pure", modes=3, state_spec="vacuum", trials=2),
        dict(command="tomo-mixed", modes=2, trials=2),
        dict(command="robustness", modes=2, noise_strength=0.02, trials=2),
        dict(command="sweep", axis="eps", points=[0.3, 0.5], sub_command="tomo-mixed",
             modes=2, trials=1),
    )
    assert {kw["command"] for kw in configs} == set(cli.COMMANDS)
    for kw in configs:
        rec = run_cfg(**kw)
        assert json.loads(json.dumps(rec)) == rec, kw["command"]  # no default= needed


def test_readme_examples_parse_and_validate():
    # every example command validates, and the flag table lists each row's flags
    common = {"trials", "seed", "out_path"}
    text = README.read_text()
    examples = [shlex.split(line)[1:] for line in text.replace("\\\n", " ").splitlines()
                if line.startswith("freeferm ")]
    assert len(examples) >= 4
    parser = cli.build_parser()
    for argv in examples:
        cli.config_from_args(parser.parse_args(argv)).validate()
    table = {name: re.findall(r"`(--[a-z-]+)`", flags) for name, flags
             in re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", text, re.MULTILINE)}
    assert table == {name: [cli._FLAGS[f][0] for f in row.fields if f not in common]
                     for name, row in cli.COMMANDS.items()}


_TOMO_PURE_NOTE = ("appendix budget 8 n^3/eps^2 log(4 n^2/delta); the headline statement "
                   "carries constant 32")

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
         "lambda_hat": 0.9999622743384012, "threshold": 0.21875,
         "stage": "tomography_stage", "local_distance": 0.0027449099044122302, "ok": True},
        {"trial": 1, "verdict_or_error": "CaseA", "shots": 10548530440,
         "lambda_hat": 0.9999775231795146, "threshold": 0.21875,
         "stage": "tomography_stage", "local_distance": 0.0026909623608954115, "ok": True},
        {"trial": 2, "verdict_or_error": "CaseA", "shots": 10548530440,
         "lambda_hat": 0.9999481500195271, "threshold": 0.21875,
         "stage": "tomography_stage", "local_distance": 0.0027264345955770124, "ok": True},
    ], {"trials": 3, "shot_total": 31645591320, "success_fraction": 1.0}),
    ("robustness --modes 3 --noise-strength 0.02", 0, [
        {"trial": 0, "dense_error": 0.02668604131803491, "promise_value": 0.02099055654515794,
         "ok": True, "verdict_or_error": "0.026686", "shots": 190710},
        {"trial": 1, "dense_error": 0.023681706772939917, "promise_value": 0.015113463436746289,
         "ok": True, "verdict_or_error": "0.023682", "shots": 190710},
        {"trial": 2, "dense_error": 0.019008114552102703, "promise_value": 0.0037134938933928285,
         "ok": True, "verdict_or_error": "0.019008", "shots": 190710},
    ], {"trials": 3, "shot_total": 572130, "success_fraction": 1.0,
        "median_error": 0.023681706772939917}),
    ("tomo-mixed --modes 4", 0, [
        {"trial": 0, "shots": 661655, "dense_error": 0.015788368284553052, "ok": True,
         "verdict_or_error": "0.015788"},
        {"trial": 1, "shots": 661655, "dense_error": 0.01567286762663453, "ok": True,
         "verdict_or_error": "0.015673"},
        {"trial": 2, "shots": 661655, "dense_error": 0.015708858572598745, "ok": True,
         "verdict_or_error": "0.015709"},
    ], {"trials": 3, "shot_total": 1984965, "success_fraction": 1.0,
        "median_error": 0.015708858572598745}),
    ("estimate --modes 4 --scheme commuting", 0, [
        {"trial": 0, "error_inf": 0.03890534437791719, "ok": True,
         "verdict_or_error": "0.038905", "shots": 82707},
        {"trial": 1, "error_inf": 0.02771565965332712, "ok": True,
         "verdict_or_error": "0.027716", "shots": 82707},
        {"trial": 2, "error_inf": 0.04346771039909928, "ok": True,
         "verdict_or_error": "0.043468", "shots": 82707},
    ], {"trials": 3, "shot_total": 248121, "success_fraction": 1.0,
        "median_error": 0.03890534437791719}),
    ("estimate --modes 4 --scheme pauli_pairs", 0, [
        {"trial": 0, "error_inf": 0.025254858152206124, "ok": True,
         "verdict_or_error": "0.025255", "shots": 519698},
        {"trial": 1, "error_inf": 0.03816518794294091, "ok": True,
         "verdict_or_error": "0.038165", "shots": 519698},
        {"trial": 2, "error_inf": 0.026854416598048568, "ok": True,
         "verdict_or_error": "0.026854", "shots": 519698},
    ], {"trials": 3, "shot_total": 1559094, "success_fraction": 1.0,
        "median_error": 0.026854416598048568}),
    # the benchmark's estimate request: 4096 live leaves per commuting round
    ("estimate --modes 12 --scheme commuting --state-spec random_gaussian:mixed", 0, [
        {"trial": 0, "error_inf": 0.024664092785548417, "ok": True,
         "verdict_or_error": "0.024664", "shots": 2992445},
        {"trial": 1, "error_inf": 0.026717238529220918, "ok": True,
         "verdict_or_error": "0.026717", "shots": 2992445},
        {"trial": 2, "error_inf": 0.02486032522653772, "ok": True,
         "verdict_or_error": "0.024860", "shots": 2992445},
    ], {"trials": 3, "shot_total": 8977335, "success_fraction": 1.0,
        "median_error": 0.02486032522653772}),
    ("tomo-pure --modes 4 --state-spec vacuum", 0, [
        {"trial": 0, "shots": 82707, "dense_error": 0.020578834969738734, "ok": True,
         "verdict_or_error": "0.020579"},
        {"trial": 1, "shots": 82707, "dense_error": 0.01783711018518698, "ok": True,
         "verdict_or_error": "0.017837"},
        {"trial": 2, "shots": 82707, "dense_error": 0.0376810845625576, "ok": True,
         "verdict_or_error": "0.037681"},
    ], {"trials": 3, "shot_total": 248121, "success_fraction": 1.0,
        "median_error": 0.020578834969738734, "budget_note": _TOMO_PURE_NOTE}),
    ("tomo-pure --modes 4 --state-spec random_gaussian:pure", 0, [
        {"trial": 0, "shots": 82707, "dense_error": 0.022514471167681602, "ok": True,
         "verdict_or_error": "0.022514"},
        {"trial": 1, "shots": 82707, "dense_error": 0.01305156786186661, "ok": True,
         "verdict_or_error": "0.013052"},
        {"trial": 2, "shots": 82707, "dense_error": 0.022878053855352624, "ok": True,
         "verdict_or_error": "0.022878"},
    ], {"trials": 3, "shot_total": 248121, "success_fraction": 1.0,
        "median_error": 0.022514471167681602, "budget_note": _TOMO_PURE_NOTE}),
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
                              "estimate-commuting", "estimate-pauli_pairs",
                              "estimate-commuting-n12", "tomo-pure-vacuum",
                              "tomo-pure-random"])
def test_seeded_records(tmp_path, argv, code, results, aggregate):
    out = tmp_path / "r.json"
    assert cli.main([*argv.split(), "--seed", "0", "--trials", "3", "--out", str(out)]) == code
    rec = json.loads(out.read_text())
    _assert_record_matches(rec["results"], results, "results")
    _assert_record_matches(rec["aggregate"], aggregate, "aggregate")


# a record re-runs byte for byte from its config, wall time aside: the
# benchmark's estimate and test-rank requests, a dense source and tomography
BYTE_IDENTICAL_RUNS = (
    "estimate --modes 12 --scheme commuting",
    "estimate --modes 3 --scheme commuting --state-spec ghz3",
    "test-rank --modes 6 --rank-exponent 4 --eps-a 0 --eps-b 0.5 --scheme commuting "
    "--state-spec product:0.1,0.2,0.3,0.4,1,1 --expected CaseA --trials 1",
    "tomo-mixed --modes 4",
)


@pytest.mark.parametrize("argv", BYTE_IDENTICAL_RUNS,
                         ids=["estimate-n12", "estimate-ghz3", "test-rank", "tomo-mixed"])
def test_records_rerun_byte_identically(tmp_path, argv):
    out, texts = tmp_path / "r.json", []
    for _ in range(2):
        assert cli.main([*argv.split(), "--out", str(out)]) == 0
        texts.append(re.sub(r'"wall_time_s": [^,]+,', "", out.read_text()))
    assert texts[0] == texts[1]


def test_equal_one_mode_pure_pair_reads_zero(tmp_path):
    # trial 1 draws two equal 1-mode pure states; their difference is round-off,
    # below ZERO_CLAMP, so every bound reads exactly 0, with no tolerance needed
    out = tmp_path / "r.json"
    argv = ["verify-bounds", "--modes", "1", "--trials", "3", "--seed", "0", "--out", str(out)]
    assert cli.main(argv) == 0
    rec = json.loads(out.read_text())["results"][1]
    assert rec["mode"] == "pure_pure" and rec["trace_dist"] == 0.0
    assert rec["lb_infty"] == rec["ub_mixed"] == rec["ub_pure"] == 0.0


def test_tomo_mixed_at_scale_forms_no_frame(tmp_path, frames):
    # the scale request's estimate stays within ZERO_CLAMP of 1, so clip_to_valid
    # keeps it as it is and no frame is formed for the learned state
    argv = "tomo-mixed --modes 64 --scheme pauli_pairs --trials 1 --out".split()
    assert cli.main([*argv, str(tmp_path / "r.json")]) == 0
    assert not frames


def test_tomo_pure_note_names_the_budget_it_spends(tmp_path):
    # under pauli_pairs pure tomography spends n times the commuting row, and says so
    out = tmp_path / "r.json"
    assert cli.main(["tomo-pure", "--modes", "5", "--scheme", "pauli_pairs", "--trials", "2",
                     "--out", str(out)]) == 0
    agg = json.loads(out.read_text())["aggregate"]
    assert agg["shot_total"] == 2 * 5 * sampling.shot_budget("commuting", 5, 0.2, 0.1)
    assert agg["budget_note"] == "the commuting row times n = 5: " + _TOMO_PURE_NOTE

# The benchmark's CLI requests, one trial each: a matrix the lab builds is not
# scanned again, so only the outcome tree's stack check of an exact source's
# commuting rounds remains (a scan is a call of skew.as_skew_stack, the check
# behind a SkewMatrix built from a caller's matrix)
REQUEST_SCANS = (
    ("tomo-mixed --modes 64 --scheme pauli_pairs --state-spec random_gaussian:mixed "
     "--eps 0.2 --delta 0.1", 0),
    ("verify-bounds --modes 6 --trials 3", 0),
    ("robustness --modes 4 --eps 0.3 --noise-kind trace_perturbation --noise-strength 0.01", 0),
    ("test-rank --modes 6 --rank-exponent 4 --eps-a 0 --eps-b 0.5 --scheme commuting "
     "--state-spec product:0.1,0.2,0.3,0.4,1,1 --expected CaseA", 1),
    ("estimate --modes 12 --scheme commuting --state-spec random_gaussian:mixed "
     "--eps 0.2 --delta 0.1", 1),
)


@pytest.mark.parametrize("argv,count", REQUEST_SCANS, ids=lambda v: str(v).split()[0])
def test_requests_scan_only_caller_matrices(argv, count, scans, capsys):
    argv = [*argv.split(), "--seed", "3", "--out", "-"]
    assert cli.main(argv if "--trials" in argv else [*argv, "--trials", "1"]) == 0
    assert len(scans) == count, scans
