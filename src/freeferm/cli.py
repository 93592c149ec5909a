"""Batch experiment runner.

Seeded, config-driven execution of estimation, testing, tomography,
bound-verification and scaling sweeps.  Per-trial outcomes are derived from
counter-based streams keyed by (seed, trial), so each trial's record depends
only on the seed and the trial index, and a record re-runs byte-identically
from its config echo.

Each command reads the config fields of its row in :data:`COMMAND_FIELDS`:
the parser gives it only those flags, a config file may set only those keys,
and validation rejects any other field set away from its default.

A trial that raises a toolkit error other than a validation error or a
budget overflow is recorded as that trial's outcome (``ok`` false, the error
class and message in ``verdict_or_error``) and counted by class in the
aggregate's ``errors``; the run goes on.

Exit codes: 0 on completion, 2 on validation or I/O error, 3 when a shot
budget overflows its cap.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from . import dense as dense_mod
from . import learning, sampling, skew, states
from .errors import BudgetOverflow, FreeFermError, InfeasibleThresholds, ValidationError
from .learning import TestConfig
from .sampling import (
    DenseSource,
    ExactGaussianSource,
    RngStream,
    StateSource,
    estimate_gamma,
)

DENSE_VERIFY_MODES = 5  # dense cross-checks only run at or below this n

#: flag and argparse options of each config field a command can read
_FLAGS: Dict[str, Tuple[str, dict]] = {
    "modes": ("--modes", {"type": int}),
    "rank_exponent": ("--rank-exponent", {"type": int}),
    "eps_a": ("--eps-a", {"type": float}),
    "eps_b": ("--eps-b", {"type": float}),
    "eps": ("--eps", {"type": float}),
    "delta": ("--delta", {"type": float}),
    "trials": ("--trials", {"type": int}),
    "seed": ("--seed", {"type": int}),
    "scheme": ("--scheme", {"choices": ("pauli_pairs", "commuting", "exact")}),
    "state_spec": ("--state-spec", {}),
    "out_path": ("--out", {}),
    "format": ("--format", {"choices": ("json", "csv")}),
    "shots": ("--shots", {"type": int}),
    "expected": ("--expected", {}),
    "noise_kind": ("--noise-kind", {"choices": ("depolarizing", "trace_perturbation")}),
    "noise_strength": ("--noise-strength", {"type": float}),
    "promise": ("--promise", {"choices": ("trace", "relative_entropy")}),
    "gaussian_set": ("--gaussian-set", {"choices": ("pure_set", "mixed_set", "rank_set")}),
    "axis": ("--axis", {"choices": ("shots", "eps", "modes")}),
    "points": ("--points", {"help": "comma-separated sweep points"}),
    "sub_command": ("--sub-command", {"choices": ("estimate", "tomo-pure", "tomo-mixed")}),
    "shot_cap": ("--shot-cap", {"type": int}),
}

_SAMPLED = ("modes", "state_spec", "delta", "scheme", "shot_cap")
_RUN = ("trials", "seed", "out_path")
#: the config fields each command reads: its flags and config-file keys are
#: these, and every other field must keep its default
COMMAND_FIELDS: Dict[str, Tuple[str, ...]] = {
    "verify-bounds": ("modes", *_RUN, "format"),
    "estimate": (*_SAMPLED, "eps", "shots", *_RUN, "format"),
    "test-pure": (*_SAMPLED, "eps_a", "eps_b", "gaussian_set", "expected", *_RUN, "format"),
    "test-rank": (*_SAMPLED, "rank_exponent", "eps_a", "eps_b", "gaussian_set", "expected",
                  *_RUN, "format"),
    "reduce-id": (*_SAMPLED, "eps", "expected", *_RUN, "format"),
    "tomo-pure": (*_SAMPLED, "eps", *_RUN, "format"),
    "tomo-mixed": (*_SAMPLED, "eps", *_RUN, "format"),
    "robustness": ("modes", "delta", "scheme", "shot_cap", "eps", "noise_kind", "noise_strength",
                   "promise", *_RUN, "format"),
    # each point runs the sub-command; a sweep record holds only sub-records,
    # which the csv format drops
    "sweep": ("axis", "points", "sub_command", *_SAMPLED, "eps", "shots", *_RUN),
}


@dataclass
class ExperimentConfig:
    command: str
    modes: int = 3
    rank_exponent: Optional[int] = None
    eps_a: float = 0.0
    eps_b: float = 0.5
    eps: float = 0.2
    delta: float = 0.1
    trials: int = 10
    seed: int = 0
    scheme: str = "commuting"
    state_spec: str = "random_gaussian:mixed"
    out_path: Optional[str] = None
    format: str = "json"
    shots: Optional[int] = None
    expected: Optional[str] = None
    noise_kind: str = "depolarizing"
    noise_strength: float = 0.0
    promise: str = "trace"
    gaussian_set: str = "mixed_set"
    axis: Optional[str] = None
    points: List[float] = field(default_factory=list)
    sub_command: Optional[str] = None
    shot_cap: int = sampling.DEFAULT_SHOT_CAP

    def validate(self) -> None:
        row = COMMAND_FIELDS.get(self.command)
        if row is None:
            raise ValidationError(f"unknown command {self.command!r}")
        default = ExperimentConfig(self.command)
        unread = [f.name for f in fields(self) if f.name != "command" and f.name not in row
                  and getattr(self, f.name) != getattr(default, f.name)]
        if unread:
            raise ValidationError(f"{self.command} does not take {unread}")
        for name in row:
            choices = _FLAGS[name][1].get("choices")
            if choices and getattr(self, name) not in choices:
                raise ValidationError(
                    f"{name} must be one of {', '.join(choices)}, got {getattr(self, name)!r}")
        if self.command == "sweep":
            if not self.points:
                raise ValidationError("sweep needs at least one point")
            if getattr(self, self.axis) != getattr(default, self.axis):
                raise ValidationError(f"a sweep along {self.axis} sets {self.axis} at each point")
            for point in self.points:
                _sweep_point(self, point).validate()
            return
        if self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")
        if self.shots is not None and self.shots < 1:
            raise ValidationError(f"shots must be >= 1, got {self.shots}")
        if not 0.0 < self.delta < 1.0:
            raise ValidationError(f"delta {self.delta} outside (0, 1)")
        kind, arg = _parse_state_spec(self.state_spec)  # raises on malformed specs
        n = self.modes
        if n < 1:
            raise ValidationError(f"modes must be >= 1, got {n}")
        # every command that samples reads a scheme
        if "scheme" in row and self.scheme == "commuting" and n > sampling.MAX_SAMPLING_MODES:
            raise ValidationError(
                f"mode count {n} exceeds sampling cap {sampling.MAX_SAMPLING_MODES}")
        if self.command == "verify-bounds" and n > dense_mod.MAX_DENSE_MODES:
            raise ValidationError(f"mode count {n} exceeds dense cap {dense_mod.MAX_DENSE_MODES}")
        if self.command == "robustness" and n > learning.MAX_ROBUSTNESS_MODES:
            raise ValidationError(f"promise certification needs "
                                  f"n <= {learning.MAX_ROBUSTNESS_MODES}, got {n}")
        if kind == "ghz3" and n != 3:
            raise ValidationError("ghz3 requires modes=3")
        if kind == "product" and len(arg) != n:
            raise ValidationError(f"product spec has {len(arg)} lambdas but modes={n}")
        if kind == "dense_fixture":
            _check_fixture(arg, n)
        # reduce-id tomographs all n modes, test-rank the leading rank_exponent
        local = {"reduce-id": n, "test-rank": self.rank_exponent or 0}
        r = local.get(self.command, 0)
        if r > learning.MAX_LOCAL_MODES:
            raise ValidationError(
                f"local tomography supports 1..{learning.MAX_LOCAL_MODES} modes, got {r}")
        thresholds = {"test-pure": learning.pure_test_thresholds,
                      "test-rank": learning.rank_test_thresholds}.get(self.command)
        if thresholds is not None:
            try:
                thresholds(self.test_config(), n)
            except InfeasibleThresholds as exc:
                raise ValidationError(str(exc)) from exc

    def test_config(self) -> TestConfig:
        """Thresholds and target set of a ``test-pure`` or ``test-rank`` run."""
        return TestConfig(eps_a=self.eps_a, eps_b=self.eps_b, delta=self.delta,
                          r=self.rank_exponent or 0, gaussian_set=self.gaussian_set)


def _sweep_point(cfg: ExperimentConfig, point: float) -> ExperimentConfig:
    """The sub-command config that a sweep runs at one point of its axis."""
    value = float(point) if cfg.axis == "eps" else int(point)
    return replace(cfg, command=cfg.sub_command, axis=None, points=[], sub_command=None,
                   **{cfg.axis: value})


def _parse_state_spec(spec: str):
    head, _, arg = spec.partition(":")
    if head == "vacuum":
        return ("vacuum", None)
    if head == "product":
        try:
            lams = [float(x) for x in arg.split(",") if x != ""]
        except ValueError as exc:
            raise ValidationError(f"bad product spec {spec!r}") from exc
        if not lams:
            raise ValidationError(f"product spec {spec!r} has no lambdas")
        return ("product", lams)
    if head == "random_gaussian":
        if arg not in ("pure", "mixed"):
            raise ValidationError(f"random_gaussian needs :pure or :mixed, got {spec!r}")
        return ("random_gaussian", arg)
    if head == "dense_fixture":
        if not arg:
            raise ValidationError("dense_fixture needs a path")
        return ("dense_fixture", arg)
    if head == "ghz3":
        return ("ghz3", None)
    raise ValidationError(f"unknown state spec {spec!r}")


def _check_fixture(path: str, modes: int) -> None:
    """Raise ValidationError unless ``path`` holds a valid state on ``modes`` modes."""
    try:
        with open(path) as f:
            rho = dense_mod.read_dense(f)
    except (OSError, ValueError, IndexError) as exc:  # unreadable or malformed
        raise ValidationError(f"dense fixture {path!r}: {exc}") from exc
    if rho.n != modes:
        raise ValidationError(f"fixture has n={rho.n}, expected modes={modes}")
    try:
        rho.validate()
    except ValueError as exc:  # not Hermitian, trace not 1 or not positive
        raise ValidationError(f"dense fixture {path!r}: {exc}") from exc


def _make_source(cfg: ExperimentConfig, stream: RngStream) -> StateSource:
    kind, arg = _parse_state_spec(cfg.state_spec)
    if kind == "vacuum":
        return ExactGaussianSource(states.vacuum(cfg.modes))
    if kind == "product":
        return ExactGaussianSource(states.product_state(arg))
    if kind == "random_gaussian":
        gen = stream.child(999).generator()
        return ExactGaussianSource(states.random_gaussian_state(cfg.modes, arg, gen))
    if kind == "dense_fixture":
        with open(arg) as f:  # checked by validate()
            return DenseSource(dense_mod.read_dense(f))
    if kind == "ghz3":
        return DenseSource(dense_mod.ghz3())
    raise ValidationError(f"unknown state spec {cfg.state_spec!r}")


def _dense_of_source(src: StateSource) -> Optional[dense_mod.DenseState]:
    if isinstance(src, ExactGaussianSource) and src.n <= DENSE_VERIFY_MODES:
        return dense_mod.gaussian_to_dense(src.state)
    if isinstance(src, DenseSource):
        return src.state
    return None


# -- per-trial workers ----------------------------------------------------------

def _trial_verify_bounds(cfg: ExperimentConfig, trial: int, stream: RngStream) -> dict:
    gen = stream.generator()
    n = cfg.modes
    mode = ("mixed_mixed", "pure_pure", "pure_vs_any")[trial % 3]
    if mode == "pure_pure":
        s1 = states.random_gaussian_state(n, "pure", gen)
        s2 = states.random_gaussian_state(n, "pure", gen)
        rho1, rho2 = dense_mod.gaussian_to_dense(s1), dense_mod.gaussian_to_dense(s2)
        g2 = s2
    elif mode == "mixed_mixed":
        s1 = states.random_gaussian_state(n, "mixed", gen)
        s2 = states.random_gaussian_state(n, "mixed", gen)
        rho1, rho2 = dense_mod.gaussian_to_dense(s1), dense_mod.gaussian_to_dense(s2)
        g2 = s2
    else:
        s1 = states.random_gaussian_state(n, "pure", gen)
        rho1 = dense_mod.gaussian_to_dense(s1)
        rho2 = dense_mod.random_density_matrix(n, gen)
        g2 = dense_mod.correlation_matrix(rho2).mat
    report = states.distance_bounds(s1, g2, mode)  # states carry their lambdas
    td = dense_mod.state_metrics(rho1, rho2).trace_dist
    tol = 1e-9
    ok = report.lb_infty <= td + tol
    if mode == "pure_vs_any":
        ok = ok and td <= report.ub_pure_vs_any + tol
    else:
        ok = ok and td <= report.ub_mixed + tol
        if mode == "pure_pure":
            ok = ok and td <= report.ub_pure + tol
    return {
        "trial": trial,
        "mode": mode,
        "trace_dist": td,
        "lb_infty": report.lb_infty,
        "ub_mixed": report.ub_mixed,
        "ub_pure": report.ub_pure,
        "ub_pure_vs_any": report.ub_pure_vs_any,
        "ok": bool(ok),
        "verdict_or_error": "ok" if ok else "violation",
        "shots": 0,
    }


def _trial_estimate(cfg: ExperimentConfig, trial: int, stream: RngStream) -> dict:
    src = _make_source(cfg, stream)
    est = estimate_gamma(
        src, cfg.eps, cfg.delta, cfg.scheme, stream.child(1),
        total_shots=cfg.shots, shot_cap=cfg.shot_cap,
    )
    err = skew.schatten_norm(est.gamma_hat.mat - src.gamma(), np.inf)
    ok = err <= cfg.eps
    return {
        "trial": trial,
        "error_inf": err,
        "ok": bool(ok),
        "verdict_or_error": f"{err:.6f}",
        "shots": est.shots_used,
    }


def _trial_test(cfg: ExperimentConfig, trial: int, stream: RngStream) -> dict:
    src = _make_source(cfg, stream)
    tc = cfg.test_config()
    if cfg.command == "test-pure":
        verdict = learning.test_pure(src, tc, stream.child(1), scheme=cfg.scheme,
                                     shot_cap=cfg.shot_cap)
    else:
        verdict = learning.test_bounded_rank(src, tc, stream.child(1), scheme=cfg.scheme,
                                             shot_cap=cfg.shot_cap)
    rec = {
        "trial": trial,
        "verdict_or_error": verdict.verdict,
        "shots": verdict.shots_used,
        "lambda_hat": verdict.evidence.lambda_hat_relevant,
        "threshold": verdict.evidence.threshold,
        "stage": verdict.evidence.stage,
    }
    if cfg.expected:
        rec["ok"] = verdict.verdict == cfg.expected
    return rec


def _trial_reduce_id(cfg: ExperimentConfig, trial: int, stream: RngStream) -> dict:
    src = _make_source(cfg, stream)
    verdict, shots = learning.reduce_identity_testing(
        src, cfg.eps, cfg.delta, stream.child(1), scheme=cfg.scheme, shot_cap=cfg.shot_cap,
    )
    rec = {"trial": trial, "verdict_or_error": verdict, "shots": shots}
    if cfg.expected:
        rec["ok"] = verdict == cfg.expected
    return rec


def _trial_tomo(cfg: ExperimentConfig, trial: int, stream: RngStream) -> dict:
    src = _make_source(cfg, stream)
    if cfg.command == "tomo-pure":
        report = learning.tomograph_pure(src, cfg.eps, cfg.delta, stream.child(1),
                                         scheme=cfg.scheme, shot_cap=cfg.shot_cap)
    else:
        report = learning.tomograph_mixed(src, cfg.eps, cfg.delta, stream.child(1),
                                          scheme=cfg.scheme, shot_cap=cfg.shot_cap)
    rec = {"trial": trial, "shots": report.shots_used}
    truth = _dense_of_source(src)
    if truth is not None:
        err = dense_mod.state_metrics(
            dense_mod.gaussian_to_dense(report.learned), truth
        ).trace_dist
        rec["dense_error"] = err
        rec["ok"] = err <= cfg.eps
        rec["verdict_or_error"] = f"{err:.6f}"
    else:
        rec["verdict_or_error"] = "learned"
    return rec


def _trial_robustness(cfg: ExperimentConfig, trial: int, stream: RngStream) -> dict:
    gen = stream.child(999).generator()
    base = states.random_gaussian_state(cfg.modes, "mixed", gen)
    result = learning.robustness_experiment(
        base, (cfg.noise_kind, cfg.noise_strength), cfg.eps, cfg.delta,
        stream.child(1), promise=cfg.promise, scheme=cfg.scheme, shot_cap=cfg.shot_cap,
    )
    return {
        "trial": trial,
        "dense_error": result.dense_error,
        "promise_value": result.promise_value,
        "ok": result.dense_error <= cfg.eps,
        "verdict_or_error": f"{result.dense_error:.6f}",
        "shots": result.shots_used,
    }


_TRIAL_WORKERS: dict = {
    "verify-bounds": _trial_verify_bounds,
    "estimate": _trial_estimate,
    "test-pure": _trial_test,
    "test-rank": _trial_test,
    "reduce-id": _trial_reduce_id,
    "tomo-pure": _trial_tomo,
    "tomo-mixed": _trial_tomo,
    "robustness": _trial_robustness,
}


def _aggregate(cfg: ExperimentConfig, results: List[dict], errors: Dict[int, str]) -> dict:
    """Summary of a run; ``errors`` maps each failed trial to its error class.

    Success fraction and violations count the trials that completed; the
    failed ones are counted by class under ``errors``.
    """
    done = [r for r in results if r["trial"] not in errors]
    agg: dict = {"trials": len(results)}
    agg["shot_total"] = int(sum(r.get("shots", 0) for r in results))
    oks = [r["ok"] for r in done if "ok" in r]
    if oks:
        agg["success_fraction"] = float(np.mean(oks))
    errs = [r[k] for r in results for k in ("error_inf", "dense_error") if k in r]
    if errs:
        agg["median_error"] = float(np.median(errs))
    if cfg.command == "verify-bounds":
        agg["violations"] = int(sum(not r["ok"] for r in done))
    if cfg.command == "tomo-pure":
        agg["budget_note"] = (
            "appendix budget 8 n^3/eps^2 log(4 n^2/delta); the headline statement "
            "carries constant 32"
        )
    if errors:
        agg["errors"] = dict(sorted(Counter(errors.values()).items()))
    return agg


def _run_trials(cfg: ExperimentConfig) -> dict:
    worker = _TRIAL_WORKERS[cfg.command]
    results: List[dict] = []
    errors: Dict[int, str] = {}
    for t in range(cfg.trials):
        try:
            results.append(worker(cfg, t, RngStream(cfg.seed, (t,))))
        except (ValidationError, BudgetOverflow):
            raise
        except FreeFermError as exc:
            errors[t] = type(exc).__name__
            results.append({"trial": t, "ok": False,
                            "verdict_or_error": f"{errors[t]}: {exc}", "shots": 0})
    return {"results": results, "aggregate": _aggregate(cfg, results, errors)}


def run(cfg: ExperimentConfig) -> dict:
    """Execute an experiment and return the run record."""
    cfg.validate()
    start = time.monotonic()
    record = _run_sweep(cfg) if cfg.command == "sweep" else _run_trials(cfg)
    record["config"] = asdict(cfg)
    record["wall_time_s"] = time.monotonic() - start
    record["version"] = __version__
    return record


def _run_sweep(cfg: ExperimentConfig) -> dict:
    sub_records = []
    medians = []
    xs = []
    for point in cfg.points:
        sub_record = run(_sweep_point(cfg, point))
        sub_records.append(sub_record)
        med = sub_record["aggregate"].get("median_error")
        if med is not None and med > 0:
            xs.append(float(point))
            medians.append(med)
    slope = None
    if len(xs) >= 2:
        slope = float(np.polyfit(np.log(xs), np.log(medians), 1)[0])
    return {
        "results": sub_records,
        "aggregate": {"slope": slope, "axis": cfg.axis, "points": list(cfg.points)},
    }


# -- output -----------------------------------------------------------------------

CSV_COLUMNS = ("trial", "verdict_or_error", "shots", "seed_stream")


def _to_csv(record: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    seed = record["config"]["seed"]
    for r in record.get("results", []):
        if "trial" not in r:  # sweep sub-records are json-only
            continue
        writer.writerow([r["trial"], r["verdict_or_error"], r.get("shots", 0),
                         f"{seed}:{r['trial']}"])
    return buf.getvalue()


def write_record(record: dict, cfg: ExperimentConfig) -> str:
    """Write to out_path ('-' for stdout); returns the destination label."""
    out = cfg.out_path
    if out is None:
        base = os.environ.get("FREEFERM_OUT_DIR", ".")
        ext = "csv" if cfg.format == "csv" else "json"
        out = os.path.join(base, f"{cfg.command}.{ext}")
    payload = _to_csv(record) if cfg.format == "csv" else json.dumps(record, indent=2,
                                                                     default=_json_default)
    if out == "-":
        sys.stdout.write(payload + "\n")
        return "-"
    with open(out, "w") as f:
        f.write(payload)
        if not payload.endswith("\n"):
            f.write("\n")
    return out


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


# -- argument parsing ---------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freeferm",
        description="Seeded free-fermionic estimation/testing/tomography experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, row in COMMAND_FIELDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON file with config fields (snake_case)")
        for field_name in row:
            flag, options = _FLAGS[field_name]
            p.add_argument(flag, dest=field_name, **options)
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    row = COMMAND_FIELDS[args.command]
    values = {}
    if args.config:
        with open(args.config) as f:
            values.update(json.load(f))
    for name in row:
        v = getattr(args, name)
        if v is not None:
            values[name] = v
    values["command"] = args.command
    if isinstance(values.get("points"), str):
        values["points"] = [float(x) for x in values["points"].split(",") if x]
    unknown = set(values) - {"command", *row}
    if unknown:
        raise ValidationError(f"unknown config fields {sorted(unknown)}")
    return ExperimentConfig(**values)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; returns the exit code (argparse's own, 2 or 0, included)."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # malformed argv (2) or --help (0)
        return exc.code
    try:
        cfg = config_from_args(args)
        record = run(cfg)
        dest = write_record(record, cfg)
    except BudgetOverflow as exc:
        print(f"budget overflow: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, FreeFermError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    agg = record.get("aggregate", {})
    # with the record on stdout, the summary goes to stderr so stdout stays parseable
    print(f"{cfg.command}: {json.dumps(agg, default=_json_default)} -> {dest}",
          file=sys.stderr if dest == "-" else sys.stdout)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
