"""Batch experiment runner.

Seeded, config-driven execution of estimation, testing, tomography,
bound-verification and scaling sweeps.  Per-trial outcomes are derived from
counter-based streams keyed by (seed, trial), so each trial's record depends
only on the seed and the trial index, and a record re-runs byte-identically
from its config echo at a fixed BLAS thread count (the thread count can move
the last bits of a LAPACK result; ``OPENBLAS_NUM_THREADS=1`` pins it).

A trial's exact distance to its truth comes from one referee,
``dense.state_metrics``, which takes dense and Gaussian states alike; only
``tomo-pure`` above ``dense.MAX_TRIAL_DENSE_MODES`` scores a pure Gaussian
truth by its overlap instead (``"referee": "overlap"``).

Each command is one row of :data:`COMMANDS`: the config fields it reads, the
check of its config and its per-trial worker.  A flag or config-file key
outside the row, or any other field set away from its default, is a
validation error; each field of :class:`ExperimentConfig` declares its flag.

A trial that raises a toolkit error other than a validation error or a
budget overflow is recorded as that trial's outcome (``ok`` false, the error
class and message in ``verdict_or_error``) and counted by class in the
aggregate's ``errors``; the run goes on.

Exit codes: 0 on completion, 2 on validation or I/O error, 3 when a copy
count, a trial's total or a run's total passes the draw ceiling
:data:`freeferm.sampling.MAX_DRAW`.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import math
import os
import sys
import textwrap
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, replace
from functools import lru_cache
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from . import __version__
from . import dense as dense_mod
from . import learning, sampling, skew, states
from .errors import BudgetOverflow, FreeFermError, ValidationError
from .learning import TestConfig
from .sampling import (
    DenseSource,
    ExactGaussianSource,
    RngStream,
    StateSource,
    estimate_gamma,
)

_Source = Callable[[RngStream], StateSource]  # a trial's stream -> the state it measures
#: what validation builds and a run executes: a command's state-source map,
#: or a sweep's (point config, its map) pairs
_Plan = Union[_Source, List[Tuple["ExperimentConfig", _Source]]]


def _flag(default=None, *, flag: Optional[str] = None, **options):
    """A config field whose flag takes the argparse ``options``: ``flag``, else
    ``--`` and the field's name with dashes."""
    kind = {"default_factory": list} if isinstance(default, list) else {"default": default}
    return field(metadata={"flag": flag, "options": options}, **kind)


@dataclass
class ExperimentConfig:
    command: str
    modes: int = _flag(3, type=int)
    rank_exponent: Optional[int] = _flag(type=int)
    eps_a: float = _flag(0.0, type=float)
    eps_b: float = _flag(0.5, type=float)
    eps: float = _flag(0.2, type=float)
    delta: float = _flag(0.1, type=float)
    trials: int = _flag(10, type=int)
    seed: int = _flag(0, type=int)
    scheme: str = _flag("commuting", choices=sampling.SCHEMES)
    state_spec: str = _flag("random_gaussian:mixed")
    out_path: Optional[str] = _flag(flag="--out")
    format: str = _flag("json", choices=("json", "csv"))
    shots: Optional[int] = _flag(type=int)
    expected: Optional[str] = _flag()
    noise_kind: str = _flag("depolarizing", choices=tuple(learning.NOISE_STRENGTHS))
    noise_strength: float = _flag(0.0, type=float)
    promise: str = _flag("trace", choices=learning.PROMISES)
    gaussian_set: str = _flag("mixed_set", choices=learning.GAUSSIAN_SETS)
    axis: Optional[str] = _flag(choices=("shots", "eps", "modes"))
    points: List[float] = _flag([], help="comma-separated sweep points")
    sub_command: Optional[str] = _flag(choices=("estimate", "tomo-pure", "tomo-mixed"))

    def validate(self) -> _Plan:
        """Check the config and return the plan its run executes: the trials'
        state-source map, or for a sweep each point's config and map."""
        row = COMMANDS.get(self.command)
        if row is None:
            raise ValidationError(f"unknown command {self.command!r}")
        default = ExperimentConfig(self.command)
        given = [f.name for f in fields(self) if getattr(self, f.name) != getattr(default, f.name)]
        _check_row(self.command, given, self.axis)  # given: set away from its default
        for name in row.fields:
            value, (flag, options) = getattr(self, name), _FLAGS[name]
            if not (_has_type(name, value) or value is None and getattr(default, name) is None):
                raise ValidationError(f"{name} {value!r} is not a {flag} value")
            if "choices" in options and value not in options["choices"]:
                raise ValidationError(
                    f"{name} must be one of {', '.join(options['choices'])}, got {value!r}")
        if self.command == "sweep":
            if not self.points:
                raise ValidationError("sweep needs at least one point")
            subs = (_sweep_point(self, point) for point in self.points)
            return [(sub, sub.validate()) for sub in subs]
        if self.trials < 1 or self.seed < 0:
            raise ValidationError(f"need trials >= 1 and seed >= 0; got {self.trials}, {self.seed}")
        if self.shots is not None:
            sampling.check_shots(self.shots, self.scheme)
        sampling.check_delta(self.delta)
        if self.scheme == "exact" and self.delta != default.delta:
            # every command reads delta only for the copies it draws
            raise ValidationError(f"scheme exact draws no copies, so it takes no delta "
                                  f"(got {self.delta})")
        if self.modes < 1:
            raise ValidationError(f"modes must be >= 1, got {self.modes}")
        source = _state_source(self)  # raises on a spec that is malformed or does not fit
        try:
            if "scheme" in row.fields:  # every command that samples reads a scheme
                sampling.check_scheme(self.scheme, self.modes)
            row.check(self)
        except FreeFermError as exc:  # a cap, range or threshold the library owns
            raise ValidationError(str(exc)) from exc
        return source

    def test_config(self) -> TestConfig:
        """Thresholds and target set of a ``test-pure`` or ``test-rank`` run."""
        return TestConfig(eps_a=self.eps_a, eps_b=self.eps_b, delta=self.delta,
                          r=self.rank_exponent or 0, gaussian_set=self.gaussian_set)


#: flag and argparse options of each config field a command can read
_FLAGS: Dict[str, Tuple[str, dict]] = {
    f.name: (f.metadata["flag"] or "--" + f.name.replace("_", "-"), f.metadata["options"])
    for f in fields(ExperimentConfig) if f.metadata}


def _check_row(command: str, names: Sequence[str], axis: Optional[str] = None) -> None:
    """Raise ValidationError unless each field in ``names`` is in the row and none is swept."""
    unread = [name for name in names if name not in COMMANDS[command].fields]
    if unread:
        raise ValidationError(f"{command} does not take {unread}")
    if axis in _FLAGS["axis"][1]["choices"] and axis in names:
        raise ValidationError(f"a sweep along {axis} sets {axis} at each point")


def _sweep_point(cfg: ExperimentConfig, point: float) -> ExperimentConfig:
    """The sub-command config that a sweep runs at one point of its axis."""
    if cfg.axis != "eps" and not float(point).is_integer():
        raise ValidationError(f"points on the {cfg.axis} axis must be integers, got {point}")
    value = float(point) if cfg.axis == "eps" else int(point)
    return replace(cfg, command=cfg.sub_command, axis=None, points=[], sub_command=None,
                   **{cfg.axis: value})


def _state_source(cfg: ExperimentConfig) -> _Source:
    """Parse, check and build ``cfg.state_spec``: ValidationError unless it
    gives a valid state on ``cfg.modes`` modes. ``random_gaussian`` draws each
    trial's state from its stream's child 999; every other spec is built once."""
    spec, n = cfg.state_spec, cfg.modes
    head, colon, arg = spec.partition(":")
    if head in ("vacuum", "ghz3") and colon:
        raise ValidationError(f"{head} takes no argument, got {spec!r}")
    if head == "random_gaussian":
        if arg not in ("pure", "mixed"):
            raise ValidationError(f"random_gaussian needs :pure or :mixed, got {spec!r}")
        return lambda stream: ExactGaussianSource(
            states.random_gaussian_state(n, arg, stream.child(999).generator()))
    try:
        if head == "vacuum":
            src: StateSource = ExactGaussianSource(states.vacuum(n))
        elif head == "product":
            lams = [float(x) for x in arg.split(",") if x]
            src = ExactGaussianSource(states.product_state(lams))
        elif head == "ghz3":
            src = DenseSource(dense_mod.ghz3())
        elif head == "dense_fixture":
            with open(arg) as f:
                src = DenseSource(dense_mod.read_dense(f))
            src.state.validate()  # Hermitian, trace 1 and positive
        else:
            raise ValidationError(f"unknown kind {head!r}")
    except (OSError, ValueError) as exc:  # toolkit errors are ValueErrors
        raise ValidationError(f"state spec {spec!r}: {exc}") from exc
    if src.n != n:
        raise ValidationError(f"state spec {spec!r} has {src.n} modes, but modes={n}")
    return lambda stream: src


def _scored(err: float, eps: float) -> dict:
    """``ok`` and ``verdict_or_error`` of a trial whose error against the truth is ``err``."""
    return {"ok": bool(err <= eps), "verdict_or_error": f"{err:.6f}"}


# -- per-trial workers ----------------------------------------------------------

def _trial_verify_bounds(cfg: ExperimentConfig, trial: int, stream: RngStream, *_) -> dict:
    """Check one pair's correlation-matrix bounds against its exact trace
    distance (``dense.state_metrics``): the second state is Gaussian, or for
    ``pure_vs_any`` a random density matrix."""
    gen = stream.generator()
    n = cfg.modes
    mode = ("mixed_mixed", "pure_pure", "pure_vs_any")[trial % 3]
    kind = "mixed" if mode == "mixed_mixed" else "pure"
    s1 = states.random_gaussian_state(n, kind, gen)
    if mode == "pure_vs_any":
        second = dense_mod.random_density_matrix(n, gen)
        g2 = dense_mod.correlation_matrix(second)
    else:
        second = g2 = states.random_gaussian_state(n, kind, gen)
    td = dense_mod.state_metrics(s1, second)
    report = states.distance_bounds(s1, g2, mode)  # states carry their lambdas
    # ub_pure <= ub_mixed, so each mode's own upper bound is its tightest
    ub = {"mixed_mixed": report.ub_mixed, "pure_pure": report.ub_pure,
          "pure_vs_any": report.ub_pure_vs_any}[mode]
    tol = 1e-9
    ok = report.lb_infty <= td + tol and td <= ub + tol
    return {
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


def _trial_estimate(cfg: ExperimentConfig, trial: int, stream: RngStream,
                    source: _Source) -> dict:
    src = source(stream)
    est = estimate_gamma(src, cfg.eps, cfg.delta, cfg.scheme, stream.child(1),
                         total_shots=cfg.shots)
    diff = skew.SkewMatrix.exact(est.gamma_hat.mat - src.gamma())  # antisymmetric bit for bit
    err = float(skew.normal_eigenvalues(diff)[-1])
    return {"error_inf": err, **_scored(err, cfg.eps), "shots": est.shots_used}


def _check_test(cfg: ExperimentConfig) -> None:
    """A tester's thresholds, and ``expected`` one of its two verdicts."""
    if cfg.command == "reduce-id":
        learning.identity_test_thresholds(cfg.eps, cfg.modes)
        verdicts = (learning.MAXIMALLY_MIXED, learning.FAR_FROM_MAXIMALLY_MIXED)
    else:
        thresholds = (learning.pure_test_thresholds if cfg.command == "test-pure"
                      else learning.rank_test_thresholds)
        thresholds(cfg.test_config(), cfg.modes)
        verdicts = (learning.CASE_A, learning.CASE_B)
    if cfg.expected not in (None, *verdicts):
        raise ValidationError(f"expected must be one of {', '.join(verdicts)}, "
                              f"got {cfg.expected!r}")


def _trial_test(cfg: ExperimentConfig, trial: int, stream: RngStream, source: _Source) -> dict:
    src = source(stream)
    if cfg.command == "reduce-id":
        verdict = learning.reduce_identity_testing(src, cfg.eps, cfg.delta, stream.child(1),
                                                   cfg.scheme)
    else:
        tester = learning.test_pure if cfg.command == "test-pure" else learning.test_bounded_rank
        verdict = tester(src, cfg.test_config(), stream.child(1), cfg.scheme)
    rec = {
        "verdict_or_error": verdict.verdict,
        "shots": verdict.shots_used,
        "lambda_hat": verdict.lambda_hat_relevant,
        "threshold": verdict.threshold,
        "stage": verdict.stage,
    }
    if verdict.local_distance is not None:  # the Gaussianity stage ran
        rec["local_distance"] = verdict.local_distance
    return rec


def _check_tomo(cfg: ExperimentConfig) -> None:
    learning.check_eps_delta(cfg.eps, cfg.delta)


def _trial_tomo(cfg: ExperimentConfig, trial: int, stream: RngStream, source: _Source) -> dict:
    """Learn one state and score it against the truth with the exact referee
    ``dense.state_metrics``.  Above ``dense.MAX_TRIAL_DENSE_MODES`` a Gaussian truth is not
    densified: ``tomo-pure`` scores a pure one by 2 sqrt(1 - |<psi|phi>|^2)
    (``states.overlap_pure``), exact for two pure states and O(n^3), and
    every other trial there is recorded ``"learned"``."""
    src = source(stream)
    tomograph = learning.tomograph_pure if cfg.command == "tomo-pure" else learning.tomograph_mixed
    report = tomograph(src, cfg.eps, cfg.delta, stream.child(1), scheme=cfg.scheme)
    if isinstance(src, DenseSource) or src.n <= dense_mod.MAX_TRIAL_DENSE_MODES:
        err = dense_mod.state_metrics(report.learned, src.state)
        return {"shots": report.shots_used, "dense_error": err, **_scored(err, cfg.eps)}
    if cfg.command == "tomo-pure" and src.state.is_pure():  # the learned state is pure
        err = 2.0 * math.sqrt(1.0 - states.overlap_pure(report.learned, src.state))
        return {"shots": report.shots_used, "referee": "overlap", "exact_error": err,
                **_scored(err, cfg.eps)}
    return {"shots": report.shots_used, "verdict_or_error": "learned"}


def _trial_robustness(cfg: ExperimentConfig, trial: int, stream: RngStream,
                      source: _Source) -> dict:
    # the spec is always random_gaussian:mixed, so the base is the trial's random state
    result = learning.robustness_experiment(
        source(stream).state, (cfg.noise_kind, cfg.noise_strength), cfg.eps, cfg.delta,
        stream.child(1), promise=cfg.promise, scheme=cfg.scheme)
    err = result.dense_error
    return {"dense_error": err, "promise_value": result.promise_value, **_scored(err, cfg.eps),
            "shots": result.shots_used}


class Command(NamedTuple):
    """One command: the config fields it reads (its flags and config-file keys;
    every other field keeps its default), its cap, range and threshold check,
    owned by the library modules, and its per-trial worker."""
    fields: Tuple[str, ...]
    check: Optional[Callable[[ExperimentConfig], object]] = None
    trial: Optional[Callable[..., dict]] = None


_SAMPLED = ("modes", "state_spec", "delta", "scheme")
_RUN = ("trials", "seed", "out_path")
COMMANDS: Dict[str, Command] = {
    "verify-bounds": Command(("modes", *_RUN, "format"),
                             lambda cfg: dense_mod.check_dense_modes(cfg.modes),
                             _trial_verify_bounds),
    "estimate": Command((*_SAMPLED, "eps", "shots", *_RUN, "format"),
                        lambda cfg: sampling.check_eps_stat(cfg.eps), _trial_estimate),
    "test-pure": Command((*_SAMPLED, "eps_a", "eps_b", "gaussian_set", "expected", *_RUN,
                          "format"), _check_test, _trial_test),
    "test-rank": Command((*_SAMPLED, "rank_exponent", "eps_a", "eps_b", "gaussian_set",
                          "expected", *_RUN, "format"), _check_test, _trial_test),
    "reduce-id": Command((*_SAMPLED, "eps", "expected", *_RUN, "format"), _check_test,
                         _trial_test),
    "tomo-pure": Command((*_SAMPLED, "eps", *_RUN, "format"), _check_tomo, _trial_tomo),
    "tomo-mixed": Command((*_SAMPLED, "eps", *_RUN, "format"), _check_tomo, _trial_tomo),
    "robustness": Command(("modes", "delta", "scheme", "eps", "noise_kind", "noise_strength",
                           "promise", *_RUN, "format"),
                          lambda cfg: learning.robustness_bound(
                              cfg.modes, (cfg.noise_kind, cfg.noise_strength), cfg.eps,
                              cfg.delta, cfg.promise),
                          _trial_robustness),
    # each point runs the sub-command; a sweep record holds only sub-records,
    # which the csv format drops
    "sweep": Command(("axis", "points", "sub_command", *_SAMPLED, "eps", "shots", *_RUN)),
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
    errs = [r[k] for r in results for k in ("error_inf", "dense_error", "exact_error") if k in r]
    if errs:
        agg["median_error"] = float(np.median(errs))
    if cfg.command == "verify-bounds":
        agg["violations"] = int(sum(not r["ok"] for r in done))
    if cfg.command == "tomo-pure":
        c, p, k = sampling.SHOT_BUDGETS["commuting"]
        factor = learning.pure_tomography_factor(cfg.modes, cfg.scheme)
        spent = f"the commuting row times n = {factor}: " if factor > 1 else ""
        agg["budget_note"] = (f"{spent}appendix budget {c:g} n^{p}/eps^2 log({k:g} n^2/delta); "
                              f"the headline statement carries constant {4 * c:g}")
    if errors:
        agg["errors"] = dict(sorted(Counter(errors.values()).items()))
    return agg


def _run_trials(cfg: ExperimentConfig, source: _Source) -> dict:
    """The trials' records and aggregate; a run whose copies, summed over its
    trials so far, pass the draw ceiling raises BudgetOverflow (exit 3, no
    record), so ``shot_total`` always fits an int64."""
    worker = COMMANDS[cfg.command].trial
    results: List[dict] = []
    errors: Dict[int, str] = {}
    total = 0
    for t in range(cfg.trials):
        try:
            rec = worker(cfg, t, RngStream(cfg.seed, (t,)), source)
        except (ValidationError, BudgetOverflow):
            raise
        except FreeFermError as exc:
            errors[t] = type(exc).__name__
            rec = {"ok": False, "verdict_or_error": f"{errors[t]}: {exc}", "shots": 0}
        total += rec.get("shots", 0)
        if total > sampling.MAX_DRAW:
            raise BudgetOverflow(f"the run's total of {total} copies after trial {t} exceeds "
                                 f"the draw ceiling {sampling.MAX_DRAW}")
        if cfg.expected and t not in errors:  # a completed trial is scored against --expected
            rec["ok"] = rec["verdict_or_error"] == cfg.expected
        results.append({"trial": t, **rec})
    return {"results": results, "aggregate": _aggregate(cfg, results, errors)}


def run(cfg: ExperimentConfig) -> dict:
    """Execute an experiment and return the run record."""
    return _execute(cfg, cfg.validate())


def _execute(cfg: ExperimentConfig, plan: _Plan) -> dict:
    """The run record of ``cfg`` from the plan its validation returned."""
    start = time.monotonic()
    record = _run_sweep(cfg, plan) if cfg.command == "sweep" else _run_trials(cfg, plan)
    record["config"] = asdict(cfg)
    record["wall_time_s"] = time.monotonic() - start
    record["version"] = __version__
    return record


def _run_sweep(cfg: ExperimentConfig, plan: List[Tuple[ExperimentConfig, _Source]]) -> dict:
    sub_records = [_execute(sub_cfg, source) for sub_cfg, source in plan]
    # the log-log fit takes each point whose median error is positive
    fit = [(float(point), rec["aggregate"]["median_error"])
           for point, rec in zip(cfg.points, sub_records)
           if rec["aggregate"].get("median_error", 0.0) > 0]
    slope = None
    if len({x for x, _ in fit}) >= 2:  # points that share one x value have no slope
        log_x, log_med = np.log(fit).T
        slope = float(np.polyfit(log_x, log_med, 1)[0])
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
        writer.writerow([r["trial"], r["verdict_or_error"], r.get("shots", 0),
                         f"{seed}:{r['trial']}"])
    return buf.getvalue()


def _destination(cfg: ExperimentConfig) -> str:
    """out_path ('-' for stdout), else ``<command>.<format>`` under FREEFERM_OUT_DIR; raises
    the OSError of writing there if it is a directory or its parent directory is missing."""
    out = cfg.out_path
    if out is None:
        ext = "csv" if cfg.format == "csv" else "json"
        out = os.path.join(os.environ.get("FREEFERM_OUT_DIR", "."), f"{cfg.command}.{ext}")
    if out != "-" and (os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or ".")):
        code = errno.EISDIR if os.path.isdir(out) else errno.ENOENT
        raise OSError(code, os.strerror(code), out)
    return out


def write_record(record: dict, cfg: ExperimentConfig) -> str:
    """Write to out_path ('-' for stdout); returns the destination label."""
    out = _destination(cfg)
    payload = _to_csv(record) if cfg.format == "csv" else json.dumps(record, indent=2)
    if out == "-":
        sys.stdout.write(payload + "\n")
        return "-"
    with open(out, "w") as f:
        f.write(payload)
        if not payload.endswith("\n"):
            f.write("\n")
    return out


# -- argument parsing ---------------------------------------------------------------

@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """One parser for all commands, built once per process (argparse looks up
    sys.stdout and sys.stderr only when it prints); :func:`config_from_args`
    checks a command's flags."""
    rows = "\n".join(textwrap.fill(f"{name}: {' '.join(_FLAGS[f][0] for f in row.fields)}", 78,
                                   initial_indent="  ", subsequent_indent="      ",
                                   break_on_hyphens=False)
                     for name, row in COMMANDS.items())
    parser = argparse.ArgumentParser(
        prog="freeferm",
        description="Seeded free-fermionic estimation/testing/tomography experiments.",
        epilog=f"every command takes --config and only the flags of its row:\n{rows}",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="JSON file with config fields (snake_case)")
    for name, (flag, options) in _FLAGS.items():
        parser.add_argument(flag, dest=name, **options)
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The config file's fields, then the flags given; each must be in the
    command's row. ``--points`` text is split at its commas."""
    values = {}
    if args.config:
        with open(args.config) as f:
            try:
                values = json.load(f)
            except ValueError as exc:  # not JSON or not UTF-8
                raise ValidationError(f"config file {args.config!r}: {exc}") from exc
        if not isinstance(values, dict) or None in values.values():
            raise ValidationError(f"config file {args.config!r} holds no JSON object "
                                  f"of non-null values")
    values.update((k, v) for k, v in vars(args).items() if k in _FLAGS and v is not None)
    _check_row(args.command, list(values), values.get("axis"))  # given, even at its default
    if isinstance(values.get("points"), str):
        try:
            values["points"] = [float(x) for x in values["points"].split(",") if x]
        except ValueError as exc:
            raise ValidationError(f"points {values['points']!r} is not a --points value") from exc
    return ExperimentConfig(args.command, **values)


def _has_type(name: str, value) -> bool:
    """Whether ``value`` has the type of field ``name``'s flag: an int is also
    a float, a bool no number, and points are a list of numbers."""
    if name == "points":
        return isinstance(value, list) and all(_has_type("eps", x) for x in value)
    kind = _FLAGS[name][1].get("type", str)
    return not isinstance(value, bool) and isinstance(value, (int, float) if kind is float else kind)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; returns the exit code (argparse's own, 2 or 0, included)."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # malformed argv (2) or --help (0)
        return exc.code
    try:
        cfg = config_from_args(args)
        _destination(cfg)  # an unwritable destination fails before the first trial
        record = run(cfg)
        dest = write_record(record, cfg)
    except BudgetOverflow as exc:
        print(f"budget overflow: {exc}", file=sys.stderr)
        return 3
    except FreeFermError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    agg = record.get("aggregate", {})
    # with the record on stdout, the summary goes to stderr so stdout stays parseable
    print(f"{cfg.command}: {json.dumps(agg)} -> {dest}",
          file=sys.stderr if dest == "-" else sys.stdout)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
