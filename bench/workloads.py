"""The benchmark's workloads: the requests each one issues and the checks
their outputs must pass.

Every input is derived from the workload seed and the request index, so one
seed always gives the same request sequence. Requests reach the program only
through public entry points: ``freeferm.cli.main(argv)`` with ``--out`` to a
file that is read back and checked, or plain calls to public
``freeferm.states`` functions. No request sets ``--workers`` and nothing here
calls a private name, so refactors behind those entry points keep the
benchmark working.

``freeferm`` must be importable before this module is imported; ``run.py``
puts the checkout's ``src`` directory on the path first.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np
import scipy.linalg

from freeferm import cli, learning, states

#: accuracy and failure probability passed to every estimation-type request
EPS = 0.2
DELTA = 0.1
#: slack for comparisons between two floating-point bounds
TOL = 1e-9

TOMO_MODES = 64
QUERY_MODES = 128
#: analytic-query input triples generated at set-up and used in turn
QUERY_POOL = 4
#: scale of the random generator of the rotation between the two pure states;
#: at n = 128 it gives an overlap of about 0.8
QUERY_ROTATION_SCALE = 0.005

#: requests per round-robin cycle; the traced run repeats one cycle
CYCLES = {"oracle": 3, "estimate": 1, "scale": 2}


@dataclass(frozen=True)
class QueryInputs:
    """Correlation matrices of the analytic bound query."""

    g_pure: np.ndarray
    g_rotated: np.ndarray
    g_mixed: np.ndarray


@dataclass(frozen=True)
class Request:
    """One request: CLI arguments (without ``--out``) or an analytic query."""

    kind: str
    argv: Tuple[str, ...] = ()
    query: Optional[QueryInputs] = field(default=None, repr=False, compare=False)


# -- input generation (numpy only, so inputs do not depend on the program) ----

def random_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar orthogonal matrix from the sign-fixed QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


def correlation(q: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Q (⊕ lam_j [[0, 1], [-1, 0]]) Qᵀ, exactly antisymmetric."""
    n = lams.size
    blocks = np.zeros((2 * n, 2 * n))
    blocks[2 * np.arange(n), 2 * np.arange(n) + 1] = lams
    blocks[2 * np.arange(n) + 1, 2 * np.arange(n)] = -lams
    g = np.triu(q @ blocks @ q.T, 1)
    return g - g.T


def make_query(seed: int, k: int) -> QueryInputs:
    """Γ1 a random pure state, Γ2 = R Γ1 Rᵀ close to it, Γ3 a random mixed state."""
    rng = np.random.default_rng([seed, 1, k])
    dim = 2 * QUERY_MODES
    g_pure = correlation(random_orthogonal(dim, rng), np.ones(QUERY_MODES))
    a = np.triu(rng.normal(scale=QUERY_ROTATION_SCALE, size=(dim, dim)), 1)
    rot = scipy.linalg.expm(a - a.T)
    g_rotated = np.triu(rot @ g_pure @ rot.T, 1)
    g_mixed = correlation(random_orthogonal(dim, rng), rng.uniform(0.0, 1.0, QUERY_MODES))
    return QueryInputs(g_pure, g_rotated - g_rotated.T, g_mixed)


class Workload:
    """The request sequence of one workload for one seed."""

    def __init__(self, name: str, seed: int):
        if name not in CYCLES:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        self.cycle = CYCLES[name]
        self.queries = [make_query(seed, k) for k in range(QUERY_POOL)] if name == "scale" else []

    def request(self, i: int) -> Request:
        rng = np.random.default_rng([self.seed, 0, i])
        seed_arg = ("--seed", str(int(rng.integers(2 ** 31))))
        slot = i % self.cycle
        if self.name == "oracle":
            if slot == 0:
                return Request("verify-bounds", ("verify-bounds", "--modes", "6", "--trials", "3")
                               + seed_arg)
            if slot == 1:
                return Request("robustness", (
                    "robustness", "--modes", "4", "--eps", "0.3",
                    "--noise-kind", "trace_perturbation", "--noise-strength", "0.01",
                    "--trials", "1") + seed_arg)
            lams = ",".join(f"{x:.6f}" for x in rng.uniform(0.05, 0.95, size=4))
            return Request("test-rank", (
                "test-rank", "--modes", "6", "--rank-exponent", "4", "--eps-a", "0",
                "--eps-b", "0.5", "--scheme", "commuting", "--state-spec",
                f"product:{lams},1,1", "--expected", learning.CASE_A, "--trials", "1") + seed_arg)
        if self.name == "estimate":
            return Request("estimate", (
                "estimate", "--modes", "12", "--scheme", "commuting",
                "--state-spec", "random_gaussian:mixed", "--eps", str(EPS), "--delta", str(DELTA),
                "--trials", "1") + seed_arg)
        if slot == 0:
            return Request("tomo-mixed", (
                "tomo-mixed", "--modes", str(TOMO_MODES), "--scheme", "pauli_pairs",
                "--state-spec", "random_gaussian:mixed", "--eps", str(EPS), "--delta", str(DELTA),
                "--trials", "1") + seed_arg)
        return Request("bound-query", query=self.queries[(i // 2) % QUERY_POOL])


# -- issuing and checking -----------------------------------------------------

class RequestFailed(Exception):
    """A CLI request exited with a non-zero code."""


def issue(req: Request, out_path: str) -> Optional[dict]:
    """Issue one request; returns the analytic query's values, or None.

    The CLI's summary line and messages are swallowed so that the benchmark's
    own standard output stays parseable; a non-zero exit raises
    :class:`RequestFailed` with the message. Every exception propagates to
    the caller, which counts it as a failed request.
    """
    if req.query is not None:
        return run_query(req.query)
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        try:
            code = cli.main([*req.argv, "--out", out_path])
        except SystemExit as exc:  # argparse rejects malformed arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    if code != 0:
        raise RequestFailed(f"exit code {code}: {sink.getvalue().strip()}")
    return None


def run_query(q: QueryInputs) -> dict:
    """The analytic bound query, through public ``freeferm.states`` calls only."""
    s1 = states.from_correlation(q.g_pure)
    s2 = states.from_correlation(q.g_rotated)
    s3 = states.from_correlation(q.g_mixed)
    overlap = states.overlap_pure(s1, s2)
    bounds = states.distance_bounds(s1, s2, "pure_pure")
    par = states.parity(s3)
    purified = states.purify(s3)
    return {
        "overlap": overlap,
        "lb_infty": bounds.lb_infty,
        "ub_pure": bounds.ub_pure,
        "fid_lb_sq": bounds.fid_lb_sq,
        "parity": par,
        "lambda_product": float(np.prod(s3.lambdas)),
        "purified_modes": purified.n,
    }


def _check_query(v: dict) -> bool:
    trace_dist = 2.0 * math.sqrt(max(0.0, 1.0 - v["overlap"]))  # exact for pure states
    return (
        v["lb_infty"] <= trace_dist + TOL
        and trace_dist <= v["ub_pure"] + TOL
        and v["fid_lb_sq"] <= v["overlap"] + TOL
        and math.isclose(abs(v["parity"]), v["lambda_product"], rel_tol=1e-9)
        and v["purified_modes"] == 2 * QUERY_MODES
    )


def _check_record(kind: str, rec: dict) -> bool:
    first = rec["results"][0]
    if kind == "verify-bounds":
        return rec["aggregate"]["violations"] == 0 and all(r["ok"] for r in rec["results"])
    if kind == "estimate":
        return first["error_inf"] <= EPS
    if kind == "test-rank":
        return first["verdict_or_error"] == learning.CASE_A
    if kind == "robustness":
        return first["ok"] is True
    if kind == "tomo-mixed":
        return first["shots"] == learning.mixed_tomography_shots(TOMO_MODES, EPS, DELTA)
    raise ValueError(f"no check for request kind {kind!r}")


def outcome(req: Request, result, out_path: str) -> Tuple[bool, object]:
    """(passes its output check, the output compared across traced runs).

    For a CLI request the output is the record read back from ``out_path``;
    a record that cannot be read or lacks a checked field fails the check.
    """
    if req.query is not None:
        return _check_query(result), result
    try:
        with open(out_path) as f:
            rec = json.load(f)
        return bool(_check_record(req.kind, rec)), rec
    except (OSError, json.JSONDecodeError, KeyError, IndexError, TypeError):
        return False, None
