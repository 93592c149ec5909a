"""Property-testing and tomography protocols.

The decision procedures ingest measurement samples only (through a
StateSource) and share one shape: each compares one normal eigenvalue of the
estimated correlation matrix, read from its normal form, against the
threshold formula of its guarantee (the smallest for the pure test, the
(r+1)-th smallest for the bounded-rank test, the largest for the
identity-testing reduction), and the last two then run a Gaussianity stage
on local tomography.  Each returns a :class:`TestVerdict` that carries the
compared eigenvalue, the deciding stage and its threshold.

Shot budgets follow the algorithm boxes and are rows of
:data:`freeferm.sampling.SHOT_BUDGETS`: the pure test and pure tomography
take the "commuting" row (pure tomography n times it under "pauli_pairs",
:func:`pure_tomography_factor`), the bounded-rank test the "commuting" row
at delta/2 plus its local tomography, mixed tomography the
"mixed_tomography" row, and the identity-testing reduction its scheme's own
row ("commuting" or "pauli_pairs", the default of ``estimate_gamma``) at
eps/(6n) and delta/2 plus its full-register tomography.

Strict-inequality accuracy parameters ("eps_stat < ...") are instantiated
at 0.9x the open bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import dense as dense_mod
from . import skew, states
from .dense import DenseState
from .errors import (
    BudgetOverflow,
    InfeasibleThresholds,
    PromiseNotCertified,
    RankExponentOutOfRange,
    TooManyModes,
    ValidationError,
)
from .sampling import (
    MAX_DRAW,
    DenseSource,
    RngStream,
    StateSource,
    check_delta,
    estimate_gamma,
    hoeffding_shots,
    shot_budget,
)
from .states import GaussianState

__all__ = [
    "TestConfig",
    "TestVerdict",
    "TomographyReport",
    "RobustnessResult",
    "CASE_A",
    "CASE_B",
    "MAXIMALLY_MIXED",
    "FAR_FROM_MAXIMALLY_MIXED",
    "pure_test_thresholds",
    "rank_test_thresholds",
    "identity_test_thresholds",
    "test_pure",
    "test_bounded_rank",
    "local_full_tomography",
    "reduce_identity_testing",
    "tomograph_pure",
    "tomograph_mixed",
    "robustness_bound",
    "robustness_experiment",
    "check_eps_delta",
    "mixed_tomography_shots",
    "pure_tomography_factor",
]

CASE_A = "CaseA"
CASE_B = "CaseB"
MAXIMALLY_MIXED = "MaximallyMixed"
FAR_FROM_MAXIMALLY_MIXED = "FarFromMaximallyMixed"

#: strict-inequality parameters are set at this fraction of the open bound
SLACK = 0.9
#: eps_T of the bounded-rank test against mixed_set is this multiple of eps_stat + gap
MIX2_THRESHOLD_FACTOR = 1.1
#: cap for full tomography of the leading modes
MAX_LOCAL_MODES = 6
#: strength range of each noise kind, the strengths for which the noisy
#: preparation is a state: (1 - p) rho + p I/2^n and (1 - s/2) rho + (s/2) tau
NOISE_STRENGTHS = {"depolarizing": (0.0, 1.0), "trace_perturbation": (0.0, 2.0)}
#: the robustness promises, each a bound on the distance to the Gaussianification
PROMISES = ("trace", "relative_entropy")
#: the target sets of the testers
GAUSSIAN_SETS = ("pure_set", "mixed_set", "rank_set")


@dataclass(frozen=True)
class TestConfig:
    """Thresholds and target set for a property-testing run."""

    eps_a: float
    eps_b: float
    delta: float
    r: int = 0
    gaussian_set: str = "mixed_set"  # one of GAUSSIAN_SETS

    def __post_init__(self):
        # 2 is the largest unhalved trace distance, and the thresholds square eps_b
        if not (2.0 >= self.eps_b > self.eps_a >= 0.0):
            raise ValidationError(f"need 2 >= eps_b > eps_a >= 0, got {self.eps_a}, {self.eps_b}")
        check_delta(self.delta)
        if self.r < 0:
            raise RankExponentOutOfRange(f"rank exponent {self.r} must be >= 0")
        if self.gaussian_set not in GAUSSIAN_SETS:
            raise ValidationError(f"unknown gaussian_set {self.gaussian_set!r}")


@dataclass(frozen=True)
class TestVerdict:
    verdict: str
    lambda_hat_relevant: float
    threshold: float
    stage: str  # eigenvalue_stage | tomography_stage
    shots_used: int
    local_distance: Optional[float] = None


@dataclass(frozen=True)
class TomographyReport:
    learned: GaussianState
    shots_used: int


# -- threshold formulas ---------------------------------------------------------

def pure_test_thresholds(cfg: TestConfig, n: int) -> Tuple[float, float]:
    """(eps_T, eps_stat) for the pure test; raises when infeasible.

    mixed_set assumes a pure input state and tests against all Gaussian
    states; pure_set tests an arbitrary input against the pure Gaussian set.
    """
    ea, eb = cfg.eps_a, cfg.eps_b
    if cfg.gaussian_set == "pure_set":
        if eb <= math.sqrt(2.0 * n * ea):
            raise InfeasibleThresholds(
                f"need eps_b > sqrt(2 n eps_a) = {math.sqrt(2 * n * ea):.4f}, got {eb}"
            )
        eps_t = 0.5 * (eb ** 2 / (2 * n) + ea)
        eps_stat = 0.25 * (eb ** 2 / (2 * n) - ea)
    elif cfg.gaussian_set == "mixed_set":
        if eb <= 2.0 * math.sqrt(n * ea):
            raise InfeasibleThresholds(
                f"need eps_b > 2 sqrt(n eps_a) = {2 * math.sqrt(n * ea):.4f}, got {eb}"
            )
        eps_t = 0.5 * (eb ** 2 / (2 * n) + 2.0 * ea)
        eps_stat = SLACK * 0.5 * (eb ** 2 / (2 * n) - 2.0 * ea)
    else:
        raise ValidationError("pure test supports gaussian_set pure_set or mixed_set")
    return eps_t, eps_stat


def rank_test_thresholds(cfg: TestConfig, n: int) -> Tuple[float, float, float, float]:
    """(eps_T, eps_stat, eps_tom, eps_T2) for the bounded-rank test.

    rank_set tests an arbitrary state against Gaussian states of rank at
    most 2^r; mixed_set assumes rank(rho) <= 2^r and tests against all
    Gaussian states.
    """
    ea, eb, r = cfg.eps_a, cfg.eps_b, cfg.r
    if r:
        _check_local_modes(r)
    if not 0 <= r <= n - 1:
        raise RankExponentOutOfRange(f"rank exponent r={r} outside [0, {n - 1}]")
    if cfg.gaussian_set == "rank_set":
        gap = ea
    elif cfg.gaussian_set == "mixed_set":
        gap = (2.0 * ea) ** (1.0 / (r + 1)) if ea > 0 else 0.0
    else:
        raise ValidationError("rank test supports gaussian_set rank_set or mixed_set")
    if eb <= max(math.sqrt(2 ** 5 * (n - r) * gap), 2.0 * (n + 1) * ea):
        raise InfeasibleThresholds(
            f"eps_b={eb} below the feasibility bound "
            f"max({math.sqrt(2 ** 5 * (n - r) * gap):.4f}, {2 * (n + 1) * ea:.4f})"
        )
    eps_stat = SLACK * 0.5 * (eb ** 2 / (2 ** 5 * (n - r)) - gap)
    if cfg.gaussian_set == "rank_set":
        eps_t = eb ** 2 / (2 ** 6 * (n - r)) + 0.5 * ea
    else:
        eps_t = MIX2_THRESHOLD_FACTOR * (eps_stat + gap)
    return (eps_t, eps_stat, *_gaussianity_thresholds(n, ea, eb))


def _gaussianity_thresholds(n: int, ea: float, eb: float) -> Tuple[float, float]:
    """(eps_tom, eps_T2) of the Gaussianity stage on an n-mode register."""
    eps_tom = SLACK * (1.0 / (n + 2)) * (0.5 * eb - (n + 1) * ea)
    eps_t2 = (n + 1) / (n + 2) * (0.5 * eb + ea)
    return eps_tom, eps_t2


def identity_test_thresholds(eps: float, n: int) -> Tuple[float, float, float, float]:
    """(eps_T, eps_stat, eps_tom, eps_T2) of :func:`reduce_identity_testing` on
    n modes; eps, a bound on the unhalved trace distance, must lie in (0, 2]."""
    if not 0.0 < eps <= 2.0:
        raise ValidationError(f"trace-distance eps {eps} outside (0, 2]")
    _check_local_modes(n)
    return (eps / (3.0 * n), eps / (6.0 * n), *_gaussianity_thresholds(n, 0.0, eps))


def mixed_tomography_shots(n: int, eps: float, delta: float) -> int:
    return shot_budget("mixed_tomography", n, eps, delta)


def pure_tomography_factor(n: int, scheme: str) -> int:
    """The multiple of the "commuting" row that pure tomography spends: n under
    "pauli_pairs", the setting ratio n(2n - 1)/(2n - 1), so that each entry gets
    the copies "commuting" gives it; 1 otherwise."""
    return n if scheme == "pauli_pairs" else 1


# -- testers ---------------------------------------------------------------------

def test_pure(
    src: StateSource,
    cfg: TestConfig,
    rng_stream: RngStream,
    scheme: str = "commuting",
) -> TestVerdict:
    """Accept (CaseA) iff every estimated normal eigenvalue is near 1."""
    n = src.n
    eps_t, eps_stat = pure_test_thresholds(cfg, n)
    est = estimate_gamma(
        src, eps_stat, cfg.delta, scheme, rng_stream.child(0),
        total_shots=shot_budget("commuting", n, eps_stat, cfg.delta),
    )
    lam_min = float(skew.normal_eigenvalues(est.gamma_hat)[0])
    verdict = CASE_A if lam_min >= 1.0 - eps_t else CASE_B
    return TestVerdict(verdict, lam_min, eps_t, "eigenvalue_stage", est.shots_used)


def test_bounded_rank(
    src: StateSource,
    cfg: TestConfig,
    rng_stream: RngStream,
    scheme: str = "commuting",
) -> TestVerdict:
    """Two-stage test: tail eigenvalues near 1, then local Gaussianity.

    Stage 1 reads the estimate's eigenvalues alone (:func:`skew.reduction`) and
    rejects when the (r+1)-th smallest is small; at r = 0 it also accepts, as
    there are no mixed modes to examine.  Stage 2 alone forms the estimate's
    frame from that reduction and rotates into it (by Q^T for the normal
    form Q Lambda Q^T, so the leading r modes carry the r smallest
    eigenvalues), learns those modes by full tomography, and compares against
    the Gaussian state with the same local correlation matrix.
    """
    n = src.n
    eps_t, eps_stat, eps_tom, eps_t2 = rank_test_thresholds(cfg, n)
    r = cfg.r
    est = estimate_gamma(
        src, eps_stat, cfg.delta / 2.0, scheme, rng_stream.child(0),
        total_shots=shot_budget("commuting", n, eps_stat, cfg.delta / 2.0),
    )
    red = skew.reduction(est.gamma_hat)
    lam_next = float(red.lambdas[r])
    far = lam_next <= 1.0 - eps_t
    if far or r == 0:
        return TestVerdict(CASE_B if far else CASE_A, lam_next, eps_t, "eigenvalue_stage",
                           est.shots_used)

    far, local_dist, shots = _gaussianity_stage(
        src, r, skew.normal_form(red).q.T, (eps_tom, eps_t2), cfg.delta, rng_stream, scheme,
        est.shots_used)
    return TestVerdict(CASE_B if far else CASE_A, lam_next, eps_t2, "tomography_stage",
                       shots, local_dist)


def _gaussianity_stage(src: StateSource, r: int, rotation: Optional[np.ndarray],
                       thresholds: Tuple[float, float], delta: float, rng_stream: RngStream,
                       scheme: str, spent: int) -> Tuple[bool, float, int]:
    """The second stage of a two-stage test, at delta/2 on ``rng_stream``'s
    child 1: full tomography of the leading r modes after ``rotation`` at
    eps_tom, then the trace distance of the estimate to the Gaussian state
    with its correlation matrix. ``thresholds`` is (eps_tom, eps_T2) and
    ``spent`` the copies of stage 1, which count toward the trial's total
    under the draw ceiling; returns (distance > eps_T2, distance, the
    trial's total copies)."""
    eps_tom, eps_t2 = thresholds
    rho_hat, shots = local_full_tomography(
        src, r, eps_tom, delta / 2.0, rng_stream.child(1), rotation=rotation, scheme=scheme,
        spent=spent,
    )
    dist = dense_mod.state_metrics(rho_hat, dense_mod.gaussianification(rho_hat))
    return dist > eps_t2, dist, spent + shots


def local_full_tomography(
    src: StateSource,
    modes: int,
    eps_tom: float,
    delta: float,
    rng_stream: RngStream,
    rotation: Optional[np.ndarray] = None,
    scheme: str = "commuting",
    spent: int = 0,
) -> Tuple[DenseState, int]:
    """Single-copy Pauli tomography of the leading ``modes`` qubits.

    Every non-identity Pauli expectation of the rotated-and-reduced state is
    estimated to accuracy eps_tom / (2 * 2^r), all 4^r - 1 counts from one
    binomial draw on ``rng_stream``.  A count above :data:`MAX_DRAW` raises
    BudgetOverflow before the draw, as does a trial total above it: the
    ``spent`` copies of the trial's earlier stages plus this draw's
    (4^r - 1) counts.  Linear inversion is projected to the
    PSD unit-trace cone by eigenvalue clipping.  With probability at
    least 1 - delta the output is within eps_tom in trace norm.  Returns the
    estimate and the number of copies used.  Only ``scheme="exact"`` is read:
    it returns the exact reduced state and 0 copies; every other scheme samples.
    """
    r = modes
    _check_local_modes(r)
    check_delta(delta)
    if not 0.0 < eps_tom:
        raise ValidationError(f"eps_tom {eps_tom} must be > 0")
    truth = src.reduced_dense(rotation, r)
    if scheme == "exact":
        return truth, 0

    d = 1 << r
    n_paulis = 4 ** r - 1
    per_pauli = hoeffding_shots(eps_tom / (2.0 * d), delta, n_paulis)
    if per_pauli > MAX_DRAW:
        raise BudgetOverflow(f"{per_pauli} copies per Pauli exceed the draw ceiling {MAX_DRAW}")
    if spent + per_pauli * n_paulis > MAX_DRAW:
        raise BudgetOverflow(f"a trial's total of {spent + per_pauli * n_paulis} copies "
                             f"exceeds the draw ceiling {MAX_DRAW}")
    perms, coefs = _pauli_strings(r)
    expectations = dense_mod.pauli_expectations(truth.rho, perms, coefs).real  # Tr(P rho)
    t = np.clip(expectations[1:], -1.0, 1.0)
    ones = rng_stream.generator().binomial(per_pauli, 0.5 * (1.0 + t))
    t_hat = (2.0 * ones - per_pauli) / per_pauli
    acc = np.eye(d, dtype=complex)  # identity expectation is exactly 1
    # unbuffered, in code order: each entry sums its Pauli terms as a loop would
    np.add.at(acc, (perms[1:], np.arange(d)), t_hat[:, None] * coefs[1:])
    rho_hat = acc / d
    w, v = np.linalg.eigh(rho_hat)
    w = np.clip(w, 0.0, None)
    w /= w.sum()
    return DenseState(r, (v * w) @ v.conj().T), per_pauli * n_paulis


def _check_local_modes(r: int) -> None:
    if not 1 <= r <= MAX_LOCAL_MODES:
        raise TooManyModes(f"local tomography supports 1..{MAX_LOCAL_MODES} modes, got {r}")


def _pauli_strings(r: int) -> Tuple[np.ndarray, np.ndarray]:
    """All 4^r Pauli strings on r qubits as ``dense.pauli_rows``: the base-4
    digits of row ``code`` (0, 1, 2, 3 for I, X, Y, Z) name its factors, qubit
    0 as the most significant digit, and set its X-type and Z-type masks."""
    place = 1 << (r - 1 - np.arange(r))
    digits = (np.arange(4 ** r)[:, None] // place ** 2) % 4  # [code, qubit]
    return dense_mod.pauli_rows(r, ((digits == 1) | (digits == 2)) @ place, (digits >= 2) @ place)


# -- identity-testing reduction --------------------------------------------------

def reduce_identity_testing(
    src: StateSource,
    eps: float,
    delta: float,
    rng_stream: RngStream,
    scheme: str = "commuting",
) -> TestVerdict:
    """Identity testing through the free-fermionic lens.

    Step 1 estimates the correlation matrix at eps/(6n), spending the
    scheme's headline budget at delta/2; step 2 flags the state as far
    whenever its largest normal eigenvalue, the operator norm, exceeds
    eps/(3n) (the maximally mixed state has a vanishing correlation matrix);
    step 3 hands the remaining states to a Gaussianity check over the whole
    register: full tomography plus the distance to the Gaussian state with
    the learned state's correlation matrix, thresholded like the bounded-rank
    test with every mode examined.  The verdict carries that largest
    eigenvalue and the deciding stage's threshold.
    """
    n = src.n
    eps_t, eps_stat, eps_tom, eps_t2 = identity_test_thresholds(eps, n)
    est = estimate_gamma(
        src, eps_stat, delta / 2.0, scheme, rng_stream.child(0))
    lam_max = float(skew.normal_eigenvalues(est.gamma_hat)[-1])
    if lam_max > eps_t:
        return TestVerdict(FAR_FROM_MAXIMALLY_MIXED, lam_max, eps_t, "eigenvalue_stage",
                           est.shots_used)

    far, local_dist, shots = _gaussianity_stage(
        src, n, None, (eps_tom, eps_t2), delta, rng_stream, scheme, est.shots_used)
    return TestVerdict(FAR_FROM_MAXIMALLY_MIXED if far else MAXIMALLY_MIXED, lam_max, eps_t2,
                       "tomography_stage", shots, local_dist)


# -- tomography -------------------------------------------------------------------

def tomograph_pure(
    src: StateSource,
    eps: float,
    delta: float,
    rng_stream: RngStream,
    scheme: str = "commuting",
) -> TomographyReport:
    """Learn a pure Gaussian state: estimate on :func:`pure_tomography_factor`
    times the "commuting" row, take the normal form, snap every eigenvalue to 1."""
    check_eps_delta(eps, delta)
    n = src.n
    est = estimate_gamma(
        src, eps, delta, scheme, rng_stream.child(0),
        total_shots=pure_tomography_factor(n, scheme) * shot_budget("commuting", n, eps, delta),
    )
    learned = states.from_normal_form(skew.normal_form(est.gamma_hat).with_lambdas(np.ones(n)))
    return TomographyReport(learned, est.shots_used)


def tomograph_mixed(
    src: StateSource,
    eps: float,
    delta: float,
    rng_stream: RngStream,
    scheme: str = "commuting",
) -> TomographyReport:
    """Learn a possibly mixed Gaussian state; eigenvalues above 1 clip to 1.

    The ``mixed_tomography`` row alone sets the copy budget; it is passed to
    :func:`estimate_gamma` as ``total_shots``, so no per-entry accuracy is
    derived from ``eps``.
    """
    check_eps_delta(eps, delta)
    est = estimate_gamma(
        src, eps, delta, scheme, rng_stream.child(0),
        total_shots=mixed_tomography_shots(src.n, eps, delta),
    )
    learned = states.clip_to_valid(est.gamma_hat)
    return TomographyReport(learned, est.shots_used)


def check_eps_delta(eps: float, delta: float) -> None:
    """Raise ValidationError unless the tomography targets eps and delta are in (0, 1)."""
    check_delta(delta)
    if not 0.0 < eps < 1.0:
        raise ValidationError(f"eps {eps} outside (0, 1)")


# -- robustness experiments --------------------------------------------------------

@dataclass(frozen=True)
class RobustnessResult:
    learned: GaussianState
    dense_error: float
    promise_value: float
    shots_used: int


def robustness_bound(n: int, noise: Tuple[str, float], eps: float, delta: float,
                     promise: str) -> float:
    """The bound on a robustness instance's promise value, eps/(3n) for "trace" and
    eps^2 for "relative_entropy"; raises unless n is within the certification cap,
    the noise strength in its kind's range, eps and delta in (0, 1) and the promise known."""
    cap = dense_mod.MAX_TRIAL_DENSE_MODES  # the dense oracle certifies the promise
    if n > cap:
        raise TooManyModes(f"promise certification needs n <= {cap}, got {n}")
    kind, strength = noise
    if kind not in NOISE_STRENGTHS:
        raise ValidationError(f"unknown noise kind {kind!r}")
    lo, hi = NOISE_STRENGTHS[kind]
    if not lo <= strength <= hi:
        raise ValidationError(f"{kind} strength {strength} outside [{lo:g}, {hi:g}]")
    check_eps_delta(eps, delta)
    if promise not in PROMISES:
        raise ValidationError(f"unknown promise {promise!r}")
    return eps / (3.0 * n) if promise == "trace" else eps ** 2


def robustness_experiment(
    base: GaussianState,
    noise: Tuple[str, float],
    eps: float,
    delta: float,
    rng_stream: RngStream,
    promise: str = "trace",
    scheme: str = "commuting",
) -> RobustnessResult:
    """Run mixed tomography on a noisy preparation of ``base``.

    noise is ("depolarizing", p) or ("trace_perturbation", strength); the
    latter mixes in the |+>^n projector, a non-Gaussian direction.  The noisy
    state is built densely once: the promise is certified on it, tomography
    samples it and the error is scored against it.  The promise ("trace":
    distance to the Gaussian state of the same correlation matrix <=
    eps/(3n); "relative_entropy": non-Gaussianity <= eps^2) is certified
    before sampling; failure raises PromiseNotCertified, marking the run
    out-of-contract rather than an algorithm failure.
    """
    n = base.n
    bound = robustness_bound(n, noise, eps, delta, promise)
    kind, strength = noise
    rho_base = dense_mod.gaussian_to_dense(base)
    if kind == "depolarizing":
        rho_noisy = dense_mod.depolarize(rho_base, strength)
    else:
        plus = np.full(1 << n, (1.0 / math.sqrt(2.0)) ** n, dtype=complex)
        tau = np.outer(plus, plus.conj())
        rho_noisy = DenseState(n, (1.0 - 0.5 * strength) * rho_base.rho + 0.5 * strength * tau)

    sigma = dense_mod.gaussianification(rho_noisy)
    metric = dense_mod.state_metrics if promise == "trace" else dense_mod.relative_entropy
    promise_value = metric(rho_noisy, sigma)
    if promise_value > bound:
        raise PromiseNotCertified(
            f"promise value {promise_value:.6f} exceeds the bound {bound:.6f}"
        )

    report = tomograph_mixed(DenseSource(rho_noisy), eps, delta, rng_stream, scheme=scheme)
    err = dense_mod.state_metrics(report.learned, rho_noisy)
    return RobustnessResult(
        learned=report.learned,
        dense_error=err,
        promise_value=promise_value,
        shots_used=report.shots_used,
    )
