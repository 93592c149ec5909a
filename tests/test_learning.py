import math

import numpy as np
import pytest

from freeferm import dense, learning, sampling, skew, states
from freeferm.errors import (
    BudgetOverflow,
    InfeasibleThresholds,
    PromiseNotCertified,
    RankExponentOutOfRange,
    TooManyModes,
    ValidationError,
)
from freeferm.sampling import DenseSource, ExactGaussianSource, RngStream


def ghz_plus_vacuum_source(n_extra=1, rotation=None, rng=None):
    """GHZ3 (x) |0...0>, optionally conjugated by a random Gaussian unitary."""
    rho = dense.ghz3().rho
    for _ in range(n_extra):
        rho = np.kron(rho, dense.computational_basis(1, [0]).rho)
    n = 3 + n_extra
    if rotation is None and rng is not None:
        rotation = skew.random_orthogonal(2 * n, rng)
    if rotation is not None:
        u = dense.gaussian_unitary(rotation)
        rho = u @ rho @ u.conj().T
    return DenseSource(dense.DenseState(n, rho))


def test_config_validation():
    with pytest.raises(ValidationError):
        learning.TestConfig(eps_a=0.3, eps_b=0.2, delta=0.1)
    with pytest.raises(ValidationError):
        learning.TestConfig(eps_a=0.0, eps_b=0.5, delta=1.5)
    with pytest.raises(ValidationError):
        learning.TestConfig(eps_a=0.0, eps_b=0.5, delta=0.1, gaussian_set="bogus")
    with pytest.raises(RankExponentOutOfRange, match="rank exponent -1 must be >= 0"):
        learning.TestConfig(eps_a=0.0, eps_b=0.5, delta=0.1, r=-1)


def test_pure_thresholds_formulas():
    cfg = learning.TestConfig(eps_a=0.01, eps_b=0.8, delta=0.1, gaussian_set="mixed_set")
    eps_t, eps_stat = learning.pure_test_thresholds(cfg, 4)
    assert eps_t == pytest.approx(0.5 * (0.64 / 8 + 0.02))
    assert eps_stat == pytest.approx(0.9 * 0.5 * (0.64 / 8 - 0.02))
    cfg2 = learning.TestConfig(eps_a=0.01, eps_b=0.8, delta=0.1, gaussian_set="pure_set")
    eps_t2, eps_stat2 = learning.pure_test_thresholds(cfg2, 4)
    assert eps_t2 == pytest.approx(0.5 * (0.64 / 8 + 0.01))
    assert eps_stat2 == pytest.approx(0.25 * (0.64 / 8 - 0.01))


def test_pure_thresholds_infeasible():
    # eps_b = 0.2 < 2 sqrt(n eps_a) at n=4, eps_a=0.1
    cfg = learning.TestConfig(eps_a=0.1, eps_b=0.2, delta=0.1, gaussian_set="mixed_set")
    with pytest.raises(InfeasibleThresholds):
        learning.pure_test_thresholds(cfg, 4)
    # and eps_b = 0.2 < sqrt(2 n eps_a) against the pure set
    cfg = learning.TestConfig(eps_a=0.1, eps_b=0.2, delta=0.1, gaussian_set="pure_set")
    with pytest.raises(InfeasibleThresholds, match=r"need eps_b > sqrt\(2 n eps_a\)"):
        learning.pure_test_thresholds(cfg, 4)


def test_rank_thresholds_formulas():
    cfg = learning.TestConfig(eps_a=0.0, eps_b=0.8, delta=0.1, r=1, gaussian_set="rank_set")
    eps_t, eps_stat, eps_tom, eps_t2 = learning.rank_test_thresholds(cfg, 4)
    assert eps_t == pytest.approx(0.64 / (64 * 3))
    assert eps_stat == pytest.approx(0.9 * 0.5 * 0.64 / (32 * 3))
    assert eps_tom == pytest.approx(0.9 * (1 / 6) * 0.4)
    assert eps_t2 == pytest.approx((5 / 6) * 0.4)


def test_rank_thresholds_degenerate_r():
    cfg = learning.TestConfig(eps_a=0.0, eps_b=0.5, delta=0.1, r=4, gaussian_set="rank_set")
    with pytest.raises(RankExponentOutOfRange):
        learning.rank_test_thresholds(cfg, 4)
    # eps_b = 0.5 < sqrt(2^5 (n - r) eps_a) = 0.98 at n = 4, r = 1, eps_a = 0.01
    cfg = learning.TestConfig(eps_a=0.01, eps_b=0.5, delta=0.1, r=1, gaussian_set="rank_set")
    with pytest.raises(InfeasibleThresholds, match="below the feasibility bound"):
        learning.rank_test_thresholds(cfg, 4)


def test_pure_exact_scheme_deterministic(rng):
    s = states.random_gaussian_state(4, "pure", rng)
    cfg = learning.TestConfig(eps_a=0.0, eps_b=0.9, delta=0.05)
    v1 = learning.test_pure(ExactGaussianSource(s), cfg, RngStream(0), scheme="exact")
    v2 = learning.test_pure(ExactGaussianSource(s), cfg, RngStream(99), scheme="exact")
    assert v1.verdict == learning.CASE_A == v2.verdict
    assert v1.shots_used == 0
    assert v1.lambda_hat_relevant == v2.lambda_hat_relevant
    # the accept line is 1 - eps_T: half an eps_T below it rejects, above it accepts
    eps_t, _ = learning.pure_test_thresholds(cfg, 3)
    for lam, verdict in ((1 - 1.5 * eps_t, learning.CASE_B), (1 - 0.5 * eps_t, learning.CASE_A)):
        src = ExactGaussianSource(states.product_state([lam, 1, 1]))
        v = learning.test_pure(src, cfg, RngStream(0), scheme="exact")
        assert (v.verdict, v.threshold) == (verdict, eps_t), lam


def test_pure_sampled_case_a(rng):
    s = states.random_gaussian_state(4, "pure", rng)
    cfg = learning.TestConfig(eps_a=0.0, eps_b=0.9, delta=0.05)
    v = learning.test_pure(ExactGaussianSource(s), cfg, RngStream(1))
    assert v.verdict == learning.CASE_A
    assert v.stage == "eigenvalue_stage"
    assert v.threshold == pytest.approx(
        learning.pure_test_thresholds(cfg, 4)[0]
    )


def test_pure_sampled_case_b(rng):
    # GHZ (x) |0>: a pure state 1/2-far from every Gaussian state
    src = ghz_plus_vacuum_source(rng=rng)
    lam = skew.normal_eigenvalues(src.gamma())
    assert 0.5 * (1.0 - lam[0]) > 0.45  # lower-bound certificate for the promise
    cfg = learning.TestConfig(eps_a=0.0, eps_b=0.45, delta=0.05)
    v = learning.test_pure(src, cfg, RngStream(2))
    assert v.verdict == learning.CASE_B


def test_pure_set_variant_runs(rng):
    src = ghz_plus_vacuum_source(rng=rng)
    cfg = learning.TestConfig(eps_a=0.0, eps_b=0.45, delta=0.05, gaussian_set="pure_set")
    v = learning.test_pure(src, cfg, RngStream(3))
    assert v.verdict == learning.CASE_B


def test_rank_case_a_reaches_stage_two(rng):
    q = skew.random_orthogonal(8, rng)
    s = states.from_correlation(q @ skew.lambda_blocks([0.5, 1, 1, 1]) @ q.T)
    cfg = learning.TestConfig(eps_a=0.0, eps_b=0.8, delta=0.05, r=1, gaussian_set="rank_set")
    v = learning.test_bounded_rank(ExactGaussianSource(s), cfg, RngStream(4))
    assert v.verdict == learning.CASE_A
    assert v.stage == "tomography_stage"
    assert v.local_distance < 0.05


def test_rank_case_b_stage_one(rng):
    src = ghz_plus_vacuum_source(rng=rng)
    # lemma certificate: distance to rank-2 Gaussian states >= 1 - lambda_2
    lam = skew.normal_eigenvalues(src.gamma())
    assert 1.0 - lam[1] > 0.8
    cfg = learning.TestConfig(eps_a=0.0, eps_b=0.8, delta=0.05, r=1, gaussian_set="rank_set")
    v = learning.test_bounded_rank(src, cfg, RngStream(5))
    assert v.verdict == learning.CASE_B
    assert v.stage == "eigenvalue_stage"


def test_rank_case_b_stage_two(rng):
    # X-polarized qubit (x) vacuum: every lambda is 0 or 1, yet the state is
    # 0.8-far from all Gaussian states since Tr(X_1 sigma) = 0 for Gaussian sigma
    rho_x = 0.5 * (np.eye(2, dtype=complex) + 0.8 * np.array([[0, 1], [1, 0]]))
    rho = np.kron(rho_x, dense.computational_basis(3, [0, 0, 0]).rho)
    src = DenseSource(dense.DenseState(4, rho))
    x1 = dense.majoranas(4).matrix(0)
    assert abs(np.trace(x1 @ rho).real) == pytest.approx(0.8)
    cfg = learning.TestConfig(eps_a=0.0, eps_b=0.7, delta=0.05, r=1, gaussian_set="rank_set")
    v = learning.test_bounded_rank(src, cfg, RngStream(6))
    assert v.verdict == learning.CASE_B
    assert v.stage == "tomography_stage"
    assert v.local_distance == pytest.approx(0.8, abs=0.05)


def test_rank_stage_two_learns_the_mixed_modes(rng):
    # rotated GHZ3 (x) |0>: stage 2 rotates by Q^T for Gamma-hat = Q Lambda Q^T,
    # so the r = 3 modes of lambda 0 are GHZ3 up to a Gaussian unitary, which
    # keeps the core's distance to its Gaussianification (1.75)
    core = dense.ghz3()
    want = dense.state_metrics(core, dense.gaussianification(core))
    cfg = learning.TestConfig(eps_a=0.0, eps_b=0.8, delta=0.05, r=3, gaussian_set="rank_set")
    for t in range(5):
        v = learning.test_bounded_rank(ghz_plus_vacuum_source(rng=rng), cfg, RngStream(46, (t,)),
                                       scheme="exact")
        assert v.stage == "tomography_stage"
        assert v.local_distance == pytest.approx(want, rel=0.0, abs=1e-9)


def test_rank_exact_scheme_deterministic(rng):
    q = skew.random_orthogonal(8, rng)
    s = states.from_correlation(q @ skew.lambda_blocks([0.5, 1, 1, 1]) @ q.T)
    cfg = learning.TestConfig(eps_a=0.0, eps_b=0.8, delta=0.05, r=1, gaussian_set="rank_set")
    v1 = learning.test_bounded_rank(ExactGaussianSource(s), cfg, RngStream(40), scheme="exact")
    v2 = learning.test_bounded_rank(ExactGaussianSource(s), cfg, RngStream(41), scheme="exact")
    assert v1.verdict == v2.verdict == learning.CASE_A
    assert v1.shots_used == 0
    assert v1.local_distance == v2.local_distance


def test_reduce_identity_exact_scheme():
    mm = ExactGaussianSource(states.product_state([0, 0, 0]))
    v1 = learning.reduce_identity_testing(mm, 0.5, 0.1, RngStream(42), scheme="exact")
    assert v1.verdict == learning.MAXIMALLY_MIXED and v1.shots_used == 0
    # an operator norm of twice eps/(3n) is far at the eigenvalue stage
    eps_t = 0.5 / 9
    near = ExactGaussianSource(states.product_state([2 * eps_t, 0, 0]))
    v2 = learning.reduce_identity_testing(near, 0.5, 0.1, RngStream(42), scheme="exact")
    assert (v2.verdict, v2.stage) == (learning.FAR_FROM_MAXIMALLY_MIXED, "eigenvalue_stage")
    assert v2.threshold == eps_t and v2.local_distance is None


def test_rank_threshold_echo(rng):
    src = ghz_plus_vacuum_source(rng=rng)
    cfg = learning.TestConfig(eps_a=0.0, eps_b=0.8, delta=0.05, r=1, gaussian_set="rank_set")
    eps_t, _, _, eps_t2 = learning.rank_test_thresholds(cfg, 4)
    v = learning.test_bounded_rank(src, cfg, RngStream(43), scheme="exact")
    assert v.stage == "eigenvalue_stage"
    assert v.threshold == eps_t
    q = skew.random_orthogonal(8, rng)
    s = states.from_correlation(q @ skew.lambda_blocks([0.5, 1, 1, 1]) @ q.T)
    v2 = learning.test_bounded_rank(ExactGaussianSource(s), cfg, RngStream(44), scheme="exact")
    assert v2.stage == "tomography_stage"
    assert v2.threshold == eps_t2
    # at r = 0 no tomography runs: the eigenvalue stage accepts against eps_T
    cfg0 = learning.TestConfig(eps_a=0.0, eps_b=0.9, delta=0.05)
    eps_t0 = learning.rank_test_thresholds(cfg0, 3)[0]
    v0 = learning.test_bounded_rank(ExactGaussianSource(states.vacuum(3)), cfg0, RngStream(45),
                                    scheme="exact")
    assert (v0.verdict, v0.stage, v0.threshold) == (learning.CASE_A, "eigenvalue_stage", eps_t0)
    assert v0.local_distance is None


def test_rank_mixed_set_variant(rng):
    q = skew.random_orthogonal(8, rng)
    s = states.from_correlation(q @ skew.lambda_blocks([0.5, 1, 1, 1]) @ q.T)
    cfg = learning.TestConfig(eps_a=0.0, eps_b=0.3, delta=0.05, r=1, gaussian_set="mixed_set")
    v = learning.test_bounded_rank(ExactGaussianSource(s), cfg, RngStream(7))
    assert v.verdict == learning.CASE_A


def test_local_tomography(rng):
    vac = ExactGaussianSource(states.vacuum(2))
    rho, _ = learning.local_full_tomography(vac, 1, 0.1, 0.1, RngStream(8))
    assert dense.state_metrics(rho, dense.computational_basis(1, [0])) < 0.1

    mm = ExactGaussianSource(states.product_state([0, 0, 0]))
    rho2, _ = learning.local_full_tomography(mm, 2, 0.1, 0.1, RngStream(9))
    assert dense.state_metrics(rho2, dense.DenseState(2, np.eye(4) / 4)) < 0.1

    with pytest.raises(TooManyModes):
        learning.local_full_tomography(vac, 7, 0.1, 0.1, RngStream(10))

    # one mode at eps_tom 1e-8 draws about 1.3e18 copies per Pauli, below the ceiling
    rho, shots = learning.local_full_tomography(vac, 1, 1e-8, 0.1, RngStream(8))
    assert sampling.MAX_DRAW // 10 < shots // 3 <= sampling.MAX_DRAW
    assert dense.state_metrics(rho, dense.computational_basis(1, [0])) < 1e-8
    # at eps_tom 1e-9 the count is about 1.3e20, past what one binomial draw takes
    with pytest.raises(BudgetOverflow, match="copies per Pauli exceed the draw ceiling"):
        learning.local_full_tomography(vac, 1, 1e-9, 0.1, RngStream(8))
    # the 3 counts of 1.3e18 fit, but not on top of 6e18 copies an earlier stage spent
    with pytest.raises(BudgetOverflow, match="a trial's total of .* exceeds the draw ceiling"):
        learning.local_full_tomography(vac, 1, 1e-8, 0.1, RngStream(8), spent=6 * 10 ** 18)


def test_local_tomography_matches_partial_trace(rng):
    # oracle: exact dense partial trace of the rotated state
    hits = 0
    for t in range(20):
        s = states.random_gaussian_state(3, "mixed", rng)
        src = ExactGaussianSource(s)
        q = skew.random_orthogonal(6, rng)
        rho_hat, _ = learning.local_full_tomography(src, 1, 0.15, 0.1, RngStream(11, (t,)),
                                                    rotation=q)
        truth = dense.partial_trace(
            dense.gaussian_to_dense(states.rotate(s, q)), 1
        )
        if dense.state_metrics(rho_hat, truth) <= 0.15:
            hits += 1
    assert hits >= 18  # 1 - delta with slack


_PAULI_1Q = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _kron_local_tomography(src, r, eps_tom, delta, rng_stream, rotation):
    """Reference: one Kronecker-product Pauli matrix per base-4 code."""
    truth = src.reduced_dense(rotation, r)
    d = 1 << r
    n_paulis = 4 ** r - 1
    eps_p = eps_tom / (2.0 * d)
    per_pauli = math.ceil(2.0 / eps_p ** 2 * math.log(2.0 * n_paulis / delta))
    paulis = []
    for code in range(1, 4 ** r):
        digits, rest = [], code
        for _ in range(r):
            digits.append(rest % 4)
            rest //= 4
        p = _PAULI_1Q[digits[-1]]
        for dgt in digits[-2::-1]:
            p = np.kron(p, _PAULI_1Q[dgt])
        paulis.append(p)
    t = np.array([max(-1.0, min(1.0, float(np.sum(p * truth.rho.T).real))) for p in paulis])
    ones = rng_stream.generator().binomial(per_pauli, 0.5 * (1.0 + t))
    acc = np.eye(d, dtype=complex)
    for p, count in zip(paulis, ones):
        acc += (2.0 * count - per_pauli) / per_pauli * p
    w, v = np.linalg.eigh(acc / d)
    w = np.clip(w, 0.0, None)
    w /= w.sum()
    return (v * w) @ v.conj().T, per_pauli * n_paulis


def test_local_tomography_matches_kron_reference(rng):
    for r in range(1, 7):
        for seed in range(3 if r <= 5 else 1):
            src = ExactGaussianSource(states.random_gaussian_state(r + 1, "mixed", rng))
            q = skew.random_orthogonal(2 * r + 2, rng)
            stream = RngStream(60 + seed, (r,))
            rho_ref, shots_ref = _kron_local_tomography(src, r, 0.3, 0.1, stream, q)
            rho_hat, shots = learning.local_full_tomography(src, r, 0.3, 0.1, stream, rotation=q)
            assert np.array_equal(rho_hat.rho, rho_ref)
            assert shots == shots_ref


def test_local_tomography_draws_once(monkeypatch):
    calls = []
    generator = RngStream.generator

    def spy(stream):
        calls.append(stream.key)
        return generator(stream)

    monkeypatch.setattr(RngStream, "generator", spy)
    src = ExactGaussianSource(states.product_state([0.5, 0, 0]))
    for r in (1, 2, 3):
        calls.clear()
        learning.local_full_tomography(src, r, 0.3, 0.1, RngStream(18, (r,)))
        assert calls == [(r,)], r
    calls.clear()
    learning.local_full_tomography(src, 2, 0.3, 0.1, RngStream(18), scheme="exact")
    assert calls == []
    with pytest.raises(ValidationError, match="eps_tom 0.0 must be > 0"):
        learning.local_full_tomography(src, 2, 0.0, 0.1, RngStream(18))
    assert calls == []


def test_reduce_identity_testing():
    mm = ExactGaussianSource(states.product_state([0, 0, 0]))
    v = learning.reduce_identity_testing(mm, 0.5, 0.1, RngStream(12))
    assert v.verdict == learning.MAXIMALLY_MIXED
    assert v.shots_used > 0
    vac = ExactGaussianSource(states.vacuum(3))
    verdict2 = learning.reduce_identity_testing(vac, 0.5, 0.1, RngStream(13)).verdict
    assert verdict2 == learning.FAR_FROM_MAXIMALLY_MIXED


@pytest.mark.parametrize("scheme", ["commuting", "pauli_pairs"])
def test_reduce_identity_spends_its_scheme_row(scheme):
    # the vacuum is far from maximally mixed, so only the estimation stage runs
    eps, delta = 0.5, 0.1
    for n in (1, 2, 3):
        vac = ExactGaussianSource(states.vacuum(n))
        v = learning.reduce_identity_testing(vac, eps, delta, RngStream(17, (n,)), scheme=scheme)
        assert v.verdict == learning.FAR_FROM_MAXIMALLY_MIXED
        assert v.shots_used == sampling.shot_budget(scheme, n, eps / (6 * n), delta / 2), n


@pytest.mark.parametrize("eps", [-1.0, 0.0, 2.5, 30.0])
def test_reduce_identity_rejects_eps_beyond_trace_distance(eps):
    mm = ExactGaussianSource(states.product_state([0, 0]))
    with pytest.raises(ValidationError, match=f"trace-distance eps {eps} outside"):
        learning.reduce_identity_testing(mm, eps, 0.1, RngStream(19), scheme="exact")


def test_reduce_identity_budget_overflow():
    mm = ExactGaussianSource(states.product_state([0, 0, 0]))
    # stage 1's commuting budget at eps/(6n), eps 1e-9, is about 4.6e23 copies
    with pytest.raises(BudgetOverflow, match="shots exceed the draw ceiling"):
        learning.reduce_identity_testing(mm, 1e-9, 0.1, RngStream(14))


def test_identity_thresholds_share_the_rank_tests_gaussianity_stage():
    eps, n = 0.5, 3
    eps_t, eps_stat, *stage_two = learning.identity_test_thresholds(eps, n)
    assert (eps_t, eps_stat) == (eps / (3 * n), eps / (6 * n))
    # eps_A = 0 and eps_B = eps, every mode examined
    cfg = learning.TestConfig(eps_a=0.0, eps_b=eps, delta=0.1, gaussian_set="rank_set")
    assert stage_two == list(learning.rank_test_thresholds(cfg, n)[2:])


def test_two_stage_testers_check_the_local_cap_before_any_draw(monkeypatch):
    # each second stage would tomograph cap + 1 modes, so every input is refused
    # before the first estimate, whatever stage 1 would have found
    def no_estimate(*args, **kwargs):
        raise AssertionError("an estimate ran")

    cap = learning.MAX_LOCAL_MODES
    cfg = learning.TestConfig(eps_a=0.0, eps_b=0.8, delta=0.1, r=cap + 1)
    runs = (
        (cap + 1, lambda src, **kw: learning.reduce_identity_testing(
            src, 0.5, 0.1, RngStream(25), **kw)),
        (cap + 3, lambda src, **kw: learning.test_bounded_rank(src, cfg, RngStream(25), **kw)),
    )
    for n, run in runs:
        for state in (states.vacuum(n), states.product_state([0.0] * n)):
            with pytest.raises(TooManyModes, match=f"1..{cap} modes, got {cap + 1}"):
                run(ExactGaussianSource(state), scheme="exact")
            with monkeypatch.context() as m:
                m.setattr(learning, "estimate_gamma", no_estimate)
                with pytest.raises(TooManyModes):
                    run(ExactGaussianSource(state))


def test_tomograph_pure_builds_at_the_default_tolerance():
    # under pauli_pairs at n = 128 the learned Q Lambda Q^T is antisymmetric far
    # inside SkewMatrix's default tolerance of 1e-12, at which it is built
    n = 128
    s = states.random_gaussian_state(n, "pure", np.random.default_rng(128))
    rep = learning.tomograph_pure(ExactGaussianSource(s), 0.2, 0.1, RngStream(5),
                                  scheme="pauli_pairs")
    m = rep.learned.nf.reconstruct()
    assert np.abs(m + m.T).max() <= 1e-15
    assert rep.learned.corr.mat.tobytes() == skew.SkewMatrix(m).mat.tobytes()
    assert np.array_equal(rep.learned.lambdas, np.ones(n))


@pytest.mark.parametrize("n", [64, 128])
def test_tomograph_pure_meets_eps_under_pauli_pairs(n):
    # each of the n(2n - 1) entries is a setting of its own under pauli_pairs, so
    # n times the commuting row gives each entry the copies commuting gives it
    eps, delta = 0.2, 0.1
    for t in range(10):
        s = states.random_gaussian_state(n, "pure", np.random.default_rng([n, t]))
        rep = learning.tomograph_pure(ExactGaussianSource(s), eps, delta, RngStream(n, (t,)),
                                      scheme="pauli_pairs")
        assert rep.shots_used == n * sampling.shot_budget("commuting", n, eps, delta)
        err = 2.0 * math.sqrt(1.0 - states.overlap_pure(rep.learned, s))  # exact for pure states
        assert err <= eps, (n, t, err)


def test_tomograph_pure(rng):
    s = states.random_gaussian_state(3, "pure", rng)
    src = ExactGaussianSource(s)
    exact = learning.tomograph_pure(src, 0.2, 0.1, RngStream(15), scheme="exact")
    err0 = dense.state_metrics(dense.gaussian_to_dense(exact.learned), dense.gaussian_to_dense(s))
    assert err0 < 1e-8
    assert np.all(exact.learned.lambdas >= 1 - 1e-9)

    sampled = learning.tomograph_pure(src, 0.25, 0.1, RngStream(16))
    err = dense.state_metrics(dense.gaussian_to_dense(sampled.learned), dense.gaussian_to_dense(s))
    assert err <= 0.25
    assert sampled.shots_used == sampling.shot_budget("commuting", 3, 0.25, 0.1)


def test_tomograph_mixed(rng):
    s = states.random_gaussian_state(3, "mixed", rng)
    src = ExactGaussianSource(s)
    exact = learning.tomograph_mixed(src, 0.2, 0.1, RngStream(17), scheme="exact")
    err0 = dense.state_metrics(dense.gaussian_to_dense(exact.learned), dense.gaussian_to_dense(s))
    assert err0 < 1e-8

    sampled = learning.tomograph_mixed(src, 0.2, 0.1, RngStream(18))
    err = dense.state_metrics(dense.gaussian_to_dense(sampled.learned), dense.gaussian_to_dense(s))
    assert err <= 0.2
    assert sampled.shots_used == learning.mixed_tomography_shots(3, 0.2, 0.1)


def test_tomography_error_scaling(rng):
    # quadrupling the shot budget should halve the median dense error
    s = states.random_gaussian_state(3, "pure", rng)
    src = ExactGaussianSource(s)
    rho_true = dense.gaussian_to_dense(s)
    grids = [2000, 8000, 32000, 128000]
    medians = []
    for shots in grids:
        errs = []
        for t in range(15):
            est = learning.estimate_gamma(src, 0.0, 0.5, "commuting",
                                          RngStream(50, (shots, t)), total_shots=shots)
            nf = skew.normal_form(est.gamma_hat).with_lambdas(np.ones(3))
            learned = states.from_correlation(nf.reconstruct())
            errs.append(dense.state_metrics(dense.gaussian_to_dense(learned), rho_true))
        medians.append(np.median(errs))
    slope = np.polyfit(np.log(grids), np.log(medians), 1)[0]
    assert -0.6 <= slope <= -0.4


def test_clipping_rule():
    # an injected estimate with a normal eigenvalue above 1 snaps to exactly 1
    gamma_hat = 1.03 * skew.canonical_lambda(2)
    learned = states.clip_to_valid(gamma_hat)
    assert np.all(learned.lambdas == 1.0)


def test_rank_test_forms_the_estimate_frame_for_stage_2_alone(frames):
    # stage 1 reads the estimate's lambdas alone; only the Gaussianity stage
    # forms the frame of the 8 x 8 estimate (the local states' 2 x 2 frames aside)
    for lams, r, stage, estimate_frames in (([1, 1, 1, 1], 0, "eigenvalue_stage", 0),
                                            ([0, 0, 0, 0], 1, "eigenvalue_stage", 0),
                                            ([0.5, 1, 1, 1], 1, "tomography_stage", 1)):
        frames.clear()
        cfg = learning.TestConfig(eps_a=0.0, eps_b=0.9, delta=0.1, r=r)
        verdict = learning.test_bounded_rank(
            ExactGaussianSource(states.product_state(lams)), cfg, RngStream(3))
        assert verdict.stage == stage, lams
        assert frames.count((8, 8)) == estimate_frames, lams
        assert not frames or stage == "tomography_stage", lams


def test_tomography_learns_gaussianification(rng):
    src = DenseSource(dense.ghz3())
    report = learning.tomograph_mixed(src, 0.2, 0.1, RngStream(19))
    err = dense.state_metrics(dense.gaussian_to_dense(report.learned),
                              dense.gaussianification(dense.ghz3()))
    assert err <= 0.2


def test_robustness_zero_noise_matches_tomograph(rng):
    base = states.random_gaussian_state(3, "mixed", rng)
    res = learning.robustness_experiment(base, ("depolarizing", 0.0), 0.3, 0.1,
                                         RngStream(20))
    direct = learning.tomograph_mixed(ExactGaussianSource(base), 0.3, 0.1, RngStream(20))
    assert np.array_equal(res.learned.corr.mat, direct.learned.corr.mat)
    assert res.promise_value < 1e-8


def test_robustness_depolarizing(rng):
    base = states.random_gaussian_state(3, "mixed", rng)
    res = learning.robustness_experiment(base, ("depolarizing", 0.02), 0.3, 0.1,
                                         RngStream(21))
    assert res.dense_error <= 0.3


def test_robustness_trace_perturbation(rng):
    base = states.random_gaussian_state(2, "mixed", rng)
    res = learning.robustness_experiment(base, ("trace_perturbation", 0.02), 0.3, 0.1,
                                         RngStream(22))
    assert res.dense_error <= 0.3
    assert res.promise_value <= 0.3 / 6.0
    # (1 - s/2) rho + (s/2) tau is a state only for s in [0, 2]
    for strength in (-0.5, 3.0):
        with pytest.raises(ValidationError):
            learning.robustness_experiment(base, ("trace_perturbation", strength), 0.3, 0.1,
                                           RngStream(22))


def test_robustness_promise_not_certified(rng):
    base = states.random_gaussian_state(2, "pure", rng)
    with pytest.raises(PromiseNotCertified):
        learning.robustness_experiment(base, ("trace_perturbation", 0.9), 0.2, 0.1,
                                       RngStream(23))


def test_robustness_checks_its_promise_before_the_dense_build(monkeypatch, rng):
    base = states.random_gaussian_state(2, "mixed", rng)

    def no_build(*args):
        raise AssertionError("the noisy state was built")

    with monkeypatch.context() as m:
        m.setattr(dense, "gaussian_to_dense", no_build)
        with pytest.raises(ValidationError, match="unknown promise 'nope'"):
            learning.robustness_experiment(base, ("depolarizing", 0.0), 0.3, 0.1, RngStream(26),
                                           promise="nope")
        with pytest.raises(ValidationError, match="unknown noise kind 'dephasing'"):
            learning.robustness_experiment(base, ("dephasing", 0.1), 0.3, 0.1, RngStream(26))
    assert learning.robustness_bound(2, ("depolarizing", 0.0), 0.3, 0.1, "trace") == 0.3 / 6
    assert learning.robustness_bound(
        2, ("depolarizing", 0.0), 0.3, 0.1, "relative_entropy") == 0.3 ** 2


def test_robustness_cap_is_the_dense_oracle_cap(monkeypatch, rng):
    # certification builds the noisy state densely; no local tomography is involved
    n = dense.MAX_TRIAL_DENSE_MODES + 1
    with pytest.raises(TooManyModes, match=f"needs n <= {n - 1}, got {n}"):
        learning.robustness_bound(n, ("depolarizing", 0.0), 0.3, 0.1, "trace")
    with monkeypatch.context() as m:
        m.setattr(dense, "gaussian_to_dense", lambda *args: pytest.fail("built"))
        with pytest.raises(TooManyModes):
            learning.robustness_experiment(states.random_gaussian_state(n, "mixed", rng),
                                           ("depolarizing", 0.0), 0.3, 0.1, RngStream(27))


def test_relative_entropy_promise(rng):
    base = states.random_gaussian_state(3, "mixed", rng)
    res = learning.robustness_experiment(base, ("depolarizing", 0.02), 0.3, 0.1,
                                         RngStream(24), promise="relative_entropy")
    assert res.promise_value <= 0.09
    assert res.dense_error <= 0.3
