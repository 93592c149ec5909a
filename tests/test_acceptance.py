"""Acceptance suite.

One test per criterion; each prints a PASS/FAIL line (run with -s to see
them).  Statistical criteria use fixed seeds, the stated shot budgets, and
binomial slack of three standard deviations around the guaranteed rate.
"""

import itertools
import math
import time

import numpy as np
import pytest

from freeferm import dense, learning, sampling, skew, states
from freeferm.sampling import DenseSource, ExactGaussianSource, RngStream, estimate_gamma


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def _rand_pure(n, gen):
    return states.random_gaussian_state(n, "pure", gen)


def _rand_mixed(n, gen):
    return states.random_gaussian_state(n, "mixed", gen)


# -- 1. bound sandwich ---------------------------------------------------------

def test_acceptance_bound_sandwich():
    t0 = time.monotonic()
    gen = np.random.default_rng(101)
    tol = 1e-9
    worst = 0.0
    pairs_per_n = 500
    for n in range(1, 6):
        for trial in range(pairs_per_n):
            mode = ("mixed_mixed", "pure_pure", "pure_vs_any")[trial % 3]
            if mode == "pure_vs_any":
                s1 = _rand_pure(n, gen)
                rho1 = dense.gaussian_to_dense(s1)
                rho2 = dense.random_density_matrix(n, gen)
                g2 = dense.correlation_matrix(rho2).mat
            else:
                kind = "pure" if mode == "pure_pure" else "mixed"
                s1 = states.random_gaussian_state(n, kind, gen)
                s2 = states.random_gaussian_state(n, kind, gen)
                rho1, rho2 = dense.gaussian_to_dense(s1), dense.gaussian_to_dense(s2)
                g2 = s2.corr.mat
            rep = states.distance_bounds(s1.corr.mat, g2, mode)
            td = dense.state_metrics(rho1, rho2)
            worst = max(worst, rep.lb_infty - td)
            if mode == "pure_vs_any":
                worst = max(worst, td - rep.ub_pure_vs_any)
            else:
                worst = max(worst, td - rep.ub_mixed)
                if mode == "pure_pure":
                    worst = max(worst, td - rep.ub_pure)
    elapsed = time.monotonic() - t0
    _report(
        "1 bound sandwich",
        worst <= tol and elapsed <= 120.0,
        f"worst violation {worst:.2e} over {5 * pairs_per_n} pairs, {elapsed:.1f}s",
    )


# -- 2. saturation --------------------------------------------------------------

def test_acceptance_saturation():
    t0 = time.monotonic()
    gen = np.random.default_rng(102)
    worst_single = 0.0
    for _ in range(200):
        a, b = gen.uniform(-1, 1, size=2)
        sa, sb = states.product_state([a]), states.product_state([b])
        td = dense.state_metrics(dense.gaussian_to_dense(sa), dense.gaussian_to_dense(sb))
        half_one_norm = 0.5 * skew.schatten_norm(sa.corr.mat - sb.corr.mat, 1)
        worst_single = max(worst_single, abs(td - half_one_norm))

    worst_pure = 0.0
    branch_counts = [0, 0]
    for _ in range(200):
        s1, s2 = _rand_pure(3, gen), _rand_pure(3, gen)
        delta = s1.corr.mat - s2.corr.mat
        td = dense.state_metrics(dense.gaussian_to_dense(s1), dense.gaussian_to_dense(s2))
        if skew.schatten_norm(delta, np.inf) >= 2.0 - 1e-9:
            worst_pure = max(worst_pure, abs(td - 2.0))
            branch_counts[1] += 1
        else:
            worst_pure = max(worst_pure, abs(td - 0.5 * skew.schatten_norm(delta, 2)))
            branch_counts[0] += 1
    elapsed = time.monotonic() - t0
    _report(
        "2 saturation",
        worst_single <= 1e-12 and worst_pure <= 1e-8 and elapsed <= 60.0,
        f"single-mode dev {worst_single:.2e}, pure 3-mode dev {worst_pure:.2e} "
        f"(branches {branch_counts}), {elapsed:.1f}s",
    )


# -- 3. Wick / overlap / parity oracle equivalence -------------------------------

def test_acceptance_wick_overlap_parity():
    t0 = time.monotonic()
    gen = np.random.default_rng(103)
    worst = 0.0
    for n in (1, 2, 3, 4, 5):
        for _ in range(40):
            s = _rand_mixed(n, gen)
            rho = dense.gaussian_to_dense(s)
            for size in (2, 4, 6):
                if size > 2 * n:
                    continue
                for sub in itertools.combinations(range(2 * n), size):
                    lhs = states.wick_expectation(s, list(sub))
                    rhs = dense.majorana_product_expectation(rho, list(sub))
                    worst = max(worst, abs(lhs - rhs))
            zn = np.array([(-1.0) ** bin(x).count("1") for x in range(1 << n)])
            par_dense = float((zn * np.diag(rho.rho).real).sum())
            worst = max(worst, abs(states.parity(s) - par_dense))
    for _ in range(100):
        s1, s2 = _rand_pure(3, gen), _rand_pure(3, gen)
        ov = states.overlap_pure(s1, s2)
        ov_dense = float(np.trace(
            dense.gaussian_to_dense(s1).rho @ dense.gaussian_to_dense(s2).rho
        ).real)
        worst = max(worst, abs(ov - ov_dense))
    elapsed = time.monotonic() - t0
    _report(
        "3 wick/overlap/parity",
        worst <= 1e-9 and elapsed <= 180.0,
        f"worst deviation {worst:.2e}, {elapsed:.1f}s",
    )


# -- 4. analytic state derivative --------------------------------------------------

def test_acceptance_derivative():
    t0 = time.monotonic()
    gen = np.random.default_rng(104)
    h = 1e-5
    worst = 0.0
    for n in (1, 2, 3, 4):
        for _ in range(25):
            lams = gen.uniform(0.1, 0.85, size=n)
            q = skew.random_orthogonal(2 * n, gen)
            gamma = q @ skew.lambda_blocks(lams) @ q.T
            x = skew.random_skew(2 * n, gen)
            x /= skew.schatten_norm(x, np.inf)
            out = dense.gaussian_derivative(gamma, x)
            plus = dense.gaussian_to_dense(states.from_correlation(gamma + h * x)).rho
            minus = dense.gaussian_to_dense(states.from_correlation(gamma - h * x)).rho
            fd = (plus - minus) / (2.0 * h)
            worst = max(worst, np.abs(fd - out).max() / np.abs(out).max())
    elapsed = time.monotonic() - t0
    _report(
        "4 state derivative",
        worst <= 1e-5 and elapsed <= 120.0,
        f"worst relative deviation {worst:.2e}, {elapsed:.1f}s",
    )


# -- 5. skew-algebra fuzzing -------------------------------------------------------

def test_acceptance_skew_fuzz():
    t0 = time.monotonic()
    gen = np.random.default_rng(105)
    n_fuzz = 10_000
    worst_pf = worst_rec = worst_weyl = worst_ineq = 0.0
    for _ in range(n_fuzz):
        dim = 2 * int(gen.integers(1, 11))
        a = skew.random_skew(dim, gen)
        pf = skew.pfaffian(a)
        det = np.linalg.det(a)
        scale = max(1.0, abs(det))
        worst_pf = max(worst_pf, abs(pf ** 2 - det) / scale)

        nf = skew.normal_form(a)
        worst_rec = max(worst_rec, np.abs(nf.reconstruct() - a).max())

        b = skew.random_skew(dim, gen)
        gap = skew.normal_eigenvalue_gap(a, b)
        worst_weyl = max(worst_weyl, gap - skew.schatten_norm(a - b, np.inf))

        lam = skew.canonical_lambda(dim // 2)
        lhs = skew.schatten_norm(a, 1) ** 2 + 2.0 * np.trace(lam @ a @ lam @ a)
        rhs = 2.0 * skew.schatten_norm(a, 2) ** 2 + np.trace(a @ lam) ** 2
        worst_ineq = max(worst_ineq, rhs - lhs)
    elapsed = time.monotonic() - t0
    ok = (worst_pf <= 1e-9 and worst_rec <= 1e-9 and worst_weyl <= 1e-10
          and worst_ineq <= 1e-9 and elapsed <= 120.0)
    _report(
        "5 skew fuzz",
        ok,
        f"pf^2-det {worst_pf:.2e}, reconstruction {worst_rec:.2e}, "
        f"weyl excess {worst_weyl:.2e}, inequality excess {worst_ineq:.2e}, "
        f"{n_fuzz} matrices, {elapsed:.1f}s",
    )


# -- 6. estimation guarantee --------------------------------------------------------

def test_acceptance_estimation_guarantee():
    t0 = time.monotonic()
    n, eps_stat, delta, runs = 3, 0.2, 0.1, 200
    s = states.random_gaussian_state(n, "mixed", np.random.default_rng(106))
    src = ExactGaussianSource(s)
    failures = 0
    for trial in range(runs):
        est = estimate_gamma(src, eps_stat, delta, "commuting", RngStream(1060, (trial,)))
        if skew.schatten_norm(est.gamma_hat.mat - s.corr.mat, np.inf) > eps_stat:
            failures += 1
    limit = delta + 3.0 * math.sqrt(delta * (1 - delta) / runs)
    elapsed = time.monotonic() - t0
    _report(
        "6 estimation guarantee",
        failures / runs <= limit and elapsed <= 300.0,
        f"failure fraction {failures}/{runs} (limit {limit:.3f}), {elapsed:.1f}s",
    )


# -- 7. tomography guarantees ---------------------------------------------------------

def test_acceptance_tomography():
    t0 = time.monotonic()
    n, eps, delta, trials = 4, 0.2, 0.1, 50
    gen = np.random.default_rng(107)

    mixed_budget = learning.mixed_tomography_shots(n, eps, delta)
    assert mixed_budget == math.ceil(16 * n ** 4 / eps ** 2 * math.log(4 * n ** 2 / delta))
    ok_mixed = 0
    for trial in range(trials):
        s = _rand_mixed(n, gen)
        rep = learning.tomograph_mixed(ExactGaussianSource(s), eps, delta,
                                       RngStream(1070, (trial,)))
        assert rep.shots_used == mixed_budget
        err = dense.state_metrics(dense.gaussian_to_dense(rep.learned), dense.gaussian_to_dense(s))
        ok_mixed += err <= eps

    pure_budget = sampling.shot_budget("commuting", n, eps, delta)
    assert pure_budget == math.ceil(8 * n ** 3 / eps ** 2 * math.log(4 * n ** 2 / delta))
    ok_pure = 0
    for trial in range(trials):
        s = _rand_pure(n, gen)
        rep = learning.tomograph_pure(ExactGaussianSource(s), eps, delta,
                                      RngStream(1071, (trial,)))
        assert rep.shots_used == pure_budget
        err = dense.state_metrics(dense.gaussian_to_dense(rep.learned), dense.gaussian_to_dense(s))
        ok_pure += err <= eps

    need = (0.9 - 3.0 * math.sqrt(0.9 * 0.1 / trials)) * trials
    elapsed = time.monotonic() - t0
    _report(
        "7 tomography",
        ok_mixed >= need and ok_pure >= need and elapsed <= 900.0,
        f"mixed {ok_mixed}/{trials}, pure {ok_pure}/{trials} "
        f"(need {need:.1f}), budgets {mixed_budget}/{pure_budget}, {elapsed:.1f}s",
    )


# -- 8. eps^-2 scaling -------------------------------------------------------------------

def test_acceptance_scaling():
    t0 = time.monotonic()
    s = states.random_gaussian_state(3, "mixed", np.random.default_rng(108))
    src = ExactGaussianSource(s)
    shots_grid = [1000, 4000, 16000, 64000]
    medians = []
    for shots in shots_grid:
        errs = []
        for trial in range(31):
            est = estimate_gamma(src, 0.0, 0.5, "commuting",
                                 RngStream(1080, (shots, trial)), total_shots=shots)
            errs.append(skew.schatten_norm(est.gamma_hat.mat - s.corr.mat, np.inf))
        medians.append(float(np.median(errs)))
    slope = float(np.polyfit(np.log(shots_grid), np.log(medians), 1)[0])
    elapsed = time.monotonic() - t0
    _report(
        "8 eps^-2 scaling",
        -0.6 <= slope <= -0.4 and elapsed <= 600.0,
        f"log-log slope {slope:.3f} over a 64x shot range, {elapsed:.1f}s",
    )


# -- 9. testing correctness ---------------------------------------------------------------

def _ghz_source(n, gen):
    """GHZ3 (x) |0^(n-3)>, conjugated by a random Gaussian unitary."""
    rho = dense.ghz3().rho
    for _ in range(n - 3):
        rho = np.kron(rho, dense.computational_basis(1, [0]).rho)
    q = skew.random_orthogonal(2 * n, gen)
    u = dense.gaussian_unitary(q)
    return DenseSource(dense.DenseState(n, u @ rho @ u.conj().T))


def test_acceptance_testing_correctness():
    t0 = time.monotonic()
    n = 4
    gen = np.random.default_rng(109)

    # pure tester: 100 Case-A / 100 Case-B instances
    cfg_pure = learning.TestConfig(eps_a=0.0, eps_b=0.45, delta=0.05,
                                   gaussian_set="mixed_set")
    errors_pure = 0
    for trial in range(100):
        src = ExactGaussianSource(_rand_pure(n, gen))
        v = learning.test_pure(src, cfg_pure, RngStream(1090, (trial,)))
        errors_pure += v.verdict != learning.CASE_A
    for trial in range(100):
        src = _ghz_source(n, gen)
        lam = skew.normal_eigenvalues(src.gamma())
        assert 0.5 * (1.0 - lam[0]) > cfg_pure.eps_b  # dense-certified promise
        v = learning.test_pure(src, cfg_pure, RngStream(1091, (trial,)))
        errors_pure += v.verdict != learning.CASE_B

    # bounded-rank tester: r in {0, 1}, 100 Case-A / 100 Case-B
    errors_rank = 0
    for trial in range(100):
        r = trial % 2
        cfg = learning.TestConfig(eps_a=0.0, eps_b=0.8, delta=0.05, r=r,
                                  gaussian_set="rank_set")
        if r == 0:
            src = ExactGaussianSource(_rand_pure(n, gen))
        else:
            q = skew.random_orthogonal(2 * n, gen)
            lams = np.concatenate([[gen.uniform(0.2, 0.8)], np.ones(n - 1)])
            src = ExactGaussianSource(
                states.from_correlation(q @ skew.lambda_blocks(lams) @ q.T)
            )
        v = learning.test_bounded_rank(src, cfg, RngStream(1092, (trial,)))
        errors_rank += v.verdict != learning.CASE_A
    for trial in range(100):
        r = trial % 2
        cfg = learning.TestConfig(eps_a=0.0, eps_b=0.8, delta=0.05, r=r,
                                  gaussian_set="rank_set")
        src = _ghz_source(n, gen)
        lam = skew.normal_eigenvalues(src.gamma())
        assert 1.0 - lam[r] > cfg.eps_b  # dense-certified promise
        v = learning.test_bounded_rank(src, cfg, RngStream(1093, (trial,)))
        errors_rank += v.verdict != learning.CASE_B

    elapsed = time.monotonic() - t0
    _report(
        "9 testing correctness",
        errors_pure <= 10 and errors_rank <= 10 and elapsed <= 1200.0,
        f"pure errors {errors_pure}/200, rank errors {errors_rank}/200 "
        f"(95% required), {elapsed:.1f}s",
    )


# -- 10. robustness ----------------------------------------------------------------------

def test_acceptance_robustness():
    t0 = time.monotonic()
    n, eps, delta, trials, p = 3, 0.3, 0.1, 50, 0.02
    gen = np.random.default_rng(110)
    ok = 0
    for trial in range(trials):
        base = _rand_mixed(n, gen)
        promise = "trace" if trial % 2 == 0 else "relative_entropy"
        res = learning.robustness_experiment(
            base, ("depolarizing", p), eps, delta, RngStream(1100, (trial,)),
            promise=promise,
        )
        ok += res.dense_error <= eps
    need = (0.9 - 3.0 * math.sqrt(0.9 * 0.1 / trials)) * trials
    elapsed = time.monotonic() - t0
    _report(
        "10 robustness",
        ok >= need and elapsed <= 600.0,
        f"{ok}/{trials} within eps (need {need:.1f}), {elapsed:.1f}s",
    )


# -- 11. identity-testing reduction ---------------------------------------------------------

def test_acceptance_reduction():
    t0 = time.monotonic()
    n, eps, delta = 3, 0.5, 0.1
    correct = 0
    mm = ExactGaussianSource(states.product_state([0.0] * n))
    vac = ExactGaussianSource(states.vacuum(n))
    for trial in range(50):
        v = learning.reduce_identity_testing(mm, eps, delta, RngStream(1110, (trial,))).verdict
        correct += v == learning.MAXIMALLY_MIXED
    for trial in range(50):
        v = learning.reduce_identity_testing(vac, eps, delta, RngStream(1111, (trial,))).verdict
        correct += v == learning.FAR_FROM_MAXIMALLY_MIXED
    elapsed = time.monotonic() - t0
    _report(
        "11 reduction demo",
        correct >= 95 and elapsed <= 300.0,
        f"{correct}/100 classified correctly, {elapsed:.1f}s",
    )


def test_acceptance_reduction_zero_correlation():
    # GHZ3 has Γ = 0 exactly and unhalved distance 1.75 from I/8: only the
    # Gaussianity stage can tell it from the maximally mixed state
    t0 = time.monotonic()
    n, eps, delta = 3, 0.5, 0.1
    ghz = DenseSource(dense.ghz3())
    caught = 0
    for trial in range(100):
        v = learning.reduce_identity_testing(ghz, eps, delta, RngStream(1112, (trial,)))
        caught += v.verdict == learning.FAR_FROM_MAXIMALLY_MIXED and v.stage == "tomography_stage"
    elapsed = time.monotonic() - t0
    _report(
        "11 reduction past the correlation matrix",
        caught >= 95 and elapsed <= 300.0,
        f"{caught}/100 far at the tomography stage, {elapsed:.1f}s",
    )
