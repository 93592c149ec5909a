import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeferm import dense, skew, states
from freeferm.errors import (
    LambdaOutOfRange,
    NotAValidCorrelationMatrix,
    NotOrthogonal,
    NotPure,
    OddSubset,
    RankExponentOutOfRange,
)


def test_from_correlation_examples():
    s = states.from_correlation(skew.canonical_lambda(2))
    assert np.allclose(s.lambdas, 1.0)
    mixed = states.from_correlation(np.zeros((4, 4)))
    assert np.allclose(mixed.lambdas, 0.0)
    with pytest.raises(NotAValidCorrelationMatrix):
        states.from_correlation(1.5 * skew.canonical_lambda(2))


def test_from_correlation_clamps_tiny_overshoot():
    s = states.from_correlation((1.0 + 5e-7) * skew.canonical_lambda(2))
    assert np.all(s.lambdas <= 1.0)
    # stored matrix re-synthesized from the clamped form
    assert np.abs(s.corr.mat - skew.canonical_lambda(2)).max() < 1e-9


def test_product_state():
    v = states.product_state([1, 1, 1])
    assert np.array_equal(v.corr.mat, skew.canonical_lambda(3))
    c = states.product_state([0.0])
    assert np.abs(c.corr.mat).max() == 0.0
    one = states.product_state([-1.0])
    assert np.array_equal(one.corr.mat, -skew.canonical_lambda(1))
    with pytest.raises(LambdaOutOfRange):
        states.product_state([1.2])


def test_rotate(rng):
    s = states.random_gaussian_state(3, "mixed", rng)
    same = states.rotate(s, np.eye(6))
    assert np.allclose(same.corr.mat, s.corr.mat)
    q = skew.random_orthogonal(6, rng)
    rotated = states.rotate(states.vacuum(3), q)
    assert rotated.is_pure()
    r2 = states.rotate(s, q)
    assert np.allclose(
        skew.normal_form(r2.corr).lambdas, skew.normal_form(s.corr).lambdas, atol=1e-10
    )
    with pytest.raises(NotOrthogonal):
        states.rotate(s, 1.01 * np.eye(6))


def test_wick_examples():
    s = states.product_state([0.4, 0.7])
    assert states.wick_expectation(s, [0, 1]) == pytest.approx(0.4j)
    assert states.wick_expectation(s, []) == pytest.approx(1.0)
    with pytest.raises(OddSubset):
        states.wick_expectation(s, [0])


def test_wick_matches_dense(rng):
    # dense oracle: Tr(gamma_S rho) from explicit Jordan-Wigner operators
    s = states.random_gaussian_state(4, "mixed", rng)
    rho = dense.gaussian_to_dense(s)
    for size in (2, 4, 6):
        for sub in itertools.combinations(range(8), size):
            lhs = states.wick_expectation(s, list(sub))
            rhs = dense.majorana_product_expectation(rho, list(sub))
            assert lhs == pytest.approx(rhs, abs=1e-9)


def test_parity():
    assert states.parity(states.vacuum(3)) == pytest.approx(1.0)
    assert states.parity(states.product_state([-1, 1])) == pytest.approx(-1.0)
    assert states.parity(states.product_state([0, 0])) == 0.0


def test_parity_matches_dense(rng):
    s = states.random_gaussian_state(3, "mixed", rng)
    rho = dense.gaussian_to_dense(s)
    zzz = np.diag([(-1.0) ** bin(x).count("1") for x in range(8)]).astype(complex)
    assert states.parity(s) == pytest.approx(np.trace(zzz @ rho.rho).real, abs=1e-9)


def test_overlap_examples(rng):
    v = states.vacuum(1)
    one = states.product_state([-1.0])
    assert states.overlap_pure(v, v) == pytest.approx(1.0)
    assert states.overlap_pure(v, one) == pytest.approx(0.0)
    with pytest.raises(NotPure):
        states.overlap_pure(v, states.product_state([0.3]))


def test_overlap_matches_dense(rng):
    for n in (2, 3, 5):
        s1 = states.random_gaussian_state(n, "pure", rng)
        s2 = states.random_gaussian_state(n, "pure", rng)
        # dense |<psi1|psi2>|^2 for pure states is Tr(rho1 rho2), exact
        fid = float(np.trace(
            dense.gaussian_to_dense(s1).rho @ dense.gaussian_to_dense(s2).rho
        ).real)
        assert states.overlap_pure(s1, s2) == pytest.approx(fid, abs=1e-9)


def test_opposite_parity_zero_overlap(rng):
    for _ in range(20):
        s1 = states.random_gaussian_state(3, "pure", rng)
        s2 = states.random_gaussian_state(3, "pure", rng)
        if states.parity(s1) * states.parity(s2) < -0.5:
            assert states.overlap_pure(s1, s2) <= 1e-9


def test_distance_bounds_single_mode_saturation():
    a = states.product_state([0.3])
    b = states.product_state([0.8])
    rep = states.distance_bounds(a, b, "mixed_mixed")
    assert rep.lb_infty == pytest.approx(0.5)
    assert rep.ub_mixed == pytest.approx(0.5)
    # exact trace distance of the two diagonal states is |0.3 - 0.8| = 0.5
    td = dense.state_metrics(dense.gaussian_to_dense(a), dense.gaussian_to_dense(b)).trace_dist
    assert td == pytest.approx(0.5, abs=1e-12)


def test_distance_bounds_identical_pair(rng):
    s = states.random_gaussian_state(3, "mixed", rng)
    rep = states.distance_bounds(s, s)
    assert rep.lb_infty == 0.0 and rep.ub_mixed == 0.0
    assert rep.fid_lb_sq == 1.0 and rep.fid_lb_linear == 1.0 and rep.fid_lb_frobenius == 1.0


def test_distance_bounds_pure_saturation_3_modes(rng):
    # the dense oracle trace distance equals half the Frobenius difference
    hits = 0
    for _ in range(20):
        s1 = states.random_gaussian_state(3, "pure", rng)
        s2 = states.random_gaussian_state(3, "pure", rng)
        rep = states.distance_bounds(s1, s2, "pure_pure")
        td = dense.state_metrics(
            dense.gaussian_to_dense(s1), dense.gaussian_to_dense(s2)
        ).trace_dist
        assert td == pytest.approx(rep.ub_pure, abs=1e-8)
        if rep.ub_pure < 2.0 - 1e-6:
            hits += 1
    assert hits > 0


def test_distance_bounds_purity_checks(rng):
    mixed = states.random_gaussian_state(2, "mixed", rng)
    pure = states.random_gaussian_state(2, "pure", rng)
    with pytest.raises(NotPure):
        states.distance_bounds(mixed, pure, "pure_pure")
    with pytest.raises(NotPure):
        states.distance_bounds(mixed, pure, "pure_vs_any")
    rep = states.distance_bounds(pure, mixed, "pure_vs_any")
    assert rep.ub_pure_vs_any is not None


def test_fidelity_bounds_against_overlap(rng):
    for _ in range(20):
        s1 = states.random_gaussian_state(3, "pure", rng)
        s2 = states.random_gaussian_state(3, "pure", rng)
        rep = states.distance_bounds(s1, s2, "pure_pure")
        ov = states.overlap_pure(s1, s2)
        assert rep.fid_lb_frobenius <= ov + 1e-9
        d2 = skew.schatten_norm(s1.corr.mat - s2.corr.mat, 2)
        dinf = skew.schatten_norm(s1.corr.mat - s2.corr.mat, np.inf)
        if dinf < 2.0 - 1e-9:
            assert 1.0 - d2 ** 2 / 16.0 <= ov + 1e-9


def test_nongaussianity_bounds():
    pure = states.vacuum(3)
    rep = states.nongaussianity_bounds(pure.corr, 0)
    assert rep.lb_rank_set == pytest.approx(0.0, abs=1e-9)
    assert rep.lb_all_gaussian == pytest.approx(0.0, abs=1e-9)
    assert rep.ub_pure_set == pytest.approx(0.0, abs=1e-4)

    g = skew.lambda_blocks([0.5, 1.0, 1.0])
    rep2 = states.nongaussianity_bounds(g, 0)
    assert rep2.lb_rank_set == pytest.approx(0.5)
    assert rep2.lb_all_gaussian == pytest.approx(0.25)
    with pytest.raises(RankExponentOutOfRange):
        states.nongaussianity_bounds(g, 3)


def test_nongaussianity_ghz_certificate():
    # dense oracle supplies both sides of the inequality
    rho = dense.ghz3()
    gamma = dense.correlation_matrix(rho)
    rep = states.nongaussianity_bounds(gamma, 0)
    g = dense.gaussianification(rho).g
    exact = dense.state_metrics(rho, dense.gaussian_to_dense(g)).trace_dist
    assert rep.lb_rank_set <= exact + 1e-9


def test_purify_examples():
    v = states.purify(states.vacuum(2))
    lam = skew.canonical_lambda(2)
    expected = np.block([[lam, np.zeros((4, 4))], [np.zeros((4, 4)), -lam]])
    assert np.abs(v.corr.mat - expected).max() < 1e-9
    mm = states.purify(states.product_state([0.0, 0.0]))
    expected2 = np.block([[np.zeros((4, 4)), np.eye(4)], [-np.eye(4), np.zeros((4, 4))]])
    assert np.abs(mm.corr.mat - expected2).max() < 1e-9
    assert mm.is_pure(tol=1e-9)


def test_purify_marginal_matches_dense(rng):
    s = states.random_gaussian_state(3, "mixed", rng)
    psi = states.purify(s)
    assert psi.is_pure(tol=1e-9)
    assert np.array_equal(psi.corr.mat[:6, :6], s.corr.mat)  # exact block copy
    reduced = dense.partial_trace(dense.gaussian_to_dense(psi), 3)
    td = dense.state_metrics(reduced, dense.gaussian_to_dense(s)).trace_dist
    assert td < 1e-9


@st.composite
def _mixed_states(draw, max_modes=12):
    n = draw(st.integers(1, max_modes))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lams = {
        "pure": np.ones(n),
        "mixed": gen.uniform(0.0, 1.0, size=n),
        "zero_lambdas": gen.uniform(0.0, 1.0, size=n) * (gen.uniform(size=n) < 0.5),
        "maximally_mixed": np.zeros(n),
    }[draw(st.sampled_from(["pure", "mixed", "zero_lambdas", "maximally_mixed"]))]
    o = skew.random_orthogonal(2 * n, gen)
    return states.from_correlation(o @ skew.lambda_blocks(lams) @ o.T)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(_mixed_states())
def test_purify_properties(s):
    psi = states.purify(s)
    n = s.n
    assert np.array_equal(psi.corr.mat[:2 * n, :2 * n], s.corr.mat)  # exact block copy
    assert np.array_equal(psi.lambdas, np.ones(2 * n))
    assert np.abs(psi.nf.reconstruct() - psi.corr.mat).max() <= 1e-12
    assert np.abs(psi.nf.q.T @ psi.nf.q - np.eye(4 * n)).max() <= 1e-12
    assert psi.nf.det_sign == np.sign(np.linalg.det(psi.nf.q))
    assert states.parity(psi) == pytest.approx(skew.pfaffian(psi.corr), abs=1e-10)
    if n <= 4:
        reduced = dense.partial_trace(dense.gaussian_to_dense(psi), n)
        td = dense.state_metrics(reduced, dense.gaussian_to_dense(s)).trace_dist
        assert td < 1e-9


@st.composite
def _states_by_constructor(draw):
    s = draw(_mixed_states(max_modes=16))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    build = draw(st.sampled_from(["from_correlation", "clip_to_valid", "rotate", "purify"]))
    if build == "clip_to_valid":  # lambdas up to 1.5 are clipped back to 1
        return states.clip_to_valid(1.5 * s.corr.mat)
    if build == "rotate":  # random_orthogonal draws either sign of det
        return states.rotate(s, skew.random_orthogonal(2 * s.n, gen))
    if build == "purify":
        return states.purify(s)
    return s


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(_states_by_constructor())
def test_parity_matches_pfaffian(s):
    assert states.parity(s) == pytest.approx(skew.pfaffian(s.corr), abs=1e-10)


def test_rank_exponent():
    assert states.rank_exponent(states.vacuum(4), 1e-6) == 0
    assert states.rank_exponent(states.product_state([0, 0, 0]), 1e-6) == 3
    assert states.rank_exponent(states.product_state([1, 0.5, 1]), 1e-6) == 1


def test_pnp_conversions(rng):
    one = states.PnpCorrelation(1, np.array([[1.0]]))
    assert np.allclose(states.pnp_to_gamma(one).mat, -skew.canonical_lambda(1))
    empty = states.PnpCorrelation(3, np.zeros((3, 3)))
    assert np.allclose(states.pnp_to_gamma(empty).mat, skew.canonical_lambda(3))

    # eigenvalue relation |1 - 2 D_j|, oracle = Hermitian eigensolver
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u, _ = np.linalg.qr(g)
    d = rng.uniform(0, 1, size=4)
    c = states.PnpCorrelation(4, (u * d) @ u.conj().T)
    lams = skew.normal_form(states.pnp_to_gamma(c)).lambdas
    assert np.allclose(np.sort(np.abs(1.0 - 2.0 * d)), lams, atol=1e-10)


def test_pnp_validation():
    with pytest.raises(states.NotHermitian):
        states.PnpCorrelation(2, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(states.OccupationOutOfRange):
        states.PnpCorrelation(1, np.array([[1.5]]))


def test_pnp_norm_transfer(rng):
    assert states.pnp_norm_transfer(np.zeros((3, 3)), 1) == 0.0
    c = np.diag([0.25, 0.0, 0.0]).astype(complex)
    assert states.pnp_norm_transfer(c, np.inf) == pytest.approx(1.0)
    for p in (1, 2, np.inf):
        d1 = rng.uniform(0, 1, size=3)
        d2 = rng.uniform(0, 1, size=3)
        c1 = states.PnpCorrelation(3, np.diag(d1).astype(complex))
        c2 = states.PnpCorrelation(3, np.diag(d2).astype(complex))
        lhs = skew.schatten_norm(
            states.pnp_to_gamma(c1).mat - states.pnp_to_gamma(c2).mat, p
        )
        assert lhs <= states.pnp_norm_transfer(np.diag(d1 - d2), p) + 1e-9


def test_validation_round_trip(rng):
    s = states.random_gaussian_state(4, "mixed", rng)
    again = states.from_correlation(s.nf.reconstruct())
    assert np.abs(again.corr.mat - s.corr.mat).max() <= 1e-9
