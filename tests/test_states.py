import itertools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from freeferm import dense, skew, states
from freeferm.errors import (
    NotAValidCorrelationMatrix,
    NotOrthogonal,
    NotPure,
    OddRestriction,
    PfaffianOutOfRange,
    RankExponentOutOfRange,
)


def test_from_correlation_examples():
    s = states.from_correlation(skew.canonical_lambda(2))
    assert np.allclose(s.lambdas, 1.0)
    mixed = states.from_correlation(np.zeros((4, 4)))
    assert np.allclose(mixed.lambdas, 0.0)
    with pytest.raises(NotAValidCorrelationMatrix):
        states.from_correlation(1.5 * skew.canonical_lambda(2))


def test_from_correlation_reads_every_gamma_like(rng):
    s = states.random_gaussian_state(3, "mixed", rng)
    # ndarray, SkewMatrix and GaussianState give one state
    first, *others = (states.from_correlation(g) for g in (s.corr.mat, s.corr, s))
    for again in others:
        assert np.array_equal(again.corr.mat, first.corr.mat)
        assert np.array_equal(again.lambdas, first.lambdas)


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
    for bad in ([1.2], [np.nan, 0.2], [0.0, -np.inf]):
        with pytest.raises(NotAValidCorrelationMatrix, match="finite"):
            states.product_state(bad)


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
    with pytest.raises(OddRestriction):
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
    td = dense.state_metrics(dense.gaussian_to_dense(a), dense.gaussian_to_dense(b))
    assert td == pytest.approx(0.5, abs=1e-12)


def test_distance_bounds_identical_pair(rng):
    s = states.random_gaussian_state(3, "mixed", rng)
    rep = states.distance_bounds(s, s)
    assert rep.lb_infty == 0.0 and rep.ub_mixed == 0.0
    assert rep.fid_lb_sq == 1.0


def test_distance_bounds_pure_saturation_3_modes(rng):
    # the dense oracle trace distance equals half the Frobenius difference
    hits = 0
    for _ in range(20):
        s1 = states.random_gaussian_state(3, "pure", rng)
        s2 = states.random_gaussian_state(3, "pure", rng)
        rep = states.distance_bounds(s1, s2, "pure_pure")
        td = dense.state_metrics(dense.gaussian_to_dense(s1), dense.gaussian_to_dense(s2))
        assert td == pytest.approx(rep.ub_pure, abs=1e-8)
        if rep.ub_pure < 2.0 - 1e-6:
            hits += 1
    assert hits > 0


def test_distance_bounds_match_the_dense_svd():
    # the bounds read the n singular values of delta once each: they agree with
    # the formulas on the 2n singular values of a dense SVD
    for n in (1, 2, 3, 6, 12, 64, 128):
        gen = np.random.default_rng(n)
        pure = states.random_gaussian_state(n, "pure", gen)
        near = states.rotate(pure, scipy.linalg.expm(0.002 * skew.random_skew(2 * n, gen)))
        far = states.random_gaussian_state(n, "pure", gen)
        mixed = states.random_gaussian_state(n, "mixed", gen)
        for mode, pairs in (("pure_pure", ((pure, near), (pure, far))),
                            ("mixed_mixed", ((mixed, near), (pure, mixed))),
                            ("pure_vs_any", ((pure, mixed), (near, far)))):
            for s1, s2 in pairs:
                rep = states.distance_bounds(s1, s2, mode)
                sv = np.linalg.svd(s1.corr.mat - s2.corr.mat, compute_uv=False)
                want = {"lb_infty": min(2.0, sv[0]), "ub_mixed": min(2.0, 0.5 * sv.sum()),
                        "fid_lb_sq": max(0.0, 1.0 - 0.25 * sv.sum()) ** 2}
                if mode == "pure_vs_any":
                    want["ub_pure_vs_any"] = min(2.0, np.sqrt(sv.sum()))
                for field, value in want.items():
                    assert getattr(rep, field) == pytest.approx(value, rel=0.0, abs=1e-12), \
                        (n, mode, field)


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
    # near pure pairs, where (1 - d_1/4)^2 is far from the trivial 0
    informative = 0
    for n in range(1, 7):
        for scale in (1e-3, 1e-2, 1e-1, 1.0):
            for _ in range(3):
                s1 = states.random_gaussian_state(n, "pure", rng)
                q = scipy.linalg.expm(scale * skew.random_skew(2 * n, rng))
                s2 = states.rotate(s1, q)
                rep = states.distance_bounds(s1, s2, "pure_pure")
                ov = states.overlap_pure(s1, s2)
                assert rep.fid_lb_sq <= ov + 1e-12
                informative += rep.fid_lb_sq > 0.5
                d2 = skew.schatten_norm(s1.corr.mat - s2.corr.mat, 2)
                dinf = skew.schatten_norm(s1.corr.mat - s2.corr.mat, np.inf)
                if dinf < 2.0 - 1e-9:
                    assert 1.0 - d2 ** 2 / 16.0 <= ov + 1e-9
    assert informative >= 36
    # one flipped mode: d_1 = 4 and overlap 0, where the bound is exactly 0
    far = states.distance_bounds(states.vacuum(3), states.product_state([-1, 1, 1]), "pure_pure")
    assert far.fid_lb_sq == 0.0


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
    exact = dense.state_metrics(rho, dense.gaussianification(rho))
    assert rep.lb_rank_set <= exact + 1e-9


def test_purify_examples():
    v = states.purify(states.vacuum(2))
    lam = skew.canonical_lambda(2)
    expected = np.block([[lam, np.zeros((4, 4))], [np.zeros((4, 4)), -lam]])
    assert np.abs(v.corr.mat - expected).max() < 1e-9
    mm = states.purify(states.product_state([0.0, 0.0]))
    expected2 = np.block([[np.zeros((4, 4)), np.eye(4)], [-np.eye(4), np.zeros((4, 4))]])
    assert np.abs(mm.corr.mat - expected2).max() < 1e-9
    assert np.all(mm.lambdas >= 1 - 1e-9)


def test_purify_marginal_matches_dense(rng):
    s = states.random_gaussian_state(3, "mixed", rng)
    psi = states.purify(s)
    assert np.all(psi.lambdas >= 1 - 1e-9)
    assert np.array_equal(psi.corr.mat[:6, :6], s.corr.mat)  # exact block copy
    reduced = dense.partial_trace(dense.gaussian_to_dense(psi), 3)
    td = dense.state_metrics(reduced, dense.gaussian_to_dense(s))
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
        td = dense.state_metrics(reduced, dense.gaussian_to_dense(s))
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


def test_parity_and_pfaffian_share_one_range_rule():
    # |Pf| = prod(lambdas) is about exp(-851) for this drawn mixed state: no
    # normal float, so both refuse it; a zero lambda gives exactly 0 for both
    s = states.random_gaussian_state(800, "mixed", np.random.default_rng(800))
    assert np.log(s.lambdas).sum() < np.log(np.finfo(float).tiny)
    both = (states.parity, lambda t: skew.pfaffian(t.corr))
    for pf in both:
        with pytest.raises(PfaffianOutOfRange, match="outside the float range"):
            pf(s)
    zero = states.product_state([-1.0, 0.0])  # det q = -1, and the zero keeps no sign
    assert [repr(pf(zero)) for pf in both] == ["0.0", "0.0"]


def test_random_gaussian_state_keeps_its_drawn_normal_form():
    # the state is built from the (q, lambdas) it draws, pairs in lambda order,
    # and LAPACK's normal form of its matrix agrees with it
    for n in range(1, 129):
        for kind in ("pure", "mixed"):
            got = states.random_gaussian_state(n, kind, np.random.default_rng(n))
            gen = np.random.default_rng(n)
            lams = np.ones(n) if kind == "pure" else gen.uniform(0.0, 1.0, size=n)
            q = skew.random_orthogonal(2 * n, gen)
            order = np.argsort(lams, kind="stable")
            assert np.array_equal(got.lambdas, lams[order]), (n, kind)
            assert np.array_equal(got.nf.q[:, 0::2], q[:, 2 * order]), (n, kind)
            assert np.array_equal(got.nf.q[:, 1::2], q[:, 2 * order + 1]), (n, kind)
            want = got.nf.reconstruct()
            assert got.corr.mat.tobytes() == skew.SkewMatrix.from_upper(want).mat.tobytes()
            lapack = skew.normal_form(got.corr)
            assert lapack.det_sign == got.nf.det_sign, (n, kind)
            assert np.abs(lapack.lambdas - got.lambdas).max() <= 1e-12, (n, kind)


def test_from_normal_form_is_the_reconstructed_state():
    # the one normal-form-to-state constructor keeps its normal form, and
    # from_correlation's clamp branch and clip_to_valid build through it
    for n in (1, 2, 3, 4, 8, 16, 32, 64, 128):
        gen = np.random.default_rng(n)
        q = skew.random_orthogonal(2 * n, gen)
        over = skew.NormalForm(q, 1.0 + gen.uniform(1e-9, 1e-7, size=n), 1).reconstruct()
        nf_over = skew.normal_form(over)
        assert nf_over.lambdas[-1] > 1.0, n
        clamped = nf_over.with_lambdas(np.minimum(nf_over.lambdas, 1.0))
        for nf in (skew.normal_form(skew.NormalForm(q, np.ones(n), 1).reconstruct()),
                   skew.normal_form(
                       skew.NormalForm(q, gen.uniform(0.0, 1.0, size=n), 1).reconstruct()),
                   clamped):
            s = states.from_normal_form(nf)
            assert s.nf is nf
            assert s.corr.mat.tobytes() == skew.SkewMatrix(nf.reconstruct()).mat.tobytes(), n
        want = states.from_normal_form(clamped).corr.mat.tobytes()
        for built in (states.from_correlation(over), states.clip_to_valid(over)):
            assert built.corr.mat.tobytes() == want, n
            assert np.array_equal(built.lambdas, clamped.lambdas)


def test_frame_is_built_on_first_use(frames):
    # the bound query's pure pair is read through its lambdas and matrices
    # alone, so no frame is formed (LAPACK dorghr); the mixed input forms one
    # for parity and purify together, and a second read forms none
    n, gen = 128, np.random.default_rng(128)
    q = skew.random_orthogonal(2 * n, gen)
    rot = scipy.linalg.expm(0.005 * skew.random_skew(2 * n, gen))
    s1, s2 = (states.from_correlation(skew.NormalForm(o, np.ones(n), 1).reconstruct())
              for o in (q, rot @ q))
    assert s1.is_pure() and s2.is_pure()
    states.overlap_pure(s1, s2)
    states.distance_bounds(s1, s2, "pure_pure")
    assert not frames
    g_mixed = skew.NormalForm(
        skew.random_orthogonal(2 * n, gen), gen.uniform(size=n), 1).reconstruct()
    mixed = states.from_correlation(g_mixed)
    states.parity(mixed)
    states.purify(mixed)
    assert len(frames) == 1
    assert mixed.nf is mixed.nf
    assert len(frames) == 1
    for s in (s1, s2, mixed):
        assert np.array_equal(s.nf.lambdas, s.lambdas)
        assert np.abs(s.nf.reconstruct() - s.corr.mat).max() <= 1e-12
    assert len(frames) == 3


def test_round_off_overshoot_stays_in_place(frames):
    # a drawn pure state's normal eigenvalues pass 1 at round-off; the one clamp
    # rule of from_correlation and clip_to_valid clamps them in lambda only,
    # stores the caller's matrix as it is and forms no frame
    for n in (8, 64, 128):
        overshoots = 0
        for k in range(3):
            g = states.random_gaussian_state(n, "pure", np.random.default_rng([n, k])).corr.mat
            overshoots += int(skew.normal_eigenvalues(g)[-1] > 1.0)
            for s in (states.from_correlation(g), states.clip_to_valid(g)):
                assert s.corr.mat.tobytes() == skew.SkewMatrix(g).mat.tobytes(), (n, k)
                assert np.all(s.lambdas <= 1.0), (n, k)
        assert overshoots, n
    assert not frames


def test_round_off_copy_reads_zero_in_every_field():
    # a pure state against a copy that differs from it only at round-off: every
    # singular value of the difference is below ZERO_CLAMP, so every distance
    # bound is exactly 0 and the fidelity bound exactly 1 (the CLI pins n = 1)
    for n in (2, 3, 8, 64):
        s = states.random_gaussian_state(n, "pure", np.random.default_rng(n))
        copy = skew.normal_form(s.corr).with_lambdas(np.ones(n)).reconstruct()
        assert 0.0 < np.abs(copy - s.corr.mat).max() <= 1e-13, n
        for mode in ("pure_pure", "mixed_mixed", "pure_vs_any"):
            r = states.distance_bounds(s, skew.SkewMatrix.from_upper(copy), mode)
            assert r.lb_infty == r.ub_mixed == 0.0 and r.fid_lb_sq == 1.0, (n, mode)
            assert r.ub_pure in (None, 0.0) and r.ub_pure_vs_any in (None, 0.0), (n, mode)


def test_validation_round_trip(rng):
    s = states.random_gaussian_state(4, "mixed", rng)
    again = states.from_correlation(s.nf.reconstruct())
    assert np.abs(again.corr.mat - s.corr.mat).max() <= 1e-9


def test_frame_slot_keeps_a_normal_form_and_forms_a_reduction_once(frames):
    # a NormalForm frame is the state's nf as it is; a Reduction frame is
    # replaced by its normal form, one dorghr on the first read of nf
    nf = states.random_gaussian_state(6, "mixed", np.random.default_rng(6)).nf
    corr = skew.SkewMatrix.from_upper(nf.reconstruct())
    s = states.GaussianState(corr, nf)
    assert s.nf is nf and s.lambdas is nf.lambdas
    red = skew.reduction(corr)
    s = states.GaussianState(corr, red)
    assert s.lambdas is red.lambdas and not frames
    formed = s.nf
    assert isinstance(formed, skew.NormalForm) and len(frames) == 1
    assert s.nf is formed and len(frames) == 1
    assert formed.lambdas is red.lambdas
    with pytest.raises(TypeError):
        states.GaussianState(corr)


def test_states_built_in_code_are_not_scanned(rng, scans):
    # a caller's array is scanned once where it enters; states the lab builds are not
    s = states.from_correlation(skew.random_skew(8, rng) * 0.1)
    assert len(scans) == 1
    scans.clear()
    states.purify(s)
    states.from_normal_form(s.nf)
    states.rotate(s, skew.random_orthogonal(8, rng))
    states.random_gaussian_state(4, "mixed", rng)
    states.product_state([0.5, 1.0])
    assert not scans


def test_each_caller_matrix_is_scanned_once(rng, scans):
    # the bound query: three arrays in, one scan each, nothing re-scanned after
    n = 16
    q = skew.random_orthogonal(2 * n, rng)
    g_pure = skew.NormalForm(q, np.ones(n), 1).reconstruct()
    rot = scipy.linalg.expm(0.005 * skew.random_skew(2 * n, rng))
    g_rotated = skew.NormalForm(rot @ q, np.ones(n), 1).reconstruct()
    g_mixed = skew.NormalForm(
        skew.random_orthogonal(2 * n, rng), rng.uniform(size=n), 1).reconstruct()
    s1, s2, s3 = (states.from_correlation(g) for g in (g_pure, g_rotated, g_mixed))
    states.overlap_pure(s1, s2)
    states.distance_bounds(s1, s2, "pure_pure")
    states.parity(s3)
    states.purify(s3)
    assert len(scans) == 3
    for mode in ("pure_pure", "pure_vs_any"):
        scans.clear()
        states.distance_bounds(g_pure, g_rotated, mode)
        assert len(scans) == 2, mode
    scans.clear()
    states.nongaussianity_bounds(g_mixed, 2)
    assert len(scans) == 1


def _residual(m):
    return float(np.abs(m + m.T).max())


def test_purify_block_is_exactly_antisymmetric(from_upper_inputs, scans):
    # purify stores its 4n x 4n block as it is, with no check and no mirror:
    # the stored matrix is antisymmetric bit for bit
    for n in (1, 2, 3, 8, 32, 128):
        gen = np.random.default_rng(n)
        for kind in ("pure", "mixed"):
            s = states.random_gaussian_state(n, kind, gen)
            from_upper_inputs.clear()
            psi = states.purify(s)
            assert not from_upper_inputs, (n, kind)
            m = psi.corr.mat
            assert m.shape == (4 * n, 4 * n)
            assert np.array_equal(m, -m.T), (n, kind)
            assert not m.flags.writeable
    assert not scans


def test_normal_form_products_are_antisymmetric_to_round_off():
    # Q Lambda Q^T of a drawn (q, lambda) and of pure, mixed and clamped normal
    # forms, stored unchecked by random_gaussian_state and from_normal_form
    for n in (1, 2, 8, 64, 256, 512):
        gen = np.random.default_rng(n)
        q = skew.random_orthogonal(2 * n, gen)
        for lams in (np.ones(n), gen.uniform(0.0, 1.0, size=n),
                     1.0 + gen.uniform(1e-9, 1e-7, size=n)):
            g = skew.NormalForm(q, lams, 1).reconstruct()
            assert _residual(g) <= 1e-13, n
            nf = skew.normal_form(g)
            nf = nf.with_lambdas(np.minimum(nf.lambdas, 1.0))
            assert _residual(nf.reconstruct()) <= 1e-13, n


def test_rotated_matrix_is_antisymmetric_to_round_off(from_upper_inputs):
    for n in (1, 2, 8, 32, 128):
        gen = np.random.default_rng(n)
        s = states.random_gaussian_state(n, "mixed", gen)
        from_upper_inputs.clear()
        states.rotate(s, skew.random_orthogonal(2 * n, gen))
        (m,) = from_upper_inputs
        assert _residual(m) <= 1e-13, n
