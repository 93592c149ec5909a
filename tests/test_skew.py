import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeferm import skew
from freeferm.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NotAntisymmetric,
    OddRestriction,
    PfaffianOutOfRange,
    RankTooLarge,
    UnsupportedP,
)


def test_skewmatrix_rejects_odd_and_symmetric():
    with pytest.raises(DimensionMismatch):
        skew.SkewMatrix(np.zeros((3, 3)))
    with pytest.raises(NotAntisymmetric):
        skew.SkewMatrix(np.eye(4))


def test_skewmatrix_storage_is_exact():
    m = np.array([[1e-13, 0.5], [-0.5 + 1e-13, -1e-13]])
    s = skew.SkewMatrix(m)
    assert np.array_equal(s.mat, -s.mat.T)
    assert np.all(np.diag(s.mat) == 0.0)


def test_pfaffian_2x2():
    assert skew.pfaffian(np.array([[0.0, 0.7], [-0.7, 0.0]])) == pytest.approx(0.7)


def test_pfaffian_canonical_blocks():
    assert skew.pfaffian(skew.canonical_lambda(3)) == pytest.approx(1.0)
    assert skew.pfaffian(skew.lambda_blocks([0.2, -0.4, 0.5])) == pytest.approx(-0.04)


def test_pfaffian_squares_to_determinant(rng):
    # oracle: dense LU determinant, independent of the elimination path
    for _ in range(50):
        a = skew.random_skew(8, rng)
        pf = skew.pfaffian(a)
        assert pf ** 2 == pytest.approx(np.linalg.det(a), rel=1e-10)


def test_pfaffian_congruence(rng):
    for _ in range(25):
        a = skew.random_skew(6, rng)
        b = rng.normal(size=(6, 6))
        lhs = skew.pfaffian(b @ a @ b.T)
        rhs = np.linalg.det(b) * skew.pfaffian(a)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_pfaffian_singular():
    m = np.zeros((4, 4))
    m[0, 1], m[1, 0] = 1.0, -1.0
    assert skew.pfaffian(m) == 0.0


def _pfaffian_parlett_reid(a):
    """Reference: skew Parlett-Reid elimination with partial pivoting."""
    m = np.array(a, dtype=float)
    d = m.shape[0]
    pf = 1.0
    for k in range(0, d - 2, 2):
        ip = k + 1 + int(np.argmax(np.abs(m[k + 1:, k])))
        if m[ip, k] == 0.0:
            return 0.0
        if ip != k + 1:
            m[[k + 1, ip], :] = m[[ip, k + 1], :]
            m[:, [k + 1, ip]] = m[:, [ip, k + 1]]
            pf = -pf
        piv = m[k, k + 1]
        pf *= piv
        tau = m[k, k + 2:] / piv
        w = m[k + 1, k + 2:]
        m[k + 2:, k + 2:] += np.outer(w, tau) - np.outer(tau, w)
    return pf * m[d - 2, d - 1]


@st.composite
def _pfaffian_inputs(draw):
    n = draw(st.integers(1, 20))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    kind = draw(st.sampled_from(["random", "sparse", "blocks", "zero_blocks"]))
    if kind in ("random", "sparse"):
        a = skew.random_skew(2 * n, gen, scale=scale)
        if kind == "sparse":  # exact zeros below the subdiagonal leave some tau = 0
            keep = np.triu(gen.uniform(size=a.shape) < 0.3)
            a = a * (keep | keep.T)
        return a
    lams = scale * gen.uniform(-1.0, 1.0, size=n)  # negative blocks flip the sign
    if kind == "zero_blocks":
        lams *= gen.uniform(size=n) < 0.5
    blocks = skew.lambda_blocks(lams)
    layout = draw(st.sampled_from(["plain", "permuted", "rotated"]))
    if layout == "permuted":
        perm = gen.permutation(2 * n)
        return blocks[np.ix_(perm, perm)]
    if layout == "rotated":
        o = skew.random_orthogonal(2 * n, gen)
        return o @ blocks @ o.T
    return blocks


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(_pfaffian_inputs(), st.integers(0, 2 ** 32 - 1))
def test_pfaffian_properties(a, seed):
    a = skew.as_skew_array(a, tol=1e-6)
    n = a.shape[0] // 2
    # |Pf| <= sigma_max^n; round-off of either method is a tiny multiple of it
    size = skew.schatten_norm(a, np.inf) ** n
    pf = skew.pfaffian(a)
    assert pf == pytest.approx(_pfaffian_parlett_reid(a), rel=1e-10, abs=1e-12 * size)
    assert pf ** 2 == pytest.approx(np.linalg.det(a), rel=1e-10, abs=1e-12 * size ** 2)
    gen = np.random.default_rng(seed)
    b = skew.random_orthogonal(2 * n, gen) * gen.uniform(0.5, 2.0, size=2 * n)
    bab = b @ a @ b.T
    assert skew.pfaffian(0.5 * (bab - bab.T)) == pytest.approx(
        np.linalg.det(b) * pf, rel=1e-9, abs=1e-12 * (4.0 ** n) * size)


def test_pfaffian_range_is_reported():
    gen = np.random.default_rng(7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1.0, 1e-3):  # |Pf| is about exp(+1474) and exp(-1979)
            with pytest.raises(PfaffianOutOfRange):
                skew.pfaffian(skew.random_skew(1000, gen, scale=scale))
        # entries of size 1/sqrt(dim) keep the d = 1000 Pfaffian finite
        a = skew.random_skew(1000, gen, scale=1000 ** -0.5)
        pf = skew.pfaffian(a)
    sign, log_det = np.linalg.slogdet(a)
    assert sign > 0 and np.isfinite(pf) and pf != 0.0
    assert 2.0 * np.log(abs(pf)) == pytest.approx(log_det, rel=1e-10, abs=1e-9)


def test_restricted_pfaffian_conventions():
    lam = skew.canonical_lambda(2)
    assert skew.restricted_pfaffian(lam, []) == 1.0
    assert skew.restricted_pfaffian(lam, [0, 1]) == pytest.approx(1.0)
    assert skew.restricted_pfaffian(lam, [0, 2]) == 0.0
    with pytest.raises(OddRestriction):
        skew.restricted_pfaffian(lam, [0])
    with pytest.raises(IndexOutOfRange):
        skew.restricted_pfaffian(lam, [0, 4])
    with pytest.raises(IndexOutOfRange):
        skew.restricted_pfaffian(lam, [1, 0])


def test_normal_form_canonical_and_zero():
    nf = skew.normal_form(skew.canonical_lambda(3))
    assert np.allclose(nf.lambdas, [1.0, 1.0, 1.0])
    nf0 = skew.normal_form(np.zeros((4, 4)))
    assert np.allclose(nf0.lambdas, [0.0, 0.0])
    assert np.abs(nf0.reconstruct()).max() == 0.0


def test_normal_form_round_trip(rng):
    # construct-then-recover oracle
    mu = np.array([0.2, 0.5, 0.9])
    o = skew.random_orthogonal(6, rng)
    src = o @ skew.lambda_blocks(mu) @ o.T
    nf = skew.normal_form(src)
    assert np.allclose(nf.lambdas, mu, atol=1e-10)
    assert np.abs(nf.reconstruct() - src).max() < 1e-9
    assert skew.schatten_norm(nf.q.T @ nf.q - np.eye(6), np.inf) < 1e-10
    assert nf.det_sign in (-1, 1)
    assert np.linalg.det(nf.q) == pytest.approx(nf.det_sign, abs=1e-8)


def test_normal_form_degenerate_lambdas(rng):
    mu = np.array([0.5, 0.5, 0.5, 0.0])
    o = skew.random_orthogonal(8, rng)
    src = o @ skew.lambda_blocks(mu) @ o.T
    nf = skew.normal_form(src)
    assert np.allclose(np.sort(nf.lambdas), np.sort(mu), atol=1e-10)
    assert np.abs(nf.reconstruct() - src).max() < 1e-9


def test_normal_form_sorted_ascending(rng):
    for _ in range(10):
        a = skew.random_skew(10, rng)
        lams = skew.normal_form(a).lambdas
        assert np.all(np.diff(lams) >= 0.0)
        assert np.all(lams >= 0.0)


@st.composite
def _skew_inputs(draw):
    n = draw(st.integers(1, 32))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["random", "pure", "repeated", "zero_blocks", "zero"]))
    if kind == "random":
        return skew.random_skew(2 * n, gen, scale=draw(st.sampled_from([1e-3, 1.0, 1e3])))
    if kind == "zero":
        return np.zeros((2 * n, 2 * n))
    lams = {
        "pure": np.ones(n),
        "repeated": gen.choice(gen.uniform(0.0, 1.0, size=2), size=n),
        "zero_blocks": gen.uniform(0.0, 1.0, size=n) * (gen.uniform(size=n) < 0.5),
    }[kind]
    o = skew.random_orthogonal(2 * n, gen)
    return o @ skew.lambda_blocks(lams) @ o.T


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(_skew_inputs())
def test_normal_form_properties(a):
    a = skew.as_skew_array(a, tol=1e-9)
    tol = 1e-12 * max(1.0, skew.schatten_norm(a, np.inf))
    nf = skew.normal_form(a)
    assert np.abs(nf.reconstruct() - a).max() <= tol
    assert np.abs(nf.q.T @ nf.q - np.eye(a.shape[0])).max() <= 1e-12
    assert np.all(np.diff(nf.lambdas) >= 0.0) and np.all(nf.lambdas >= 0.0)
    assert np.all((nf.lambdas == 0.0) | (nf.lambdas >= skew.ZERO_CLAMP))
    assert np.abs(nf.lambdas - skew.normal_eigenvalues(a)).max() <= tol
    assert nf.det_sign == np.sign(np.linalg.det(nf.q))


def test_normal_form_non_finite_input():
    # the antisymmetry residual of either pair is NaN, which no tolerance rejects
    for upper, lower in ((np.nan, np.nan), (np.inf, -np.inf)):
        a = skew.canonical_lambda(2)
        a[0, 3], a[3, 0] = upper, lower
        for build in (skew.SkewMatrix, skew.normal_form):
            with pytest.raises(NotAntisymmetric, match="finite"):
                build(a)


def test_schatten_norms():
    lam = skew.canonical_lambda(2)
    assert skew.schatten_norm(lam, 1) == pytest.approx(4.0)
    assert skew.schatten_norm(lam, np.inf) == pytest.approx(1.0)
    with pytest.raises(UnsupportedP):
        skew.schatten_norm(lam, 3)


def test_schatten_frobenius_identity(rng):
    a = skew.random_skew(8, rng)
    assert skew.schatten_norm(a, 2) ** 2 == pytest.approx((a ** 2).sum(), rel=1e-10)


def test_ky_fan():
    lam3 = skew.canonical_lambda(3)
    assert skew.ky_fan_norm(lam3, 2) == pytest.approx(2.0)
    assert skew.ky_fan_norm(lam3, 6) == pytest.approx(skew.schatten_norm(lam3, 1))
    assert skew.ky_fan_norm(skew.lambda_blocks([0.2, 0.9]), 2) == pytest.approx(1.8)
    with pytest.raises(RankTooLarge):
        skew.ky_fan_norm(lam3, 7)


def test_normal_eigenvalue_gap(rng):
    lam2 = skew.canonical_lambda(2)
    assert skew.normal_eigenvalue_gap(lam2, lam2) == 0.0
    assert skew.normal_eigenvalue_gap(lam2, np.zeros((4, 4))) == pytest.approx(1.0)
    with pytest.raises(DimensionMismatch):
        skew.normal_eigenvalue_gap(lam2, skew.canonical_lambda(3))
    for _ in range(25):
        a, b = skew.random_skew(8, rng), skew.random_skew(8, rng)
        gap = skew.normal_eigenvalue_gap(a, b)
        assert gap <= skew.schatten_norm(a - b, np.inf) + 1e-10


def test_antisymmetric_inequality_fuzz(rng):
    # ||C||_1^2 + 2 tr(L C L C) >= 2 ||C||_2^2 + tr(C L)^2
    for _ in range(200):
        n = rng.integers(1, 6)
        c = skew.random_skew(2 * n, rng)
        lam = skew.canonical_lambda(n)
        lhs = skew.schatten_norm(c, 1) ** 2 + 2.0 * np.trace(lam @ c @ lam @ c)
        rhs = 2.0 * skew.schatten_norm(c, 2) ** 2 + np.trace(c @ lam) ** 2
        assert lhs >= rhs - 1e-9

