import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from freeferm import skew, states
from freeferm.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NotAntisymmetric,
    OddRestriction,
    PfaffianOutOfRange,
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


def _error_of(build, m):
    try:
        build(m)
    except (DimensionMismatch, NotAntisymmetric) as exc:
        return type(exc), str(exc)
    return None


def test_skew_stack_checks_each_matrix_like_skewmatrix(rng):
    # the stack raises what the first failing matrix raises alone, message included
    valid = skew.random_skew(4, rng)
    loose = valid + 1e-6 * np.eye(4)[::-1]  # antisymmetry residual 2e-6
    nan = valid.copy()
    nan[0, 3] = np.nan
    inf = valid.copy()
    inf[1, 2], inf[2, 1] = np.inf, -np.inf
    finite = (NotAntisymmetric, "entries must be finite")
    resid = (NotAntisymmetric, "antisymmetry violated by 2.000e-06 (tol 1.0e-12)")
    for stack, want in (([valid, loose, nan], resid), ([valid, nan, loose], finite),
                        ([inf, loose], finite), ([loose, inf], resid)):
        assert _error_of(skew.as_skew_stack, np.array(stack)) == want
        first = next(m for m in stack if _error_of(skew.SkewMatrix, m))
        assert _error_of(skew.SkewMatrix, first) == want
    for bad in (np.zeros((2, 3, 3)), np.zeros((2, 3, 4)), np.zeros(4)):
        assert _error_of(skew.as_skew_stack, bad)[0] is DimensionMismatch
    # a valid stack is each matrix's exact antisymmetric storage, bit for bit
    stack = np.array([valid + 1e-13 * np.eye(4), -valid, np.zeros((4, 4))])
    got = skew.as_skew_stack(stack)
    for m, g in zip(stack, got):
        assert np.array_equal(g, skew.SkewMatrix(m).mat)


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
        a = scale * skew.random_skew(2 * n, gen)
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
        return skew.SkewMatrix.from_upper(o @ blocks @ o.T).mat
    return blocks


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(_pfaffian_inputs(), st.integers(0, 2 ** 32 - 1))
def test_pfaffian_properties(a, seed):
    a = skew.as_skew_array(a)
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
                skew.pfaffian(scale * skew.random_skew(1000, gen))
        # entries of size 1/sqrt(dim) keep the d = 1000 Pfaffian finite
        a = 1000 ** -0.5 * skew.random_skew(1000, gen)
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
        return draw(st.sampled_from([1e-3, 1.0, 1e3])) * skew.random_skew(2 * n, gen)
    if kind == "zero":
        return np.zeros((2 * n, 2 * n))
    lams = {
        "pure": np.ones(n),
        "repeated": gen.choice(gen.uniform(0.0, 1.0, size=2), size=n),
        "zero_blocks": gen.uniform(0.0, 1.0, size=n) * (gen.uniform(size=n) < 0.5),
    }[kind]
    o = skew.random_orthogonal(2 * n, gen)
    return skew.SkewMatrix.from_upper(o @ skew.lambda_blocks(lams) @ o.T).mat


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(_skew_inputs())
def test_normal_form_properties(a):
    a = skew.as_skew_array(a)
    tol = 1e-12 * max(1.0, skew.schatten_norm(a, np.inf))
    nf = skew.normal_form(a)
    assert np.abs(nf.reconstruct() - a).max() <= tol
    assert np.abs(nf.q.T @ nf.q - np.eye(a.shape[0])).max() <= 1e-12
    assert np.all(np.diff(nf.lambdas) >= 0.0) and np.all(nf.lambdas >= 0.0)
    assert np.all((nf.lambdas == 0.0) | (nf.lambdas >= skew.ZERO_CLAMP))
    assert np.abs(nf.lambdas - np.linalg.svd(a, compute_uv=False)[0::2][::-1]).max() <= tol
    assert np.array_equal(skew.normal_eigenvalues(a), nf.lambdas)
    assert nf.det_sign == np.sign(np.linalg.det(nf.q))


def test_normal_form_det_sign_at_a_zero_block(rng, monkeypatch):
    # a block at exactly 0 makes the bidiagonal B singular, so its diagonal
    # says nothing of det U det V^T: det_sign falls back to two LU
    # determinants there, and reads B's diagonal when every block is clear of 0
    det, lu_calls = np.linalg.det, []
    monkeypatch.setattr(np.linalg, "det", lambda m: lu_calls.append(1) or det(m))
    flip = np.diag([-1.0] + [1.0] * 5)
    cases = [(skew.lambda_blocks([0.0, 0.6, 0.3]), 2), (np.zeros((6, 6)), 2)]
    for o in (skew.random_orthogonal(6, rng), skew.random_orthogonal(6, rng) @ flip):
        cases += [(o @ skew.lambda_blocks([0.7, 0.0, 0.2]) @ o.T, 2),
                  (o @ skew.lambda_blocks([0.7, 0.4, 0.2]) @ o.T, 0)]
    for a, lus in cases:
        a = skew.as_skew_array(0.5 * (a - a.T))
        lu_calls.clear()
        nf = skew.normal_form(a)
        assert len(lu_calls) == lus
        assert nf.det_sign == np.sign(det(nf.q))
        assert np.abs(nf.reconstruct() - a).max() <= 1e-12


def test_reconstruct_is_the_two_product_form_bit_for_bit():
    # one product into a C-ordered buffer; normal_form's q is F-ordered, and
    # an F-ordered buffer differs from the two-product form in the last bit
    # at some sizes (2n = 20 and 100 among these)
    for dim in (2, 4, 6, 10, 20, 64, 100, 256):
        gen = np.random.default_rng(dim)
        n = dim // 2
        nf = skew.normal_form(skew.random_skew(dim, gen))
        for q in (np.asfortranarray(nf.q), np.ascontiguousarray(nf.q),
                  skew.random_orthogonal(dim, gen)):
            for lams in (np.ones(n), nf.lambdas, gen.uniform(0.0, 1.0, n), np.zeros(n)):
                got = skew.NormalForm(q, lams, 1).reconstruct()
                want = q @ skew.lambda_blocks(lams) @ q.T
                assert got.tobytes() == want.tobytes(), (dim, q.flags.c_contiguous)


def test_pure_normal_form_at_256(monkeypatch):
    # a pure state and a small rotation of it, as the 128-mode bound query
    # builds them: B is nearly diagonal, so gesdd's U and V^T hold subnormal
    # entries, which normal_form sets to 0 before its two products
    gen = np.random.default_rng(128)
    pure = states.random_gaussian_state(128, "pure", gen).corr.mat
    a = np.triu(gen.normal(scale=0.005, size=(256, 256)), 1)
    rot = scipy.linalg.expm(a - a.T)
    svd, factors = np.linalg.svd, []

    def kept_svd(m, compute_uv=True):
        out = svd(m, compute_uv=compute_uv)
        if compute_uv:
            factors.append(out)
        return out

    monkeypatch.setattr(np.linalg, "svd", kept_svd)
    for g in (pure, skew.SkewMatrix.from_upper(rot @ pure @ rot.T).mat):
        nf = skew.normal_form(g)
        assert np.abs(nf.lambdas - 1.0).max() <= 1e-12
        assert np.abs(nf.q.T @ nf.q - np.eye(256)).max() <= 1e-12
        assert np.abs(nf.reconstruct() - g).max() <= 1e-12
        assert nf.det_sign == np.sign(np.linalg.det(nf.q))
        u, _, vt = factors[-1]
        for m in (u, vt):
            assert not ((m != 0.0) & (np.abs(m) < np.finfo(float).tiny)).any()


def test_normal_form_factors_are_scipys_svd(monkeypatch):
    # normal_form factors B through numpy's gesdd wrapper; scipy.linalg.svd of
    # the same B is the reference, bit for bit, where B's singular values fix
    # the factors: every mixed draw, and pure draws up to n = 24, where their
    # factors first hold subnormals.  A pure B has one singular value, 1, n
    # times, and from about n = 32 the two wrappers' LAPACK builds may pick
    # different bases of its singular subspace, so at n = 64 and 128 only S is
    # compared for a pure draw
    svd, seen = np.linalg.svd, []

    def kept_svd(m, compute_uv=True):
        out = svd(m, compute_uv=compute_uv)
        if compute_uv:  # normal_form zeroes subnormal entries in place: keep copies
            seen.append((m.copy(), *(f.copy() for f in out)))
        return out

    monkeypatch.setattr(np.linalg, "svd", kept_svd)
    subnormal = 0
    for n in (*range(1, 17), 24, 64, 128):
        gen = np.random.default_rng(n)
        for kind in ("pure", "mixed"):
            seen.clear()
            skew.normal_form(states.random_gaussian_state(n, kind, gen).corr)
            (b, *got), = seen
            want = scipy.linalg.svd(b)
            compared = (1,) if kind == "pure" and n >= 64 else (0, 1, 2)
            for i in compared:
                assert got[i].tobytes() == want[i].tobytes(), (n, kind, i)
            subnormal += compared == (0, 1, 2) and any(
                ((f != 0.0) & (np.abs(f) < np.finfo(float).tiny)).any() for f in want[0::2])
    assert subnormal > 0


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


def _singular_value_inputs(n, gen):
    """Antisymmetric 2n x 2n inputs: random, the differences of a pure and of a
    mixed pair, a difference of rank 2 (n - n // 2) and the zero matrix."""
    q1, q2 = skew.random_orthogonal(2 * n, gen), skew.random_orthogonal(2 * n, gen)
    yield "random", skew.random_skew(2 * n, gen)
    yield "pure", (skew.NormalForm(q1, np.ones(n), 1).reconstruct()
                   - skew.NormalForm(q2, np.ones(n), 1).reconstruct())
    yield "mixed", (skew.NormalForm(q1, gen.uniform(size=n), 1).reconstruct()
                    - skew.NormalForm(q2, gen.uniform(size=n), 1).reconstruct())
    lam1, lam2 = gen.uniform(size=n), gen.uniform(size=n)
    lam2[: n // 2] = lam1[: n // 2]
    yield "rank", (skew.NormalForm(q1, lam1, 1).reconstruct()
                   - skew.NormalForm(q1, lam2, 1).reconstruct())
    yield "zero", np.zeros((2 * n, 2 * n))


def test_normal_eigenvalues_match_the_dense_svd():
    # each of the 2n dense singular values appears twice; the half-size
    # bidiagonal gives each once, ascending, with round-off below 1e-12 read as 0
    for n in (*range(1, 13), 64, 128):
        gen = np.random.default_rng(n)
        for name, a in _singular_value_inputs(n, gen):
            dense = np.linalg.svd(a, compute_uv=False)
            tol = 1e-13 * max(1.0, dense[0])
            lam = skew.normal_eigenvalues(skew.SkewMatrix.from_upper(a))
            assert lam.shape == (n,), (n, name)
            assert np.all(np.diff(lam) >= 0), (n, name)
            assert np.abs(dense[0::2] - dense[1::2]).max() <= tol, (n, name)
            assert np.abs(lam - dense[-2::-2]).max() <= tol, (n, name)
            assert np.array_equal(skew.normal_eigenvalues(a), lam), (n, name)


def test_normal_eigenvalues_check_a_caller_matrix(rng, scans):
    a = skew.random_skew(6, rng)
    skew.normal_eigenvalues(a)
    assert len(scans) == 1
    scans.clear()
    skew.normal_eigenvalues(skew.SkewMatrix.from_upper(a))
    assert not scans
    with pytest.raises(NotAntisymmetric):
        skew.normal_eigenvalues(a + np.eye(6))


def test_exact_stores_the_array_as_it_is(rng, scans):
    a = skew.random_skew(6, rng)
    m = skew.SkewMatrix.exact(a)
    assert m.mat is a and not a.flags.writeable
    assert not scans


def test_schatten_frobenius_identity(rng):
    a = skew.random_skew(8, rng)
    assert skew.schatten_norm(a, 2) ** 2 == pytest.approx((a ** 2).sum(), rel=1e-10)


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



def _accepted_matrices(rng):
    """Matrices the constructor accepts: exact, with residuals just inside the
    tolerance, with signed zeros, and products that are antisymmetric up to round-off."""
    for dim in (2, 4, 8, 64):
        a = skew.random_skew(dim, rng)
        yield a
        noise = rng.uniform(-0.4e-12, 0.4e-12, size=(dim, dim))
        yield a + noise  # residual |noise + noise^T| <= 0.8e-12
        signed = a.copy()
        signed[0, 1], signed[1, 0] = -0.0, 0.0
        yield signed
        q = skew.random_orthogonal(dim, rng)
        yield skew.NormalForm(q, rng.uniform(0.0, 1.0, size=dim // 2), 1).reconstruct()
        yield q @ a @ q.T
    yield skew.lambda_blocks([1.0, -0.0, 0.5])


def test_from_upper_stores_the_constructor_bytes(rng, scans):
    for m in _accepted_matrices(rng):
        built = skew.SkewMatrix.from_upper(m)
        scans.clear()
        checked = skew.SkewMatrix(m)
        assert len(scans) == 1
        assert built.mat.tobytes() == checked.mat.tobytes()
        assert not built.mat.flags.writeable
    # from_upper reads only the strict upper triangle, and checks nothing
    scans.clear()
    lower_junk = np.triu(skew.random_skew(6, rng)) + np.tril(np.full((6, 6), np.nan))
    assert np.array_equal(skew.SkewMatrix.from_upper(lower_junk).mat,
                          skew.SkewMatrix(np.triu(lower_junk, 1) - np.triu(lower_junk, 1).T).mat)
    assert len(scans) == 1  # the constructor's, not from_upper's


def test_each_caller_matrix_is_checked_once(rng, scans, frames):
    # the gap compares two spectra: each matrix is checked once, and no frame is formed
    a, b = skew.random_skew(6, rng), skew.random_skew(6, rng)
    skew.normal_eigenvalue_gap(a, b)
    assert len(scans) == 2
    scans.clear()
    with pytest.raises(DimensionMismatch, match=r"shapes \(6, 6\) and \(4, 4\) differ"):
        skew.normal_eigenvalue_gap(a, skew.random_skew(4, rng))
    assert not frames
