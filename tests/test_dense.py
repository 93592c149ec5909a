import functools
import io
import itertools
import math

import numpy as np
import pytest
from conftest import plan_rotations
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freeferm import dense, skew, states
from freeferm.errors import (
    ConvergenceFailure,
    DimensionMismatch,
    NonNegligibleImaginaryPart,
    NotAValidCorrelationMatrix,
    NotOrthogonal,
    TooManyModes,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)


def _maximally_mixed(n):
    return dense.DenseState(n, np.eye(1 << n) / (1 << n))


def test_majorana_definitions():
    # gamma_{2k} = Z^(x)k (x) X (x) I^(x)(n-k-1), and gamma_{2k+1} the same with Y
    for n in range(1, 5):
        ms = dense.majoranas(n)
        for k in range(n):
            for mu, pauli in ((2 * k, X), (2 * k + 1, Y)):
                want = functools.reduce(np.kron, [Z] * k + [pauli] + [I2] * (n - k - 1))
                assert np.array_equal(ms.matrix(mu), want)
    with pytest.raises(TooManyModes):
        dense.majoranas(13)


def test_majorana_algebra_exact():
    ms = dense.majoranas(3)
    for mu in range(6):
        m = ms.matrix(mu)
        assert np.array_equal(m, m.conj().T)
        assert np.array_equal(m @ m, np.eye(8, dtype=complex))
        for nu in range(mu + 1, 6):
            anti = m @ ms.matrix(nu) + ms.matrix(nu) @ m
            assert np.abs(anti).max() == 0.0


def test_parity_operator_identity():
    # Z^(x)n equals (-i)^n gamma_1 ... gamma_2n under Jordan-Wigner
    for n in (1, 2, 3):
        ms = dense.majoranas(n)
        perm, coef = ms.compose(range(2 * n))
        prod = np.zeros((1 << n, 1 << n), dtype=complex)
        prod[perm, np.arange(1 << n)] = coef
        zn = np.diag([(-1.0) ** bin(x).count("1") for x in range(1 << n)])
        assert np.allclose((-1j) ** n * prod, zn)


def test_correlation_matrix_examples():
    assert np.allclose(
        dense.correlation_matrix(dense.computational_basis(3, [0, 0, 0])).mat,
        skew.canonical_lambda(3),
    )
    assert np.abs(dense.correlation_matrix(_maximally_mixed(3)).mat).max() == 0.0
    g = dense.correlation_matrix(dense.computational_basis(2, [1, 0])).mat
    assert np.allclose(g, skew.lambda_blocks([-1.0, 1.0]))


def test_correlation_matrix_rejects_corrupted_state():
    rho = dense.computational_basis(2, [0, 0]).rho.copy()
    rho[0, 3] = 0.5  # non-Hermitian corruption visible to a Majorana pair
    with pytest.raises(NonNegligibleImaginaryPart):
        dense.correlation_matrix(dense.DenseState(2, rho))


def test_gaussian_unitary_identity_and_rotation():
    u = dense.gaussian_unitary(np.eye(4))
    phase = u[0, 0]
    assert np.allclose(u, phase * np.eye(4))

    theta = 0.7
    q = np.eye(6)
    q[0, 0] = q[1, 1] = math.cos(theta)
    q[0, 1] = math.sin(theta)
    q[1, 0] = -math.sin(theta)
    u = dense.gaussian_unitary(q)
    ms = dense.majoranas(3)
    lhs = u.conj().T @ ms.matrix(0) @ u
    rhs = math.cos(theta) * ms.matrix(0) + math.sin(theta) * ms.matrix(1)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_gaussian_unitary_reflection(rng):
    for _ in range(5):
        q = skew.random_orthogonal(6, rng)
        if np.linalg.det(q) > 0:
            q[:, 0] = -q[:, 0]
        u = dense.gaussian_unitary(q)  # the defining relation is checked inside
        assert np.allclose(u @ u.conj().T, np.eye(8), atol=1e-10)
    with pytest.raises(NotOrthogonal):
        dense.gaussian_unitary(1.1 * np.eye(4))
    with pytest.raises(TooManyModes, match="exceeds dense cap"):
        dense.gaussian_unitary(np.eye(2 * dense.MAX_DENSE_MODES + 2))


def test_gaussian_unitary_minus_one_pairs():
    # rotation by pi in two planes: no Householder reflection, R = -I
    q = -np.eye(4)
    u = dense.gaussian_unitary(q)
    assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-10)


def _check_synthesis(q, gen):
    """gaussian_unitary(q) passes its own defining-relation check, is unitary,
    and carries a mixed state with normal-form rotation q to q Lambda q^T."""
    n = q.shape[0] // 2
    u = dense.gaussian_unitary(q)
    assert np.abs(u.conj().T @ u - np.eye(1 << n)).max() < 1e-10
    lams = np.sort(gen.uniform(0.0, 1.0, size=n))
    nf = skew.NormalForm(q=q, lambdas=lams, det_sign=1 if np.linalg.det(q) > 0 else -1)
    s = states.from_normal_form(nf)
    back = dense.correlation_matrix(dense.gaussian_to_dense(s))
    assert np.abs(back.mat - s.corr.mat).max() < 1e-10


@st.composite
def _orthogonal_matrices(draw):
    n = draw(st.integers(1, 6))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        q = skew.random_orthogonal(2 * n, gen)
        if draw(st.booleans()) != (np.linalg.det(q) < 0):
            q[:, 0] = -q[:, 0]  # the drawn determinant
    else:
        q = np.diag(gen.choice([-1.0, 1.0], size=2 * n))
    return q, gen


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(_orthogonal_matrices())
def test_gaussian_unitary_synthesis(case):
    _check_synthesis(*case)


def _frobenius_residual(u, q):
    """Dense reference: max_mu ||U^dag gamma_mu U - sum_nu q_{mu,nu} gamma_nu||_F."""
    n = q.shape[0] // 2
    ms = dense.majoranas(n)
    idx = np.arange(1 << n)
    worst = 0.0
    for mu in range(2 * n):
        target = np.zeros_like(u)
        for nu in range(2 * n):
            if q[mu, nu] != 0.0:
                target[ms.perms[nu], idx] += q[mu, nu] * ms.coefs[nu]
        lhs = u.conj().T @ ms.left_apply(mu, u)
        worst = max(worst, float(np.linalg.norm(lhs - target)))
    return worst


def _orthogonal_case(n, seed, det_sign):
    """A fixed random orthogonal q of determinant det_sign, and its generator."""
    gen = np.random.default_rng(seed)
    q = skew.random_orthogonal(2 * n, gen)
    if np.linalg.det(q) * det_sign < 0:
        q[:, 0] = -q[:, 0]
    return q, gen


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(_orthogonal_matrices(), st.booleans())
@example(_orthogonal_case(7, 7, -1), False)  # above the strategy's n <= 6: more doubling levels
@example(_orthogonal_case(8, 8, 1), True)
def test_synthesis_residual_is_the_frobenius_residual(case, flip):
    # the vacuum-column check measures any wrong adjoint action q1 in place of q2
    q1, gen = case
    q2 = skew.random_orthogonal(q1.shape[0], gen)
    if flip:
        q2[:, 0] = -q2[:, 0]
    u = dense.gaussian_unitary(q1)
    scale = math.sqrt(u.shape[0])
    for q in (q1, q2):
        got = scale * dense._synthesis_residual(u, q)
        assert got == pytest.approx(_frobenius_residual(u, q), abs=1e-10)
        assert got == pytest.approx(scale * np.linalg.norm(q1 - q, axis=1).max(), abs=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_gaussian_unitary_signed_permutations(n):
    gen = np.random.default_rng(n)
    for q in plan_rotations(n):
        _check_synthesis(q, gen)
    _check_synthesis(-np.eye(2 * n), gen)


def _pauli_string(n, x, z):
    """X^x Z^z as a matrix, qubit 0 the most significant bit of x and z."""
    factors = [np.linalg.matrix_power(X, (x >> (n - 1 - q)) & 1)
               @ np.linalg.matrix_power(Z, (z >> (n - 1 - q)) & 1) for q in range(n)]
    return functools.reduce(np.kron, factors)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pauli_table_matches_pauli_strings(n, rng):
    rho = dense.random_density_matrix(n, rng)
    table = dense.pauli_table(rho)
    assert table.shape == (1 << n, 1 << n)
    for x, z in itertools.product(range(1 << n), repeat=2):
        want = np.trace(rho.rho @ _pauli_string(n, x, z))
        assert abs(table[x, z] - want) < 1e-14, (x, z)


def _signed_permutations(n, gen):
    """Every round of the commuting plan, then random signed permutations of both
    determinants with pairs in either order."""
    qs = list(plan_rotations(n))
    for _ in range(3):
        q = np.eye(2 * n)[gen.permutation(2 * n)] * gen.choice([-1.0, 1.0], size=(2 * n, 1))
        qs.append(q)
    return np.array(qs)


def _pairs_and_signs(qs):
    """A stack of signed permutations as rotated_diagonals takes them: row 2i
    of q is s e_j and row 2i+1 is s' e_k, so pair i is (j, k) with sign s s'."""
    cols = np.abs(qs).argmax(axis=-1)
    s = np.take_along_axis(qs, cols[..., None], axis=-1)[..., 0]
    return np.stack([cols[:, 0::2], cols[:, 1::2]], axis=1), s[:, 0::2] * s[:, 1::2]


def _rotated_diagonal(rho, q):
    u = dense.gaussian_unitary(q)
    return np.diag(u @ rho.rho @ u.conj().T).real


@pytest.mark.parametrize("n", range(1, 7))
def test_rotated_diagonals_match_synthesis(n, rng):
    # the Pauli-table round against the synthesised unitary's diagonal
    gen = np.random.default_rng(100 + n)
    qs = _signed_permutations(n, gen)
    assert {round(np.linalg.det(q)) for q in qs} == {-1, 1}
    cases = [dense.random_density_matrix(n, rng), dense.random_density_matrix(n, rng),
             dense.computational_basis(n, gen.integers(0, 2, size=n)),
             dense.gaussian_to_dense(states.vacuum(n)),
             dense.gaussian_to_dense(states.random_gaussian_state(n, "pure", rng))]
    if n == 3:
        cases.append(dense.ghz3())
    pairs, signs = _pairs_and_signs(qs)
    for rho in cases:
        table = dense.pauli_table(rho)
        diags = dense.rotated_diagonals(table, pairs, signs)
        assert diags.shape == (len(qs), 1 << n)
        for t, (q, diag) in enumerate(zip(qs, diags)):
            assert np.abs(diag - _rotated_diagonal(rho, q)).max() < 1e-14
            # each row is what its rotation alone gives, bit for bit
            alone = dense.rotated_diagonals(table, pairs[t:t + 1], signs[t:t + 1])
            assert np.array_equal(alone[0], diag)


def test_rotated_diagonals_report_imaginary_residue():
    # a corrupted state's imaginary residue is reported, as by correlation_matrix
    rho = dense.computational_basis(2, [0, 0]).rho.copy()
    rho[0, 3] = 0.5
    pairs, signs = _pairs_and_signs(plan_rotations(2)[1:2])
    with pytest.raises(NonNegligibleImaginaryPart):
        dense.rotated_diagonals(dense.pauli_table(dense.DenseState(2, rho)), pairs, signs)


@pytest.mark.parametrize("n", range(1, 8))
def test_gaussian_pair_distance_matches_two_densifications(n, rng):
    flip = np.diag([-1.0] + [1.0] * (2 * n - 1))  # a reflection: flips det(Q1^T Q2)
    dets = set()
    for kind in ("mixed", "pure"):
        s1 = states.random_gaussian_state(n, kind, rng)
        s2 = states.random_gaussian_state(n, kind, rng)
        for a, b in ((s1, s2), (s1, states.rotate(s2, flip)), (s2, s1), (s1, s1)):
            dets.add(round(np.linalg.det(a.nf.q.T @ b.nf.q)))
            want = dense.state_metrics(dense.gaussian_to_dense(a), dense.gaussian_to_dense(b))
            assert dense.state_metrics(a, b) == pytest.approx(want, abs=1e-12)
        assert dense.state_metrics(s1, s1) == pytest.approx(0.0, abs=1e-12)
    assert dets == {-1, 1}
    with pytest.raises(DimensionMismatch):
        dense.state_metrics(states.vacuum(n), states.vacuum(n + 1))


@pytest.mark.parametrize("n", range(1, 5))
def test_state_metrics_agrees_across_representations(n, rng):
    # Gaussian-Gaussian, Gaussian-dense, dense-Gaussian and dense-dense give one
    # distance, symmetric in its arguments, and 0 for a state against its own density matrix
    for kind in ("mixed", "pure"):
        s1 = states.random_gaussian_state(n, kind, rng)
        s2 = states.random_gaussian_state(n, kind, rng)
        rho1, rho2 = dense.gaussian_to_dense(s1), dense.gaussian_to_dense(s2)
        want = dense.state_metrics(rho1, rho2)
        for a, b in itertools.product((s1, rho1), (s2, rho2)):
            assert dense.state_metrics(a, b) == pytest.approx(want, abs=1e-12)
            assert dense.state_metrics(b, a) == pytest.approx(want, abs=1e-12)
        assert dense.state_metrics(s1, rho1) == pytest.approx(0.0, abs=1e-12)
        assert dense.state_metrics(rho1, s1) == pytest.approx(0.0, abs=1e-12)
    for a, b in ((states.vacuum(n), dense.computational_basis(n + 1, [0] * (n + 1))),
                 (_maximally_mixed(n + 1), states.vacuum(n))):
        with pytest.raises(DimensionMismatch):
            dense.state_metrics(a, b)


def test_gaussian_to_dense_examples():
    rho = dense.gaussian_to_dense(states.vacuum(2))
    assert np.allclose(rho.rho, dense.computational_basis(2, [0, 0]).rho, atol=1e-12)
    mm = dense.gaussian_to_dense(states.product_state([0.0, 0.0]))
    assert np.allclose(mm.rho, np.eye(4) / 4.0, atol=1e-12)


def test_gaussian_to_dense_round_trip(rng):
    for n in (1, 2, 4):
        s = states.random_gaussian_state(n, "mixed", rng)
        back = dense.correlation_matrix(dense.gaussian_to_dense(s))
        assert np.abs(back.mat - s.corr.mat).max() < 1e-8


def test_oracle_self_consistency(rng):
    for n in (2, 3, 5):
        s = states.random_gaussian_state(n, "mixed", rng)
        rho = dense.gaussian_to_dense(s)
        again = dense.gaussian_to_dense(states.from_correlation(dense.correlation_matrix(rho)))
        assert dense.state_metrics(rho, again) < 1e-7


def test_state_metrics_examples():
    a = dense.computational_basis(1, [0])
    b = dense.computational_basis(1, [1])
    assert dense.state_metrics(a, a) == pytest.approx(0.0, abs=1e-12)
    assert dense.relative_entropy(a, a) == pytest.approx(0.0, abs=1e-9)
    assert dense.state_metrics(a, b) == pytest.approx(2.0)
    assert dense.relative_entropy(a, b) == math.inf
    for metric in (dense.state_metrics, dense.relative_entropy):
        with pytest.raises(DimensionMismatch):
            metric(a, _maximally_mixed(2))


def test_relative_entropy_support_conventions():
    plus = dense.DenseState.from_statevector(np.array([1.0, 1.0]) / math.sqrt(2))
    mm = _maximally_mixed(1)
    # S(plus || I/2) = 1 bit; finite because I/2 has full support
    assert dense.relative_entropy(plus, mm) == pytest.approx(1.0, abs=1e-9)
    # reversed direction hits the support of a pure state
    assert dense.relative_entropy(mm, plus) == math.inf


def test_pinsker_consistency(rng):
    for _ in range(10):
        a = dense.random_density_matrix(2, rng)
        b = dense.random_density_matrix(2, rng)
        rel = dense.relative_entropy(a, b)
        if math.isfinite(rel):
            assert 0.5 * dense.state_metrics(a, b) <= math.sqrt(0.5 * math.log(2) * rel) + 1e-9


def test_gaussianification():
    rho_g = dense.gaussian_to_dense(states.product_state([0.3, 0.6]))
    assert dense.state_metrics(rho_g, dense.gaussianification(rho_g)) < 1e-8
    assert dense.relative_entropy(rho_g, dense.gaussianification(rho_g)) < 1e-8
    mm = _maximally_mixed(2)
    assert dense.relative_entropy(mm, dense.gaussianification(mm)) < 1e-10
    # frozen regression value for the GHZ fixture
    ghz = dense.ghz3()
    assert dense.relative_entropy(ghz, dense.gaussianification(ghz)) == pytest.approx(3.0, abs=1e-9)


def test_overlap_formula_fuzz(rng):
    # dense |<psi1|psi2>|^2 equals |Pf((G1+G2)/2)| across mode counts
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 6))
        s1 = states.random_gaussian_state(n, "pure", rng)
        s2 = states.random_gaussian_state(n, "pure", rng)
        ov_dense = float(np.trace(
            dense.gaussian_to_dense(s1).rho @ dense.gaussian_to_dense(s2).rho
        ).real)
        worst = max(worst, abs(states.overlap_pure(s1, s2) - ov_dense))
    assert worst <= 1e-9


def test_pure_vs_arbitrary_bound(rng):
    # ||psi - rho||_1 <= sqrt(||Gamma(psi) - Gamma(rho)||_1)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        psi = states.random_gaussian_state(n, "pure", rng)
        rho = dense.random_density_matrix(n, rng)
        td = dense.state_metrics(dense.gaussian_to_dense(psi), rho)
        d1 = skew.schatten_norm(psi.corr.mat - dense.correlation_matrix(rho).mat, 1)
        assert td <= math.sqrt(d1) + 1e-9


def test_derivative_zero_direction(rng):
    s = states.random_gaussian_state(2, "mixed", rng)
    out = dense.gaussian_derivative(s.corr, np.zeros((4, 4)))
    assert np.abs(out).max() == 0.0


def test_derivative_traceless_hermitian(rng):
    s = states.random_gaussian_state(3, "mixed", rng)
    x = skew.random_skew(6, rng)
    out = dense.gaussian_derivative(s.corr, x)
    assert abs(np.trace(out)) < 1e-10
    assert np.abs(out - out.conj().T).max() < 1e-10


def test_derivative_matches_finite_differences(rng):
    # central-difference oracle with re-validated endpoints
    h = 1e-5
    for n in (2, 3):
        lams = rng.uniform(0.1, 0.85, size=n)
        q = skew.random_orthogonal(2 * n, rng)
        gamma = q @ skew.lambda_blocks(lams) @ q.T
        x = 0.5 * skew.random_skew(2 * n, rng)
        x /= skew.schatten_norm(x, np.inf)
        out = dense.gaussian_derivative(gamma, x)
        plus = dense.gaussian_to_dense(states.from_correlation(gamma + h * x)).rho
        minus = dense.gaussian_to_dense(states.from_correlation(gamma - h * x)).rho
        fd = (plus - minus) / (2.0 * h)
        assert np.abs(fd - out).max() / np.abs(out).max() < 1e-5


def test_partial_trace(rng):
    a = dense.random_density_matrix(2, rng)
    b = dense.random_density_matrix(1, rng)
    joint = dense.DenseState(3, np.kron(a.rho, b.rho))
    assert np.abs(dense.partial_trace(joint, 2).rho - a.rho).max() < 1e-12


def test_dense_dump_round_trip(rng):
    rho = dense.random_density_matrix(2, rng)
    buf = io.StringIO()
    dense.write_dense(buf, rho)
    buf.seek(0)
    back = dense.read_dense(buf)
    assert np.abs(back.rho - rho.rho).max() == 0.0
    buf.write("\n  \n")  # blank lines after the rows are allowed
    buf.seek(0)
    assert np.abs(dense.read_dense(buf).rho - rho.rho).max() == 0.0


def test_dense_dump_refuses_rows_past_the_last():
    one_mode = "1\n0.5 0 0 0\n0 0 0.5 0\n"
    with pytest.raises(DimensionMismatch, match="data after the 2 rows of a 1-mode state"):
        dense.read_dense(io.StringIO(one_mode + "0 0 0 0\n"))


def test_dense_dump_checks_the_dense_cap_at_the_header():
    # an 11-mode header is refused before any of its 2048 rows is read
    with pytest.raises(TooManyModes, match="exceeds dense cap 10"):
        dense.read_dense(io.StringIO("11\n"))


def test_gaussianification_refuses_a_non_state():
    # diag(2, -1) is Hermitian with trace 1 but no state: its Gamma is 3 J, so the
    # strict constructor refuses it instead of clipping it to |0>
    with pytest.raises(NotAValidCorrelationMatrix, match="exceeds 1 beyond slack"):
        dense.gaussianification(dense.DenseState(1, np.diag([2.0, -1.0])))


def test_gaussian_derivative_checks_each_matrix_once(rng, scans):
    s = states.random_gaussian_state(2, "mixed", rng)
    scans.clear()
    dense.gaussian_derivative(np.array(s.corr.mat), skew.random_skew(4, rng))
    assert len(scans) == 2
    with pytest.raises(DimensionMismatch, match=r"shapes \(4, 4\) and \(6, 6\) differ"):
        dense.gaussian_derivative(s.corr, skew.random_skew(6, rng))


def test_dense_correlation_matrix_is_built_unchecked(rng, scans):
    rho = dense.random_density_matrix(3, rng)
    g = dense.correlation_matrix(rho)
    assert not scans
    assert np.array_equal(g.mat, -g.mat.T)
