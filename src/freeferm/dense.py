"""Brute-force Jordan-Wigner oracle.

Exact density matrices at desk scale: one Pauli-row table (``pauli_rows``,
signed permutations from X/Z masks) and its expectation kernel behind the
Majoranas, correlation matrices and local tomography, a state's table of all
4^n Pauli expectations (``pauli_table``) and the Z-basis diagonals after
signed-permutation rotations, given as pairs and signs, read from it
(``rotated_diagonals``),
Gaussian-unitary synthesis (Householder reflections, mode doubling), exact
trace distance of dense and Gaussian states (``state_metrics``, two Gaussian
states from one synthesis) and relative entropy, the Gaussian state with a
state's correlation matrix (``gaussianification``), and the analytic
derivative of a Gaussian state in its correlation matrix.  Ground truth for
every other module at n <= ~10.

Basis convention: computational index x encodes qubit 0 as the most
significant bit, matching ket notation |x_0 x_1 ... x_{n-1}>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence, TextIO, Union

import numpy as np
from scipy.linalg import lapack

from . import states
from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    NonNegligibleImaginaryPart,
    TooManyModes,
)
from .skew import SkewMatrix, as_skew_array
from .states import GaussianState

__all__ = [
    "DenseState",
    "MajoranaSet",
    "majoranas",
    "pauli_rows",
    "pauli_expectations",
    "pauli_table",
    "rotated_diagonals",
    "correlation_matrix",
    "check_dense_modes",
    "gaussian_unitary",
    "gaussian_to_dense",
    "state_metrics",
    "relative_entropy",
    "gaussianification",
    "gaussian_derivative",
    "partial_trace",
    "depolarize",
    "majorana_product_expectation",
    "computational_basis",
    "ghz3",
    "random_density_matrix",
    "write_dense",
    "read_dense",
]

MAX_DENSE_MODES = 10
#: cap of a state densified in every trial (tomography referee, robustness certification)
MAX_TRIAL_DENSE_MODES = MAX_DENSE_MODES // 2
#: Frobenius-norm tolerance of the runtime check of a synthesised Gaussian unitary
UNITARY_CHECK_TOL = 1e-8


@dataclass(frozen=True)
class DenseState:
    """Full 2^n x 2^n density matrix."""

    n: int
    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        d = 1 << self.n
        if rho.shape != (d, d):
            raise DimensionMismatch(f"expected {d}x{d} density matrix, got {rho.shape}")
        object.__setattr__(self, "rho", rho)

    def validate(self) -> "DenseState":
        if not np.isfinite(self.rho).all():  # NaN fails every comparison below
            raise ValueError("density matrix has a non-finite entry")
        if np.abs(self.rho - self.rho.conj().T).max() > 1e-10:
            raise ValueError("density matrix is not Hermitian within 1e-10")
        if abs(np.trace(self.rho).real - 1.0) > 1e-10 or abs(np.trace(self.rho).imag) > 1e-10:
            raise ValueError("density matrix trace differs from 1 beyond 1e-10")
        if np.linalg.eigvalsh(self.rho).min() < -1e-9:
            raise ValueError("density matrix has an eigenvalue below -1e-9")
        return self

    @staticmethod
    def from_statevector(vec: np.ndarray) -> "DenseState":
        v = np.asarray(vec, dtype=complex).ravel()
        n = int(round(math.log2(v.size)))
        if 1 << n != v.size:
            raise DimensionMismatch(f"statevector length {v.size} is not a power of 2")
        v = v / np.linalg.norm(v)
        return DenseState(n, np.outer(v, v.conj()))


@dataclass(frozen=True)
class MajoranaSet:
    """The 2n Jordan-Wigner Majoranas as signed permutations with phase.

    gamma_mu |x> = coefs[mu, x] |perms[mu, x]>, with coefficients in
    {+-1, +-i} held exactly in complex arithmetic.  As a Pauli string,
    gamma_mu = coefs[mu, 0] X^{x[mu]} Z^{z[mu]} with X/Z masks x and z.
    """

    n: int
    perms: np.ndarray = field(repr=False)
    coefs: np.ndarray = field(repr=False)
    x: np.ndarray = field(repr=False)
    z: np.ndarray = field(repr=False)

    def matrix(self, mu: int) -> np.ndarray:
        d = 1 << self.n
        out = np.zeros((d, d), dtype=complex)
        out[self.perms[mu], np.arange(d)] = self.coefs[mu]
        return out

    def left_apply(self, mu: int, m: np.ndarray) -> np.ndarray:
        """gamma_mu @ m without forming the operator."""
        out = np.empty_like(m, dtype=complex)
        out[self.perms[mu], :] = self.coefs[mu][:, None] * m
        return out

    def right_apply(self, m: np.ndarray, mu: int) -> np.ndarray:
        """m @ gamma_mu without forming the operator."""
        return m[:, self.perms[mu]] * self.coefs[mu][None, :]

    def pairs(self, a: np.ndarray, b: np.ndarray):
        """Signed permutations of the products gamma_{a[i]} gamma_{b[i]}, one row each."""
        perm_b = self.perms[b]
        return (np.take_along_axis(self.perms[a], perm_b, axis=1),
                np.take_along_axis(self.coefs[a], perm_b, axis=1) * self.coefs[b])

    def compose(self, subset: Sequence[int]):
        """Signed permutation of the ordered product gamma_{s1} gamma_{s2} ...

        Returns (perm, coef) with (prod gamma)|x> = coef[x] |perm[x]>.
        """
        d = 1 << self.n
        perm = np.arange(d)
        coef = np.ones(d, dtype=complex)
        for mu in reversed(list(subset)):
            coef = self.coefs[mu][perm] * coef  # note: gamma acts after `perm`
            perm = self.perms[mu][perm]
        return perm, coef


def pauli_rows(n: int, x: np.ndarray, z: np.ndarray):
    """Pauli strings with X-type (X, Y) factors on the bits of x[i] and Z-type
    (Y, Z) factors on the bits of z[i], as signed permutations (perms, coefs):
    P_i|b> = coefs[i, b] |perms[i, b]> = i^{|x & z|} (-1)^{|b & z|} |b ^ x>."""
    shifts = n - 1 - np.arange(n)
    b = np.arange(1 << n)
    bits = (b[:, None] >> shifts) & 1  # [b, qubit]
    x_bits, z_bits = (x[:, None] >> shifts) & 1, (z[:, None] >> shifts) & 1  # [row, qubit]
    phase = np.array([1, 1j, -1, -1j])[(x_bits * z_bits).sum(axis=1) % 4]
    return b[None, :] ^ x[:, None], phase[:, None] * (1 - 2 * ((z_bits @ bits.T) & 1))


def pauli_expectations(rho: np.ndarray, perms: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """Tr(P rho) = sum_b coefs[b] rho[b, perms[b]] for each row P of (perms, coefs)."""
    return np.sum(coefs * rho[np.arange(rho.shape[0]), perms], axis=-1)


@lru_cache(maxsize=None)
def majoranas(n: int) -> MajoranaSet:
    """gamma_{2k} = (prod_{j<k} Z_j) X_k, gamma_{2k+1} = (prod_{j<k} Z_j) Y_k."""
    if not 1 <= n <= MAX_DENSE_MODES:
        raise TooManyModes(f"mode count {n} outside [1, {MAX_DENSE_MODES}]")
    bit_k = 1 << (n - 1 - np.arange(n))  # qubit 0 is the most significant bit
    below_k = (1 << n) - 2 * bit_k  # the bits of the qubits j < k
    x, z = np.repeat(bit_k, 2), np.stack([below_k, below_k | bit_k], axis=1).ravel()
    perms, coefs = pauli_rows(n, x, z)
    for a in (perms, coefs, x, z):
        a.setflags(write=False)
    return MajoranaSet(n=n, perms=perms, coefs=coefs, x=x, z=z)


def majorana_product_expectation(rho: DenseState, subset: Sequence[int]) -> complex:
    """Tr(gamma_S rho) for an ordered index set S (the dense Wick oracle),
    in O(2^n) time from the signed permutation of gamma_S."""
    perm, coef = majoranas(rho.n).compose(subset)
    return complex(pauli_expectations(rho.rho, perm, coef))


def _walsh_hadamard(a: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform over the last axis, of length 2^m:
    out[..., s] = sum_b (-1)^{|b & s|} a[..., b].

    m butterfly steps of elementwise sums and differences, so each entry of a
    leading axis is transformed bit for bit as it would be alone.
    """
    out = np.array(a)
    size = out.shape[-1]
    half = size // 2
    while half:
        v = out.reshape(-1, size // (2 * half), 2, half)
        lo, hi = v[:, :, 0].copy(), v[:, :, 1]
        v[:, :, 0] += hi
        np.subtract(lo, hi, out=v[:, :, 1])
        half //= 2
    return out


def pauli_table(rho: DenseState) -> np.ndarray:
    """All 4^n expectations table[x, z] = Tr(rho X^x Z^z), x and z bit masks
    with qubit 0 as the most significant bit.

    One gather of rho's x-diagonals v[x, b] = rho[b, b ^ x], then one
    Walsh-Hadamard transform over b: Tr(rho X^x Z^z) = sum_b (-1)^{|b & z|}
    rho[b, b ^ x].  O(n 4^n).
    """
    b = np.arange(1 << rho.n)
    return _walsh_hadamard(rho.rho[b[None, :], b[None, :] ^ b[:, None]])


def _real(vals: np.ndarray, what: str) -> np.ndarray:
    """The real part of values that are real up to round-off; an imaginary
    residue above 1e-10 raises NonNegligibleImaginaryPart."""
    worst = float(np.abs(vals.imag).max())
    if worst > 1e-10:
        raise NonNegligibleImaginaryPart(
            f"imaginary residue {worst:.3e} in {what}; corrupted state?"
        )
    return vals.real


def rotated_diagonals(table: np.ndarray, pairs: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Diagonals of U rho U^dag, one row per signed-permutation rotation
    given by its (R, 2, n) ``pairs`` and (R, n) ``signs``, from rho's
    :func:`pauli_table`.

    Rotation t, a round of ``sampling._commuting_plan``, has row 2i e_j and
    row 2i+1 sigma_i e_k, with (j, k) = (pairs[t, 0, i], pairs[t, 1, i]) and
    sigma_i = signs[t, i].  It makes U^dag Z_i U the pair observable
    O_i = -i sigma_i gamma_j gamma_k, a Pauli string read from the
    Majoranas' X/Z masks (X^a Z^b X^c Z^d = (-1)^{|b & c|} X^{a^c} Z^{b^d}).
    The 2^n products O_S are formed by doubling, qubit 0 ending as the top
    bit of S, and the diagonal is p[y] = 2^-n sum_S (-1)^{|y & S|} Tr(rho O_S),
    one ``_walsh_hadamard`` (Aaronson & Gottesman, quant-ph/0406196, for the
    Clifford picture).  Each row is bit for bit what its rotation alone
    gives.  An imaginary residue above 1e-10 raises
    NonNegligibleImaginaryPart.
    """
    n, rounds = pairs.shape[-1], len(pairs)
    b = np.arange(1 << n)
    odd = np.zeros_like(b)  # odd[m]: |m| is odd
    for shift in range(n):
        odd ^= (b >> shift) & 1
    ms, j, k = majoranas(n), pairs[:, 0], pairs[:, 1]
    # O_i = phases[:, i] X^{xs[:, i]} Z^{zs[:, i]}, as gamma_mu = coefs[mu, 0] X^x[mu] Z^z[mu]
    xs, zs = ms.x[j] ^ ms.x[k], ms.z[j] ^ ms.z[k]
    phases = -1j * signs * ms.coefs[j, 0] * ms.coefs[k, 0] * (1 - 2 * odd[ms.z[j] & ms.x[k]])
    x_s = z_s = np.zeros((rounds, 1), dtype=int)
    phase_s = np.ones((rounds, 1), dtype=complex)
    for x, z, phase in zip(xs.T[:, :, None], zs.T[:, :, None], phases.T[:, :, None]):
        phase_s = np.stack([phase_s, phase_s * phase * (1 - 2 * odd[z_s & x])], -1)
        x_s, z_s = np.stack([x_s, x_s ^ x], -1), np.stack([z_s, z_s ^ z], -1)
        x_s, z_s, phase_s = (a.reshape(rounds, -1) for a in (x_s, z_s, phase_s))
    p = _walsh_hadamard(phase_s * table[x_s, z_s]) / (1 << n)
    return _real(p, "rotated diagonals")


def correlation_matrix(rho: DenseState) -> SkewMatrix:
    """Gamma_{jk} = -(i/2) Tr([gamma_j, gamma_k] rho), exactly."""
    dim = 2 * rho.n
    j, k = np.triu_indices(dim, 1)
    vals = -1j * pauli_expectations(rho.rho, *majoranas(rho.n).pairs(j, k))
    g = np.zeros((dim, dim))
    g[j, k] = _real(vals, "correlation entries")
    return SkewMatrix.from_upper(g)


# -- Gaussian unitary synthesis ----------------------------------------------

def check_dense_modes(n: int) -> None:
    """Raise TooManyModes unless an n-mode register fits the dense oracle."""
    if n > MAX_DENSE_MODES:
        raise TooManyModes(f"mode count {n} exceeds dense cap {MAX_DENSE_MODES}")


def gaussian_unitary(q: np.ndarray) -> np.ndarray:
    """Unitary U with U^dag gamma_mu U = sum_nu q_{mu,nu} gamma_nu, up to a global phase.

    Vacuum column: one LAPACK Householder QR gives q = H_1 ... H_m R with R
    diagonal, entries +-1.  Up to sign, each reflection I - 2 v v^T is the
    adjoint action of gamma_v = sum_mu v_mu gamma_mu, each R_ii = -1 adds one
    with v = e_i, and -I (the parity) fixes |0>, so U|0> = gamma_{v_1} ...
    gamma_{v_k}|0> up to phase.  Other columns, by mode doubling: for k = n-1
    down to 0, columns [2^{n-1-k}, 2^{n-k}) are q's creation operator
    U a_k^dag U^dag = (1/2) sum_mu (q_{mu,2k} - i q_{mu,2k+1}) gamma_mu applied
    to columns [0, 2^{n-1-k}); O(n 4^n) work in all.

    The defining relation is checked on the vacuum column, and that is exact:
    every column is a product of q's transformed creation operators on the
    vacuum column, and the vacuum column a product of Gaussian factors on |0>,
    so U is q's unitary up to phase exactly when its vacuum column is q's
    vacuum, which the weight-1 columns test.  As gamma_{2k}|0>, gamma_{2k+1}|0>
    are one basis vector with phases 1 and i, row mu's residual for a Gaussian
    U with U^dag gamma_mu U = sum_nu R_{mu,nu} gamma_nu is ||R_mu - q_mu||, the
    Frobenius residual / sqrt(2^n).
    """
    q = np.asarray(q, dtype=float)
    dim = q.shape[0]
    if q.ndim != 2 or q.shape[1] != dim or dim % 2 != 0:
        raise DimensionMismatch(f"expected an even-dimensional square matrix, got {q.shape}")
    n = dim // 2
    check_dense_modes(n)
    states.check_orthogonal(q)
    ms = majoranas(n)

    h, tau, _, _ = lapack.dgeqrf(q)
    v = (np.tril(h, -1) + np.eye(dim))[:, tau != 0]  # column i: H_i = I - 2 v v^T / |v|^2
    c = np.concatenate([v / np.linalg.norm(v, axis=0), 0.5 * (q[:, 0::2] - 1j * q[:, 1::2])], 1)
    # column i of c is the operator sum_mu c[mu, i] gamma_mu (the reflections, then q's
    # creation operators); on psi it gives ops[i, y] @ psi[flips[y]] at y, as gamma_mu psi =
    # conj(coefs[mu]) * psi[perms[mu]] and gamma_{2j}, gamma_{2j+1} flip the same bit j
    ops = np.matmul(c.reshape(n, 2, -1).transpose(0, 2, 1), ms.coefs.conj().reshape(n, 2, -1))
    ops, flips = np.ascontiguousarray(ops.transpose(1, 2, 0))[:, :, None, :], ms.perms[0::2].T

    u = np.zeros((1 << n, 1 << n), dtype=complex)
    perm, coef = ms.compose(np.flatnonzero(np.diag(h) < 0))
    u[perm[0], 0] = coef[0]
    for op in ops[:-n][::-1]:  # the reflections, last first
        u[:, :1] = (op @ u[flips, :1])[:, 0]
    step = max(1, (1 << n) // n)  # columns per doubling step: n * 2^n * step <= 4^n gathered
    for k in range(n - 1, -1, -1):
        half = 1 << (n - 1 - k)
        for lo in range(0, half, step):
            hi = min(lo + step, half)
            u[:, half + lo:half + hi] = (ops[k - n] @ u[flips, lo:hi])[:, 0]

    worst = math.sqrt(1 << n) * _synthesis_residual(u, q)
    if worst > UNITARY_CHECK_TOL:
        raise ConvergenceFailure(
            f"defining relation violated by {worst:.3e} (tol {UNITARY_CHECK_TOL:.1e})"
        )
    return u


def _synthesis_residual(u: np.ndarray, q: np.ndarray) -> float:
    """max_mu ||gamma_mu U|0> - U sum_nu q_{mu,nu} gamma_nu |0>|| (see gaussian_unitary)."""
    ms = majoranas(q.shape[0] // 2)
    lhs = np.zeros(ms.perms.shape, dtype=complex)  # row mu: gamma_mu U|0>
    np.put_along_axis(lhs, ms.perms, ms.coefs * u[:, 0], axis=1)
    rhs = (u[:, ms.perms[:, 0]] * ms.coefs[:, 0]) @ q.T  # column mu: U sum_nu q gamma_nu |0>
    return float(np.linalg.norm(lhs - rhs.T, axis=1).max())


def _product_in_frame(s: GaussianState, u: Optional[np.ndarray] = None) -> DenseState:
    """U D U^dag for D = ⊗ (I + lam_j Z_j)/2, s's state in its normal frame;
    D itself when u is None."""
    n = s.n
    bits = (np.arange(1 << n) >> (n - 1 - np.arange(n))[:, None]) & 1  # [mode, x]
    d = np.prod(0.5 * (1.0 + s.nf.lambdas[:, None] * (1.0 - 2.0 * bits)), axis=0)
    return DenseState(n, np.diag(d) if u is None else (u * d[None, :]) @ u.conj().T)


def gaussian_to_dense(s: GaussianState) -> DenseState:
    """rho = U_Q (⊗ (I + lam_j Z_j)/2) U_Q^dag from the normal form of s."""
    u = gaussian_unitary(s.nf.q)  # raises TooManyModes above the dense cap
    return _product_in_frame(s, u)


# -- metrics ------------------------------------------------------------------

def state_metrics(a: Union[DenseState, GaussianState],
                  b: Union[DenseState, GaussianState]) -> float:
    """Exact trace distance tr|a-b|, unhalved, so ranging over [0, 2]: the one
    exact referee, for dense and Gaussian states alike.

    Two Gaussian states are compared in a's frame from one synthesis: with
    rho_i = U_i D_i U_i^dag (:func:`gaussian_to_dense`, D_i the product
    diagonal), tr|rho_1 - rho_2| = tr|D_1 - W D_2 W^dag| for W = U_1^dag U_2,
    which acts on the Majoranas by Q_1^T Q_2 (Bravyi, quant-ph/0404180): W
    is ``gaussian_unitary(Q_1^T Q_2)`` up to a phase that cancels.  A
    Gaussian state against a dense one is densified.
    """
    if a.n != b.n:
        raise DimensionMismatch(f"mode counts {a.n} and {b.n} differ")
    if isinstance(a, GaussianState) and isinstance(b, GaussianState):
        w = gaussian_unitary(a.nf.q.T @ b.nf.q)  # raises TooManyModes above the dense cap
        a, b = _product_in_frame(a), _product_in_frame(b, w)
    else:
        a, b = (gaussian_to_dense(s) if isinstance(s, GaussianState) else s for s in (a, b))
    return float(np.abs(np.linalg.eigvalsh(a.rho - b.rho)).sum())


_SUPPORT_EIG = 1e-12


def relative_entropy(a: DenseState, b: DenseState) -> float:
    """S(a||b) in bits; 0 log 0 = 0, infinite outside b's support."""
    if a.n != b.n:
        raise DimensionMismatch(f"mode counts {a.n} and {b.n} differ")
    p, u = np.linalg.eigh(a.rho)
    q, v = np.linalg.eigh(b.rho)
    p = np.clip(p, 0.0, None)
    overlaps = np.abs(u.conj().T @ v) ** 2  # overlaps[i, j] = |<u_i|v_j>|^2
    p_support = p > _SUPPORT_EIG
    q_null = q <= _SUPPORT_EIG
    if np.any(q_null):
        leaked = float(p[p_support] @ overlaps[np.ix_(p_support, q_null)].sum(axis=1))
        if leaked > 1e-10:
            return math.inf
    ent_rho = float(np.sum(p[p_support] * np.log2(p[p_support])))
    logq = np.where(q_null, 0.0, np.log2(np.where(q_null, 1.0, q)))
    cross = float((p * (overlaps @ logq)).sum())
    return max(0.0, ent_rho - cross)


def gaussianification(rho: DenseState) -> DenseState:
    """The Gaussian state with rho's correlation matrix.

    Its relative entropy from rho is the relative entropy of non-Gaussianity,
    the minimum over all Gaussian states.
    """
    return gaussian_to_dense(states.from_correlation(correlation_matrix(rho)))


def gaussian_derivative(gamma, x) -> np.ndarray:
    """d/da rho(Gamma + a X) at a = 0, i.e. -(i/8) sum X_ab [gamma_a, {gamma_b, rho}].

    Traceless and Hermitian within 1e-10 by construction of the formula.
    """
    s = states.from_correlation(gamma)
    xm = as_skew_array(x)
    if s.corr.mat.shape != xm.shape:
        raise DimensionMismatch(f"shapes {s.corr.mat.shape} and {xm.shape} differ")
    rho = gaussian_to_dense(s).rho
    ms = majoranas(s.n)
    out = np.zeros_like(rho)
    for a in range(2 * s.n):
        for b in range(a + 1, 2 * s.n):
            if xm[a, b] == 0.0:
                continue
            ga_gb_rho = ms.left_apply(a, ms.left_apply(b, rho))
            rho_gb_ga = ms.right_apply(ms.right_apply(rho, b), a)
            gb_rho_ga = ms.right_apply(ms.left_apply(b, rho), a)
            ga_rho_gb = ms.left_apply(a, ms.right_apply(rho, b))
            out += (-0.25j * xm[a, b]) * (ga_gb_rho - rho_gb_ga - gb_rho_ga + ga_rho_gb)
    return out


# -- assorted dense helpers ----------------------------------------------------

def partial_trace(rho: DenseState, keep_first: int) -> DenseState:
    """Trace out all modes after the first ``keep_first``."""
    if not 0 <= keep_first <= rho.n:
        raise DimensionMismatch(f"keep_first={keep_first} outside [0, {rho.n}]")
    da, db = 1 << keep_first, 1 << (rho.n - keep_first)
    r = rho.rho.reshape(da, db, da, db)
    return DenseState(keep_first, np.einsum("ibjb->ij", r))


def depolarize(rho: DenseState, p: float) -> DenseState:
    d = 1 << rho.n
    return DenseState(rho.n, (1.0 - p) * rho.rho + p * np.eye(d) / d)


def computational_basis(n: int, bits: Sequence[int]) -> DenseState:
    idx = 0
    for b in bits:
        idx = (idx << 1) | int(b)
    v = np.zeros(1 << n, dtype=complex)
    v[idx] = 1.0
    return DenseState.from_statevector(v)


def ghz3() -> DenseState:
    """(|000> + |111>)/sqrt(2): the canonical non-Gaussian fixture."""
    v = np.zeros(8, dtype=complex)
    v[0] = v[7] = 1.0 / math.sqrt(2.0)
    return DenseState.from_statevector(v)


def random_density_matrix(n: int, rng: np.random.Generator) -> DenseState:
    """Normalized full-rank Wishart state."""
    d = 1 << n
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return DenseState(n, rho / np.trace(rho).real)


def write_dense(f: TextIO, rho: DenseState) -> None:
    """Debug dump: mode count, then rows of re/im pairs."""
    f.write(f"{rho.n}\n")
    for row in rho.rho:
        f.write(" ".join(f"{float(z.real)!r} {float(z.imag)!r}" for z in row) + "\n")


def read_dense(f: TextIO) -> DenseState:
    """Parse :func:`write_dense`'s format.  The header's mode count is checked
    against the dense cap (:func:`check_dense_modes`) before any row is read."""
    header = f.readline().strip()
    if not header.isdecimal() or int(header) < 1:
        raise DimensionMismatch(f"header {header!r} must be a mode count >= 1")
    n = int(header)
    check_dense_modes(n)
    d = 1 << n
    rows = []
    for _ in range(d):
        vals = np.array(f.readline().split(), dtype=float)
        if vals.size != 2 * d:
            raise DimensionMismatch(f"expected {2 * d} reals per row, got {vals.size}")
        rows.append(vals[0::2] + 1j * vals[1::2])
    if any(line.strip() for line in f):
        raise DimensionMismatch(f"data after the {d} rows of a {n}-mode state")
    return DenseState(n, np.vstack(rows))
