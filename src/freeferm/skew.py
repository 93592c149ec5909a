"""Real antisymmetric (skew-symmetric) matrix algebra.

One Householder tridiagonalisation (LAPACK ``dgehrd``) serves both the
Pfaffian, read off the tridiagonal factor, and the orthogonal normal (Youla)
form with non-negative block parameters (plus the SVD of a bidiagonal
half-size matrix).  Also Schatten and Ky Fan norms and the Weyl bound on
normal-eigenvalue perturbations.  All indices are 0-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    IndexOutOfRange,
    NotAntisymmetric,
    OddRestriction,
    PfaffianOutOfRange,
    RankTooLarge,
    UnsupportedP,
)

__all__ = [
    "SkewMatrix",
    "NormalForm",
    "as_skew_array",
    "canonical_lambda",
    "lambda_blocks",
    "pfaffian",
    "restricted_pfaffian",
    "normal_form",
    "schatten_norm",
    "ky_fan_norm",
    "normal_eigenvalues",
    "normal_eigenvalue_gap",
    "random_skew",
    "random_orthogonal",
]

#: entries this close to zero are treated as exact zeros when clamping lambdas
ZERO_CLAMP = 1e-12
#: log|Pf| range of a Pfaffian returned as a normal float
_LOG_PF_RANGE = (math.log(np.finfo(float).tiny), math.log(np.finfo(float).max))

SkewLike = Union["SkewMatrix", np.ndarray]


def _antisymmetrize(m: np.ndarray) -> np.ndarray:
    # only the strict upper triangle is authoritative; the lower triangle and
    # the diagonal are derived, so antisymmetry holds exactly
    u = np.triu(m, 1)
    return u - u.T


class SkewMatrix:
    """Immutable real antisymmetric matrix of even dimension 2n."""

    __slots__ = ("_m",)

    def __init__(self, entries: np.ndarray, *, tol: float = 1e-12):
        m = np.asarray(entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
        if m.shape[0] % 2 != 0 or m.shape[0] == 0:
            raise DimensionMismatch(f"dimension must be even and positive, got {m.shape[0]}")
        if not np.isfinite(m).all():
            raise NotAntisymmetric("entries must be finite")
        resid = np.abs(m + m.T).max()
        if resid > tol:
            raise NotAntisymmetric(f"antisymmetry violated by {resid:.3e} (tol {tol:.1e})")
        self._m = _antisymmetrize(m)
        self._m.setflags(write=False)

    @property
    def mat(self) -> np.ndarray:
        return self._m

    @property
    def dim(self) -> int:
        return self._m.shape[0]

    @property
    def n(self) -> int:
        return self._m.shape[0] // 2

    def __array__(self, dtype=None):
        return self._m if dtype is None else self._m.astype(dtype)

    def __repr__(self) -> str:
        return f"SkewMatrix(dim={self.dim})"

    @staticmethod
    def zeros(dim: int) -> "SkewMatrix":
        if dim % 2 != 0 or dim <= 0:
            raise DimensionMismatch(f"dimension must be even and positive, got {dim}")
        return SkewMatrix(np.zeros((dim, dim)))


def as_skew_array(a: SkewLike, *, tol: float = 1e-12) -> np.ndarray:
    """Coerce to a validated, exactly antisymmetric ndarray."""
    if isinstance(a, SkewMatrix):
        return a.mat
    return SkewMatrix(np.asarray(a, dtype=float), tol=tol).mat


def lambda_blocks(lambdas: Sequence[float]) -> np.ndarray:
    """Block-diagonal matrix with blocks ``lam * [[0, 1], [-1, 0]]``."""
    lams = np.asarray(lambdas, dtype=float)
    n = lams.size
    out = np.zeros((2 * n, 2 * n))
    out[2 * np.arange(n), 2 * np.arange(n) + 1] = lams
    out[2 * np.arange(n) + 1, 2 * np.arange(n)] = -lams
    return out


def canonical_lambda(n: int) -> np.ndarray:
    """The direct sum of n blocks [[0, 1], [-1, 0]]."""
    return lambda_blocks(np.ones(n))


def _householder(m: np.ndarray):
    """Householder reduction m = z t z^T of an antisymmetric m (LAPACK dgehrd).

    t is tridiagonal (the Hessenberg form of an antisymmetric matrix).
    Returns dgehrd's packed output (t on and above the subdiagonal, the
    reflectors below it), the reflector scalars tau, and t's superdiagonal
    averaged with minus its subdiagonal.
    """
    ht, tau, info = lapack.dgehrd(m, lwork=int(lapack.dgehrd_lwork(m.shape[0])[0]))
    if info != 0:
        raise ConvergenceFailure(f"Householder reduction failed (dgehrd info {info})")
    return ht, tau, 0.5 * (np.diag(ht, 1) - np.diag(ht, -1))


def pfaffian(a: SkewLike) -> float:
    """Pfaffian via Householder tridiagonalisation (Wimmer, arXiv:1102.3440).

    With a = z t z^T, Pf(a) = det(z) Pf(t): det(z) is -1 per reflector with
    tau != 0, and Pf(t) is the product of t's entries (2k, 2k+1).  That
    product is taken as exp(sum log|e_k|), so no partial product overflows.
    A zero factor gives exactly 0.0; a non-zero result whose magnitude lies
    outside the normal float range raises :class:`PfaffianOutOfRange`.
    Satisfies Pf(a)^2 = det(a) and Pf(B a B^T) = det(B) Pf(a); O(dim^3).
    """
    _, tau, e = _householder(as_skew_array(a))
    factors = e[0::2]
    if not factors.all():
        return 0.0
    log_abs = float(np.log(np.abs(factors)).sum())
    if not _LOG_PF_RANGE[0] <= log_abs <= _LOG_PF_RANGE[1]:
        raise PfaffianOutOfRange(f"|Pf| = exp({log_abs:.6g}) is outside the float range")
    negative = np.count_nonzero(tau) + np.count_nonzero(factors < 0)
    return (-1.0) ** negative * math.exp(log_abs)


def restricted_pfaffian(a: SkewLike, s: Iterable[int]) -> float:
    """Pfaffian of the principal submatrix on the (0-based) index set ``s``.

    The empty restriction has Pfaffian 1 by convention.
    """
    m = as_skew_array(a)
    idx = list(s)
    if len(idx) % 2 != 0:
        raise OddRestriction(f"restriction needs an even number of indices, got {len(idx)}")
    if not idx:
        return 1.0
    if any(i < 0 or i >= m.shape[0] for i in idx):
        raise IndexOutOfRange(f"indices {idx} outside [0, {m.shape[0]})")
    if any(b <= a_ for a_, b in zip(idx, idx[1:])):
        raise IndexOutOfRange(f"indices must be strictly increasing, got {idx}")
    return pfaffian(m[np.ix_(idx, idx)])


@dataclass(frozen=True)
class NormalForm:
    """Decomposition a = q . blockdiag(lam_j [[0,1],[-1,0]]) . q^T.

    ``lambdas`` are non-negative and sorted ascending; ``det_sign`` records
    det(q) so callers needing the SO(2n) convention can compose a reflection.
    """

    q: np.ndarray
    lambdas: np.ndarray
    det_sign: int

    @property
    def n(self) -> int:
        return self.lambdas.size

    def reconstruct(self) -> np.ndarray:
        return self.q @ lambda_blocks(self.lambdas) @ self.q.T

    def with_lambdas(self, lambdas: Sequence[float]) -> "NormalForm":
        lams = np.asarray(lambdas, dtype=float)
        if lams.size != self.n:
            raise DimensionMismatch("lambda count does not match the block count")
        return NormalForm(self.q, lams, self.det_sign)


def normal_form(a: SkewLike) -> NormalForm:
    """Normal (Youla) form with all block parameters non-negative.

    The Householder reduction a = z t z^T that :func:`pfaffian` also reads
    (z formed by LAPACK dorghr) makes t tridiagonal.  Ordering t's indices
    evens first turns it into [[0, B], [-B^T, 0]] with B lower bidiagonal,
    so the SVD B = U S V^T gives block j the plane (z_even U_j, z_odd V_j)
    and the parameter S_j.  Blocks are sorted ascending by lambda; ties keep the
    SVD order.  Values within ZERO_CLAMP of zero are clamped to exactly 0.
    """
    m = as_skew_array(a)
    ht, tau, e = _householder(m)
    z, info = lapack.dorghr(ht, tau, lwork=int(lapack.dorghr_lwork(m.shape[0])[0]))
    if info != 0:
        raise ConvergenceFailure(f"skew normal form failed (dorghr info {info})")
    try:
        u, s, vt = scipy.linalg.svd(np.diag(e[0::2]) - np.diag(e[1::2], -1))
    except ValueError as exc:  # no LAPACK convergence
        raise ConvergenceFailure(f"skew normal form failed: {exc}") from exc
    order = np.argsort(s, kind="stable")
    q = np.empty_like(z)
    q[:, 0::2] = z[:, 0::2] @ u[:, order]
    q[:, 1::2] = z[:, 1::2] @ vt.T[:, order]
    lams = np.where(s[order] < ZERO_CLAMP, 0.0, s[order])
    det_sign = 1 if np.linalg.det(q) > 0 else -1
    return NormalForm(q=q, lambdas=lams, det_sign=det_sign)


def normal_eigenvalues(a: SkewLike) -> np.ndarray:
    """Non-negative normal eigenvalues, ascending (no eigenvectors)."""
    m = as_skew_array(a)
    sv = np.linalg.svd(m, compute_uv=False)
    # singular values of a skew matrix come in equal pairs
    return sv[0::2][::-1].copy()


def schatten_norm(a: np.ndarray, p) -> float:
    """Schatten p-norm for p in {1, 2, inf}: the p-norm of the singular values."""
    m = np.asarray(a)
    if p == 2:
        return float(np.linalg.norm(m, "fro"))
    if p == 1 or p == np.inf:
        sv = np.linalg.svd(m, compute_uv=False)
        return float(sv.sum()) if p == 1 else float(sv[0]) if sv.size else 0.0
    raise UnsupportedP(f"supported p are 1, 2 and inf; got {p!r}")


def ky_fan_norm(a: np.ndarray, r: int) -> float:
    """Sum of the r largest singular values."""
    m = np.asarray(a)
    if r <= 0 or r > min(m.shape):
        raise RankTooLarge(f"order r={r} outside [1, {min(m.shape)}]")
    sv = np.linalg.svd(m, compute_uv=False)
    return float(sv[:r].sum())


def normal_eigenvalue_gap(a: SkewLike, b: SkewLike) -> float:
    """max_k |lambda_k(a) - lambda_k(b)|, both sorted ascending.

    Bounded above by the operator norm of a - b (Weyl perturbation bound).
    """
    ma, mb = as_skew_array(a), as_skew_array(b)
    if ma.shape != mb.shape:
        raise DimensionMismatch(f"shapes {ma.shape} and {mb.shape} differ")
    return float(np.abs(normal_eigenvalues(ma) - normal_eigenvalues(mb)).max())


def random_skew(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Random antisymmetric matrix with i.i.d. Gaussian upper triangle."""
    return _antisymmetrize(rng.normal(scale=scale, size=(dim, dim)))


def random_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish orthogonal matrix from the QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))
