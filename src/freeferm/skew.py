"""Real antisymmetric (skew-symmetric) matrix algebra.

One Householder tridiagonalisation (LAPACK ``dgehrd``) serves the Pfaffian, read
off the tridiagonal factor.  With a values-only SVD of its half-size bidiagonal
block it is the one :class:`Reduction` behind the one spectrum of a 2n x 2n
antisymmetric matrix, its normal eigenvalues (each singular value once), and,
with dorghr and that block's SVD factors, the normal (Youla) form.  Also dense
Schatten norms and the Weyl bound on normal-eigenvalue perturbations.  All
indices are 0-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence, Union

import numpy as np
from scipy.linalg import lapack

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    IndexOutOfRange,
    NotAntisymmetric,
    OddRestriction,
    PfaffianOutOfRange,
    UnsupportedP,
)

__all__ = [
    "SkewMatrix",
    "NormalForm",
    "as_skew_array",
    "as_skew_stack",
    "canonical_lambda",
    "lambda_blocks",
    "log_abs_product",
    "pfaffian",
    "restricted_pfaffian",
    "Reduction",
    "reduction",
    "normal_form",
    "schatten_norm",
    "normal_eigenvalues",
    "normal_eigenvalue_gap",
    "random_skew",
    "random_orthogonal",
]

#: entries this close to zero are treated as exact zeros when clamping lambdas
ZERO_CLAMP = 1e-12
#: smallest normal float; smaller SVD factor entries are set to 0 in normal_form
_TINY = np.finfo(float).tiny
#: log|Pf| range of a Pfaffian returned as a normal float
_LOG_PF_RANGE = (math.log(_TINY), math.log(np.finfo(float).max))

SkewLike = Union["SkewMatrix", np.ndarray]


def _antisymmetrize(m: np.ndarray) -> np.ndarray:
    # only the strict upper triangle is authoritative; the lower triangle and
    # the diagonal are derived, so antisymmetry holds exactly
    u = np.triu(m, 1)
    return u - np.swapaxes(u, -1, -2)


def as_skew_stack(entries: np.ndarray, *, tol: float = 1e-12) -> np.ndarray:
    """Validate a (..., 2n, 2n) stack of matrices at once and return it
    exactly antisymmetric.

    One check covers the whole stack; when it fails, the matrices are
    checked in stack order and the first failing one raises the error and
    message it raises alone, as a :class:`SkewMatrix`.
    """
    m = np.asarray(entries, dtype=float)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape[-2:]}")
    if m.shape[-1] % 2 != 0 or m.shape[-1] == 0:
        raise DimensionMismatch(f"dimension must be even and positive, got {m.shape[-1]}")
    if not (np.isfinite(m).all() and np.abs(m + np.swapaxes(m, -1, -2)).max(initial=0.0) <= tol):
        for one in m.reshape(-1, *m.shape[-2:]):
            if not np.isfinite(one).all():
                raise NotAntisymmetric("entries must be finite")
            resid = np.abs(one + one.T).max()
            if resid > tol:
                raise NotAntisymmetric(f"antisymmetry violated by {resid:.3e} (tol {tol:.1e})")
    return _antisymmetrize(m)


class SkewMatrix:
    """Immutable real antisymmetric matrix of even dimension 2n: the
    constructor checks a caller's matrix (finite, antisymmetric within 1e-12),
    :meth:`from_upper` one built in code, and :meth:`exact` one built in code
    exactly antisymmetric."""

    __slots__ = ("_m",)

    def __init__(self, entries: np.ndarray):
        m = np.asarray(entries, dtype=float)
        if m.ndim != 2:
            raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
        self._m = as_skew_stack(m)
        self._m.setflags(write=False)

    @classmethod
    def from_upper(cls, entries: np.ndarray) -> "SkewMatrix":
        """``entries``' strict upper triangle, mirrored, with no check: for a
        matrix antisymmetric by construction, the bytes the constructor stores."""
        out = cls.__new__(cls)
        out._m = _antisymmetrize(np.asarray(entries, dtype=float))
        out._m.setflags(write=False)
        return out

    @classmethod
    def exact(cls, entries: np.ndarray) -> "SkewMatrix":
        """``entries`` as it is, with no check and no copy: for a float array
        antisymmetric bit for bit by construction (a difference or a block of
        such matrices), which the caller hands over and no longer writes."""
        out = cls.__new__(cls)
        out._m = entries
        out._m.setflags(write=False)
        return out

    @property
    def mat(self) -> np.ndarray:
        return self._m

    @property
    def n(self) -> int:
        return self._m.shape[0] // 2

    def __repr__(self) -> str:
        return f"SkewMatrix(dim={self._m.shape[0]})"


def as_skew_array(a: SkewLike) -> np.ndarray:
    """Coerce to a validated, exactly antisymmetric ndarray."""
    if isinstance(a, SkewMatrix):
        return a.mat
    return SkewMatrix(np.asarray(a, dtype=float)).mat


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


def _bidiagonal(e: np.ndarray) -> np.ndarray:
    """The n x n lower bidiagonal B of a tridiagonal t with superdiagonal e:
    t with its indices ordered evens first is [[0, B], [-B^T, 0]]."""
    return np.diag(e[0::2]) - np.diag(e[1::2], -1)


def pfaffian(a: SkewLike) -> float:
    """Pfaffian via Householder tridiagonalisation (Wimmer, arXiv:1102.3440).

    With a = z t z^T, Pf(a) = det(z) Pf(t): det(z) is -1 per reflector with
    tau != 0, and Pf(t) is the product of t's entries (2k, 2k+1).  That
    product is taken as exp(:func:`log_abs_product`), so no partial product
    overflows, and keeps its range rule: a zero factor gives exactly 0.0.
    Satisfies Pf(a)^2 = det(a) and Pf(B a B^T) = det(B) Pf(a); O(dim^3).
    """
    _, tau, e = _householder(as_skew_array(a))
    factors = e[0::2]
    log_abs = log_abs_product(factors)
    if log_abs == -math.inf:
        return 0.0
    negative = np.count_nonzero(tau) + np.count_nonzero(factors < 0)
    return (-1.0) ** negative * math.exp(log_abs)


def log_abs_product(factors: np.ndarray) -> float:
    """log|prod(factors)|, summed in logs: the one range rule for a Pfaffian
    and for a product of normal eigenvalues.

    A zero factor gives -inf (the product is exactly 0); a non-zero product
    whose magnitude lies outside the normal float range raises
    :class:`PfaffianOutOfRange`.
    """
    if not factors.all():
        return -math.inf
    log_abs = float(np.log(np.abs(factors)).sum())
    if not _LOG_PF_RANGE[0] <= log_abs <= _LOG_PF_RANGE[1]:
        raise PfaffianOutOfRange(f"|Pf| = exp({log_abs:.6g}) is outside the float range")
    return log_abs


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
        """q . blockdiag(lam_j J) . q^T with one matrix product, bit for bit
        ``q @ lambda_blocks(lambdas) @ q.T``.

        q times the blocks only scales and swaps q's column pairs, so it is
        written into a C-ordered buffer, the layout of the product it replaces;
        the one product with q^T is then the same call on the same operands.
        """
        q, lams = self.q, np.asarray(self.lambdas, dtype=float)
        qb = np.empty(q.shape)
        qb[:, 1::2] = q[:, 0::2] * lams
        qb[:, 0::2] = q[:, 1::2] * -lams
        return qb @ q.T

    def with_lambdas(self, lambdas: Sequence[float]) -> "NormalForm":
        lams = np.asarray(lambdas, dtype=float)
        if lams.size != self.n:
            raise DimensionMismatch("lambda count does not match the block count")
        return NormalForm(self.q, lams, self.det_sign)


class Reduction(NamedTuple):
    """a = z t z^T (:func:`_householder`), the singular values ``sv`` of t's half-size
    bidiagonal block B in its SVD's descending order, which :func:`normal_form`
    pairs with that SVD's factors, and the normal eigenvalues ``lambdas``: ``sv``
    ascending, values below ZERO_CLAMP set to 0, the one spectrum callers read."""

    ht: np.ndarray
    tau: np.ndarray
    e: np.ndarray
    sv: np.ndarray
    lambdas: np.ndarray


def reduction(a: SkewLike) -> Reduction:
    """dgehrd and one values-only SVD of the n x n B: the reduction every spectrum reads."""
    ht, tau, e = _householder(as_skew_array(a))
    try:  # numpy's gesdd wrapper: lower call overhead than scipy's at small n
        sv = np.linalg.svd(_bidiagonal(e), compute_uv=False)
    except np.linalg.LinAlgError as exc:  # no LAPACK convergence
        raise ConvergenceFailure(f"skew singular values failed: {exc}") from exc
    lams = np.sort(sv)
    lams[lams < ZERO_CLAMP] = 0.0
    return Reduction(ht, tau, e, sv, lams)


def normal_form(a: Union[SkewLike, Reduction]) -> NormalForm:
    """Normal (Youla) form of a, or of its :class:`Reduction`, with all block
    parameters non-negative.

    Ordering t's indices evens first turns it into [[0, B], [-B^T, 0]], so with z
    formed by LAPACK dorghr and B = U S V^T, block j is the plane (z_even U_j,
    z_odd V_j), sorted ascending by lambda (ties keep the SVD order).  S and the
    det-sign test are the reduction's values; the vector SVD, through numpy's
    wrapper as in :func:`reduction`, gives only U and V^T.
    Entries of U and V^T below the smallest normal float are set to 0 before
    the two products with z: for a pure input B is nearly diagonal, and the
    subnormals of its SVD factors would slow those products several-fold.
    """
    ht, tau, e, s, lams = a if isinstance(a, Reduction) else reduction(a)
    z, info = lapack.dorghr(ht, tau, lwork=int(lapack.dorghr_lwork(ht.shape[0])[0]))
    if info != 0:
        raise ConvergenceFailure(f"skew normal form failed (dorghr info {info})")
    try:
        u, _, vt = np.linalg.svd(_bidiagonal(e))
    except np.linalg.LinAlgError as exc:  # no LAPACK convergence
        raise ConvergenceFailure(f"skew normal form failed: {exc}") from exc
    u[np.abs(u) < _TINY] = 0.0
    vt[np.abs(vt) < _TINY] = 0.0
    order = np.argsort(s, kind="stable")
    q = np.empty_like(z)
    q[:, 0::2] = z[:, 0::2] @ u[:, order]
    q[:, 1::2] = z[:, 1::2] @ vt.T[:, order]
    # q is z, reordered, times blockdiag(U, V) in the same order: det(z) is -1
    # per reflector with tau != 0 (as in pfaffian), and the orders cancel.  With
    # every singular value clear of 0, sign det U det V^T is sign det B, the
    # product of the signs of B's diagonal; otherwise it comes from two LUs
    if s.min() > 1e-8 * s.max():
        flips = np.count_nonzero(e[0::2] < 0)
    else:
        flips = int(np.linalg.det(u) < 0) + int(np.linalg.det(vt) < 0)
    negative = np.count_nonzero(tau) + flips
    return NormalForm(q=q, lambdas=lams, det_sign=(-1) ** int(negative))


def normal_eigenvalues(a: SkewLike) -> np.ndarray:
    """The one spectrum of an antisymmetric a, ``normal_form(a).lambdas`` with no
    vectors: each singular value once, ascending, below ZERO_CLAMP set to 0.  Its
    norms: operator ``[-1]``, trace ``2 * sum()``, Frobenius ``sqrt(2 * sum(λ²))``."""
    return reduction(a).lambdas


def schatten_norm(a: np.ndarray, p) -> float:
    """Schatten p-norm for p in {1, 2, inf} of any square matrix, from a dense SVD:
    for one known antisymmetric, :func:`normal_eigenvalues` gives the same norms."""
    m = np.asarray(a)
    if p == 2:
        return float(np.linalg.norm(m, "fro"))
    if p == 1 or p == np.inf:
        sv = np.linalg.svd(m, compute_uv=False)
        return float(sv.sum()) if p == 1 else float(sv[0]) if sv.size else 0.0
    raise UnsupportedP(f"supported p are 1, 2 and inf; got {p!r}")


def normal_eigenvalue_gap(a: SkewLike, b: SkewLike) -> float:
    """max_k |lambda_k(a) - lambda_k(b)|, both sorted ascending.

    Bounded above by the operator norm of a - b (Weyl perturbation bound).
    """
    la, lb = normal_eigenvalues(a), normal_eigenvalues(b)
    if la.size != lb.size:
        raise DimensionMismatch(f"shapes {(2 * la.size,) * 2} and {(2 * lb.size,) * 2} differ")
    return float(np.abs(la - lb).max())


def random_skew(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random antisymmetric matrix with i.i.d. standard Gaussian upper triangle;
    ``s * random_skew(...)`` draws one of scale s."""
    return _antisymmetrize(rng.normal(size=(dim, dim)))


def random_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish orthogonal matrix from the QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))
