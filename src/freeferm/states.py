"""Free-fermionic states represented by their correlation matrices.

A state is carried entirely by a validated 2n x 2n real antisymmetric
correlation matrix and its normal eigenvalues, its normal form cached or built
on first use.  Every correlation-matrix bound on trace distance, fidelity and
non-Gaussianity is read from one spectrum (:func:`skew.normal_eigenvalues`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from . import skew
from .errors import (
    DimensionMismatch,
    NotAValidCorrelationMatrix,
    NotOrthogonal,
    NotPure,
    RankExponentOutOfRange,
)
from .skew import NormalForm, SkewMatrix, lambda_blocks, schatten_norm

__all__ = [
    "GaussianState",
    "BoundsReport",
    "NonGaussReport",
    "from_correlation",
    "from_normal_form",
    "clip_to_valid",
    "product_state",
    "vacuum",
    "rotate",
    "check_orthogonal",
    "wick_expectation",
    "parity",
    "overlap_pure",
    "distance_bounds",
    "nongaussianity_bounds",
    "purify",
    "random_gaussian_state",
]

#: input normal eigenvalues may overshoot 1 by at most this much
LAMBDA_INPUT_SLACK = 1e-6
#: purity test: all normal eigenvalues within this of 1
PURITY_TOL = 1e-6

GammaLike = Union[SkewMatrix, np.ndarray, "GaussianState"]


def _pure_lambdas(lambdas: np.ndarray) -> bool:
    """The purity predicate: every normal eigenvalue within PURITY_TOL of 1."""
    return bool(np.all(lambdas >= 1.0 - PURITY_TOL))


def _skew_of(g: GammaLike) -> SkewMatrix:
    """The validated correlation matrix of ``g``: a state's own, a SkewMatrix
    itself, else one SkewMatrix built from the array."""
    if isinstance(g, GaussianState):
        return g.corr
    return g if isinstance(g, SkewMatrix) else SkewMatrix(g)


def _lambdas_of(g: GammaLike) -> np.ndarray:
    """Normal eigenvalues, ascending: a state's cached ones, else computed."""
    return g.lambdas if isinstance(g, GaussianState) else skew.normal_eigenvalues(g)


class GaussianState:
    """A free-fermionic state: correlation matrix, normal eigenvalues, and normal
    form ``nf``.  Its ``frame`` is that normal form, kept as it is, or the
    :class:`skew.Reduction` of λ, replaced by its normal form on the first read
    of ``nf``; λ are the frame's."""

    def __init__(self, corr: SkewMatrix, frame: Union[NormalForm, skew.Reduction]):
        self.corr, self._frame, self.lambdas = corr, frame, frame.lambdas

    @property
    def nf(self) -> NormalForm:
        if isinstance(self._frame, skew.Reduction):
            self._frame = skew.normal_form(self._frame)
        return self._frame

    @property
    def n(self) -> int:
        return self.corr.n

    def is_pure(self) -> bool:
        return _pure_lambdas(self.lambdas)

    def __repr__(self) -> str:
        return f"GaussianState(n={self.n}, lambdas={np.round(self.lambdas, 6)})"


def from_correlation(g: GammaLike) -> GaussianState:
    """Validate a correlation matrix and build the state by :func:`_clamped`;
    normal eigenvalues above 1 + 1e-6 are rejected."""
    return _clamped(_skew_of(g), LAMBDA_INPUT_SLACK)


def _clamped(corr: SkewMatrix, slack: float) -> GaussianState:
    """The one clamp rule from a matrix to a state: its normal eigenvalues from
    :func:`skew.reduction`, clipped at 1, its frame built on first use.

    An overshoot of more than ``slack`` is rejected.  One of at most
    ``skew.ZERO_CLAMP`` (round-off) is clamped in λ only, with the matrix stored
    as it is; a larger one is clamped in the normal form, and the stored matrix
    is re-synthesized from it."""
    red = skew.reduction(corr)
    lam = red.lambdas
    if lam[-1] > 1.0 + slack:
        raise NotAValidCorrelationMatrix(
            f"largest normal eigenvalue {lam[-1]:.8f} exceeds 1 beyond slack")
    if lam[-1] > 1.0 + skew.ZERO_CLAMP:
        return from_normal_form(skew.normal_form(red).with_lambdas(np.minimum(lam, 1.0)))
    return GaussianState(corr, red._replace(lambdas=np.minimum(lam, 1.0)))


def from_normal_form(nf: NormalForm) -> GaussianState:
    """The state Q (+)lam_j J Q^T of ``nf``: antisymmetric up to round-off, so
    its upper triangle is stored, mirrored, unchecked."""
    return GaussianState(SkewMatrix.from_upper(nf.reconstruct()), nf)


def clip_to_valid(g: GammaLike) -> GaussianState:
    """:func:`from_correlation`'s clamp rule with no slack: normal eigenvalues
    above 1 clip to 1, however large.  This is mixed tomography's projection of
    its estimate onto valid correlation matrices (Step 3)."""
    return _clamped(_skew_of(g), math.inf)


def product_state(lambdas: Sequence[float]) -> GaussianState:
    """Diagonal state with correlation matrix ⊕ lam_j [[0,1],[-1,0]]."""
    lams = np.asarray(lambdas, dtype=float)
    if lams.ndim != 1 or lams.size == 0:
        raise DimensionMismatch("need a non-empty flat list of lambdas")
    if not np.all(np.abs(lams) <= 1.0):  # NaN fails this comparison too
        raise NotAValidCorrelationMatrix(f"lambdas must be finite and in [-1, 1], got {lams}")
    return from_correlation(SkewMatrix.from_upper(lambda_blocks(lams)))


def vacuum(n: int) -> GaussianState:
    """The |0^n> state."""
    return product_state(np.ones(n))


def rotate(s: GaussianState, q: np.ndarray) -> GaussianState:
    """Conjugate by the Gaussian unitary of q: the state of normal form (q Q, lam)."""
    q = np.asarray(q, dtype=float)
    if q.shape != (2 * s.n, 2 * s.n):
        raise DimensionMismatch(f"rotation shape {q.shape} does not match 2n={2 * s.n}")
    check_orthogonal(q)
    det_sign = s.nf.det_sign * (1 if np.linalg.det(q) > 0 else -1)
    return from_normal_form(NormalForm(q @ s.nf.q, s.lambdas, det_sign))


def check_orthogonal(q: np.ndarray) -> None:
    """Raise NotOrthogonal unless ||q^T q - I|| <= 1e-10 in operator norm."""
    resid = schatten_norm(q.T @ q - np.eye(q.shape[0]), np.inf)
    if resid > 1e-10:
        raise NotOrthogonal(f"orthogonality violated by {resid:.3e}")


def wick_expectation(s: GaussianState, subset: Sequence[int]) -> complex:
    """Tr(gamma_S rho) = i^{|S|/2} Pf(corr restricted to S); an odd |S| raises
    OddRestriction."""
    idx = list(subset)
    return (1j ** (len(idx) // 2)) * skew.restricted_pfaffian(s.corr, idx)


def parity(s: GaussianState) -> float:
    """Expectation of Z^(x)n: Pf(corr) = det(q) prod(lambdas) from the cached normal
    form, under the range rule of :func:`skew.pfaffian` (:func:`skew.log_abs_product`)."""
    if skew.log_abs_product(s.lambdas) == -math.inf:
        return 0.0
    return s.nf.det_sign * float(np.prod(s.lambdas))


def overlap_pure(s1: GaussianState, s2: GaussianState) -> float:
    """|<psi1|psi2>|^2 = |Pf((G1 + G2)/2)| for pure states.

    |Pf(A)| is taken as sqrt|det A| from one LU (``slogdet``), which cannot
    underflow or overflow on the way.
    """
    if s1.n != s2.n:
        raise DimensionMismatch("states live on different mode counts")
    if not s1.is_pure() or not s2.is_pure():
        raise NotPure("overlap formula requires pure states")
    sign, log_det = np.linalg.slogdet(0.5 * (s1.corr.mat + s2.corr.mat))
    val = math.exp(0.5 * log_det) if sign != 0 else 0.0
    return float(min(1.0, val))


# -- distance / fidelity bounds ---------------------------------------------

@dataclass(frozen=True)
class BoundsReport:
    """Correlation-matrix bounds on trace distance and fidelity.

    The trace-distance fields are unhalved, in [0, 2]; ``ub_pure`` and
    ``ub_pure_vs_any`` are None when the requested mode does not support
    them.  ``fid_lb_sq`` = (1 - d_1/4)^2 bounds the squared fidelity
    F = ||sqrt(rho1) sqrt(rho2)||_1^2 from below: Fuchs-van de Graaf gives
    sqrt(F) >= 1 - D/2, and ``ub_mixed`` = d_1/2 bounds D.
    """

    lb_infty: float
    ub_pure: Optional[float]
    ub_mixed: float
    ub_pure_vs_any: Optional[float]
    fid_lb_sq: float


def distance_bounds(g1: GammaLike, g2: GammaLike, mode: str = "mixed_mixed") -> BoundsReport:
    """Evaluate every bound for the pair of correlation matrices.

    mode: "pure_pure" (both Gaussian and pure), "mixed_mixed" (both
    Gaussian), or "pure_vs_any" (first pure Gaussian, second arbitrary).
    The difference of two exactly antisymmetric matrices is exactly
    antisymmetric, so it is stored unchecked; its operator, trace and Frobenius
    norms are read from its one spectrum (:func:`skew.normal_eigenvalues`), so a
    singular value below ``skew.ZERO_CLAMP`` (round-off) reads 0 in every field.
    """
    # each array is checked once; the pure modes read its lambdas from the SkewMatrix
    g1, g2 = (g if isinstance(g, GaussianState) else _skew_of(g) for g in (g1, g2))
    m1, m2 = _skew_of(g1).mat, _skew_of(g2).mat
    if m1.shape != m2.shape:
        raise DimensionMismatch(f"shapes {m1.shape} and {m2.shape} differ")
    if mode not in ("pure_pure", "mixed_mixed", "pure_vs_any"):
        raise ValueError(f"unknown mode {mode!r}")
    lam = skew.normal_eigenvalues(SkewMatrix.exact(m1 - m2))  # each singular value once
    d_inf = float(lam[-1])
    d_1 = float(2.0 * lam.sum())

    ub_pure = None
    if mode == "pure_pure":
        if not all(_pure_lambdas(_lambdas_of(g)) for g in (g1, g2)):
            raise NotPure("pure_pure mode requires two pure correlation matrices")
        ub_pure = 2.0 if d_inf >= 2.0 - 1e-9 else min(2.0, 0.5 * math.sqrt(2.0 * lam @ lam))

    ub_pure_vs_any = None
    if mode == "pure_vs_any":
        if not _pure_lambdas(_lambdas_of(g1)):
            raise NotPure("pure_vs_any mode requires a pure first argument")
        ub_pure_vs_any = min(2.0, math.sqrt(d_1))

    return BoundsReport(
        lb_infty=float(min(2.0, d_inf)),
        ub_pure=ub_pure,
        ub_mixed=float(min(2.0, 0.5 * d_1)),
        ub_pure_vs_any=ub_pure_vs_any,
        fid_lb_sq=max(0.0, 1.0 - 0.25 * d_1) ** 2,
    )


@dataclass(frozen=True)
class NonGaussReport:
    """Computable bounds on the distance to Gaussian-state sets."""

    r: int
    lb_rank_set: float          # vs Gaussian states of rank <= 2^r; no promise needed
    lb_all_gaussian: float      # vs all Gaussian states; needs rank(rho) <= 2^r
    ub_pure_set: float          # distance to the pure Gaussian set, from above


def nongaussianity_bounds(g: GammaLike, r: int) -> NonGaussReport:
    lam = np.minimum(_lambdas_of(g), 1.0)
    if not 0 <= r <= lam.size - 1:
        raise RankExponentOutOfRange(f"r={r} outside [0, {lam.size - 1}]")
    gap = float(1.0 - lam[r])
    lb_rank = gap
    lb_all = gap ** (r + 1) / (1.0 + (r + 1) * gap ** r)
    ub_pure = math.sqrt(2.0 * float(np.maximum(1.0 - lam, 0.0).sum()))
    return NonGaussReport(r=r, lb_rank_set=lb_rank, lb_all_gaussian=lb_all, ub_pure_set=ub_pure)


def purify(s: GaussianState) -> GaussianState:
    """Pure 2n-mode state whose first-n-modes marginal is ``s``.

    Built in closed form from the cached normal form corr = Q (+)lam_j J Q^T
    (Bravyi, quant-ph/0404180): the result is [[corr, R], [-R, -corr]] with
    R = Q diag(s_j, s_j) Q^T, s_j = sqrt(1 - lam_j^2), so its top-left block
    is the input matrix bit for bit.  Per mode, in the basis (Q_2j, 0),
    (Q_2j+1, 0), (0, Q_2j), (0, Q_2j+1), the normal-form columns are e1,
    (0, lam, s, 0), e4 and (0, -s, lam, 0): every lambda is 1 and each 4x4
    block has determinant -1, so det(q) = (-1)^n.  Purity is checked, not
    assumed: the Frobenius norms of R^2 - corr^2 - I and corr R - R corr must
    sum to at most LAMBDA_INPUT_SLACK.  Together they make up M M^T - I for
    the result M, so the check bounds every |lam^2 - 1| of M by the slack.
    R is symmetrised, so the block is antisymmetric bit for bit and is
    stored as it is (:meth:`SkewMatrix.exact`), with no check and no mirror.
    """
    g, q, lam = s.corr.mat, s.nf.q, s.lambdas
    root = np.sqrt(np.maximum(1.0 - lam * lam, 0.0))
    r = (q * np.repeat(root, 2)) @ q.T
    r = 0.5 * (r + r.T)
    # with r symmetric and g antisymmetric, r g = -(g r)^T, so two products give
    # both conditions: (r - g)(r + g) = r^2 - g^2 - (g r + (g r)^T)
    gr = g @ r
    comm = gr + gr.T
    resid = (np.linalg.norm((r - g) @ (r + g) + comm - np.eye(g.shape[0]))
             + np.linalg.norm(comm))
    if resid > LAMBDA_INPUT_SLACK:
        raise NotAValidCorrelationMatrix(
            f"purification is not pure: residual {resid:.3e} exceeds {LAMBDA_INPUT_SLACK:.0e}")
    # np.block rather than one preallocated 4n x 4n buffer: at n = 128 in a
    # long-running process, the buffer made the allocator return and re-fault
    # about 400 more pages per call, which cost more than the copies it saved
    m = SkewMatrix.exact(np.block([[g, r], [-r, -g]]))
    n, qe, qo = s.n, q[:, 0::2], q[:, 1::2]
    q2 = np.zeros((4 * n, 4 * n))
    top, bot = q2[:2 * n], q2[2 * n:]
    top[:, 0:2 * n:2] = qe  # e1
    top[:, 1:2 * n:2], bot[:, 1:2 * n:2] = qo * lam, qe * root  # (0, lam, s, 0)
    bot[:, 2 * n::2] = qo  # e4
    top[:, 2 * n + 1::2], bot[:, 2 * n + 1::2] = -qo * root, qe * lam  # (0, -s, lam, 0)
    return GaussianState(m, NormalForm(q=q2, lambdas=np.ones(2 * n), det_sign=(-1) ** n))


# -- generators --------------------------------------------------------------

def random_gaussian_state(n: int, kind: str, rng: np.random.Generator) -> GaussianState:
    """Random state: Haar-ish orthogonal rotation of a diagonal state, in its normal form.

    kind "pure" sets all lambdas to 1; "mixed" draws them uniformly in [0, 1].
    """
    if kind == "pure":
        lams = np.ones(n)
    elif kind == "mixed":
        lams = rng.uniform(0.0, 1.0, size=n)
    else:
        raise ValueError(f"kind must be 'pure' or 'mixed', got {kind!r}")
    order = np.argsort(lams, kind="stable")  # moving whole pairs is even: det q keeps its sign
    q = skew.random_orthogonal(2 * n, rng)[:, (2 * order[:, None] + [0, 1]).ravel()]
    return from_normal_form(NormalForm(q, lams[order], 1 if np.linalg.det(q) > 0 else -1))
