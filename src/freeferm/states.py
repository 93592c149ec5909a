"""Free-fermionic states represented by their correlation matrices.

A state is carried entirely by a validated 2n x 2n real antisymmetric
correlation matrix together with its cached normal form.  This module also
evaluates every correlation-matrix bound on trace distance, fidelity and
non-Gaussianity, plus the particle-number-preserving conversions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from . import skew
from .errors import (
    DimensionMismatch,
    LambdaOutOfRange,
    NotAValidCorrelationMatrix,
    NotHermitian,
    NotOrthogonal,
    NotPure,
    OccupationOutOfRange,
    OddSubset,
    RankExponentOutOfRange,
)
from .skew import NormalForm, SkewMatrix, as_skew_array, lambda_blocks, schatten_norm

__all__ = [
    "GaussianState",
    "PnpCorrelation",
    "BoundsReport",
    "NonGaussReport",
    "from_correlation",
    "clip_to_valid",
    "product_state",
    "vacuum",
    "rotate",
    "wick_expectation",
    "parity",
    "overlap_pure",
    "distance_bounds",
    "nongaussianity_bounds",
    "purify",
    "rank_exponent",
    "pnp_to_gamma",
    "pnp_norm_transfer",
    "random_gaussian_state",
]

#: input normal eigenvalues may overshoot 1 by at most this much
LAMBDA_INPUT_SLACK = 1e-6
#: purity test: all normal eigenvalues within this of 1
PURITY_TOL = 1e-6

GammaLike = Union[SkewMatrix, np.ndarray, "GaussianState"]


def _pure_lambdas(lambdas: np.ndarray, tol: float = PURITY_TOL) -> bool:
    """The purity predicate: every normal eigenvalue within ``tol`` of 1."""
    return bool(np.all(lambdas >= 1.0 - tol))


def _gamma_of(g: GammaLike) -> np.ndarray:
    if isinstance(g, GaussianState):
        return g.corr.mat
    return as_skew_array(g)


def _lambdas_of(g: GammaLike) -> np.ndarray:
    """Normal eigenvalues, ascending: a state's cached ones, else computed."""
    if isinstance(g, GaussianState):
        return g.lambdas
    return skew.normal_eigenvalues(as_skew_array(g))


@dataclass(frozen=True)
class GaussianState:
    """A free-fermionic state: correlation matrix plus cached normal form."""

    corr: SkewMatrix
    nf: NormalForm

    @property
    def n(self) -> int:
        return self.corr.n

    @property
    def lambdas(self) -> np.ndarray:
        return self.nf.lambdas

    def is_pure(self, tol: float = PURITY_TOL) -> bool:
        return _pure_lambdas(self.lambdas, tol)

    def __repr__(self) -> str:
        return f"GaussianState(n={self.n}, lambdas={np.round(self.lambdas, 6)})"


def from_correlation(g: GammaLike) -> GaussianState:
    """Validate a correlation matrix and build the state.

    Normal eigenvalues above 1 + 1e-6 are rejected; overshoot within the
    slack (estimator round-off) is clamped back to 1, and the stored matrix
    is re-synthesized from the clamped normal form so it stays consistent.
    """
    m = as_skew_array(g)
    nf = skew.normal_form(m)
    lam = nf.lambdas
    if lam[-1] > 1.0 + LAMBDA_INPUT_SLACK:
        raise NotAValidCorrelationMatrix(
            f"largest normal eigenvalue {lam[-1]:.8f} exceeds 1 beyond slack"
        )
    if lam[-1] > 1.0:
        nf = nf.with_lambdas(np.minimum(lam, 1.0))
        m = nf.reconstruct()
    return GaussianState(corr=SkewMatrix(m), nf=nf)


def clip_to_valid(g: GammaLike) -> GaussianState:
    """Clip normal eigenvalues above 1 down to 1, however large.

    This is the estimator-side projection onto valid correlation matrices
    (tomography Step 3); :func:`from_correlation` stays strict.
    """
    nf = skew.normal_form(_gamma_of(g))
    nf = nf.with_lambdas(np.minimum(nf.lambdas, 1.0))
    m = nf.reconstruct()
    return GaussianState(corr=SkewMatrix(m), nf=nf)


def product_state(lambdas: Sequence[float]) -> GaussianState:
    """Diagonal state with correlation matrix ⊕ lam_j [[0,1],[-1,0]]."""
    lams = np.asarray(lambdas, dtype=float)
    if lams.ndim != 1 or lams.size == 0:
        raise DimensionMismatch("need a non-empty flat list of lambdas")
    if np.abs(lams).max() > 1.0:
        raise LambdaOutOfRange(f"|lambda| must be <= 1, got {lams}")
    return from_correlation(lambda_blocks(lams))


def vacuum(n: int) -> GaussianState:
    """The |0^n> state."""
    return product_state(np.ones(n))


def rotate(s: GaussianState, q: np.ndarray) -> GaussianState:
    """Conjugate by the Gaussian unitary of q: corr -> q corr q^T."""
    q = np.asarray(q, dtype=float)
    if q.shape != (2 * s.n, 2 * s.n):
        raise DimensionMismatch(f"rotation shape {q.shape} does not match 2n={2 * s.n}")
    _check_orthogonal(q)
    m = q @ s.corr.mat @ q.T
    # spectrum is preserved exactly, so reuse the cached lambdas
    nf = NormalForm(
        q=q @ s.nf.q,
        lambdas=s.nf.lambdas,
        det_sign=s.nf.det_sign * (1 if np.linalg.det(q) > 0 else -1),
    )
    return GaussianState(corr=SkewMatrix(m, tol=1e-9), nf=nf)


def _check_orthogonal(q: np.ndarray, tol: float = 1e-10) -> None:
    resid = schatten_norm(q.T @ q - np.eye(q.shape[0]), np.inf)
    if resid > tol:
        raise NotOrthogonal(f"orthogonality violated by {resid:.3e}")


def wick_expectation(s: GaussianState, subset: Sequence[int]) -> complex:
    """Tr(gamma_S rho) = i^{|S|/2} Pf(corr restricted to S); |S| must be even."""
    idx = list(subset)
    if len(idx) % 2 != 0:
        raise OddSubset(f"Majorana subset must have even size, got {len(idx)}")
    return (1j ** (len(idx) // 2)) * skew.restricted_pfaffian(s.corr, idx)


def parity(s: GaussianState) -> float:
    """Expectation of Z^(x)n: Pf(corr) = det(q) prod(lambdas) from the cached normal form."""
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

    All trace-distance style fields live in [0, 2] and fidelity fields in
    [0, 1] after clamping; ``ub_pure`` and ``ub_pure_vs_any`` are None when
    the requested mode does not support them.
    """

    lb_infty: float
    ub_pure: Optional[float]
    ub_mixed: float
    ub_pure_vs_any: Optional[float]
    fid_lb_sq: float
    fid_lb_linear: float
    fid_lb_frobenius: float


def distance_bounds(g1: GammaLike, g2: GammaLike, mode: str = "mixed_mixed") -> BoundsReport:
    """Evaluate every bound for the pair of correlation matrices.

    mode: "pure_pure" (both Gaussian and pure), "mixed_mixed" (both
    Gaussian), or "pure_vs_any" (first pure Gaussian, second arbitrary).
    """
    m1, m2 = _gamma_of(g1), _gamma_of(g2)
    if m1.shape != m2.shape:
        raise DimensionMismatch(f"shapes {m1.shape} and {m2.shape} differ")
    if mode not in ("pure_pure", "mixed_mixed", "pure_vs_any"):
        raise ValueError(f"unknown mode {mode!r}")
    delta = m1 - m2
    sv = np.linalg.svd(delta, compute_uv=False)  # Schatten-inf and -1 norms from one SVD
    d_inf = float(sv[0])
    d_1 = float(sv.sum())
    d_2 = schatten_norm(delta, 2)

    ub_pure = None
    if mode == "pure_pure":
        if not all(_pure_lambdas(_lambdas_of(g)) for g in (g1, g2)):
            raise NotPure("pure_pure mode requires two pure correlation matrices")
        ub_pure = 2.0 if d_inf >= 2.0 - 1e-9 else min(2.0, 0.5 * d_2)

    ub_pure_vs_any = None
    if mode == "pure_vs_any":
        if not _pure_lambdas(_lambdas_of(g1)):
            raise NotPure("pure_vs_any mode requires a pure first argument")
        ub_pure_vs_any = min(2.0, math.sqrt(d_1))

    clamp01 = lambda x: float(min(1.0, max(0.0, x)))
    return BoundsReport(
        lb_infty=float(min(2.0, d_inf)),
        ub_pure=ub_pure,
        ub_mixed=float(min(2.0, 0.5 * d_1)),
        ub_pure_vs_any=ub_pure_vs_any,
        fid_lb_sq=clamp01(max(0.0, 1.0 - 0.25 * d_1) ** 2),
        fid_lb_linear=clamp01(1.0 - 0.5 * d_1),
        fid_lb_frobenius=clamp01(1.0 - 0.25 * d_1 - 0.125 * d_2 ** 2),
    )


@dataclass(frozen=True)
class NonGaussReport:
    """Computable bounds on the distance to Gaussian-state sets."""

    r: int
    lb_rank_set: float          # vs Gaussian states of rank <= 2^r; no promise needed
    lb_all_gaussian: float      # vs all Gaussian states; needs rank(rho) <= 2^r
    ub_pure_set: float          # distance to the pure Gaussian set, from above


def nongaussianity_bounds(g: GammaLike, r: int) -> NonGaussReport:
    n = _gamma_of(g).shape[0] // 2
    if not 0 <= r <= n - 1:
        raise RankExponentOutOfRange(f"r={r} outside [0, {n - 1}]")
    lam = np.minimum(_lambdas_of(g), 1.0)
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
    m = SkewMatrix(np.block([[g, r], [-r, -g]]))
    n, qe, qo = s.n, q[:, 0::2], q[:, 1::2]
    q2 = np.zeros((4 * n, 4 * n))
    top, bot = q2[:2 * n], q2[2 * n:]
    top[:, 0:2 * n:2] = qe  # e1
    top[:, 1:2 * n:2], bot[:, 1:2 * n:2] = qo * lam, qe * root  # (0, lam, s, 0)
    bot[:, 2 * n::2] = qo  # e4
    top[:, 2 * n + 1::2], bot[:, 2 * n + 1::2] = -qo * root, qe * lam  # (0, -s, lam, 0)
    return GaussianState(corr=m, nf=NormalForm(q=q2, lambdas=np.ones(2 * n), det_sign=(-1) ** n))


def rank_exponent(s: GaussianState, tol: float) -> int:
    """m with rank(rho) = 2^m: the count of normal eigenvalues below 1 - tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    return int(np.sum(s.nf.lambdas < 1.0 - tol))


# -- particle-number preserving states ---------------------------------------

_IY = np.array([[0.0, 1.0], [-1.0, 0.0]])


@dataclass(frozen=True)
class PnpCorrelation:
    """n x n Hermitian matrix of <a_j^dag a_k> occupations."""

    n: int
    c: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=complex)
        if c.shape != (self.n, self.n):
            raise DimensionMismatch(f"expected {self.n}x{self.n}, got {c.shape}")
        if np.abs(c - c.conj().T).max() > 1e-12:
            raise NotHermitian("c is not Hermitian within 1e-12")
        occ = np.linalg.eigvalsh(c)
        if occ.min() < -1e-9 or occ.max() > 1.0 + 1e-9:
            raise OccupationOutOfRange(f"occupation spectrum {occ} outside [0, 1]")
        object.__setattr__(self, "c", c)


def pnp_to_gamma(c: PnpCorrelation) -> SkewMatrix:
    """Correlation matrix of a particle-number preserving state.

    Gamma = (I - 2 Re C) ⊗ [[0,1],[-1,0]] + (2 Im C) ⊗ I; its normal
    eigenvalues are |1 - 2 D_j| for the eigenvalues D_j of C.
    """
    re, im = c.c.real, c.c.imag
    g = np.kron(np.eye(c.n) - 2.0 * re, _IY) + np.kron(2.0 * im, np.eye(2))
    return SkewMatrix(g, tol=1e-10)


def pnp_norm_transfer(c_delta: np.ndarray, p) -> float:
    """Upper bound 4 * 2^(1/p) * ||c_delta||_p on the Gamma-difference p-norm."""
    factor = 1.0 if p == np.inf else 2.0 ** (1.0 / p)
    return 4.0 * factor * schatten_norm(np.asarray(c_delta), p)


# -- generators --------------------------------------------------------------

def random_gaussian_state(n: int, kind: str, rng: np.random.Generator) -> GaussianState:
    """Random state: Haar-ish orthogonal rotation of a diagonal state.

    kind "pure" sets all lambdas to 1; "mixed" draws them uniformly in [0, 1].
    """
    if kind == "pure":
        lams = np.ones(n)
    elif kind == "mixed":
        lams = rng.uniform(0.0, 1.0, size=n)
    else:
        raise ValueError(f"kind must be 'pure' or 'mixed', got {kind!r}")
    q = skew.random_orthogonal(2 * n, rng)
    return from_correlation(q @ lambda_blocks(lams) @ q.T)
