"""Measurement simulation and correlation-matrix estimation.

State sources (analytic Gaussian and dense), Z-basis sampling after Gaussian
rotations, the round-robin matching plan that groups the quadratic
observables -i gamma_j gamma_k into 2n-1 commuting rounds, and the two
estimation schemes with their shot budgets.

Randomness comes from counter-based Philox streams keyed by (master seed,
trial id, ...): one stream per estimate, whichever its scheme.  There is
no global RNG state, so each trial's draws depend only on the seed and the
trial index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from . import dense as dense_mod
from . import skew, states
from .dense import DenseState
from .errors import (
    BudgetOverflow,
    DimensionMismatch,
    NotADistribution,
    TooManyModes,
    ValidationError,
)
from .skew import SkewMatrix
from .states import GaussianState

__all__ = [
    "RngStream",
    "StateSource",
    "ExactGaussianSource",
    "DenseSource",
    "GammaEstimate",
    "matchings",
    "z_basis_distribution",
    "estimate_gamma",
    "check_scheme",
    "check_eps_stat",
    "check_shots",
    "check_delta",
    "SHOT_BUDGETS",
    "shot_budget",
    "hoeffding_shots",
]

#: largest mode count for the exact conditional-sampling path (2^n branches)
MAX_SAMPLING_MODES = 14
#: leaves one expansion of the outcome tree holds (a node is its block's packed
#: upper triangle, half the entries): a stack of rounds shares one tree,
#: max(1, TREE_LEAVES >> n) roots at a time
TREE_LEAVES = 1 << 13
#: the estimation schemes of :func:`estimate_gamma`
SCHEMES = ("pauli_pairs", "commuting", "exact")
#: largest count one ``Generator.binomial`` or ``multinomial`` call takes: the
#: ceiling of every copy count drawn, checked before the draw
MAX_DRAW = int(np.iinfo(np.int64).max)
#: largest mean ``Generator.poisson`` takes, numpy's own ceiling
POISSON_MAX = MAX_DRAW - 10.0 * math.sqrt(MAX_DRAW)
#: (c, p, k) of each copy budget ceil(c n^p / eps^2 ln(k n^2 / delta)); the
#: commuting headline is also the pure-test and pure-tomography budget (the
#: appendix constant; the main-text tomography statement carries 4x more)
SHOT_BUDGETS = {
    "commuting": (8.0, 3, 4.0),
    "pauli_pairs": (16.0, 4, 1.0),
    "mixed_tomography": (16.0, 4, 4.0),
}


@dataclass(frozen=True)
class RngStream:
    """Splittable counter-based random stream."""

    seed: int
    key: Tuple[int, ...] = ()

    def child(self, *k: int) -> "RngStream":
        return RngStream(self.seed, self.key + k)

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.key)
        return np.random.Generator(np.random.Philox(ss))


# -- state sources -------------------------------------------------------------

class StateSource:
    """Measurement access to an unknown state.

    Subclasses provide the exact correlation matrix (for exact-scheme runs
    and for Bernoulli simulation of single Pauli-pair measurements), the
    exact Z-basis distributions of commuting rounds, and the exact reduced
    density matrix on leading modes (for tomography sampling).
    """

    n: int

    def gamma(self) -> np.ndarray:
        raise NotImplementedError

    def round_distributions(self, rounds: Sequence[int]) -> np.ndarray:
        """The Z-basis distributions after the rotations of the given rounds
        of :func:`_commuting_plan`, an (R, 2^n) array, row t bit for bit what
        round ``rounds[t]`` alone gives."""
        raise NotImplementedError

    def reduced_dense(self, q: Optional[np.ndarray], r: int) -> DenseState:
        """The leading r modes after the Gaussian rotation q, which takes the
        correlation matrix to q Gamma q^T (the state itself when q is None)."""
        raise NotImplementedError


@dataclass(frozen=True)
class ExactGaussianSource(StateSource):
    state: GaussianState

    @property
    def n(self) -> int:  # type: ignore[override]
        return self.state.n

    def gamma(self) -> np.ndarray:
        return self.state.corr.mat

    def round_distributions(self, rounds: Sequence[int]) -> np.ndarray:
        pairs, signs, _ = _commuting_plan(self.n)
        # round t's q Gamma q^T as a gather: entry (a, b) is Gamma[o_a, o_b] s_a s_b,
        # o the round's pair order and s its row signs (q's row a is s_a e_{o_a})
        order = pairs[rounds].transpose(0, 2, 1).reshape(len(rounds), -1)
        s = np.ones(order.shape)
        s[:, 1::2] = signs[rounds]
        g = self.state.corr.mat[order[:, :, None], order[:, None, :]]
        return z_basis_distribution(g * s[:, :, None] * s[:, None, :])

    def reduced_dense(self, q: Optional[np.ndarray], r: int) -> DenseState:
        g = self.state.corr.mat
        if q is not None:
            g = q @ g @ q.T
        sub = SkewMatrix.from_upper(0.5 * (g[: 2 * r, : 2 * r] - g[: 2 * r, : 2 * r].T))
        return dense_mod.gaussian_to_dense(states.from_correlation(sub))


@dataclass(frozen=True)
class DenseSource(StateSource):
    """A state given by its density matrix.

    Round distributions come from the state's table of all 4^n Pauli
    expectations (``dense.pauli_table``, built on first use) and the plan's
    pairs and signs, with no unitary synthesised; the reduced density matrix
    after a rotation conjugates by ``dense.gaussian_unitary``.
    """

    state: DenseState

    @property
    def n(self) -> int:  # type: ignore[override]
        return self.state.n

    def gamma(self) -> np.ndarray:
        return dense_mod.correlation_matrix(self.state).mat

    @cached_property
    def pauli_table(self) -> np.ndarray:
        """Tr(rho X^x Z^z) for all masks x, z, built on first use."""
        return dense_mod.pauli_table(self.state)

    def round_distributions(self, rounds: Sequence[int]) -> np.ndarray:
        pairs, signs, _ = _commuting_plan(self.n)
        diags = dense_mod.rotated_diagonals(self.pauli_table, pairs[rounds], signs[rounds])
        return _normalize_distribution(diags)

    def reduced_dense(self, q: Optional[np.ndarray], r: int) -> DenseState:
        rho = self.state.rho
        if q is not None:
            u = dense_mod.gaussian_unitary(q)
            rho = u @ rho @ u.conj().T
        return dense_mod.partial_trace(DenseState(self.n, rho), r)


def _normalize_distribution(d: np.ndarray) -> np.ndarray:
    """Each row of an (R, 2^n) stack, or one (2^n,) row, clipped at 0 and
    divided by its sum, with no loop over rows: each row comes out bit for
    bit as it would alone.  A row whose mass is outside (0.999, 1.001), or
    NaN, raises NotADistribution with the first such mass."""
    d = np.clip(d, 0.0, None)
    total = d.sum(axis=-1, keepdims=True)
    bad = ~((0.999 < total) & (total < 1.001))
    if bad.any():
        raise NotADistribution(f"diagonal mass {total[bad][0]} is not a distribution")
    d /= total
    return d


@lru_cache(maxsize=None)
def _layout(m: int) -> Tuple[np.ndarray, np.ndarray]:
    """The pairs (i, j), i < j, of a 2m block's packed upper triangle as
    read-only arrays, row-major and so recursive: (0, 1), rows 0 and 1 over
    columns 2..2m-1, then the layout of m - 1 shifted by 2 ((0, 1) at m = 1)."""
    ij = np.triu_indices(2 * m, 1)
    for a in ij:
        a.setflags(write=False)
    return ij


@lru_cache(maxsize=None)
def _factor_rows(m: int) -> np.ndarray:
    """The rows of a packed 2m node that hold u_i, u_j (row 0) and v_j, v_i
    (row 1) over its rest block's pairs (i, j), read-only."""
    i, j = _layout(m - 1)
    rows = np.array([np.concatenate([i, j]) + 1, np.concatenate([j, i]) + 2 * m - 1])
    rows.setflags(write=False)
    return rows


def z_basis_distribution(gamma: np.ndarray) -> np.ndarray:
    """Exact computational-basis distribution of the Gaussian state of ``gamma``.

    A (2n, 2n) ``gamma`` gives one distribution of shape (2^n,); an
    (R, 2n, 2n) stack gives the R distributions as an (R, 2^n) array, each
    bit for bit what the matrix alone gives.  The stack is validated as
    antisymmetric to 1e-9 in one check (``skew.as_skew_stack``).

    Mode-by-mode conditional measurement: measuring the first remaining mode
    gives bit b (sign s = +1 for b = 0, -1 for b = 1) with probability
    p_b = (1 + s g_01)/2, and the projective update on the remaining block is
    g' = g_rest - s (u^T v - v^T u) / (2 p_b) with u, v the first two rows.

    The full outcome tree is expanded, so the result is exact, one depth at
    a time: the k nodes of depth d, 2^d per root, are one (m(2m-1), k) stack
    of packed upper triangles (m = n - d, :func:`_layout`), node axis last,
    so each elementwise step is one long loop over nodes, g_01 and g_rest
    are row slices, and u and v are read with one gather.  The roots of a
    stack share one tree: the node axis holds the nodes of up to
    max(1, :data:`TREE_LEAVES` >> n) roots at once, and larger stacks are
    expanded in batches of that many, which bounds the node stack's memory.
    With diff = u_i v_j - u_j v_i over g_rest's pairs (i, j) formed once per
    parent (:func:`_factor_rows`), both children are written side by side
    (node-major, bit-minor) as g_rest - diff / (2 p_0) and
    g_rest + diff / (2 p_1): s x is exact for s = +-1 and a - (-x) is a + x,
    so each entry is the update above bit for bit.  Each quotient is written
    into the buffer of u_j v_i.  The last split is no special case: there
    g_rest's layout is the one entry (0, 1), all the last level reads.
    No branch leaves the stack: one with p_b <= 1e-16 gets probability 0
    and divisor inf, so that child keeps its parent's rest block (a valid
    marginal) and every leaf below it is 0; a NaN branch is kept as it is.
    The nodes of each depth are thus every prefix of the batch's roots in
    order, and the batch's leaves land with one slice.  The rows are
    normalised as one stack (:func:`_normalize_distribution`).
    """
    stack = np.asarray(gamma, dtype=float)
    if stack.ndim not in (2, 3):
        raise DimensionMismatch(f"expected a matrix or a stack of them, got shape {stack.shape}")
    g = skew.as_skew_stack(stack, tol=1e-9).reshape(-1, *stack.shape[-2:])
    n = g.shape[-1] // 2
    check_scheme("commuting", n)
    out = np.zeros((len(g), 1 << n))
    signs = np.array([1.0, -1.0])
    batch = max(1, TREE_LEAVES >> n)
    i0, j0 = _layout(n)
    for first in range(0, len(g), batch):
        subs = g[first:first + batch, i0, j0].T
        p = np.ones(subs.shape[1])
        for m in range(n, 0, -1):
            # pb[b, node] is the probability of reading bit b at that node
            pb = 0.5 * (1.0 + signs[:, None] * subs[0])
            dropped = pb <= 1e-16  # a NaN branch is kept, not dropped
            pb[dropped] = 0.0
            p = (pb * p).T.ravel()
            if m == 1:
                out[first:first + batch] = p.reshape(-1, 1 << n)
                break
            div = 2.0 * pb
            div[dropped] = np.inf  # that child keeps its parent's rest block
            rest = subs[4 * m - 3:]
            f = np.take(subs, _factor_rows(m), axis=0)
            prods = np.multiply(f[0], f[1], out=f[0])  # u_i v_j, then u_j v_i
            diff, q = prods[:len(rest)], prods[len(rest):]
            diff -= q  # v_i u_j is u_j v_i, bit for bit
            kids = np.empty((*rest.shape, 2))
            np.subtract(rest, np.divide(diff, div[0], out=q), out=kids[..., 0])
            np.add(rest, np.divide(diff, div[1], out=q), out=kids[..., 1])
            subs = kids.reshape(len(rest), -1)
    out = _normalize_distribution(out)
    return out[0] if stack.ndim == 2 else out


# -- matchings -----------------------------------------------------------------

@lru_cache(maxsize=None)
def matchings(n: int) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """Round-robin (circle method) 1-factorization of the complete graph on
    the 2n Majorana indices: 2n-1 perfect matchings.

    Vertex 2n-1 stays fixed; the others rotate, so every unordered pair
    appears in exactly one matching.
    """
    if n < 1:
        raise DimensionMismatch(f"need n >= 1, got {n}")
    v = 2 * n - 1  # number of rotating vertices
    rounds = []
    for t in range(v):
        pairs = [tuple(sorted((t % v, 2 * n - 1)))]
        for i in range(1, n):
            a = (t + i) % v
            b = (t - i) % v
            pairs.append(tuple(sorted((a, b))))
        rounds.append(tuple(sorted(pairs)))
    return tuple(rounds)


@lru_cache(maxsize=None)
def _commuting_plan(n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The commuting rounds of n modes, built once per n as read-only arrays.

    Returns (pairs, signs, bit_signs).  pairs[t] is round t of
    :func:`matchings` as (j, k) index arrays, (2n-1, 2, n), and signs[t, i]
    is the sign by which qubit i's Z reading reads entry (j, k) of pair i.
    Together they are round t's signed permutation q in SO(2n): row 2i is
    e_j and row 2i+1 is signs[t, i] e_k.  Every sign is +1 except the last
    pair's in a round whose pair order is an odd permutation, which is -1;
    the parity is the sign of the determinant of the identity rows gathered
    in pair order, exactly +-1, as LU with partial pivoting does no rounding
    on a permutation matrix.  bit_signs[i, x] is the +-1 Z reading of qubit
    i (qubit 0 most significant) in outcome x, (n, 2^n).  Sources take
    rounds as indices into this plan
    (:meth:`StateSource.round_distributions`).
    """
    plan = matchings(n)
    pairs = np.array([list(zip(*m)) for m in plan])
    order = pairs.transpose(0, 2, 1).reshape(len(plan), 2 * n)
    signs = np.ones((len(plan), n))
    signs[np.linalg.det(np.eye(2 * n)[order]) < 0, -1] = -1.0
    i = np.arange(n)
    bit_signs = 1.0 - 2.0 * ((np.arange(1 << n) >> (n - 1 - i)[:, None]) & 1)
    for a in (pairs, signs, bit_signs):
        a.setflags(write=False)
    return pairs, signs, bit_signs


# -- sampling and estimation ---------------------------------------------------

@dataclass(frozen=True)
class GammaEstimate:
    """An estimated correlation matrix and the copies it used."""

    gamma_hat: SkewMatrix
    shots_used: int


def hoeffding_shots(eps_entry: float, fail: float, union_terms: int) -> int:
    """Copies per setting so each of ``union_terms`` +-1 empirical means is
    eps_entry-accurate, all of them at once with probability 1 - fail."""
    return math.ceil(2.0 / eps_entry ** 2 * math.log(2.0 * union_terms / fail))


def shot_budget(row: str, n: int, eps: float, delta: float) -> int:
    """Copy budget of a :data:`SHOT_BUDGETS` row; the two estimation schemes'
    rows are the headline bounds of their guarantees."""
    c, p, k = SHOT_BUDGETS[row]
    try:
        return math.ceil(c * n ** p / eps ** 2 * math.log(k * n ** 2 / delta))
    except (ZeroDivisionError, OverflowError) as exc:  # eps ** 2 underflows to 0
        raise BudgetOverflow(f"the {row} budget at eps {eps} exceeds every float") from exc


def check_scheme(scheme: str, n: int) -> None:
    """Raise unless ``scheme`` is in :data:`SCHEMES` and can measure n modes."""
    if scheme not in SCHEMES:
        raise ValidationError(f"unknown scheme {scheme!r}")
    if scheme == "commuting" and n > MAX_SAMPLING_MODES:
        raise TooManyModes(f"mode count {n} exceeds sampling cap {MAX_SAMPLING_MODES}")


def check_eps_stat(eps_stat: float) -> None:
    """Raise ValidationError unless eps_stat, a sup-norm accuracy of entries
    in [-1, 1], is in (0, 2]."""
    if not 0.0 < eps_stat <= 2.0:
        raise ValidationError(f"sup-norm accuracy {eps_stat} outside (0, 2]")


def check_shots(total_shots: int, scheme: Optional[str] = None) -> None:
    """Raise ValidationError unless an explicit copy total is at least 1 and
    ``scheme``, when given, draws copies: ``"exact"`` reads Gamma without any,
    so a total given to it would be ignored."""
    if total_shots < 1:
        raise ValidationError(f"total_shots must be >= 1, got {total_shots}")
    if scheme == "exact":
        raise ValidationError(f"scheme exact draws no copies, so it takes no total_shots "
                              f"(got {total_shots})")


def check_delta(delta: float) -> None:
    """Raise ValidationError unless the failure probability delta is in (0, 1)."""
    if not 0.0 < delta < 1.0:
        raise ValidationError(f"delta {delta} outside (0, 1)")


def _split_budget(total: int, rounds: int) -> np.ndarray:
    base, rem = divmod(total, rounds)
    return base + (np.arange(rounds) < rem)


def _multinomial_rows(gen: np.random.Generator, shots: np.ndarray,
                      dists: np.ndarray) -> np.ndarray:
    """Row t of the (R, K) counts is a Multinomial(shots[t], dists[t]) draw,
    all rows from one Poisson call and one shortfall draw on ``gen``.

    Poissonisation: with lam_t = max(0, S_t - 2 sqrt(S_t)), capped at
    :data:`POISSON_MAX`, the counts Poisson(lam_t p_t) given their total N_t
    are Multinomial(N_t, p_t).  A row whose N_t passes S_t (about 2% of
    rows) is drawn again until it does not; the redraw depends on N_t alone,
    so the law given N_t stays Multinomial(N_t, p_t).  The shortfall
    S_t - N_t then adds the missing draws, which leaves S_t i.i.d. draws:
    exactly Multinomial(S_t, p_t).  Poisson totals are summed as uint64, so
    one that passes :data:`MAX_DRAW` still compares exactly.

    The shortfall is drawn one of two ways, chosen per call from the Poisson
    totals alone.  When no row's shortfall passes K, by inverse CDF: one
    ``gen.random`` uniform per missing copy, scaled by its row's cumulative
    total c_K and placed among the row's K - 1 interior cumulative edges
    (``searchsorted``, side "right", and one ``bincount`` per row), so a
    copy costs one draw and a search instead of one binomial per outcome.
    An outcome of probability 0 has an empty interval and is never drawn: a
    first one because its edge is 0 and side "right" places u = 0 past it,
    a last one because u * c_K < c_K for every u < 1 in round-to-nearest.
    Otherwise one ``gen.multinomial`` of the shortfalls, one binomial per
    outcome, which costs less than a draw per copy once the shortfalls pass
    K.
    """
    shots = np.asarray(shots, dtype=np.int64)
    lam = np.minimum(np.maximum(shots - 2.0 * np.sqrt(shots), 0.0), POISSON_MAX)
    counts = gen.poisson(lam[:, None] * dists)
    cap = shots.astype(np.uint64)
    over = counts.sum(axis=1, dtype=np.uint64) > cap
    while over.any():
        counts[over] = gen.poisson(lam[over, None] * dists[over])
        over[over] = counts[over].sum(axis=1, dtype=np.uint64) > cap[over]
    short = shots - counts.sum(axis=1)
    k = counts.shape[1]
    if (short > k).any():
        counts += gen.multinomial(short, dists)
        return counts
    u = gen.random(short.sum())
    ends = np.cumsum(short)
    for t, (a, b) in enumerate(zip(ends - short, ends)):
        cum = np.cumsum(dists[t])
        # sorted keys search about twice as fast, and the counts ignore their order
        cut = np.sort(u[a:b]) * cum[-1]
        counts[t] += np.bincount(np.searchsorted(cum[:-1], cut, side="right"), minlength=k)
    return counts


def estimate_gamma(
    src: StateSource,
    eps_stat: float,
    delta: float,
    scheme: str,
    rng_stream: RngStream,
    *,
    total_shots: Optional[int] = None,
) -> GammaEstimate:
    """Estimate the correlation matrix to sup-norm accuracy eps_stat.

    scheme "exact" reads analytic expectations and uses no copies;
    "pauli_pairs" measures each -i gamma_j gamma_k observable separately;
    "commuting" measures one matching round per Clifford-Gaussian rotation.
    Under "pauli_pairs" every entry is an independent Binomial(shots, (1+g)/2)
    count from one draw on ``rng_stream``, g clipped to [-1, 1] first (a drawn
    pure state's can pass 1 by round-off); a pair given no shots reads 0.
    Under "commuting" the rounds, as pairs and signs, and the bit-sign
    table come from one read-only plan built once per n
    (:func:`_commuting_plan`).  One ``round_distributions`` call on the
    indices of the rounds given shots gives all their Z-basis distributions
    (an exact source expands one outcome tree for them, in batches of at
    most :data:`TREE_LEAVES` leaves; a dense source reads them from its
    Pauli table).  All their counts over the 2^n Z outcomes come from one
    Poissonised multinomial draw on ``rng_stream`` (:func:`_multinomial_rows`,
    exact in law): a stacked Poisson draw, then each round's shortfall by
    inverse CDF when no round is short of more copies than it has outcomes
    (the default budget from about n = 10 at eps 0.2, or a few explicit
    copies), else by one multinomial.  Each round writes all n of its pairs
    at once: pair i, (j, k), reads the plan's sign times the mean Z reading
    of qubit i.  A round given no shots is not drawn, and its pairs read 0.
    The default budget is the scheme's headline bound
    ``shot_budget(scheme, n, eps_stat, delta)``; ``total_shots`` overrides
    it.  Either total is split evenly across the measurement settings (pairs
    or matching rounds); a total above :data:`MAX_DRAW` raises BudgetOverflow.
    Entries are clipped to [-1, 1] before assembly.
    """
    n = src.n
    dim = 2 * n
    check_scheme(scheme, n)
    if scheme == "exact":
        return GammaEstimate(SkewMatrix.from_upper(np.clip(src.gamma(), -1.0, 1.0)), 0)
    check_delta(delta)
    if total_shots is None:
        check_eps_stat(eps_stat)
        total_shots = shot_budget(scheme, n, eps_stat, delta)
    check_shots(total_shots)
    if total_shots > MAX_DRAW:
        raise BudgetOverflow(f"{total_shots} shots exceed the draw ceiling {MAX_DRAW}")

    pair_count = n * (2 * n - 1)
    settings = pair_count if scheme == "pauli_pairs" else 2 * n - 1  # matching rounds
    per_setting = _split_budget(total_shots, settings)
    g = np.zeros((dim, dim))

    if scheme == "pauli_pairs":
        iu = np.triu_indices(dim, 1)
        p_one = 0.5 * (1.0 + np.clip(src.gamma()[iu], -1.0, 1.0))
        ones = rng_stream.generator().binomial(per_setting, p_one)
        g[iu] = np.divide(2.0 * ones - per_setting, per_setting, out=np.zeros(pair_count),
                          where=per_setting > 0)
    else:
        pairs, signs, bit_signs = _commuting_plan(n)
        rounds = np.flatnonzero(per_setting)
        shots = per_setting[rounds]
        counts = _multinomial_rows(rng_stream.generator(), shots,
                                   src.round_distributions(rounds))
        for t, s, c in zip(rounds, shots, counts):
            j, k = pairs[t]
            # per round, not one stacked matmul: sums above 2^53 would round differently
            g[j, k] = signs[t] * ((bit_signs @ c) / s)

    return GammaEstimate(SkewMatrix.from_upper(np.clip(g, -1.0, 1.0)), total_shots)
