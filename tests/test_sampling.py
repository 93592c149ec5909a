import itertools
import math

import numpy as np
import pytest
import scipy.stats
from conftest import plan_rotations
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from freeferm import dense, sampling, skew, states
from freeferm.errors import (
    BudgetOverflow,
    DimensionMismatch,
    FreeFermError,
    NotADistribution,
    NotAntisymmetric,
    TooManyModes,
    ValidationError,
)
from freeferm.sampling import (
    DenseSource,
    ExactGaussianSource,
    RngStream,
    estimate_gamma,
    matchings,
    z_basis_distribution,
)


def test_matchings_k4():
    plan = matchings(2)
    assert len(plan) == 3
    assert set(plan) == {
        ((0, 1), (2, 3)),
        ((0, 2), (1, 3)),
        ((0, 3), (1, 2)),
    }


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_matchings_cover_every_pair_once(n):
    plan = matchings(n)
    assert len(plan) == 2 * n - 1
    seen = [p for m in plan for p in m]
    assert sorted(seen) == sorted(itertools.combinations(range(2 * n), 2))
    for m in plan:
        assert sorted(x for p in m for x in p) == list(range(2 * n))


def test_matching_rotation_identity():
    t = matchings(2).index(((0, 1), (2, 3)))
    assert np.array_equal(plan_rotations(2)[t], np.eye(4))


def test_matching_rotation_conjugation(rng):
    # conjugation places the matched entries into the diagonal blocks; the
    # pair order 0, 2, 1, 3 is odd, so the last pair reads with sign -1
    g = skew.random_skew(4, rng)
    t = matchings(2).index(((0, 2), (1, 3)))
    q = plan_rotations(2)[t]
    rot = q @ g @ q.T
    assert list(sampling._commuting_plan(2)[1][t]) == [1.0, -1.0]
    assert rot[0, 1] == pytest.approx(g[0, 2])
    assert rot[2, 3] == pytest.approx(-g[1, 3])


@pytest.mark.parametrize("n", range(1, sampling.MAX_SAMPLING_MODES + 1))
def test_matching_rotation_special_orthogonal(n, rng):
    # each round's q, built here from the plan's pairs and signs, is in SO(2n),
    # and up to n = 12 the exact source's gathered rounds are z_basis_distribution
    # of q Gamma q^T bit for bit
    qs = plan_rotations(n)
    for q in qs:
        assert np.array_equal(q.T @ q, np.eye(2 * n))
        assert np.linalg.det(q) == 1.0
    if n > 12:
        return
    cases = [
        states.random_gaussian_state(n, "mixed", rng),
        states.random_gaussian_state(n, "pure", rng),
        states.vacuum(n),
        states.product_state(rng.choice([-1.0, 0.0, 0.3, 1.0], size=n)),
    ]
    for s in cases:
        want = z_basis_distribution(qs @ s.corr.mat @ qs.transpose(0, 2, 1))
        got = ExactGaussianSource(s).round_distributions(np.arange(len(qs)))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_z_distribution_matches_dense_diagonal(n, rng):
    s = states.random_gaussian_state(n, "mixed", rng)
    dist = z_basis_distribution(s.corr.mat)
    diag = np.diag(dense.gaussian_to_dense(s).rho).real
    assert np.abs(dist - diag).max() < 1e-12


def _per_node_z_distribution(gamma):
    """The depth-first, one-node-at-a-time expansion the sampler replaced."""
    g = skew.as_skew_stack(gamma, tol=1e-9)
    n = g.shape[0] // 2
    out = np.zeros(1 << n)
    stack = [(g, 0, 1.0)]
    while stack:
        sub, idx, p = stack.pop()
        m = sub.shape[0] // 2
        g01 = sub[0, 1]
        for bit, sign in ((0, 1.0), (1, -1.0)):
            pb = 0.5 * (1.0 + sign * g01)
            if pb <= 1e-16:
                continue
            if m == 1:
                out[(idx << 1) | bit] = p * pb
                continue
            u = sub[0, 2:]
            v = sub[1, 2:]
            upd = sub[2:, 2:] - sign * (np.outer(u, v) - np.outer(v, u)) / (2.0 * pb)
            stack.append((upd, (idx << 1) | bit, p * pb))
    return sampling._normalize_distribution(out)


@pytest.mark.parametrize("n", range(1, 11))
def test_z_distribution_matches_per_node_reference(n, rng):
    cases = [
        states.random_gaussian_state(n, "mixed", rng),
        states.random_gaussian_state(n, "pure", rng),
        states.vacuum(n),
        # lambda = +-1 on every mode: one branch of each node has probability 0
        states.product_state(rng.choice([-1.0, 1.0], size=n)),
        # +-1 among interior lambdas: some depths drop a branch, others none
        states.product_state(rng.choice([-1.0, -0.4, 0.0, 0.7, 1.0], size=n)),
    ]
    qs = plan_rotations(n)
    rotations = [None] + [qs[i] for i in sorted({0, len(qs) // 2, len(qs) - 1})]
    for s in cases:
        for q in rotations:
            g = s.corr.mat if q is None else q @ s.corr.mat @ q.T
            assert np.array_equal(z_basis_distribution(g), _per_node_z_distribution(g))


def test_z_distribution_matches_per_node_reference_at_n12(rng):
    # the benchmark's size: a rotated mixed state keeps all 4096 leaves live;
    # the unrotated product state drops a branch at its two +-1 depths only
    n = 12
    q = plan_rotations(n)[7]
    lams = [0.7, 0.7, 0.0, -1.0, 0.7, 0.7, 0.7, 0.7, 1.0, 0.7, -0.4, 0.0]
    for g in (q @ states.random_gaussian_state(n, "mixed", rng).corr.mat @ q.T,
              states.product_state(lams).corr.mat):
        assert np.array_equal(z_basis_distribution(g), _per_node_z_distribution(g))


def test_z_distribution_one_hot_at_the_cap(rng):
    # every node drops one branch at n = MAX_SAMPLING_MODES; a +-1 product
    # state reads bit 1 exactly on its lambda = -1 modes (qubit 0 = MSB)
    n = sampling.MAX_SAMPLING_MODES
    lams = rng.choice([-1.0, 1.0], size=n)
    for s, index in ((states.vacuum(n), 0),
                     (states.product_state(lams), int("".join("1" if x < 0 else "0" for x in lams), 2))):
        one_hot = np.zeros(1 << n)
        one_hot[index] = 1.0
        assert np.array_equal(z_basis_distribution(s.corr.mat), one_hot)


@pytest.mark.parametrize("n", [13, sampling.MAX_SAMPLING_MODES])
def test_z_distribution_vacuum_plan_at_the_cap_matches_per_node_reference(n):
    # a batch holds one root here, and every round of the vacuum's plan drops
    # branches at some depths: the dropped children stay in the node stack
    qs = plan_rotations(n)
    stack = qs @ states.vacuum(n).corr.mat @ qs.transpose(0, 2, 1)
    assert max(1, sampling.TREE_LEAVES >> n) == 1
    dists = z_basis_distribution(stack)
    for g, dist in zip(stack, dists):
        assert np.array_equal(dist, _per_node_z_distribution(g))


def test_z_distribution_rotated_mixed_at_the_cap_matches_per_node_reference(rng):
    # one root per batch and no branch dropped: all 16384 leaves are live
    n = sampling.MAX_SAMPLING_MODES
    q = plan_rotations(n)[5]
    g = q @ states.random_gaussian_state(n, "mixed", rng).corr.mat @ q.T
    assert max(1, sampling.TREE_LEAVES >> n) == 1
    dist = z_basis_distribution(g)
    assert (dist > 0).all()
    assert np.array_equal(dist, _per_node_z_distribution(g))


@pytest.mark.parametrize("m", range(1, sampling.MAX_SAMPLING_MODES + 1))
def test_tree_layout_is_recursive(m):
    # every pair i < j of a 2m block once; (0, 1), row 0 and row 1 lead, and
    # the tail is the layout of m - 1 shifted by 2, so at m = 1 the one pair
    # (0, 1) is the last split's whole node
    i, j = sampling._layout(m)
    pairs = list(zip(i.tolist(), j.tolist()))
    assert sorted(pairs) == list(itertools.combinations(range(2 * m), 2))
    assert len(pairs) == len(set(pairs)) == m * (2 * m - 1)
    cols = list(range(2, 2 * m))
    head = [(0, 1)] + [(0, c) for c in cols] + [(1, c) for c in cols]
    assert pairs[:len(head)] == head
    assert not i.flags.writeable and not j.flags.writeable
    if m == 1:
        assert pairs == [(0, 1)]
        return
    ti, tj = sampling._layout(m - 1)
    assert pairs[len(head):] == list(zip((ti + 2).tolist(), (tj + 2).tolist()))
    # a split gathers u_a = g[0, a] and v_a = g[1, a]: u_i, u_j in row 0 and
    # v_j, v_i in row 1, over the rest block's pairs (i, j)
    rows = sampling._factor_rows(m)
    assert [pairs[r] for r in rows[0]] == [(0, a) for a in [*ti + 2, *tj + 2]]
    assert [pairs[r] for r in rows[1]] == [(1, a) for a in [*tj + 2, *ti + 2]]


def test_z_distribution_keeps_nan_branches_like_reference(rng):
    # no NaN branch is dropped silently: both samplers refuse a NaN input
    # before the tree is expanded
    g = states.random_gaussian_state(3, "mixed", rng).corr.mat.copy()
    g[0, 3], g[3, 0] = np.nan, np.nan
    for sampler in (z_basis_distribution, _per_node_z_distribution):
        with pytest.raises(NotAntisymmetric, match="finite"):
            sampler(g)
    # so does a stack that holds it among valid matrices
    valid = states.random_gaussian_state(3, "pure", rng).corr.mat
    with pytest.raises(NotAntisymmetric, match="finite"):
        z_basis_distribution(np.array([valid, g, valid]))


@pytest.mark.parametrize("n", range(1, 13))
def test_z_distribution_stack_matches_per_matrix_calls(n, rng):
    # every rotation of the round plan as one stack; at n = 9, 10 and 12 the
    # 2n - 1 roots need 2, 3 and 12 batches of the tree
    qs = plan_rotations(n)
    if n in (9, 10, 12):
        assert len(qs) > max(1, sampling.TREE_LEAVES >> n)
    cases = [
        states.random_gaussian_state(n, "mixed", rng),
        states.random_gaussian_state(n, "pure", rng),
        states.vacuum(n),
        # +-1 on every mode, and +-1 among interior lambdas: branches are
        # dropped at every depth or at some depths only, root by root
        states.product_state(rng.choice([-1.0, 1.0], size=n)),
        states.product_state(rng.choice([-1.0, -0.4, 0.0, 0.7, 1.0], size=n)),
    ]
    for s in cases:
        stack = qs @ s.corr.mat @ qs.transpose(0, 2, 1)
        dists = z_basis_distribution(stack)
        assert dists.shape == (len(qs), 1 << n)
        for g, dist in zip(stack, dists):
            assert np.array_equal(dist, z_basis_distribution(g))
        # the source's rounds are the plan's rotations, each as it is alone
        src = ExactGaussianSource(s)
        assert np.array_equal(src.round_distributions(np.arange(len(qs))), dists)
        for t in range(len(qs)):
            assert np.array_equal(src.round_distributions([t]), dists[t:t + 1])
    # a stack of one is the matrix's distribution in a leading axis
    g = cases[0].corr.mat
    assert np.array_equal(z_basis_distribution(g[None]), z_basis_distribution(g)[None])
    if n <= 4:  # the dense source reads every round from its Pauli table
        src = DenseSource(dense.gaussian_to_dense(cases[0]))
        dists = src.round_distributions(np.arange(len(qs)))
        assert dists.shape == (len(qs), 1 << n)
        for t, dist in enumerate(dists):
            assert np.array_equal(dist, src.round_distributions([t])[0])


def test_z_distribution_rejects_other_shapes():
    with pytest.raises(DimensionMismatch, match="stack"):
        z_basis_distribution(np.zeros(4))
    with pytest.raises(DimensionMismatch, match="stack"):
        z_basis_distribution(np.zeros((1, 1, 4, 4)))


@pytest.mark.parametrize("n", [4, 11])
def test_z_distribution_mixed_stack_matches_per_node_reference(n, rng):
    # one call on a shuffled stack of states that drop a first branch at
    # different depths, or never: at n = 11 a batch holds 4 roots, so one
    # batch holds roots that drop branches at different depths, or at none
    lams = rng.choice([-0.6, 0.2, 0.5], size=n)
    cases = [
        states.random_gaussian_state(n, "mixed", rng),
        states.random_gaussian_state(n, "mixed", rng),
        states.vacuum(n),
        states.product_state(rng.choice([-1.0, 1.0], size=n)),
        states.product_state(rng.choice([-1.0, -0.4, 0.0, 0.7, 1.0], size=n)),
        *(states.product_state(np.where(np.arange(n) == d, -1.0, lams)) for d in (1, n // 2, n - 1)),
    ]
    rotations = [np.eye(2 * n), *plan_rotations(n)[[1, -1]]]
    stack = np.array([q @ s.corr.mat @ q.T for s in cases for q in rotations])
    stack = stack[rng.permutation(len(stack))]
    dists = z_basis_distribution(stack)
    for g, dist in zip(stack, dists):
        assert np.array_equal(dist, _per_node_z_distribution(g))


def test_z_distribution_mass_error_is_a_toolkit_error():
    # |g_01| = 3 > 1 is no state: its branch probabilities are 2 and -1
    g = 3 * skew.canonical_lambda(2)
    for gamma in (g, np.array([skew.canonical_lambda(2), g])):
        with pytest.raises(NotADistribution, match="diagonal mass 4.0 is not a distribution"):
            z_basis_distribution(gamma)
    assert issubclass(NotADistribution, FreeFermError)
    # a NaN mass is refused too, and the message names the first bad row's mass
    with pytest.raises(NotADistribution, match="diagonal mass nan is"):
        sampling._normalize_distribution(np.array([[0.5, 0.5], [np.nan, 1.0], [2.0, 0.0]]))


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_commuting_plan_is_built_once_and_read_only(n):
    plan = sampling._commuting_plan(n)
    assert sampling._commuting_plan(n) is plan and matchings(n) is matchings(n)
    pairs, signs, bit_signs = plan
    fresh = sampling._commuting_plan.__wrapped__(n)
    for a, b in zip(plan, fresh):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    # every sign is +1 but the last pair's in a round whose pair order is an
    # odd permutation, its parity counted here by inversions
    for t, m in enumerate(matchings(n)):
        order = [x for p in m for x in p]
        odd = sum(a > b for a, b in itertools.combinations(order, 2)) % 2
        assert np.array_equal(pairs[t], np.array(m).T)
        assert np.array_equal(signs[t], [1.0] * (n - 1) + [-1.0 if odd else 1.0])
    i = np.arange(n)
    assert np.array_equal(bit_signs, 1.0 - 2.0 * ((np.arange(1 << n) >> (n - 1 - i)[:, None]) & 1))
    for a in plan:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 0


@st.composite
def _rotated_gammas(draw):
    n = draw(st.integers(1, 6))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["pure", "mixed", "product"]))
    if kind == "product":
        s = states.product_state(gen.choice([-1.0, -0.4, 0.0, 0.7, 1.0], size=n))
    else:
        s = states.random_gaussian_state(n, kind, gen)
    q = plan_rotations(n)[draw(st.integers(0, 2 * n - 2))]
    return q @ s.corr.mat @ q.T


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(_rotated_gammas())
def test_z_distribution_laws(g):
    n = g.shape[0] // 2
    dist = z_basis_distribution(g)
    assert np.all(dist >= 0.0)
    assert dist.sum() == pytest.approx(1.0, abs=1e-12)
    # z[i, x] is the +-1 value of Z_i on outcome x (qubit 0 = MSB)
    z = 1 - 2 * ((np.arange(1 << n)[None, :] >> (n - 1 - np.arange(n))[:, None]) & 1)
    for i in range(n):
        assert dist[z[i] == 1].sum() == pytest.approx(0.5 * (1.0 + g[2 * i, 2 * i + 1]), abs=1e-10)
        for j in range(i + 1, n):
            a, b, c, d = 2 * i, 2 * i + 1, 2 * j, 2 * j + 1
            wick = g[a, b] * g[c, d] - g[a, c] * g[b, d] + g[a, d] * g[b, c]
            assert dist @ (z[i] * z[j]) == pytest.approx(wick, abs=1e-10)


def test_z_distribution_rotated_agreement(rng):
    # the analytic tree against the dense source's Pauli table: every round
    # of rotated n = 3 and n = 4 states, in shuffled order
    for n in (3, 4):
        s = states.random_gaussian_state(n, "mixed", rng)
        rounds = rng.permutation(2 * n - 1)
        a = ExactGaussianSource(s).round_distributions(rounds)
        b = DenseSource(dense.gaussian_to_dense(s)).round_distributions(rounds)
        assert np.abs(a - b).max() < 1e-12


def test_dense_source_rounds_match_synthesis(rng):
    src = DenseSource(dense.random_density_matrix(3, rng))
    qs = plan_rotations(3)
    for q, dist in zip(qs, src.round_distributions(np.arange(len(qs)))):
        u = dense.gaussian_unitary(q)
        want = np.diag(u @ src.state.rho @ u.conj().T).real  # through the synthesised unitary
        assert np.abs(dist - want / want.sum()).max() < 1e-14
    # the reduced state takes any rotation
    assert src.reduced_dense(skew.random_orthogonal(6, rng), 2).n == 2


@pytest.mark.parametrize("n", range(2, 7))
def test_reduced_dense_in_the_normal_frame(n, rng):
    # Gamma = Q Lambda Q^T, so q Gamma q^T is Lambda for q = Q^T: the leading
    # r modes are the product state of the r smallest lambdas
    missed = 0.0
    for kind in ("mixed", "pure"):
        s = states.random_gaussian_state(n, kind, rng)
        srcs = (ExactGaussianSource(s), DenseSource(dense.gaussian_to_dense(s)))
        for r in range(1, n + 1):
            want = dense.gaussian_to_dense(states.product_state(s.lambdas[:r])).rho
            for src in srcs:
                assert np.abs(src.reduced_dense(s.nf.q.T, r).rho - want).max() < 1e-12
            missed = max(missed, np.abs(srcs[0].reduced_dense(s.nf.q, r).rho - want).max())
    assert missed > 1e-3  # the untransposed Q is another frame


def test_sampling_tv_distance(rng):
    # shots drawn the way a commuting round draws them, from the source's z
    # distribution, compared with the dense diagonal
    s = states.random_gaussian_state(4, "mixed", rng)
    dist = z_basis_distribution(s.corr.mat)
    counts = sampling._multinomial_rows(RngStream(3).generator(), [100_000], dist[None])[0]
    emp = counts / counts.sum()
    exact = np.diag(dense.gaussian_to_dense(s).rho).real
    assert 0.5 * np.abs(emp - exact / exact.sum()).sum() <= 0.02


class _CountingGenerator:
    """A generator that counts the rows each Poisson call draws and the
    multinomial calls."""

    def __init__(self, gen):
        self.gen, self.poisson_rows, self.multinomial_calls = gen, [], 0

    def poisson(self, lam):
        self.poisson_rows.append(len(lam))
        return self.gen.poisson(lam)

    def multinomial(self, n, pvals):
        self.multinomial_calls += 1
        return self.gen.multinomial(n, pvals)

    def random(self, size):
        return self.gen.random(size)


class _ConstantGenerator(_CountingGenerator):
    """A counting generator whose uniforms all read u."""

    def __init__(self, gen, u):
        super().__init__(gen)
        self.u = u

    def random(self, size):
        return np.full(size, self.u)


@pytest.mark.parametrize("shots", [20, 100])
def test_multinomial_rows_law(shots):
    # chi-square of 2e5 rows against the exact Multinomial(shots, p) pmf, with
    # cells of expectation below 5 pooled; some rows' Poisson totals passed
    # shots and were drawn again
    p, rows = np.array([0.5, 0.3, 0.2]), 200_000
    gen = _CountingGenerator(RngStream(22, (shots,)).generator())
    counts = sampling._multinomial_rows(gen, np.full(rows, shots), np.tile(p, (rows, 1)))
    assert np.all(counts.sum(axis=1) == shots)
    assert gen.poisson_rows[0] == rows and sum(gen.poisson_rows[1:]) > 0
    cells = np.array([(a, shots - a - b, b) for a in range(shots + 1)
                      for b in range(shots + 1 - a)])
    code = lambda c: c[:, 0] * (shots + 1) + c[:, 2]  # noqa: E731
    seen = np.bincount(code(counts), minlength=(shots + 1) ** 2)[code(cells)]
    want = rows * scipy.stats.multinomial.pmf(cells, shots, p)
    small = want < 5.0
    obs = np.append(seen[~small], seen[small].sum())
    exp = np.append(want[~small], want[small].sum())
    assert scipy.stats.chisquare(obs, exp * rows / exp.sum()).pvalue > 1e-3


def _compositions(total, parts):
    """Every row of ``parts`` non-negative integers summing to ``total``
    (stars and bars)."""
    bars = np.array(list(itertools.combinations(range(total + parts - 1), parts - 1)),
                    dtype=np.int64).reshape(-1, parts - 1)
    return np.diff(np.pad(bars, ((0, 0), (1, 1)), constant_values=(-1, total + parts - 1)),
                   axis=1) - 1


@pytest.mark.parametrize("shots,p", [
    # a shortfall reaches 9 = K only when no Poisson copy is drawn; outcomes
    # of probability 0 first, inside and last
    (9, [0.0, 0.3, 0.2, 0.15, 0.0, 0.15, 0.1, 0.1, 0.0]),
    # the Poisson mean is 0 at shots <= 4, so the whole draw is inversion
    (4, [0.4, 0.3, 0.0, 0.2, 0.1]),
], ids=["shots9", "shots4"])
def test_multinomial_rows_inverse_cdf_law(shots, p):
    # chi-square of the rows against the exact Multinomial(shots, p) pmf, with
    # cells of expectation below 5 pooled; no row's shortfall passes K, so no
    # multinomial is drawn
    p, rows = np.array(p), 50_000
    gen = _CountingGenerator(RngStream(23, (shots,)).generator())
    counts = sampling._multinomial_rows(gen, np.full(rows, shots), np.tile(p, (rows, 1)))
    assert gen.multinomial_calls == 0
    assert np.all(counts.sum(axis=1) == shots) and np.all(counts[:, p == 0] == 0)
    live = p > 0
    cells = _compositions(shots, live.sum())
    radix = (shots + 1) ** np.arange(live.sum())
    seen = np.bincount(counts[:, live] @ radix, minlength=(shots + 1) ** live.sum())[cells @ radix]
    want = rows * scipy.stats.multinomial.pmf(cells, shots, p[live])
    small = want < 5.0
    obs, exp = seen[~small], want[~small]
    if small.any():
        obs, exp = np.append(obs, seen[small].sum()), np.append(exp, want[small].sum())
    assert scipy.stats.chisquare(obs, exp * rows / exp.sum()).pvalue > 1e-3


@pytest.mark.parametrize("u,drawn", [(0.0, 1), (np.nextafter(1.0, 0.0), 10)])
def test_multinomial_rows_inverse_cdf_never_draws_a_zero_outcome(u, drawn):
    # numpy's extreme uniforms, 0 and 1 - 2^-53, on ten outcomes of 0.1
    # between two of probability 0: the first edge is 0, and the cumulative
    # total 1 - 2^-53 is also the last interior edge
    p = np.array([0.0] + [0.1] * 10 + [0.0])
    gen = _ConstantGenerator(RngStream(24).generator(), u)
    counts = sampling._multinomial_rows(gen, [4, 3], np.tile(p, (2, 1)))  # Poisson mean 0
    assert gen.multinomial_calls == 0
    assert np.array_equal(counts, np.outer([4, 3], np.eye(12, dtype=np.int64)[drawn]))


def _multinomial_shortfall_rows(gen, shots, dists):
    """The Poissonised draw with its shortfall always drawn by one
    ``gen.multinomial`` call: stacked Poisson, redraw of the rows that
    overshoot, then the multinomial."""
    shots = np.asarray(shots, dtype=np.int64)
    lam = np.minimum(np.maximum(shots - 2.0 * np.sqrt(shots), 0.0), sampling.POISSON_MAX)
    counts = gen.poisson(lam[:, None] * dists)
    over = counts.sum(axis=1) > shots
    while over.any():
        counts[over] = gen.poisson(lam[over, None] * dists[over])
        over[over] = counts[over].sum(axis=1) > shots[over]
    return counts + gen.multinomial(shots - counts.sum(axis=1), dists)


@pytest.mark.parametrize("shots,k", [
    ([20] * 500, 3),
    ([1000, 3, 57], 6),  # one shortfall passes K, the others need not
    ([40_247] * 11, 64),  # the oracle workload's n = 6 rounds
], ids=["k3", "mixed-shots", "k64"])
def test_multinomial_rows_keep_the_multinomial_stream(shots, k):
    # a call where some shortfall passes K draws exactly what the multinomial
    # shortfall drew on the same stream, and leaves the stream where it did
    w = np.random.default_rng(k).random((len(shots), k))
    w[:, [0, -1]] = 0.0
    dists = w / w.sum(axis=1, keepdims=True)
    gen, ref = _CountingGenerator(RngStream(25, (k,)).generator()), RngStream(25, (k,)).generator()
    counts = sampling._multinomial_rows(gen, shots, dists)
    assert gen.multinomial_calls == 1
    assert np.array_equal(counts, _multinomial_shortfall_rows(ref, shots, dists))
    assert gen.gen.random() == ref.random()


@st.composite
def _shot_rows(draw):
    # K up to 64 with shots up to 3K reaches the inverse-CDF shortfall, shots
    # up to the draw ceiling the multinomial one
    k, r = draw(st.integers(1, 64)), draw(st.integers(1, 4))
    shots = draw(st.lists(st.one_of(st.integers(0, 3 * k), st.integers(0, sampling.MAX_DRAW)),
                          min_size=r, max_size=r))
    weights = np.array(draw(st.lists(st.lists(st.integers(0, 3), min_size=k, max_size=k),
                                     min_size=r, max_size=r)), dtype=float)
    weights[:, list(draw(st.sampled_from([(), (0,), (-1,), (0, -1)])))] = 0.0  # zero ends
    assume(weights.any(axis=1).all())
    return draw(st.integers(0, 2 ** 32 - 1)), np.array(shots), weights


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(_shot_rows())
def test_multinomial_rows_sum_to_their_shots(case):
    # up to the draw ceiling, where the Poisson mean meets numpy's own ceiling
    seed, shots, weights = case
    dists = weights / weights.sum(axis=1, keepdims=True)
    counts = sampling._multinomial_rows(np.random.default_rng(seed), shots, dists)
    assert np.array_equal(counts.sum(axis=1), shots)
    assert np.all(counts[weights == 0] == 0)


def test_sample_vacuum_all_zero():
    dist = z_basis_distribution(states.vacuum(3).corr.mat)
    assert np.array_equal(dist, np.eye(8)[0])


def test_sample_unbiased_marginals():
    dist = z_basis_distribution(states.product_state([0.0, 0.0]).corr.mat)
    assert np.array_equal(dist, np.full(4, 0.25))


def test_depolarized_dense_source_mixes_uniform(rng):
    s = states.random_gaussian_state(2, "mixed", rng)
    noisy = DenseSource(dense.depolarize(dense.gaussian_to_dense(s), 0.3))
    rounds = np.arange(3)
    base = ExactGaussianSource(s).round_distributions(rounds)
    assert np.allclose(noisy.round_distributions(rounds), 0.7 * base + 0.3 / 4.0)
    own = z_basis_distribution(s.corr.mat)
    assert np.allclose(np.diag(noisy.state.rho).real, 0.7 * own + 0.3 / 4.0)
    assert np.allclose(noisy.gamma(), 0.7 * s.corr.mat)


def test_estimate_exact_scheme(rng):
    s = states.random_gaussian_state(3, "mixed", rng)
    est = estimate_gamma(ExactGaussianSource(s), 0.1, 0.1, "exact", RngStream(4))
    assert est.shots_used == 0
    assert np.abs(est.gamma_hat.mat - s.corr.mat).max() < 1e-12


@pytest.mark.parametrize("scheme", ["pauli_pairs", "commuting"])
def test_estimate_structure(scheme, rng):
    s = states.random_gaussian_state(3, "mixed", rng)
    est = estimate_gamma(ExactGaussianSource(s), 0.3, 0.2, scheme, RngStream(5))
    m = est.gamma_hat.mat
    assert np.array_equal(m, -m.T)
    assert np.all(np.diag(m) == 0.0)
    assert np.abs(m).max() <= 1.0
    assert est.shots_used > 0


def test_estimate_guarantee_vacuum():
    # vacuum source at the stated guarantee parameters: no run should fail
    src = ExactGaussianSource(states.vacuum(3))
    truth = skew.canonical_lambda(3)
    failures = 0
    for t in range(25):
        est = estimate_gamma(src, 0.2, 0.1, "commuting", RngStream(60, (t,)))
        if skew.schatten_norm(est.gamma_hat.mat - truth, np.inf) > 0.2:
            failures += 1
    assert failures <= 2


def test_estimate_guarantee_light(rng):
    # light version of the statistical guarantee; the acceptance suite
    # runs the full 200-trial batch
    s = states.random_gaussian_state(3, "mixed", rng)
    failures = 0
    for t in range(20):
        est = estimate_gamma(ExactGaussianSource(s), 0.2, 0.1, "commuting", RngStream(6, (t,)))
        if skew.schatten_norm(est.gamma_hat.mat - s.corr.mat, np.inf) > 0.2:
            failures += 1
    assert failures <= 2


def test_estimator_unbiased():
    s = states.product_state([0.35, -0.2])
    src = ExactGaussianSource(s)
    total = np.zeros((4, 4))
    runs = 1000
    shots_each = 60  # 3 rounds x 20
    for t in range(runs):
        est = estimate_gamma(src, 0.0, 0.5, "commuting", RngStream(7, (t,)),
                             total_shots=shots_each)
        total += est.gamma_hat.mat
    mean = total / runs
    per_round = shots_each // 3
    sigma = 1.0 / np.sqrt(per_round * runs)
    assert np.abs(mean - s.corr.mat).max() < 3.0 * sigma


def test_pauli_pairs_entry_means(rng):
    # each entry is an independent Binomial(shots, (1 + g)/2) mean
    s = states.random_gaussian_state(3, "mixed", rng)
    src = ExactGaussianSource(s)
    runs, per_pair = 2000, 20
    total = np.zeros((6, 6))
    for t in range(runs):
        est = estimate_gamma(src, 0.0, 0.5, "pauli_pairs", RngStream(13, (t,)),
                             total_shots=15 * per_pair)
        total += est.gamma_hat.mat
    iu = np.triu_indices(6, 1)
    truth = s.corr.mat[iu]
    sigma = np.sqrt((1.0 - truth ** 2) / (per_pair * runs))
    assert np.all(np.abs(total[iu] / runs - truth) <= 4.0 * sigma)


def test_pauli_pairs_unmeasured_pairs_read_zero(rng):
    s = states.random_gaussian_state(3, "mixed", rng)
    est = estimate_gamma(ExactGaussianSource(s), 0.1, 0.1, "pauli_pairs", RngStream(14),
                         total_shots=7)  # fewer shots than the 15 pairs
    entries = est.gamma_hat.mat[np.triu_indices(6, 1)]
    assert est.shots_used == 7
    assert np.all(np.abs(entries[:7]) == 1.0)  # one shot reads +-1
    assert np.all(entries[7:] == 0.0)


def test_commuting_unmeasured_rounds_read_zero(rng):
    s = states.random_gaussian_state(3, "mixed", rng)
    est = estimate_gamma(ExactGaussianSource(s), 0.1, 0.1, "commuting", RngStream(15),
                         total_shots=3)  # the 5 rounds get 1, 1, 1, 0 and 0 copies
    g, rounds = est.gamma_hat.mat, matchings(3)
    assert est.shots_used == 3
    assert all(abs(g[j, k]) == 1.0 for pairs in rounds[:3] for j, k in pairs)  # one shot reads +-1
    assert all(g[j, k] == 0.0 for pairs in rounds[3:] for j, k in pairs)


def test_estimate_total_shots_split(rng):
    s = states.random_gaussian_state(2, "mixed", rng)
    est = estimate_gamma(ExactGaussianSource(s), 0.1, 0.1, "commuting", RngStream(8),
                         total_shots=1000)
    assert est.shots_used == 1000
    est2 = estimate_gamma(ExactGaussianSource(s), 0.1, 0.1, "pauli_pairs", RngStream(8),
                          total_shots=1000)
    assert est2.shots_used == 1000


def test_estimate_determinism(rng):
    s = states.random_gaussian_state(3, "mixed", rng)
    for scheme in ("commuting", "pauli_pairs"):
        a = estimate_gamma(ExactGaussianSource(s), 0.3, 0.1, scheme, RngStream(9, (1,)))
        b = estimate_gamma(ExactGaussianSource(s), 0.3, 0.1, scheme, RngStream(9, (1,)))
        c = estimate_gamma(ExactGaussianSource(s), 0.3, 0.1, scheme, RngStream(9, (2,)))
        assert np.array_equal(a.gamma_hat.mat, b.gamma_hat.mat)
        assert not np.array_equal(a.gamma_hat.mat, c.gamma_hat.mat)
    # the commuting rounds against a pair-by-pair loop over the same draws, bit for bit
    src = ExactGaussianSource(s)
    est = estimate_gamma(src, 0.3, 0.1, "commuting", RngStream(9, (1,)), total_shots=5000)
    ref = np.zeros((6, 6))
    dists = [z_basis_distribution(q @ s.corr.mat @ q.T) for q in plan_rotations(3)]
    draws = sampling._multinomial_rows(RngStream(9, (1,)).generator(), [1000] * 5,
                                       np.array(dists))
    for pairs, q, counts in zip(matchings(3), plan_rotations(3), draws):
        for i, (j, k) in enumerate(pairs):
            z = 1.0 - 2.0 * ((np.arange(8) >> (2 - i)) & 1)  # qubit i's reading, qubit 0 first
            ref[j, k] = q[2 * i, j] * q[2 * i + 1, k] * ((z @ counts) / 1000)
    assert np.array_equal(est.gamma_hat.mat, ref - ref.T)


def _per_round_commuting(src, total_shots, rng_stream):
    """The commuting branch of estimate_gamma with one outcome tree per round
    (the loop the stacked tree replaced), drawn the same way on the same
    stream."""
    n = src.n
    per_setting = sampling._split_budget(total_shots, 2 * n - 1)
    g = np.zeros((2 * n, 2 * n))
    i = np.arange(n)
    bit_signs = 1.0 - 2.0 * ((np.arange(1 << n) >> (n - 1 - i)[:, None]) & 1)
    rounds = [t for t in range(2 * n - 1) if per_setting[t]]
    dists = np.array([src.round_distributions([t])[0] for t in rounds])  # one round per call
    draws = sampling._multinomial_rows(rng_stream.generator(), per_setting[rounds], dists)
    plan, qs = matchings(n), plan_rotations(n)
    for t, counts in zip(rounds, draws):
        q, shots = qs[t], per_setting[t]
        j, k = np.array(plan[t]).T
        g[j, k] = q[2 * i, j] * q[2 * i + 1, k] * ((bit_signs @ counts) / shots)
    g = np.clip(np.triu(g, 1), -1.0, 1.0)
    return g - g.T


@pytest.mark.parametrize("n", [*range(1, 9), 12])
def test_commuting_rounds_match_per_round_reference(n, rng):
    for kind in ("mixed", "pure"):
        src = ExactGaussianSource(states.random_gaussian_state(n, kind, rng))
        stream = RngStream(19, (n,))
        est = estimate_gamma(src, 0.2, 0.1, "commuting", stream)
        ref = _per_round_commuting(src, sampling.shot_budget("commuting", n, 0.2, 0.1), stream)
        assert np.array_equal(est.gamma_hat.mat, ref), kind


def test_commuting_rounds_match_per_round_reference_on_dense_and_unmeasured_rounds(rng):
    # ghz3 is a dense source; at n = 5, 7 copies leave 2 of the 9 rounds undrawn
    ghz = DenseSource(dense.ghz3())
    est = estimate_gamma(ghz, 0.2, 0.1, "commuting", RngStream(20))
    ref = _per_round_commuting(ghz, sampling.shot_budget("commuting", 3, 0.2, 0.1), RngStream(20))
    assert np.array_equal(est.gamma_hat.mat, ref)
    src = ExactGaussianSource(states.random_gaussian_state(5, "mixed", rng))
    est = estimate_gamma(src, 0.2, 0.1, "commuting", RngStream(21), total_shots=7)
    assert np.array_equal(est.gamma_hat.mat, _per_round_commuting(src, 7, RngStream(21)))


def test_error_scaling_slope():
    s = states.product_state([0.5, 0.2, -0.4])
    src = ExactGaussianSource(s)
    shots_grid = [1000, 4000, 16000, 64000]
    medians = []
    for shots in shots_grid:
        errs = []
        for t in range(15):
            est = estimate_gamma(src, 0.0, 0.5, "commuting", RngStream(10, (shots, t)),
                                 total_shots=shots)
            errs.append(skew.schatten_norm(est.gamma_hat.mat - s.corr.mat, np.inf))
        medians.append(np.median(errs))
    slope = np.polyfit(np.log(shots_grid), np.log(medians), 1)[0]
    assert -0.6 <= slope <= -0.4


def test_budget_overflow():
    src = ExactGaussianSource(states.vacuum(3))
    # the commuting budget at eps 1e-9 is about 2e21 copies, above the draw ceiling
    with pytest.raises(BudgetOverflow, match="draw ceiling"):
        estimate_gamma(src, 1e-9, 0.01, "commuting", RngStream(11))
    with pytest.raises(BudgetOverflow, match="draw ceiling"):
        estimate_gamma(src, 0.1, 0.01, "pauli_pairs", RngStream(11),
                       total_shots=sampling.MAX_DRAW + 1)
    # eps ** 2 underflows to 0: a budget beyond every float
    with pytest.raises(BudgetOverflow):
        sampling.shot_budget("commuting", 3, 1e-200, 0.1)


@pytest.mark.parametrize("scheme", ["commuting", "pauli_pairs"])
def test_default_budget_is_the_headline_row(scheme, rng):
    for n in range(1, 7):
        src = ExactGaussianSource(states.random_gaussian_state(n, "mixed", rng))
        est = estimate_gamma(src, 0.2, 0.1, scheme, RngStream(15, (n,)))
        assert est.shots_used == sampling.shot_budget(scheme, n, 0.2, 0.1), n


def test_estimate_checks_its_scheme_first():
    src = ExactGaussianSource(states.vacuum(sampling.MAX_SAMPLING_MODES + 1))
    with pytest.raises(TooManyModes, match="exceeds sampling cap"):
        estimate_gamma(src, 0.2, 0.1, "commuting", RngStream(18))
    with pytest.raises(ValidationError, match="unknown scheme 'nope'"):
        estimate_gamma(src, 0.2, 0.1, "nope", RngStream(18))
    # the cap is the commuting sampler's alone
    assert estimate_gamma(src, 0.2, 0.1, "exact", RngStream(18)).shots_used == 0


def test_estimate_rejects_non_positive_total():
    src = ExactGaussianSource(states.vacuum(2))
    for total in (0, -5):
        with pytest.raises(ValidationError, match="total_shots"):
            estimate_gamma(src, 0.2, 0.1, "commuting", RngStream(16), total_shots=total)


def test_headline_shot_bounds():
    assert sampling.shot_budget("commuting", 3, 0.2, 0.1) == \
        int(np.ceil(8 * 27 / 0.04 * np.log(36 / 0.1)))
    assert sampling.shot_budget("pauli_pairs", 3, 0.2, 0.1) == \
        int(np.ceil(16 * 81 / 0.04 * np.log(9 / 0.1)))
    # every row equals its closed form bit for bit, ceiling included
    closed = {
        "commuting": lambda n, e, d: math.ceil(8.0 * n ** 3 / e ** 2 * math.log(4.0 * n ** 2 / d)),
        "pauli_pairs": lambda n, e, d: math.ceil(16.0 * n ** 4 / e ** 2 * math.log(n ** 2 / d)),
        "mixed_tomography":
            lambda n, e, d: math.ceil(16.0 * n ** 4 / e ** 2 * math.log(4.0 * n ** 2 / d)),
    }
    assert set(closed) == set(sampling.SHOT_BUDGETS)
    # the bounded-rank test's budget is the commuting row at delta/2: halving
    # is exact, so 4 n^2 / (delta/2) and 8 n^2 / delta round the same real number
    rank_test = lambda n, e, d: math.ceil(  # noqa: E731
        8.0 * n ** 3 / e ** 2 * math.log(8.0 * n ** 2 / d))
    # small eps and large n: where a reordered expression moves a ceiling by one
    grid = itertools.product(range(1, 65), (0.01, 0.03, 0.05, 0.1, 0.2, 0.25, 0.5, 0.9),
                             [i / 100 for i in range(1, 100)])
    for n, eps, delta in grid:
        for row, formula in closed.items():
            assert sampling.shot_budget(row, n, eps, delta) == formula(n, eps, delta), \
                (row, n, eps, delta)
        assert sampling.shot_budget("commuting", n, eps, delta / 2) == rank_test(n, eps, delta), \
            (n, eps, delta)

