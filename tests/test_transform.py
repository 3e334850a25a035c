import re

import numpy as np
import pytest

from qbdr import (NumericalError, RewardSpec, assemble_generator,
                  classify_drift, deviation_time, deviation_transform,
                  deviation_transform_block, gmatrices, inversion_nodes,
                  invert_laplace, oracle_deviation, oracle_reward,
                  oracle_stationary, oracle_transient_deviation,
                  random_blocks, reward_time, reward_transform,
                  stationary_rmatrix, transform_context)
from qbdr.linalg import matrix_powers
from conftest import (censored_boundary_generator, censored_generator,
                      dense_deviation_transform, dense_reward_transform,
                      full_sweep_particular,
                      mapph_example, nu_k, random_rewards, scalar_blocks,
                      z_matrix)


def _ctx(blocks, s):
    return transform_context(blocks, s)


# ---------------------------------------------------------------------------
# particular terms
# ---------------------------------------------------------------------------

def test_nu_single_top_level_reward():
    blocks = random_blocks(2, 4, np.random.default_rng(0))
    ctx = _ctx(blocks, 1.3)
    g = [np.zeros(2)] * 4 + [np.array([1.0, 2.0])]
    rewards = RewardSpec(g=tuple(g))
    top = nu_k(ctx, rewards, 4)
    np.testing.assert_allclose(top, ctx.gmat.H0 @ g[4] / 1.3, atol=1e-12)
    for k in range(4):
        expected = np.linalg.matrix_power(ctx.gmat.Ghat, 4 - k) \
            @ ctx.gmat.H0 @ g[4] / 1.3
        np.testing.assert_allclose(nu_k(ctx, rewards, k), expected,
                                   atol=1e-12)


def test_nu_zero_rewards():
    blocks = random_blocks(2, 3, np.random.default_rng(1))
    ctx = _ctx(blocks, 0.8)
    rewards = RewardSpec.zeros(2, 3)
    for k in range(4):
        assert not nu_k(ctx, rewards, k).any()


def test_nu_matches_sweeped_values():
    from qbdr.transform import _reward_system
    blocks = random_blocks(3, 5, np.random.default_rng(2))
    rewards = random_rewards(blocks)
    ctx = _ctx(blocks, 0.4)
    swept = _reward_system(ctx, rewards).p[..., 0]
    for k in range(6):
        np.testing.assert_allclose(nu_k(ctx, rewards, k), swept[k],
                                   atol=1e-11)


# ---------------------------------------------------------------------------
# boundary matrix
# ---------------------------------------------------------------------------

def test_z_capacity_one_specialization():
    blocks = scalar_blocks(1.0, 2.0, 1)
    s = 1.0
    ctx = _ctx(blocks, s)
    g, gh = ctx.gmat.G[0, 0], ctx.gmat.Ghat[0, 0]
    expected = np.array([
        [-1.0 - s + 1.0 * g, (-1.0 - s) * gh + 1.0],
        [2.0 + (-2.0 - s) * g, 2.0 * gh + (-2.0 - s)],
    ])
    np.testing.assert_allclose(z_matrix(ctx), expected, atol=1e-12)


@pytest.mark.parametrize("seed,n,c", [(0, 1, 2), (1, 2, 5), (2, 3, 4)])
def test_z_factorization(seed, n, c):
    blocks = random_blocks(n, c, np.random.default_rng(seed))
    for s in (0.3, 1.0):
        ctx = _ctx(blocks, s)
        ring = censored_boundary_generator(blocks, s)
        factor = np.block([
            [np.eye(n), np.linalg.matrix_power(ctx.gmat.Ghat, c)],
            [np.linalg.matrix_power(ctx.gmat.G, c), np.eye(n)],
        ])
        np.testing.assert_allclose(z_matrix(ctx), ring @ factor, atol=1e-10)
        assert np.linalg.cond(z_matrix(ctx)) < 1e12


# ---------------------------------------------------------------------------
# reward transform
# ---------------------------------------------------------------------------

def test_reward_transform_zero_rewards():
    blocks = random_blocks(2, 3, np.random.default_rng(3))
    ctx = _ctx(blocks, 1.0)
    parts = reward_transform(ctx, RewardSpec.zeros(2, 3))
    assert not np.concatenate(parts).any()


def test_reward_transform_uniform_rate():
    blocks = random_blocks(2, 4, np.random.default_rng(4))
    c = 1.7
    rewards = RewardSpec(g=tuple(c * np.ones(2) for _ in range(5)))
    for s in (0.5, 2.0):
        parts = reward_transform(_ctx(blocks, s), rewards)
        np.testing.assert_allclose(np.concatenate(parts),
                                   c / s ** 2 * np.ones(10), atol=1e-10)


@pytest.mark.parametrize("seed", range(5))
def test_reward_transform_matches_dense(seed):
    blocks = random_blocks(1 + seed % 3, 2 + seed, np.random.default_rng(seed))
    rewards = random_rewards(blocks, seed)
    q = assemble_generator(blocks)
    for s in (0.2, 1.0, 5.0):
        parts = reward_transform(_ctx(blocks, s), rewards)
        dense = dense_reward_transform(q, rewards.stacked(), s)
        gap = np.max(np.abs(np.concatenate(parts) - dense))
        assert gap <= 1e-8 * max(1.0, np.max(np.abs(dense)))


def test_reward_transform_mapph_dense():
    blocks = mapph_example(C=5)
    from qbdr import lost_revenue_rewards
    rewards = lost_revenue_rewards(blocks, 1.0)
    q = assemble_generator(blocks)
    parts = reward_transform(_ctx(blocks, 1.0), rewards)
    dense = dense_reward_transform(q, rewards.stacked(), 1.0)
    assert np.max(np.abs(np.concatenate(parts) - dense)) \
        <= 1e-8 * np.max(np.abs(dense))


# ---------------------------------------------------------------------------
# unbounded-capacity corollaries
# ---------------------------------------------------------------------------

def test_reward_unbounded_finite_support_both_drifts():
    # the unbounded process censored onto the levels 0..5 (rewards on
    # level 0 only) against capacity 200
    g = np.array([1.0, 0, 0, 0, 0, 0])
    for lam, mu in ((1.0, 2.0), (2.0, 1.0)):
        small = scalar_blocks(lam, mu, 2)
        big = scalar_blocks(lam, mu, 200)
        ctx = _ctx(big, 1.0)
        rewards = RewardSpec(g=tuple([np.array([1.0])]
                                     + [np.array([0.0])] * 200))
        finite = reward_transform(ctx, rewards)
        unb = dense_reward_transform(censored_generator(small, 1.0, 5), g, 1.0)
        for k in (0, 2, 5):
            assert np.max(np.abs(unb[k] - finite[k])) <= 1e-8


# ---------------------------------------------------------------------------
# deviation transform
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(4))
def test_deviation_blocks_match_dense(seed):
    blocks = random_blocks(1 + seed, 3 + seed, np.random.default_rng(seed))
    q = assemble_generator(blocks)
    pi = stationary_rmatrix(blocks)
    for s in (0.3, 1.0):
        assembled = deviation_transform(_ctx(blocks, s), pi)
        dense = dense_deviation_transform(q, pi.stacked(), s)
        assert np.max(np.abs(assembled - dense)) \
            <= 1e-8 * max(1.0, np.max(np.abs(dense)))


@pytest.mark.parametrize("seed", range(4))
def test_transforms_match_dense_at_complex_s(seed):
    blocks = random_blocks(1 + seed, 3 + seed, np.random.default_rng(seed))
    rewards = random_rewards(blocks, seed)
    q = assemble_generator(blocks)
    pi = stationary_rmatrix(blocks)
    s = 1.2 + 7j
    ctx = _ctx(blocks, s)
    assembled = deviation_transform(ctx, pi)
    dense = dense_deviation_transform(q, pi.stacked(), s)
    assert np.max(np.abs(assembled - dense)) \
        <= 1e-8 * max(1.0, np.max(np.abs(dense)))
    parts = reward_transform(ctx, rewards)
    dense_r = dense_reward_transform(q, rewards.stacked(), s)
    assert np.max(np.abs(parts.reshape(-1) - dense_r)) \
        <= 1e-8 * max(1.0, np.max(np.abs(dense_r)))


def test_deviation_block_single_entry(scalar_pr):
    q = assemble_generator(scalar_pr)
    pi = stationary_rmatrix(scalar_pr)
    s = 1.0
    block = deviation_transform_block(_ctx(scalar_pr, s), pi, 0, 2)
    dense = dense_deviation_transform(q, pi.stacked(), s)
    assert abs(block[0, 0] - dense[0, 2]) <= 1e-10


@pytest.mark.parametrize("seed", range(3))
def test_deviation_transform_annihilation(seed):
    blocks = random_blocks(2, 4, np.random.default_rng(seed))
    pi = stationary_rmatrix(blocks)
    for s in (0.5, 2.0):
        assembled = deviation_transform(_ctx(blocks, s), pi)
        size = assembled.shape[0]
        np.testing.assert_allclose(assembled @ np.ones(size), 0.0, atol=1e-9)
        np.testing.assert_allclose(pi.stacked() @ assembled, 0.0, atol=1e-9)


def test_deviation_transform_small_s_approaches_asymptotic(scalar_pr):
    q = assemble_generator(scalar_pr)
    pi = stationary_rmatrix(scalar_pr)
    dev = oracle_deviation(q)
    s = 1e-3
    assembled = deviation_transform(_ctx(scalar_pr, s), pi)
    gap = np.max(np.abs(s * assembled - dev))
    assert gap <= 1e-2 * np.max(np.abs(dev))


def test_deviation_unbounded_positive_recurrent(scalar_pr):
    # pi_l = (1/2)^(l+1) for the unbounded process
    big = scalar_blocks(1.0, 2.0, 200)
    ctx = _ctx(big, 1.0)
    pi_big = stationary_rmatrix(big)
    unb = dense_deviation_transform(censored_generator(scalar_pr, 1.0, 3),
                                    0.5 ** np.arange(1, 5), 1.0)
    for k in range(4):
        for level in range(4):
            fin = deviation_transform_block(ctx, pi_big, k, level)
            assert np.max(np.abs(fin - unb[k, level])) <= 1e-8


def test_deviation_unbounded_level_zero_shortcut():
    # column 0 of the unbounded resolvent is G^k x_0, and the level 0
    # equation gives (B0 - sI + A1 G) x_0 = -I/s
    blocks = random_blocks(2, 3, np.random.default_rng(6))
    s = 0.9
    gm = gmatrices(blocks, s)
    dense = dense_deviation_transform(censored_generator(blocks, s, 3),
                                      np.zeros(8), s)
    lead = np.linalg.inv(blocks.B0 - s * np.eye(2) + blocks.A1 @ gm.G)
    expected = np.linalg.matrix_power(gm.G, 2) @ lead * (-1.0 / s)
    np.testing.assert_allclose(dense[4:6, :2], expected, atol=1e-12)


# ---------------------------------------------------------------------------
# numerical inversion
# ---------------------------------------------------------------------------

def test_invert_ramp():
    value = invert_laplace(lambda s: 1.0 / s ** 2, 3.0)
    assert value == pytest.approx(3.0, rel=1e-7)


def test_invert_exponential():
    value = invert_laplace(lambda s: 1.0 / (s + 1.0), 1.0)
    assert value == pytest.approx(np.exp(-1.0), rel=1e-7)


def test_invert_vector_valued():
    out = invert_laplace(lambda s: np.array([1.0 / s ** 2, 1.0 / (s + 1.0)]),
                         1.0)
    np.testing.assert_allclose(out, [1.0, np.exp(-1.0)], rtol=1e-6)


def test_invert_rejects_nonpositive_time():
    with pytest.raises(ValueError):
        invert_laplace(lambda s: 1.0 / s, 0.0)


def test_invert_grid_of_bands():
    # 0.5 and 1 share a band, 3 and 5 another, 20 is alone
    times = np.array([5.0, 0.5, 20.0, 1.0, 3.0])
    out = invert_laplace(lambda s: np.array([1.0 / s ** 2, 1.0 / (s + 1.0)]),
                         times)
    np.testing.assert_allclose(out, np.stack([times, np.exp(-times)], 1),
                               rtol=1e-9, atol=1e-12)


def test_zero_transform_inverts_to_exact_zero():
    # an entry that is 0 at every node would make the QD table 0/0
    out = invert_laplace(lambda s: np.array([0.0, 1.0 / s ** 2]),
                         np.array([1.0, 3.0]))
    assert (out[:, 0] == 0.0).all()
    np.testing.assert_allclose(out[:, 1], [1.0, 3.0], rtol=1e-9)


def test_zero_rewards_give_exact_zeros():
    blocks = mapph_example(C=10)
    times = np.arange(0.0, 10.25, 0.5)
    curves = reward_time(blocks, RewardSpec.zeros(4, 10), times)
    assert curves.shape == (len(times), 44) and not curves.any()


@pytest.mark.parametrize("transform", [
    lambda s: 1.0 / s ** 2 if s.imag == 0 else 0.0,
    lambda s: complex("nan") / s],
    ids=["vanishes-at-some-nodes", "nan"])
def test_inversion_breakdown_raises_numerical_error(transform):
    with pytest.raises(NumericalError):
        invert_laplace(transform, 1.0)


# ---------------------------------------------------------------------------
# time domain
# ---------------------------------------------------------------------------

def test_reward_time_zero_horizon(scalar_pr):
    rewards = RewardSpec(g=(np.array([1.0]), np.array([1.0]),
                            np.array([1.0])))
    assert not reward_time(scalar_pr, rewards, 0.0).any()


@pytest.mark.parametrize("t", [0.5, 2.0])
def test_reward_time_matches_ode_oracle(t, scalar_pr):
    rewards = random_rewards(scalar_pr)
    q = assemble_generator(scalar_pr)
    inverted = reward_time(scalar_pr, rewards, t)
    integrated = oracle_reward(q, rewards.stacked(), t)
    assert np.max(np.abs(inverted - integrated)) <= 1e-6


def test_reward_time_mapph_ordering():
    blocks = mapph_example(C=5)
    from qbdr import classify_drift, lost_revenue_rewards
    rewards = lost_revenue_rewards(blocks, 1.0)
    alpha = classify_drift(blocks).alpha
    full = reward_time(blocks, rewards, 1.0)
    values = [alpha @ full[k * 4:(k + 1) * 4] for k in range(6)]
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def test_revenue_curves_match_expm():
    # the paper's revenue curves, weighted by the phase distribution alpha,
    # against R(t) as the last column of exp(t [[Q, g], [0, 0]])
    from scipy.linalg import expm
    from qbdr import gained_revenue_rewards, lost_revenue_rewards
    times = np.arange(0.5, 10.25, 0.5)
    for swapped in (False, True):
        blocks = mapph_example(C=60, swapped=swapped)
        alpha = classify_drift(blocks).alpha
        q = assemble_generator(blocks)
        size = q.shape[0]
        for rewards in (lost_revenue_rewards(blocks, 1.0),
                        gained_revenue_rewards(blocks, 1.0, 1.0)):
            aug = np.zeros((size + 1, size + 1))
            aug[:size, :size], aug[:size, size] = q, rewards.stacked()
            reference = np.array([expm(aug * t)[:size, size] for t in times])
            curves = reward_time(blocks, rewards, times)
            gap = (curves - reference).reshape(len(times), -1, 4) @ alpha
            assert np.max(np.abs(gap)) <= 1e-6
            # weighted before the inversion, as the CLI prints them
            weighted = reward_time(blocks, rewards, times, dist=alpha)
            gap = weighted - reference.reshape(len(times), -1, 4) @ alpha
            assert np.max(np.abs(gap)) <= 1e-6


def test_deviation_time_matches_quadrature(scalar_pr):
    q = assemble_generator(scalar_pr)
    pi = stationary_rmatrix(scalar_pr)
    for t in (0.5, 3.0):
        inverted = deviation_time(scalar_pr, t, pi)
        quad = oracle_transient_deviation(q, pi.stacked(), t)
        assert np.max(np.abs(inverted - quad)) <= 1e-6


def test_deviation_time_null_recurrent_matches_quadrature():
    # a finite chain has D(t) whatever its drift
    blocks = scalar_blocks(1.0, 1.0, 4)
    q = assemble_generator(blocks)
    quad = oracle_transient_deviation(q, oracle_stationary(q), 2.0)
    assert np.max(np.abs(deviation_time(blocks, 2.0) - quad)) <= 1e-6


def occupation_matrix(blocks, pi, t):
    """Expected occupation times V(t) = 1 pi t + D(t); rows sum to t."""
    n, C = blocks.n, blocks.C
    if t == 0:
        return np.zeros((n * (C + 1), n * (C + 1)))
    stacked = np.concatenate([np.asarray(pi[k]) for k in range(C + 1)])
    base = np.outer(np.ones(n * (C + 1)), stacked) * t
    return base + deviation_time(blocks, t, pi)


def test_occupation_rows_sum_to_horizon():
    blocks = random_blocks(2, 3, np.random.default_rng(8))
    pi = stationary_rmatrix(blocks)
    for t in (0.0, 1.5):
        occ = occupation_matrix(blocks, pi, t)
        np.testing.assert_allclose(occ @ np.ones(8), t * np.ones(8),
                                   atol=1e-6)


def test_reward_linear_asymptote(scalar_pr):
    rewards = RewardSpec(g=(np.array([0.4]), np.array([0.1]),
                            np.array([1.0])))
    q = assemble_generator(scalar_pr)
    pi = oracle_stationary(q)
    dev = oracle_deviation(q, pi)
    gap = np.abs(np.linalg.eigvals(q))
    t = 50.0 / np.min(gap[gap > 1e-9])
    asymptote = (pi @ rewards.stacked()) * t + dev @ rewards.stacked()
    actual = reward_time(scalar_pr, rewards, t)
    bound = 1e-5 * (1.0 + np.max(np.abs(dev @ rewards.stacked())))
    assert np.max(np.abs(actual - asymptote)) <= bound


def test_boundary_end_powers_match_sequential_products():
    # the rows at the ends of the run 0..C read G and Ghat to the powers
    # 0, 1 and C - 1 only, from one table of squares G^(2^i) up to the
    # highest bit of C - 1, not a stack of C + 1 powers
    from qbdr.diffeq import BoundarySystem
    blocks = random_blocks(2, 37, np.random.default_rng(9))
    ctx = transform_context(blocks, np.array([1.1, 0.4 + 3j]))
    zero = np.zeros((38, 2, 2, 1))
    system = BoundarySystem(blocks, ctx.gmat, zero)
    assert [len(table) for table in system._squares] == [(36).bit_length()] * 2
    for which, g in enumerate((ctx.gmat.G, ctx.gmat.Ghat)):
        sequential = matrix_powers(g, 37)
        assert np.array_equal(system._power(which, 0), sequential[0])
        for e in range(38):
            assert _max_gap(system._power(which, e), sequential[e]) <= 1e-12


# ---------------------------------------------------------------------------
# node-stacked inversion against the node-by-node inversion
# ---------------------------------------------------------------------------

def _per_node_reward(blocks, rewards, t):
    return invert_laplace(
        lambda s: reward_transform(transform_context(blocks, s),
                                   rewards).reshape(-1), t)


def _per_node_deviation(blocks, pi, t):
    return invert_laplace(
        lambda s: deviation_transform(transform_context(blocks, s), pi), t)


def _max_gap(value, reference):
    return np.max(np.abs(value - reference)) / np.max(np.abs(reference))


def test_inversion_nodes_on_band():
    # the band of t_max = 2 has T = 4: nodes gamma + i pi k / 4, k = 0..40,
    # with gamma = -ln(1e-12) / 8 > 0
    nodes = inversion_nodes(2.0)
    assert len(nodes) == 41
    np.testing.assert_allclose(nodes.real, -np.log(1e-12) / 8.0)
    assert (nodes.real > 0).all() and nodes[0].imag == 0.0
    np.testing.assert_allclose(np.diff(nodes.imag), np.pi / 4.0)
    with pytest.raises(ValueError):
        inversion_nodes(0.0)


@pytest.mark.parametrize("swapped", [False, True])
def test_reward_time_matches_node_by_node_queue(swapped):
    from qbdr import gained_revenue_rewards, lost_revenue_rewards
    blocks = mapph_example(C=60, swapped=swapped)
    for rewards in (lost_revenue_rewards(blocks, 1.0),
                    gained_revenue_rewards(blocks, 1.0, 1.0)):
        for t in (0.5, 10.0):
            assert _max_gap(reward_time(blocks, rewards, t),
                            _per_node_reward(blocks, rewards, t)) <= 1e-12


def test_deviation_time_matches_node_by_node_queue():
    blocks = mapph_example(C=60)
    pi = stationary_rmatrix(blocks)
    full = deviation_time(blocks, 2.0, pi)
    assert _max_gap(full, _per_node_deviation(blocks, pi, 2.0)) <= 1e-12
    for k, level in ((0, 0), (17, 60), (60, 3)):
        block = deviation_time(blocks, 2.0, pi, block=(k, level))
        np.testing.assert_allclose(
            block, full[4 * k:4 * k + 4, 4 * level:4 * level + 4],
            rtol=0, atol=1e-12 * np.max(np.abs(full)))


def test_time_routes_match_node_by_node_acceptance_grid():
    from test_acceptance import model_grid
    for blocks in model_grid(10, max_n=3, max_c=4, seed=5):
        pi = stationary_rmatrix(blocks)
        rewards = random_rewards(blocks)
        for t in (0.1, 1.0, 10.0):
            assert _max_gap(reward_time(blocks, rewards, t),
                            _per_node_reward(blocks, rewards, t)) <= 1e-12
            assert _max_gap(deviation_time(blocks, t, pi),
                            _per_node_deviation(blocks, pi, t)) <= 1e-12


def test_batched_context_stacks_nodes():
    blocks = random_blocks(2, 5, np.random.default_rng(9))
    rewards = random_rewards(blocks)
    pi = stationary_rmatrix(blocks)
    nodes = np.array([0.7, 1.1 + 3j, 2.0 - 5j])
    ctx = transform_context(blocks, nodes)
    assert ctx.gmat.G.shape == ctx.gmat.Ghat.shape == (3, 2, 2)
    parts = reward_transform(ctx, rewards)
    dev = deviation_transform(ctx, pi)
    assert parts.shape == (3, 6, 2) and dev.shape == (3, 12, 12)
    for i, s in enumerate(nodes):
        one = transform_context(blocks, s)
        np.testing.assert_allclose(parts[i], reward_transform(one, rewards),
                                   rtol=1e-12)
        np.testing.assert_allclose(dev[i], deviation_transform(one, pi),
                                   rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("entries", [1, 5 * 22 * 22, 1 << 40])
def test_split_stacks_match_node_by_node(monkeypatch, entries):
    # full D(t) in one call per node, in nine calls of 4-5 nodes and in
    # one call of all 41 nodes
    import qbdr.transform as transform
    monkeypatch.setattr(transform, "_STACK_ENTRIES", entries)
    blocks = random_blocks(2, 10, np.random.default_rng(4))
    pi = stationary_rmatrix(blocks)
    rewards = random_rewards(blocks)
    assert _max_gap(deviation_time(blocks, 2.0, pi),
                    _per_node_deviation(blocks, pi, 2.0)) <= 1e-12
    assert _max_gap(reward_time(blocks, rewards, 2.0),
                    _per_node_reward(blocks, rewards, 2.0)) <= 1e-12


# ---------------------------------------------------------------------------
# a grid of time points, a few per stacked call
# ---------------------------------------------------------------------------

# The benchmark's grid (four bands), a grid from t = 0 whose three bands
# hold different numbers of times, and short grids holding t = 0.
TIME_GRIDS = [np.arange(0.5, 10.25, 0.5), np.linspace(0.0, 9.0, 13),
              np.array([0.0, 3.0]), np.array([2.0]), np.array([0.0])]


def _queue_curves():
    from qbdr import gained_revenue_rewards, lost_revenue_rewards
    cases = []
    for swapped in (False, True):
        blocks = mapph_example(C=60, swapped=swapped)
        cases += [(blocks, lost_revenue_rewards(blocks, 1.0)),
                  (blocks, gained_revenue_rewards(blocks, 1.0, 1.0))]
    blocks = random_blocks(3, 60, np.random.default_rng(12))
    return cases + [(blocks, random_rewards(blocks))]


@pytest.mark.parametrize("grid", range(len(TIME_GRIDS)))
def test_reward_time_grid_matches_per_point(grid):
    # a grid equals the node-by-node inversion of its bands to 1e-12, and
    # each point the inversion of its own band to the method's accuracy
    times = TIME_GRIDS[grid]
    for blocks, rewards in _queue_curves():
        curves = reward_time(blocks, rewards, times)
        assert curves.shape == (len(times), blocks.n * (blocks.C + 1))
        positive = times > 0
        if positive.any():
            assert _max_gap(curves[positive], _per_node_reward(
                blocks, rewards, times[positive])) <= 1e-12
        for t, curve in zip(times, curves):
            one = reward_time(blocks, rewards, float(t))
            if t == 0:
                assert not curve.any() and not one.any()
            else:
                assert _max_gap(curve, one) <= 1e-9
        n = blocks.n
        np.testing.assert_allclose(
            reward_time(blocks, rewards, times, k=7), curves[:, 7 * n:8 * n],
            rtol=0, atol=1e-12 * np.max(np.abs(curves)))


def test_reward_time_weights_phases_before_inversion():
    # the QD acceleration is not linear in the values, so weighting the
    # phases before the inversion moves the curves by roundoff only
    times = TIME_GRIDS[0]
    for blocks, rewards in _queue_curves():
        alpha = classify_drift(blocks).alpha
        per_state = reward_time(blocks, rewards, times).reshape(
            len(times), -1, blocks.n) @ alpha
        weighted = reward_time(blocks, rewards, times, dist=alpha)
        assert weighted.shape == (len(times), blocks.C + 1)
        assert _max_gap(weighted, per_state) <= 1e-12
        at_k = reward_time(blocks, rewards, times, k=7, dist=alpha)
        assert at_k.shape == (len(times),)
        np.testing.assert_allclose(at_k, weighted[:, 7], rtol=0,
                                   atol=1e-12 * np.max(np.abs(weighted)))
        assert reward_time(blocks, rewards, 0.0, k=7, dist=alpha) == 0.0


def _counting_contexts(monkeypatch):
    """The node arrays of every transform_context call from here on."""
    import qbdr.transform as transform
    calls = []
    real = transform.transform_context

    def counting(blocks, s):
        calls.append(s)
        return real(blocks, s)

    monkeypatch.setattr(transform, "transform_context", counting)
    return calls


def test_reward_time_grid_groups_whole_time_points(monkeypatch):
    # each band, largest time at most twice the smallest, takes the 41
    # nodes of its largest time, and all bands of a grid go in one call;
    # capped at one band's work, each band is its own call again
    import qbdr.transform as transform
    from qbdr import lost_revenue_rewards
    blocks = mapph_example(C=60)
    rewards = lost_revenue_rewards(blocks, 1.0)
    calls = _counting_contexts(monkeypatch)
    grids = ((np.arange(0.0, 10.25, 0.5), (1.0, 3.0, 7.0, 10.0)),
             (np.array([4.0, 1.0, 0.0, 8.0, 2.0]), (2.0, 8.0)),
             (2.0, (2.0,)))
    for times, tops in grids:
        calls.clear()
        reward_time(blocks, rewards, times)
        assert len(calls) == 1
        assert np.array_equal(calls[0], np.concatenate(
            [inversion_nodes(top) for top in tops]))
    monkeypatch.setattr(transform, "_STACK_ENTRIES", 41 * 244)
    for times, tops in grids:
        calls.clear()
        reward_time(blocks, rewards, times)
        assert len(calls) == len(tops)
        for nodes, top in zip(calls, tops):
            assert np.array_equal(nodes, inversion_nodes(top))


def test_grid_equals_its_bands_inverted_alone():
    # one call for all bands gives the same bytes as one call per band
    from qbdr import deviation_time_recursive
    blocks = random_blocks(2, 10, np.random.default_rng(4))
    pi = stationary_rmatrix(blocks)
    rewards = random_rewards(blocks)
    times = np.arange(0.5, 10.25, 0.5)
    bands = np.split(times, [2, 6, 14])  # 0.5-1, 1.5-3, 3.5-7, 7.5-10
    for route in (lambda t: reward_time(blocks, rewards, t),
                  lambda t: deviation_time(blocks, t, pi),
                  lambda t: deviation_time(blocks, t, pi, block=(3, 1)),
                  lambda t: deviation_time_recursive(blocks, t, block=(3, 1))):
        grid = route(times)
        assert np.array_equal(grid, np.concatenate([route(b) for b in bands]))


@pytest.mark.parametrize("bad", [0, 2, 3])
def test_inversion_breakdown_names_its_band(bad):
    # the lost-revenue curve of the C = 60 queue on 0.5:10:0.5: four bands
    # in one call, one entry of one band not finite at one node
    import qbdr.transform as transform
    from qbdr import lost_revenue_rewards
    blocks = mapph_example(C=60)
    times = np.arange(0.5, 10.25, 0.5)
    tops = [times[band[-1]] for band in transform._bands(times)]
    assert tops == [1.0, 3.0, 7.0, 10.0]
    nodes = np.concatenate([inversion_nodes(top) for top in tops])
    values = reward_transform(transform_context(blocks, nodes),
                              lost_revenue_rewards(blocks, 1.0))
    values = values @ classify_drift(blocks).alpha
    values[bad * 41 + 7, 30] = np.nan
    inverses = transform._band_inverses(lambda _: values, times, 4)
    with pytest.raises(NumericalError,
                       match=re.escape(f"up to t = {float(tops[bad])}:")):
        for _ in inverses:
            pass


@pytest.mark.parametrize("bands", [2.5, 0.5, 0.0])
def test_full_deviation_calls_stay_under_cap(monkeypatch, bands):
    # a full D(t) holds 22^2 values a node: calls of two whole bands, of
    # a third of a band (20 nodes fit, so 41 take three calls) and of one
    # node, which alone exceeds a cap of 1
    import qbdr.transform as transform
    blocks = random_blocks(2, 10, np.random.default_rng(4))
    pi = stationary_rmatrix(blocks)
    cap = max(1, int(bands * 41 * 22 ** 2))
    monkeypatch.setattr(transform, "_STACK_ENTRIES", cap)
    calls = _counting_contexts(monkeypatch)
    deviation_time(blocks, np.arange(0.5, 10.25, 0.5), pi)
    sizes = [len(nodes) for nodes in calls]
    assert sum(sizes) == 4 * 41
    assert all(size * 22 ** 2 <= cap or size == 1 for size in sizes)
    assert len(sizes) == {2.5: 2, 0.5: 4 * 3, 0.0: 4 * 41}[bands]


def test_time_routes_reject_negative_or_nonfinite_time(scalar_pr):
    rewards = random_rewards(scalar_pr)
    for times in (np.array([1.0, -0.5]), np.array([np.nan]), np.inf, -1.0):
        with pytest.raises(ValueError):
            reward_time(scalar_pr, rewards, times)
        with pytest.raises(ValueError):
            deviation_time(scalar_pr, times)


@pytest.mark.parametrize("t", [0.0, 1.0, np.array([0.0, 1.0])])
@pytest.mark.parametrize("bad", [-1, 6, 99, 2.5])
def test_time_routes_reject_levels_before_solving(monkeypatch, t, bad):
    # at t = 0 no transform is evaluated, so a level checked only there
    # would give zeros; a negative one would index from the top, and a
    # fractional one would fail only after the G/Ghat solve
    import qbdr.perturbation as perturbation
    import qbdr.transform as transform
    from qbdr import deviation_time_recursive
    blocks = mapph_example(C=5)
    rewards = random_rewards(blocks)
    pi = stationary_rmatrix(blocks)

    def unsolved(*args):
        raise AssertionError("transform evaluated")

    monkeypatch.setattr(transform, "transform_context", unsolved)
    monkeypatch.setattr(perturbation, "deviation_recursive", unsolved)
    monkeypatch.setattr(perturbation, "resolvent_recursive", unsolved)
    with pytest.raises(ValueError, match="out of range 0..5"):
        reward_time(blocks, rewards, t, k=bad)
    for block in ((bad, 0), (0, bad)):
        with pytest.raises(ValueError, match="out of range 0..5"):
            deviation_time(blocks, t, pi, block=block)
        with pytest.raises(ValueError, match="out of range 0..5"):
            deviation_time_recursive(blocks, t, block=block)
    monkeypatch.undo()
    for level in (0, np.int64(5)):
        assert reward_time(blocks, rewards, t, k=level).shape == (
            np.shape(t) + (4,))
        assert deviation_time(blocks, t, pi, block=(level, 5 - level)).shape \
            == np.shape(t) + (4, 4)
        assert deviation_time_recursive(blocks, t, block=(level, 5 - level)) \
            .shape == np.shape(t) + (4, 4)


def test_particular_skips_zero_atoms_bitwise(monkeypatch):
    # lost revenue on the top two levels, and two block columns, force more
    # than one level, so their particular term is swept: starting each
    # sweep at the first nonzero atom gives the same bytes as sweeping
    # every level
    import qbdr.diffeq as diffeq
    from qbdr import lost_revenue_rewards
    from qbdr.transform import _deviation_columns
    blocks = mapph_example(C=60)
    lost = lost_revenue_rewards(blocks, 1.0).g
    rewards = RewardSpec(g=lost[:-2] + lost[-1:] * 2)
    pi = stationary_rmatrix(blocks)
    ctx = transform_context(blocks, inversion_nodes(2.0))

    def results():
        return (reward_transform(ctx, rewards),
                _deviation_columns(blocks, ctx.gmat, [17, 30],
                                   [pi[17], pi[30]], 24))

    skipped = results()
    monkeypatch.setattr(diffeq, "particular", full_sweep_particular)
    for value, ref in zip(skipped, results()):
        assert value.tobytes() == ref.tobytes()
