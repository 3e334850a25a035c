import sys

import numpy as np
import pytest

from qbdr import (AsymptoticsUndefinedError, Drift, IterationLimitError,
                  QbdBlocks, RewardSpec, classify_drift,
                  deviation_matrix_diffeq, gmatrices, h0, inversion_nodes,
                  random_blocks, rate_matrices, reward_time)
from conftest import (SOLVER_TOL, functional_iteration, g_residual,
                      ghat_residual, logred_per_equation, mapph_example,
                      random_rewards, scalar_blocks, solve_g, solve_ghat,
                      unfiltered_model)

# The package attribute qbdr.gmatrices is the function of that name.
GMATRICES = sys.modules["qbdr.gmatrices"]


def scalar_g_root(lam, mu, s):
    """Minimal root of mu - (lam + mu + s) x + lam x^2, by the quadratic
    formula; the independent scalar oracle for G(s)."""
    total = lam + mu + s
    return (total - np.sqrt(total ** 2 - 4 * lam * mu)) / (2 * lam)


def test_g_scalar_closed_forms():
    blocks = scalar_blocks(1.0, 2.0, 2)
    assert solve_g(blocks, 0.0)[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert solve_ghat(blocks, 0.0)[0, 0] == pytest.approx(0.5, abs=1e-12)
    # transient counterpart
    blocks_tr = scalar_blocks(2.0, 1.0, 2)
    assert solve_g(blocks_tr, 0.0)[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert solve_ghat(blocks_tr, 0.0)[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_g_scalar_transform_value():
    blocks = scalar_blocks(1.0, 2.0, 2)
    expected = scalar_g_root(1.0, 2.0, 1.0)
    assert expected == pytest.approx(0.5857864376269049, abs=1e-15)
    assert solve_g(blocks, 1.0)[0, 0] == pytest.approx(expected, abs=1e-12)


def test_h0_scalar_values():
    blocks = scalar_blocks(1.0, 2.0, 2)
    gm = gmatrices(blocks, 0.0)
    assert gm.H0[0, 0] == pytest.approx(1.0, abs=1e-12)
    # at s=1, H0 = 1 / (4 - G(1) - 2 Ghat(1)) with the quadratic roots
    g1 = scalar_g_root(1.0, 2.0, 1.0)
    gh1 = scalar_g_root(2.0, 1.0, 1.0)  # roles of lam/mu swap for Ghat
    gm1 = gmatrices(blocks, 1.0)
    assert gm1.Ghat[0, 0] == pytest.approx(gh1, abs=1e-12)
    assert gm1.H0[0, 0] == pytest.approx(1.0 / (4.0 - g1 - 2.0 * gh1),
                                         abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("s", [0.0, 0.5, 2.0])
def test_residual_identities(seed, s):
    blocks = random_blocks(1 + seed % 4, 3, np.random.default_rng(seed))
    g = solve_g(blocks, s)
    gh = solve_ghat(blocks, s)
    assert g_residual(blocks, s, g) <= SOLVER_TOL
    assert ghat_residual(blocks, s, gh) <= SOLVER_TOL


@pytest.mark.parametrize("seed", range(4))
def test_substochastic_for_positive_s(seed):
    blocks = random_blocks(3, 3, np.random.default_rng(seed))
    for s in (0.1, 1.0, 10.0):
        gm = gmatrices(blocks, s)
        assert gm.G.min() >= 0.0 and gm.Ghat.min() >= 0.0
        assert np.all(gm.G.sum(axis=1) < 1.0)
        assert np.all(gm.Ghat.sum(axis=1) < 1.0)
        assert np.max(np.abs(np.linalg.eigvals(gm.G))) < 1.0
        assert np.max(np.abs(np.linalg.eigvals(gm.Ghat))) < 1.0


@pytest.mark.parametrize("seed", range(4))
def test_stochastic_side_matches_drift(seed):
    blocks = random_blocks(2, 3, np.random.default_rng(seed))
    gm = gmatrices(blocks, 0.0)
    tag = classify_drift(blocks).tag
    if tag is Drift.POSITIVE_RECURRENT:
        np.testing.assert_allclose(gm.G.sum(axis=1), 1.0, atol=1e-10)
    elif tag is Drift.TRANSIENT:
        np.testing.assert_allclose(gm.Ghat.sum(axis=1), 1.0, atol=1e-10)
    assert np.max(np.abs(np.linalg.eigvals(gm.G))) <= 1.0 + 1e-12
    assert np.max(np.abs(np.linalg.eigvals(gm.Ghat))) <= 1.0 + 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_g_entrywise_nonincreasing_in_s(seed):
    blocks = random_blocks(3, 3, np.random.default_rng(seed))
    grid = [solve_g(blocks, s) for s in (0.0, 0.5, 1.0, 2.0)]
    for lo, hi in zip(grid[1:], grid[:-1]):
        assert np.all(lo <= hi + 1e-11)


@pytest.mark.parametrize("seed", range(4))
def test_algorithms_agree(seed):
    blocks = random_blocks(1 + seed, 3, np.random.default_rng(seed))
    for s in (0.0, 1.0):
        g, ghat = functional_iteration(blocks, s)
        assert np.max(np.abs(solve_g(blocks, s) - g)) <= 10 * SOLVER_TOL
        assert np.max(np.abs(solve_ghat(blocks, s) - ghat)) <= 10 * SOLVER_TOL


def test_iteration_limit_carries_residual(monkeypatch):
    blocks = random_blocks(2, 3, np.random.default_rng(0))
    monkeypatch.setattr(GMATRICES, "_MAX_ITERATIONS", 2)
    with pytest.raises(IterationLimitError) as err:
        solve_g(blocks, 0.0)
    assert err.value.residual is not None and err.value.residual > 0


def test_h0_nonnegative():
    for seed in range(4):
        blocks = random_blocks(3, 3, np.random.default_rng(seed))
        for s in (0.0, 1.0):
            gm = gmatrices(blocks, s)
            assert gm.H0.min() >= -1e-13


def test_h0_null_recurrent_fails_fast():
    blocks = scalar_blocks(1.0, 1.0, 2)
    g = solve_g(blocks, 0.0)
    gh = solve_ghat(blocks, 0.0)
    # both passage matrices are stochastic on the null-recurrent boundary;
    # the root is double there and convergence linear, but the increments
    # halve each sweep, so the reduction still stops at roundoff
    assert g[0, 0] == pytest.approx(1.0, abs=1e-14)
    assert gh[0, 0] == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(AsymptoticsUndefinedError):
        h0(blocks, 0.0, g, gh)
    with pytest.raises(AsymptoticsUndefinedError):
        rate_matrices(blocks)


def test_rate_matrices_scalar_values(scalar_pr):
    r, rhat = rate_matrices(scalar_pr)
    assert r[0, 0] == pytest.approx(0.5, abs=1e-12)
    # Rhat = mu / (lam + mu - lam Ghat) with Ghat = 1/2
    assert rhat[0, 0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_rate_matrix_stable_when_positive_recurrent(seed):
    blocks = random_blocks(2, 3, np.random.default_rng(seed))
    if classify_drift(blocks).tag is not Drift.POSITIVE_RECURRENT:
        pytest.skip("transient draw")
    r, _ = rate_matrices(blocks)
    assert np.max(np.abs(np.linalg.eigvals(r))) < 1.0


def test_complex_s_residuals(scalar_pr):
    s = 0.7 + 2.1j
    g = solve_g(scalar_pr, s)
    assert abs(2.0 + (-3.0 - s) * g[0, 0] + g[0, 0] ** 2) <= 1e-12
    gm = gmatrices(scalar_pr, s)
    assert abs(gm.G[0, 0]) < 1.0


def test_solver_config_validation():
    with pytest.raises(ValueError):
        solve_g(scalar_blocks(1.0, 2.0, 2), -1.0)


@pytest.mark.parametrize("s", [np.nan, np.inf, [1.0, np.nan],
                               complex(np.inf, 1.0), complex(1.0, np.nan)],
                         ids=["nan", "inf", "array-nan", "complex-inf",
                              "complex-nan"])
def test_non_finite_s_rejected_before_solving(monkeypatch, s):
    # rejected by the argument check; the reduction is never reached
    def unsolved(*args):
        raise AssertionError("reduction started")

    monkeypatch.setattr(GMATRICES, "_logarithmic_reduction", unsolved)
    with pytest.raises(ValueError):
        gmatrices(scalar_blocks(1.0, 2.0, 2), s)


# ---------------------------------------------------------------------------
# batches of transform variables
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(4))
def test_batched_nodes_match_scalar_solves(seed):
    blocks = random_blocks(1 + seed, 5, np.random.default_rng(seed))
    nodes = inversion_nodes(2.0)
    assert nodes[0].imag == 0.0  # the real node, solved in real arithmetic
    batch = gmatrices(blocks, nodes)
    # residuals stay plain floats, the largest over the nodes
    assert type(batch.residual_G) is float
    assert type(batch.residual_Ghat) is float
    assert max(batch.residual_G, batch.residual_Ghat) <= 1e-12
    for k, s in enumerate(nodes):
        one = gmatrices(blocks, complex(s))
        for name in ("G", "Ghat", "H0"):
            ref = getattr(one, name)
            gap = np.max(np.abs(getattr(batch, name)[k] - ref))
            assert gap <= 1e-13 * np.max(np.abs(ref))


def test_one_failing_node_fails_the_batch(monkeypatch):
    # s = 0 on the null-recurrent boundary converges linearly; s = 50
    # converges within the iteration budget
    blocks = scalar_blocks(1.0, 1.0, 2)
    monkeypatch.setattr(GMATRICES, "_MAX_ITERATIONS", 8)
    assert gmatrices(blocks, 50.0).residual_G <= SOLVER_TOL
    with pytest.raises(IterationLimitError) as err:
        gmatrices(blocks, np.array([50.0, 0.0, 50.0]))
    assert err.value.residual > SOLVER_TOL


def test_failing_node_fails_the_inversion(monkeypatch):
    blocks = random_blocks(2, 4, np.random.default_rng(0))
    rewards = RewardSpec.zeros(2, 4)
    monkeypatch.setattr(GMATRICES, "_MAX_ITERATIONS", 1)
    with pytest.raises(IterationLimitError):
        reward_time(blocks, rewards, 1.0)


def test_complex_batch_needs_positive_real_parts(scalar_pr):
    with pytest.raises(ValueError):
        gmatrices(scalar_pr, np.array([1.0 + 1.0j, 0.0 + 2.0j]))


# ---------------------------------------------------------------------------
# one logarithmic reduction for G and Ghat
# ---------------------------------------------------------------------------

def _shared_reduction_cases():
    """Models with the nodes to solve them at: s = 0 (not for the
    null-recurrent queue, whose H0 is singular there), real s and the
    inversion nodes of t = 0.5 and t = 10."""
    models = [random_blocks(1 + seed % 4, 5, np.random.default_rng(seed))
              for seed in range(6)]
    models += [mapph_example(C=10), mapph_example(C=10, swapped=True)]
    grids = [np.array(0.0), np.array([0.3, 2.0, 17.0]), inversion_nodes(0.5),
             inversion_nodes(10.0)]
    return [(b, s) for b in models for s in grids]


@pytest.mark.parametrize("case", range(32))
def test_shared_reduction_matches_per_equation(case):
    blocks, s = _shared_reduction_cases()[case]
    shared = gmatrices(blocks, s)
    for value, ref in zip((shared.G, shared.Ghat),
                          logred_per_equation(blocks, s)):
        assert np.max(np.abs(value - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert max(shared.residual_G, shared.residual_Ghat) <= SOLVER_TOL


@pytest.mark.parametrize("s", [0.0, 0.05, complex(inversion_nodes(10.0)[7])],
                         ids=["zero", "real", "node"])
def test_shared_reduction_null_recurrent_scalar(s):
    # on the null-recurrent boundary both equations converge linearly at
    # s = 0
    blocks = scalar_blocks(1.0, 1.0, 2)
    g, ghat = solve_g(blocks, s), solve_ghat(blocks, s)
    for value, ref in zip((g, ghat), logred_per_equation(blocks, s)):
        assert np.max(np.abs(value - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert g_residual(blocks, s, g) <= SOLVER_TOL
    assert ghat_residual(blocks, s, ghat) <= SOLVER_TOL
    nodes = inversion_nodes(10.0)
    shared = gmatrices(blocks, nodes)
    for value, ref in zip((shared.G, shared.Ghat),
                          logred_per_equation(blocks, nodes)):
        assert np.max(np.abs(value - ref)) <= 1e-12 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# a scale-free stop
# ---------------------------------------------------------------------------

def _scaled(blocks, k):
    """The same model with every rate multiplied by k."""
    return QbdBlocks(blocks.n, blocks.C, *(
        k * getattr(blocks, name)
        for name in ("A_minus1", "A0", "A1", "B0", "C0")))


@pytest.mark.parametrize("k", [1e-6, 1.0, 1e5])
def test_residuals_independent_of_rate_scale(k):
    # the residuals of the uniformized equations, whose terms are
    # probabilities, read roundoff at every rate scale; those of
    # A_minus1 + (A0 - sI) G + A1 G^2 scale with the rates (4.8e-22 at
    # k = 1e-6 and 4.0e-11 at k = 1e5 on the same G)
    scaled = _scaled(mapph_example(C=20), k)
    for s in (0.0, k * inversion_nodes(2.0)):
        gm = gmatrices(scaled, s)
        assert max(gm.residual_G, gm.residual_Ghat) <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("model", ["queue", "7-25", "8-8"])
def test_results_independent_of_rate_scale(model):
    # G and Ghat do not change when every rate is multiplied by k, D
    # divides by k and R_kQ(t / k) = R_Q(t) / k; so the reduction's stop
    # must not depend on the units of the rates.
    blocks = (mapph_example(C=20) if model == "queue"
              else unfiltered_model(*map(int, model.split("-"))))
    rewards = random_rewards(blocks)
    times = np.array([0.5, 2.0, 7.0])
    dev, reward = (deviation_matrix_diffeq(blocks),
                   reward_time(blocks, rewards, times))
    for k in (1e-6, 1e-3, 1e3, 1e4, 1e5):
        scaled = _scaled(blocks, k)
        for value, ref in ((k * deviation_matrix_diffeq(scaled), dev),
                           (k * reward_time(scaled, rewards, times / k),
                            reward)):
            assert np.max(np.abs(value - ref)) <= 1e-12 * np.max(np.abs(ref))
