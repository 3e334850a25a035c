"""End-to-end acceptance checklist.

One test per criterion; each prints a PASS/FAIL line (visible with
``pytest tests/test_acceptance.py -v -s``) and asserts the stated
tolerance.  The random-model grids are fixed by seeds so every run checks
the same models.
"""

import time

import numpy as np

from qbdr import (Drift, RewardSpec, assemble_generator, classify_drift,
                  deviation_matrix_diffeq, deviation_recursive,
                  deviation_time, deviation_transform,
                  deviation_transform_block, gmatrices, lost_revenue_rewards,
                  oracle_deviation, oracle_reward, oracle_stationary,
                  oracle_transient_deviation, passage_column, random_blocks,
                  reward_time, reward_transform, run_bench,
                  stationary_rmatrix, transform_context)
from qbdr.passage import passage_level_matrices
from conftest import (censored_generator, censored_passage_generator,
                      dense_deviation_transform, dense_reward_transform,
                      gth_passage, mapph_example,
                      passage_z_factor, passage_z_matrix, random_rewards,
                      scalar_blocks)


def report(name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def model_grid(count, max_n, max_c, seed=0, min_drift=0.05):
    """Seeded random models, every draw kept: the routes must meet their
    tolerances on each, not only on well-conditioned ones."""
    out = []
    for i in range(count):
        n, c = 1 + i % max_n, 1 + (3 + 7 * i) % max_c
        rng = np.random.default_rng([seed, i, 0])
        out.append(random_blocks(n, c, rng, min_drift=min_drift))
    return out


def identity_residual(q, pi, dev):
    size = q.shape[0]
    return max(
        np.max(np.abs(q @ dev - (np.outer(np.ones(size), pi) - np.eye(size)))),
        np.max(np.abs(pi @ dev)),
        np.max(np.abs(dev @ np.ones(size))),
    )


def test_criterion_1_defining_equation_suite():
    start = time.monotonic()
    worst_identity = 0.0
    worst_pair = 0.0
    for blocks in model_grid(50, max_n=4, max_c=20):
        q = assemble_generator(blocks)
        pi = oracle_stationary(q)
        candidates = {
            "perturbation": deviation_recursive(blocks).dev,
            "difference": deviation_matrix_diffeq(blocks),
            "oracle": oracle_deviation(q, pi),
        }
        for dev in candidates.values():
            worst_identity = max(worst_identity,
                                 identity_residual(q, pi, dev))
        names = list(candidates)
        scale = np.linalg.norm(candidates["oracle"])
        for a in range(len(names)):
            for b in range(a + 1, len(names)):
                gap = np.linalg.norm(candidates[names[a]]
                                     - candidates[names[b]]) / scale
                worst_pair = max(worst_pair, gap)
    elapsed = time.monotonic() - start
    report("criterion 1: three-way deviation agreement on 50 models",
           worst_identity <= 1e-8 and worst_pair <= 1e-8 and elapsed <= 120,
           f"identity {worst_identity:.2e}, pairwise {worst_pair:.2e}, "
           f"{elapsed:.1f}s")


def test_criterion_2_transform_equivalence():
    start = time.monotonic()
    worst_dev = 0.0
    worst_reward = 0.0
    for blocks in model_grid(50, max_n=4, max_c=20):
        q = assemble_generator(blocks)
        pi = stationary_rmatrix(blocks)
        rewards = random_rewards(blocks)
        for s in (0.1, 1.0, 10.0):
            ctx = transform_context(blocks, s)
            assembled = deviation_transform(ctx, pi)
            dense = dense_deviation_transform(q, pi.stacked(), s)
            worst_dev = max(worst_dev, np.linalg.norm(assembled - dense)
                            / np.linalg.norm(dense))
            parts = np.concatenate(reward_transform(ctx, rewards))
            dense_r = dense_reward_transform(q, rewards.stacked(), s)
            worst_reward = max(worst_reward,
                               np.linalg.norm(parts - dense_r)
                               / max(np.linalg.norm(dense_r), 1e-300))
    elapsed = time.monotonic() - start
    report("criterion 2: transform blocks match dense resolvent",
           worst_dev <= 1e-8 and worst_reward <= 1e-8 and elapsed <= 120,
           f"deviation {worst_dev:.2e}, reward {worst_reward:.2e}, "
           f"{elapsed:.1f}s")


def test_criterion_3_transient_consistency():
    worst_dev = 0.0
    worst_reward = 0.0
    worst_fd = 0.0
    for blocks in model_grid(10, max_n=3, max_c=4, seed=5):
        q = assemble_generator(blocks)
        pi = stationary_rmatrix(blocks)
        rewards = random_rewards(blocks)
        g = rewards.stacked()
        for t in (0.1, 1.0, 10.0):
            inv_dev = deviation_time(blocks, t, pi)
            quad = oracle_transient_deviation(q, pi.stacked(), t)
            worst_dev = max(worst_dev, np.max(np.abs(inv_dev - quad)))
            inv_r = reward_time(blocks, rewards, t)
            ode = oracle_reward(q, g, t)
            worst_reward = max(worst_reward, np.max(np.abs(inv_r - ode)))
        h = 1e-4
        derivative = (reward_time(blocks, rewards, 1.0 + h)
                      - reward_time(blocks, rewards, 1.0 - h)) / (2 * h)
        rhs = q @ reward_time(blocks, rewards, 1.0) + g
        worst_fd = max(worst_fd, np.max(np.abs(derivative - rhs)))
    report("criterion 3: transient values agree across independent routes",
           worst_dev <= 1e-5 and worst_reward <= 1e-5 and worst_fd <= 1e-3,
           f"D(t) {worst_dev:.2e}, R(t) {worst_reward:.2e}, "
           f"derivative {worst_fd:.2e}")


def test_criterion_4_first_passage_suite():
    worst_col = 0.0
    worst_factor = 0.0
    diag_ok = True
    cases = [(1, 4, 0), (2, 5, 1), (3, 8, 2), (2, 8, 3), (3, 6, 4)]
    for n, c, seed in cases:
        blocks = random_blocks(n, c, np.random.default_rng([10, seed, 0]),
                               min_drift=0.05)
        q = assemble_generator(blocks)
        gm = gmatrices(blocks)
        for level in range(c + 1):
            mats = passage_level_matrices(blocks, level)
            diag_ok &= not np.diag(mats[level]).any()
            for j in range(n):
                col = passage_column(blocks, level, j)
                reference = gth_passage(q, [level * n + j])[:, 0]
                worst_col = max(worst_col,
                                np.max(np.abs(col.stacked() - reference)))
                z = passage_z_matrix(blocks, level, j, gm)
                ring = censored_passage_generator(blocks, level, j)
                factor = passage_z_factor(blocks, level, gm)
                worst_factor = max(worst_factor,
                                   np.max(np.abs(z - ring @ factor)))
    report("criterion 4: passage columns, zero diagonals, factorizations",
           worst_col <= 1e-8 and diag_ok and worst_factor <= 1e-10,
           f"column {worst_col:.2e}, factorization {worst_factor:.2e}")


def test_criterion_5_closed_form_anchors():
    blocks = scalar_blocks(1.0, 2.0, 2)
    gm = gmatrices(blocks)
    pi = stationary_rmatrix(blocks).stacked()
    two_state = scalar_blocks(1.0, 1.0, 1)
    two_state = type(two_state)(n=1, C=1, A_minus1=[[1.0]], A0=[[-2.0]],
                                A1=[[1.0]], B0=[[-1.0]], C0=[[-1.0]])
    dev = deviation_recursive(two_state).dev
    gaps = [
        abs(gm.G[0, 0] - 1.0),
        abs(gm.Ghat[0, 0] - 0.5),
        abs(gm.H0[0, 0] - 1.0),
        np.max(np.abs(pi - np.array([4 / 7, 2 / 7, 1 / 7]))),
        np.max(np.abs(dev - np.array([[0.25, -0.25], [-0.25, 0.25]]))),
    ]
    worst = max(gaps)
    report("criterion 5: closed-form anchors exact",
           worst <= 1e-12, f"worst gap {worst:.2e}")


def test_criterion_6_queue_example_reproduction():
    start = time.monotonic()
    high = mapph_example(C=5)
    low = mapph_example(C=5, swapped=True)
    is_high_blocking = classify_drift(high).tag is Drift.TRANSIENT

    def level_values(blocks, t):
        rewards = lost_revenue_rewards(blocks, 1.0)
        alpha = classify_drift(blocks).alpha
        full = reward_time(blocks, rewards, t)
        return np.array([alpha @ full[k * 4:(k + 1) * 4] for k in range(6)])

    at_one = level_values(high, 1.0)
    nondecreasing = bool(np.all(np.diff(at_one) >= -1e-9))
    high_five = level_values(high, 5.0)
    low_five = level_values(low, 5.0)
    dominated = bool(np.all(low_five < high_five))

    rewards = lost_revenue_rewards(high, 1.0)
    q = assemble_generator(high)
    pi = oracle_stationary(q)
    rate = pi @ rewards.stacked()
    slope = (reward_time(high, rewards, 60.0)
             - reward_time(high, rewards, 50.0)) / 10.0
    slope_gap = np.max(np.abs(slope - rate)) / rate
    elapsed = time.monotonic() - start
    report("criterion 6: queue example reproduces the reported behaviour",
           is_high_blocking and nondecreasing and dominated
           and slope_gap <= 1e-4 and elapsed <= 60,
           f"slope gap {slope_gap:.2e}, {elapsed:.1f}s")


def test_criterion_7_benchmark_shape():
    c_grid = [5, 10, 20, 40, 60, 80, 100]
    records = run_bench(range(2, 6), c_grid, reps=3, seed=1)
    times = {}
    for rec in records:
        times.setdefault((rec.method, rec.n), {})[rec.C] = \
            max(rec.median_scaled_cpu_seconds, 1e-7)
    slopes_ok = True
    excess_ok = True
    crossover_ok = True
    details = []
    for n in range(2, 6):
        diff = times[("DifferenceEq", n)]
        pert = times[("Perturbation", n)]

        def slope(series, c_min):
            cs = [c for c in c_grid if c >= c_min]
            return np.polyfit(np.log([c for c in cs]),
                              np.log([series[c] for c in cs]), 1)[0]

        diff_slope = slope(diff, 20)
        pert_slope = slope(pert, 40)
        slopes_ok &= 0.5 <= diff_slope <= 1.5
        excess_ok &= pert_slope >= slope(diff, 40) + 0.5
        gaps = [pert[c] - diff[c] for c in c_grid]
        crossover_ok &= gaps[0] < 0 < gaps[-1]
        details.append(f"n={n}: diff {diff_slope:.2f}, pert {pert_slope:.2f}")
    report("criterion 7: benchmark scaling shape and crossover",
           slopes_ok and excess_ok and crossover_ok, "; ".join(details))


def test_criterion_8_large_capacity_limits():
    # the unbounded reference censors the levels above 5 into the top
    # block A0 + A1 G(s); its stationary rows are (1 - rho) rho^l, or zero
    # for a transient process
    worst = 0.0
    s = 1.0
    g = np.array([0.4, 1.0, 0.7, 0.0, 0.0, 0.0])
    for lam, mu in ((1.0, 2.0), (2.0, 1.0)):
        big = scalar_blocks(lam, mu, 200)
        ctx = transform_context(big, s)
        pi_big = stationary_rmatrix(big)
        rho = lam / mu
        pi = (1 - rho) * rho ** np.arange(6) if rho < 1 else np.zeros(6)
        q = censored_generator(scalar_blocks(lam, mu, 5), s, 5)
        reward, dev = (dense_reward_transform(q, g, s),
                       dense_deviation_transform(q, pi, s))
        rewards = RewardSpec(g=tuple(np.array([v]) for v in g)
                             + (np.array([0.0]),) * 195)
        finite_reward = reward_transform(ctx, rewards)
        for k in range(6):
            worst = max(worst, abs(reward[k] - finite_reward[k, 0]))
            for level in range(6):
                fin = deviation_transform_block(ctx, pi_big, k, level)
                worst = max(worst, abs(dev[k, level] - fin[0, 0]))
    report("criterion 8: capacity limits match the unbounded formulas",
           worst <= 1e-6, f"worst gap {worst:.2e}")
