"""Shared models and dense reference formulas for the test suite."""

from fractions import Fraction

import numpy as np
import pytest

from qbdr import (MapParams, PhParams, QbdBlocks, assemble_generator,
                  build_blocks, gmatrices, random_blocks)
from qbdr.diffeq import BoundarySystem, particular
from qbdr.gmatrices import _check_s, _solve_pair
from qbdr.linalg import matrix_powers, solve_refined


def censor_generator(q, keep):
    """Censor a (possibly non-conservative) generator onto a subset of states.

    Watching the process only while it visits ``keep`` gives the generator
    ``Q_kk + Q_kd (-Q_dd)^{-1} Q_dk`` where ``d`` are the censored states.

    Parameters
    ----------
    q : (m, m) ndarray
        Generator, may be complex and may leak probability mass.
    keep : array_like of int
        State indices to keep, in the order they should appear.

    Returns
    -------
    (len(keep), len(keep)) ndarray.
    """
    keep = np.asarray(keep, dtype=int)
    m = q.shape[0]
    drop = np.setdiff1d(np.arange(m), keep)
    qkk = q[np.ix_(keep, keep)]
    if drop.size == 0:
        return qkk.copy()
    qkd = q[np.ix_(keep, drop)]
    qdd = q[np.ix_(drop, drop)]
    qdk = q[np.ix_(drop, keep)]
    return qkk + qkd @ np.linalg.solve(-qdd, qdk)


def scalar_blocks(lam, mu, C):
    """Birth-death queue with arrival rate lam and service rate mu."""
    return QbdBlocks(n=1, C=C, A_minus1=[[mu]], A0=[[-lam - mu]],
                     A1=[[lam]], B0=[[-lam]], C0=[[-mu]])


@pytest.fixture
def scalar_pr():
    """Positive recurrent scalar model: lam=1, mu=2, C=2."""
    return scalar_blocks(1.0, 2.0, 2)


@pytest.fixture
def scalar_tr():
    """Transient scalar model: lam=2, mu=1, C=2."""
    return scalar_blocks(2.0, 1.0, 2)


@pytest.fixture
def two_state():
    """Symmetric two-state chain as a C=1 QBD with unit rates."""
    return QbdBlocks(n=1, C=1, A_minus1=[[1.0]], A0=[[-2.0]], A1=[[1.0]],
                     B0=[[-1.0]], C0=[[-1.0]])


def mapph_example(C=5, swapped=False):
    """The MAP/PH/1/C example: PH-renewal arrivals, PH services.

    ``swapped=True`` exchanges the arrival and service distributions,
    turning the high-blocking system into a low-blocking one.
    """
    arr_tau = np.array([0.8, 0.2])
    arr_T = np.array([[-10.0, 2.0], [1.0, -6.0]])
    srv_tau = np.array([0.4, 0.6])
    srv_T = np.array([[-3.0, 2.0], [1.0, -4.0]])
    if swapped:
        arr_tau, srv_tau = srv_tau, arr_tau
        arr_T, srv_T = srv_T, arr_T
    d1 = np.outer(-arr_T @ np.ones(2), arr_tau)
    map_params = MapParams(D0=arr_T, D1=d1)
    ph_params = PhParams(tau=srv_tau, T=srv_T)
    return build_blocks(map_params, ph_params, C)


@pytest.fixture
def mapph_high():
    return mapph_example()


@pytest.fixture
def mapph_low():
    return mapph_example(swapped=True)


def seeded_models(count, max_n=4, max_c=20, min_drift=0.05, seed=0):
    """Deterministic list of random ergodic models covering the size grid."""
    out = []
    for i in range(count):
        rng = np.random.default_rng([seed, i])
        n = 1 + i % max_n
        c = 1 + (3 + 7 * i) % max_c
        out.append(random_blocks(n, c, rng, min_drift=min_drift))
    return out


def unfiltered_model(seed, i):
    """Model i of an unfiltered draw: n = 1..4 and C = 3..82 cycle with i,
    and only the drift bound filters the rates."""
    return random_blocks(1 + i % 4, 3 + (7 * i) % 80,
                         np.random.default_rng([seed, i]), min_drift=0.05)


# The 100 unfiltered models: i < 60 at seed 7 and i < 40 at seed 8.
UNFILTERED = [(7, i) for i in range(60)] + [(8, i) for i in range(40)]


def _gth_censor(a, b, stop):
    """Censor the states len(a) - 1 down to ``stop`` out of the rates
    ``a`` (only its off-diagonal entries are read) and the times ``b``, in
    place, as GTH elimination does (Grassmann, Taksar & Heyman 1985): each
    pivot is the sum of the rates to the states left, never a difference.
    Returns the pivots of the states stop..len(a) - 1."""
    pivots = np.empty(len(a) - stop)
    for k in range(len(a) - 1, stop - 1, -1):
        pivots[k - stop] = a[k, :k].sum()
        f = a[:k, k] / pivots[k - stop]
        a[:k, :k] += np.outer(f, a[k, :k])
        b[:k] += f * b[k]
    return pivots


def _gth_climb(a, b, pivots, m, stop):
    """Back-substitute the times m[stop:] after :func:`_gth_censor`."""
    for k in range(stop, len(a)):
        m[k] = (b[k] + a[k, :k] @ m[:k]) / pivots[k - stop]


def gth_stationary(q):
    """pi of the generator ``q`` by dense GTH elimination, to entrywise
    relative accuracy."""
    a = np.array(q, dtype=float)
    pivots = _gth_censor(a, np.zeros(len(a)), 1)
    pi = np.zeros(len(a))
    pi[0] = 1.0
    for k in range(1, len(a)):
        pi[k] = pi[:k] @ a[:k, k] / pivots[k - 1]
    return pi / pi.sum()


def gth_passage(q, targets):
    """Mean first passage times to each state of ``targets``, one column
    per target, by dense subtraction-free elimination of -Q m = 1 off the
    target.  The other states are censored out once for all targets; each
    target then censors the rest of ``targets`` in its own copy."""
    t = len(targets)
    perm = np.concatenate([targets, np.setdiff1d(np.arange(len(q)),
                                                 targets)])
    a = np.asarray(q, dtype=float)[np.ix_(perm, perm)]
    b = np.ones(len(a))
    pivots = _gth_censor(a, b, t)
    m = np.zeros((len(a), t))
    for i in range(t):
        order = [i] + [x for x in range(t) if x != i]
        small_a, small_b = a[np.ix_(order, order)], b[order]
        column = np.zeros(t)
        _gth_climb(small_a, small_b, _gth_censor(small_a, small_b, 1),
                   column, 1)
        m[order, i] = column
    _gth_climb(a, b, pivots, m, t)
    out = np.empty_like(m)
    out[perm] = m
    return out


def exact_generator(q):
    """The generator ``q`` in exact rationals, each float read exactly and
    each diagonal entry minus the exact sum of its row's off-diagonal
    rates, as the GTH references read it."""
    rows = [[Fraction(v) for v in row]
            for row in np.asarray(q, dtype=float).tolist()]
    for i, row in enumerate(rows):
        row[i] = -sum(v for j, v in enumerate(row) if j != i)
    return rows


def exact_solve(a, b):
    """x with a x = b in exact rational arithmetic, for a list of rows
    ``a`` and a list ``b``; x is a list of Fractions."""
    rows = [list(row) + [Fraction(r)] for row, r in zip(a, b)]
    size = len(rows)
    for k in range(size):
        pivot = next(i for i in range(k, size) if rows[i][k] != 0)
        rows[k], rows[pivot] = rows[pivot], rows[k]
        for i in range(size):
            if i != k and rows[i][k] != 0:
                f = rows[i][k] / rows[k][k]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    return [rows[k][size] / rows[k][k] for k in range(size)]


def random_rewards(blocks, seed=0):
    rng = np.random.default_rng([seed, blocks.n, blocks.C])
    return rng.uniform(0.0, 2.0, (blocks.C + 1, blocks.n))


def nu_k(ctx, rewards, k):
    """Particular solution block at one s, term by term: the reward
    collected before leaving the neighbourhood of level k, transform domain.

    nu_k(s, C) = sum_{j=0}^{k-1} G^j H0 g_{k-j}(s)
               + sum_{j=1}^{C-k} Ghat^j H0 g_{k+j}(s),  empty sums zero.
    """
    C = ctx.blocks.C
    if not 0 <= k <= C:
        raise ValueError(f"level {k} out of range 0..{C}")
    atoms = [ctx.gmat.H0 @ g / ctx.s for g in rewards]
    powers_G = matrix_powers(ctx.gmat.G, C)
    powers_Ghat = matrix_powers(ctx.gmat.Ghat, C)
    out = np.zeros(ctx.blocks.n, dtype=atoms[0].dtype)
    for j in range(0, k):
        out = out + powers_G[j] @ atoms[k - j]
    for j in range(1, C - k + 1):
        out = out + powers_Ghat[j] @ atoms[k + j]
    return out


def z_matrix(ctx):
    """The 2n x 2n boundary matrix Z(s, C) pinning the free vectors of a
    transform context."""
    zero = np.zeros((ctx.blocks.C + 1, ctx.blocks.n, 1))
    return BoundarySystem(ctx.blocks, ctx.gmat, zero).matrix


def censored_boundary_generator(blocks, s):
    """Generator of the rate-s-killed QBD watched on levels 0 and C only.

    Z(s, C) factors as this matrix times [[I, Ghat^C], [G^C, I]]; the
    factorization backs the invertibility of Z for s > 0.
    """
    n, C = blocks.n, blocks.C
    s = complex(s) if complex(s).imag else float(np.real(s))
    full = assemble_generator(blocks)
    full = full - s * np.eye(n * (C + 1))
    keep = list(range(n)) + list(range(C * n, (C + 1) * n))
    return censor_generator(full, keep)


def mu_k(blocks, gmat, k):
    """Particular passage term mu_k(C) = sum G^j H0 1 + sum Ghat^j H0 1,
    term by term."""
    C = blocks.C
    if not 0 <= k <= C:
        raise ValueError(f"level {k} out of range 0..{C}")
    h = gmat.H0 @ np.ones(blocks.n)
    out = np.zeros(blocks.n)
    gpow = np.eye(blocks.n)
    for _ in range(k):
        out = out + gpow @ h
        gpow = gpow @ gmat.G
    ghpow = gmat.Ghat.copy()
    for _ in range(1, C - k + 1):
        out = out + ghpow @ h
        ghpow = ghpow @ gmat.Ghat
    return out


def passage_segments(C, level):
    """Runs of the levels 0..C split after a pinned level inside them, so
    that it sits at a run end."""
    if level in (0, C):
        return [(0, C)]
    return [(0, level), (level + 1, C)]


def passage_level_set(blocks, level):
    """Levels on which the passage boundary system for a target level
    lives."""
    return sorted({lv for run in passage_segments(blocks.C, level)
                   for lv in run})


def boundary_matrix(blocks, r, rhat):
    """The 2n x 2n homogeneous system whose left kernel (v0, vC) gives the
    matrix-geometric form pi_k = v0 R^k + vC Rhat^{C-k} of the
    stationary rows."""
    C = blocks.C
    r_pow = np.linalg.matrix_power(r, C - 1)
    rhat_pow = np.linalg.matrix_power(rhat, C - 1)
    top = np.hstack([blocks.B0 + r @ blocks.A_minus1,
                     r_pow @ (r @ blocks.C0 + blocks.A1)])
    bottom = np.hstack([rhat_pow @ (rhat @ blocks.B0 + blocks.A_minus1),
                        blocks.C0 + rhat @ blocks.A1])
    return np.vstack([top, bottom])


def censored_passage_generator(blocks, level, j):
    """The pinned generator, whose target-state row is -e^T, censored onto
    :func:`passage_level_set`.

    This is the generator factor of the stated Z^(j) matrices; the tests
    use it to confirm the factorization.
    """
    n = blocks.n
    q = assemble_generator(blocks)
    idx = level * n + j
    q[idx, :] = 0.0
    q[idx, idx] = -1.0
    keep = []
    for lv in passage_level_set(blocks, level):
        keep.extend(range(lv * n, (lv + 1) * n))
    return censor_generator(q, keep)


def _bare_passage_system(blocks, level, gmat):
    """The passage boundary system without particular term or forcing."""
    zero = np.zeros((blocks.C + 1, blocks.n, 1))
    return StackedBoundarySystem(blocks, gmat, zero,
                                 segments=passage_segments(blocks.C, level))


def passage_z_matrix(blocks, level, j, gmat):
    """The boundary system matrix Z^(j) for one target state."""
    return _bare_passage_system(blocks, level, gmat).pinned((level, j))[0]


def passage_z_factor(blocks, level, gmat):
    """The power-matrix factor linking Z^(j) to the censored generator."""
    return _bare_passage_system(blocks, level, gmat).end_map()


class StackedBoundarySystem:
    """The paper's boundary system: the level equations at the ends of the
    runs (a, b) of ``segments`` (default: one run 0..C), in the free
    vectors of every run, with every power of G and Ghat read from the
    sequential stacks 0..top (top the last level of ``f``) and the
    solution evaluated level by level as x_k = G^{k-a} v + Ghat^{b-k} w
    + p_k; a run of one level keeps only v.  ``f``, ``divisor`` and the
    particular term p are as in :class:`qbdr.diffeq.BoundarySystem`.

    With one run it is the reference for the squared end powers and the
    sweeps of that kernel.  At s = 0 the level equations are singular: a
    pin (level, j) replaces the row of state (level, j) by
    -x_(level, j) = 0, and the runs split at ``level`` give the paper's
    systems for passage times and for D (:func:`pinned_deviation_matrix`).
    """

    def __init__(self, blocks, gmat, f, divisor=1.0, segments=None):
        n = blocks.n
        self.blocks = blocks
        self.segments = segments or [(0, blocks.C)]
        self.ends = sorted({lv for run in self.segments for lv in run})
        f = np.asarray(f)
        self.stacks = tuple(matrix_powers(np.asarray(g), len(f) - 1)
                            for g in (gmat.G, gmat.Ghat))
        self._batch = (slice(None),) * (self.stacks[0].ndim - 3)
        self._shift = np.asarray(gmat.s)[..., None, None] * np.eye(n)
        widths = [n if b == a else 2 * n for a, b in self.segments]
        self._starts = np.cumsum([0] + widths[:-1])
        self._width = sum(widths)
        atoms = np.array([-gmat.H0 @ level for level in f]) / divisor
        self.p = particular(gmat.G, gmat.Ghat, atoms)
        rows, rhs = [], []
        for level in self.ends:
            terms = self._terms(level)
            rows.append(self._rows(terms))
            rhs.append(f[level] / divisor
                       - sum(block @ self.p[k] for k, block in terms))
        self.matrix = np.concatenate(rows, axis=-2)
        self.rhs = np.concatenate(rhs, axis=len(self._batch))

    def _terms(self, level):
        b, top = self.blocks, self.segments[-1][1]
        local = (b.B0 if level == 0 else b.C0 if level == top else b.A0)
        terms = [(level, local - self._shift)]
        if level > 0:
            terms.insert(0, (level - 1, b.A_minus1))
        if level != top:
            terms.append((level + 1, b.A1))
        return terms

    def _rows(self, terms):
        """The coefficients of the free vectors in sum_k B_k (x_k - p_k),
        with the power each run's terms share factored out, as the kernel
        does."""
        gp, ghp = self.stacks
        n = self.blocks.n
        out = np.zeros(gp.shape[1:-1] + (self._width,),
                       dtype=np.result_type(gp, ghp, self._shift))
        for (a, b), c in zip(self.segments, self._starts):
            part = [(k, blk) for k, blk in terms if a <= k <= b]
            if not part:
                continue
            lo, hi = part[0][0], part[-1][0]
            out[..., c:c + n] = sum(
                blk @ gp[k - lo] for k, blk in part) @ gp[lo - a]
            if b != a:
                out[..., c + n:c + 2 * n] = sum(
                    blk @ ghp[hi - k] for k, blk in part) @ ghp[b - hi]
        return out

    def pinned(self, pin=None):
        """The system matrix and right-hand side, with the row of
        ``pin`` = (level, j) replaced by -x_(level, j) = 0."""
        if pin is None:
            return self.matrix, self.rhs
        level, j = pin
        n = self.blocks.n
        row = self.ends.index(level) * n + j
        matrix, rhs = self.matrix.copy(), self.rhs.copy()
        barred = [(k, -np.eye(n) if k == level else np.zeros((n, n)))
                  for k, _ in self._terms(level)]
        matrix[..., row, :] = self._rows(barred)[..., j, :]
        rhs[self._batch + (row,)] = self.p[level][self._batch + (j,)]
        return matrix, rhs

    def end_map(self):
        """The matrix taking the free vectors to x_k - p_k at the run
        ends; the system matrix is the censored level equations times it."""
        eye = np.eye(self.blocks.n)
        return np.concatenate([self._rows([(level, eye)])
                               for level in self.ends], axis=-2)

    def free_vectors(self, pin=None):
        return solve_refined(*self.pinned(pin))

    def solve(self, pin=None, level=None):
        """The solution at every level, or at ``level`` only."""
        u = self.free_vectors(pin)
        if level is not None:
            eye = np.eye(self.blocks.n)
            return self._rows([(level, eye)]) @ u + self.p[level]
        gp, ghp = self.stacks
        n = self.blocks.n
        out = np.empty(self.p.shape, dtype=np.result_type(gp, u, self.p))
        for (a, b), c in zip(self.segments, self._starts):
            v = u[self._batch + (slice(c, c + n),)]
            if b == a:
                out[a] = v + self.p[a]
                continue
            w = u[self._batch + (slice(c + n, c + 2 * n),)]
            for k in range(a, b + 1):
                out[k] = gp[k - a] @ v + ghp[b - k] @ w + self.p[k]
        return out


def pinned_deviation_matrix(blocks, pi):
    """The paper's s = 0 route to D: Q d = 1 pi - I through G(0), Ghat(0)
    and H0, on the runs split at the level of the most probable state r,
    whose equation gives way to the pin d_r = 0, then centred by pi."""
    n, C = blocks.n, blocks.C
    row = np.concatenate([np.asarray(pi[k]) for k in range(C + 1)])
    force = np.outer(np.ones(row.size), row) - np.eye(row.size)
    level, j = divmod(int(np.argmax(row)), n)
    system = StackedBoundarySystem(blocks, gmatrices(blocks),
                                   force.reshape(C + 1, n, row.size),
                                   segments=passage_segments(C, level))
    d = system.solve((level, j)).reshape(row.size, row.size)
    return d - row @ d


def pinned_passage_matrices(blocks, level):
    """The paper's s = 0 route to the passage times to every phase of
    ``level``, stacked as :func:`qbdr.passage_level_matrices` stacks them:
    Q m = -1 on the runs split at ``level``, pinned at each target."""
    n, C = blocks.n, blocks.C
    system = StackedBoundarySystem(blocks, gmatrices(blocks),
                                   np.full((C + 1, n, 1), -1.0),
                                   segments=passage_segments(C, level))
    return np.concatenate([system.solve((level, j)) for j in range(n)],
                          axis=-1)


def t_generator(blocks, capacity):
    """T(capacity): the generator of capacity-1 over a transient top level
    with A_minus1 down and C0 local."""
    n = blocks.n
    size = n * (capacity + 1)
    t = np.zeros((size, size))
    t[:size - n, :size - n] = assemble_generator(
        blocks.with_capacity(capacity - 1))
    t[size - n:, size - 2 * n:size - n] = blocks.A_minus1
    t[size - n:, size - n:] = blocks.C0
    return t


def dense_reward_transform(q, g, s):
    """Resolvent form of the transformed reward: (sI - Q)^{-1} g / s."""
    size = q.shape[0]
    return np.linalg.solve(s * np.eye(size) - q, g / s)


def censored_generator(blocks, s, top):
    """The upper-unbounded QBD on levels 0..top, with the levels above top
    censored out of the process killed at rate s: the top block becomes
    A0 + A1 G(s) (Latouche & Ramaswami 1999).  Its resolvent
    (sI - Q)^{-1} is that of the unbounded process on the levels 0..top."""
    n = blocks.n
    q = assemble_generator(blocks.with_capacity(top))
    top_block = blocks.A0 + blocks.A1 @ gmatrices(blocks, s).G
    q = q.astype(np.result_type(q, top_block))
    q[-n:, -n:] = top_block
    return q


def dense_deviation_transform(q, pi, s):
    """(1/s)(sI - Q)^{-1} - (1/s^2) 1 pi."""
    size = q.shape[0]
    return (np.linalg.inv(s * np.eye(size) - q) / s
            - np.outer(np.ones(size), pi) / s ** 2)


def full_sweep_particular(g, ghat, atoms):
    """:func:`qbdr.diffeq.particular` as it was before it skipped zero
    atoms: both sweeps over every level."""
    atoms = np.asarray(atoms)
    down = np.zeros(atoms.shape, dtype=np.result_type(g, ghat, atoms))
    up = np.zeros_like(down)
    for k in range(1, len(atoms)):
        down[k] = g @ down[k - 1] + atoms[k]
    for k in range(len(atoms) - 2, -1, -1):
        up[k] = ghat @ (up[k + 1] + atoms[k + 1])
    return down + up


# The stopping rule of qbdr.gmatrices: a sweep's increment relative to the
# largest entry of the sum, and the sweep budget.  SOLVER_TOL is the
# defining-equation residual that the tests ask of a solution at unit rate
# scale, and the stop of the functional-iteration reference.
SOLVER_INCREMENT_TOL = 4 * np.finfo(float).eps
SOLVER_TOL = 1e-12
SOLVER_MAX_ITERATIONS = 100_000


def solve_g(blocks, s=0.0):
    """G(s) alone from :mod:`qbdr.gmatrices`' shared reduction, without
    H0, so also at s = 0 on the null-recurrent boundary."""
    return _solve_pair(blocks, _check_s(s))[0][0]


def solve_ghat(blocks, s=0.0):
    """Ghat(s) alone, as :func:`solve_g`."""
    return _solve_pair(blocks, _check_s(s))[0][1]


def g_residual(blocks, s, g):
    """Max-norm residual of A_minus1 + (A0 - sI) G + A1 G^2."""
    shifted = blocks.A0 - s * np.eye(blocks.n)
    return float(np.max(np.abs(
        blocks.A_minus1 + shifted @ g + blocks.A1 @ g @ g)))


def ghat_residual(blocks, s, ghat):
    """Max-norm residual of A1 + (A0 - sI) Ghat + A_minus1 Ghat^2."""
    shifted = blocks.A0 - s * np.eye(blocks.n)
    return float(np.max(np.abs(
        blocks.A1 + shifted @ ghat + blocks.A_minus1 @ ghat @ ghat)))


def functional_iteration(blocks, s):
    """G(s) and Ghat(s) at one real s by plain functional iteration from
    the zero matrix, one equation at a time: X <- b_down + b_up X^2 with
    the one-step kernels of the uniformized jump chain, swapped for Ghat,
    until the defining-equation residual meets SOLVER_TOL.  Linearly
    convergent: the independent reference for the logarithmic reduction
    of :func:`qbdr.gmatrices.gmatrices`."""
    shifted = s * np.eye(blocks.n) - blocks.A0
    out = []
    for down, up in ((blocks.A_minus1, blocks.A1),
                     (blocks.A1, blocks.A_minus1)):
        low = np.linalg.solve(shifted, down)
        high = np.linalg.solve(shifted, up)
        x = np.zeros_like(low)
        for _ in range(SOLVER_MAX_ITERATIONS):
            if np.max(np.abs(down - shifted @ x + up @ x @ x)) <= SOLVER_TOL:
                break
            x = low + high @ (x @ x)
        else:
            raise AssertionError("functional iteration did not converge")
        out.append(x)
    return out


def _logred_one_equation(b_down, b_up):
    """Logarithmic reduction of X = b_down + b_up X^2 alone, one stack of
    nodes, each leaving once its increment is at most SOLVER_INCREMENT_TOL
    times its largest entry."""
    eye = np.eye(b_down.shape[-1])
    x_out = np.empty_like(b_down)
    nodes = np.arange(len(b_down))
    low, high = b_down, b_up
    x, trail = low, high
    for _ in range(SOLVER_MAX_ITERATIONS):
        mix = high @ low + low @ high
        factor = np.linalg.inv(eye - mix)
        high = factor @ (high @ high)
        low = factor @ (low @ low)
        step = trail @ low
        x = x + step
        trail = trail @ high
        assert np.isfinite(x).all()
        done = (np.max(np.abs(step), axis=(1, 2))
                <= SOLVER_INCREMENT_TOL * np.max(np.abs(x), axis=(1, 2)))
        x_out[nodes[done]] = x[done]
        keep = ~done
        if not keep.any():
            return x_out
        nodes, low, high, x, trail = (
            a[keep] for a in (nodes, low, high, x, trail))
    raise AssertionError("logarithmic reduction did not settle")


def logred_per_equation(blocks, s):
    """G(s) and Ghat(s) at every node of ``s``, each equation by its own
    logarithmic reduction: the reference for the shared reduction of
    :func:`qbdr.gmatrices.gmatrices`."""
    s = np.asarray(s)
    nodes = s.reshape(-1)
    shifted = nodes[:, None, None] * np.eye(blocks.n) - blocks.A0
    out = []
    for down, up in ((blocks.A_minus1, blocks.A1),
                     (blocks.A1, blocks.A_minus1)):
        x = _logred_one_equation(np.linalg.solve(shifted, down),
                                 np.linalg.solve(shifted, up))
        out.append(x.reshape(s.shape + x.shape[1:]))
    return out
