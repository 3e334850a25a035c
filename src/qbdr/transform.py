"""Laplace-domain reward and deviation computations with numerical inversion.

All transform-domain quantities are evaluated at a transform variable s
(real positive, or complex with positive real part when driven by the
numerical inverter), or at an array of them: the inverter evaluates all
nodes of one time point, or of a few time points of a grid, in the same
stacked operations, and the results carry the nodes as leading axes.  A
:class:`TransformContext` bundles the model and the matrices G(s), Ghat(s),
H0(s), so that the many evaluations at one s share the expensive solves.

The level blocks of the transformed reward vector solve the matrix
difference equation (Q - sI) x = -g/s, and every block column of the
transformed deviation matrix solves the same equation with forcing -I/s at
its target level, all columns in one boundary solve.  Each route passes
only its forcing to :class:`qbdr.diffeq.BoundarySystem`, which forms the
particular term, pins the free vectors of the forward term in G(s)^k and
the backward term in Ghat(s)^{C-k} with the level equations at 0 and C and
sweeps the solution from them, so a transform value costs O(C n^2) per
right-hand side once G(s) and Ghat(s) are solved.  Time domain values are
recovered with Euler-summed Fourier-series inversion.
"""

import math
from dataclasses import dataclass

import numpy as np

from .diffeq import BoundarySystem
from .errors import TailConvergenceError
from .gmatrices import SolverConfig, gmatrices
from .stationary import stationary_rmatrix

__all__ = [
    "InversionConfig",
    "TransformContext",
    "BoundaryVectors",
    "transform_context",
    "boundary_vectors",
    "reward_transform",
    "reward_transform_unbounded",
    "deviation_transform_block",
    "deviation_transform",
    "deviation_transform_unbounded",
    "euler_nodes",
    "invert_laplace",
    "invert_stacked",
    "reward_time",
    "deviation_time",
    "occupation_matrix",
]


# Memory cap of one stacked call: at most this many complex transform values
# (16 MB).  A call's working arrays peak at about five times its values, so
# the cap bounds the memory of a full D(t) of a few hundred states, which
# with all 53 nodes in one call would take ~270 MB more at 244 states.
# Reward vectors and block columns stay far below it and take all nodes of
# one time point at once.  Stacks split at this cap ran as fast as one call
# of all nodes on full D(t) of 82 to 244 states (one BLAS thread).
_STACK_ENTRIES = 1 << 20

# Cap, in the same values, of one call over several whole time points of a
# t-grid (1 MB).  A revenue curve of the MAP/PH queue at n=4, C=60 has
# 53 x 244 values per time point, so this cap takes 5 points per call.  On
# the three 20-point revenue curves of the benchmark's transient workload
# (2-core x86 host, one BLAS thread, median thread CPU of 15 interleaved
# runs) one point per call took 0.44 s, 4 or 5 points 0.29 s and 10 or 20
# points 0.29 s, with quartiles overlapping from 4 points on; the
# tracemalloc peak of one curve was 1.0, 4.4, 5.5, 10.9 and 17.5 MB.
_GROUP_ENTRIES = 1 << 16


@dataclass(frozen=True)
class InversionConfig:
    """Parameters of the Euler-summation inversion.

    ``a_param`` is the discretization contour parameter (the classical
    choice 18.4 caps the discretization error near 1e-8 relative),
    ``series_terms`` the number of plain partial sums and ``euler_terms``
    the order of the binomial averaging of the tail.
    """

    a_param: float = 18.4
    series_terms: int = 40
    euler_terms: int = 12

    def __post_init__(self):
        if not self.series_terms > self.euler_terms >= 1:
            raise ValueError("need series_terms > euler_terms >= 1")


@dataclass(frozen=True)
class TransformContext:
    """Model plus G/Ghat/H0 at s; with an array of nodes ``gmat.G`` and
    ``gmat.Ghat`` have shape (*s.shape, n, n)."""

    s: complex
    blocks: object
    gmat: object


@dataclass(frozen=True)
class BoundaryVectors:
    """The two free vectors of the difference-equation solution."""

    v: np.ndarray
    w: np.ndarray


def transform_context(blocks, s, config=SolverConfig()):
    """Solve G(s), Ghat(s) and H0(s)."""
    gm = gmatrices(blocks, s, config)
    return TransformContext(gm.s, blocks, gm)


def _s_column(s):
    """s shaped to scale per-node (n, m) values."""
    return np.asarray(s)[..., None, None]


def _reward_system(ctx, rewards):
    """The reward equation (Q - sI) x = -g/s on the levels 0..C, with one
    right-hand-side column."""
    g = np.asarray(rewards.g)
    g = g.reshape((len(g),) + (1,) * np.ndim(ctx.s) + (-1, 1))
    return BoundarySystem(ctx.blocks, [(0, ctx.blocks.C)], ctx.gmat,
                          -g / _s_column(ctx.s))


def boundary_vectors(ctx, rewards):
    """Solve the boundary system for the free vectors (v, w)."""
    vw = _reward_system(ctx, rewards).free_vectors()[..., 0]
    n = ctx.blocks.n
    return BoundaryVectors(v=vw[..., :n], w=vw[..., n:])


def reward_transform(ctx, rewards):
    """Transformed expected-reward blocks for every initial level.

    Returns the (*s.shape, C+1, n) array whose row k is the complex
    vector Rt_k(s) = G^k v + Ghat^{C-k} w + p_k, p the particular term.
    """
    return np.moveaxis(_reward_system(ctx, rewards).solve()[..., 0], 0, -2)


def _tail_sum(term_at, tail_tol, max_terms):
    """Sum term_at(1), term_at(2), ... until the terms vanish."""
    acc = None
    quiet = 0
    for j in range(1, max_terms + 1):
        term = term_at(j)
        if term is None:
            return acc  # finite support exhausted
        acc = term if acc is None else acc + term
        if np.max(np.abs(term)) <= tail_tol * max(1.0, np.max(np.abs(acc))):
            quiet += 1
            if quiet >= 3:
                return acc
        else:
            quiet = 0
    raise TailConvergenceError(
        f"reward tail series did not settle within {max_terms} terms")


def _reward_at(rewards, level):
    """Reward vector at a level, for a finite sequence or a callable rule."""
    if callable(rewards):
        return np.asarray(rewards(level), dtype=float)
    seq = rewards.g if hasattr(rewards, "g") else rewards
    if level < len(seq):
        return np.asarray(seq[level], dtype=float)
    return None  # zero beyond the finite support


def _unbounded_reward_system(blocks, gmat, rewards, top, tail_tol,
                             max_terms):
    """The reward equation on the levels 0..top of the run with no upper
    end; the rewards above ``top`` enter the particular term through the
    tail sum_j Ghat^j H0 g_{top+j} / s."""
    power = np.eye(blocks.n)  # Ghat^j at term j

    def tail_term(j):
        nonlocal power
        power = power @ gmat.Ghat
        g = _reward_at(rewards, top + j)
        return None if g is None else power @ (gmat.H0 @ g / gmat.s)

    tail = _tail_sum(tail_term, tail_tol, max_terms)
    force = [np.zeros(blocks.n) if g is None else -g / gmat.s
             for g in (_reward_at(rewards, lv) for lv in range(top + 1))]
    return BoundarySystem(blocks, [(0, None)], gmat, np.array(force),
                          0.0 if tail is None else tail)


def reward_transform_unbounded(blocks, rewards, s, k, config=SolverConfig(),
                               gmat=None, tail_tol=1e-14, max_terms=100_000):
    """Transformed expected reward from level k with no upper boundary.

    ``rewards`` may be a RewardSpec, a finite sequence of level vectors
    (zero beyond its length), or a callable level -> vector whose tail must
    decay for the series to settle.

    Raises
    ------
    TailConvergenceError
        If the reward tail series does not settle within ``max_terms``.
    """
    if gmat is None:
        gmat = gmatrices(blocks, s, config)
    return _unbounded_reward_system(blocks, gmat, rewards, max(k, 1),
                                    tail_tol, max_terms).solve()[k]


def _deviation_columns(blocks, gmat, segments, top, levels, pi_rows):
    """Block columns ``levels`` of (1/s)(sI - Q)^{-1} - (1/s^2) 1 pi at
    every level 0..``top``, shape (top + 1, *s.shape, n, len(levels) n).

    Column l solves (Q - sI) x = -I/s at level l.
    """
    n, s = blocks.n, _s_column(gmat.s)
    force = np.zeros((top + 1,) + gmat.G.shape[:-1] + (len(levels) * n,),
                     dtype=np.result_type(gmat.H0, s))
    for i, level in enumerate(levels):
        force[level, ..., i * n:(i + 1) * n] = -np.eye(n) / s
    cols = BoundarySystem(blocks, segments, gmat, force).solve()
    return cols - np.concatenate([np.asarray(r) for r in pi_rows]) / s ** 2


def deviation_transform_block(ctx, pi, k, level):
    """Block (k, level) of the transformed transient deviation matrix.

    ``pi`` indexes the stationary level rows of the finite chain.  The
    assembled matrix agrees with the dense resolvent expression
    (1/s)(sI - Q)^{-1} - (1/s^2) 1 pi.
    """
    b = ctx.blocks
    if not (0 <= k <= b.C and 0 <= level <= b.C):
        raise ValueError(f"block ({k}, {level}) out of range 0..{b.C}")
    return _deviation_columns(b, ctx.gmat, [(0, b.C)], b.C, [level],
                              [pi[level]])[k]


def deviation_transform(ctx, pi):
    """The full transformed deviation matrix, all block columns in one
    boundary solve."""
    b = ctx.blocks
    levels = range(b.C + 1)
    cols = _deviation_columns(b, ctx.gmat, [(0, b.C)], b.C, levels,
                              [pi[lv] for lv in levels])
    size = b.n * (b.C + 1)
    return np.moveaxis(cols, 0, -3).reshape(cols.shape[1:-2] + (size, size))


def deviation_transform_unbounded(blocks, s, k, level, pi_level=None,
                                  gmat=None, config=SolverConfig()):
    """Block (k, level) of the transformed deviation matrix with no upper
    boundary.

    ``pi_level`` is the stationary row of the unrestricted process at the
    target level (see :func:`qbdr.stationary.stationary_unrestricted`); pass
    None for a transient unrestricted process, whose stationary mass at any
    fixed level is zero.
    """
    if gmat is None:
        gmat = gmatrices(blocks, s, config)
    if pi_level is None:
        pi_level = np.zeros(blocks.n)
    top = max(k, level, 1)
    return _deviation_columns(blocks, gmat, [(0, None)], top, [level],
                              [pi_level])[k]


def euler_nodes(t, config=InversionConfig()):
    """The nodes of the Euler-summed inversion at time t and the weights of
    the transform's real parts there.

    The Fourier-series approximation of the inverse at t is the
    alternating series over the nodes s_k = (A + 2 pi i k) / (2t); its
    partial sums of orders ``series_terms`` .. ``series_terms +
    euler_terms`` are averaged with binomial weights.  Both steps are
    linear, so the inverse is sum_k w_k Re F(s_k).

    Returns
    -------
    nodes : (K,) complex ndarray
    weights : (K,) float ndarray
    """
    if t <= 0:
        raise ValueError("inversion requires t > 0")
    m, first = config.euler_terms, config.series_terms
    k = np.arange(first + m + 1)
    nodes = config.a_param / (2.0 * t) + 1j * (math.pi / t * k)
    # term k enters the averaged partial sums of orders >= k
    share = np.ones(k.size)
    for i in range(1, m + 1):
        share[first + i] = sum(math.comb(m, j) for j in range(i, m + 1)) \
            * 0.5 ** m
    share[0] = 0.5
    weights = (-1.0) ** k * share * math.exp(config.a_param / 2.0) / t
    return nodes, weights


def invert_laplace(transform, t, config=InversionConfig()):
    """Invert a Laplace transform at one time point by Euler summation,
    one node at a time.

    Parameters
    ----------
    transform : callable
        Maps a complex s with positive real part to a (possibly
        array-valued) transform value.
    t : float
        Positive time.
    config : InversionConfig

    Returns
    -------
    ndarray (same shape as the transform values), accurate to roughly 1e-7
    relative for smooth transforms.
    """
    nodes, weights = euler_nodes(t, config)
    return sum(w * np.real(np.asarray(transform(complex(s))))
               for s, w in zip(nodes, weights))


def invert_stacked(transform, t, config, shape, states):
    """Euler-summed inverse at time t >= 0, or at every time of a 1-d
    array t, of a transform evaluated at a 1-d array of nodes at once, its
    values of shape ``shape`` stacked along a leading node axis; zero at
    t = 0.  An array t stacks the inverses along a leading time axis.

    A node's work is taken as one column over the chain's ``states`` states
    per column of its value (a vector counts as one column).  The positive
    times are taken in order, in the fewest equal groups of whole time
    points whose work stays under _GROUP_ENTRIES, each group's nodes in one
    call.  The nodes of a time point alone in its group are split into the
    fewest equal calls whose work stays under _STACK_ENTRIES.
    """
    times = np.asarray(t, dtype=float)
    if not ((times >= 0) & (times < np.inf)).all():
        raise ValueError("t must be finite and nonnegative")
    flat = times.reshape(-1)
    out = np.zeros(flat.shape + tuple(shape))
    positive = np.flatnonzero(flat)
    node_size = states * math.prod(shape[1:])
    point_size = (config.series_terms + config.euler_terms + 1) * node_size
    per_call = max(1, _GROUP_ENTRIES // point_size)
    groups = -(-positive.size // per_call)
    for group in np.array_split(positive, groups) if groups else ():
        nodes, weights = zip(*(euler_nodes(flat[i], config) for i in group))
        if group.size == 1:
            calls = min(len(nodes[0]), -(-point_size // _STACK_ENTRIES))
            out[group[0]] = sum(
                np.tensordot(w, np.real(transform(s)), axes=1)
                for s, w in zip(np.array_split(nodes[0], calls),
                                np.array_split(weights[0], calls)))
            continue
        values = np.real(transform(np.concatenate(nodes)))
        for i, w, v in zip(group, weights, np.split(values, group.size)):
            out[i] = np.tensordot(w, v, axes=1)
    return out.reshape(times.shape + tuple(shape))


def reward_time(blocks, rewards, t, k=None, inversion=InversionConfig(),
                solver=SolverConfig()):
    """Expected cumulative reward up to time t, or up to every time of a
    1-d array t, stacked along a leading time axis.

    Returns the level-k block when ``k`` is given, otherwise the full
    stacked vector over all levels.  R(0) = 0 exactly.  The nodes of a few
    time points of an array t are solved in one stacked call; see
    :func:`invert_stacked`.
    """
    size = blocks.n * (blocks.C + 1)

    def transform(nodes):
        parts = reward_transform(transform_context(blocks, nodes, solver),
                                 rewards)
        return parts[:, k] if k is not None else parts.reshape(len(nodes), -1)

    shape = (blocks.n,) if k is not None else (size,)
    return invert_stacked(transform, t, inversion, shape, size)


def deviation_time(blocks, t, pi=None, inversion=InversionConfig(),
                   solver=SolverConfig(), block=None):
    """Transient deviation matrix D(t) by inversion of its transform.

    With ``block`` = (k, level), only the n x n block D(t)_{k, level}, from
    one block column per node: O(C) work instead of O(C^2).
    """
    if pi is None:
        pi = stationary_rmatrix(blocks, solver)
    size = blocks.n * (blocks.C + 1)

    def transform(nodes):
        ctx = transform_context(blocks, nodes, solver)
        if block is None:
            return deviation_transform(ctx, pi)
        return deviation_transform_block(ctx, pi, *block)

    shape = (blocks.n,) * 2 if block is not None else (size, size)
    return invert_stacked(transform, t, inversion, shape, size)


def occupation_matrix(blocks, pi, t, inversion=InversionConfig(),
                      solver=SolverConfig()):
    """Expected occupation times V(t) = 1 pi t + D(t); rows sum to t."""
    n, C = blocks.n, blocks.C
    if t == 0:
        return np.zeros((n * (C + 1), n * (C + 1)))
    stacked = np.concatenate([np.asarray(pi[k]) for k in range(C + 1)])
    base = np.outer(np.ones(n * (C + 1)), stacked) * t
    return base + deviation_time(blocks, t, pi, inversion, solver)
