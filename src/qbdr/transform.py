"""Laplace-domain reward and deviation computations with numerical inversion.

All transform-domain quantities are evaluated at a transform variable s
(real positive, or complex with positive real part when driven by the
numerical inverter), or at an array of them: the inverter evaluates the
nodes of every band of a t-grid in the same stacked operations, up to a
memory cap, and the results carry the nodes as leading axes.  A
:class:`TransformContext` bundles the model and the matrices G(s),
Ghat(s), H0(s), so that the many evaluations at one s share the expensive
solves.

The level blocks of the transformed reward vector solve the matrix
difference equation (Q - sI) x = -g/s, and every block column l of the
transformed deviation matrix solves the same equation with forcing
-E_l / s, E_l the identity at level l and zero elsewhere, all columns in
one boundary solve.  Both forcings are the same at every node up to the
divisor s.  Each route passes only its forcing to
:class:`qbdr.diffeq.BoundarySystem`, which forms the
particular term, pins the free vectors of the forward term in G(s)^k and
the backward term in Ghat(s)^{C-k} with the level equations at 0 and C and
sweeps the solution from them, so a transform value costs O(C n^2) per
right-hand side once G(s) and Ghat(s) are solved.  A single block (k, l)
sweeps nothing: its value at row k, G^k v + Ghat^{C-k} w + p_k with p_k =
G^{k-l} a_l or Ghat^{l-k} a_l, takes O(log C) products per node.

Time domain values are recovered by the Fourier-series inversion of de
Hoog, Knight & Stokes (1982), accelerated by a quotient-difference
continued fraction.  The positive times are cut into bands whose largest
time is at most 2 times their smallest; a band with largest time t_max
takes the 2M + 1 = 41 nodes gamma + i pi k / T, k = 0..2M, with
T = 2 t_max and gamma = -ln(1e-12) / (2T), so Re s = gamma > 0 at every
node, and those nodes serve every time of the band.  The bands' nodes are
solved together, but each band's continued fraction is built from its own
nodes' values.  No error estimate is reported: the gap between the last
two convergents reads far below the measured error.
"""

import math
from typing import NamedTuple

import numpy as np

from .diffeq import BoundarySystem
from .errors import NumericalError
from .gmatrices import gmatrices
from .model import levels_in_range
from .stationary import stationary_rmatrix

__all__ = [
    "TransformContext",
    "BoundaryVectors",
    "transform_context",
    "boundary_vectors",
    "reward_transform",
    "deviation_transform_block",
    "deviation_transform",
    "inversion_nodes",
    "invert_laplace",
    "invert_stacked",
    "reward_time",
    "deviation_time",
]


# Memory cap of one stacked call: at most this many complex transform values
# (16 MB).  A call's working arrays peak at about five times its values, so
# the cap bounds the working memory of a full D(t) of a few hundred states,
# which with all 41 nodes of a band in one call would take ~200 MB more at
# 244 states (17 nodes fit, so a band takes three calls).  The values a
# call returns are held whole for the QD tables of its bands.  Reward
# vectors and block columns stay far below the cap and take the nodes of
# all bands of a grid at once: one G/Ghat solve and one boundary solve.
_STACK_ENTRIES = 1 << 20

# Cap, in the same values, of one chunk of entries of the inversion's QD
# table (512 KB), whose arrays then stay in cache.  On a full D(t) of 244
# states at one time (one BLAS thread, best of 3) the whole inversion took
# 0.53 s with chunks of 2^14 or 2^15 values, 0.58 s with 2^16, 0.66 s with
# 2^17 and 0.84 s with 2^20; the tracemalloc peak fell from 102 to 85 MB.
_QD_ENTRIES = 1 << 15

# The largest time of a band of a t-grid is at most this many times its
# smallest, so a band's times lie in [T/4, T/2].  The error of a band is
# largest at its smallest time.  On the lost- and gained-revenue curves of
# the MAP/PH queue at C = 60 (both queues, smallest times 0.2..20) the worst
# error relative to the curve was 1.1e-11 at ratio 2, 2.8e-9 at ratio 3 and
# 8.7e-9 at ratio 4.  The three 20-point curves of 0.5:10:0.5 (lost and
# gained revenue, random rewards at n = 3) take 2, 3 or 4 bands, all in
# one call, and 30, 41 or 51 ms at ratios 4, 3 and 2 (35, 51 and 65 ms with
# one call per band; one BLAS thread, best of 5 processes of 15 rounds).
_BAND_RATIO = 2.0

# The de Hoog inversion: a band of times takes the 2M + 1 nodes
# gamma + i pi k / T, k = 0..2M, M = _ORDER, and the continued fraction of
# order 2M; the abscissa gamma = -ln(_INVERSION_TOLERANCE) / (2T) > 0 puts
# the discretization error near _INVERSION_TOLERANCE relative.
_ORDER = 20
_INVERSION_TOLERANCE = 1e-12

class TransformContext(NamedTuple):
    """Model plus G/Ghat/H0 at s; with an array of nodes ``gmat.G`` and
    ``gmat.Ghat`` have shape (*s.shape, n, n)."""

    s: complex
    blocks: object
    gmat: object


class BoundaryVectors(NamedTuple):
    """The two free vectors of the difference-equation solution."""

    v: np.ndarray
    w: np.ndarray


def transform_context(blocks, s):
    """Solve G(s), Ghat(s) and H0(s)."""
    gm = gmatrices(blocks, s)
    return TransformContext(gm.s, blocks, gm)


def _s_column(s):
    """s shaped to scale per-node (n, m) values."""
    return np.asarray(s)[..., None, None]


def _reward_system(ctx, rewards):
    """The reward equation (Q - sI) x = -g/s on the levels 0..C, with one
    right-hand-side column."""
    return BoundarySystem(ctx.blocks, ctx.gmat,
                          -np.asarray(rewards)[..., None],
                          divisor=_s_column(ctx.s))


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


def _deviation_columns(blocks, gmat, levels, pi, row=None):
    """Block columns ``levels`` of (1/s)(sI - Q)^{-1} - (1/s^2) 1 pi at
    every level 0..C, shape (C + 1, *s.shape, n, len(levels) n), or at the
    block row ``row`` only, without the level axis; ``pi`` flat or of
    shape (C + 1, n).

    Column l solves (Q - sI) x = -E_l / s.
    """
    n, s = blocks.n, _s_column(gmat.s)
    force = np.zeros((blocks.C + 1, n, len(levels) * n))
    for i, level in enumerate(levels):
        force[level, :, i * n:(i + 1) * n] = -np.eye(n)
    cols = BoundarySystem(blocks, gmat, force, divisor=s).solve(level=row)
    pi = np.reshape(pi, (blocks.C + 1, n))
    return cols - pi[list(levels)].reshape(-1) / s ** 2


def deviation_transform_block(ctx, pi, k, level):
    """Block (k, level) of the transformed transient deviation matrix.

    ``pi`` is the stationary vector of the finite chain, flat or of shape
    (C+1, n).  The assembled matrix agrees with the dense resolvent
    expression (1/s)(sI - Q)^{-1} - (1/s^2) 1 pi.
    """
    b = ctx.blocks
    if not levels_in_range((k, level), b.C):
        raise ValueError(f"block ({k}, {level}) out of range 0..{b.C}")
    return _deviation_columns(b, ctx.gmat, [level], pi, k)


def deviation_transform(ctx, pi):
    """The full transformed deviation matrix, all block columns in one
    boundary solve; ``pi`` as for :func:`deviation_transform_block`."""
    b = ctx.blocks
    cols = _deviation_columns(b, ctx.gmat, range(b.C + 1), pi)
    size = b.n * (b.C + 1)
    return np.moveaxis(cols, 0, -3).reshape(cols.shape[1:-2] + (size, size))


def _contour(t_max):
    """The abscissa gamma and the period T = 2 t_max of the band whose
    largest time is t_max."""
    period = 2.0 * t_max
    return -math.log(_INVERSION_TOLERANCE) / (2.0 * period), period


def inversion_nodes(t_max):
    """The 2M + 1 nodes gamma + i pi k / T, k = 0..2M, of the band whose
    largest time is t_max: T = 2 t_max and
    gamma = -ln(_INVERSION_TOLERANCE) / (2T), so every node has
    Re s = gamma > 0."""
    if not 0 < t_max < np.inf:
        raise ValueError("inversion requires finite t > 0")
    gamma, period = _contour(t_max)
    return gamma + 1j * (math.pi / period) * np.arange(2 * _ORDER + 1)


def _bands(times):
    """The indices of the positive entries of the 1-d ``times``, in order
    of time, cut into bands whose largest time is at most _BAND_RATIO times
    their smallest."""
    order = np.argsort(times, kind="stable")
    order = order[times[order] > 0]
    ends = np.searchsorted(times[order], _BAND_RATIO * times[order],
                           side="right")
    bands, start = [], 0
    while start < order.size:
        bands.append(order[start:ends[start]])
        start = ends[start]
    return bands


def _dehoog(values, times, t_max):
    """The inverse at the 1-d ``times`` of the band of t_max from the
    transform ``values`` at its nodes, shape (2M + 1, m): shape
    (len(times), m).

    The trapezoid sum of the Bromwich integral on Re s = gamma is the power
    series sum_k a_k z^k in z = exp(i pi t / T), a_0 = F(gamma) / 2 and
    a_k = F(s_k).  The quotient-difference (QD) algorithm turns its
    coefficients into those of the continued fraction
    d_0 / (1 + d_1 z / (1 + d_2 z / ...)), whose convergent of order 2M,
    closed with de Hoog's improved remainder, is evaluated at every time.
    The QD table depends on the entry only, so each chunk of entries builds
    it once for all times of the band.  A chunk's m entries keep
    (2M + 1 + len(times)) m under _QD_ENTRIES, so its table and
    convergents take a few times that many values.  An entry that is 0 at
    every node inverts to 0.
    """
    gamma, period = _contour(t_max)
    order = _ORDER
    z = np.exp(1j * (math.pi / period) * times)[:, None]
    scale = np.exp(gamma * times)[:, None] / period
    out = np.empty((times.size, values.shape[1]))
    chunk = max(1, _QD_ENTRIES // (len(values) + times.size))
    with np.errstate(all="ignore"):  # 0/0 of all-zero entries, checked below
        for lo in range(0, values.shape[1], chunk):
            a = values[:, lo:lo + chunk]
            d = np.empty_like(a)
            d[0] = a[0] / 2
            q = a[1:] / np.concatenate([d[:1], a[1:-1]])  # q_1
            e = np.zeros_like(q)  # e_0
            for r in range(1, order + 1):  # the rhombus rules
                e = q[1:] - q[:-1] + e[1:len(q)]
                d[2 * r - 1], d[2 * r] = -q[0], -e[0]
                if r < order:
                    q = q[1:-1] * e[1:] / e[:-1]
            # convergents A_i / B_i by the three-term recurrence
            a_prev, a_cur, b_prev, b_cur = 0.0, d[0], 1.0, 1.0
            for i in range(1, 2 * order):
                dz = d[i] * z
                a_prev, a_cur = a_cur, a_cur + dz * a_prev
                b_prev, b_cur = b_cur, b_cur + dz * b_prev
            h = (1.0 + (d[-2] - d[-1]) * z) / 2.0
            x = d[-1] * z / h ** 2
            rem = h * x / (np.sqrt(1.0 + x) + 1.0)  # h (sqrt(1 + x) - 1)
            out[:, lo:lo + chunk] = scale * np.real(
                (a_cur + rem * a_prev) / (b_cur + rem * b_prev))
    out[:, ~values.any(axis=0)] = 0.0
    if not np.isfinite(out).all():
        raise NumericalError(
            f"Laplace inversion broke down in the band up to t = {t_max!r}:"
            " the quotient-difference table is not finite")
    return out


def _band_inverses(evaluate, times, bands_per_call=1):
    """(indices, inverses) of each band of the positive entries of the 1-d
    ``times``; ``evaluate`` maps the nodes of ``bands_per_call`` consecutive
    bands to the transform values stacked along a leading node axis."""
    bands = _bands(times)
    for lo in range(0, len(bands), bands_per_call):
        group = bands[lo:lo + bands_per_call]
        tops = [float(times[band[-1]]) for band in group]
        values = np.asarray(evaluate(np.concatenate(
            [inversion_nodes(t_max) for t_max in tops])))
        values = values.reshape((len(group), -1) + values.shape[1:])
        for band, t_max, band_values in zip(group, tops, values):
            inverse = _dehoog(band_values.reshape(len(band_values), -1),
                              times[band], t_max)
            yield band, inverse.reshape(band.shape + values.shape[2:])


def _checked_times(t):
    times = np.asarray(t, dtype=float)
    if not ((times >= 0) & (times < np.inf)).all():
        raise ValueError("t must be finite and nonnegative")
    return times


def invert_laplace(transform, t):
    """Invert a Laplace transform at time t > 0, or at every time of a 1-d
    array t, one node at a time: the reference form of
    :func:`invert_stacked`, with the same bands and nodes.

    Parameters
    ----------
    transform : callable
        Maps a complex s with positive real part to a (possibly
        array-valued) transform value.
    t : float or 1-d array of float
        Positive times.

    Returns
    -------
    ndarray of the transform values' shape, stacked along a leading time
    axis for an array t; accurate to about 1e-9 relative for smooth
    transforms.
    """
    times = _checked_times(t)
    if not times.all():
        raise ValueError("inversion requires t > 0")
    flat = times.reshape(-1)
    out = None
    for band, inverse in _band_inverses(
            lambda nodes: [np.asarray(transform(complex(s))) for s in nodes],
            flat):
        if out is None:
            out = np.empty(flat.shape + inverse.shape[1:])
        out[band] = inverse
    return out.reshape(times.shape + out.shape[1:])


def invert_stacked(transform, t, shape, states):
    """Inverse at time t >= 0, or at every time of a 1-d array t, of a
    transform evaluated at a 1-d array of nodes at once, its values of
    shape ``shape`` stacked along a leading node axis; zero at t = 0.  An
    array t stacks the inverses along a leading time axis.

    The positive times are cut into bands whose largest time is at most
    _BAND_RATIO times their smallest, and each band's 2M + 1 nodes serve
    all its times.  A node's work is taken as one column over the chain's
    ``states`` states per column of its value (a vector counts as one
    column).  Consecutive bands share one call while its work stays under
    _STACK_ENTRIES, so a t-grid of vectors or block columns solves G/Ghat
    and its boundary system once; a band whose work alone exceeds the cap
    goes in the fewest equal calls that stay under it.  The continued
    fraction of each band is built from its own nodes' values.
    """
    times = _checked_times(t)
    flat = times.reshape(-1)
    out = np.zeros(flat.shape + tuple(shape))
    per_call = max(1, _STACK_ENTRIES // (states * math.prod(shape[1:])))
    bands_per_call = max(1, per_call // (2 * _ORDER + 1))

    def evaluate(nodes):
        calls = -(-len(nodes) // per_call)
        parts = [transform(part) for part in np.array_split(nodes, calls)]
        return parts[0] if calls == 1 else np.concatenate(parts)

    for band, inverse in _band_inverses(evaluate, flat, bands_per_call):
        out[band] = inverse
    return out.reshape(times.shape + tuple(shape))


def reward_time(blocks, rewards, t, k=None, dist=None):
    """Expected cumulative reward up to time t, or up to every time of a
    1-d array t, stacked along a leading time axis.

    ``rewards`` holds the reward rates g_0..g_C as the rows of a (C+1, n)
    array, as :func:`qbdr.model.model_from_dict` and the :mod:`qbdr.mapph`
    builders return them.  Returns the level-k block when ``k`` is given,
    otherwise the full stacked vector over all levels; with a phase
    distribution ``dist``, sum_j dist_j R_(k,j)(t) per level, weighted
    before the inversion.
    R(0) = 0 exactly.  The 41 nodes of every band of time points of an
    array t are solved in one stacked call while its work stays under the
    memory cap; see :func:`invert_stacked`.
    """
    if k is not None and not levels_in_range([k], blocks.C):
        raise ValueError(f"level {k} out of range 0..{blocks.C}")
    size = blocks.n * (blocks.C + 1)
    shape = (blocks.n,) if k is not None else (size,)
    if dist is not None:
        shape = () if k is not None else (blocks.C + 1,)

    def transform(nodes):
        parts = reward_transform(transform_context(blocks, nodes), rewards)
        if k is not None:
            parts = parts[:, k]
        if dist is not None:
            parts = parts @ dist
        return parts.reshape((len(nodes),) + shape)

    return invert_stacked(transform, t, shape, size)


def deviation_time(blocks, t, pi=None, block=None):
    """Transient deviation matrix D(t) by inversion of its transform.

    With ``block`` = (k, level), only the n x n block D(t)_{k, level}, from
    one block column per node, read at row k: O(C) work instead of O(C^2).
    """
    if block is not None and not levels_in_range(block, blocks.C):
        raise ValueError(f"block {block} out of range 0..{blocks.C}")
    if pi is None:
        pi = stationary_rmatrix(blocks)
    size = blocks.n * (blocks.C + 1)

    def transform(nodes):
        ctx = transform_context(blocks, nodes)
        if block is None:
            return deviation_transform(ctx, pi)
        return deviation_transform_block(ctx, pi, *block)

    shape = (blocks.n,) * 2 if block is not None else (size, size)
    return invert_stacked(transform, t, shape, size)
