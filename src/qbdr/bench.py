"""Random test models and the two-method timing benchmark.

Both timed tasks compute the last block-column of the asymptotic deviation
matrix, the quantity the two solution strategies share: the structured
route solves for that block column directly by level reduction, O(C n^3),
the perturbation route climbs the capacity ladder and slices the result.

How ``run_bench`` takes its timings (see :func:`time_interleaved`):

- Clock: the CPU time of the calling thread.  Process CPU time would also
  count the BLAS helper threads, which spin between calls for a varying
  share of the time and can double a small-matrix route's reading.
- Interleaved rounds: each grid point is called once to warm up, then
  every round times every (n, C, method) point in turn, so a change in
  the host's speed lands on a few spans of many points rather than on all
  spans of a few.
- Reference-kernel scaling: a span of at least 50 ms is cut into five
  pieces, and a fixed reference kernel is timed before the first piece
  and after every piece.  Each piece is multiplied by
  REFERENCE_KERNEL_SECONDS over the mean of the kernel times on its two
  sides, which puts it at the speed of a reference host.
- Statistic: each record holds the median over the rounds of the scaled
  seconds per call, ``median_scaled_cpu_seconds``.
"""

import functools
import time
from typing import NamedTuple

import numpy as np

from .model import QbdBlocks
from .passage import deviation_matrix_diffeq
from .perturbation import deviation_recursive

__all__ = [
    "BenchRecord",
    "random_blocks",
    "last_block_column_diffeq",
    "last_block_column_perturbation",
    "REFERENCE_KERNEL_SECONDS",
    "reference_kernel",
    "time_interleaved",
    "run_bench",
]


class BenchRecord(NamedTuple):
    """One timed grid point: per-call CPU seconds at the reference host
    speed, the median over ``repetitions`` interleaved rounds."""

    n: int
    C: int
    method: str
    median_scaled_cpu_seconds: float
    repetitions: int
    seed: int


def random_blocks(n, C, rng, min_drift=0.02):
    """Random ergodic QBD blocks with off-diagonal rates uniform on [0, 1].

    Boundary blocks fold the missing neighbour back into the local block
    (B0 = A0 + A_minus1, C0 = A0 + A1), which keeps every row conservative
    and the chain irreducible.  Draws whose mean drift sits within
    ``min_drift`` of zero are rejected so that the s = 0 asymptotic
    quantities stay well conditioned.
    """
    from .model import classify_drift

    for _ in range(1000):
        a_down = rng.uniform(0.0, 1.0, (n, n))
        a_up = rng.uniform(0.0, 1.0, (n, n))
        a_local = rng.uniform(0.0, 1.0, (n, n))
        np.fill_diagonal(a_local, 0.0)
        rows = a_down.sum(axis=1) + a_local.sum(axis=1) + a_up.sum(axis=1)
        a_local -= np.diag(rows)
        blocks = QbdBlocks(n=n, C=C, A_minus1=a_down, A0=a_local,
                           A1=a_up, B0=a_local + a_down, C0=a_local + a_up)
        if abs(classify_drift(blocks).mean_drift) >= min_drift:
            return blocks
    raise RuntimeError("could not draw a model away from null recurrence")


def last_block_column_diffeq(blocks):
    """Blocks D_{k,C}, k = 0..C, by level reduction for the last block
    column alone, as ``qbdr deviation --block`` solves it."""
    return deviation_matrix_diffeq(blocks, levels=[blocks.C])


def last_block_column_perturbation(blocks):
    """Blocks D_{k,C}, k = 0..C, by slicing the capacity-ladder result."""
    state = deviation_recursive(blocks)
    n = blocks.n
    return state.dev[:, blocks.C * n:(blocks.C + 1) * n].copy()


_METHODS = {
    "DifferenceEq": last_block_column_diffeq,
    "Perturbation": last_block_column_perturbation,
}


# Seconds the reference kernel takes on the reference host; every timing
# is reported at the speed of that host.  One unloaded x86-64 core of about
# 3 GHz runs it in 0.85-1.0 ms.
REFERENCE_KERNEL_SECONDS = 1e-3

# Pieces per timed span, each bracketed by kernel samples: a change in the
# host's speed then mis-scales at most one piece of a span.
_PIECES = 5


def reference_kernel():
    """Fixed work whose duration tracks the host's current speed.

    It mixes the kinds of work both timed routes do: a dense solve, many
    small matrix products and plain interpreter loops.
    """
    a = np.eye(40) * 8.0 + np.linspace(0.0, 1.0, 1600).reshape(40, 40)
    small = a[:4, :4]
    for _ in range(12):
        np.linalg.solve(a, a[:, :5])
        for _ in range(25):
            small @ small
        total = 0
        for i in range(600):
            total += i


def _inner_count(func, clock, min_span):
    """Calls per timed piece, so that each piece clears ``min_span``.

    Fast calls are repeated in an inner loop until a piece clears
    ``min_span``, so the result is meaningful even where the clock has
    coarse granularity.  The first call is a warm-up and is not timed.
    """
    func()
    inner = 1
    while True:
        start = clock()
        for _ in range(inner):
            func()
        span = clock() - start
        if span >= min_span or inner >= 1 << 16:
            return inner
        if span <= min_span / 16:  # below clock granularity: grow gently
            inner = min(inner * 8, 1 << 16)
        else:
            inner = min(int(inner * min_span / span) + 1, 1 << 16)


def time_interleaved(funcs, rounds, clock=time.thread_time,
                     kernel=reference_kernel, min_span=0.05):
    """Seconds per call of each zero-argument callable at the reference
    host speed: the median over ``rounds`` interleaved rounds.

    Every round times each callable once, in order, for at least
    ``min_span`` seconds, cut into five pieces with ``kernel`` timed
    before the first piece and after every piece.  Each piece is scaled by
    REFERENCE_KERNEL_SECONDS over the mean of the kernel times on its two
    sides, so a change in the host's speed is divided out wherever it
    falls.  The default clock is the calling thread's CPU time, which
    leaves out BLAS helper threads that spin between calls.
    """
    inner = [_inner_count(func, clock, min_span / _PIECES) for func in funcs]

    def kernel_time():
        start = clock()
        kernel()
        return clock() - start

    kernel()  # warm-up
    scaled = np.empty((rounds, len(funcs)))
    for r in range(rounds):
        before = kernel_time()
        for i, (func, count) in enumerate(zip(funcs, inner)):
            total = 0.0
            for _ in range(_PIECES):
                start = clock()
                for _ in range(count):
                    func()
                span = clock() - start
                after = kernel_time()
                total += span * 2.0 / (before + after)
                before = after
            scaled[r, i] = total * REFERENCE_KERNEL_SECONDS / (_PIECES * count)
    return [float(v) for v in np.median(scaled, axis=0)]


def run_bench(n_values, C_values, reps=3, seed=0):
    """Time both methods on random models over a grid of (n, C).

    One model is drawn per grid point from a stream keyed by
    (seed, n, C), so records are reproducible up to machine timing noise.
    The points are timed in ``reps`` interleaved rounds of CPU time (see
    :func:`time_interleaved`).
    """
    points, funcs = [], []
    for n in n_values:
        for C in C_values:
            rng = np.random.default_rng([seed, n, C])
            blocks = random_blocks(n, C, rng)
            for method, func in _METHODS.items():
                points.append((n, C, method))
                funcs.append(functools.partial(func, blocks))
    seconds = time_interleaved(funcs, reps)
    return [BenchRecord(n=n, C=C, method=method, median_scaled_cpu_seconds=t,
                        repetitions=reps, seed=seed)
            for (n, C, method), t in zip(points, seconds)]
