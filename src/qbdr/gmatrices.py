"""Solvers for the quadratic matrix equations of a QBD process.

G(s) is the minimal nonnegative solution of

    A_minus1 + (A0 - sI) X + A1 X^2 = 0,

and Ghat(s) solves the same equation with the roles of A1 and A_minus1
exchanged.  Entry (i, j) of G(s) is the Laplace transform of the first
passage time one level down, restricted to the paths that land in phase j;
Ghat(s) is the analogous one-level-up quantity.  Both are evaluated here
for real s >= 0 and, for the numerical transform inversion, for complex s
with positive real part (the iterations carry over unchanged in complex
arithmetic).  An array of s, such as the 2M + 1 = 41 nodes
gamma + i pi k / T of one inversion band (Re s = gamma > 0 at every node,
see :mod:`qbdr.transform`), is solved as one batch, G and Ghat together,
in which each node stops on its own.

Both are solved by logarithmic reduction (Latouche & Ramaswami 1993;
quadratically convergent), one reduction for G and Ghat, until a sweep's
increment to each is at most a few ulps of its largest entry.  That stop
is scale-free: multiplying every rate by k (a change of time unit) leaves
the sweeps unchanged, and the solutions land at roundoff.  Bini, Latouche
& Meini, *Numerical Methods for Structured Markov Chains* (2005), discuss
stopping tests for this algorithm.
"""

from typing import NamedTuple

import numpy as np

from .errors import AsymptoticsUndefinedError, IterationLimitError
from .linalg import stack_matmul
from .model import Drift, require_finite

__all__ = [
    "GMatrices",
    "h0",
    "gmatrices",
    "rate_matrices",
]


# Stopping rule of the logarithmic reduction: the largest increment of a
# sweep, relative to the largest entry of the sum it adds to (a few ulps),
# and the most sweeps.
_INCREMENT_TOL = 4 * np.finfo(float).eps
_MAX_ITERATIONS = 100_000


class GMatrices(NamedTuple):
    """G(s), Ghat(s) and the local kernel H0(s) with solver residuals.

    The residuals are those of the uniformized equations
    X = b_down + b_up X^2, so they do not scale with the rates.  For an
    array of transform variables the matrices carry its shape as leading
    axes, and each residual is the largest over the nodes.
    """

    s: complex
    G: np.ndarray
    Ghat: np.ndarray
    H0: np.ndarray
    residual_G: float
    residual_Ghat: float


def _check_s(s):
    """The transform variable(s) as a float or complex array: finite,
    s >= 0 on the real axis; complex nodes need positive real parts."""
    s = np.asarray(s)
    if not np.isfinite(s).all():
        raise ValueError("s must be finite")
    if np.iscomplexobj(s) and s.imag.any():
        if (s.real <= 0).any():
            raise ValueError("complex s requires a positive real part")
        return s
    s = np.asarray(s.real, dtype=float)
    if (s < 0).any():
        raise ValueError("s must be nonnegative")
    return s


def _solve_pair(blocks, s):
    """G and Ghat at every node of the checked ``s``: shape
    (2, *s.shape, n, n), with the residuals, shape (2, s.size).  Each
    node stops on its own; if any fails, the whole call raises."""
    n = blocks.n
    nodes = s.reshape(-1)[:, None, None]
    # One-step kernels of the uniformized jump chain, (b_down, b_up) with
    # b_down + b_up (sub)stochastic: G solves X = b_down + b_up X^2 and
    # Ghat the same with the kernels swapped.  One solve per node serves
    # both, against [A_minus1 | A1].
    both = np.linalg.solve(nodes * np.eye(n) - blocks.A0,
                           np.hstack([blocks.A_minus1, blocks.A1]))
    kernels = np.stack([both[..., :n], both[..., n:]])

    def residual(x, idx):
        """Max-norm residuals of (G, Ghat) iterates, shape (2, B, n, n),
        at the B nodes ``idx``, in the uniformized equations
        X = b_down + b_up X^2 (kernels swapped for Ghat), whose terms are
        probabilities: the same whatever the units of the rates."""
        pair = kernels[:, idx]
        r = pair + stack_matmul(pair[::-1], stack_matmul(x, x)) - x
        return np.max(np.abs(r), axis=(-2, -1))

    x = _logarithmic_reduction(kernels, residual)
    return x.reshape((2,) + s.shape + x.shape[-2:]), residual(x, slice(None))


def _logarithmic_reduction(kernels, residual):
    """Logarithmic reduction of G and Ghat together: each sweep squares
    the number of jump-chain steps accounted for, so convergence is
    quadratic away from the null-recurrent boundary and linear (rate 1/2)
    on it.

    G's reduction starts from (low, high) = (b_down, b_up) and Ghat's is
    the same with the pair swapped, so the mix, its inverse and both
    squarings serve both: only the running sums x and their trails differ,
    x_G += trail_G low with trail_G high..., x_Ghat += trail_Ghat high with
    trail_Ghat low....  The increment trail x pair is a product that decays
    to zero rather than a difference that settles at roundoff, so a node
    is done once, for G and for Ghat separately, its increment is at most
    _INCREMENT_TOL times the largest entry of that side's x: a rule at
    roundoff whatever the units of the rates.  A node leaves the sweeps
    once done; ``residual`` (of the last iterates, at the indices of the
    nodes still sweeping) is only evaluated for the error of a failed
    reduction."""
    eye = np.eye(kernels.shape[-1])
    x_out = np.empty_like(kernels)
    nodes = np.arange(kernels.shape[1])
    pair = kernels  # (low, high)
    x, trail = pair, pair[::-1]
    for _ in range(_MAX_ITERATIONS):
        low, high = pair
        mix = stack_matmul(high, low) + stack_matmul(low, high)
        try:
            factor = np.linalg.inv(eye - mix)
        except np.linalg.LinAlgError as exc:
            raise _lr_error("broke down", residual(x, nodes)) from exc
        pair = stack_matmul(factor, stack_matmul(pair, pair))
        step = stack_matmul(trail, pair)
        if not np.isfinite(step).all():
            raise _lr_error("diverged", residual(x, nodes))
        x = x + step
        trail = stack_matmul(trail, pair[::-1])
        done = (np.max(np.abs(step), axis=(-2, -1))
                <= _INCREMENT_TOL * np.max(np.abs(x), axis=(-2, -1))).all(0)
        if done.any():
            x_out[:, nodes[done]] = x[:, done]
            if done.all():
                return x_out
            nodes = nodes[~done]
            pair, x, trail = pair[:, ~done], x[:, ~done], trail[:, ~done]
    raise _lr_error(f"did not settle in {_MAX_ITERATIONS} sweeps",
                    residual(x, nodes))


def _lr_error(what, residuals):
    worst = float(np.max(residuals))
    return IterationLimitError(
        f"logarithmic reduction {what} (residual {worst:.3e})",
        residual=worst)


def h0(blocks, s, g, ghat):
    """Local-time kernel H0(s) = -(A0 - sI + A1 G(s) + A_minus1 Ghat(s))^{-1}.

    For s = 0 this exists only away from null recurrence, where the inner
    matrix turns singular; that case fails fast.  ``s`` may be an array,
    with G and Ghat stacked in its shape.
    """
    if np.any(np.asarray(s) == 0):
        require_not_null_recurrent(blocks, "the s=0 local kernel H0")
    eye = np.eye(blocks.n)
    inner = (blocks.A0 - np.asarray(s)[..., None, None] * eye
             + stack_matmul(blocks.A1, g)
             + stack_matmul(blocks.A_minus1, ghat))
    try:
        return -np.linalg.inv(inner)
    except np.linalg.LinAlgError as exc:
        raise AsymptoticsUndefinedError(
            "H0 undefined: local kernel singular (null-recurrent model at s=0)"
        ) from exc


def gmatrices(blocks, s=0.0):
    """Solve both quadratic equations at s and bundle G, Ghat, H0.

    ``s`` is one transform variable or an array of them, such as the 41
    nodes of one Laplace inversion band; for an array every node is solved
    in the same stacked operations, and the matrices carry the shape of
    ``s`` as leading axes.

    Raises
    ------
    StructuralError
        If a block holds a NaN or infinite entry.
    ValueError
        If an s is not finite, is negative or is complex with a
        nonpositive real part.
    IterationLimitError
        If the reduction breaks down, diverges or does not settle.
    AsymptoticsUndefinedError
        If s = 0 and the model is null recurrent (H0 singular).
    """
    require_finite(blocks)
    s = _check_s(s)
    (g, ghat), res = _solve_pair(blocks, s)
    s = s[()] if s.ndim == 0 else s
    return GMatrices(s=s, G=g, Ghat=ghat, H0=h0(blocks, s, g, ghat),
                     residual_G=float(res[0].max()),
                     residual_Ghat=float(res[1].max()))


def rate_matrices(blocks):
    """Sojourn-rate matrices (R, Rhat) from the s = 0 passage matrices.

    R records the expected sojourn rate one level up per unit of local time
    in the current level, Rhat the same one level down:

        R = A1 (-(A0 + A1 G))^{-1},   Rhat = A_minus1 (-(A0 + A_minus1 Ghat))^{-1}.
    """
    require_not_null_recurrent(blocks, "the sojourn-rate matrices")
    (g, ghat), _ = _solve_pair(blocks, _check_s(0.0))
    try:
        r = blocks.A1 @ np.linalg.inv(-(blocks.A0 + blocks.A1 @ g))
        rhat = blocks.A_minus1 @ np.linalg.inv(
            -(blocks.A0 + blocks.A_minus1 @ ghat))
    except np.linalg.LinAlgError as exc:
        raise AsymptoticsUndefinedError(
            "rate matrices undefined: inner matrix singular") from exc
    return r, rhat


def require_not_null_recurrent(blocks, what="asymptotic quantities"):
    """Raise :class:`AsymptoticsUndefinedError` for null-recurrent models."""
    if blocks.drift.tag is Drift.NULL_RECURRENT:
        raise AsymptoticsUndefinedError(
            f"{what} undefined for a null-recurrent model")
