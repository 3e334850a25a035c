"""Small shared linear-algebra helpers."""

import numpy as np

from .errors import NumericalRankError

__all__ = ["matrix_powers", "left_null_vector", "censor_generator",
           "solve_refined"]


def solve_refined(a, b, refinements=2):
    """Row-equilibrated linear solve with extended-precision refinement.

    Boundary systems built from matrix powers can have rows of wildly
    different magnitude; equilibration plus a couple of refinement steps
    (residuals accumulated in long double) keeps the solution accurate far
    beyond what a plain LU solve delivers on such graded systems.  ``a``
    may stack systems along leading axes, (..., m, m); ``b`` is then
    (..., m, k), or (m,) for a single system.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    scale = np.max(np.abs(a), axis=-1, keepdims=True)
    scale[scale == 0.0] = 1.0
    a_s = a / scale
    b_s = b / (scale if b.ndim == a.ndim else scale[..., 0])
    x = np.linalg.solve(a_s, b_s)
    if not np.iscomplexobj(a_s) and not np.iscomplexobj(b_s):
        a_l = a_s.astype(np.longdouble)
        b_l = b_s.astype(np.longdouble)
        for _ in range(refinements):
            residual = b_l - a_l @ x.astype(np.longdouble)
            x = x + np.linalg.solve(a_s, residual.astype(float))
    return x


def matrix_powers(m, kmax):
    """Return the stacked powers [I, m, m^2, ..., m^kmax], shape
    (kmax+1, n, n); a stack of matrices m, shape (..., n, n), gives their
    powers side by side, shape (kmax+1, ..., n, n)."""
    powers = np.empty((kmax + 1,) + m.shape, dtype=m.dtype)
    powers[0] = np.eye(m.shape[-1], dtype=m.dtype)
    for k in range(kmax):
        powers[k + 1] = powers[k] @ m
    return powers


def left_null_vector(a, rank_tol=None):
    """Left null vector of a matrix with a one-dimensional kernel.

    Parameters
    ----------
    a : (m, m) ndarray
        Matrix whose left kernel is sought.
    rank_tol : float, optional
        Singular values below ``rank_tol * sigma_max`` count as zero.  The
        default 1e-9 leaves room for matrices assembled from iteratively
        solved factors, whose kernel direction is only as exact as the
        solver tolerance.

    Returns
    -------
    (m,) ndarray, scaled to unit 1-norm with nonnegative dominant sign.

    Raises
    ------
    NumericalRankError
        If the numerical kernel is not one-dimensional.
    """
    m = a.shape[0]
    if rank_tol is None:
        rank_tol = 1e-9
    u, sing, _ = np.linalg.svd(a)
    small = sing <= rank_tol * max(sing[0], 1e-300)
    n_null = int(np.count_nonzero(small)) + (m - sing.size)
    if n_null != 1:
        raise NumericalRankError(
            f"kernel dimension {n_null}, expected 1 (singular values {sing})"
        )
    # x a = 0  <=>  a^T x = 0  <=>  x in the sigma=0 left singular space
    v = u[:, -1]
    if v.sum() < 0:
        v = -v
    return v / np.abs(v).sum()


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
