"""Small shared linear-algebra helpers."""

import numpy as np

from .errors import NumericalRankError

__all__ = ["matrix_powers", "left_null_vector", "censor_generator",
           "solve_refined", "stack_matmul"]


def stack_matmul(a, b):
    """a @ b for stacks of small matrices, the complex ones through real
    products.

    numpy's stacked matmul makes one BLAS call per matrix of a complex
    stack, about 0.5 us each at n = 4, while its stacked real products
    have no such per-matrix cost, about 0.05 us (2-core x86 host, one
    BLAS thread).  So a complex ``b``, made contiguous, is viewed as a
    real stack (..., k, 2m), real and imaginary parts side by side: a
    real ``a`` takes one real product, a complex one two, a.real @ bv and
    a.imag @ bv, recombined in place.  A complex ``a`` times a real ``b``
    is the transposed product (b^T a^T)^T.  Real operands, 1-d operands
    and matrix-vector products go straight to ``@``: a real product is
    then exactly a @ b, and for ``b`` of one column the two real products
    cost more than the BLAS calls (37 us against 24 us for 265 nodes at
    n = 4).  So do complex products whose ``b`` is wider than tall, such
    as the sweeps of a full D(t) (m = n(C+1)): there the two real
    products and the recombination cost more than the BLAS calls too.
    ``a`` and ``b`` are arrays.
    """
    if ((a.dtype.kind != "c" and b.dtype.kind != "c") or a.ndim < 2
            or b.ndim < 2 or b.shape[-1] == 1):
        return a @ b
    if b.dtype.kind != "c":
        return stack_matmul(b.swapaxes(-1, -2),
                            a.swapaxes(-1, -2)).swapaxes(-1, -2)
    if a.dtype.kind == "c" and b.shape[-1] > b.shape[-2]:
        return a @ b
    bv = np.ascontiguousarray(b).view(b.real.dtype)
    if a.dtype.kind != "c":
        return (a @ bv).view(np.result_type(a, b))
    out = a.real @ bv
    im = a.imag @ bv
    out[..., ::2] -= im[..., 1::2]
    out[..., 1::2] += im[..., ::2]
    return out.view(np.result_type(a, b))


def solve_refined(a, b):
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
        for _ in range(2):
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


def left_null_vector(a):
    """Left null vector of a matrix with a one-dimensional kernel.

    Singular values below 1e-9 sigma_max count as zero, which leaves room
    for matrices assembled from iteratively solved factors, whose kernel
    direction is only as exact as the solver tolerance.

    Parameters
    ----------
    a : (m, m) ndarray
        Matrix whose left kernel is sought.

    Returns
    -------
    (m,) ndarray, scaled to unit 1-norm with nonnegative dominant sign.

    Raises
    ------
    NumericalRankError
        If the numerical kernel is not one-dimensional.
    """
    m = a.shape[0]
    u, sing, _ = np.linalg.svd(a)
    small = sing <= 1e-9 * max(sing[0], 1e-300)
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
