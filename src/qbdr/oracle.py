"""Brute-force reference computations on the dense generator.

Everything here works directly on an assembled generator matrix with plain
dense linear algebra, deliberately independent of the structured solvers in
the rest of the package, so the two paths can be checked against each other.
All routines are O(N^3) in the state count N and refuse to run above
N = 2000.
"""

import numpy as np

from .errors import NumericalError, NumericalRankError, StructuralError

__all__ = [
    "oracle_stationary",
    "oracle_deviation",
    "oracle_transient_deviation",
    "oracle_reward",
    "oracle_passage",
]

_MAX_STATES = 2000

# Step sizes of the quadrature and ODE oracles, each divided by
# max(1, ||Q||_max) so that stiff models are integrated with
# proportionally finer grids.
_QUADRATURE_STEP = 1e-3
_ODE_STEP = 1e-3


def _check_size(q):
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise StructuralError(f"generator must be square, got shape {q.shape}")
    if q.shape[0] > _MAX_STATES:
        raise StructuralError(
            f"dense oracle limited to {_MAX_STATES} states, got {q.shape[0]}")
    return q


def oracle_stationary(q):
    """Stationary distribution as the normalized left null vector of q.

    Solves pi q = 0, pi 1 = 1 by a direct solve with the last column
    replaced by the normalization; falls back to an SVD null vector if the
    residual is poor.

    Raises
    ------
    NumericalRankError
        If the kernel of q is not one-dimensional.
    """
    q = _check_size(q)
    m = q.shape[0]
    if m == 1:
        return np.ones(1)
    sing = np.linalg.svd(q, compute_uv=False)
    null_dim = int(np.count_nonzero(sing <= m * np.finfo(float).eps * sing[0]))
    if null_dim != 1:
        raise NumericalRankError(
            f"generator kernel dimension {null_dim}, expected 1")
    a = q.T.copy()
    a[-1, :] = 1.0
    b = np.zeros(m)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(a, b)
        for _ in range(2):  # iterative refinement keeps ||pi q|| near eps
            pi = pi + np.linalg.solve(a, b - a @ pi)
    except np.linalg.LinAlgError:
        pi = None
    if pi is None or np.max(np.abs(pi @ q)) > 1e-12:
        u, _, _ = np.linalg.svd(q.T)
        alt = u[:, -1]
        alt = alt / alt.sum()
        if pi is None or np.max(np.abs(alt @ q)) < np.max(np.abs(pi @ q)):
            pi = alt
    pi = np.where(np.abs(pi) < 1e-15, 0.0, pi)
    return pi / pi.sum()


def oracle_deviation(q, pi=None):
    """Deviation matrix via the fundamental-matrix inverse.

    Computes D = (1 pi - q)^{-1} - 1 pi and verifies the three defining
    identities q D = 1 pi - I, pi D = 0 and D 1 = 0 before returning.

    Raises
    ------
    NumericalError
        If the verification residuals exceed 1e-10 (ill conditioning).
    """
    q = _check_size(q)
    if pi is None:
        pi = oracle_stationary(q)
    m = q.shape[0]
    one_pi = np.outer(np.ones(m), pi)
    dev = np.linalg.inv(one_pi - q) - one_pi
    scale = max(1.0, np.abs(q).max())
    res = max(
        np.max(np.abs(q @ dev - (one_pi - np.eye(m)))) / scale,
        np.max(np.abs(pi @ dev)),
        np.max(np.abs(dev @ np.ones(m))),
    )
    if res > 1e-10:
        raise NumericalError(
            f"deviation identities violated (residual {res:.3e}); "
            "generator too ill-conditioned for the dense oracle")
    return dev


def oracle_transient_deviation(q, pi=None, t=0.0):
    """Finite-horizon deviation matrix by composite Simpson quadrature.

    Integrates exp(q u) - 1 pi over [0, t] on a uniform grid, with the
    matrix exponential of one step computed once by scaling-and-squaring and
    propagated multiplicatively.  The quadrature error is O(h^4).
    """
    q = _check_size(q)
    if pi is None:
        pi = oracle_stationary(q)
    m = q.shape[0]
    if t == 0.0:
        return np.zeros((m, m))
    if t < 0:
        raise ValueError("t must be nonnegative")
    h = _QUADRATURE_STEP / max(1.0, np.abs(q).max())
    steps = int(np.ceil(t / h))
    steps += steps % 2  # Simpson needs an even interval count
    h = t / steps
    one_pi = np.outer(np.ones(m), pi)
    import scipy.linalg  # slow to import; this is its only user
    step_exp = scipy.linalg.expm(q * h)
    acc = np.eye(m) - one_pi  # integrand at u = 0
    cur = np.eye(m)
    for j in range(1, steps):
        cur = cur @ step_exp
        acc += (4.0 if j % 2 else 2.0) * (cur - one_pi)
    cur = cur @ step_exp
    acc += cur - one_pi
    return acc * (h / 3.0)


def oracle_reward(q, g, t, cross_check=False):
    """Cumulative expected reward R(t) by RK4 integration of R' = qR + g.

    Parameters
    ----------
    q : (m, m) ndarray
    g : (m,) ndarray
        Reward rate per state.
    t : float
    cross_check : bool
        Also evaluate (pi g) 1 t + D(t) g with the quadrature oracle and
        raise if the two disagree by more than 1e-6 (1 + scale).

    Returns
    -------
    (m,) ndarray.
    """
    q = _check_size(q)
    g = np.asarray(g, dtype=float)
    if t < 0:
        raise ValueError("t must be nonnegative")
    m = q.shape[0]
    r = np.zeros(m)
    if t > 0:
        h = _ODE_STEP / max(1.0, np.abs(q).max())
        steps = max(1, int(np.ceil(t / h)))
        h = t / steps
        for _ in range(steps):
            k1 = q @ r + g
            k2 = q @ (r + 0.5 * h * k1) + g
            k3 = q @ (r + 0.5 * h * k2) + g
            k4 = q @ (r + h * k3) + g
            r = r + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    if cross_check:
        pi = oracle_stationary(q)
        alt = (pi @ g) * t * np.ones(m) + oracle_transient_deviation(
            q, pi, t) @ g
        gap = np.max(np.abs(alt - r))
        if gap > 1e-6 * (1.0 + np.max(np.abs(r))):
            raise NumericalError(
                f"reward oracle cross-check failed (gap {gap:.3e})")
    return r


def oracle_passage(q, target):
    """Mean first passage times to one target state.

    Solves the taboo system (q restricted to non-target states) m = -1;
    the target entry is zero.
    """
    q = _check_size(q)
    m = q.shape[0]
    target = int(target)
    if not 0 <= target < m:
        raise ValueError(f"target {target} out of range for {m} states")
    keep = np.array([i for i in range(m) if i != target])
    sub = q[np.ix_(keep, keep)]
    try:
        times = np.linalg.solve(sub, -np.ones(m - 1))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"censored passage system singular: {exc}") from exc
    out = np.zeros(m)
    out[keep] = times
    return out
