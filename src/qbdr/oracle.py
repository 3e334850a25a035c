"""Brute-force reference computations on the dense generator.

Everything here works directly on an assembled generator matrix with plain
dense linear algebra, deliberately independent of the structured solvers in
the rest of the package, so the two paths can be checked against each other.
The transient quantities are closed forms, each one matrix exponential
whatever t is: D(t) = D - exp(q t) D and R(t) from the exponential of the
generator bordered by the reward rates.  All routines are O(N^3) in the
state count N and refuse to run above N = 2000.
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
    """Finite-horizon deviation matrix D(t) = int_0^t (exp(q u) - 1 pi) du
    in closed form.

    q D = 1 pi - I makes the integrand -d/du exp(q u) D, so
    D(t) = D - exp(q t) D: one matrix exponential, with D from
    :func:`oracle_deviation`, whose identity check covers this one too.
    """
    q = _check_size(q)
    if t < 0:
        raise ValueError("t must be nonnegative")
    dev = oracle_deviation(q, pi)
    import scipy.linalg  # slow to import; this module is its only user
    return dev - scipy.linalg.expm(q * t) @ dev


def oracle_reward(q, g, t):
    """Cumulative expected reward R(t) = int_0^t exp(q u) g du, the solution
    of R' = qR + g with R(0) = 0, in closed form.

    R(t) is the first m entries of the last column of
    exp(t [[q, g], [0, 0]]) (Van Loan 1978), so it needs neither pi nor D.

    Parameters
    ----------
    q : (m, m) ndarray
    g : (m,) ndarray
        Reward rate per state.
    t : float

    Returns
    -------
    (m,) ndarray.
    """
    q = _check_size(q)
    if t < 0:
        raise ValueError("t must be nonnegative")
    m = q.shape[0]
    aug = np.zeros((m + 1, m + 1))
    aug[:m, :m], aug[:m, m] = q, g
    import scipy.linalg
    return scipy.linalg.expm(aug * t)[:m, m]


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
