"""Dense references for every job, and the check of a job's CSV output.

The references use plain numpy/scipy on the assembled generator and share
no code with the program (not even ``qbdr.oracle``):

* pi by a null-space solve (SVD) of the generator;
* D = (1 pi - Q)^{-1} - 1 pi;
* mean first passage times by a subtraction-free taboo solve;
* D(t) = (I - e^{Qt}) D and R(t) = (pi g) t 1 + D(t) g.

Tolerances follow the acceptance suite: 1e-8 relative (Frobenius) for D, pi
and passage columns, 1e-5 absolute for D(t) and R(t).
"""

import numpy as np
import scipy.linalg

from inputs import phase_stationary

REL_TOL = 1e-8
ABS_TOL = 1e-5


def generator(model):
    b, n, C = model.blocks, model.n, model.C
    q = np.zeros((n * (C + 1), n * (C + 1)))
    for k in range(C + 1):
        rows = slice(k * n, (k + 1) * n)
        q[rows, rows] = b["B0"] if k == 0 else b["C0"] if k == C else b["A0"]
        if k > 0:
            q[rows, (k - 1) * n:k * n] = b["A_minus1"]
        if k < C:
            q[rows, (k + 1) * n:(k + 2) * n] = b["A1"]
    return q


def stationary(q):
    """pi from the one-dimensional null space of Q^T."""
    kernel = scipy.linalg.null_space(q.T)
    if kernel.shape[1] != 1:
        raise ValueError(f"generator kernel has dimension {kernel.shape[1]}")
    pi = kernel[:, 0]
    return pi / pi.sum()


def deviation(q, pi):
    one_pi = np.outer(np.ones(q.shape[0]), pi)
    return np.linalg.inv(one_pi - q) - one_pi


def passage(q, target):
    """Mean first passage times to ``target`` from every state.

    Solves the taboo system A m = 1, A = -Q without the target, by
    subtraction-free elimination (the Grassmann-Taksar-Heyman idea): A is
    an M-matrix, and carrying its row sums (the rates into the target)
    instead of recomputing pivots makes every update a sum of nonnegative
    terms.  The row sums are taken as the rates into the target, that is
    with each diagonal entry read as minus its row's off-diagonal sum, as a
    generator defines it.  Each time comes out to high relative accuracy
    even where passage times reach 1e20 and a plain LU solve of the same
    system returns noise (the high-blocking queue at C >= 60).
    """
    keep = np.arange(q.shape[0]) != target
    a = -q[np.ix_(keep, keep)]
    size = a.shape[0]
    sums = q[keep, target].copy()   # rates into the target, >= 0
    off = np.minimum(a - np.diag(np.diag(a)), 0.0)   # off-diagonal, <= 0
    b = np.ones(size)
    pivots = np.empty(size)
    for k in range(size):
        pivots[k] = sums[k] - off[k, k + 1:].sum()
        below = slice(k + 1, size)
        factor = -off[below, k] / pivots[k]           # >= 0
        off[below, below] += np.outer(factor, off[k, below])
        np.fill_diagonal(off[below, below], 0.0)
        sums[below] += factor * sums[k]
        b[below] += factor * b[k]
    m_keep = np.empty(size)
    for k in range(size - 1, -1, -1):
        m_keep[k] = (b[k] - off[k, k + 1:] @ m_keep[k + 1:]) / pivots[k]
    m = np.zeros(q.shape[0])
    m[keep] = m_keep
    return m


class Reference:
    """Reference values of one job, computed once and reused for every
    round that repeats the job."""

    def __init__(self, job):
        self.job = job
        model = job.model
        q = generator(model)
        pi = stationary(q)
        kind = job.check[0]
        if kind == "stationary":
            self.expected = pi
        elif kind == "deviation":
            self.expected = deviation(q, pi)
        elif kind == "passage":
            _, level, phase = job.check
            self.expected = passage(q, level * model.n + phase)
        elif kind == "transient":
            _, t, k, level = job.check
            n = model.n
            dev_t = (np.eye(q.shape[0]) - scipy.linalg.expm(q * t)) \
                @ deviation(q, pi)
            self.expected = dev_t[k * n:(k + 1) * n, level * n:(level + 1) * n]
        elif kind == "reward":
            self.expected = self._reward_curve(q, pi, model, job.check[1])
        else:
            raise ValueError(f"unknown check {kind!r}")

    def _reward_curve(self, q, pi, model, rewards):
        """alpha . R(t)_k for every t on the grid and every level k."""
        start, stop, step = (float(x) for x in
                             self.job.args[self.job.args.index("--t-grid")
                                           + 1].split(":"))
        times = np.arange(start, stop + step / 2, step)
        g = np.concatenate(rewards)
        dg = deviation(q, pi) @ g
        alpha = phase_stationary(model.blocks)
        step_exp = scipy.linalg.expm(q * step)
        decayed = scipy.linalg.expm(q * times[0]) @ dg  # e^{Qt} D g
        out = []
        for t in times:
            r = (pi @ g) * t + dg - decayed
            out.append(r.reshape(model.C + 1, model.n) @ alpha)
            decayed = step_exp @ decayed
        self.times = times
        return np.array(out)

    def error(self, path):
        """Error of the CSV at ``path``, on the scale its tolerance uses.

        Returns a float; the job passes when it is at most 1.  A CSV of the
        wrong shape returns infinity.
        """
        try:
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2,
                              dtype=str)
        except (OSError, ValueError):
            return float("inf")
        model, kind = self.job.model, self.job.check[0]
        n, C = model.n, model.C
        try:
            if kind in ("stationary", "passage"):
                got = self._vector(data, n, C)
                return _rel(got, self.expected)
            if kind == "deviation":
                got = self._matrix(data, n, range(C + 1), range(C + 1))
                return _rel(got, self.expected)
            if kind == "transient":
                _, _, k, level = self.job.check
                got = self._matrix(data, n, [k], [level])
                return _abs(got, self.expected)
            return _abs(self._curve(data, C), self.expected)
        except (ValueError, IndexError):
            return float("inf")

    @staticmethod
    def _vector(data, n, C):
        if data.shape != ((C + 1) * n, 3):
            raise ValueError("wrong shape")
        level, phase = data[:, 0].astype(int), data[:, 1].astype(int)
        _check_range(level, C + 1)
        _check_range(phase, n)
        out = np.full((C + 1) * n, np.nan)
        out[level * n + phase] = data[:, 2].astype(float)
        return out

    @staticmethod
    def _matrix(data, n, row_levels, col_levels):
        row_levels, col_levels = list(row_levels), list(col_levels)
        if data.shape != (len(row_levels) * len(col_levels) * n * n, 5):
            raise ValueError("wrong shape")
        idx = data[:, :4].astype(int)
        if not (np.isin(idx[:, 0], row_levels).all()
                and np.isin(idx[:, 1], col_levels).all()):
            raise ValueError("block outside the request")
        _check_range(idx[:, 2:], n)
        rows = np.searchsorted(row_levels, idx[:, 0]) * n + idx[:, 2]
        cols = np.searchsorted(col_levels, idx[:, 1]) * n + idx[:, 3]
        out = np.full((len(row_levels) * n, len(col_levels) * n), np.nan)
        out[rows, cols] = data[:, 4].astype(float)
        return out

    def _curve(self, data, C):
        if data.shape != (len(self.times) * (C + 1), 3):
            raise ValueError("wrong shape")
        t = data[:, 0].astype(float)
        level = data[:, 1].astype(int)
        _check_range(level, C + 1)
        step_index = np.rint((t - self.times[0])
                             / (self.times[1] - self.times[0])).astype(int)
        if np.max(np.abs(self.times[step_index] - t)) > 1e-9:
            raise ValueError("t outside the grid")
        out = np.full((len(self.times), C + 1), np.nan)
        out[step_index, level] = data[:, 2].astype(float)
        return out


def _check_range(index, size):
    if index.size and (index.min() < 0 or index.max() >= size):
        raise ValueError("index out of range")


def _rel(got, expected):
    """Relative Frobenius error over REL_TOL; NaN (a missing entry) fails."""
    err = np.linalg.norm(got - expected) / np.linalg.norm(expected) / REL_TOL
    return float("inf") if np.isnan(err) else float(err)


def _abs(got, expected):
    """Largest absolute error over ABS_TOL; NaN (a missing entry) fails."""
    err = np.max(np.abs(got - expected)) / ABS_TOL
    return float("inf") if np.isnan(err) else float(err)
