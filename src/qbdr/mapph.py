"""MAP/PH/1/C queue builder.

Arrivals follow a Markovian arrival process (D0, D1) with n1 phases,
service times a phase-type law (tau, T) with n2 phases, and at most C
customers fit in the system.  The queue is a QBD on n = n1 * n2 phases
ordered (arrival phase, service phase) with the arrival phase as the outer
Kronecker factor:

    A_minus1 = I kron (t tau)      service completion restarts the PH clock
    A0       = D0 kron I + I kron T
    A1       = D1 kron I           arrival, service phase untouched
    B0       = D0 kron I           empty system: service phase frozen
    C0       = (D0 + D1) kron I + I kron T   arrivals lost at capacity

with t = -T 1 the service exit rates.
"""

import json

import numpy as np

from .errors import ModelParseError, StructuralError
from .model import Frozen, QbdBlocks, RewardSpec

__all__ = [
    "MapParams",
    "PhParams",
    "build_blocks",
    "lost_revenue_rewards",
    "gained_revenue_rewards",
    "params_from_dict",
    "load_params",
]

_TOL = 1e-12


class MapParams(Frozen):
    """Markovian arrival process rates (D0 without, D1 with an arrival)."""

    def __init__(self, D0, D1):
        d0 = np.atleast_2d(np.asarray(D0, float))
        d1 = np.atleast_2d(np.asarray(D1, float))
        if d0.shape != d1.shape or d0.shape[0] != d0.shape[1]:
            raise StructuralError("D0 and D1 must be square and congruent")
        off = d0 - np.diag(np.diag(d0))
        if off.min() < 0 or d1.min() < 0:
            raise StructuralError("MAP rates must be nonnegative")
        if np.max(np.abs((d0 + d1).sum(axis=1))) > _TOL:
            raise StructuralError("D0 + D1 must have zero row sums")
        vars(self).update(D0=d0, D1=d1)

    @property
    def order(self):
        return self.D0.shape[0]


class PhParams(Frozen):
    """Phase-type service law: initial vector tau and sub-generator T, with
    the exit rates t_exit = -T 1 (negative roundoff clipped to 0)."""

    def __init__(self, tau, T):
        tau = np.asarray(tau, float).ravel()
        T = np.atleast_2d(np.asarray(T, float))
        if T.shape != (tau.size, tau.size):
            raise StructuralError("tau and T sizes disagree")
        if tau.min() < 0 or abs(tau.sum() - 1.0) > _TOL:
            raise StructuralError("tau must be a probability vector")
        off = T - np.diag(np.diag(T))
        exit_rates = -T.sum(axis=1)
        if off.min() < 0 or exit_rates.min() < -_TOL:
            raise StructuralError("T must be a proper sub-generator")
        vars(self).update(tau=tau, T=T, t_exit=np.maximum(exit_rates, 0.0))

    @property
    def order(self):
        return self.tau.size


def build_blocks(map_params, ph_params, C):
    """Assemble the QBD blocks of the MAP/PH/1/C queue."""
    if C < 1:
        raise StructuralError("capacity C must be at least 1")
    n1, n2 = map_params.order, ph_params.order
    i1, i2 = np.eye(n1), np.eye(n2)
    restart = np.outer(ph_params.t_exit, ph_params.tau)
    return QbdBlocks(
        n=n1 * n2, C=int(C),
        A_minus1=np.kron(i1, restart),
        A0=np.kron(map_params.D0, i2) + np.kron(i1, ph_params.T),
        A1=np.kron(map_params.D1, i2),
        B0=np.kron(map_params.D0, i2),
        C0=np.kron(map_params.D0 + map_params.D1, i2) + np.kron(i1, ph_params.T),
    )


def lost_revenue_rewards(blocks, theta):
    """Loss rate per state when each rejected customer costs theta.

    Revenue leaks only at full capacity, at the arrival rate:
    g_k = 0 for k < C and g_C = theta A1 1.
    """
    if theta < 0:
        raise ValueError("theta must be nonnegative")
    n, C = blocks.n, blocks.C
    g = [np.zeros(n) for _ in range(C)]
    g.append(theta * (blocks.A1 @ np.ones(n)))
    return RewardSpec(g=tuple(g))


def gained_revenue_rewards(blocks, theta, gamma):
    """Earning rate when admissions pay theta and occupancy gamma per head.

    g_k = theta A1 1 + gamma k 1 below capacity, g_C = gamma C 1.
    """
    if theta < 0 or gamma < 0:
        raise ValueError("theta and gamma must be nonnegative")
    n, C = blocks.n, blocks.C
    entry = theta * (blocks.A1 @ np.ones(n))
    g = [entry + gamma * k * np.ones(n) for k in range(C)]
    g.append(gamma * C * np.ones(n))
    return RewardSpec(g=tuple(g))


def params_from_dict(data):
    """Parse {"map": {...}, "ph": {...}, "C": int} parameter data."""
    try:
        map_params = MapParams(D0=data["map"]["D0"], D1=data["map"]["D1"])
        ph_params = PhParams(tau=data["ph"]["tau"], T=data["ph"]["T"])
        C = int(data["C"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelParseError(f"invalid MAP/PH parameters: {exc}") from exc
    return map_params, ph_params, C


def load_params(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelParseError(f"{path}: {exc}") from exc
    return params_from_dict(data)
