"""Seeded workload inputs: models, rewards and the CLI jobs that use them.

Everything here is built by the benchmark itself, so that no change to the
program can alter a workload:

* the MAP/PH/1/C queue of the paper from its own Kronecker products, in its
  high-blocking form and in the swapped low-blocking form;
* random models from the benchmark's own copy of the uniform-rate draw,
  with drift bound 0.02.  The acceptance suite's ``min_decay`` filter
  (``tests/test_acceptance.py::model_grid``) is deliberately not applied:
  it keeps only draws on which the difference-equation route is accurate,
  and would hide exactly the accuracy loss the benchmark has to count.

The seed draws the random rates and rewards, the passage targets and the
transient blocks and horizons.  The shape of each workload
(which command runs on which kind of model at which capacity) is fixed, so
that two seeds ask for the same amount of work.
"""

import json
from dataclasses import dataclass

import numpy as np

MIN_DRIFT = 0.02
T_GRID = "0.5:10:0.5"
# Revenue per admitted (or rejected) customer and per customer-time in the
# queue's reward jobs: unit values, not drawn, so that every seed asks the
# same accuracy of R(t), whose size grows with gamma C.
THETA, GAMMA = 1.0, 1.0
HORIZONS = (0.5, 2.0, 10.0)

# Why each workload exists; printed with the results.
WHY = {
    "asymptotic": "long-run D, passage times and pi through both "
                  "structured routes, as the paper cross-checks them",
    "transient": "finite-horizon results by Laplace inversion: one block "
                 "D(t)_{K,L} by both routes, and the paper's revenue curves "
                 "R(t) on a t-grid",
}


@dataclass(frozen=True)
class Model:
    """A finite QBD in the CLI's JSON model format."""

    name: str
    blocks: dict          # A_minus1, A0, A1, B0, C0 as float arrays
    C: int
    reward: tuple = None  # per-level reward vectors, or None

    @property
    def n(self):
        return self.blocks["A0"].shape[0]

    def to_json(self):
        data = {"n": self.n, "C": self.C,
                "blocks": {k: v.tolist() for k, v in self.blocks.items()}}
        if self.reward is not None:
            data["reward"] = {"g": [v.tolist() for v in self.reward]}
        return json.dumps(data)


@dataclass(frozen=True)
class Job:
    """One `qbdr` command on one model, and what its output must match.

    ``route`` names the command and method.  ``check`` names the
    reference: ("deviation",), ("stationary",), ("passage", level, phase),
    ("transient", t, k, level) or ("reward", rewards) with rewards a tuple
    of per-level vectors.
    """

    route: str
    model: Model
    args: tuple
    check: tuple

    @property
    def name(self):
        return f"{self.model.name}: qbdr {' '.join(self.args)}"


def mapph_blocks(swapped=False):
    """Level blocks of the paper's MAP/PH/1/C queue, n = 4.

    PH-renewal arrivals and PH services; ``swapped`` exchanges the two
    laws, which turns the high-blocking queue into a low-blocking one.
    """
    arr_tau = np.array([0.8, 0.2])
    arr_t = np.array([[-10.0, 2.0], [1.0, -6.0]])
    srv_tau = np.array([0.4, 0.6])
    srv_t = np.array([[-3.0, 2.0], [1.0, -4.0]])
    if swapped:
        arr_tau, srv_tau, arr_t, srv_t = srv_tau, arr_tau, srv_t, arr_t
    d0 = arr_t
    d1 = np.outer(-arr_t.sum(axis=1), arr_tau)
    i2 = np.eye(2)
    restart = np.outer(-srv_t.sum(axis=1), srv_tau)
    return {
        "A_minus1": np.kron(i2, restart),
        "A0": np.kron(d0, i2) + np.kron(i2, srv_t),
        "A1": np.kron(d1, i2),
        "B0": np.kron(d0, i2),
        "C0": np.kron(d0 + d1, i2) + np.kron(i2, srv_t),
    }


def phase_stationary(blocks):
    """Stationary vector alpha of the phase generator A_minus1 + A0 + A1."""
    a = blocks["A_minus1"] + blocks["A0"] + blocks["A1"]
    n = a.shape[0]
    system = np.vstack([a.T, np.ones(n)])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    return np.linalg.lstsq(system, rhs, rcond=None)[0]


def mean_drift(blocks):
    alpha = phase_stationary(blocks)
    return float(alpha @ (blocks["A1"] - blocks["A_minus1"]).sum(axis=1))


def random_blocks(rng, n):
    """Off-diagonal rates uniform on [0, 1]; boundary blocks fold the
    missing neighbour into the local block.  Draws within MIN_DRIFT of
    null recurrence are redrawn; no other filter is applied."""
    for _ in range(1000):
        down = rng.uniform(0.0, 1.0, (n, n))
        up = rng.uniform(0.0, 1.0, (n, n))
        local = rng.uniform(0.0, 1.0, (n, n))
        np.fill_diagonal(local, 0.0)
        local -= np.diag(down.sum(axis=1) + local.sum(axis=1)
                         + up.sum(axis=1))
        blocks = {"A_minus1": down, "A0": local, "A1": up,
                  "B0": local + down, "C0": local + up}
        if abs(mean_drift(blocks)) >= MIN_DRIFT:
            return blocks
    raise RuntimeError("no draw away from null recurrence")


def lost_revenue(blocks, C, theta):
    """Revenue lost to blocking: theta A1 1 at level C, zero below."""
    n = blocks["A0"].shape[0]
    return tuple([np.zeros(n)] * C + [theta * blocks["A1"].sum(axis=1)])


def gained_revenue(blocks, C, theta, gamma):
    """theta A1 1 + gamma k 1 below capacity, gamma C 1 at capacity."""
    n = blocks["A0"].shape[0]
    entry = theta * blocks["A1"].sum(axis=1)
    return tuple([entry + gamma * k for k in range(C)]
                 + [np.full(n, gamma * C)])


class _Draw:
    """Names and draws the models of one workload from one seed."""

    def __init__(self, workload, seed):
        self.rng = np.random.default_rng(
            [seed, list(WORKLOADS).index(workload)])

    def queue(self, C, swapped=False):
        name = f"mapph-{'low' if swapped else 'high'}-C{C}"
        return Model(name, mapph_blocks(swapped), C)

    def random(self, n, C, embedded_reward=False):
        blocks = random_blocks(self.rng, n)
        reward = None
        if embedded_reward:
            reward = tuple(self.rng.uniform(0.0, 2.0, n) for _ in range(C + 1))
        return Model(f"random-n{n}-C{C}", blocks, C, reward)

    def target(self, model):
        return (int(self.rng.integers(0, model.C + 1)),
                int(self.rng.integers(0, model.n)))


def _asymptotic(draw):
    jobs = []
    for m in (draw.queue(30), draw.queue(40, swapped=True),
              draw.random(2, 60), draw.random(3, 40)):
        jobs.append(Job("deviation-diffeq", m,
                        ("deviation", "--method", "diffeq"), ("deviation",)))
    for m in (draw.queue(80), draw.random(4, 60)):
        jobs.append(Job("deviation-perturb", m,
                        ("deviation", "--method", "perturb"), ("deviation",)))
    for m in (draw.queue(60), draw.queue(80, swapped=True),
              draw.random(3, 80), draw.random(4, 50)):
        level, phase = draw.target(m)
        jobs.append(Job("passage", m, ("passage", "--level", str(level),
                                       "--phase", str(phase)),
                        ("passage", level, phase)))
    for m in (draw.queue(80), draw.random(2, 80)):
        jobs.append(Job("stationary", m, ("stationary",), ("stationary",)))
    return jobs


def _transient(draw):
    jobs = []
    models = [draw.queue(15), draw.queue(25, swapped=True),
              draw.random(2, 40), draw.random(3, 20)]
    for method in ("diffeq", "perturb"):
        for m, t in zip(models, draw.rng.permutation(HORIZONS * 2)):
            k, level = (int(x) for x in draw.rng.integers(0, m.C + 1, 2))
            jobs.append(Job(f"transient-{method}", m,
                            ("deviation", "--method", method,
                             "--t", repr(float(t)), "--block", f"{k},{level}"),
                            ("transient", float(t), k, level)))
    # The paper's revenue curves: the O(C) vector path through the same
    # transform layers, at 20 x 53 Laplace nodes per job.
    lost, gained = draw.queue(60), draw.queue(60, swapped=True)
    jobs.append(Job("reward-lost", lost,
                    ("reward", "--t-grid", T_GRID, "--theta", str(THETA)),
                    ("reward", lost_revenue(lost.blocks, lost.C, THETA))))
    jobs.append(Job("reward-gained", gained,
                    ("reward", "--t-grid", T_GRID, "--theta", str(THETA),
                     "--gamma", str(GAMMA)),
                    ("reward", gained_revenue(gained.blocks, gained.C, THETA,
                                              GAMMA))))
    m = draw.random(3, 60, embedded_reward=True)
    jobs.append(Job("reward-embedded", m, ("reward", "--t-grid", T_GRID),
                    ("reward", m.reward)))
    return jobs


WORKLOADS = {
    "asymptotic": _asymptotic,
    "transient": _transient,
}


def build_workload(name, seed):
    """The job list of one workload for one seed."""
    return WORKLOADS[name](_Draw(name, seed))
