"""Tests of the benchmark itself: inputs, references, failure counting and
the traced self times.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
from job import HostSpeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from inputs import Job, Model, build_workload  # noqa: E402
from reference import Reference, generator, stationary  # noqa: E402

from qbdr import (oracle_deviation, oracle_passage, oracle_reward,  # noqa: E402
                  oracle_stationary, oracle_transient_deviation)
from qbdr.cli import main as cli_main  # noqa: E402


def small_model(reward=False):
    rng = np.random.default_rng(7)
    blocks = inputs.random_blocks(rng, 2)
    g = tuple(rng.uniform(0.0, 2.0, 2) for _ in range(5)) if reward else None
    return Model("random-n2-C4", blocks, 4, g)


def write_model(model, tmp_path):
    path = tmp_path / f"{model.name}.json"
    path.write_text(model.to_json())
    return path


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_inputs_repeat_for_a_seed(workload):
    first = build_workload(workload, 3)
    again = build_workload(workload, 3)
    other = build_workload(workload, 4)
    assert [(j.name, j.model.to_json()) for j in first] == \
        [(j.name, j.model.to_json()) for j in again]
    assert [j.model.to_json() for j in first] != \
        [j.model.to_json() for j in other]
    # the shape of the work does not depend on the seed
    assert [(j.route, j.model.n, j.model.C) for j in first] == \
        [(j.route, j.model.n, j.model.C) for j in other]


def test_references_match_the_program_oracle():
    model = small_model(reward=True)
    q = generator(model)
    pi = oracle_stationary(q)
    n = model.n

    def ref(route, args, check):
        return Reference(Job(route, model, args, check)).expected

    assert np.max(np.abs(ref("stationary", (), ("stationary",)) - pi)) < 1e-10
    dev = oracle_deviation(q, pi)
    assert np.max(np.abs(ref("d", (), ("deviation",)) - dev)) < 1e-10
    for level, phase in ((0, 0), (2, 1), (4, 1)):
        got = ref("passage", (), ("passage", level, phase))
        assert np.max(np.abs(got - oracle_passage(q, level * n + phase))) \
            < 1e-10
    dev_t = oracle_transient_deviation(q, pi, 1.5)
    got = ref("t", (), ("transient", 1.5, 3, 1))
    assert np.max(np.abs(got - dev_t[3 * n:4 * n, n:2 * n])) < 1e-10
    curve = ref("reward", ("reward", "--t-grid", "0.5:2:0.5"),
                ("reward", model.reward))
    alpha = inputs.phase_stationary(model.blocks)
    g = np.concatenate(model.reward)
    for row, t in zip(curve, (0.5, 1.0, 1.5, 2.0)):
        expected = oracle_reward(q, g, t).reshape(model.C + 1, n) @ alpha
        assert np.max(np.abs(row - expected)) < 1e-10


def test_stationary_reference_is_the_kernel():
    q = generator(small_model())
    pi = stationary(q)
    assert abs(pi.sum() - 1.0) < 1e-14
    assert np.max(np.abs(pi @ q)) < 1e-14


@pytest.mark.parametrize("args,check", [
    (("deviation", "--method", "perturb"), ("deviation",)),
    (("passage", "--level", "2", "--phase", "1"), ("passage", 2, 1)),
    (("deviation", "--method", "perturb", "--t", "1.5", "--block", "3,1"),
     ("transient", 1.5, 3, 1)),
])
def test_corrupted_csv_fails(tmp_path, args, check):
    model = small_model()
    job = Job("x", model, args, check)
    out = tmp_path / "out.csv"
    assert cli_main([*args, "--model", str(write_model(model, tmp_path)),
                     "--output", str(out)]) == 0
    reference = Reference(job)
    assert reference.error(out) <= 1.0
    lines = out.read_text().splitlines()
    head, *rows = lines
    fields = rows[-1].split(",")
    fields[-1] = repr(float(fields[-1]) * 1.001 + 1e-3)
    out.write_text("\n".join([head, *rows[:-1], ",".join(fields)]) + "\n")
    assert reference.error(out) > 1.0
    out.write_text("\n".join([head, *rows[:-1]]) + "\n")
    assert reference.error(out) == float("inf")
    out.write_text("\n".join([head, *rows, rows[0]]) + "\n")
    assert reference.error(out) == float("inf")


def corrupt(path):
    head, first, *rest = path.read_text().splitlines()
    fields = first.split(",")
    fields[-1] = repr(float(fields[-1]) + 0.01)
    path.write_text("\n".join([head, ",".join(fields), *rest]) + "\n")


def test_runner_counts_a_corrupted_output(tmp_path):
    model = small_model()
    jobs = [Job("stationary", model, ("stationary",), ("stationary",))]
    runner = run.Runner(jobs, tmp_path)
    runner.run_round(0, False)
    runner.run_round(1, False)
    assert runner.verify() == []
    assert not (tmp_path / "job0.r1.csv").exists()  # same bytes as round 0
    corrupt(tmp_path / "job0.r0.csv")
    assert len(runner.verify()) == 2
    # the job failed in two runs; it counts once
    assert run.end_to_end([runner.results], runner.results)[
        "fail_frac"][:3:2] == (1.0, 1)


def test_runner_checks_an_output_that_differs_from_round_0(tmp_path):
    model = small_model()
    jobs = [Job("stationary", model, ("stationary",), ("stationary",))]
    runner = run.Runner(jobs, tmp_path)
    runner.run_round(0, False)
    path, _ = runner.first[0]
    runner.first[0] = (path, "digest of some other output")
    runner.run_round(1, False)
    corrupt(tmp_path / "job0.r1.csv")
    assert [f["round"] for f in runner.verify()] == [1]


def test_nonzero_exit_counts_as_failure(tmp_path):
    model = small_model()
    jobs = [Job("passage", model, ("passage", "--level", "9", "--phase", "0"),
                ("passage", 0, 0))]
    runner = run.Runner(jobs, tmp_path)
    runner.run_round(0, False)
    failures = runner.verify()
    assert len(failures) == 1 and failures[0]["exit_code"] != 0


def test_traced_self_times_sum_to_traced_wall(tmp_path):
    model = small_model()
    job = Job("transient-diffeq", model,
              ("deviation", "--method", "diffeq", "--t", "2.0",
               "--block", "1,3"), ("transient", 2.0, 1, 3))
    runner = run.Runner([job], tmp_path)
    plain, traced = runner.run_round(1, True)
    assert not plain["traced"] and traced["traced"]
    assert not runner.verify()
    stats = traced["trace"]["stats"]
    self_sum = sum(s["self_s"] for s in stats.values())
    overhead = abs(traced["wall_s"] - plain["wall_s"])
    assert abs(self_sum - traced["wall_s"]) <= overhead + 1e-3
    assert self_sum == pytest.approx(stats["cli.main"]["total_s"], rel=1e-9)
    # the wrappers reach calls made through every module's namespace
    nodes = 53  # Euler inversion: 40 series + 12 Euler terms + 1
    assert stats["transform.transform_context"]["calls"] == nodes
    assert stats["transform.deviation_transform_block"]["calls"] == \
        nodes * (model.C + 1) ** 2
    assert stats["transform.invert_laplace"]["calls"] == 1
    spans = traced["trace"]["spans"]
    assert all(s[0] != "transform.deviation_transform_block" for s in spans)
    assert spans[0][0] == "cli.main" and spans[0][3] == -1
    assert all(0 <= s[3] < i for i, s in enumerate(spans) if i)
    metrics = layers.per_round([traced], lambda _: model.n)
    assert metrics["transform.block_yield"][0] == pytest.approx(
        1 / (model.C + 1) ** 2)
    assert metrics["cli.rows_written"][0] == model.n ** 2


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "transient",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_host_speed_samples_are_taken_out_of_the_span():
    speed = HostSpeed()
    speed.start()
    try:
        end = time.monotonic() + 0.45
        while time.monotonic() < end:
            pass
    finally:
        speed.stop()
    assert len(speed.samples) >= 3
    # each sample's pause is the kernel plus a little bookkeeping
    assert sum(speed.samples) <= speed.paused_wall \
        <= sum(speed.samples) + 1e-3 * len(speed.samples)


def record(job, wall, calib):
    return {"job": job, "wall_s": wall, "cpu_s": wall, "setup_s": 0.1,
            "peak_rss_kb": 1024, "calib": [calib], "failed": False}


def test_times_are_scaled_to_the_reference_speed():
    ref = run.CALIBRATION_S
    # job 0 ran at half speed in one round, job 1 at reference speed twice
    # and once disturbed
    results = [record(0, 2.0, 2 * ref), record(0, 1.0, ref),
               record(1, 3.0, ref), record(1, 3.0, ref), record(1, 9.0, ref)]
    metrics = run.end_to_end([results[:3], results[3:]], results)
    assert metrics["wall_s"][0] == pytest.approx(1.0 + 3.0)
    assert metrics["raw_wall_s"][0] == pytest.approx((6.0 + 12.0) / 2)
    assert metrics["setup_s"][0] == pytest.approx(0.1)


def test_benchmark_json_names_the_workloads_and_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    results = [record(0, 1.0, run.CALIBRATION_S)]
    end_to_end = run.end_to_end([results], results)
    assert {m["name"] for m in spec["end_to_end"]} == \
        set(end_to_end) - set(run.PRINTED_ONLY)
