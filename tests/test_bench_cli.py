import csv
import functools
import io
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from qbdr import (assemble_generator, deviation_recursive, gmatrices,
                  last_block_column_diffeq,
                  last_block_column_perturbation, oracle_deviation,
                  oracle_passage, oracle_stationary, passage_column,
                  random_blocks, run_bench, stationary_rmatrix)
from qbdr.bench import REFERENCE_KERNEL_SECONDS, time_interleaved
from qbdr.cli import _matrix_lines, _reward_lines, main, parse
from qbdr.model import save_model
from conftest import mapph_example, scalar_blocks

ARRIVAL = {"D0": [[-10.0, 2.0], [1.0, -6.0]],
           "D1": [[6.4, 1.6], [4.0, 1.0]]}
SERVICE = {"tau": [0.4, 0.6], "T": [[-3.0, 2.0], [1.0, -4.0]]}


@pytest.fixture
def model_file(tmp_path, scalar_pr):
    path = tmp_path / "model.json"
    save_model(path, scalar_pr)
    return str(path)


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# benchmark machinery
# ---------------------------------------------------------------------------

def test_random_blocks_deterministic():
    a = random_blocks(3, 4, np.random.default_rng([7, 1]))
    b = random_blocks(3, 4, np.random.default_rng([7, 1]))
    np.testing.assert_array_equal(a.A0, b.A0)


def test_last_block_column_methods_agree():
    blocks = random_blocks(2, 6, np.random.default_rng(1))
    diff = last_block_column_diffeq(blocks)
    pert = last_block_column_perturbation(blocks)
    assert np.max(np.abs(diff - pert)) <= 1e-9
    q = assemble_generator(blocks)
    reference = oracle_deviation(q)[:, -2:]
    assert np.max(np.abs(diff - reference)) <= 1e-9


def test_run_bench_record_shape():
    records = run_bench([2], range(1, 11), reps=1, seed=3)
    assert len(records) == 20
    assert all(r.median_scaled_cpu_seconds >= 0.0 for r in records)
    assert {r.method for r in records} == {"DifferenceEq", "Perturbation"}


class StubHost:
    """A clock that only work advances, by its cost times the slowdown."""

    def __init__(self, switch_after):
        self.now = 0.0
        self.slowdown = 1.0
        self.kernels = 0
        self.switch_after = switch_after

    def clock(self):
        return self.now

    def work(self, seconds):
        self.now += seconds * self.slowdown

    def kernel(self):
        self.work(0.002)
        self.kernels += 1
        if self.kernels == self.switch_after:  # the host halves its speed
            self.slowdown = 2.0


def stub_seconds(switch_after, rounds):
    host = StubHost(switch_after)
    funcs = [functools.partial(host.work, 0.004),
             functools.partial(host.work, 0.010)]
    seconds = time_interleaved(funcs, rounds, clock=host.clock,
                               kernel=host.kernel)
    # kernel calls: one warm-up, then per round 1 + 2 callables x 5 pieces
    assert host.kernels == 1 + rounds * 11
    return seconds


def test_time_interleaved_scales_slow_spans_to_reference_speed():
    # At full speed the kernel takes 2 ms, twice REFERENCE_KERNEL_SECONDS;
    # with switch_after=1 the host runs at half speed from the warm-up on.
    expected = [0.004 * REFERENCE_KERNEL_SECONDS / 0.002,
                0.010 * REFERENCE_KERNEL_SECONDS / 0.002]
    np.testing.assert_allclose(stub_seconds(None, 1), expected, rtol=1e-12)
    np.testing.assert_allclose(stub_seconds(1, 1), expected, rtol=1e-12)


def test_time_interleaved_median_absorbs_mid_run_slowdown():
    # The host halves its speed in the middle of round 2 (kernel call 17):
    # round 1 runs at full speed, round 3 at half, and only the piece
    # timed across the change is scaled by a mixed bracket.
    expected = [0.004 * REFERENCE_KERNEL_SECONDS / 0.002,
                0.010 * REFERENCE_KERNEL_SECONDS / 0.002]
    np.testing.assert_allclose(stub_seconds(17, 3), expected, rtol=1e-12)


def test_traced_layers_exist():
    # The traced benchmark run imports qbdr.cli, then wraps every function
    # its tracer lists in the qbdr modules loaded by then, and fails on a
    # name missing there: a deleted function or a module imported lazily.
    root = pathlib.Path(__file__).parents[1]
    code = ("import sys, qbdr.cli\n"
            "loaded = dict(sys.modules)\n"
            "import tracer\n"
            "print(*(f'qbdr.{layer}.{name}'\n"
            "        for layer, names in tracer.LAYERS.items()\n"
            "        for name in names\n"
            "        if not callable(getattr(loaded.get(f'qbdr.{layer}'),"
            " name, None))))\n")
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src"), str(root / "perfbench")])))
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def test_cli_validate_ok(model_file):
    assert main(["validate", "--model", model_file]) == 0


def test_cli_validate_flags_bad_model(tmp_path):
    bad = scalar_blocks(1.0, 2.0, 2)
    data = {"n": 1, "C": 2, "blocks": {
        "A_minus1": [[2.0]], "A0": [[-3.0]], "A1": [[-1.0]],
        "B0": [[-1.0]], "C0": [[-2.0]]}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["validate", "--model", str(path)]) == 2
    assert bad is not None


def test_cli_missing_file_is_parse_error(tmp_path):
    assert main(["validate", "--model", str(tmp_path / "nope.json")]) == 2


def test_cli_unwritable_output_is_parse_error(tmp_path, model_file, capsys):
    out = str(tmp_path / "missing" / "pi.csv")
    assert main(["stationary", "--model", model_file, "--output", out]) == 2
    assert capsys.readouterr().err.startswith("error: parse: ")


def test_cli_mapph_build_unwritable_output_is_parse_error(tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"map": ARRIVAL, "ph": SERVICE, "C": 5}))
    out = str(tmp_path / "missing" / "model.json")
    assert main(["mapph-build", "--params", str(params), "--output", out]) == 2
    assert capsys.readouterr().err.startswith("error: parse: ")


def test_cli_stationary_methods_agree(model_file, tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["stationary", "--model", model_file,
                 "--method", "rmatrix", "--output", str(out_a)]) == 0
    assert main(["stationary", "--model", model_file,
                 "--method", "oracle", "--output", str(out_b)]) == 0
    probs_a = [float(r["probability"]) for r in read_csv(out_a)]
    probs_b = [float(r["probability"]) for r in read_csv(out_b)]
    np.testing.assert_allclose(probs_a, probs_b, atol=1e-10)
    np.testing.assert_allclose(probs_a, [4 / 7, 2 / 7, 1 / 7], atol=1e-12)


def test_cli_stationary_null_recurrent_exit_code(tmp_path):
    # a finite chain has a deviation matrix whatever its drift, but H0 at
    # s = 0 is singular on a null-recurrent model
    path, out = tmp_path / "critical.json", tmp_path / "d.csv"
    save_model(path, scalar_blocks(1.0, 1.0, 2))
    assert main(["gmatrix", "--model", str(path), "--s", "0"]) == 4
    blocks = scalar_blocks(1.0, 1.0, 40)
    save_model(path, blocks)
    assert main(["deviation", "--model", str(path), "--method", "diffeq",
                 "--output", str(out)]) == 0
    ref = deviation_recursive(blocks).dev
    values = np.array([float(r["value"]) for r in read_csv(out)])
    assert np.max(np.abs(values.reshape(ref.shape) - ref)) <= (
        1e-12 * np.max(np.abs(ref)))


def test_cli_gmatrix(model_file, tmp_path):
    out = tmp_path / "g.csv"
    assert main(["gmatrix", "--model", model_file, "--s", "0",
                 "--output", str(out)]) == 0
    rows = {r["matrix"]: float(r["value"]) for r in read_csv(out)}
    assert rows["G"] == pytest.approx(1.0, abs=1e-12)
    assert rows["Ghat"] == pytest.approx(0.5, abs=1e-12)
    assert rows["H0"] == pytest.approx(1.0, abs=1e-12)


def test_cli_reward_zero_grid(tmp_path, model_file):
    out = tmp_path / "r.csv"
    assert main(["reward", "--model", model_file, "--t-grid", "0:0:1",
                 "--theta", "1.0", "--output", str(out)]) == 0
    assert all(float(r["value"]) == 0.0 for r in read_csv(out))


def test_cli_reward_grid_values(tmp_path, model_file):
    out = tmp_path / "r.csv"
    assert main(["reward", "--model", model_file, "--t-grid", "0:2:1",
                 "--theta", "1.0", "--levels", "0,2",
                 "--output", str(out)]) == 0
    rows = read_csv(out)
    assert [r["t"] for r in rows] == ["0.0", "0.0", "1.0", "1.0", "2.0",
                                      "2.0"]
    by_key = {(r["t"], r["level"]): float(r["value"]) for r in rows}
    assert by_key[("2.0", "2")] > by_key[("1.0", "2")] > 0.0


def test_cli_reward_csv_matches_csv_writer(tmp_path, queue_file):
    # the CLI prints the alpha-weighted curves, inverted once per level
    from qbdr import classify_drift, lost_revenue_rewards, reward_time
    blocks = mapph_example(C=6)
    alpha = classify_drift(blocks).alpha
    times, levels = [0.0, 0.5, 1.0, 1.5], [6, 0, 3, 3]
    curves = reward_time(blocks, lost_revenue_rewards(blocks, 1.0),
                         np.array(times), dist=alpha)
    rows = [(t, k, float(v)) for t, row in zip(times, curves[:, levels])
            for k, v in zip(levels, row)]
    out = tmp_path / "r.csv"
    assert main(["reward", "--model", queue_file, "--t-grid", "0:1.5:0.5",
                 "--theta", "1.0", "--levels", "6,0,3,3",
                 "--output", str(out)]) == 0
    assert out.read_bytes() == reference_csv(("t", "level", "value"), rows)


def test_reward_lines_match_csv_writer():
    values = np.array([[0.0, -0.0, 1e-300, 3.0],
                       [np.nan, np.inf, 0.1 + 0.2, -2.5e17]])
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(("t", "level", "value"))
    for t, row in zip((0.0, 2.5), values):
        for k, v in zip((3, 0, 12, 3), row):
            writer.writerow([repr(t), k, repr(float(v))])
    written = "".join(_reward_lines([0.0, 2.5], [3, 0, 12, 3], values))
    assert written == buf.getvalue()


def test_cli_inversion_breakdown_exits_3(tmp_path, queue_file, monkeypatch,
                                         capsys):
    import qbdr.transform as transform
    real = transform.reward_transform
    monkeypatch.setattr(transform, "reward_transform",
                        lambda ctx, rewards: real(ctx, rewards) * np.nan)
    out = tmp_path / "r.csv"
    assert main(["reward", "--model", queue_file, "--t-grid", "0:2:0.5",
                 "--theta", "1.0", "--output", str(out)]) == 3
    assert "numerical" in capsys.readouterr().err
    assert not out.exists()


def test_cli_reward_requires_reward_source(tmp_path, model_file):
    assert main(["reward", "--model", model_file, "--t", "1.0"]) == 2


def test_cli_reward_gamma_without_theta_is_parse_error(tmp_path):
    # --gamma cannot be dropped in favour of the model's embedded rewards
    from qbdr import lost_revenue_rewards
    blocks = mapph_example(C=6)
    model = tmp_path / "embedded.json"
    save_model(model, blocks, lost_revenue_rewards(blocks, 1.0))
    out = tmp_path / "r.csv"
    base = ["reward", "--model", str(model), "--t", "1.0"]
    assert main(base + ["--gamma", "5", "--output", str(out)]) == 2
    assert not out.exists()
    assert main(base + ["--output", str(out)]) == 0


def test_cli_deviation_methods_agree(tmp_path, model_file):
    values = {}
    for method in ("oracle", "perturb", "diffeq"):
        out = tmp_path / f"{method}.csv"
        assert main(["deviation", "--model", model_file, "--method", method,
                     "--output", str(out)]) == 0
        values[method] = np.array([float(r["value"])
                                   for r in read_csv(out)])
    assert np.max(np.abs(values["oracle"] - values["perturb"])) <= 1e-9
    assert np.max(np.abs(values["diffeq"] - values["perturb"])) <= 1e-8
    # full-matrix rows sum to zero: D 1 = 0
    mat = values["diffeq"].reshape(3, 3)
    np.testing.assert_allclose(mat.sum(axis=1), 0.0, atol=1e-9)


def test_cli_deviation_single_block(tmp_path, model_file):
    out = tmp_path / "block.csv"
    assert main(["deviation", "--model", model_file, "--method", "diffeq",
                 "--block", "0,2", "--output", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 1
    full = tmp_path / "full.csv"
    main(["deviation", "--model", model_file, "--method", "perturb",
          "--output", str(full)])
    match = [r for r in read_csv(full) if r["k"] == "0" and r["l"] == "2"]
    assert float(rows[0]["value"]) == pytest.approx(
        float(match[0]["value"]), abs=1e-8)


@pytest.fixture
def queue_file(tmp_path):
    path = tmp_path / "queue.json"
    save_model(path, mapph_example(C=6))
    return str(path)


@pytest.mark.parametrize("method,horizon", [
    ("diffeq", []), ("diffeq", ["--t", "1.5"]), ("perturb", ["--t", "1.5"]),
    ("oracle", [])])
def test_cli_block_matches_full_matrix(tmp_path, queue_file, method,
                                       horizon):
    full, part = tmp_path / "full.csv", tmp_path / "block.csv"
    base = ["deviation", "--model", queue_file, "--method", method, *horizon]
    assert main(base + ["--output", str(full)]) == 0
    assert main(base + ["--block", "4,2", "--output", str(part)]) == 0
    expected = [r for r in read_csv(full) if r["k"] == "4" and r["l"] == "2"]
    rows = read_csv(part)
    assert [(r["k"], r["l"], r["i"], r["j"]) for r in rows] == \
        [(r["k"], r["l"], r["i"], r["j"]) for r in expected]
    scale = max(abs(float(r["value"])) for r in read_csv(full))
    np.testing.assert_allclose([float(r["value"]) for r in rows],
                               [float(r["value"]) for r in expected],
                               rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize("args", [
    ["deviation", "--t", "1.0", "--block", "7,0"],
    ["deviation", "--t", "-1"],
    ["deviation", "--t", "inf"],
    ["reward", "--t", "-1", "--theta", "1.0"],
    ["reward", "--t", "nan", "--theta", "1.0"],
    ["reward", "--t", "1.0", "--theta", "1.0", "--levels", "9"],
    ["reward", "--t-grid", "a:b:c", "--theta", "1.0"],
    ["reward", "--t-grid", "0:nan:1", "--theta", "1.0"],
    ["reward", "--t-grid", "0:1:1e-300", "--theta", "1.0"],
    ["reward", "--t-grid", "0:1e300:1", "--theta", "1.0"],
    ["reward", "--t", "1.0", "--theta", "1.0", "--phase-dist", "nan,0,0,1"],
    ["reward", "--t", "1.0", "--theta", "nan"],
    ["reward", "--t", "1.0", "--theta", "1.0", "--gamma", "nan"],
    ["reward", "--t", "1.0", "--theta", "-1"],
    ["reward", "--t", "1.0", "--t-grid", "0:1:0.5", "--theta", "1.0"],
    ["gmatrix", "--s", "-1"],
    ["gmatrix", "--s", "nan"],
    ["bench", "--n-range", "x"],
    ["bench", "--n-range", "2:1:0"],
    ["bench", "--n-range", "0"],
    ["bench", "--n-range", "2", "--c-range", "5", "--reps", "0"],
    ["bench", "--n-range", "2", "--c-range", "5", "--seed", "-1"]],
    ids=["deviation-block", "deviation-t", "deviation-t-inf", "reward-t",
         "reward-t-nan", "reward-levels", "reward-t-grid",
         "reward-t-grid-nan", "reward-t-grid-oversize-step",
         "reward-t-grid-oversize-stop", "reward-phase-dist-nan", "reward-theta-nan",
         "reward-gamma-nan", "reward-theta-negative", "reward-t-and-t-grid",
         "gmatrix-s-negative",
         "gmatrix-s-nan", "bench-n-range-text", "bench-n-range-step-0",
         "bench-n-range-0", "bench-reps-0", "bench-seed-negative"])
def test_cli_block_out_of_range_is_parse_error(tmp_path, queue_file, args):
    out = tmp_path / "x.csv"
    model = [] if args[0] == "bench" else ["--model", queue_file]
    assert main([args[0], *model, *args[1:], "--output", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("method", ["diffeq", "oracle"])
@pytest.mark.parametrize("level,phase", [(1, 7), (7, 0), (-1, 0), (0, -1)])
def test_cli_passage_target_out_of_range(tmp_path, queue_file, method,
                                         level, phase):
    # The queue has C=6 and n=4; (1, 7) would index state (2, 3).
    out = tmp_path / "p.csv"
    assert main(["passage", "--model", queue_file, "--method", method,
                 "--level", str(level), "--phase", str(phase),
                 "--output", str(out)]) == 2
    assert not out.exists()


def test_cli_transient_perturb_climbs_stationary_ladder_once(
        tmp_path, queue_file, monkeypatch):
    import qbdr.perturbation as perturbation
    calls, rung = [], perturbation._ladder_rung
    monkeypatch.setattr(perturbation, "_ladder_rung",
                        lambda *args: calls.append(args) or rung(*args))
    assert main(["deviation", "--model", queue_file, "--method", "perturb",
                 "--t", "2", "--block", "4,2",
                 "--output", str(tmp_path / "b.csv")]) == 0
    # one stationary ladder (C - 1 rungs) per inversion, not one per node
    assert len(calls) == 6 - 1


@pytest.mark.parametrize("method", ["diffeq", "perturb", "oracle"])
def test_cli_deviation_at_time_zero_is_zero(tmp_path, queue_file, method):
    out = tmp_path / "d0.csv"
    assert main(["deviation", "--model", queue_file, "--method", method,
                 "--t", "0", "--output", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == (4 * 7) ** 2
    assert all(float(r["value"]) == 0.0 for r in rows)


def reference_matrix_csv(mat, n, origin=(0, 0)):
    """The matrix CSV as csv.writer writes it, one row per entry."""
    k0, l0 = origin
    return reference_csv(("k", "l", "i", "j", "value"), [
        (k0 + a // n, l0 + b // n, a % n, b % n, float(np.real(mat[a, b])))
        for a in range(mat.shape[0]) for b in range(mat.shape[1])])


@pytest.mark.parametrize("block", [None, (4, 2)], ids=["full", "block"])
def test_cli_matrix_csv_matches_csv_writer(tmp_path, queue_file, block):
    q = assemble_generator(mapph_example(C=6))
    dev = oracle_deviation(q, oracle_stationary(q))
    args = ["deviation", "--model", queue_file, "--method", "oracle"]
    if block is not None:
        k, level = block
        dev = dev[k * 4:(k + 1) * 4, level * 4:(level + 1) * 4]
        args += ["--block", f"{k},{level}"]
    out = tmp_path / "d.csv"
    assert main(args + ["--output", str(out)]) == 0
    assert out.read_bytes() == reference_matrix_csv(dev, 4, block or (0, 0))


def reference_csv(header, rows):
    """The CSV as csv.writer writes it, with repr floats."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v
                         for v in row])
    return buf.getvalue().encode()


def level_rows(vec, n):
    """The rows (level, phase, value) of a stacked level vector."""
    return [(a // n, a % n, float(v)) for a, v in enumerate(vec)]


@pytest.mark.parametrize("method", ["rmatrix", "oracle", "perturb"])
def test_cli_stationary_csv_matches_csv_writer(tmp_path, queue_file,
                                               method):
    blocks = mapph_example(C=6)
    pi = {"rmatrix": lambda: stationary_rmatrix(blocks).stacked(),
          "oracle": lambda: oracle_stationary(assemble_generator(blocks)),
          "perturb": lambda: deviation_recursive(blocks).pi}[method]()
    out = tmp_path / "pi.csv"
    assert main(["stationary", "--model", queue_file, "--method", method,
                 "--output", str(out)]) == 0
    assert out.read_bytes() == reference_csv(
        ("level", "phase", "probability"), level_rows(pi, 4))


@pytest.mark.parametrize("method", ["diffeq", "oracle"])
def test_cli_passage_csv_matches_csv_writer(tmp_path, queue_file, method):
    blocks = mapph_example(C=6)
    if method == "oracle":
        m = oracle_passage(assemble_generator(blocks), 3 * 4 + 1)
    else:
        m = np.concatenate(passage_column(blocks, 3, 1).m)
    out = tmp_path / "m.csv"
    assert main(["passage", "--model", queue_file, "--level", "3",
                 "--phase", "1", "--method", method,
                 "--output", str(out)]) == 0
    assert out.read_bytes() == reference_csv(
        ("level", "phase", "mean_first_passage"), level_rows(m, 4))


@pytest.mark.parametrize("s", ["0", "0.5"])
def test_cli_gmatrix_csv_matches_csv_writer(tmp_path, queue_file, s):
    gm = gmatrices(mapph_example(C=6), float(s))
    rows = [(name, i, j, float(np.real(mat[i, j])))
            for name, mat in (("G", gm.G), ("Ghat", gm.Ghat), ("H0", gm.H0))
            for i in range(4) for j in range(4)]
    rows += [("residual_G", 0, 0, gm.residual_G),
             ("residual_Ghat", 0, 0, gm.residual_Ghat)]
    out = tmp_path / "g.csv"
    assert main(["gmatrix", "--model", queue_file, "--s", s,
                 "--output", str(out)]) == 0
    assert out.read_bytes() == reference_csv(("matrix", "i", "j", "value"),
                                             rows)


def test_cli_bench_csv_matches_csv_writer(tmp_path):
    # bench times are not reproducible, so its own values are written again
    out = tmp_path / "bench.csv"
    assert main(["bench", "--n-range", "2", "--c-range", "1:2",
                 "--reps", "1", "--output", str(out)]) == 0
    header = ("n", "C", "method", "median_scaled_cpu_seconds", "reps", "seed")
    rows = [(int(r["n"]), int(r["C"]), r["method"],
             float(r["median_scaled_cpu_seconds"]), int(r["reps"]),
             int(r["seed"])) for r in read_csv(out)]
    assert len(rows) == 4
    assert out.read_bytes() == reference_csv(header, rows)


def test_matrix_lines_match_csv_writer_on_complex_values():
    rng = np.random.default_rng(4)
    mat = rng.standard_normal((6, 9)) * 1e5 + 1j * rng.standard_normal((6, 9))
    mat[0, :5] = [-0.0, np.nan, np.inf, 1e-300, 3.0]
    written = "".join(_matrix_lines(mat, 3, (2, 1))).encode()
    assert written == reference_matrix_csv(mat, 3, (2, 1))


def test_cli_deviation_diffeq_matches_perturb_on_queue(tmp_path):
    # D formed from mean passage times missed the ladder by 3e-2 relative
    # on this queue.
    path = tmp_path / "queue30.json"
    save_model(path, mapph_example(C=30))
    values = {}
    for method in ("diffeq", "perturb"):
        out = tmp_path / f"{method}.csv"
        assert main(["deviation", "--model", str(path), "--method", method,
                     "--output", str(out)]) == 0
        values[method] = np.array([float(r["value"])
                                   for r in read_csv(out)])
    gap = np.max(np.abs(values["diffeq"] - values["perturb"]))
    assert gap <= 1e-8 * np.max(np.abs(values["perturb"]))


def test_cli_asymptotic_block_matches_ladder_on_unfiltered_models(tmp_path):
    # Blocks formed from mean passage times missed the ladder by more than
    # 1e-8 on 22 of these 100 draws, worst at the target level itself, by
    # a relative error of up to 1.0.
    from test_passage import unfiltered_model
    path, out = tmp_path / "model.json", tmp_path / "block.csv"
    worst = 0.0
    for seed, count in ((7, 60), (8, 40)):
        for i in range(count):
            blocks = unfiltered_model(seed, i)
            n, C = blocks.n, blocks.C
            column = deviation_recursive(blocks).dev[:, C * n:]
            save_model(path, blocks)
            for k in (0, C):
                assert main(["deviation", "--model", str(path), "--method",
                             "diffeq", "--block", f"{k},{C}",
                             "--output", str(out)]) == 0
                block = np.zeros((n, n))
                for r in read_csv(out):
                    block[int(r["i"]), int(r["j"])] = float(r["value"])
                gap = np.max(np.abs(block - column[k * n:(k + 1) * n]))
                worst = max(worst, gap / np.max(np.abs(column)))
    assert worst <= 1e-8, worst


@pytest.mark.parametrize("block", ["60,0", "0,60", "59,60"])
def test_cli_transient_block_routes_agree_at_corners(tmp_path, block):
    # the perturbation route carries only the target block row and column
    # up its ladder; the corners pair the first and last levels.  Block
    # (60, 0) is ~1e-28, so the routes are compared on the scale of D(t),
    # whose entries are at most t in size.
    path = tmp_path / "queue60.json"
    save_model(path, mapph_example(C=60))
    values = {}
    for method in ("diffeq", "perturb"):
        out = tmp_path / f"{method}.csv"
        assert main(["deviation", "--model", str(path), "--method", method,
                     "--t", "2", "--block", block,
                     "--output", str(out)]) == 0
        values[method] = np.array([float(r["value"])
                                   for r in read_csv(out)])
    assert values["perturb"].shape == (16,)
    assert np.max(np.abs(values["diffeq"] - values["perturb"])) <= 1e-12 * 2


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["deviation", "--model", "m.json", "--bogus"],
    ["deviation"], ["deviation", "--model"],
    ["deviation", "--method", "nope", "--model", "m.json"],
    ["deviation", "--model", "m.json", "--t", "soon"],
    ["passage", "--model", "m.json", "--level", "1.5", "--phase", "0"]],
    ids=["empty", "unknown", "unknown-flag", "missing-model",
         "no-value", "bad-choice", "non-numeric", "non-integer"])
def test_cli_usage_error_exits_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: qbdr")
    assert ": error: " in captured.err and captured.out == ""


@pytest.mark.parametrize("argv, names", [
    (["-h"], ["validate", "stationary", "gmatrix", "reward", "deviation",
              "passage", "bench", "mapph-build"]),
    (["reward", "-h"], ["--model", "--t", "--t-grid", "--levels",
                        "--phase-dist", "--theta", "--gamma", "--output"])],
    ids=["help", "command-help"])
def test_cli_help_lists_every_command_or_option(argv, names, capsys):
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("usage: qbdr")
    assert [line.split()[0] for line in lines[2:]] == names


def test_cli_reads_flag_equals_value_as_flag_value():
    assert parse(["reward", "--model=m.json", "--t=2"]) == parse(
        ["reward", "--model", "m.json", "--t", "2"])
    _, args = parse(["reward", "--model", "m.json", "--t", "1",
                     "--t=-2", "--levels=0,1=2"])
    assert (args.t, args.levels, args.phase_dist) == (-2.0, "0,1=2", "alpha")


def test_main_reads_sys_argv(tmp_path, model_file, monkeypatch):
    out = tmp_path / "pi.csv"
    monkeypatch.setattr(sys, "argv", ["qbdr", "stationary", "--model",
                                      model_file, "--output", str(out)])
    assert main() == 0
    assert len(read_csv(out)) == 3


def cli_import_loads(module):
    """Whether ``import qbdr.cli`` in a fresh process loads ``module``."""
    src = pathlib.Path(__file__).parents[1] / "src"
    code = f"import sys, qbdr.cli; sys.exit({module!r} in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(src)))
    return done.returncode != 0


def test_cli_import_leaves_scipy_unloaded():
    assert not cli_import_loads("scipy")


def test_cli_import_leaves_argparse_unloaded():
    assert not cli_import_loads("argparse")


@pytest.mark.parametrize("module", ["qbdr.bench", "dataclasses"])
def test_cli_import_leaves_bench_and_dataclasses_unloaded(module):
    assert not cli_import_loads(module)


def test_package_loads_bench_names_on_first_access():
    src = pathlib.Path(__file__).parents[1] / "src"
    code = textwrap.dedent("""\
        import sys, qbdr
        assert "qbdr.bench" not in sys.modules
        assert {"bench", "run_bench", "BenchRecord"} <= set(dir(qbdr))
        from qbdr import (BenchRecord, last_block_column_diffeq,
                          last_block_column_perturbation, random_blocks,
                          run_bench)
        import qbdr.bench as bench
        assert qbdr.bench is bench
        assert (BenchRecord, last_block_column_diffeq,
                last_block_column_perturbation, random_blocks,
                run_bench) == (bench.BenchRecord,
                               bench.last_block_column_diffeq,
                               bench.last_block_column_perturbation,
                               bench.random_blocks, bench.run_bench)
        try:
            qbdr.no_such_name
        except AttributeError:
            pass
        else:
            sys.exit("qbdr.no_such_name resolved")
        """)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.returncode == 0, done.stderr


def test_cli_bench_runs_in_a_fresh_process():
    src = pathlib.Path(__file__).parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "qbdr.cli", "bench", "--n-range", "1",
         "--c-range", "1:2", "--reps", "1"], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "n,C,method,median_scaled_cpu_seconds,reps,seed"
    assert [line.split(",")[:3] for line in lines[1:]] == [
        ["1", "1", "DifferenceEq"], ["1", "1", "Perturbation"],
        ["1", "2", "DifferenceEq"], ["1", "2", "Perturbation"]]


def test_cli_deviation_transient(tmp_path, model_file):
    out = tmp_path / "dt.csv"
    assert main(["deviation", "--model", model_file, "--method", "oracle",
                 "--t", "0.5", "--output", str(out)]) == 0
    out2 = tmp_path / "dt2.csv"
    assert main(["deviation", "--model", model_file, "--method", "diffeq",
                 "--t", "0.5", "--output", str(out2)]) == 0
    a = [float(r["value"]) for r in read_csv(out)]
    b = [float(r["value"]) for r in read_csv(out2)]
    np.testing.assert_allclose(a, b, atol=1e-6)


def test_cli_passage_matches_oracle(tmp_path, model_file):
    out = tmp_path / "p.csv"
    assert main(["passage", "--model", model_file, "--level", "0",
                 "--phase", "0", "--output", str(out)]) == 0
    out2 = tmp_path / "p2.csv"
    assert main(["passage", "--model", model_file, "--level", "0",
                 "--phase", "0", "--method", "oracle",
                 "--output", str(out2)]) == 0
    a = [float(r["mean_first_passage"]) for r in read_csv(out)]
    b = [float(r["mean_first_passage"]) for r in read_csv(out2)]
    np.testing.assert_allclose(a, b, atol=1e-8)


def test_cli_bench_runs_small_grid(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--n-range", "2", "--c-range", "1:3",
                 "--reps", "1", "--output", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 6
    assert all(float(r["median_scaled_cpu_seconds"]) >= 0.0 for r in rows)


def test_cli_mapph_build(tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"map": ARRIVAL, "ph": SERVICE, "C": 5}))
    out = tmp_path / "model.json"
    assert main(["mapph-build", "--params", str(params), "--theta", "1.0",
                 "--output", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["n"] == 4
    assert data["reward"]["g"][5] == [8.0, 8.0, 5.0, 5.0]
    built = mapph_example(C=5)
    np.testing.assert_allclose(np.array(data["blocks"]["A_minus1"]),
                               built.A_minus1)
    # built model validates cleanly end to end
    assert main(["validate", "--model", str(out)]) == 0


@pytest.mark.parametrize("flags", [["--theta", "nan"], ["--theta", "-1"],
                                   ["--theta", "1.0", "--gamma", "inf"],
                                   ["--gamma", "5.0"]])
def test_cli_mapph_build_bad_revenue_is_parse_error(tmp_path, flags):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"map": ARRIVAL, "ph": SERVICE, "C": 5}))
    out = tmp_path / "model.json"
    assert main(["mapph-build", "--params", str(params), *flags,
                 "--output", str(out)]) == 2
    assert not out.exists()


def _nonfinite_model(tmp_path, a0=-3.0, reward=None):
    path = tmp_path / "bad.json"
    data = {"n": 1, "C": 4,
            "blocks": {"A_minus1": [[2.0]], "A0": [[a0]], "A1": [[1.0]],
                       "B0": [[-1.0]], "C0": [[-2.0]]}}
    if reward is not None:
        data["reward"] = {"g": [[reward]] + [[1.0]] * 4}
    path.write_text(json.dumps(data))  # NaN and Infinity as JSON allows
    return str(path)


@pytest.mark.parametrize("command", ["stationary", "deviation"])
def test_cli_nonfinite_block_is_parse_error(tmp_path, capsys, command):
    out = tmp_path / "x.csv"
    model = _nonfinite_model(tmp_path, a0=float("nan"))
    assert main([command, "--model", model, "--output", str(out)]) == 2
    assert "non-finite entry" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_cli_nonfinite_reward_is_parse_error(tmp_path, value):
    out = tmp_path / "r.csv"
    model = _nonfinite_model(tmp_path, reward=value)
    assert main(["reward", "--model", model, "--t", "1",
                 "--output", str(out)]) == 2
    assert not out.exists()
    model = _nonfinite_model(tmp_path, reward=0.5)
    assert main(["reward", "--model", model, "--t", "1",
                 "--output", str(out)]) == 0


def test_cli_deterministic_output(tmp_path, model_file):
    out1 = tmp_path / "d1.csv"
    out2 = tmp_path / "d2.csv"
    for out in (out1, out2):
        assert main(["reward", "--model", model_file, "--t-grid", "0:2:0.5",
                     "--theta", "2.0", "--output", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
