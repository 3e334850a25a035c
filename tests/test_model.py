import json

import numpy as np
import pytest

from qbdr import (Drift, ModelParseError, QbdBlocks, RewardSpec,
                  StructuralError, assemble_generator, classify_drift,
                  deviation_recursive, gmatrices, is_irreducible, load_model,
                  passage_column, random_blocks, save_model,
                  stationary_rmatrix, validate)
from qbdr.model import model_from_dict, model_to_dict
from conftest import mapph_example, scalar_blocks


def test_assemble_scalar_birth_death(scalar_pr):
    expected = np.array([[-1.0, 1.0, 0.0],
                         [2.0, -3.0, 1.0],
                         [0.0, 2.0, -2.0]])
    np.testing.assert_allclose(assemble_generator(scalar_pr), expected)


@pytest.mark.parametrize("seed,n,c", [(0, 1, 3), (1, 2, 4), (2, 3, 6)])
def test_assemble_rows_conservative(seed, n, c):
    blocks = random_blocks(n, c, np.random.default_rng(seed))
    q = assemble_generator(blocks)
    np.testing.assert_allclose(q.sum(axis=1), 0.0, atol=1e-12)


def test_assemble_mapph_order_and_sparsity():
    blocks = mapph_example(C=5)
    q = assemble_generator(blocks)
    assert q.shape == (24, 24)
    n = blocks.n
    for k in range(6):
        for l in range(6):
            if abs(k - l) > 1:
                assert not q[k * n:(k + 1) * n, l * n:(l + 1) * n].any()


def test_assemble_rejects_mismatched_blocks():
    bad = QbdBlocks(n=2, C=2, A_minus1=np.eye(2), A0=-np.eye(2),
                    A1=np.eye(3), B0=-np.eye(2), C0=-np.eye(2))
    with pytest.raises(StructuralError):
        assemble_generator(bad)


def test_classify_drift_scalar_cases():
    pr = classify_drift(scalar_blocks(1.0, 2.0, 2))
    assert pr.tag is Drift.POSITIVE_RECURRENT
    assert pr.mean_drift == pytest.approx(-1.0, abs=1e-12)

    tr = classify_drift(scalar_blocks(2.0, 1.0, 2))
    assert tr.tag is Drift.TRANSIENT
    assert tr.mean_drift == pytest.approx(1.0, abs=1e-12)


def test_classify_drift_mapph_high_blocking():
    assert classify_drift(mapph_example()).tag is Drift.TRANSIENT


def test_classify_drift_null_recurrent_band():
    crit = classify_drift(scalar_blocks(1.0, 1.0, 2))
    assert crit.tag is Drift.NULL_RECURRENT


@pytest.mark.parametrize("scale", [0.5, 3.0, 10.0])
def test_classify_drift_time_rescaling(scale):
    blocks = random_blocks(3, 4, np.random.default_rng(11))
    base = classify_drift(blocks)
    scaled = QbdBlocks(n=3, C=4, A_minus1=scale * blocks.A_minus1,
                       A0=scale * blocks.A0, A1=scale * blocks.A1,
                       B0=scale * blocks.B0, C0=scale * blocks.C0)
    rescaled = classify_drift(scaled)
    assert rescaled.tag is base.tag
    assert rescaled.mean_drift == pytest.approx(scale * base.mean_drift,
                                                rel=1e-9)


def test_validate_accepts_valid_model(scalar_pr):
    assert validate(scalar_pr) == []


def test_validate_flags_negative_rate():
    blocks = QbdBlocks(n=1, C=2, A_minus1=[[2.0]], A0=[[-2.9]],
                       A1=[[-0.1]], B0=[[-1.0]], C0=[[-2.0]])
    report = validate(blocks)
    assert any(v.block == "A1" and "negative" in v.kind for v in report)


def test_validate_flags_row_sum_with_magnitude():
    blocks = QbdBlocks(n=1, C=2, A_minus1=[[2.0]], A0=[[-3.0 + 1e-6]],
                       A1=[[1.0]], B0=[[-1.0]], C0=[[-2.0]])
    report = validate(blocks)
    hits = [v for v in report if "row sum" in v.kind]
    assert hits and hits[0].magnitude == pytest.approx(1e-6, rel=1e-3)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_validate_flags_nonfinite_entry(value):
    blocks = QbdBlocks(n=1, C=4, A_minus1=[[2.0]], A0=[[value]],
                       A1=[[1.0]], B0=[[-1.0]], C0=[[-2.0]])
    report = validate(blocks)
    assert [(v.block, v.kind, v.row) for v in report] == \
        [("A0", "non-finite entry", 0)]
    data = model_to_dict(blocks)
    with pytest.raises(ModelParseError, match="non-finite"):
        model_from_dict(data)


def passage_column_c2(blocks):
    return passage_column(blocks.with_capacity(2), 0, 0)


def passage_column_c4(blocks):
    return passage_column(blocks, 0, 0)


@pytest.mark.parametrize("route", [deviation_recursive, stationary_rmatrix,
                                   gmatrices, passage_column_c2,
                                   passage_column_c4],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_library_routes_reject_nonfinite_blocks(route, value):
    blocks = QbdBlocks.from_matrices([[2.0]], [[value]], [[1.0]], [[-1.0]],
                                     [[-2.0]], 4)
    with pytest.raises(StructuralError, match="A0 row 0: non-finite entry"):
        route(blocks)
    assert [v.kind for v in validate(blocks)] == ["non-finite entry"]


def test_model_from_dict_rejects_nonfinite_reward(scalar_pr):
    data = model_to_dict(scalar_pr, RewardSpec(
        g=(np.array([0.5]), np.array([np.nan]), np.array([2.0]))))
    with pytest.raises(ModelParseError, match="finite"):
        model_from_dict(data)


def test_validate_empty_implies_assemble_succeeds():
    for seed in range(5):
        blocks = random_blocks(2, 3, np.random.default_rng(seed))
        assert validate(blocks) == []
        assemble_generator(blocks)


def test_is_irreducible(scalar_pr):
    assert is_irreducible(scalar_pr)
    disconnected = QbdBlocks(
        n=2, C=1,
        A_minus1=[[1.0, 0.0], [0.0, 1.0]],
        A0=[[-2.0, 0.0], [0.0, -2.0]],
        A1=[[1.0, 0.0], [0.0, 1.0]],
        B0=[[-1.0, 0.0], [0.0, -1.0]],
        C0=[[-1.0, 0.0], [0.0, -1.0]])
    assert not is_irreducible(disconnected)


def test_blocks_arrays_read_only(scalar_pr):
    with pytest.raises(ValueError):
        scalar_pr.A0[0, 0] = 5.0


@pytest.mark.parametrize("record, field", [
    ("blocks", "C"), ("blocks", "A0"), ("blocks", "drift"),
    ("rewards", "g"), ("gmat", "G"), ("column", "residual")])
def test_record_fields_cannot_be_assigned_or_deleted(scalar_pr, record,
                                                     field):
    records = {"blocks": scalar_pr, "rewards": RewardSpec.zeros(1, 2),
               "gmat": gmatrices(scalar_pr, 0.5),
               "column": passage_column(scalar_pr, 0, 0)}
    with pytest.raises(AttributeError):
        setattr(records[record], field, None)
    with pytest.raises(AttributeError):
        delattr(records[record], field)


def test_blocks_classify_drift_once(scalar_pr, monkeypatch):
    import qbdr.model
    calls = []
    monkeypatch.setattr(qbdr.model, "classify_drift",
                        lambda b: calls.append(b) or classify_drift(b))
    blocks = scalar_pr.with_capacity(scalar_pr.C)
    assert blocks.drift is blocks.drift
    assert blocks.drift.tag is Drift.POSITIVE_RECURRENT and calls == [blocks]


@pytest.mark.parametrize("capacity", [1, 3, 12])
def test_with_capacity_is_the_queue_at_that_capacity(capacity):
    queue = mapph_example(C=5)
    moved = queue.with_capacity(capacity)
    built = mapph_example(C=capacity)
    assert (moved.n, moved.C, queue.C) == (built.n, capacity, 5)
    for name in ("A_minus1", "A0", "A1", "B0", "C0"):
        np.testing.assert_array_equal(getattr(moved, name),
                                      getattr(built, name))
        assert not getattr(moved, name).flags.writeable
    np.testing.assert_array_equal(assemble_generator(moved),
                                  assemble_generator(built))


def test_model_json_roundtrip(tmp_path, scalar_pr):
    rewards = RewardSpec(g=(np.array([0.5]), np.array([0.0]),
                            np.array([2.0])))
    path = tmp_path / "model.json"
    save_model(path, scalar_pr, rewards)
    blocks, loaded = load_model(path)
    np.testing.assert_allclose(assemble_generator(blocks),
                               assemble_generator(scalar_pr))
    np.testing.assert_allclose(loaded.stacked(), rewards.stacked())
    # reward block is optional
    data = json.loads(path.read_text())
    del data["reward"]
    path.write_text(json.dumps(data))
    _, none_rewards = load_model(path)
    assert none_rewards is None
