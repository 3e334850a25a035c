import json

import numpy as np
import pytest

from qbdr import (Drift, MapParams, PhParams, StructuralError,
                  assemble_generator, build_blocks, classify_drift,
                  gained_revenue_rewards, lost_revenue_rewards, validate)
from qbdr.mapph import load_params
from conftest import mapph_example

ARRIVAL_T = np.array([[-10.0, 2.0], [1.0, -6.0]])
ARRIVAL_D1 = np.outer([8.0, 5.0], [0.8, 0.2])
SERVICE_TAU = np.array([0.4, 0.6])
SERVICE_T = np.array([[-3.0, 2.0], [1.0, -4.0]])


def test_mm1c_reduction():
    lam, mu = 1.0, 2.0
    blocks = build_blocks(MapParams(D0=[[-lam]], D1=[[lam]]),
                          PhParams(tau=[1.0], T=[[-mu]]), C=3)
    assert blocks.n == 1
    assert blocks.A_minus1[0, 0] == mu
    assert blocks.A0[0, 0] == -lam - mu
    assert blocks.A1[0, 0] == lam
    assert blocks.B0[0, 0] == -lam
    assert blocks.C0[0, 0] == -mu


def test_service_exit_rates():
    ph = PhParams(tau=SERVICE_TAU, T=SERVICE_T)
    np.testing.assert_allclose(ph.t_exit, [1.0, 3.0])


def test_example_dimensions_and_validity():
    blocks = mapph_example(C=5)
    assert blocks.n == 4
    assert validate(blocks) == []
    q = assemble_generator(blocks)
    np.testing.assert_allclose(q.sum(axis=1), 0.0, atol=1e-12)


def test_lost_revenue_structure():
    blocks = mapph_example(C=5)
    rewards = lost_revenue_rewards(blocks, 1.0)
    for k in range(5):
        assert not rewards[k].any()
    np.testing.assert_allclose(rewards[5], [8.0, 8.0, 5.0, 5.0])
    assert not lost_revenue_rewards(blocks, 0.0).reshape(-1).any()


def test_gained_revenue_structure():
    blocks = mapph_example(C=5)
    rewards = gained_revenue_rewards(blocks, 1.0, 1.0)
    np.testing.assert_allclose(rewards[2],
                               blocks.A1 @ np.ones(4) + 2.0)
    np.testing.assert_allclose(rewards[5], 5.0 * np.ones(4))
    holding_only = gained_revenue_rewards(blocks, 0.0, 2.0)
    np.testing.assert_allclose(holding_only[3], 6.0 * np.ones(4))
    entry_only = gained_revenue_rewards(blocks, 1.5, 0.0)
    assert not entry_only[5].any()


def test_blocking_regime_swap():
    assert classify_drift(mapph_example()).tag is Drift.TRANSIENT
    assert classify_drift(mapph_example(swapped=True)).tag \
        is Drift.POSITIVE_RECURRENT


def test_invalid_parameters_rejected():
    with pytest.raises(StructuralError):
        MapParams(D0=[[-1.0, 0.5], [0.0, -1.0]], D1=[[0.5, 0.0], [0.0, 0.5]])
    with pytest.raises(StructuralError):
        PhParams(tau=[0.5, 0.6], T=SERVICE_T)
    with pytest.raises(StructuralError):
        PhParams(tau=[1.0], T=[[1.0]])
    with pytest.raises(StructuralError):
        build_blocks(MapParams(D0=[[-1.0]], D1=[[1.0]]),
                     PhParams(tau=[1.0], T=[[-1.0]]), C=0)


def test_params_file_roundtrip(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({
        "map": {"D0": ARRIVAL_T.tolist(), "D1": ARRIVAL_D1.tolist()},
        "ph": {"tau": SERVICE_TAU.tolist(), "T": SERVICE_T.tolist()},
        "C": 5,
    }))
    map_params, ph_params, capacity = load_params(path)
    blocks = build_blocks(map_params, ph_params, capacity)
    np.testing.assert_allclose(assemble_generator(blocks),
                               assemble_generator(mapph_example(C=5)))
