"""The small-matrix product kernel against plain np.matmul.

:func:`qbdr.linalg.stack_matmul` forms complex products of node stacks
from real products.  Each case must agree with ``a @ b`` within 1e-14 of
the componentwise bound |a| |b|, real operands bit for bit, and the
Laplace routes must give the same results with the kernel replaced by
np.matmul.
"""

import importlib

import numpy as np
import pytest

from qbdr import (deviation_time, deviation_time_recursive,
                  lost_revenue_rewards, reward_time, stationary_rmatrix)
from qbdr.linalg import stack_matmul
from conftest import mapph_example

RNG = np.random.default_rng(12)


def _real(*shape):
    return RNG.standard_normal(shape)


def _complex(*shape):
    return _real(*shape) + 1j * _real(*shape)


MAKE = {"real": _real, "complex": _complex}
MIXED = pytest.mark.parametrize("left,right", [
    ("complex", "complex"), ("real", "complex"), ("complex", "real")])


def _assert_matches(a, b):
    got, want = stack_matmul(a, b), a @ b
    assert got.shape == want.shape and got.dtype == want.dtype
    bound = np.abs(a) @ np.abs(b)
    assert np.all(np.abs(got - want) <= 1e-14 * bound)


SHAPES = {
    "3d@3d": ((53, 4, 4), (53, 4, 4)),
    "wide": ((53, 4, 4), (53, 4, 12)),
    "2d@3d": ((4, 4), (53, 4, 6)),
    "3d@2d": ((53, 3, 4), (4, 61)),
    "4d@4d": ((2, 53, 4, 4), (2, 53, 4, 4)),
    "broadcast": ((2, 1, 4, 4), (2, 53, 4, 4)),
    "n1": ((53, 1, 1), (53, 1, 1)),
}


@MIXED
@pytest.mark.parametrize("shapes", SHAPES.values(), ids=SHAPES.keys())
def test_complex_and_mixed_operands_match_matmul(shapes, left, right):
    _assert_matches(MAKE[left](*shapes[0]), MAKE[right](*shapes[1]))


@pytest.mark.parametrize("shapes", SHAPES.values(), ids=SHAPES.keys())
def test_real_operands_are_exactly_matmul(shapes):
    a, b = _real(*shapes[0]), _real(*shapes[1])
    got = stack_matmul(a, b)
    assert got.dtype == float and np.array_equal(got, a @ b)


def test_strided_views_match_matmul():
    pair = _complex(2, 53, 4, 4)
    x = _complex(53, 12, 12)
    cols = slice(4, 8)
    _assert_matches(pair, pair[::-1])
    _assert_matches(pair[::-1], pair)
    _assert_matches(x[..., cols], x[..., cols, :])
    _assert_matches(x[..., -8:, :].swapaxes(-1, -2), x[..., -8:, cols])
    _assert_matches(_real(4, 8), x[..., -8:, :])
    _assert_matches(x[..., cols].swapaxes(-1, -2), _real(12, 5))


@MIXED
def test_one_column_and_1d_operands_match_matmul(left, right):
    a = MAKE[left](53, 4, 4)
    _assert_matches(a, MAKE[right](53, 4, 1))
    _assert_matches(a, MAKE[right](4))
    _assert_matches(MAKE[left](4), MAKE[right](53, 4, 3))
    _assert_matches(MAKE[left](4), MAKE[right](4))


def _gap_to_matmul(monkeypatch, compute):
    """The relative max-norm gap between compute() with the kernel and
    with plain np.matmul in its place."""
    new = np.asarray(compute())
    with monkeypatch.context() as patch:
        # qbdr.gmatrices is also a function name in the package namespace
        for name in ("gmatrices", "diffeq", "perturbation"):
            module = importlib.import_module(f"qbdr.{name}")
            patch.setattr(module, "stack_matmul", np.matmul)
        reference = np.asarray(compute())
    assert new.shape == reference.shape
    return np.max(np.abs(new - reference)) / np.max(np.abs(reference))


def test_laplace_routes_match_plain_matmul(monkeypatch):
    queue = mapph_example(C=12)
    rewards = lost_revenue_rewards(queue, 1.0)
    pi = stationary_rmatrix(queue)
    grid = np.array([0.5, 1.0, 2.0, 5.0])
    assert _gap_to_matmul(
        monkeypatch, lambda: reward_time(queue, rewards, grid)) <= 1e-13
    assert _gap_to_matmul(monkeypatch, lambda: deviation_time(
        queue, 2.0, pi, block=(3, 9))) <= 1e-13
    assert _gap_to_matmul(monkeypatch, lambda: deviation_time_recursive(
        queue, 2.0, block=(9, 3))) <= 1e-13
