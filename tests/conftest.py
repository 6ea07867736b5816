import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from castillon import core
from castillon.sampling import random_triangle


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def tri345():
    return core.triangle_from_sides(3, 4, 5)


@pytest.fixture
def tri6913():
    return core.triangle_from_sides(6, 9, 13)


@pytest.fixture
def equilateral():
    return core.triangle_from_sides(2, 2, 2)


def set_deviation(pts_a, pts_b) -> float:
    """Symmetric max-min distance between two point sets (N x 2 arrays)."""
    a = np.asarray(pts_a, float).reshape(-1, 2)
    b = np.asarray(pts_b, float).reshape(-1, 2)
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


@pytest.fixture
def triangles_100(rng):
    return [random_triangle(rng) for _ in range(100)]


def bench_checks(monkeypatch):
    """The benchmark's output checkers, loaded from their file, which is
    neither changed nor given a bytecode cache."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
