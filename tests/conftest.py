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


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def bench_module(monkeypatch, name):
    """A benchmark module, loaded from its file, which is neither changed nor
    given a bytecode cache.  The benchmark's sibling modules it imports are
    found on a sys.path entry and dropped from sys.modules after the test."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for sibling in ("checks", "reference", "shim"):
        # recorded as absent, so undoing the patch removes what gets imported
        monkeypatch.setitem(sys.modules, sibling, None)
        del sys.modules[sibling]
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
