import numpy as np
import pytest

from castillon import core, sampling
from castillon.errors import DegenerateTriangle


def _same_bytes(batch, triangles) -> bool:
    """Whether each field of a batch holds the triangles' fields, bit for bit."""
    if not triangles:
        return all(len(field) == 0 for field in batch)
    want = core.stack_triangles(triangles)
    return all(f.dtype == g.dtype and f.shape == g.shape and f.tobytes() == g.tobytes()
               for f, g in zip(batch, want))


def _take_in_steps(draws, n, steps):
    """n triangles taken in batches of the sizes `steps` cycles through."""
    parts, k = [], 0
    while n:
        size = min(n, steps[k % len(steps)])
        parts.append(draws.take(size))
        n, k = n - size, k + 1
    return core.concat_triangles(parts) if parts else draws.take(0)


@pytest.mark.parametrize("n", [0, 1, 80])
def test_block_draws_match_sequential_draws(n):
    # a block of k candidates uses up the doubles of k sequential candidates
    # in the same order, and the accept tests run elementwise on the same
    # IEEE operations, so the batch holds random_triangle's triangles to the
    # bit; n = 80 is one benchmark sweep
    for seed in range(0, 1000, 1 if n < 80 else 10):
        rng = np.random.default_rng(seed)
        want = [sampling.random_triangle(rng) for _ in range(n)]
        assert _same_bytes(sampling.TriangleDraws(np.random.default_rng(seed)).take(n), want), seed


@pytest.mark.parametrize("steps", [(1000,), (1, 2, 3), (7, 400, 1), (4095, 1)])
def test_block_draws_carry_over_between_batches(steps):
    # what a block draws beyond one batch starts the next, so the stream
    # never skips, however the sweep is cut
    for seed in range(3):
        rng = np.random.default_rng(seed)
        want = [sampling.random_triangle(rng) for _ in range(1000)]
        got = _take_in_steps(sampling.TriangleDraws(np.random.default_rng(seed)), 1000, steps)
        assert _same_bytes(got, want), (seed, steps)


def test_block_draws_reject_what_random_triangle_rejects():
    # the accept tests have one source: on the same candidates, the block
    # keeps exactly those that triangle_from_sides and the aspect test accept
    rng = np.random.default_rng(99)
    a, b, c = np.exp(rng.uniform(np.log(sampling.MIN_SIDE), np.log(sampling.MAX_SIDE),
                                 (4000, 3))).T
    kept = []
    for sides in zip(a, b, c):
        try:
            tri = core.triangle_from_sides(*sides)
        except DegenerateTriangle:
            continue
        kept.append(tri)
    batch = core.triangles_from_sides(a, b, c)
    assert _same_bytes(batch, kept)
    assert 0 < len(kept) < 4000
    in_range = [t for t in kept if t.R / t.r <= sampling.MAX_ASPECT]
    assert 0 < len(in_range) < len(kept)
    assert _same_bytes(core.select_triangles(batch, sampling._in_range(batch)), in_range)
