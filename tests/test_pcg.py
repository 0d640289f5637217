"""``rqbm._pcg.Streams`` against ``np.random.default_rng``, draw for draw."""
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rqbm.spaces
from rqbm._pcg import Streams

RANGES = [(0.0, 10.0), (0.5, 2.0), (5.0, 50.0)]
# 1 and 2, n(n - 1) for a few table sizes, and bounds just above 2^31, where
# Lemire's method rejects almost half of its draws
BOUNDS = [1, 2, 3, 12, 20, 30, 56, 3540, 999000, 2**31 + 1, 2**31 + 3, 2**32 - 1]

seeds = st.one_of(st.integers(0, 2**32 + 8), st.integers(2**32 - 4, 2**32 + 8),
                  st.integers(2**128, 2**160), st.sampled_from([2**64 - 1, 2**64, 2**96, 2**128 - 1]))
uniform = st.tuples(st.just("uniform"), st.sampled_from(RANGES), st.integers(0, 40))
integers = st.tuples(st.just("integers"), st.sampled_from(BOUNDS), st.booleans())


def reference(lanes, salt, ops):
    """Each op in turn on one ``default_rng`` per lane: (lanes, count) floats
    for a uniform, (lanes,) int64 for integers."""
    rngs = [np.random.default_rng(seed if salt is None else [salt, seed]) for seed in lanes]
    out = []
    for op in ops:
        if op[0] == "uniform":
            (lo, hi), count = op[1:]
            out.append(np.array([rng.uniform(lo, hi, count) for rng in rngs]).reshape(len(rngs), count))
        else:
            out.append(np.array([rng.integers(c) for rng, c in zip(rngs, per_lane(op, len(rngs)))]))
    return out


def per_lane(op, lanes):
    """An integers op's bound, one per lane: the bound, or with its flag set,
    the bound less the lane's index (at least 1)."""
    _, bound, vary = op
    return [max(1, bound - k) if vary else bound for k in range(lanes)]


@settings(max_examples=150)
@given(
    lanes=st.lists(seeds, min_size=1, max_size=8),
    salt=st.sampled_from([None, 3, 9]),
    ops=st.lists(st.one_of(uniform, integers), min_size=1, max_size=6),
    block=st.sampled_from([1, 5, rqbm.spaces._BLOCK]),
)
@example(lanes=[0, 1, 2**32 - 1, 2**32, 2**32 + 8], salt=None,
         ops=[("uniform", (0.0, 10.0), 10), ("uniform", (0.5, 2.0), 20),
              ("integers", 20, False), ("uniform", (5.0, 50.0), 1)], block=rqbm.spaces._BLOCK)
@example(lanes=[5, 6], salt=9, ops=[("integers", 6, False), ("integers", 5, False)], block=1)
@example(lanes=list(range(8)), salt=3,
         ops=[("integers", 2**31 + 1, False)] * 6 + [("uniform", (0.0, 10.0), 3)], block=5)
def test_draws_match_default_rng_bit_for_bit(lanes, salt, ops, block):
    want = reference(lanes, salt, ops)
    rng = Streams(lanes, salt)
    with mock.patch.object(rqbm.spaces, "_BLOCK", block):  # blocks split a lane's draws
        for op, expected in zip(ops, want):
            if op[0] == "uniform":
                got = rng.uniform(*op[1], op[2])
            else:
                got = rng.integers(per_lane(op, len(lanes)))
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes(), op


def test_one_long_lane_in_blocks():
    want = np.random.default_rng(3).uniform(0.5, 2.0, 100_000)
    rng = Streams([3])
    assert rng.uniform(0.5, 2.0, 100_000)[0].tobytes() == want.tobytes()


@pytest.mark.parametrize("block", [64, rqbm.spaces._BLOCK])
@pytest.mark.parametrize("edge", [-1, 0, 1])
@pytest.mark.parametrize("k", [2, 4])
def test_one_draw_equals_successive_draws(block, edge, k):
    # N at a block boundary and either side of it: a block of _BLOCK words
    # holds _BLOCK // 2 states (32 at 64, 8,192 at the default)
    lanes, n = [7, 2**64 + 5], block // 2 + edge
    want = np.array([np.random.default_rng(seed).uniform(0.5, 2.0, k * n) for seed in lanes])
    with mock.patch.object(rqbm.spaces, "_BLOCK", block):
        whole = Streams(lanes).uniform(0.5, 2.0, k * n)
        rng = Streams(lanes)
        parts = [rng.uniform(0.5, 2.0, n) for _ in range(k)]
    assert whole.tobytes() == want.tobytes()
    assert whole.reshape(len(lanes), k, n).transpose(1, 0, 2).tobytes() == np.array(parts).tobytes()


@settings(max_examples=60)
@given(
    lanes=st.lists(seeds, min_size=1, max_size=4),
    segments=st.lists(st.tuples(st.sampled_from(RANGES), st.integers(0, 12)),
                      min_size=1, max_size=5),
    block=st.sampled_from([1, 5, rqbm.spaces._BLOCK]),
)
def test_per_column_bounds_match_per_segment_draws(lanes, segments, block):
    counts = [count for _, count in segments]
    lo, hi = (np.repeat([bounds[i] for bounds, _ in segments], counts) for i in (0, 1))
    want = [np.concatenate([rng.uniform(lo_, hi_, count) for (lo_, hi_), count in segments])
            for rng in map(np.random.default_rng, lanes)]
    with mock.patch.object(rqbm.spaces, "_BLOCK", block):
        got = Streams(lanes).uniform(lo, hi, sum(counts))
    assert got.tobytes() == np.array(want).reshape(len(lanes), -1).tobytes()


def test_a_draw_holds_its_output_and_a_few_blocks():
    # ROADMAP aim 3: a long one-lane draw peaks at its output plus a bounded
    # number of block-sized arrays (spaces._BLOCK uint64 words each), so its
    # memory does not grow with a larger block unnoticed
    count = 100_000
    rng = Streams([0])
    tracemalloc.start()
    try:
        rng.uniform(0.0, 1.0, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * count + 5 * 8 * rqbm.spaces._BLOCK


def test_no_lanes_draw_nothing():
    rng = Streams([])
    assert rng.uniform(0.0, 1.0, 5).shape == (0, 5) and rng.integers(3).shape == (0,)


@pytest.mark.parametrize("entropy", [[-1], [0, -1], [5, -2**40, 3]])
@pytest.mark.parametrize("salt", [None, 3])
def test_negative_seed_keeps_numpys_message(entropy, salt):
    with pytest.raises(ValueError) as want:
        for seed in entropy:
            np.random.default_rng(seed if salt is None else [salt, seed])
    with pytest.raises(ValueError) as got:
        Streams(entropy, salt)
    assert str(got.value) == str(want.value) == "expected non-negative integer"


@pytest.mark.parametrize("bound", [0, 2**32, [3, 0], [2, 2**40]])
def test_bounds_outside_the_32_bit_range_are_refused(bound):
    with pytest.raises(ValueError, match=r"bounds in \[1, 2\^32\)"):
        Streams([1, 2]).integers(bound)
