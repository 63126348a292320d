import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stallwatch.background import (
    MIN_PARTIAL_FRACTION,
    background_stream,
    derive_seed,
    median_frame,
    sample_indices,
    window_bounds,
)
from stallwatch.errors import EmptyInput
from stallwatch.media import Frame, SequenceMeta, open_sequence, write_sequence
from stallwatch.sorting import LightingClass, RoadType, VideoCategory

from conftest import make_frame, scratch


class TestSeed:
    def test_deterministic(self):
        assert derive_seed(0, "v1", 0) == derive_seed(0, "v1", 0)

    def test_sensitive_to_all_inputs(self):
        base = derive_seed(0, "v1", 0)
        assert derive_seed(1, "v1", 0) != base
        assert derive_seed(0, "v2", 0) != base
        assert derive_seed(0, "v1", 300) != base


class TestSampling:
    def test_count_is_ceil(self):
        assert len(sample_indices(range(100), 0.10, seed=1)) == 10
        assert len(sample_indices(range(101), 0.10, seed=1)) == 11
        assert len(sample_indices(range(5), 0.10, seed=1)) == 1

    def test_sorted_unique_within_window(self):
        window = range(300, 600)
        picks = sample_indices(window, 0.10, seed=7)
        assert picks == sorted(picks)
        assert len(set(picks)) == len(picks)
        assert all(i in window for i in picks)

    def test_same_seed_same_picks(self):
        a = sample_indices(range(1000), 0.10, seed=42)
        b = sample_indices(range(1000), 0.10, seed=42)
        assert a == b

    def test_empty_window(self):
        with pytest.raises(EmptyInput):
            sample_indices(range(0), 0.10, seed=0)

    @given(st.integers(1, 500), st.floats(0.01, 1.0), st.integers(0, 2**31))
    @settings(max_examples=100, deadline=None)
    def test_count_property(self, n, fraction, seed):
        picks = sample_indices(range(n), fraction, seed)
        assert len(picks) == math.ceil(fraction * n)


class TestMedian:
    def test_three_frames_pixelwise(self):
        frames = [make_frame([[v]]) for v in (9, 1, 5)]
        assert median_frame(scratch(frames)) == make_frame([[5]])

    def test_even_count_lower_middle(self):
        frames = [make_frame([[v]]) for v in (1, 2, 3, 4)]
        assert median_frame(scratch(frames)) == make_frame([[2]])

    def test_transient_erased(self):
        # 9 frames of bright "traffic", 12 of dark "road": majority wins
        frames = [make_frame([[255]])] * 9 + [make_frame([[40]])] * 12
        assert median_frame(scratch(frames)) == make_frame([[40]])

    def test_empty(self):
        with pytest.raises(EmptyInput):
            median_frame([])

    def test_matches_sort_oracle(self, rng):
        # every window size up to 300: odd and even n, and n > 255, where
        # a per-pixel count no longer fits in a byte
        for n in range(1, 301):
            stack = rng.integers(0, 256, (n, 3, 5), dtype=np.uint8)
            want = np.sort(stack, axis=0)[(n - 1) // 2]
            assert median_frame(list(map(Frame, stack))) == Frame(want), n

    @pytest.mark.parametrize("n", [1, 2, 255, 256, 300])
    @pytest.mark.parametrize("value", [0, 255])
    def test_constant_stack(self, n, value):
        frames = [make_frame(np.full((2, 3), value))] * n
        assert median_frame(scratch(frames)) == make_frame(np.full((2, 3), value))

    @pytest.mark.parametrize("n", range(1, 17))
    def test_every_zero_one_column(self, n):
        # 0-1 principle: a comparator network that selects the k-th smallest
        # of every 0/1 input selects it of every input. Column c holds the
        # bits of c; its k-th smallest is 1 iff at most k of its bits are 0.
        columns = np.arange(2**n)
        bits = (columns >> np.arange(n)[:, None]) & 1
        ones = bits.sum(axis=0)
        want = (ones >= n - (n - 1) // 2).astype(np.uint8)
        stack = bits.astype(np.uint8).reshape(n, 1, 2**n)
        assert median_frame(list(map(Frame, stack))) == Frame(want[None, :])

    @pytest.mark.parametrize("n, shape", [(6, (240, 320)), (60, (240, 320)),
                                          (300, (7, 11))])
    def test_benchmark_shapes_match_sort_oracle(self, rng, n, shape):
        # the corpus's windows of 6 and 60 samples, and a 10 fps
        # intersection's 300 on a small frame
        stack = rng.integers(0, 256, (n, *shape), dtype=np.uint8)
        want = np.sort(stack, axis=0)[(n - 1) // 2]
        med = median_frame(list(map(Frame, stack)))
        assert med == Frame(want)
        # the frames are scratch, so the result must not be one of them
        assert not np.shares_memory(med.pixels, stack)

    def test_output_value_was_observed(self, rng):
        frames = [make_frame(rng.integers(0, 256, (4, 4))) for _ in range(6)]
        med = median_frame(scratch(frames)).pixels
        stack = np.stack([f.pixels for f in frames])
        assert ((stack == med).any(axis=0)).all()


class TestWindows:
    def test_exact_partition(self):
        # 3000 frames at 10 fps, 30 s windows -> ten 300-frame windows
        bounds = window_bounds(3000, 10.0, 30.0)
        assert len(bounds) == 10
        assert bounds[0] == (0, 300) and bounds[-1] == (2700, 3000)

    def test_single_long_window(self):
        assert window_bounds(3000, 10.0, 300.0) == [(0, 3000)]

    def test_tiny_tail_merged(self):
        # 3010 frames: the 10-frame tail is under 10% of a 300-frame window
        bounds = window_bounds(3010, 10.0, 30.0)
        assert len(bounds) == 10
        assert bounds[-1] == (2700, 3010)

    def test_big_tail_kept(self):
        bounds = window_bounds(3100, 10.0, 30.0)
        assert len(bounds) == 11
        assert bounds[-1] == (3000, 3100)

    def test_merge_threshold_boundary(self):
        # tail of exactly 10% is kept, just under is merged
        wlen = 300
        keep = window_bounds(wlen + int(MIN_PARTIAL_FRACTION * wlen), 10.0, 30.0)
        assert len(keep) == 2
        merge = window_bounds(wlen + int(MIN_PARTIAL_FRACTION * wlen) - 1, 10.0, 30.0)
        assert len(merge) == 1

    @given(st.integers(1, 5000), st.floats(1.0, 60.0), st.floats(1.0, 400.0))
    @settings(max_examples=200, deadline=None)
    def test_partition_property(self, frame_count, fps, window_s):
        bounds = window_bounds(frame_count, fps, window_s)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == frame_count
        for (a0, a1), (b0, b1) in zip(bounds, bounds[1:]):
            assert a1 == b0
        assert all(s < e for s, e in bounds)


class TestStream:
    def _sequence(self, directory, values, fps):
        """A sequence whose frame i is filled with values[i]."""
        write_sequence(directory, SequenceMeta("v", fps, len(values), 4, 3),
                       [Frame(np.full((3, 4), v, dtype=np.uint8)) for v in values])
        return open_sequence(directory)

    def test_shorter_window_uses_only_its_own_rows(self, tmp_path):
        # 1 s windows at 10 fps: ten frames of 255, then a five-frame tail
        # whose own median is 0; five stale rows of 255 would make it 10
        values = [255] * 10 + [0, 0, 0, 10, 10]
        seq = self._sequence(tmp_path, values, fps=10.0)
        cat = VideoCategory("v", LightingClass.DAY, RoadType.FREEWAY, 1.0)
        bgs = background_stream(seq, cat, fraction=1.0, seed=0)
        assert [len(window.sampled_indices) for window, _ in bgs] == [10, 5]
        (_, first), (_, tail) = bgs
        assert first == Frame(np.full((3, 4), 255, dtype=np.uint8))
        assert tail == Frame(np.zeros((3, 4), dtype=np.uint8))

    def test_each_window_equals_median_of_its_frames(self, tmp_path, rng):
        values = rng.integers(0, 256, 47).tolist()
        seq = self._sequence(tmp_path, values, fps=10.0)
        cat = VideoCategory("v", LightingClass.DAY, RoadType.FREEWAY, 2.0)
        bgs = background_stream(seq, cat, fraction=0.5, seed=3)
        assert len(bgs) == 3
        for window, frame in bgs:
            assert frame == median_frame(
                scratch([seq.frame(i) for i in window.sampled_indices]))
