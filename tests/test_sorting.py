import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stallwatch.codec import decode, encode
from stallwatch.errors import EmptyInput, InsufficientData
from stallwatch.media import BBox, open_sequence
from stallwatch.sorting import (
    GATE_FRACTION,
    MIN_MOVE_PX,
    SMOOTH_RADIUS,
    LightingClass,
    RoadType,
    VideoCategory,
    average_histogram,
    background_window_for,
    classify_lighting,
    classify_road_type,
    estimate_directions,
    find_histogram_peaks,
    _smooth,
)

from conftest import Row, columns


def gaussian_hist(center: float, sigma: float = 8.0) -> np.ndarray:
    x = np.arange(256)
    return np.exp(-0.5 * ((x - center) / sigma) ** 2)


class TestHistogram:
    @pytest.mark.parametrize("stride", [1, 7, 30])
    def test_average_is_a_distribution(self, mini_corpus, stride):
        seq = open_sequence(mini_corpus / "videos" / "mini_day_stall")
        hist = average_histogram(seq, stride)
        assert isinstance(hist, np.ndarray)
        assert hist.shape == (256,) and hist.dtype == np.float64
        assert (hist >= 0).all()
        assert abs(hist.sum() - 1.0) <= 1e-9

    def test_smooth_preserves_constant(self):
        bins = np.full(256, 1 / 256)
        assert np.allclose(_smooth(bins, 5), bins)

    def test_smooth_truncated_at_ends(self):
        # impulse at bin 0: radius-1 window there holds only 2 bins
        bins = np.zeros(8)
        bins[0] = 1.0
        out = _smooth(bins, 1)
        assert out[0] == pytest.approx(0.5)
        assert out[1] == pytest.approx(1 / 3)
        assert out[3] == 0.0


class TestPeaks:
    def test_single_gaussian_one_peak(self):
        h = gaussian_hist(128)
        peaks = find_histogram_peaks(h / h.sum())
        assert len(peaks) == 1
        assert abs(peaks[0][0] - 128) <= 2

    def test_two_gaussians_two_peaks(self):
        h = gaussian_hist(60) + gaussian_hist(200)
        peaks = find_histogram_peaks(h / h.sum())
        assert len(peaks) == 2
        assert abs(peaks[0][0] - 60) <= 2 and abs(peaks[1][0] - 200) <= 2

    def test_boundary_peak_detected(self):
        h = gaussian_hist(0, sigma=5)
        peaks = find_histogram_peaks(h / h.sum())
        assert peaks and peaks[0][0] <= 3

    def test_tiny_ripple_suppressed(self):
        h = gaussian_hist(128) + 0.001 * gaussian_hist(30, sigma=2)
        peaks = find_histogram_peaks(h / h.sum())
        assert [b for b, _ in peaks if b < 60] == []


class TestLighting:
    def test_dark_dominant_is_night(self):
        h = gaussian_hist(20) + 0.3 * gaussian_hist(150)
        assert classify_lighting(h / h.sum()) is LightingClass.NIGHT

    def test_two_bright_peaks_is_snow(self):
        # weighted mean of peaks at 200 and 240 lands inside [200, 250]
        h = gaussian_hist(200) + gaussian_hist(240)
        assert classify_lighting(h / h.sum()) is LightingClass.SNOW

    def test_midtone_single_peak_is_day(self):
        h = gaussian_hist(130)
        assert classify_lighting(h / h.sum()) is LightingClass.DAY

    def test_bright_unimodal_is_day(self):
        # one bright peak is not enough evidence for snow
        h = gaussian_hist(230)
        assert classify_lighting(h / h.sum()) is LightingClass.DAY

    def test_two_peaks_mean_below_band_is_day(self):
        h = gaussian_hist(100) + gaussian_hist(220)
        assert classify_lighting(h / h.sum()) is LightingClass.DAY

    @staticmethod
    def _blocks(mass_at: dict[int, int]) -> np.ndarray:
        """A histogram of flat 11-bin blocks of height mass / 64, one centred
        on each bin of `mass_at`, cut off at bin 255: its smoothed peaks sit
        on those bins with exactly mass / 64, so their mean bin is exact."""
        h = np.zeros(256)
        for b, mass in mass_at.items():
            h[b - SMOOTH_RADIUS:b + SMOOTH_RADIUS + 1] = mass / 64
        return h

    @pytest.mark.parametrize("peak, lighting", [(50, LightingClass.NIGHT),
                                                (51, LightingClass.DAY)])
    def test_dominant_peak_at_bin_50_is_night(self, peak, lighting):
        """The night range [0, 50] is closed, as the docstring gives it."""
        h = self._blocks({peak: 1})
        assert find_histogram_peaks(h) == [(peak, 1 / 64)]
        assert classify_lighting(h) is lighting

    @pytest.mark.parametrize("masses", [{180: 1, 220: 1}, {230: 1, 255: 4}],
                             ids=["mean-200", "mean-250"])
    def test_peaks_meaning_bin_200_or_250_are_snow(self, masses):
        """The snow range [200, 250] is closed at both ends, as the
        docstring gives it: peaks whose mass-weighted mean bin is exactly
        200.0 or 250.0 are snow."""
        h = self._blocks(masses)
        peaks = find_histogram_peaks(h)
        assert [b for b, _ in peaks] == list(masses)
        mean_bin = sum(b * m for b, m in peaks) / sum(m for _, m in peaks)
        assert mean_bin in (200.0, 250.0)
        assert classify_lighting(h) is LightingClass.SNOW


def track(points: list[tuple[int, float, float]]) -> list[Row]:
    """(frame, cx, cy) -> detections with 10x10 boxes centred there."""
    return [
        Row(frame_index=f, class_label="car", score=1.0,
            bbox=BBox(int(cx) - 5, int(cy) - 5, 10, 10))
        for f, cx, cy in points
    ]


class TestDirections:
    def test_single_direction(self):
        dets = track([(i, 20 + 10 * i, 50) for i in range(10)])
        assert estimate_directions(columns(dets), frame_width=320) == 1

    def test_opposing_flows(self):
        dets = track([(i, 20 + 10 * i, 50) for i in range(10)])
        dets += track([(i, 300 - 10 * i, 80) for i in range(10)])
        assert estimate_directions(columns(dets), frame_width=320) == 2

    def test_four_way(self):
        dets = track([(i, 20 + 10 * i, 50) for i in range(10)])
        dets += track([(i, 300 - 10 * i, 80) for i in range(10)])
        dets += track([(i, 150, 20 + 10 * i) for i in range(10)])
        dets += track([(i, 180, 220 - 10 * i) for i in range(10)])
        assert estimate_directions(columns(dets), frame_width=320) == 4

    def test_stationary_only_gives_zero(self):
        dets = track([(i, 100, 100) for i in range(10)])
        assert estimate_directions(columns(dets), frame_width=320) == 0

    def test_gate_blocks_teleports(self):
        # jumps of half the frame width exceed the association gate
        dets = track([(i, 10 + 160 * (i % 2), 50) for i in range(10)])
        assert estimate_directions(columns(dets), frame_width=320) == 0

    def test_single_frame_insufficient(self):
        with pytest.raises(InsufficientData):
            estimate_directions(columns(track([(0, 10, 10)])), frame_width=320)


def loop_directions(detections, frame_width, support_fraction=0.05):
    """estimate_directions as a per-detection loop over `Row`s,
    with their box centroids; kept as the oracle."""
    by_frame = {}
    for det in detections:
        box = det.bbox
        by_frame.setdefault(det.frame_index, []).append(
            (box.x + box.w / 2.0, box.y + box.h / 2.0))
    frames = sorted(by_frame)
    if len(frames) < 2:
        raise InsufficientData(f"detections span {len(frames)} frame(s), need >= 2")
    gate = GATE_FRACTION * frame_width
    bin_counts = np.zeros(8, dtype=np.int64)
    total = 0
    for prev, cur in zip(frames, frames[1:]):
        targets = np.asarray(by_frame[cur], dtype=np.float64)
        for cx, cy in by_frame[prev]:
            deltas = targets - (cx, cy)
            dists = np.hypot(deltas[:, 0], deltas[:, 1])
            j = int(np.argmin(dists))
            if dists[j] > gate:
                continue
            dx, dy = deltas[j]
            mag = dists[j]
            if mag < MIN_MOVE_PX:
                continue
            angle = math.atan2(dy, dx) % (2 * math.pi)
            bin_counts[int(angle / (math.pi / 4)) % 8] += 1
            total += 1
    if total == 0:
        return 0
    return int(np.count_nonzero(bin_counts / total >= support_fraction))


# Coordinates on a coarse grid, so that equal distances (ties), steps of
# exactly MIN_MOVE_PX (2 px), steps of exactly the gate (32 px at width
# 320, 2 px at width 20) and diagonal steps on a bin edge are common. Odd
# sides put centroids on half pixels.
detection_lists = st.lists(
    st.builds(
        lambda f, x, y, w, h: Row(f, "car", 1.0, BBox(x, y, w, h)),
        st.integers(0, 6),
        st.sampled_from([0, 1, 2, 4, 32, 34, 64]),
        st.sampled_from([0, 2, 4, 32]),
        st.sampled_from([2, 3, 4, 6]),
        st.sampled_from([2, 3, 4])),
    max_size=24)

# support fractions that between them expose which bins are filled
SUPPORTS = (1e-9, 0.05, 0.34, 0.5, 1.0)


def assert_same_as_loop(dets, frame_width):
    for support in SUPPORTS:
        try:
            want = loop_directions(dets, frame_width, support)
        except InsufficientData:
            with pytest.raises(InsufficientData):
                estimate_directions(columns(dets), frame_width, support_fraction=support)
            continue
        got = estimate_directions(columns(dets), frame_width, support_fraction=support)
        assert got == want, support


class TestDirectionsOracle:
    @given(detection_lists, st.sampled_from([320, 20]))
    @settings(max_examples=400, deadline=None)
    def test_equals_loop(self, dets, frame_width):
        assert_same_as_loop(dets, frame_width)

    def test_dense_frames_with_gaps(self, rng):
        dets = [
            Row(int(f), "car", 1.0,
                BBox(int(rng.integers(0, 300)), int(rng.integers(0, 220)),
                     int(rng.integers(2, 20)), int(rng.integers(2, 20))))
            for f in rng.choice(400, 200, replace=False)
            for _ in range(int(rng.integers(1, 9)))
        ]
        assert_same_as_loop(dets, 320)

    def test_tie_takes_first_detection(self):
        # two frame-1 boxes sit 2 px left and 2 px right of the first
        # frame-0 box: the one listed first wins, so both vectors point
        # left and one bin holds all of them
        dets = track([(0, 20, 50), (0, 200, 150),
                      (1, 18, 50), (1, 22, 50), (1, 197, 150)])
        assert estimate_directions(columns(dets), 320, support_fraction=1.0) == 1
        assert loop_directions(dets, 320, 1.0) == 1


class TestRoadType:
    def test_thresholds(self):
        assert classify_road_type(0) is RoadType.FREEWAY
        assert classify_road_type(2) is RoadType.FREEWAY
        assert classify_road_type(3) is RoadType.INTERSECTION
        assert classify_road_type(4) is RoadType.INTERSECTION

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            classify_road_type(-1)


class TestBackgroundWindow:
    def test_day_freeway_short(self):
        assert background_window_for(LightingClass.DAY, RoadType.FREEWAY) == 30.0

    def test_everything_else_long(self):
        assert background_window_for(LightingClass.NIGHT, RoadType.FREEWAY) == 300.0
        assert background_window_for(LightingClass.SNOW, RoadType.FREEWAY) == 300.0
        assert background_window_for(LightingClass.DAY, RoadType.INTERSECTION) == 300.0
        assert background_window_for(LightingClass.NIGHT, RoadType.INTERSECTION) == 300.0


class TestCategoryFile:
    def test_round_trip(self):
        cat = VideoCategory("v1", LightingClass.SNOW, RoadType.FREEWAY, 300.0)
        assert decode(VideoCategory, encode(cat)) == cat
        assert set(encode(cat)) == {"video_id", "lighting", "road_type",
                                    "background_window_s"}

    def test_file_with_mask_constants_still_loads(self):
        # category.json once also carried the road-mask constants k1/k2;
        # they now come from the config only and are ignored on load
        obj = {"video_id": "v1", "lighting": "day", "road_type": "freeway",
               "background_window_s": 30.0, "k1": 2.0, "k2": 0.6}
        assert decode(VideoCategory, obj) == VideoCategory(
            "v1", LightingClass.DAY, RoadType.FREEWAY, 30.0)
