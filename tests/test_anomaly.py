import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stallwatch.anomaly import (
    Candidate,
    DecisionParams,
    coalesce_events,
    decide,
    detect_anomalies,
    extract_candidates,
    iou,
    merge_candidates,
    support_profile,
)
from stallwatch.media import MAX_COORD, AnomalyEvent, BBox

from conftest import Row, columns


def det(x, y, w=16, h=6, score=1.0, frame=0, label="car"):
    return Row(frame_index=frame, class_label=label, score=score,
               bbox=BBox(x, y, w, h))


def full_mask(w=320, h=240):
    return np.ones((h, w), dtype=bool)


boxes = st.builds(BBox, st.integers(0, 300), st.integers(0, 300),
                  st.integers(1, 100), st.integers(1, 100))


class TestIou:
    def test_identity(self):
        b = BBox(3, 4, 10, 20)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(BBox(0, 0, 5, 5), BBox(10, 10, 5, 5)) == 0.0

    def test_touching_edges_zero(self):
        assert iou(BBox(0, 0, 5, 5), BBox(5, 0, 5, 5)) == 0.0

    def test_half_shift(self):
        # 10x10 boxes shifted by half the width: 50 / 150 overlap
        assert iou(BBox(0, 0, 10, 10), BBox(5, 0, 10, 10)) == pytest.approx(1 / 3)

    @given(boxes, boxes)
    @settings(max_examples=300, deadline=None)
    def test_symmetry_and_bounds(self, a, b):
        v = iou(a, b)
        assert 0.0 <= v <= 1.0
        assert v == iou(b, a)


class TestExtract:
    def test_gates(self):
        params = DecisionParams()
        mask = full_mask()
        frame_area = 320 * 240
        good = det(10, 10, 16, 6)
        low_score = det(40, 10, 16, 6, score=0.4)
        tiny = det(70, 10, 5, 5)  # 25 px < 0.001 * 76800
        cands = extract_candidates([(0.0, columns([good, low_score, tiny]))],
                                   mask, params, frame_area, min_overlap=0.2)
        assert [c.bbox for c in cands] == [good.bbox]

    def test_off_road_rejected(self):
        bits = np.zeros((240, 320), dtype=bool)
        bits[100:130, :] = True
        cands = extract_candidates([(0.0, columns([det(10, 10), det(10, 110)]))],
                                   bits, DecisionParams(), 320 * 240,
                                   min_overlap=0.2)
        assert [c.bbox for c in cands] == [BBox(10, 110, 16, 6)]


class TestMerge:
    def test_recurring_box_collapses(self):
        cands = [Candidate(BBox(10, 10, 16, 6), 0.9, first_seen=w * 30.0)
                 for w in range(4)]
        merged = merge_candidates(cands, iou_merge=0.5)
        assert len(merged) == 1
        assert merged[0].windows_seen == 4
        assert merged[0].first_seen == 0.0

    def test_distinct_boxes_kept(self):
        cands = [Candidate(BBox(10, 10, 16, 6), 0.9, 0.0),
                 Candidate(BBox(200, 10, 16, 6), 0.9, 0.0)]
        assert len(merge_candidates(cands, 0.5)) == 2

    def test_best_score_kept(self):
        cands = [Candidate(BBox(10, 10, 16, 6), 0.6, 0.0),
                 Candidate(BBox(11, 10, 16, 6), 0.9, 30.0)]
        merged = merge_candidates(cands, 0.5)
        assert merged[0].score == 0.9
        assert merged[0].bbox == BBox(11, 10, 16, 6)

    def test_input_not_mutated(self):
        cands = [Candidate(BBox(10, 10, 16, 6), 0.9, 0.0),
                 Candidate(BBox(10, 10, 16, 6), 0.9, 30.0)]
        merge_candidates(cands, 0.5)
        assert all(c.windows_seen == 1 for c in cands)


class TestSupport:
    def test_overlapping_frames_collected(self):
        cand = Candidate(BBox(10, 10, 16, 6), 1.0, 0.0)
        fg = [det(10, 10, frame=5), det(10, 10, frame=7),
              det(200, 10, frame=6)]
        assert support_profile(cand, columns(fg), iou_support=0.3) == (5, 7)

    def test_duplicates_deduplicated(self):
        cand = Candidate(BBox(10, 10, 16, 6), 1.0, 0.0)
        fg = [det(10, 10, frame=5), det(11, 10, frame=5)]
        assert support_profile(cand, columns(fg), iou_support=0.3) == (5,)


def loop_support_profile(cand, foreground, iou_support):
    """support_profile as an `iou` loop over `Row`s; kept as the oracle."""
    frames = sorted({
        d.frame_index for d in foreground
        if iou(cand.bbox, d.bbox) >= iou_support
    })
    return tuple(frames)


# Small coordinates make equal, touching and exactly-at-threshold boxes
# common; values near MAX_COORD check that the arithmetic stays exact.
COORDS = st.one_of(st.integers(0, 12), st.sampled_from(
    [MAX_COORD // 2, MAX_COORD // 2 + 1, MAX_COORD - 3]))
SIDES = st.one_of(st.integers(1, 12), st.sampled_from(
    [MAX_COORD // 2 - 1, MAX_COORD // 2, MAX_COORD - 2]))
grid_boxes = st.builds(BBox, COORDS, COORDS, SIDES, SIDES)


class TestSupportOracle:
    @given(box=grid_boxes,
           rows=st.lists(st.tuples(st.integers(0, 30), grid_boxes), max_size=40))
    @settings(max_examples=400, deadline=None)
    def test_equals_loop(self, box, rows):
        cand = Candidate(box, 1.0, 0.0)
        fg = [det(b.x, b.y, b.w, b.h, frame=f) for f, b in rows]
        for iou_support in (0.0, 0.3, 1.0):
            assert support_profile(cand, columns(fg), iou_support) == \
                loop_support_profile(cand, fg, iou_support), iou_support

    def test_disjoint_rows_support_at_zero(self):
        cand = Candidate(BBox(10, 10, 16, 6), 1.0, 0.0)
        fg = [det(200, 100, frame=3), det(26, 10, frame=1)]  # far; touching
        assert support_profile(cand, columns(fg), 0.0) == (1, 3)
        assert support_profile(cand, columns(fg), 1e-12) == ()

    def test_threshold_is_inclusive(self):
        # intersection 3, union 10: IoU exactly 0.3
        cand = Candidate(BBox(0, 0, 5, 1), 1.0, 0.0)
        fg = [det(2, 0, w=8, h=1, frame=4)]
        assert iou(cand.bbox, fg[0].bbox) == 0.3
        assert support_profile(cand, columns(fg), 0.3) == (4,)


class TestDecide:
    fps = 10.0

    def _cand(self, windows_seen=5):
        return Candidate(BBox(10, 10, 16, 6), 0.9, 0.0, windows_seen=windows_seen)

    def test_accept_long_dense_support(self):
        cand = self._cand()
        frames = range(1000, 2500)
        ev = decide(cand, tuple(frames), DecisionParams(),
                    self.fps, "v1", n_windows=10)
        assert ev is not None
        assert ev.start == pytest.approx(100.0)
        assert ev.end == pytest.approx(249.9)

    def test_too_few_frames(self):
        cand = self._cand()
        ev = decide(cand, tuple(range(1000, 1009)),
                    DecisionParams(), self.fps, "v1", n_windows=10)
        assert ev is None

    def test_sparse_support_rejected(self):
        cand = self._cand()
        frames = range(0, 1000, 5)  # density 0.2 < 0.3
        ev = decide(cand, tuple(frames), DecisionParams(),
                    self.fps, "v1", n_windows=10)
        assert ev is None

    def test_single_window_sighting_rejected(self):
        cand = self._cand(windows_seen=1)
        ev = decide(cand, tuple(range(1000, 2500)),
                    DecisionParams(), self.fps, "v1", n_windows=10)
        assert ev is None

    def test_window_floor_capped_for_short_videos(self):
        # a video with a single background window cannot show two sightings
        cand = self._cand(windows_seen=1)
        ev = decide(cand, tuple(range(1000, 2500)),
                    DecisionParams(), self.fps, "v1", n_windows=1)
        assert ev is not None

    def test_gate_monotonicity(self, rng):
        """Tightening any threshold never turns a rejection into an accept."""
        for _ in range(200):
            frames = sorted(rng.choice(3000, size=rng.integers(5, 400),
                                       replace=False).tolist())
            cand = Candidate(BBox(10, 10, 16, 6), 0.9, 0.0,
                             windows_seen=int(rng.integers(1, 6)))
            base = DecisionParams()
            loose = decide(cand, tuple(frames), base,
                           self.fps, "v1", n_windows=10)
            tight = DecisionParams(
                min_support_seconds=base.min_support_seconds + float(rng.uniform(0, 5)),
                min_support_density=min(1.0, base.min_support_density + float(rng.uniform(0, 0.5))),
                min_windows=base.min_windows + int(rng.integers(0, 3)),
            )
            strict = decide(cand, tuple(frames), tight,
                            self.fps, "v1", n_windows=10)
            if loose is None:
                assert strict is None

    def _video(self, y):
        """A box seen in two background windows and densely supported by
        foreground rows in frames 100-199, against a road band at rows
        100-130."""
        road = np.zeros((240, 320), dtype=bool)
        road[100:130, :] = True
        per_window = [(0.0, columns([det(10, y, score=0.9)])),
                      (30.0, columns([det(10, y)]))]
        foreground = columns([det(10, y, frame=f) for f in range(100, 200)])
        return detect_anomalies(road, per_window, foreground,
                                DecisionParams(), min_overlap=0.2, fps=self.fps,
                                video_id="v1", frame_area=320 * 240)

    def test_detect_anomalies_on_road_event(self):
        events = self._video(y=110)
        assert len(events) == 1
        ev = events[0]
        assert (ev.video_id, ev.bbox) == ("v1", BBox(10, 110, 16, 6))
        assert ev.start == pytest.approx(10.0)
        assert ev.end == pytest.approx(19.9)
        assert ev.confidence == 1.0

    def test_detect_anomalies_off_road_none(self):
        assert self._video(y=10) == []


class TestCoalesce:
    def _ev(self, start, end, x=10, conf=0.9):
        return AnomalyEvent("v1", start, end, BBox(x, 10, 16, 6), conf)

    def test_overlapping_same_box_merged(self):
        out = coalesce_events([self._ev(10, 40), self._ev(30, 60)], 0.5)
        assert len(out) == 1
        assert out[0].start == 10 and out[0].end == 60

    def test_disjoint_in_time_kept(self):
        out = coalesce_events([self._ev(10, 20), self._ev(50, 60)], 0.5)
        assert len(out) == 2

    def test_overlap_in_time_different_box_kept(self):
        out = coalesce_events([self._ev(10, 40, x=10), self._ev(20, 50, x=200)], 0.5)
        assert len(out) == 2

    def test_confidence_is_max(self):
        out = coalesce_events([self._ev(10, 40, conf=0.6),
                               self._ev(30, 60, conf=0.8)], 0.5)
        assert out[0].confidence == 0.8
