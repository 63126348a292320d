import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stallwatch import anomaly, scoring
from stallwatch.anomaly import (
    RUN_GAP_S,
    Candidate,
    DecisionParams,
    decide,
    detect_anomalies,
    extract_candidates,
    iou,
    merge_candidates,
    support_profile,
)
from stallwatch.media import MAX_COORD, BBox

from conftest import Row, columns


def det(x, y, w=16, h=6, score=1.0, frame=0, label="car"):
    return Row(frame_index=frame, class_label=label, score=score,
               bbox=BBox(x, y, w, h))


def full_mask(w=320, h=240):
    return np.ones((h, w), dtype=bool)


def seen(*starts):
    """The windows, by start in seconds, that show a candidate."""
    return frozenset(starts)


boxes = st.builds(BBox, st.integers(0, 300), st.integers(0, 300),
                  st.integers(1, 100), st.integers(1, 100))
# on a 20x20 mask, overlapping often
small_boxes = st.builds(BBox, st.integers(0, 6), st.integers(0, 6),
                        st.integers(1, 6), st.integers(1, 6))


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
        good = det(10, 10, 16, 6)
        low_score = det(40, 10, 16, 6, score=0.4)
        tiny = det(70, 10, 5, 5)  # 25 px < 0.001 * 76800
        cands = extract_candidates([(0.0, columns([good, low_score, tiny]))],
                                   mask, params)
        assert [c.bbox for c in cands] == [good.bbox]
        # the area gate is a share of the mask's size: 9 px >= 0.001 * 4800,
        # but 9 px < 0.001 * 76800
        box = columns([det(10, 10, 3, 3)])
        small = extract_candidates([(0.0, box)], full_mask(80, 60), params)
        assert [c.bbox for c in small] == [BBox(10, 10, 3, 3)]
        assert extract_candidates([(0.0, box)], mask, params) == []

    def test_area_exactly_area_min_kept(self):
        """Like `score_min`, `area_min` is the least value kept: a box of
        exactly `area_min * mask.size` px passes."""
        params, mask = DecisionParams(), full_mask(100, 100)
        assert params.area_min * mask.size == 10
        kept = extract_candidates([(0.0, columns([det(0, 0, 5, 2), det(50, 50, 3, 3)]))],
                                  mask, params)
        assert [c.bbox for c in kept] == [BBox(0, 0, 5, 2)]

    def test_off_road_rejected(self):
        bits = np.zeros((240, 320), dtype=bool)
        bits[100:130, :] = True
        cands = extract_candidates([(0.0, columns([det(10, 10), det(10, 110)]))],
                                   bits, DecisionParams())
        assert [c.bbox for c in cands] == [BBox(10, 110, 16, 6)]

    @staticmethod
    def kept_on_band(box, params=DecisionParams()):
        """The boxes of `box`'s candidates on a 20x20 mask whose rows 5-14
        are road."""
        mask = np.zeros((20, 20), dtype=bool)
        mask[5:15, :] = True
        dets = columns([det(box.x, box.y, box.w, box.h)])
        return [c.bbox for c in extract_candidates([(0.0, dets)], mask, params)]

    def test_fully_on_road(self):
        assert self.kept_on_band(BBox(2, 6, 4, 4)) == [BBox(2, 6, 4, 4)]

    def test_fully_off_road(self):
        assert self.kept_on_band(BBox(0, 0, 4, 4)) == []

    def test_road_overlap_threshold(self):
        # box rows 3..12, road rows 5..14: 8 of 10 rows covered
        box = BBox(0, 3, 4, 10)
        assert self.kept_on_band(box, DecisionParams(min_road_overlap=0.8)) == [box]
        assert self.kept_on_band(box, DecisionParams(min_road_overlap=0.81)) == []


class TestMerge:
    def test_recurring_box_collapses(self):
        cands = [Candidate(BBox(10, 10, 16, 6), 0.9, seen(w * 30.0))
                 for w in range(4)]
        merged = merge_candidates(cands, iou_merge=0.5)
        assert len(merged) == 1
        assert merged[0].windows == {0.0, 30.0, 60.0, 90.0}

    def test_distinct_boxes_kept(self):
        cands = [Candidate(BBox(10, 10, 16, 6), 0.9, seen(0.0)),
                 Candidate(BBox(200, 10, 16, 6), 0.9, seen(0.0))]
        assert len(merge_candidates(cands, 0.5)) == 2

    def test_founding_box_kept_with_max_score(self):
        # a cluster never moves, so a later box cannot carry it onto
        # another cluster's
        cands = [Candidate(BBox(10, 10, 16, 6), 0.6, seen(0.0)),
                 Candidate(BBox(11, 10, 16, 6), 0.9, seen(30.0))]
        merged = merge_candidates(cands, 0.5)
        assert merged[0].score == 0.9
        assert merged[0].bbox == BBox(10, 10, 16, 6)

    def test_input_not_mutated(self):
        cands = [Candidate(BBox(10, 10, 16, 6), 0.9, seen(0.0)),
                 Candidate(BBox(10, 10, 16, 6), 0.9, seen(30.0))]
        merge_candidates(cands, 0.5)
        assert [c.windows for c in cands] == [{0.0}, {30.0}]

    def test_iou_exactly_iou_merge_merges(self):
        """`iou_merge` may be 1.0 (a FRACTION), and a box seen again in the
        next window at the same place has IoU exactly 1.0: it must merge,
        or at that threshold no box could count a second window."""
        same = [Candidate(BBox(10, 10, 16, 6), 0.9, seen(w)) for w in (0.0, 30.0)]
        assert len(merge_candidates(same, 1.0)) == 1
        # intersection 2, union 4
        half = [Candidate(BBox(0, 0, 4, 1), 0.9, seen(0.0)),
                Candidate(BBox(0, 0, 2, 1), 0.9, seen(30.0))]
        assert iou(half[0].bbox, half[1].bbox) == 0.5
        assert len(merge_candidates(half, 0.5)) == 1


class TestSupport:
    def test_overlapping_frames_collected(self):
        cand = Candidate(BBox(10, 10, 16, 6), 1.0, seen(0.0))
        fg = [det(10, 10, frame=5), det(10, 10, frame=7),
              det(200, 10, frame=6)]
        assert support_profile(cand, columns(fg), iou_support=0.3) == (5, 7)

    def test_duplicates_deduplicated(self):
        cand = Candidate(BBox(10, 10, 16, 6), 1.0, seen(0.0))
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
        cand = Candidate(box, 1.0, seen(0.0))
        fg = [det(b.x, b.y, b.w, b.h, frame=f) for f, b in rows]
        for iou_support in (0.0, 0.3, 1.0):
            assert support_profile(cand, columns(fg), iou_support) == \
                loop_support_profile(cand, fg, iou_support), iou_support

    def test_disjoint_rows_support_at_zero(self):
        cand = Candidate(BBox(10, 10, 16, 6), 1.0, seen(0.0))
        fg = [det(200, 100, frame=3), det(26, 10, frame=1)]  # far; touching
        assert support_profile(cand, columns(fg), 0.0) == (1, 3)
        assert support_profile(cand, columns(fg), 1e-12) == ()

    def test_threshold_is_inclusive(self):
        # intersection 3, union 10: IoU exactly 0.3
        cand = Candidate(BBox(0, 0, 5, 1), 1.0, seen(0.0))
        fg = [det(2, 0, w=8, h=1, frame=4)]
        assert iou(cand.bbox, fg[0].bbox) == 0.3
        assert support_profile(cand, columns(fg), 0.3) == (4,)


class TestDecide:
    fps = 10.0

    def _cand(self, windows=5):
        """A candidate shown by the first `windows` 30 s windows."""
        return Candidate(BBox(10, 10, 16, 6), 0.9,
                         seen(*(30.0 * w for w in range(windows))))

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
        cand = self._cand(windows=1)
        ev = decide(cand, tuple(range(1000, 2500)),
                    DecisionParams(), self.fps, "v1", n_windows=10)
        assert ev is None

    def test_window_floor_capped_for_short_videos(self):
        # a video with a single background window cannot show two sightings
        cand = self._cand(windows=1)
        ev = decide(cand, tuple(range(1000, 2500)),
                    DecisionParams(), self.fps, "v1", n_windows=1)
        assert ev is not None

    def test_gate_monotonicity(self, rng):
        """Tightening any threshold never turns a rejection into an accept."""
        for _ in range(200):
            frames = sorted(rng.choice(3000, size=rng.integers(5, 400),
                                       replace=False).tolist())
            cand = self._cand(windows=int(rng.integers(1, 6)))
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

    def test_exactly_min_support_frames_accepted(self):
        """`min_support_seconds` is the least support that confirms: at
        10 fps its 1 s is 10 frames, and 10 frames are enough."""
        assert DecisionParams().min_support_frames(self.fps) == 10
        ev = decide(self._cand(), tuple(range(1000, 1010)), DecisionParams(),
                    self.fps, "v1", n_windows=10)
        assert ev is not None

    def test_density_exactly_min_support_density_accepted(self):
        """`min_support_density` may be 1.0 (a FRACTION), the density of
        an unbroken support, which must confirm; so a density equal to
        the threshold passes, at 1.0 and at the default 0.3."""
        unbroken = tuple(range(1000, 1010))
        assert decide(self._cand(), unbroken, DecisionParams(min_support_density=1.0),
                      self.fps, "v1", n_windows=10) is not None
        frames = (*range(1000, 1087, 3), 1099)  # 30 frames over 100
        assert len(frames) / (frames[-1] - frames[0] + 1) == 0.3
        assert decide(self._cand(), frames, DecisionParams(),
                      self.fps, "v1", n_windows=10) is not None

    def test_single_frame_run_ends_one_frame_after_it_starts(self):
        """An accepted run of one frame spans that frame: an event must end
        after it starts, which `AnomalyEvent` checks."""
        params = DecisionParams(min_support_seconds=0.01)
        assert params.min_support_frames(self.fps) == 1
        ev = decide(self._cand(), (1000,), params, self.fps, "v1", n_windows=10)
        assert (ev.start, ev.end) == (100.0, 100.0 + 1 / self.fps)

    def _video(self, y, frames=range(100, 400)):
        """A box seen in background windows 0 and 30 s, densely supported
        by foreground rows in `frames` (by default 10-39.9 s, so in both
        windows), against a road band at rows 100-130."""
        road = np.zeros((240, 320), dtype=bool)
        road[100:130, :] = True
        per_window = [(0.0, columns([det(10, y, score=0.9)])),
                      (30.0, columns([det(10, y)]))]
        foreground = columns([det(10, y, frame=f) for f in frames])
        return detect_anomalies(road, per_window, foreground,
                                DecisionParams(), fps=self.fps,
                                video_id="v1")

    def test_detect_anomalies_on_road_event(self):
        events = self._video(y=110)
        assert len(events) == 1
        ev = events[0]
        assert (ev.video_id, ev.bbox) == ("v1", BBox(10, 110, 16, 6))
        assert ev.start == pytest.approx(10.0)
        assert ev.end == pytest.approx(39.9)
        assert ev.confidence == 1.0

    def test_detect_anomalies_off_road_none(self):
        assert self._video(y=10) == []

    def test_window_without_the_runs_frames_not_counted(self):
        # seen in two windows, but supported only in the first
        assert self._video(y=110, frames=range(100, 200)) == []

    def test_frame_at_a_window_start_is_in_that_window(self):
        """A window starts at its first frame (`background.window_bounds`),
        which its median samples; so a run whose last frame is at exactly
        30.0 s holds the window that starts there."""
        events = self._video(y=110, frames=range(200, 301))
        assert [(ev.start, ev.end) for ev in events] == [(20.0, 30.0)]


class TestWindowsGate:
    def test_duplicate_boxes_of_one_window_count_once(self):
        """Two boxes of one window at IoU >= iou_merge are one sighting: in
        a 3-window video, with `min_windows` 2, they give no event,
        however dense the support."""
        per_window = [(0.0, columns([det(10, 10), det(11, 10)])),
                      (30.0, columns([])), (60.0, columns([]))]
        assert iou(BBox(10, 10, 16, 6), BBox(11, 10, 16, 6)) >= 0.5
        foreground = columns([det(10, 10, frame=f) for f in range(900)])
        assert detect_anomalies(full_mask(), per_window, foreground,
                                DecisionParams(), fps=10.0, video_id="v1") == []


class TestRuns:
    """Each run of a candidate's support, cut at gaps over RUN_GAP_S, is
    decided as its own event."""

    @staticmethod
    def spans(frames, fps):
        """The (start, end) of every event of a one-window video whose one
        box is supported on `frames`: the windows gate always passes."""
        per_window = [(0.0, columns([det(10, 10)]))]
        foreground = columns([det(10, 10, frame=f) for f in frames])
        return [(ev.start, ev.end) for ev in detect_anomalies(
            full_mask(), per_window, foreground, DecisionParams(), fps=fps,
            video_id="v1")]

    def test_gap_is_the_scoring_window(self):
        # stops closer together than a match window cannot be scored apart
        assert RUN_GAP_S == scoring.MATCH_WINDOW_S

    @pytest.mark.parametrize("fps", [2.0, 10.0])
    def test_gap_of_exactly_run_gap_s_is_one_run(self, fps):
        gap = int(RUN_GAP_S * fps)
        frames = [*range(40), *range(39 + gap, 79 + gap)]
        assert self.spans(frames, fps) == [(0.0, (78 + gap) / fps)]

    @pytest.mark.parametrize("fps", [2.0, 10.0])
    def test_gap_over_run_gap_s_splits(self, fps):
        gap = int(10.5 * fps)
        frames = [*range(40), *range(39 + gap, 79 + gap)]
        assert self.spans(frames, fps) == [(0.0, 39 / fps),
                                           ((39 + gap) / fps, (78 + gap) / fps)]

    def test_empty_support_is_decided_once(self, monkeypatch):
        """One `decide` call per run, and an empty support is one empty
        run, which the support gate rejects."""
        calls = []
        monkeypatch.setattr(anomaly, "decide",
                            lambda cand, frames, *args, **kwargs: calls.append(frames))
        assert self.spans([], 2.0) == []
        assert calls == [()]

    @given(windows=st.lists(st.lists(st.tuples(small_boxes, st.sampled_from(
               [0.5, 0.7, 1.0])), max_size=5), min_size=1, max_size=3),
           shown=st.sets(st.integers(0, 59)),
           rows=st.lists(st.tuples(st.integers(0, 59), small_boxes), max_size=40),
           iou_merge=st.sampled_from([0.1, 0.3, 0.5, 1.0]))
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_events_never_overlap_in_time_and_space(self, windows, shown, rows,
                                                    iou_merge):
        """The invariant the deleted `coalesce_events` enforced: no two of a
        video's events overlap in time with boxes at IoU >= iou_merge. The
        foreground holds every background box on the frames `shown`, and
        the `rows`."""
        per_window = [(20.0 * w, columns([det(b.x, b.y, b.w, b.h, score=score)
                                          for b, score in boxes]))
                      for w, boxes in enumerate(windows)]
        every = [b for boxes in windows for b, _ in boxes]
        rows = rows + [(f, b) for f in sorted(shown) for b in every]
        foreground = columns([det(b.x, b.y, b.w, b.h, frame=f) for f, b in rows])
        events = detect_anomalies(full_mask(20, 20), per_window, foreground,
                                  DecisionParams(iou_merge=iou_merge), fps=1.0,
                                  video_id="v1")
        for a, b in itertools.combinations(events, 2):
            assert not (a.start <= b.end and b.start <= a.end
                        and iou(a.bbox, b.bbox) >= iou_merge), (a, b)
