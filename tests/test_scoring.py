import math
import random

import pytest

from stallwatch.errors import DuplicateGroundTruth, UndefinedScore
from stallwatch.media import AnomalyEvent, BBox, GroundTruthEntry
from stallwatch.scoring import RMSE_CAP_S, match, s4, score_report


def pred(start, end=None, vid="v1", conf=0.9):
    return AnomalyEvent(vid, start, end if end is not None else start + 30.0,
                        BBox(0, 0, 1, 1), conf)


def gt(start, end=None, vid="v1"):
    return GroundTruthEntry(vid, start, end if end is not None else start + 30.0)


def counts(preds, gts):
    rep = score_report(preds, gts)
    return rep.tp, rep.fp, rep.fn


class TestMatch:
    def test_exact_match(self):
        assert counts([pred(100.0)], [gt(100.0)]) == (1, 0, 0)
        (_, _, err), = match([pred(100.0)], [gt(100.0)])
        assert err == 0.0

    def test_window_boundary(self):
        assert len(match([pred(110.0)], [gt(100.0)])) == 1
        assert len(match([pred(110.1)], [gt(100.0)])) == 0
        assert len(match([pred(110.1)], [gt(100.0)], window=10.1)) == 1

    def test_closest_first(self):
        # pred at 104 should pair with gt 100 (err 4), leaving gt 110
        # for the pred at 112 (err 2 claims gt 110 first)
        preds, gts = [pred(104.0), pred(112.0)], [gt(100.0), gt(110.0)]
        pairs = match(preds, gts)
        assert len(pairs) == 2
        errs = sorted(err for _, _, err in pairs)
        assert errs == [2.0, 4.0]
        assert pairs == [(preds[1], gts[1], 2.0), (preds[0], gts[0], 4.0)]

    def test_one_pred_cannot_match_twice(self):
        assert counts([pred(100.0)], [gt(99.0), gt(101.0)]) == (1, 0, 1)

    def test_videos_do_not_cross(self):
        assert counts([pred(100.0, vid="a")], [gt(100.0, vid="b")]) == (0, 1, 1)

    def test_duplicate_ground_truth(self):
        with pytest.raises(DuplicateGroundTruth):
            score_report([], [gt(100.0), gt(100.0)])


class TestMetrics:
    def test_f1_frozen(self):
        rep = score_report([pred(100.0), pred(200.0), pred(300.0), pred(400.0)],
                           [gt(100.0), gt(200.0), gt(300.0)])
        assert (rep.tp, rep.fp, rep.fn) == (3, 1, 0)
        assert rep.f1 == pytest.approx(6 / 7)

    def test_f1_zero_when_no_tp(self):
        rep = score_report([pred(100.0), pred(200.0)], [gt(500.0)])
        assert (rep.tp, rep.fp, rep.fn) == (0, 2, 1)
        assert rep.f1 == 0.0

    def test_f1_undefined_when_empty(self):
        with pytest.raises(UndefinedScore):
            score_report([], [])

    def test_rmse_frozen(self):
        rep = score_report([pred(103.0), pred(204.0)], [gt(100.0), gt(200.0)])
        assert rep.rmse == pytest.approx(math.sqrt(12.5))

    def test_rmse_cap_when_no_tp(self):
        rep = score_report([pred(100.0)], [])
        assert rep.fp == 1
        assert rep.rmse == RMSE_CAP_S

    def test_s4_perfect(self):
        nrmse, comp = s4(1.0, 0.0)
        assert nrmse == 0.0 and comp == 1.0

    def test_s4_zero_f1(self):
        assert s4(0.0, 50.0)[1] == 0.0

    def test_s4_rmse_above_cap_clamped(self):
        nrmse, comp = s4(1.0, 500.0)
        assert nrmse == 1.0 and comp == 0.0


class TestReport:
    def test_per_video_breakdown(self):
        preds = [pred(100.0, vid="a"), pred(50.0, 95.5, vid="b"),
                 pred(200.0, vid="b")]
        gts = [gt(101.0, vid="a"), gt(52.0, vid="b")]
        rep = score_report(preds, gts)
        assert rep.tp == 2 and rep.fp == 1 and rep.fn == 0
        assert rep.per_video["a"]["start_errors"] == [1.0]
        assert rep.per_video["a"]["end_errors"] == [1.0]  # 130 against 131
        # the end error is reported, not matched on: 95.5 against 82
        assert rep.per_video["b"] == {"tp": 1, "fp": 1, "fn": 0,
                                      "start_errors": [2.0],
                                      "end_errors": [13.5]}

    def test_totals_consistent(self):
        preds = [pred(10.0), pred(100.0), pred(500.0)]
        gts = [gt(12.0), gt(103.0), gt(300.0)]
        rep = score_report(preds, gts)
        assert rep.tp + rep.fp == len(preds)
        assert rep.tp + rep.fn == len(gts)
        nrmse, comp = s4(rep.f1, rep.rmse)
        assert rep.nrmse == pytest.approx(nrmse)
        assert rep.s4 == pytest.approx(comp)

    def test_totals_are_the_per_video_sums(self):
        rng = random.Random(7)
        paired = 0
        for _ in range(200):
            preds, gts = [], []
            for vid in ("a", "b", "c")[:rng.randint(1, 3)]:
                starts = [rng.uniform(15, 300) for _ in range(rng.randint(0, 4))]
                preds += [pred(s, vid=vid) for s in starts]
                # half of the truths near a prediction, the rest anywhere
                gts += [gt(s + rng.uniform(-12, 12), vid=vid)
                        for s in starts if rng.random() < 0.5]
                gts += [gt(rng.uniform(0, 300), vid=vid)
                        for _ in range(rng.randint(0, 2))]
            if not preds and not gts:
                continue
            rep = score_report(preds, gts)
            paired += rep.tp
            for key in ("tp", "fp", "fn"):
                assert getattr(rep, key) == sum(
                    v[key] for v in rep.per_video.values())
            assert rep.tp + rep.fp == len(preds)
            assert rep.tp + rep.fn == len(gts)
        assert paired > 0
