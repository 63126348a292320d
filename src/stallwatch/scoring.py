"""
Corpus scoring in one pass: `score_report` groups events by video, pairs
each video's with `match`, and in the same loop counts tp, fp and fn and
collects the start errors. From those: F1, the start-time RMSE, NRMSE and
the composite score f1 * (1 - nrmse) with nrmse = min(rmse, 300) / 300.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

from .errors import DuplicateGroundTruth, UndefinedScore
from .media import AnomalyEvent, GroundTruthEntry

MATCH_WINDOW_S = 10.0
RMSE_CAP_S = 300.0


@dataclass(frozen=True)
class ScoreReport:
    f1: float
    rmse: float
    nrmse: float
    s4: float
    tp: int
    fp: int
    fn: int
    per_video: dict[str, dict]


def match(preds: list[AnomalyEvent], gts: list[GroundTruthEntry],
          window: float = MATCH_WINDOW_S
          ) -> list[tuple[AnomalyEvent, GroundTruthEntry, float]]:
    """Greedy closest-first pairing of one video's predicted and true starts
    within `window`: (prediction, truth, start error), closest pair first."""
    candidates = sorted(
        (abs(p.start - g.start), gi, pi)
        for pi, p in enumerate(preds)
        for gi, g in enumerate(gts)
        if abs(p.start - g.start) <= window
    )
    used_p: set[int] = set()
    used_g: set[int] = set()
    pairs = []
    for err, gi, pi in candidates:
        if pi not in used_p and gi not in used_g:
            used_p.add(pi)
            used_g.add(gi)
            pairs.append((preds[pi], gts[gi], err))
    return pairs


def s4(f1_val: float, rmse_val: float) -> tuple[float, float]:
    """Returns (nrmse, composite score)."""
    nrmse = min(rmse_val, RMSE_CAP_S) / RMSE_CAP_S
    return nrmse, f1_val * (1.0 - nrmse)


def score_report(preds: list[AnomalyEvent],
                 gts: list[GroundTruthEntry]) -> ScoreReport:
    """Match within MATCH_WINDOW_S per video, never across videos. With no
    pair the RMSE is the cap, so s4 is 0; with no event, F1 is undefined."""
    by_video: dict[str, tuple[list, list]] = defaultdict(lambda: ([], []))
    for p in preds:
        by_video[p.video_id][0].append(p)
    seen: set[tuple[str, float, float]] = set()
    for g in gts:
        key = (g.video_id, g.start, g.end)
        if key in seen:
            raise DuplicateGroundTruth(f"duplicate ground truth {key}")
        seen.add(key)
        by_video[g.video_id][1].append(g)

    per_video: dict[str, dict] = {}
    errors: list[float] = []
    for vid, (vid_preds, vid_gts) in sorted(by_video.items()):
        pairs = match(vid_preds, vid_gts)
        per_video[vid] = {
            "tp": len(pairs),
            "fp": len(vid_preds) - len(pairs),
            "fn": len(vid_gts) - len(pairs),
            "start_errors": [round(err, 6) for _, _, err in pairs],
            "end_errors": [round(abs(p.end - g.end), 6) for p, g, _ in pairs],
        }
        errors += [err for _, _, err in pairs]

    # every event belongs to one video: the totals are the per-video sums
    tp = len(errors)
    fp, fn = len(preds) - tp, len(gts) - tp
    if 2 * tp + fp + fn == 0:
        raise UndefinedScore("no predictions and no ground truth")
    f1_val = 2 * tp / (2 * tp + fp + fn)
    rmse_val = math.sqrt(sum(e * e for e in errors) / tp) if tp else RMSE_CAP_S
    nrmse_val, s4_val = s4(f1_val, rmse_val)
    return ScoreReport(f1=f1_val, rmse=rmse_val, nrmse=nrmse_val, s4=s4_val,
                       tp=tp, fp=fp, fn=fn, per_video=per_video)
