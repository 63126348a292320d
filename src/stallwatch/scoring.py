"""
Corpus scoring: match predicted events to ground truth by start time,
then compute F1, RMSE, NRMSE and the composite ranking score
f1 * (1 - nrmse) with nrmse = min(rmse, 300) / 300.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

from .errors import DuplicateGroundTruth, UndefinedScore
from .media import AnomalyEvent, GroundTruthEntry

MATCH_WINDOW_S = 10.0
RMSE_CAP_S = 300.0


@dataclass
class MatchResult:
    true_positives: list[tuple[AnomalyEvent, GroundTruthEntry, float]] = field(default_factory=list)
    false_positives: int = 0
    false_negatives: int = 0

    @property
    def tp(self) -> int:
        return len(self.true_positives)

    def extend(self, other: "MatchResult") -> None:
        self.true_positives.extend(other.true_positives)
        self.false_positives += other.false_positives
        self.false_negatives += other.false_negatives


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


def _match_one_video(preds: list[AnomalyEvent], gts: list[GroundTruthEntry],
                     window: float) -> MatchResult:
    pairs = sorted(
        (abs(p.start - g.start), gi, pi)
        for pi, p in enumerate(preds)
        for gi, g in enumerate(gts)
        if abs(p.start - g.start) <= window
    )
    used_p: set[int] = set()
    used_g: set[int] = set()
    result = MatchResult()
    for err, gi, pi in pairs:
        if pi in used_p or gi in used_g:
            continue
        used_p.add(pi)
        used_g.add(gi)
        result.true_positives.append((preds[pi], gts[gi], err))
    result.false_positives = len(preds) - len(used_p)
    result.false_negatives = len(gts) - len(used_g)
    return result


def _match_videos(preds: list[AnomalyEvent], gts: list[GroundTruthEntry]
                  ) -> dict[str, MatchResult]:
    """Per-video matches within MATCH_WINDOW_S, keyed by video id in
    sorted order."""
    by_video_p: dict[str, list[AnomalyEvent]] = defaultdict(list)
    by_video_g: dict[str, list[GroundTruthEntry]] = defaultdict(list)
    for p in preds:
        by_video_p[p.video_id].append(p)
    seen: set[tuple[str, float, float]] = set()
    for g in gts:
        key = (g.video_id, g.start, g.end)
        if key in seen:
            raise DuplicateGroundTruth(f"duplicate ground truth {key}")
        seen.add(key)
        by_video_g[g.video_id].append(g)

    return {vid: _match_one_video(by_video_p[vid], by_video_g[vid], MATCH_WINDOW_S)
            for vid in sorted(set(by_video_p) | set(by_video_g))}


def _total(per_video: dict[str, MatchResult]) -> MatchResult:
    total = MatchResult()
    for result in per_video.values():
        total.extend(result)
    return total


def match(preds: list[AnomalyEvent], gts: list[GroundTruthEntry]) -> MatchResult:
    """Greedy closest-first matching of prediction and ground-truth starts,
    per video, within MATCH_WINDOW_S."""
    return _total(_match_videos(preds, gts))


def f1(m: MatchResult) -> float:
    denom = 2 * m.tp + m.false_positives + m.false_negatives
    if denom == 0:
        raise UndefinedScore("no predictions and no ground truth")
    return 2 * m.tp / denom


def rmse(m: MatchResult) -> float:
    """Start-time RMSE over true positives; the cap value when there are none,
    so the composite score degrades to 0 instead of being undefined."""
    if m.tp == 0:
        return RMSE_CAP_S
    return math.sqrt(sum(err * err for _, _, err in m.true_positives) / m.tp)


def s4(f1_val: float, rmse_val: float) -> tuple[float, float]:
    """Returns (nrmse, composite score)."""
    nrmse = min(rmse_val, RMSE_CAP_S) / RMSE_CAP_S
    return nrmse, f1_val * (1.0 - nrmse)


def score_report(preds: list[AnomalyEvent],
                 gts: list[GroundTruthEntry]) -> ScoreReport:
    by_video = _match_videos(preds, gts)
    total = _total(by_video)
    f1_val = f1(total)
    rmse_val = rmse(total)
    nrmse_val, s4_val = s4(f1_val, rmse_val)

    per_video = {
        vid: {
            "tp": sub.tp,
            "fp": sub.false_positives,
            "fn": sub.false_negatives,
            "start_errors": [round(err, 6) for _, _, err in sub.true_positives],
            "end_errors": [round(abs(p.end - g.end), 6)
                           for p, g, _ in sub.true_positives],
        }
        for vid, sub in by_video.items()
    }
    return ScoreReport(
        f1=f1_val, rmse=rmse_val, nrmse=nrmse_val, s4=s4_val,
        tp=total.tp, fp=total.false_positives, fn=total.false_negatives,
        per_video=per_video,
    )
