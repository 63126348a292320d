"""
Anomaly confirmation: the decision tree over one video's detections.

A vehicle that survives the background median is a candidate; one with less
than `min_road_overlap` of its box on the road mask is discarded as parked.
`merge_candidates`, the one merge in space, joins a box seen again in later
windows to its candidate. Candidates are confirmed by how often foreground
detections overlap them, one vectorised IoU of each against the foreground
columns, and their supporting frames are cut into runs at gaps over
RUN_GAP_S: `decide` takes each run, whose first and last frame give one
event's start and end. Nothing here reads files or runs the detector;
`pipeline.process_video` computes the inputs once per video.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import AT_LEAST_1, FRACTION, NON_NEGATIVE, POSITIVE, SHARE, InvalidParam, check
from .media import AnomalyEvent, BBox, Detections

# The longest time between two consecutive supporting frames of one event.
# It equals scoring.MATCH_WINDOW_S: stops closer together than that cannot
# be scored apart.
RUN_GAP_S = 10.0


def iou(a: BBox, b: BBox) -> float:
    ix = min(a.x2, b.x2) - max(a.x, b.x)
    iy = min(a.y2, b.y2) - max(a.y, b.y)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


@dataclass(frozen=True)
class DecisionParams:
    """All thresholds of the confirmation decision tree; it checks them."""

    score_min: float = 0.5
    area_min: float = 0.001          # fraction of frame area
    min_road_overlap: float = 0.2    # fraction of box area on the road mask
    iou_support: float = 0.3
    iou_merge: float = 0.5
    min_support_seconds: float = 1.0  # converted to frames at the video fps
    min_support_density: float = 0.3
    min_windows: int = 2

    def __post_init__(self):
        check(InvalidParam, self, "decision threshold ", score_min=FRACTION,
              area_min=NON_NEGATIVE, min_road_overlap=SHARE, iou_support=FRACTION,
              iou_merge=FRACTION, min_support_seconds=POSITIVE,
              min_support_density=FRACTION, min_windows=AT_LEAST_1)

    def min_support_frames(self, fps: float) -> int:
        return max(1, int(round(self.min_support_seconds * fps)))


@dataclass
class Candidate:
    """A background-detected vehicle under scrutiny."""

    bbox: BBox
    score: float
    windows: frozenset[float]   # starts, in seconds, of the windows that show it


def extract_candidates(
    bg_detections: list[tuple[float, Detections]],
    mask: np.ndarray,
    params: DecisionParams,
) -> list[Candidate]:
    """Gate detections on score, area (a share of the mask's) and road overlap."""
    out: list[Candidate] = []
    for window_start, dets in bg_detections:
        for box, score in zip(dets.boxes.tolist(), dets.score.tolist()):
            bbox = BBox(*box)
            if score < params.score_min:
                continue
            if bbox.area < params.area_min * mask.size:
                continue
            road = int(mask[bbox.y:bbox.y2, bbox.x:bbox.x2].sum())
            if road / bbox.area < params.min_road_overlap:
                continue
            out.append(Candidate(bbox, score, frozenset({window_start})))
    return out


def merge_candidates(cands: list[Candidate], iou_merge: float) -> list[Candidate]:
    """Greedy clustering in first-window order, the one merge in space. A
    candidate joins the first cluster whose box it overlaps at IoU >=
    iou_merge, which takes its windows and the higher score; else it founds
    a cluster. A cluster keeps its founding box, so no two clusters' boxes
    overlap at IoU >= iou_merge."""
    merged: list[Candidate] = []
    for cand in sorted(cands, key=lambda c: (min(c.windows), c.bbox.x, c.bbox.y)):
        for m in merged:
            if iou(cand.bbox, m.bbox) >= iou_merge:
                m.score = max(m.score, cand.score)
                m.windows |= cand.windows
                break
        else:
            merged.append(replace(cand))
    return merged


def support_profile(cand: Candidate, foreground: Detections,
                    iou_support: float) -> tuple[int, ...]:
    """The sorted, unique frames where some foreground row overlaps the
    candidate box with IoU >= iou_support: `iou` against every row at
    once, rows that do not overlap it having IoU 0.0."""
    box = cand.bbox
    x, y, w, h = foreground.boxes.T
    ix = np.minimum(box.x2, x + w) - np.maximum(box.x, x)
    iy = np.minimum(box.y2, y + h) - np.maximum(box.y, y)
    inter = ix * iy
    overlap = np.zeros(len(foreground))
    # exact like `iou`: every term is an integer below 2**53 (media.MAX_COORD)
    np.divide(inter, box.area + w * h - inter, out=overlap,
              where=(ix > 0) & (iy > 0))
    frames = np.unique(foreground.frame[overlap >= iou_support])
    return tuple(frames.tolist())


def decide(
    cand: Candidate,
    frames: tuple[int, ...],
    params: DecisionParams,
    fps: float,
    video_id: str,
    n_windows: int,
) -> AnomalyEvent | None:
    """Confirmation: enough supporting `frames` (a run of `support_profile`'s),
    dense enough, persistent across windows (`cand.windows`, of the video's
    `n_windows`). Returns None on rejection."""
    if len(frames) < params.min_support_frames(fps):
        return None
    first, last = frames[0], frames[-1]
    density = len(frames) / (last - first + 1)
    if density < params.min_support_density:
        return None
    # a short video cannot contain more windows than it has
    if len(cand.windows) < min(params.min_windows, n_windows):
        return None
    start = first / fps
    end = last / fps
    if end <= start:
        end = start + 1.0 / fps
    return AnomalyEvent(video_id=video_id, start=start, end=end,
                        bbox=cand.bbox, confidence=cand.score)


def _runs(frames: tuple[int, ...], fps: float) -> list[tuple[int, ...]]:
    """The sorted `frames` cut wherever two consecutive ones lie more than
    RUN_GAP_S apart; no frames are one empty run."""
    cuts = np.flatnonzero(np.diff(frames) / fps > RUN_GAP_S) + 1
    bounds = [0, *cuts.tolist(), len(frames)]
    return [frames[a:b] for a, b in zip(bounds, bounds[1:])]


def detect_anomalies(
    road: np.ndarray,
    per_window: list[tuple[float, Detections]],
    foreground: Detections,
    params: DecisionParams,
    fps: float,
    video_id: str,
) -> list[AnomalyEvent]:
    """Decide one video's events from already-computed inputs.

    `road` is the union of the per-window road masks, a bool array of the
    frame's shape; `per_window` holds (window start in seconds, background
    detections) for every background window, and `foreground` is the
    video's foreground detection columns. Each of a candidate's `_runs` is
    decided as seen in those of its windows that hold one of the run's
    frames; a frame's window is the last one that starts at or before it.
    """
    cands = extract_candidates(per_window, road, params)
    starts = np.array([start for start, _ in per_window])
    events = []
    for cand in merge_candidates(cands, params.iou_merge):
        frames = support_profile(cand, foreground, params.iou_support)
        for run in _runs(frames, fps):
            held = np.searchsorted(starts, np.divide(run, fps), side="right") - 1
            seen = cand.windows & set(starts[held[held >= 0]].tolist())
            ev = decide(replace(cand, windows=seen), run, params, fps, video_id,
                        n_windows=len(per_window))
            if ev is not None:
                events.append(ev)
    return events
