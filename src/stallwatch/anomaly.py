"""
Anomaly confirmation: the decision tree over one video's detections.

A vehicle that survives the background median is a candidate; candidates off
the road mask (a bool array) are discarded as parked. The rest are confirmed
by how often foreground detections overlap them, one vectorised IoU of each
candidate against the foreground columns: `decide` takes the candidate and
its sorted supporting frames, whose first and last give the event's start
and end. Nothing here reads files or runs the detector;
`pipeline.process_video` computes the inputs once per video.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .media import AnomalyEvent, BBox, Detections
from .roadmask import bbox_on_road


def iou(a: BBox, b: BBox) -> float:
    ix = min(a.x2, b.x2) - max(a.x, b.x)
    iy = min(a.y2, b.y2) - max(a.y, b.y)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


@dataclass(frozen=True)
class DecisionParams:
    """All thresholds of the confirmation decision tree."""

    score_min: float = 0.5
    area_min: float = 0.001          # fraction of frame area
    iou_support: float = 0.3
    iou_merge: float = 0.5
    min_support_seconds: float = 1.0  # converted to frames at the video fps
    min_support_density: float = 0.3
    min_windows: int = 2

    def min_support_frames(self, fps: float) -> int:
        return max(1, int(round(self.min_support_seconds * fps)))


@dataclass
class Candidate:
    """A background-detected vehicle under scrutiny."""

    bbox: BBox
    score: float
    first_seen: float       # window start, seconds
    windows_seen: int = 1


def extract_candidates(
    bg_detections: list[tuple[float, Detections]],
    mask: np.ndarray,
    params: DecisionParams,
    frame_area: int,
    min_overlap: float,
) -> list[Candidate]:
    """Gate background detections on score, area and road-mask overlap."""
    out: list[Candidate] = []
    for window_start, dets in bg_detections:
        for box, score in zip(dets.boxes.tolist(), dets.score.tolist()):
            bbox = BBox(*box)
            if score < params.score_min:
                continue
            if bbox.area < params.area_min * frame_area:
                continue
            if not bbox_on_road(bbox, mask, min_overlap):
                continue
            out.append(Candidate(bbox=bbox, score=score, first_seen=window_start))
    return out


def merge_candidates(cands: list[Candidate], iou_merge: float) -> list[Candidate]:
    """Greedy clustering in first_seen order; a stalled car recurring across
    windows collapses to one candidate with windows_seen incremented."""
    merged: list[Candidate] = []
    for cand in sorted(cands, key=lambda c: (c.first_seen, c.bbox.x, c.bbox.y)):
        for m in merged:
            if iou(cand.bbox, m.bbox) >= iou_merge:
                m.windows_seen += 1
                if cand.score > m.score:
                    m.score = cand.score
                    m.bbox = cand.bbox
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
    """Confirmation: enough supporting `frames` (see `support_profile`),
    dense enough, persistent across windows (of the video's `n_windows`).
    Returns None on rejection."""
    if len(frames) < params.min_support_frames(fps):
        return None
    first, last = frames[0], frames[-1]
    density = len(frames) / (last - first + 1)
    if density < params.min_support_density:
        return None
    # a short video cannot contain more windows than it has
    if cand.windows_seen < min(params.min_windows, n_windows):
        return None
    start = first / fps
    end = last / fps
    if end <= start:
        end = start + 1.0 / fps
    return AnomalyEvent(video_id=video_id, start=start, end=end,
                        bbox=cand.bbox, confidence=cand.score)


def coalesce_events(events: list[AnomalyEvent], iou_merge: float) -> list[AnomalyEvent]:
    """Merge accepted events that overlap in time and in space."""
    out: list[AnomalyEvent] = []
    for ev in sorted(events, key=lambda e: (e.start, e.end)):
        merged = False
        for i, kept in enumerate(out):
            if ev.start <= kept.end and kept.start <= ev.end \
                    and iou(ev.bbox, kept.bbox) >= iou_merge:
                best = kept if kept.confidence >= ev.confidence else ev
                out[i] = AnomalyEvent(
                    video_id=kept.video_id,
                    start=min(kept.start, ev.start),
                    end=max(kept.end, ev.end),
                    bbox=best.bbox,
                    confidence=max(kept.confidence, ev.confidence),
                )
                merged = True
                break
        if not merged:
            out.append(ev)
    return out


def detect_anomalies(
    road: np.ndarray,
    per_window: list[tuple[float, Detections]],
    foreground: Detections,
    params: DecisionParams,
    min_overlap: float,
    fps: float,
    video_id: str,
    frame_area: int,
) -> list[AnomalyEvent]:
    """Decide one video's events from already-computed inputs.

    `road` is the union of the per-window road masks, a bool array;
    `per_window` holds (window start in seconds, background detections)
    for every background window, and `foreground` is the video's
    foreground detection columns.
    """
    cands = extract_candidates(per_window, road, params, frame_area=frame_area,
                               min_overlap=min_overlap)
    cands = merge_candidates(cands, params.iou_merge)

    events = []
    for cand in cands:
        frames = support_profile(cand, foreground, params.iou_support)
        ev = decide(cand, frames, params, fps, video_id,
                    n_windows=len(per_window))
        if ev is not None:
            events.append(ev)
    return coalesce_events(events, params.iou_merge)
