"""
Video sorting: lighting/weather class from the average pixel histogram,
a (256,) float64 array summing to 1; road type from the number of
distinct traffic flow directions in the foreground detection columns.

The class drives the per-video pipeline parameters (background window
length here, the road-mask constants k1/k2 via `PipelineConfig.mask_params`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import EmptyInput, InsufficientData
from .media import Detections, FrameSequence

# Peak detection constants; the histogram signatures (night near 0-50,
# day around 100-150, snow around 200-250) need only coarse peaks.
SMOOTH_RADIUS = 5
MIN_PROMINENCE = 0.005

# Direction estimation constants.
GATE_FRACTION = 0.1      # association gate as a fraction of frame width
MIN_MOVE_PX = 2.0        # displacements below this are treated as stationary
SUPPORT_FRACTION = 0.05  # a direction bin must hold this share of vectors

SHORT_WINDOW_S = 30.0
LONG_WINDOW_S = 300.0


class LightingClass(str, Enum):
    DAY = "day"
    NIGHT = "night"
    SNOW = "snow"


class RoadType(str, Enum):
    FREEWAY = "freeway"
    INTERSECTION = "intersection"


# Road-mask constants, the same for every lighting class; overridable per
# class via the pipeline config. Calibrated by grid search on a synthetic
# textured road scene (tests/mask_calibration.py, acceptance criterion 5).
DEFAULT_K1K2 = {cls: (2.0, 0.6) for cls in LightingClass}


@dataclass(frozen=True)
class VideoCategory:
    video_id: str
    lighting: LightingClass
    road_type: RoadType
    background_window_s: float


def average_histogram(seq: FrameSequence, stride: int) -> np.ndarray:
    """Mean per-frame pixel-frequency distribution over every stride-th
    frame: 256 float64 bins, normalized to sum 1."""
    if seq.frame_count == 0:
        raise EmptyInput("no frames")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    total = np.zeros(256, dtype=np.float64)
    n = 0
    # every frame is read into this one buffer
    buf = np.empty((seq.height, seq.width), dtype=np.uint8)
    for i in range(0, seq.frame_count, stride):
        pixels = seq.frame(i, out=buf).pixels
        total += np.bincount(pixels.ravel(), minlength=256) / pixels.size
        n += 1
    avg = total / n
    return avg / avg.sum()


def _smooth(bins: np.ndarray, radius: int) -> np.ndarray:
    """Moving average with window 2*radius+1, truncated at the ends."""
    kernel = np.ones(2 * radius + 1)
    sums = np.convolve(bins, kernel, mode="same")
    counts = np.convolve(np.ones_like(bins), kernel, mode="same")
    return sums / counts


def _prominent_peaks(x: list[float], min_prominence: float) -> list[int]:
    """Indices of the local maxima of `x` with prominence >= min_prominence,
    as `scipy.signal.find_peaks(x, prominence=min_prominence)` finds them.

    The first and last samples are never maxima; a flat top counts once,
    at its middle index (the left one of an even-width top). Prominence is
    the height above the higher of the two flanking minima, each the lowest
    value before the first one above the peak or the end of `x`.
    """
    peaks = []
    i = 1
    while i < len(x) - 1:
        if x[i - 1] < x[i]:
            ahead = i + 1
            while ahead < len(x) - 1 and x[ahead] == x[i]:
                ahead += 1
            if x[ahead] < x[i]:
                peaks.append((i + ahead - 1) // 2)
                i = ahead
        i += 1

    def flank_min(side: list[float], top: float) -> float:
        return min(itertools.takewhile(lambda v: v <= top, side))

    return [p for p in peaks
            if x[p] - max(flank_min(x[p::-1], x[p]), flank_min(x[p:], x[p]))
            >= min_prominence]


def find_histogram_peaks(hist: np.ndarray) -> list[tuple[int, float]]:
    """Local maxima of the smoothed histogram with prominence >= MIN_PROMINENCE.

    Returns (bin_index, smoothed_mass) pairs sorted by bin index.
    """
    smoothed = _smooth(hist, SMOOTH_RADIUS).tolist()
    # pad so that maxima at bin 0 / 255 are still detected
    padded = [-1.0, *smoothed, -1.0]
    return [(i - 1, smoothed[i - 1])
            for i in _prominent_peaks(padded, MIN_PROMINENCE)]


def classify_lighting(hist: np.ndarray) -> LightingClass:
    """Histogram-signature classifier.

    Night: the dominant peak sits in [0, 50]. Snow: at least two peaks whose
    mass-weighted mean bin lands in [200, 250]. Anything else is day, the
    default class.
    """
    peaks = find_histogram_peaks(hist)
    if not peaks:
        return LightingClass.DAY
    dominant_bin = max(peaks, key=lambda p: p[1])[0]
    if dominant_bin <= 50:
        return LightingClass.NIGHT
    if len(peaks) >= 2:
        mass = sum(m for _, m in peaks)
        mean_bin = sum(b * m for b, m in peaks) / mass
        if 200.0 <= mean_bin <= 250.0:
            return LightingClass.SNOW
    return LightingClass.DAY


def estimate_directions(
    detections: Detections,
    frame_width: int,
    support_fraction: float = SUPPORT_FRACTION,
) -> int:
    """Count distinct traffic-flow directions from a video's detection
    columns (frame indices and boxes).

    Box centroids are associated frame-to-frame by nearest neighbour within a
    displacement gate; moving displacement vectors are quantized into 8
    equal angle bins and bins holding at least ``support_fraction`` of all
    vectors count as a direction.

    Every detection of a frame is matched against the detections of the
    next frame that has any, all frame pairs at once: the candidate pairs
    are laid out detection by detection (a ragged cartesian product), so
    each detection's candidates form one segment, and its match is the
    first candidate at the segment's minimum distance.
    """
    order = np.argsort(detections.frame, kind="stable")
    present, starts, sizes = np.unique(detections.frame[order],
                                       return_index=True, return_counts=True)
    if len(present) < 2:
        raise InsufficientData(f"detections span {len(present)} frame(s), need >= 2")
    x, y, w, h = detections.boxes[order].T
    points = np.column_stack((x + w / 2.0, y + h / 2.0))  # box centroids

    # detections of every frame but the last, each with its next frame's
    # detections as candidates
    group = np.repeat(np.arange(len(present) - 1), sizes[:-1])
    n_cand = sizes[1:][group]
    seg_start = np.cumsum(n_cand) - n_cand
    total = int(n_cand.sum())
    src = np.repeat(np.arange(len(group)), n_cand)
    dst = np.repeat(starts[1:][group] - seg_start, n_cand) + np.arange(total)
    deltas = points[dst] - points[src]
    dists = np.hypot(deltas[:, 0], deltas[:, 1])
    nearest = np.minimum.reduceat(dists, seg_start)
    at_min = dists == np.repeat(nearest, n_cand)
    match = np.minimum.reduceat(np.where(at_min, np.arange(total), total), seg_start)

    gate = GATE_FRACTION * frame_width
    moved = match[(nearest <= gate) & (nearest >= MIN_MOVE_PX)]
    if len(moved) == 0:
        return 0
    # math.atan2, not np.arctan2: numpy may run a SIMD arctan2 that differs
    # from the C library's in the last bit, and a vector lying exactly on
    # a bin edge (diagonal or axis-parallel motion) would change bins
    angles = np.fromiter(map(math.atan2, deltas[moved, 1].tolist(),
                             deltas[moved, 0].tolist()), np.float64, len(moved))
    bins = (np.remainder(angles, 2 * math.pi) / (math.pi / 4)).astype(np.int64) % 8
    bin_counts = np.bincount(bins, minlength=8)
    return int(np.count_nonzero(bin_counts / len(moved) >= support_fraction))


def classify_road_type(direction_count: int) -> RoadType:
    if direction_count < 0:
        raise ValueError(f"direction count must be >= 0, got {direction_count}")
    return RoadType.INTERSECTION if direction_count > 2 else RoadType.FREEWAY


def background_window_for(lighting: LightingClass, road_type: RoadType) -> float:
    """Short window only for the ideal case: daylight freeway."""
    if lighting is not LightingClass.DAY or road_type is RoadType.INTERSECTION:
        return LONG_WINDOW_S
    return SHORT_WINDOW_S


def sort_video(
    seq: FrameSequence,
    detections: Detections,
    stride: int,
) -> VideoCategory:
    """Classify one video and derive its background window length."""
    lighting = classify_lighting(average_histogram(seq, stride))
    road_type = classify_road_type(estimate_directions(detections, seq.width))
    return VideoCategory(
        video_id=seq.video_id,
        lighting=lighting,
        road_type=road_type,
        background_window_s=background_window_for(lighting, road_type),
    )
