"""
Background estimation: per-window pixel-wise median of randomly sampled frames.

Moving traffic is erased by the median; anything stationary for most of a
window (including a stalled vehicle) survives into the background image.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyInput, VideoTooShort
from .media import Frame, FrameSequence
from .sorting import VideoCategory

# a trailing partial window shorter than this share of the nominal window
# is merged into the previous one instead of producing a tiny median
MIN_PARTIAL_FRACTION = 0.10


@dataclass(frozen=True)
class BackgroundFrame:
    frame: Frame
    window_start: float
    window_end: float
    sampled_indices: list[int]


def derive_seed(global_seed: int, video_id: str, window_start_frame: int) -> int:
    """Stable per-window seed so windows can be recomputed independently."""
    material = f"{global_seed}:{video_id}:{window_start_frame}".encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def sample_indices(window_frames: range, fraction: float, seed: int) -> list[int]:
    """Uniform sample without replacement of ceil(fraction * n) indices, sorted."""
    n = len(window_frames)
    if n == 0:
        raise EmptyInput("empty frame window")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    k = math.ceil(fraction * n)
    rng = np.random.default_rng(seed)
    picks = rng.choice(n, size=k, replace=False)
    return sorted(window_frames[int(i)] for i in picks)


def median_frame(frames: list[Frame]) -> Frame:
    """Per-pixel median; even counts take the lower-middle order statistic.

    The lower-middle rule keeps every output pixel an 8-bit value that was
    actually observed at that location.

    The order statistic is found by bit-plane selection, most significant
    bit first: the k-th smallest of n values is the largest v with at most
    k values below v, so each of the 8 passes tries setting one more bit
    of the result and keeps it where no more than k values fall below the
    candidate. This counts along the frame axis of a contiguous stack
    instead of partitioning every pixel's strided column.
    """
    if not frames:
        raise EmptyInput("median of zero frames")
    shape = frames[0].pixels.shape
    for f in frames[1:]:
        if f.pixels.shape != shape:
            raise DimensionMismatch(f"frame shapes differ: {shape} vs {f.pixels.shape}")
    stack = np.stack([f.pixels.ravel() for f in frames])
    n = stack.shape[0]
    k = (n - 1) // 2
    below = np.empty(stack.shape, dtype=np.uint8)
    # holds counts up to n without overflow: uint8 for n <= 255
    count = np.empty(stack.shape[1], dtype=np.min_scalar_type(n))
    result = np.zeros(stack.shape[1], dtype=np.uint8)
    for bit in range(7, -1, -1):
        np.less(stack, result | (1 << bit), out=below.view(bool))
        np.add.reduce(below, axis=0, dtype=count.dtype, out=count)
        result |= (count <= k).view(np.uint8) << bit
    return Frame(result.reshape(shape))


def window_bounds(frame_count: int, fps: float, window_s: float) -> list[tuple[int, int]]:
    """Partition [0, frame_count) into background windows (frame index ranges)."""
    wlen = max(1, int(round(window_s * fps)))
    bounds: list[tuple[int, int]] = []
    start = 0
    while start < frame_count:
        bounds.append((start, min(start + wlen, frame_count)))
        start += wlen
    if len(bounds) >= 2:
        last_start, last_end = bounds[-1]
        if (last_end - last_start) < MIN_PARTIAL_FRACTION * wlen:
            bounds[-2] = (bounds[-2][0], last_end)
            bounds.pop()
    return bounds


def background_stream(
    seq: FrameSequence,
    category: VideoCategory,
    fraction: float,
    seed: int,
) -> list[BackgroundFrame]:
    """One background image per window of ``category.background_window_s`` seconds."""
    if seq.duration < 1.0:
        raise VideoTooShort(f"{seq.video_id}: duration {seq.duration:.3f}s < 1s")
    out: list[BackgroundFrame] = []
    for start, end in window_bounds(seq.frame_count, seq.fps,
                                    category.background_window_s):
        indices = sample_indices(
            range(start, end), fraction, derive_seed(seed, seq.video_id, start)
        )
        bg = median_frame([seq.frame(i) for i in indices])
        out.append(
            BackgroundFrame(
                frame=bg,
                window_start=seq.timestamp(start),
                window_end=seq.timestamp(end),
                sampled_indices=indices,
            )
        )
    return out
