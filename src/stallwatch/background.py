"""
Background estimation: per-window pixel-wise median of randomly sampled frames.

Moving traffic is erased by the median; anything stationary for most of a
window (including a stalled vehicle) survives into the background image.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyInput, VideoTooShort
from .media import Frame, FrameSequence
from .sorting import VideoCategory

# a trailing partial window shorter than this share of the nominal window
# is merged into the previous one instead of producing a tiny median
MIN_PARTIAL_FRACTION = 0.10

# bytes of the frame stack that one block of `median_frame`'s passes reads
MEDIAN_BLOCK_BYTES = 256 * 1024

# most bool rows whose per-column sum fits in uint8
COUNT_CHUNK = 255


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


class FrameStack(Sequence[Frame]):
    """Frames of one shape held as the rows of one (n, height, width) uint8
    array, `pixels`; `median_frame` reads them without stacking a copy."""

    __slots__ = ("pixels",)

    def __init__(self, pixels: np.ndarray):
        self.pixels = pixels

    def __len__(self) -> int:
        return len(self.pixels)

    def __getitem__(self, index: int) -> Frame:
        return Frame(self.pixels[index])


def median_frame(frames: Sequence[Frame]) -> Frame:
    """Per-pixel median; even counts take the lower-middle order statistic.

    The lower-middle rule keeps every output pixel an 8-bit value that was
    actually observed at that location.

    The order statistic is found by bit-plane selection, most significant
    bit first: the k-th smallest of n values is the largest v with at most
    k values below v, so each of the 8 passes tries setting one more bit
    of the result and keeps it where no more than k values fall below the
    candidate. This counts along the frame axis of a contiguous stack
    instead of partitioning every pixel's strided column. The passes run
    over blocks of MEDIAN_BLOCK_BYTES // n pixels, so that a block of the
    stack and the scratch of its passes stay in cache.

    A `FrameStack` is read in place; frames in any other sequence are
    first stacked into one.
    """
    if not len(frames):
        raise EmptyInput("median of zero frames")
    if isinstance(frames, FrameStack):
        stack = frames.pixels
    else:
        shape = frames[0].pixels.shape
        for f in frames[1:]:
            if f.pixels.shape != shape:
                raise DimensionMismatch(
                    f"frame shapes differ: {shape} vs {f.pixels.shape}")
        stack = np.stack([f.pixels for f in frames])
    n = len(stack)
    flat = stack.reshape(n, -1)
    size = flat.shape[1]
    cols = min(size, max(1, MEDIAN_BLOCK_BYTES // n))
    k = (n - 1) // 2
    below = np.empty((n, cols), dtype=bool)
    # holds counts up to n without overflow: uint8 for n <= 255
    count = np.empty(cols, dtype=np.min_scalar_type(n))
    # Rows are summed in uint8 chunks of at most COUNT_CHUNK rows and, for
    # n > COUNT_CHUNK, the chunk sums added into `count`: a uint16 reduce
    # over uint8 rows goes through numpy's buffered cast at twice the time.
    chunk = count if n <= COUNT_CHUNK else np.empty(cols, dtype=np.uint8)
    candidate = np.empty(cols, dtype=np.uint8)
    result = np.zeros(size, dtype=np.uint8)
    for lo in range(0, size, cols):
        values, res = flat[:, lo:lo + cols], result[lo:lo + cols]
        m = len(res)
        blw, cnt, chk, cand = below[:, :m], count[:m], chunk[:m], candidate[:m]
        rows = blw.view(np.uint8)
        for bit in range(7, -1, -1):
            np.bitwise_or(res, 1 << bit, out=cand)
            np.less(values, cand, out=blw)
            np.add.reduce(rows[:COUNT_CHUNK], axis=0, dtype=np.uint8, out=chk)
            if n > COUNT_CHUNK:
                np.copyto(cnt, chk)
                for r in range(COUNT_CHUNK, n, COUNT_CHUNK):
                    np.add.reduce(rows[r:r + COUNT_CHUNK], axis=0,
                                  dtype=np.uint8, out=chk)
                    cnt += chk
            # the bit is kept where at most k values fall below the candidate
            np.less_equal(cnt, k, out=cand.view(bool))
            cand <<= bit
            res |= cand
    return Frame(result.reshape(stack.shape[1:]))


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
    windows = window_bounds(seq.frame_count, seq.fps, category.background_window_s)
    samples = [sample_indices(range(start, end), fraction,
                              derive_seed(seed, seq.video_id, start))
               for start, end in windows]
    # every window's sampled frames are read into the first rows of one block
    block = np.empty((max(map(len, samples)), seq.height, seq.width), dtype=np.uint8)
    out: list[BackgroundFrame] = []
    for (start, end), indices in zip(windows, samples):
        for row, i in zip(block, indices):
            seq.frame(i, out=row)
        out.append(
            BackgroundFrame(
                frame=median_frame(FrameStack(block[:len(indices)])),
                window_start=seq.timestamp(start),
                window_end=seq.timestamp(end),
                sampled_indices=indices,
            )
        )
    return out
