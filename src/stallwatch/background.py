"""
Background estimation: per-window pixel-wise median of evenly spaced frames.

Moving traffic is erased by the median; anything stationary for most of a
window (including a stalled vehicle) survives into the background image.
`background_stream` pairs each window's image with its index.json record.

A window of n frames is sampled at the midpoints of k = ceil(fraction * n)
equal strata (`sample_indices`), so its samples depend on its frame range
and the fraction only, never on the video. Such evenly spaced samples can
alias with traffic that repeats at a multiple of their spacing, about
1 / fraction frames: it is then in every sample or in none.

The median is selected by a comparator network of `np.minimum` and
`np.maximum` calls on whole frame rows: Batcher's odd-even merge sort,
cut to the window's n samples and pruned to what the middle output needs.
Its plan is built on first use for each n and cached for the process.
It works in place, so the frames handed to `median_frame` are scratch;
`background_stream` reads each window's frames into the rows of one
block, which it refills for every window.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import EmptyInput, VideoTooShort
from .media import Frame, FrameSequence
from .sorting import VideoCategory

# a trailing partial window shorter than this share of the nominal window
# is merged into the previous one instead of producing a tiny median
MIN_PARTIAL_FRACTION = 0.10


@dataclass(frozen=True)
class BackgroundWindow:
    """One entry of backgrounds/index.json: a window's file, span and samples."""

    file: str
    window_start_s: float
    window_end_s: float
    sampled_indices: list[int]


def sample_indices(window_frames: range, fraction: float) -> list[int]:
    """The midpoints of k = ceil(fraction * n) equal strata of the window's
    n frames, in order: ``window_frames[(2*i + 1) * n // (2*k)]``, i < k."""
    n = len(window_frames)
    if n == 0:
        raise EmptyInput("empty frame window")
    k = math.ceil(fraction * n)
    return [window_frames[(2 * i + 1) * n // (2 * k)] for i in range(k)]


def _batcher_pairs(size: int) -> list[tuple[int, int]]:
    """Comparators (i, j), i < j, of Batcher's odd-even merge sort of
    `size` wires, a power of two, in the order they run: each leaves the
    smaller value on wire i and the larger on wire j."""
    pairs = []
    p = 1
    while p < size:
        k = p
        while k:
            for j in range(k % p, size - k, 2 * k):
                for i in range(j, j + min(k, size - j - k)):
                    if i // (2 * p) == (i + k) // (2 * p):
                        pairs.append((i, i + k))
            k //= 2
        p *= 2
    return pairs


@cache
def _median_plan(n: int) -> tuple[list[tuple], int]:
    """`median_frame`'s network for n rows: the ufunc calls (f, a, b, out)
    over row indices 0..n, row n being the spare, and the row that holds
    the ((n - 1) // 2)-th smallest value once they have run."""
    size = 1 << (n - 1).bit_length()
    live = {(n - 1) // 2}
    kept = []
    for i, j in reversed(_batcher_pairs(size)):
        if j < n and (i in live or j in live):
            kept.append((i, j, i in live, j in live))
            live |= {i, j}
    row = list(range(n + 1))  # the row that holds each wire's value
    ops = []
    for i, j, keep_min, keep_max in reversed(kept):
        a, b = row[i], row[j]
        if keep_min and keep_max:
            ops += [(np.minimum, a, b, row[n]), (np.maximum, a, b, b)]
            row[i], row[n] = row[n], a
        elif keep_min:
            ops.append((np.minimum, a, b, a))
        else:
            ops.append((np.maximum, a, b, b))
    return ops, row[(n - 1) // 2]


def median_frame(frames: Sequence[Frame]) -> Frame:
    """Per-pixel median; even counts take the lower-middle order statistic.

    The lower-middle rule keeps every output pixel an 8-bit value that was
    actually observed at that location.

    The order statistic is selected by a comparator network applied to
    whole rows with `np.minimum` and `np.maximum`. The network is Batcher's
    odd-even merge sort (AFIPS 1968) for the next power of two N >= n,
    less every comparator that touches a wire at or past n (those wires
    hold +inf, so the rest sorts n wires), less every comparator the
    output wire (n - 1) // 2 does not depend on; a kept comparator computes
    only the side, min or max, that a later one reads. Its plan is built once per n,
    on first use, and cached (`_median_plan`). It runs in place on each
    frame's pixels, flattened (a view of C-contiguous pixels), and one
    spare row, and the result row is copied out.

    The frames are scratch: their pixels are overwritten, and their values
    are not kept. So they must be of one shape, writable, and share no
    memory.
    """
    if not frames:
        raise EmptyInput("median of zero frames")
    shape = frames[0].pixels.shape
    ops, result = _median_plan(len(frames))
    rows = [f.pixels.reshape(-1) for f in frames]
    rows.append(np.empty_like(rows[0]))
    for f, a, b, out in ops:
        f(rows[a], rows[b], out=rows[out])
    return Frame(rows[result].reshape(shape).copy())


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


def background_stream(seq: FrameSequence, category: VideoCategory,
                      fraction: float) -> list[tuple[BackgroundWindow, Frame]]:
    """(record, background) per window of ``category.background_window_s`` s."""
    if seq.duration < 1.0:
        raise VideoTooShort(f"duration {seq.duration:.3f}s < 1s")
    windows = window_bounds(seq.frame_count, seq.fps, category.background_window_s)
    samples = [sample_indices(range(start, end), fraction) for start, end in windows]
    # every window's sampled frames are read into the first rows of one block
    block = np.empty((max(map(len, samples)), seq.height, seq.width), dtype=np.uint8)
    out = []
    for (start, end), indices in zip(windows, samples):
        frames = [seq.frame(i, out=row) for row, i in zip(block, indices)]
        start_s = seq.timestamp(start)
        window = BackgroundWindow(f"bg_{int(round(start_s * 1000))}.pgm", start_s,
                                  seq.timestamp(end), indices)
        out.append((window, median_frame(frames)))
    return out
