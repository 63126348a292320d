"""
Road-mask extraction by adaptive thresholding of background images.

A pixel T with local mean mu and local standard deviation sigma is marked
as road iff

    (mu - k1*sigma) / k2  <=  T  <=  (mu + k1*sigma) / (k1 + k2)

applied exactly as printed in the source method; k1 and k2 come from the
video-sorting step. A mask is a 2-D bool array, True on road; the
pipeline ORs a video's per-window masks into one and writes it as
mask.pgm (0/255). This module only makes masks; the decision tree's
`anomaly.extract_candidates` rejects off-road (parked) candidates on them.

mu and sigma come from exact integer window sums of the pixels and their
squares, differences of running sums (a summed-area table: Crow, SIGGRAPH
1984; Shafait, Keysers and Breuel, DRR 2008) that stay exact in unsigned
integers where the running sums wrap (`local_stats`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import POSITIVE, InvalidParam, check
from .media import Frame

DEFAULT_BLOCK = 31


@dataclass(frozen=True)
class MaskParams:
    k1: float
    k2: float
    block: int = DEFAULT_BLOCK

    def __post_init__(self):
        check(InvalidParam, self, k1=POSITIVE, k2=POSITIVE,
              block=(lambda b: b >= 3 and b % 2 == 1, "odd and >= 3"))


def local_stats(frame: Frame, block: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel mean and population std over the block x block neighborhood.

    Neighborhoods are truncated at the image borders, so edge statistics are
    taken over the pixels that actually exist: the frame, then its squares,
    sit in one zero table of (h + block, w + block) values at offset
    block // 2 + 1. Sums are uint32 while block**2 * 255**2 < 2**32
    (block <= 257), else uint64: a running sum may wrap, but a window sum,
    the difference of two taken modulo 2**32, does not, so it is exact.
    """
    h, w = frame.pixels.shape
    if block > min(h, w):
        raise InvalidParam(f"block {block} exceeds image side {min(h, w)}")
    r = block // 2
    table = np.zeros((h + block, w + block),
                     dtype=np.uint32 if block <= 257 else np.uint64)
    inner = table[r + 1:r + 1 + h, r + 1:r + 1 + w]
    inner[...] = frame.pixels
    mean = np.divide(_box_sums(table, block), _counts(h, w, r))
    table[...] = 0
    np.multiply(frame.pixels, frame.pixels, out=inner, dtype=table.dtype)
    var = np.divide(_box_sums(table, block), _counts(h, w, r))
    var -= mean * mean
    return mean, np.sqrt(np.maximum(var, 0.0, out=var), out=var)


def _box_sums(table: np.ndarray, n: int) -> np.ndarray:
    """Window sums of `table`, which it overwrites: entry (i, j) is the sum
    of table[i + 1:i + 1 + n, j + 1:j + 1 + n]. For each axis, running sums
    down the columns, their differences n rows apart, transposed: numpy
    adds whole rows for a running sum down the columns, but one value at a
    time for one along a row."""
    for _ in range(2):
        np.cumsum(table, axis=0, out=table)
        table = np.ascontiguousarray((table[n:] - table[:-n]).T)
    return table


@functools.cache
def _counts(h: int, w: int, r: int) -> np.ndarray:
    """Pixels in each truncated window, as a read-only float64 array."""
    y, x = (np.minimum(i + r, n - 1) - np.maximum(i - r, 0) + 1
            for n in (h, w) for i in [np.arange(n, dtype=np.float64)])
    counts = np.outer(y, x)
    counts.flags.writeable = False
    return counts


def _road_bits(t: np.ndarray, mu: np.ndarray, sigma: np.ndarray,
               k1: float, k2: float) -> np.ndarray:
    """The road test of the module docstring on pixels `t`, whose local
    mean and std are `mu` and `sigma`, as a bool array. `mu` and `sigma`
    are overwritten."""
    spread = np.multiply(sigma, k1, out=sigma)
    lower = np.subtract(mu, spread)
    lower /= k2
    upper = np.add(mu, spread, out=mu)
    upper /= k1 + k2
    bits = np.less_equal(lower, t)
    bits &= t <= upper
    return bits


def adaptive_road_mask(background: Frame, params: MaskParams) -> np.ndarray:
    """The road bits of `background`, as a bool array of its shape."""
    mu, sigma = local_stats(background, params.block)
    return _road_bits(background.pixels, mu, sigma, params.k1, params.k2)
