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
squares in a zero-padded buffer, by doubling shifted adds along each axis
(about 9 whole-array adds per axis at block 31; `_box_sums`).
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
    sit in a flat buffer with block // 2 zero rows and columns on each side.
    Sums are uint32 while block**2 * 255**2 < 2**32 (block <= 257), else uint64.
    """
    h, w = frame.pixels.shape
    if block > min(h, w):
        raise InvalidParam(f"block {block} exceeds image side {min(h, w)}")
    r = block // 2
    wide = w + 2 * r
    buf = np.zeros((h + 2 * r) * wide + 2 * r,
                   dtype=np.uint32 if block <= 257 else np.uint64)
    inner = buf[:(h + 2 * r) * wide].reshape(-1, wide)[r:r + h, r:r + w]
    inner[...] = frame.pixels
    mean = np.divide(_box_sums(buf, wide, block), _counts(h, w, r))
    np.multiply(inner, inner, out=inner)
    var = np.divide(_box_sums(buf, wide, block), _counts(h, w, r))
    var -= mean * mean
    return mean, np.sqrt(np.maximum(var, 0.0, out=var), out=var)


def _box_sums(padded: np.ndarray, wide: int, n: int) -> np.ndarray:
    """Sums over the n x n windows of `padded`, rows of `wide` values and
    n - 1 values more, as a 2-D view to read before `padded` changes.
    Doubling shifted adds down the columns (step `wide`), then along the
    rows (step 1), where a window centred on a real column ends in its own
    row's zero columns: sums of 1, 2, 4, 8, ... terms, each from two of the
    last, and the ones that make up n added at their offsets."""
    sums = padded
    for step in (wide, 1):
        part, size = sums, len(sums) - (n - 1) * step
        sums, width, offset = None, 1, 0
        while width <= n:
            if n & width:
                term = part[offset * step:offset * step + size]
                # the first term is a view, the second makes a new array
                sums = term if sums is None else np.add(
                    sums, term, out=sums if sums.flags.owndata else None)
                offset += width
            if 2 * width <= n:
                part = part[:-width * step] + part[width * step:]
            width *= 2
    return sums.reshape(-1, wide)[:, :wide - n + 1]


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
