"""Grid search of the road-mask constants (k1, k2) against a scene whose
road pixels are known: the check behind `sorting.DEFAULT_K1K2`
(acceptance criterion 5). The pipeline never runs it."""

import numpy as np

from stallwatch.errors import DimensionMismatch
from stallwatch.media import Frame
from stallwatch.roadmask import DEFAULT_BLOCK, _road_bits, local_stats

K1_GRID = np.arange(0.25, 4.01, 0.25)
K2_GRID = np.arange(0.1, 3.01, 0.1)
MIN_RECALL = 0.95
MAX_FALSE_POSITIVE = 0.05


def calibrate_mask_params(scene: Frame, road_truth: np.ndarray
                          ) -> list[tuple[float, float, float, float]]:
    """Grid-search (k1, k2) over K1_GRID x K2_GRID against a known road
    layout, at the default block size.

    road_truth is a boolean array marking the true road pixels. Returns all
    (k1, k2, recall, off_road_fpr) cells with recall >= MIN_RECALL and
    off-road false-positive rate <= MAX_FALSE_POSITIVE, best recall first.
    Local statistics are computed once; each cell runs `_road_bits`, the
    test `adaptive_road_mask` applies, on copies of them.
    """
    truth = np.asarray(road_truth, dtype=bool)
    if truth.shape != scene.pixels.shape:
        raise DimensionMismatch("road_truth shape differs from scene")
    mu, sigma = local_stats(scene, DEFAULT_BLOCK)
    n_road = truth.sum()
    n_off = (~truth).sum()
    passing: list[tuple[float, float, float, float]] = []
    for k1 in K1_GRID:
        for k2 in K2_GRID:
            bits = _road_bits(scene.pixels, mu.copy(), sigma.copy(), k1, k2)
            recall = bits[truth].sum() / n_road if n_road else 0.0
            fpr = bits[~truth].sum() / n_off if n_off else 0.0
            if recall >= MIN_RECALL and fpr <= MAX_FALSE_POSITIVE:
                passing.append((round(float(k1), 4), round(float(k2), 4),
                                float(recall), float(fpr)))
    passing.sort(key=lambda c: (-c[2], c[3]))
    return passing
