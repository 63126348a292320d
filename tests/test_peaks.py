"""The histogram peak search equals `scipy.signal.find_peaks`.

scipy is a test-only dependency (the `test` extra); the program itself
does not import it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stallwatch.sorting import (
    MIN_PROMINENCE,
    SMOOTH_RADIUS,
    Histogram,
    _prominent_peaks,
    _smooth,
    find_histogram_peaks,
)

find_peaks = pytest.importorskip("scipy.signal").find_peaks


class TestPeaksOracle:
    """The peak search against `scipy.signal.find_peaks`, its oracle."""

    # few distinct levels, so that flat tops (plateaus) of every width,
    # at the ends too, are common
    @given(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]), max_size=40)
           | st.lists(st.floats(0.0, 1.0), max_size=40),
           st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]))
    @settings(max_examples=1000, deadline=None)
    def test_equals_scipy(self, values, min_prominence):
        want = find_peaks(np.asarray(values), prominence=min_prominence)[0]
        assert _prominent_peaks(values, min_prominence) == want.tolist()

    @given(st.lists(st.integers(0, 3), min_size=256, max_size=256).filter(any))
    @settings(max_examples=200, deadline=None)
    def test_histogram_peaks_equal_scipy(self, counts):
        bins = np.asarray(counts, dtype=np.float64)
        hist = Histogram(bins / bins.sum())
        smoothed = _smooth(hist.bins, SMOOTH_RADIUS)
        padded = np.concatenate(([-1.0], smoothed, [-1.0]))
        idx = find_peaks(padded, prominence=MIN_PROMINENCE)[0]
        assert find_histogram_peaks(hist) == [
            (int(i) - 1, float(smoothed[i - 1])) for i in idx]
