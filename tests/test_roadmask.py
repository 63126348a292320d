import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stallwatch import background, synth
from stallwatch.errors import DimensionMismatch, InvalidBBox, InvalidParam
from stallwatch.media import BBox, Frame
from stallwatch.roadmask import MaskParams, adaptive_road_mask, bbox_on_road, local_stats
from stallwatch.sorting import LightingClass

from conftest import make_frame, stacked
from mask_calibration import calibrate_mask_params


def fancy_index_local_stats(frame: Frame, block: int):
    """The float64 summed-area table read with four fancy-index gathers per
    box sum, as local_stats once computed it; kept as the exact oracle."""
    h, w = frame.pixels.shape
    r = block // 2
    x = frame.pixels.astype(np.float64)

    def box_sum(img):
        sat = np.zeros((h + 1, w + 1))
        sat[1:, 1:] = img.cumsum(0).cumsum(1)
        ys, xs = np.arange(h), np.arange(w)
        y0 = np.clip(ys - r, 0, h)[:, None]
        y1 = np.clip(ys + r + 1, 0, h)[:, None]
        x0 = np.clip(xs - r, 0, w)[None, :]
        x1 = np.clip(xs + r + 1, 0, w)[None, :]
        return sat[y1, x1] - sat[y0, x1] - sat[y1, x0] + sat[y0, x0]

    counts = box_sum(np.ones((h, w)))
    mean = box_sum(x) / counts
    var = box_sum(x * x) / counts - mean * mean
    return mean, np.sqrt(np.clip(var, 0.0, None))


class TestLocalStats:
    @pytest.mark.parametrize("shape,block", [
        ((240, 320), 31), ((31, 44), 31), ((50, 31), 31), ((7, 7), 7),
        ((12, 15), 5), ((5, 9), 3), ((1, 6), 1), ((9, 1), 1),
    ])
    def test_equals_fancy_index_oracle(self, rng, shape, block):
        # bit for bit, so the road-mask thresholds see the same values
        for pixels in (rng.integers(0, 256, shape, dtype=np.uint8),
                       np.full(shape, 255, dtype=np.uint8)):
            frame = Frame(pixels)
            mean, std = local_stats(frame, block)
            want_mean, want_std = fancy_index_local_stats(frame, block)
            assert mean.dtype == std.dtype == np.float64
            assert np.array_equal(mean, want_mean)
            assert np.array_equal(std, want_std)

    @pytest.mark.parametrize("shape,block", [
        # the largest block whose sums of squares fit uint32, and the next
        ((257, 300), 257), ((259, 300), 259),
    ])
    def test_exact_at_the_sum_dtype_edge(self, rng, shape, block):
        # 254s and 255s: central sums of squares near block**2 * 255**2
        for pixels in (np.full(shape, 255, dtype=np.uint8),
                       rng.integers(0, 256, shape, dtype=np.uint8),
                       rng.integers(254, 256, shape, dtype=np.uint8)):
            frame = Frame(pixels)
            mean, std = local_stats(frame, block)
            want_mean, want_std = fancy_index_local_stats(frame, block)
            assert np.array_equal(mean, want_mean)
            assert np.array_equal(std, want_std)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_any_shape_and_odd_block_equals_oracle(self, data):
        h = data.draw(st.integers(1, 64), label="h")
        w = data.draw(st.integers(1, 64), label="w")
        # an integer strategy draws its bounds often: block 1 and the
        # largest odd block that fits
        block = 2 * data.draw(st.integers(0, (min(h, w) - 1) // 2), label="half") + 1
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        low = data.draw(st.sampled_from([0, 254, 255]), label="low")
        frame = Frame(np.random.default_rng(seed).integers(
            low, 256, (h, w), dtype=np.uint8))
        mean, std = local_stats(frame, block)
        want_mean, want_std = fancy_index_local_stats(frame, block)
        assert np.array_equal(mean, want_mean)
        assert np.array_equal(std, want_std)

    def test_center_of_3x3_ramp(self):
        # values 0..8: mean 4, population std sqrt(60/9)
        frame = make_frame(np.arange(9).reshape(3, 3))
        mean, std = local_stats(frame, block=3)
        assert mean[1, 1] == pytest.approx(4.0)
        assert std[1, 1] == pytest.approx(math.sqrt(60 / 9))

    def test_corner_truncated(self):
        # top-left corner of the ramp sees only {0, 1, 3, 4}
        frame = make_frame(np.arange(9).reshape(3, 3))
        mean, std = local_stats(frame, block=3)
        assert mean[0, 0] == pytest.approx(2.0)
        assert std[0, 0] == pytest.approx(np.std([0, 1, 3, 4]))

    def test_constant_image(self):
        frame = make_frame(np.full((10, 10), 77))
        mean, std = local_stats(frame, block=5)
        assert np.allclose(mean, 77.0)
        assert np.allclose(std, 0.0)

    def test_matches_naive_oracle(self, rng):
        frame = Frame(rng.integers(0, 256, (12, 15), dtype=np.uint8))
        mean, std = local_stats(frame, block=5)
        x = frame.pixels.astype(np.float64)
        for y in range(12):
            for xx in range(15):
                patch = x[max(0, y - 2):y + 3, max(0, xx - 2):xx + 3]
                assert mean[y, xx] == pytest.approx(patch.mean())
                assert std[y, xx] == pytest.approx(patch.std(), abs=1e-9)

    def test_even_block_rejected(self):
        with pytest.raises(InvalidParam):
            local_stats(make_frame(np.zeros((5, 5))), block=4)

    def test_block_larger_than_image(self):
        with pytest.raises(InvalidParam):
            local_stats(make_frame(np.zeros((5, 5))), block=7)


class TestAdaptiveMask:
    def test_flat_image_never_passes(self):
        # with sigma 0 the band (mu/k2 <= T <= mu/(k1+k2)) is empty for
        # any k1, k2 > 0 unless the image is black
        frame = make_frame(np.full((40, 40), 120))
        mask = adaptive_road_mask(frame, MaskParams(k1=2.0, k2=0.6, block=5))
        assert not mask.any()

    def test_textured_dark_band_passes(self, rng):
        # bright surround, noisy dark band: band pixels sit inside the
        # adaptive window, surround pixels above it
        img = np.full((60, 120), 220.0)
        img[20:34, :] = 90.0 + rng.normal(0, 5, size=(14, 120))
        mask = adaptive_road_mask(Frame(np.clip(img, 0, 255).astype(np.uint8)),
                                  MaskParams(k1=2.0, k2=0.6, block=31))
        band = mask[20:34, :]
        surround = mask[:14, :]
        assert band.mean() >= 0.95
        assert surround.mean() <= 0.05

    @pytest.mark.parametrize("shape", [(30, 30), (40, 17), (17, 40)])
    def test_bool_array_of_the_frame_shape(self, rng, shape):
        frame = Frame(rng.integers(0, 256, shape, dtype=np.uint8))
        mask = adaptive_road_mask(frame, MaskParams(k1=1.0, k2=0.5, block=7))
        assert isinstance(mask, np.ndarray)
        assert mask.dtype == np.bool_ and mask.shape == shape

    def test_mask_deterministic(self, rng):
        frame = Frame(rng.integers(0, 256, (30, 30), dtype=np.uint8))
        params = MaskParams(k1=1.0, k2=0.5, block=7)
        a = adaptive_road_mask(frame, params)
        b = adaptive_road_mask(frame, params)
        assert np.array_equal(a, b)

    def test_bad_params(self):
        with pytest.raises(InvalidParam):
            MaskParams(k1=0.0, k2=1.0)
        with pytest.raises(InvalidParam):
            MaskParams(k1=1.0, k2=1.0, block=4)


def oracle_mask_bits(frame: Frame, params: MaskParams) -> np.ndarray:
    """The road-mask threshold over float64 pixels, written out as in the
    method, on the oracle's statistics."""
    mu, sigma = fancy_index_local_stats(frame, params.block)
    t = frame.pixels.astype(np.float64)
    k1, k2 = params.k1, params.k2
    return ((mu - k1 * sigma) / k2 <= t) & (t <= (mu + k1 * sigma) / (k1 + k2))


@pytest.fixture(scope="module")
def day_background() -> Frame:
    """The median of a day intersection scene's frames, as the background
    stage makes it: noise, a parked car and two textured road bands."""
    spec = synth.make_scene("day", LightingClass.DAY, True, (0.0, 60.0), True,
                            seed=3, duration=60.0, fps=1.0)
    rng = np.random.default_rng(spec.seed)
    base = synth._base_canvas(spec, rng)
    buffers = synth.FrameBuffers(spec.width, spec.height)
    frames = [Frame(synth.render_frame(spec, base, drawn, rng, buffers).pixels.copy())
              for drawn in synth.drawn_boxes(spec, np.arange(0.0, 60.0, 6.0))]
    return background.median_frame(stacked(frames))


class TestMaskThreshold:
    @pytest.mark.parametrize("k1,k2,block", [
        (2.0, 0.6, 31), (0.25, 0.1, 3), (1.0, 1.0, 7), (4.0, 3.0, 15), (0.5, 2.0, 61),
    ])
    def test_bits_equal_float_threshold_oracle(self, rng, day_background, k1, k2, block):
        params = MaskParams(k1=k1, k2=k2, block=block)
        # flat patches put pixels on the band's edges: a black one on both,
        # a grey one on the lower edge when k2 is 1
        patched = rng.integers(254, 256, (80, 120), dtype=np.uint8)
        patched[5:35, 5:60] = 0
        patched[40:75, 60:115] = 77
        for frame in (Frame(rng.integers(0, 256, (80, 120), dtype=np.uint8)),
                      Frame(rng.integers(60, 70, (80, 120), dtype=np.uint8)),
                      Frame(patched), day_background):
            bits = adaptive_road_mask(frame, params)
            assert np.array_equal(bits, oracle_mask_bits(frame, params))

    def test_day_background_is_part_road(self, day_background):
        bits = adaptive_road_mask(day_background, MaskParams(k1=2.0, k2=0.6))
        assert 0.05 < bits.mean() < 0.95


class TestBBoxOnRoad:
    def setup_method(self):
        self.mask = np.zeros((20, 20), dtype=bool)
        self.mask[5:15, :] = True

    def test_fully_on(self):
        assert bbox_on_road(BBox(2, 6, 4, 4), self.mask)

    def test_fully_off(self):
        assert not bbox_on_road(BBox(0, 0, 4, 4), self.mask)

    def test_partial_overlap_threshold(self):
        # box rows 3..12, road rows 5..14: 8 of 10 rows covered
        box = BBox(0, 3, 4, 10)
        assert bbox_on_road(box, self.mask, min_overlap=0.8)
        assert not bbox_on_road(box, self.mask, min_overlap=0.81)

    def test_out_of_bounds_box(self):
        with pytest.raises(InvalidBBox):
            bbox_on_road(BBox(18, 18, 4, 4), self.mask)

    def test_bad_min_overlap(self):
        with pytest.raises(InvalidParam):
            bbox_on_road(BBox(0, 0, 2, 2), self.mask, min_overlap=0.0)


def reference_scene(rng) -> tuple[Frame, np.ndarray]:
    """A dark noisy road band across a bright scene, and its road pixels."""
    img = np.full((80, 160), 220.0)
    truth = np.zeros((80, 160), dtype=bool)
    truth[30:44, :] = True
    img[truth] = 90.0 + rng.normal(0, 5, size=int(truth.sum()))
    return Frame(np.clip(img, 0, 255).astype(np.uint8)), truth


class TestCalibration:
    def test_finds_passing_cells_on_reference_scene(self, rng):
        scene, truth = reference_scene(rng)
        passing = calibrate_mask_params(scene, truth)
        assert passing
        ks = {(k1, k2) for k1, k2, _, _ in passing}
        assert (2.0, 0.6) in ks
        best = passing[0]
        assert best[2] >= 0.95 and best[3] <= 0.05

    def test_reported_rates_are_those_of_adaptive_road_mask(self, rng):
        scene, truth = reference_scene(rng)
        passing = calibrate_mask_params(scene, truth)
        assert len(passing) >= 8
        for k1, k2, recall, fpr in passing[::max(1, len(passing) // 8)]:
            bits = adaptive_road_mask(scene, MaskParams(k1, k2))
            assert recall == bits[truth].sum() / truth.sum()
            assert fpr == bits[~truth].sum() / (~truth).sum()

    def test_truth_shape_checked(self):
        with pytest.raises(DimensionMismatch):
            calibrate_mask_params(make_frame(np.zeros((40, 40))),
                                  np.zeros((10, 10), dtype=bool))
