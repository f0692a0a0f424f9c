import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import sliding_window_view

from taccompress import codec
from taccompress import metrics as M
from taccompress.imaging import trace_to_image
from taccompress.layout import GraspPose
from taccompress.metrics import QualityMetric, RDCurve, RDPoint
from taccompress.simulate import PhasePlan, generate_trace, make_profile


def curve(rates, qualities, msssims=None):
    msssims = msssims or [min(0.5 + 0.1 * i, 1.0) for i in range(len(rates))]
    return RDCurve(
        codec_id="c",
        points=tuple(
            RDPoint(bpss=r, psnr_db=q, ms_ssim=s)
            for r, q, s in zip(rates, qualities, msssims)
        ),
    )


class TestBpss:
    def test_paper_table_average(self):
        # 12456 bits over 342000 sub-samples sits in the WebP-average regime
        value = M.bpss(12456, 342000)
        assert value == 12456 / 342000
        assert abs(value - 0.0364) < 1e-4
        assert abs(M.compression_ratio(0.0364) - 219.78) < 0.01

    def test_uncompressed_is_8(self):
        assert M.bpss(8 * 12345, 12345) == 8.0
        assert M.compression_ratio(8.0) == 1.0

    def test_bandwidth_arithmetic(self):
        assert M.bandwidth_bits_per_second(100, 1140, 8.0) == 2_736_000
        compressed = M.bandwidth_bits_per_second(100, 1140, 0.0364)
        assert abs(compressed - 12_448.8) < 1e-9

    @pytest.mark.parametrize("rate", [-5.0, 0.0, math.nan, math.inf])
    def test_bandwidth_rejects_a_rate_that_is_not_finite_and_positive(self, rate):
        with pytest.raises(ValueError, match="sample rate"):
            M.bandwidth_bits_per_second(rate, 1140, 8.0)

    def test_zero_sub_samples_rejected(self):
        with pytest.raises(ValueError):
            M.bpss(100, 0)


class TestPsnr:
    def test_identity_is_infinite(self):
        a = np.random.default_rng(0).integers(0, 256, (4, 5, 3), dtype=np.uint8)
        assert M.psnr(a, a) == math.inf

    def test_full_scale_error_is_zero_db(self):
        a = np.zeros((4, 4, 3), dtype=np.uint8)
        b = np.full((4, 4, 3), 255, dtype=np.uint8)
        assert M.psnr(a, b) == 0.0

    def test_hand_computed_single_difference(self):
        # 2x1 RGB image: 6 samples, one differs by 16 -> MSE = 256/6
        a = np.zeros((1, 2, 3), dtype=np.uint8)
        b = a.copy()
        b[0, 0, 0] = 16
        expected = 10 * math.log10(255**2 * 6 / 256)
        assert abs(M.psnr(a, b) - expected) < 1e-12
        assert abs(expected - 31.83) < 0.005

    def test_strictly_decreasing_in_error_magnitude(self):
        a = np.zeros((2, 2, 3), dtype=np.uint8)
        previous = math.inf
        for magnitude in (1, 2, 5, 20, 100):
            b = a.copy()
            b[0, 0, 0] = magnitude
            value = M.psnr(a, b)
            assert value < previous
            previous = value

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            M.psnr(np.zeros((2, 2, 3), np.uint8), np.zeros((2, 3, 3), np.uint8))


class TestMsSsim:
    def test_identity_is_one(self):
        a = np.random.default_rng(1).integers(0, 256, (176, 176, 3), dtype=np.uint8)
        assert abs(M.ms_ssim(a, a) - 1.0) <= 1e-9

    def test_constant_gap_ordering(self):
        base = np.full((200, 200, 3), 100, dtype=np.uint8)
        small_gap = M.ms_ssim(base, base + np.uint8(8))
        large_gap = M.ms_ssim(base, base + np.uint8(64))
        assert large_gap < small_gap < 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 256, (180, 180, 3), dtype=np.uint8)
        b = np.clip(
            a.astype(int) + rng.integers(-15, 16, a.shape), 0, 255
        ).astype(np.uint8)
        assert abs(M.ms_ssim(a, b) - M.ms_ssim(b, a)) < 1e-12

    def test_bounded_on_random_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            a = rng.integers(0, 256, (64, 64, 3), dtype=np.uint8)
            b = rng.integers(0, 256, (64, 64, 3), dtype=np.uint8)
            value = M.ms_ssim(a, b)
            assert 0.0 <= value <= 1.0

    def test_scale_count_reduction(self):
        assert M.msssim_scale_count(256, 1140) == 5
        assert M.msssim_scale_count(176, 176) == 5
        assert M.msssim_scale_count(175, 175) == 4
        assert M.msssim_scale_count(100, 1140) == 4
        assert M.msssim_scale_count(11, 11) == 1
        assert M.msssim_scale_count(10, 500) == 0

    def test_too_small_image_rejected(self):
        a = np.zeros((8, 8, 3), dtype=np.uint8)
        with pytest.raises(ValueError):
            M.ms_ssim(a, a)


def msssim_pin_pairs():
    """Seeded (source, distorted) pairs whose MS-SSIM is pinned bit for bit."""
    trace = generate_trace(make_profile("egg"), GraspPose.PINCH,
                           PhasePlan(0.02, 0.04, 0.02, 0.06, 0.02), seed=1)
    tile = trace_to_image(trace)  # 16 x 1140
    pairs = {"tlc1-lossy@16": (tile, codec.decode_lossy(codec.encode_lossy(tile, 16)))}
    rng = np.random.default_rng(9)
    for name, shape in [("odd-11x37", (11, 37, 3)), ("five-scale-176x200", (176, 200, 3)),
                        ("2-d-40x53", (40, 53))]:
        a = rng.integers(0, 256, shape, dtype=np.uint8)
        b = np.clip(a + rng.integers(-20, 21, shape), 0, 255).astype(np.uint8)
        pairs[name] = (a, b)
    return pairs


# Generated with scipy.ndimage.correlate1d as the Gaussian filter, before
# numpy's shifted-slice sums replaced it; every report's MS-SSIM hangs on them.
MSSSIM_PINS = {
    "tlc1-lossy@16": "0x1.fd2388e5f0f5dp-1",
    "odd-11x37": "0x1.f9178dce8b088p-1",
    "five-scale-176x200": "0x1.fa26b5f94a8f5p-1",
    "2-d-40x53": "0x1.f9e67b19b389dp-1",
}


def test_ms_ssim_matches_the_pinned_values_exactly():
    assert {name: M.ms_ssim(a, b).hex()
            for name, (a, b) in msssim_pin_pairs().items()} == MSSSIM_PINS


def window_sums(plane):
    """The 11x11 Gaussian window summed at every fully supported position."""
    window = np.outer(M._KERNEL, M._KERNEL)
    return np.einsum("rcij,ij->rc", sliding_window_view(plane, window.shape), window)


# planes of pixels, their products and their 2x2 means: sixteenths in 0..255^2;
# up to 90 rows, so the filter's 32-row blocks end full and partial
PLANES = arrays(np.float64, st.tuples(st.integers(M.MSSSIM_WINDOW, 90),
                                      st.integers(M.MSSSIM_WINDOW, 40)),
                elements=st.integers(0, 255 * 255 * 16).map(lambda v: v / 16))


@settings(max_examples=100, deadline=None)
@given(PLANES)
def test_filter_valid_is_the_gaussian_window_sum(plane):
    assert np.allclose(M._filter_valid(plane), window_sums(plane), rtol=1e-12, atol=0)


class TestBdRate:
    def test_identical_curves_zero(self):
        c = curve([0.1, 0.2, 0.4, 0.8, 1.6], [30, 33, 36, 39, 42])
        assert abs(M.bd_rate(c, c)) <= 1e-9

    def test_doubled_rate_is_plus_100(self):
        ref = curve([0.1, 0.2, 0.4, 0.8, 1.6], [30, 33, 36, 39, 42])
        test = curve([0.2, 0.4, 0.8, 1.6, 3.2], [30, 33, 36, 39, 42])
        assert abs(M.bd_rate(ref, test) - 100.0) <= 0.1

    def test_halved_rate_is_minus_50(self):
        ref = curve([0.1, 0.2, 0.4, 0.8, 1.6], [30, 33, 36, 39, 42])
        test = curve([0.05, 0.1, 0.2, 0.4, 0.8], [30, 33, 36, 39, 42])
        assert abs(M.bd_rate(ref, test) + 50.0) <= 0.1

    def test_antisymmetry(self):
        ref = curve([0.11, 0.19, 0.37, 0.9], [31, 34.5, 37, 40])
        test = curve([0.08, 0.21, 0.5, 1.1], [30, 35, 38, 41])
        a = M.bd_rate(ref, test)
        b = M.bd_rate(test, ref)
        assert abs((1 + a / 100) * (1 + b / 100) - 1.0) < 0.005

    def test_msssim_variant(self):
        ref = curve([0.1, 0.2, 0.4, 0.8], [30, 33, 36, 39], [0.90, 0.93, 0.96, 0.99])
        test = curve(
            [0.2, 0.4, 0.8, 1.6], [30, 33, 36, 39], [0.90, 0.93, 0.96, 0.99]
        )
        value = M.bd_rate(ref, test, QualityMetric.MSSSIM)
        assert abs(value - 100.0) <= 0.1

    def test_infinite_psnr_points_excluded(self):
        # the inf point is dropped; the fit must equal the finite-only curve
        with_inf = curve([0.1, 0.2, 0.4, 0.8, 1.6], [30, 33, 36, 39, math.inf])
        finite = curve([0.1, 0.2, 0.4, 0.8], [30, 33, 36, 39])
        doubled = curve([0.2, 0.4, 0.8, 1.6], [30, 33, 36, 39])
        assert M.bd_rate(with_inf, doubled) == M.bd_rate(finite, doubled)
        # with only 3 finite points left, the cubic fit is rejected
        short = curve([0.1, 0.2, 0.4, 0.8], [30, 33, 36, math.inf])
        with pytest.raises(ValueError, match="4 finite"):
            M.bd_rate(short, doubled)

    def test_insufficient_points(self):
        c = curve([0.1, 0.2, 0.4], [30, 33, 36])
        with pytest.raises(ValueError, match="4"):
            M.bd_rate(c, c)

    def test_no_overlap_rejected(self):
        low = curve([0.1, 0.2, 0.4, 0.8], [10, 12, 14, 16])
        high = curve([0.1, 0.2, 0.4, 0.8], [30, 33, 36, 39])
        with pytest.raises(ValueError, match="overlap"):
            M.bd_rate(low, high)

    def test_non_monotone_quality_rejected(self):
        c = curve([0.1, 0.2, 0.4, 0.8], [30, 36, 33, 39])
        with pytest.raises(ValueError, match="strictly"):
            M.bd_rate(c, c)

    def test_curve_requires_strictly_increasing_rate(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            curve([0.1, 0.1, 0.4, 0.8], [30, 33, 36, 39])

    @pytest.mark.parametrize("bpss, psnr_db", [(math.nan, 30), (math.inf, 30), (0.1, math.nan)])
    def test_point_requires_a_finite_rate_and_a_psnr(self, bpss, psnr_db):
        with pytest.raises(ValueError):
            RDPoint(bpss=bpss, psnr_db=psnr_db, ms_ssim=0.9)


class TestFormatting:
    def test_six_significant_digits(self):
        assert M.format_metric(0.0364123456) == "0.0364123"
        assert M.format_metric(219.780219) == "219.78"

    def test_infinity_token(self):
        assert M.format_metric(math.inf) == "inf"
        assert M.format_metric(-math.inf) == "-inf"
