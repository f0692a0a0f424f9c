"""Evaluation numerics: bpss, compression ratio, bandwidth, PSNR, MS-SSIM,
and the Bjøntegaard delta rate.

bpss is bits per sub-sample, where one sub-sample is one 8-bit axis reading
of one tactile unit at one timestep.  Raw data is 8.0 bpss by definition, so
the compression ratio is 8.0 / bpss.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .layout import AXIS_COUNT

PEAK = 255.0

# 5-scale MS-SSIM constants: 11-tap Gaussian window, sigma 1.5, the classic
# per-scale weights, K1/K2 stabilizers, 8-bit dynamic range.
MSSSIM_WEIGHTS = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)
MSSSIM_WINDOW = 11
MSSSIM_SIGMA = 1.5
K1 = 0.01
K2 = 0.03


class QualityMetric(Enum):
    PSNR = "psnr"
    MSSSIM = "msssim"


@dataclass(frozen=True)
class RDPoint:
    """One rate-distortion operating point."""

    bpss: float
    psnr_db: float
    ms_ssim: float

    def __post_init__(self):
        if not 0 < self.bpss < math.inf:
            raise ValueError("bpss must be finite and positive")
        if math.isnan(self.psnr_db):  # +inf PSNR marks a lossless point
            raise ValueError("psnr_db must not be NaN")
        if not 0 <= self.ms_ssim <= 1:
            raise ValueError("ms_ssim must be in [0, 1]")

    def quality(self, metric: QualityMetric) -> float:
        return self.psnr_db if metric is QualityMetric.PSNR else self.ms_ssim


@dataclass(frozen=True)
class RDCurve:
    """Rate-distortion points of one codec, rate strictly increasing."""

    codec_id: str
    points: tuple[RDPoint, ...]

    def __post_init__(self):
        points = tuple(self.points)
        if not points:
            raise ValueError("empty RD curve")
        rates = [p.bpss for p in points]
        if any(b >= a for a, b in zip(rates[1:], rates)):
            raise ValueError("RD points must have strictly increasing bpss")
        object.__setattr__(self, "points", points)


def bpss(compressed_bits: int, sub_samples: int) -> float:
    """Exact ratio of payload bits to raw sub-sample count."""
    if sub_samples <= 0:
        raise ValueError("sub_samples must be positive")
    if compressed_bits < 0:
        raise ValueError("compressed_bits must be non-negative")
    return compressed_bits / sub_samples


def compression_ratio(bpss_value: float) -> float:
    """Raw 8-bit sub-samples over compressed bits: 8.0 / bpss."""
    if bpss_value <= 0:
        raise ValueError("bpss must be positive")
    return 8.0 / bpss_value


def bandwidth_bits_per_second(
    sample_rate_hz: float, total_units: int, bpss_value: float = 8.0
) -> float:
    """Channel rate of a unit stream at the given bits per sub-sample."""
    if not (math.isfinite(sample_rate_hz) and sample_rate_hz > 0):
        raise ValueError(f"sample rate must be finite and > 0, not {sample_rate_hz}")
    return sample_rate_hz * total_units * AXIS_COUNT * bpss_value


def _as_planes(image) -> np.ndarray:
    pixels = getattr(image, "pixels", image)
    return np.asarray(pixels)


def psnr(a, b) -> float:
    """10*log10(255^2 / MSE) over all samples; identical inputs give inf."""
    pa, pb = _as_planes(a), _as_planes(b)
    if pa.shape != pb.shape:
        raise ValueError(f"shape mismatch {pa.shape} vs {pb.shape}")
    diff = pa.astype(np.float64) - pb.astype(np.float64)
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(PEAK * PEAK / mse)


def _gaussian_kernel() -> np.ndarray:
    half = (MSSSIM_WINDOW - 1) / 2
    x = np.arange(MSSSIM_WINDOW) - half
    k = np.exp(-(x * x) / (2 * MSSSIM_SIGMA * MSSSIM_SIGMA))
    return k / k.sum()


_KERNEL = _gaussian_kernel()
_HALF = (MSSSIM_WINDOW - 1) // 2
_BLOCK_ROWS = 32  # output rows filtered at a time: the temporaries stay in cache


def _correlate_valid(plane: np.ndarray, axis: int) -> np.ndarray:
    # _KERNEL along one axis, kept to the fully supported (valid) positions
    valid = plane.shape[axis] - 2 * _HALF

    def shifted(offset):
        return plane[offset:offset + valid] if axis == 0 else plane[:, offset:offset + valid]

    # The kernel is symmetric, so each output is the centre tap plus the
    # paired outer taps, outermost first: the order of scipy.ndimage's
    # symmetric correlate1d, which computed the reports' MS-SSIM until
    # numpy became the only dependency.  The pinned MS-SSIM values in
    # tests/test_metrics.py hold this sum to exactly that order.
    out = shifted(_HALF) * _KERNEL[_HALF]
    for j in range(_HALF):
        out += (shifted(j) + shifted(2 * _HALF - j)) * _KERNEL[j]
    return out


def _filter_valid(plane: np.ndarray) -> np.ndarray:
    # separable Gaussian over the fully-supported (valid) region, in row blocks
    blocks = range(0, plane.shape[0] - 2 * _HALF, _BLOCK_ROWS)
    return np.concatenate([
        _correlate_valid(_correlate_valid(plane[r:r + _BLOCK_ROWS + 2 * _HALF], 0), 1)
        for r in blocks
    ])


def _ssim_terms(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    c1 = (K1 * PEAK) ** 2
    c2 = (K2 * PEAK) ** 2
    mu_x = _filter_valid(x)
    mu_y = _filter_valid(y)
    sxx = _filter_valid(x * x) - mu_x * mu_x
    syy = _filter_valid(y * y) - mu_y * mu_y
    sxy = _filter_valid(x * y) - mu_x * mu_y
    lum = (2 * mu_x * mu_y + c1) / (mu_x * mu_x + mu_y * mu_y + c1)
    cs = (2 * sxy + c2) / (sxx + syy + c2)
    return float(np.mean(lum)), float(np.mean(cs))


def _downsample2(plane: np.ndarray) -> np.ndarray:
    # 2x2 mean, truncating odd trailing rows/columns
    h, w = plane.shape[0] // 2, plane.shape[1] // 2
    return plane[: 2 * h, : 2 * w].reshape(h, 2, w, 2).mean(axis=(1, 3))


def msssim_scale_count(height: int, width: int) -> int:
    """Scales usable for an image: the 11-tap window must fit at the coarsest."""
    scales = 0
    dim = min(height, width)
    while scales < len(MSSSIM_WEIGHTS) and dim >= MSSSIM_WINDOW:
        scales += 1
        dim //= 2
    return scales


def ms_ssim(a, b) -> float:
    """Multi-scale SSIM, per channel then channel-averaged, in [0, 1].

    Uses 5 dyadic scales when the input is large enough (min dimension 176);
    smaller inputs drop the coarsest scales and the remaining weights are
    renormalized.  Negative luminance/contrast means are clamped to zero so
    the weighted product stays real.
    """
    pa, pb = _as_planes(a), _as_planes(b)
    if pa.shape != pb.shape:
        raise ValueError(f"shape mismatch {pa.shape} vs {pb.shape}")
    if pa.ndim == 2:
        pa = pa[:, :, None]
        pb = pb[:, :, None]
    scales = msssim_scale_count(pa.shape[0], pa.shape[1])
    if scales == 0:
        raise ValueError(
            f"image {pa.shape[1]}x{pa.shape[0]} smaller than the {MSSSIM_WINDOW}-tap window"
        )
    weights = np.array(MSSSIM_WEIGHTS[:scales])
    if scales < len(MSSSIM_WEIGHTS):
        weights = weights / weights.sum()

    per_channel = []
    for c in range(pa.shape[2]):
        x = pa[:, :, c].astype(np.float64)
        y = pb[:, :, c].astype(np.float64)
        value = 1.0
        for s in range(scales):
            lum, cs = _ssim_terms(x, y)
            cs = max(cs, 0.0)
            if s == scales - 1:
                lum = max(lum, 0.0)
                value *= (lum * cs) ** weights[s]
            else:
                value *= cs ** weights[s]
                x = _downsample2(x)
                y = _downsample2(y)
        per_channel.append(value)
    return float(np.mean(per_channel))


def bd_rate(reference: RDCurve, test: RDCurve,
            quality_metric: QualityMetric = QualityMetric.PSNR) -> float:
    """Bjøntegaard delta rate of ``test`` against ``reference``, in percent.

    Fits a cubic polynomial to log10(rate) as a function of quality for each
    curve, integrates both over the overlapping quality interval, and maps
    the mean log-rate offset back to a percentage: negative means the test
    codec needs fewer bits at equal quality.  Points with infinite PSNR are
    excluded (the log-domain fit is undefined there).
    """

    def usable(curve: RDCurve):
        pts = [
            (p.quality(quality_metric), math.log10(p.bpss))
            for p in curve.points
            if math.isfinite(p.quality(quality_metric))
        ]
        if len(pts) < 4:
            raise ValueError(
                f"curve {curve.codec_id}: need >= 4 finite points for the cubic fit, "
                f"have {len(pts)}"
            )
        quality = np.array([q for q, _ in pts])
        log_rate = np.array([r for _, r in pts])
        if np.any(np.diff(quality) <= 0):
            raise ValueError(
                f"curve {curve.codec_id}: quality must increase strictly with rate"
            )
        return quality, log_rate

    q_ref, lr_ref = usable(reference)
    q_test, lr_test = usable(test)
    lo = max(q_ref.min(), q_test.min())
    hi = min(q_ref.max(), q_test.max())
    if hi <= lo:
        raise ValueError("RD curves have no overlapping quality range")

    poly_ref = np.polyfit(q_ref, lr_ref, 3)
    poly_test = np.polyfit(q_test, lr_test, 3)
    int_ref = np.polyval(np.polyint(poly_ref), hi) - np.polyval(np.polyint(poly_ref), lo)
    int_test = np.polyval(np.polyint(poly_test), hi) - np.polyval(np.polyint(poly_test), lo)
    mean_offset = (int_test - int_ref) / (hi - lo)
    return float((10.0**mean_offset - 1.0) * 100.0)


def format_metric(value: float) -> str:
    """Serialize a metric with 6 significant digits; infinities become 'inf'."""
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return f"{value:.6g}"
