"""Correctness checks on campaign outputs.

Each check recomputes a result independently of the code path that produced
it, or tests a property the result must have, and returns a list of problems;
an empty list means the output passed.
"""

import gzip
import io
import math

import numpy as np

from taccompress import codec

UNITS = 1140
AXES = 3


def frames_of(plan, sample_rate_hz: float) -> int:
    """Frames a trace of ``plan`` holds: the rounded total duration times rate."""
    return round(sum(plan.durations) * sample_rate_hz)


def tlc1_tile(raster: np.ndarray, blob) -> list[str]:
    """The blob survives the TLC1 container and decodes to ``raster`` exactly."""
    buf = io.BytesIO()
    codec.write_blob(blob, buf)
    try:
        recon = codec.decode_lossless(codec.read_blob(buf.getvalue()))
    except Exception as exc:  # any failure to decode is a failed check
        return [f"tlc1 tile {raster.shape}: decode failed: {type(exc).__name__}: {exc}"]
    if not np.array_equal(recon.pixels, raster):
        return [f"tlc1 tile {raster.shape}: decoded raster differs from the source"]
    return []


def gzip_tile(raster: np.ndarray, payload: bytes) -> list[str]:
    """The gzip adapter's payload decompresses with stdlib gzip to the raster bytes."""
    try:
        data = gzip.decompress(payload)
    except (OSError, EOFError) as exc:
        return [f"gzip tile {raster.shape}: not a gzip stream: {exc}"]
    if data != raster.tobytes():
        return [f"gzip tile {raster.shape}: decompressed bytes differ from the raster"]
    return []


def cell_bits(cells, obj: str, pose: str, codec_id: str, expected: int) -> list[str]:
    """The report's bits for one (object, pose, codec) cell equal ``expected``."""
    found = [c["bits"] for c in cells
             if (c["object"], c["pose"], c["codec"]) == (obj, pose, codec_id)]
    if found != [expected]:
        return [f"{obj}/{pose}/{codec_id}: report bits {found}, independent tiles {expected}"]
    return []


def bpss_denominators(cells, frames: int) -> list[str]:
    """Every lossless cell's bpss uses traces * frames * 1140 * 3 sub-samples."""
    problems = []
    for c in cells:
        expected = c["bits"] / (c["traces"] * frames * UNITS * AXES)
        if not math.isclose(c["bpss"], expected, rel_tol=1e-12):
            problems.append(
                f"{c['object']}/{c['pose']}/{c['codec']}: bpss {c['bpss']!r} != "
                f"bits / ({c['traces']}*{frames}*{UNITS}*{AXES}) = {expected!r}"
            )
    return problems


def psnr_floor(qp: int) -> float:
    """PSNR every step-``qp`` reconstruction reaches: the quantiser's error is
    below ``qp``, so at most qp - 1 on every sample."""
    return 20.0 * math.log10(255.0 / (qp - 1))


def rd_points(cells, ladder) -> list[str]:
    """Every ladder step is an RD point, above its PSNR floor, MS-SSIM in (0, 1]."""
    problems = []
    steps = sorted(c["quality"] for c in cells)
    if steps != sorted(ladder):
        problems.append(f"RD points at steps {steps}, ladder {sorted(ladder)}")
    for c in cells:
        if not c["psnr"] >= psnr_floor(c["quality"]):
            problems.append(
                f"step {c['quality']}: PSNR {c['psnr']:.4f} dB below "
                f"{psnr_floor(c['quality']):.4f} dB"
            )
        if not 0.0 < c["msssim"] <= 1.0:
            problems.append(f"step {c['quality']}: MS-SSIM {c['msssim']!r} outside (0, 1]")
    return problems


def self_bd_rate(bd_rows, codec_id: str) -> list[str]:
    """BD-rate of a curve against itself is 0 for both quality metrics."""
    rows = [r for r in bd_rows if (r["reference"], r["test"]) == (codec_id, codec_id)]
    problems = []
    if sorted(r["metric"] for r in rows) != ["msssim", "psnr"]:
        problems.append(f"self-pair BD rows for metrics {[r['metric'] for r in rows]}")
    for r in rows:
        value = r["bd_rate_percent"]
        if value is None or not abs(value) <= 1e-9:
            problems.append(f"self-pair BD-rate ({r['metric']}) = {value!r} {r['note']}")
    return problems


def split_covers(labels, train_idx, test_idx) -> list[str]:
    """Every object appears in both the train and the test split."""
    objects = set(labels)
    problems = []
    for name, idx in (("train", train_idx), ("test", test_idx)):
        missing = objects - {labels[i] for i in idx}
        if missing:
            problems.append(f"{name} split lacks {sorted(missing)}")
    return problems


def beats_chance(row, classifiers, classes: int, margin: float) -> list[str]:
    """Each classifier's accuracy exceeds chance (1/classes) by ``margin``."""
    floor = 1.0 / classes + margin
    return [f"{row['source']} {k}: accuracy {row[k]:.4f} below {floor:.4f}"
            for k in classifiers if not row[k] >= floor]


def kmeans_nearest(points, assignments, centers) -> list[str]:
    """Each point is assigned to its nearest returned centre (ties allowed)."""
    points = np.asarray(points, np.float64)
    centers = np.asarray(centers, np.float64)
    d = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    chosen = d[np.arange(len(points)), np.asarray(assignments)]
    nearest = d.min(axis=1)
    bad = np.flatnonzero(chosen > nearest + 1e-9 * np.maximum(nearest, 1.0))
    return [f"k-means point {i}: centre {assignments[i]} is not the nearest" for i in bad]


def identical_rounds(round_files: list[dict]) -> list[str]:
    """Every round wrote byte-identical reports."""
    first = round_files[0]
    return [f"round {r}: {name} differs from round 0"
            for r, files in enumerate(round_files[1:], start=1)
            for name in sorted(set(first) | set(files))
            if files.get(name) != first.get(name)]
