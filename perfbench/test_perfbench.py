"""Each correctness check of the benchmark rejects a deliberately broken output,
and the tracer reports every per-layer metric BENCHMARK.json declares."""

import dataclasses
import gzip
import json
import math
from pathlib import Path

import numpy as np
import pytest

from taccompress import analysis, codec
from taccompress.imaging import TactileImage

from perfbench import checks, tracing


@pytest.fixture(scope="module")
def raster():
    rng = np.random.default_rng(7)
    return rng.integers(100, 140, size=(6, 5, 3), dtype=np.uint8)


def test_flipped_payload_byte_is_rejected(raster):
    blob = codec.encode_lossless(TactileImage(raster))
    assert checks.tlc1_tile(raster, blob) == []
    payload = bytearray(blob.payload)
    payload[len(payload) // 2] ^= 0x01
    broken = dataclasses.replace(blob, payload=bytes(payload))
    assert checks.tlc1_tile(raster, broken)


def test_gzip_payload_must_decompress_to_the_raster(raster):
    assert checks.gzip_tile(raster, gzip.compress(raster.tobytes())) == []
    assert checks.gzip_tile(raster, gzip.compress(raster.tobytes()[:-1] + b"\0"))
    assert checks.gzip_tile(raster, b"not gzip")


def _lossless_cell(bits, frames, traces=1):
    return {"object": "egg", "pose": "pinch", "codec": "tlc1", "traces": traces,
            "bits": bits, "bpss": bits / (traces * frames * 1140 * 3)}


def test_wrong_sub_sample_denominator_is_rejected():
    assert checks.bpss_denominators([_lossless_cell(9000, 24)], 24) == []
    assert checks.bpss_denominators([_lossless_cell(9000, 23)], 24)
    assert checks.bpss_denominators([_lossless_cell(9000, 24, traces=2)], 24) == []


def test_report_bits_must_match_independent_tiles():
    cells = [_lossless_cell(9000, 24)]
    assert checks.cell_bits(cells, "egg", "pinch", "tlc1", 9000) == []
    assert checks.cell_bits(cells, "egg", "pinch", "tlc1", 9008)
    assert checks.cell_bits(cells, "egg", "cylindrical", "tlc1", 9000)


def _rd_cells(ladder, psnr_offset=0.5, msssim=0.99):
    return [{"quality": q, "psnr": checks.psnr_floor(q) + psnr_offset, "msssim": msssim}
            for q in ladder]


def test_psnr_below_the_bound_is_rejected():
    ladder = (2, 4, 8)
    assert checks.rd_points(_rd_cells(ladder), ladder) == []
    low = _rd_cells(ladder)
    low[1]["psnr"] = checks.psnr_floor(4) - 1e-6
    assert checks.rd_points(low, ladder)
    assert math.isclose(checks.psnr_floor(2), 20 * math.log10(255))


def test_rd_points_need_every_step_and_a_valid_msssim():
    ladder = (2, 4, 8)
    assert checks.rd_points(_rd_cells(ladder[:2]), ladder)
    assert checks.rd_points(_rd_cells(ladder, msssim=0.0), ladder)
    assert checks.rd_points(_rd_cells(ladder, msssim=1.0 + 1e-9), ladder)


def _bd_rows(psnr_value, msssim_value):
    return [{"reference": "c", "test": "c", "metric": m, "bd_rate_percent": v, "note": ""}
            for m, v in (("psnr", psnr_value), ("msssim", msssim_value))]


def test_self_pair_bd_rate_must_be_zero():
    assert checks.self_bd_rate(_bd_rows(0.0, -1e-12), "c") == []
    assert checks.self_bd_rate(_bd_rows(1e-6, 0.0), "c")
    assert checks.self_bd_rate(_bd_rows(0.0, None), "c")
    assert checks.self_bd_rate(_bd_rows(0.0, 0.0)[:1], "c")


def test_split_must_cover_every_object():
    labels = ["a", "a", "b", "b"]
    assert checks.split_covers(labels, [0, 2], [1, 3]) == []
    assert checks.split_covers(labels, [0, 1], [2, 3])


def test_accuracy_must_beat_chance_by_the_margin():
    row = {"source": "raw", "knn": 0.25, "rf": 0.5}
    assert checks.beats_chance(row, ["knn", "rf"], 8, 0.125) == []
    assert checks.beats_chance(row, ["knn", "rf"], 8, 0.2)


def test_kmeans_assignment_must_be_the_nearest_centre():
    rng = np.random.default_rng(3)
    points = np.concatenate([rng.normal(0, 0.1, (5, 2)), rng.normal(5, 0.1, (5, 2))])
    result = analysis.kmeans(points, 2, seed=0)
    assert checks.kmeans_nearest(points, result.assignments, result.centers) == []
    swapped = result.assignments.copy()
    swapped[0] = 1 - swapped[0]
    assert checks.kmeans_nearest(points, swapped, result.centers)


def test_rounds_must_write_identical_reports():
    assert checks.identical_rounds([{"a.csv": b"x"}, {"a.csv": b"x"}]) == []
    assert checks.identical_rounds([{"a.csv": b"x"}, {"a.csv": b"y"}])


def test_instrument_records_spans_and_restores_the_program(raster):
    original = codec.encode_lossless
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        codec.encode_lossless(TactileImage(raster))
    assert codec.encode_lossless is original
    (span,) = tracer.spans
    assert span.name == "codec.encode_lossless"
    assert span.counts["samples"] == raster.size


def test_self_time_counts_overlapping_children_once():
    assert tracing._covered((0.0, 10.0), [(1.0, 4.0), (2.0, 5.0), (8.0, 12.0)]) == 6.0


def test_layer_metrics_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    values = tracing.layer_metrics(tracing.Tracer(), 1, [1.0], [1.0])
    assert sorted(values) == sorted(m["name"] for m in spec["per_layer"])
    assert all(tracing.unit_of(m["name"]) == m["unit"] for m in spec["per_layer"])
