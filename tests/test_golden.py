"""Golden digests: TLC1 payloads, bench CSVs and simulated traces for fixed seeds.

A refactor of the codec or the bench must reproduce these bytes exactly.
The CSV headers name the tool and numpy versions, so a version bump changes
the report digests on purpose.  Print fresh digests with
``PYTHONPATH=src python tests/test_golden.py``, and replace the pinned ones
only for a change that is meant to alter the output.
"""

import hashlib
from pathlib import Path

from taccompress import bench, cli, codec
from taccompress.analysis import ClassifierKind
from taccompress.imaging import trace_to_image
from taccompress.layout import GraspPose
from taccompress.simulate import PhasePlan, generate_trace, make_profile

TILE_PLAN = PhasePlan(0.02, 0.04, 0.02, 0.06, 0.02)  # 16 frames

PAYLOAD_DIGESTS = {
    "lossless": "7ea886255fbffda5930bfd5873b4341d663c3f05832c87fe92f9884e0e3cc526",
    "qp2": "661ccef03fb714ef764ec517756af83706fc9c55131fdaf930f1551988f73ac5",
    "qp16": "56b75842cad08e01e78e0e8f71b9ea39af8307a57995af18b7b5c473acef003c",
    "qp64": "07ec9bf950252d0254d4d778698c2e4173f36dbc3f57f51f34d1b85a07c2eab0",
}

REPORT_DIGESTS = {
    "lossless_cells.csv":
        "47869c0be2430ddfeaef625decbd9fa5bc96a5ba1523d3f65c417ad75ef0ffa3",
    "lossless_table.csv":
        "eed2ad8dad2a16cdb213d126bcd2f83acea214b85dc02cfa8ea0c5c5f83a76b2",
    "rd_points.csv":
        "ddcaabc17ecb231e77e8bf9d313e93d92d00a948bb39f4ce0c79d442363a60ac",
    "rd_curve_tlc1-lossy.csv":
        "2bb3a97eadb1b4f45ac333a15da215dd5ff82661124e0d73657985a321e2cd82",
    "bdrate.csv":
        "1d6fb398931ed414560fccdae82407f1a803a450064485ea905a2c0cd3e0c47c",
    "downstream_accuracy.csv":
        "896f5c70f314d2fcf01a2d1483b92ea6a15b1c6f7d92782e40fd6189692968d3",
}

SIMULATE_DIGESTS = {
    "egg_pinch_0.mptd":
        "3e19a561beb2312c9ddda53e53c14a716f24cc05e2ff91865305676fa8f89917",
    "egg_pinch_1.mptd":
        "cb2861fc584712a5277f7590c32a2aeb97e9d875abf4ad91ebccf30077049f20",
    "egg_tripod_0.mptd":
        "5aa6be0f96e5988721cebaf41eaeb71c2c6d754858bee7c49874f62ad13f8204",
    "egg_tripod_1.mptd":
        "3e5009e75436077a68fe645382f2ef4c0f5a98bb74c627df217ff3f85fa38226",
    "water_bottle_pinch_0.mptd":
        "c140da48df108ec6399a64f132c2c87f3c02b6d985d52b13488ba8d3aaade72f",
    "water_bottle_pinch_1.mptd":
        "a34a6d16981418b3ba0c3f913c9e933e46dd928fbf85367a1df8b0647baba836",
    "water_bottle_tripod_0.mptd":
        "2152d04f5fb24e5ab62492814eb02fb45c54f033ccb8702317b12bb17d1be1c1",
    "water_bottle_tripod_1.mptd":
        "014561482a775a8b53aa6939b8ff840a982334f33faff6fb1117ba16d912c3fd",
}

# Two objects (one named with a space) x two poses x two reps of 12 frames.
SIMULATE_ARGS = ["--seed", "3", "simulate", "--objects", "egg,water bottle",
                 "--poses", "pinch,tripod", "--reps", "2",
                 "--plan", "0.02,0.03,0.02,0.03,0.02"]

# Two 12-frame traces: two lossless tiles each (8 + 4 rows), one lossy tile
# each, at or above the 11 rows MS-SSIM needs.
LOSSLESS = bench.BenchConfig(
    objects=("egg", "apple"), poses=(GraspPose.PINCH,), reps=1, seed=3,
    plan=PhasePlan(0.02, 0.03, 0.02, 0.03, 0.02), codecs=("tlc1",),
    tile_height=8, jobs=1,
)
LOSSY = bench.BenchConfig(
    **{**LOSSLESS.__dict__, "codecs": ("tlc1-lossy",), "tile_height": 16,
       "quality_ladders": {"tlc1-lossy": (2, 8, 32, 64)},
       "bd_pairs": (("tlc1-lossy", "tlc1-lossy"),)},
)
# Three 2-frame traces an object, all four classifiers.
DOWNSTREAM = bench.BenchConfig(
    objects=("egg", "apple", "orange"), poses=(GraspPose.PINCH,), reps=3, seed=3,
    plan=PhasePlan(0.0, 0.01, 0.01, 0.0, 0.0), tile_height=16, jobs=1,
    classifiers=tuple(ClassifierKind), downstream_qualities=(8, 64),
    feature_height=2, train_fraction=0.5, split_seed=3,
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def payload_digests() -> dict:
    trace = generate_trace(make_profile("egg"), GraspPose.PINCH, TILE_PLAN, seed=1)
    tile = trace_to_image(trace)
    digests = {"lossless": _sha256(codec.encode_lossless(tile).payload)}
    for qp in (2, 16, 64):
        digests[f"qp{qp}"] = _sha256(codec.encode_lossy(tile, qp).payload)
    return digests


def report_digests(out_dir: Path) -> dict:
    paths = bench.write_lossless_report(bench.run_lossless_suite(LOSSLESS), out_dir)
    paths += bench.write_lossy_report(bench.run_lossy_suite(LOSSY), out_dir)
    paths += bench.write_downstream_report(bench.run_downstream_suite(DOWNSTREAM), out_dir)
    return {p.name: _sha256(p.read_bytes()) for p in paths}


def simulate_digests(out_dir: Path) -> dict:
    assert cli.main(["--out", str(out_dir), *SIMULATE_ARGS]) == 0
    return {p.name: _sha256(p.read_bytes()) for p in sorted(out_dir.iterdir())}


def test_tlc1_payloads_match_the_golden_digests():
    assert payload_digests() == PAYLOAD_DIGESTS


def test_bench_reports_match_the_golden_digests(tmp_path):
    assert report_digests(tmp_path) == REPORT_DIGESTS


def test_simulate_files_match_the_golden_digests(tmp_path):
    assert simulate_digests(tmp_path) == SIMULATE_DIGESTS


if __name__ == "__main__":
    import pprint
    import tempfile

    pprint.pprint(payload_digests())
    with tempfile.TemporaryDirectory() as tmp:
        pprint.pprint(report_digests(Path(tmp)))
    with tempfile.TemporaryDirectory() as tmp:
        pprint.pprint(simulate_digests(Path(tmp)))
