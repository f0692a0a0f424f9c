import dataclasses
import hashlib
import itertools
import math
import multiprocessing
import os
import shutil
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden import DOWNSTREAM, LOSSLESS, LOSSY, REPORT_DIGESTS

from taccompress import bench, cli, codec
from taccompress.adapters import CodecKind
from taccompress.analysis import ClassifierKind
from taccompress.errors import CodecIntegrityError, CodecUnavailableError, FormatError
from taccompress.imaging import TactileImage, tile_ranges, trace_to_image
from taccompress.layout import GraspPose
from taccompress.metrics import MSSSIM_WINDOW, ms_ssim
from taccompress.simulate import MAX_FRAMES, OBJECT_NAMES, PhasePlan
from taccompress.trace import save_trace

GZIP_AVAILABLE = shutil.which("gzip") is not None

SMALL = dict(
    objects=("egg", "apple"),
    poses=(GraspPose.PINCH, GraspPose.CYLINDRICAL),
    reps=2,
    plan=PhasePlan(0.1, 0.08, 0.04, 0.25, 0.03),
    jobs=2,
)


def mean_bpss(cells, codec_id, **match):
    values = [c["bpss"] for c in cells
              if c["codec"] == codec_id and all(c[k] == v for k, v in match.items())]
    return sum(values) / len(values)


def codecs_of(report):
    return {c["codec"] for c in report.cells}


def ini_text(config):
    """The INI config that ``config``'s report header echoes."""
    sections = {}
    for name, value in config.resolved_items():
        section, key = name.split(".", 1)
        sections.setdefault(section, []).append(f"{key} = {value}\n")
    return "".join(f"[{s}]\n" + "".join(lines) for s, lines in sections.items())


FINITE = st.floats(allow_nan=False, allow_infinity=False)
CODEC_IDS = st.sampled_from(["tlc1", "tlc1-lossy", "gzip", "hm-scc", "vtm-intra"])
PATHS = st.text("abc/._-0123456789", max_size=12)
QUALITIES = st.lists(st.integers(codec.QP_MIN, codec.QP_MAX), max_size=6, unique=True).map(tuple)
PLANS = (st.lists(FINITE.filter(lambda v: v >= 0), min_size=5, max_size=5)
         .filter(lambda d: 0 < sum(d) < math.inf).map(lambda d: PhasePlan(*d)))
# a plan and a rate whose trace stays inside the frame budget
PLANS_AND_RATES = PLANS.flatmap(lambda plan: st.tuples(st.just(plan), st.floats(
    0, MAX_FRAMES / plan.total_s, exclude_min=True, allow_infinity=False)))


@pytest.fixture(scope="module")
def small_lossless_report():
    config = bench.BenchConfig(**SMALL, codecs=("tlc1",))
    return config, bench.run_lossless_suite(config)


class TestConfig:
    def test_parse_round_trips_key_values(self):
        config = bench.parse_config(
            """
            [dataset]
            kind = synthetic
            objects = egg, apple
            poses = pinch, spherical
            reps = 3
            seed = 17
            plan_s = 0.1, 0.1, 0.1, 0.2, 0.1

            [run]
            codecs = tlc1, tlc1-lossy
            tile_height = 128
            quality_ladder.tlc1-lossy = 2, 8, 32, 64
            bd_pairs = tlc1-lossy:tlc1-lossy

            [downstream]
            classifiers = knn
            qualities = 8

            [output]
            directory = out
            """
        )
        assert config.objects == ("egg", "apple")
        assert config.poses == (GraspPose.PINCH, GraspPose.SPHERICAL)
        assert config.reps == 3 and config.seed == 17
        assert config.tile_height == 128
        assert config.quality_ladders == {"tlc1-lossy": (2, 8, 32, 64)}
        assert config.bd_pairs == (("tlc1-lossy", "tlc1-lossy"),)
        assert config.classifiers == (ClassifierKind.KNN,)
        assert config.output_directory == "out"

    def test_bad_pose_rejected(self):
        with pytest.raises(FormatError):
            bench.parse_config("[dataset]\nposes = fist\n")

    @pytest.mark.parametrize("text", [
        "[dataset]\nsample_rate_hz = nan\n",
        "[dataset]\nsample_rate_hz = 0\n",
        "[run]\nquality_ladder.tlc1-lossy = 2, 300\n",
        "[downstream]\nqualities = 8, 0\n",
        "[downstream]\nfeature_height = 0\n",
        "[downstream]\ntrain_fraction = 1.5\n",
        "[dataset]\nplan_s = nan, 0.01, 0.01, 0, 0\n",
        "[dataset]\nplan_s = inf, 0.01, 0.01, 0, 0\n",
        "[dataset]\nplan_s = 1e308, 1e308, 0, 0, 0\n",
        "[run]\njobs = -1\n",
        "[run]\nquality_ladder.tlc1-lossy = 8, 8, 16\n",
        "[downstream]\nqualities = 8, 8\n",
        "[dataset]\nobjects = eggg\n",
    ], ids=["nan-rate", "zero-rate", "ladder-qp", "downstream-qp", "feature-height",
            "train-fraction", "nan-plan", "inf-plan", "nonfinite-sum-plan", "negative-jobs",
            "repeated-ladder-step", "repeated-downstream-quality", "unknown-object"])
    def test_out_of_range_values_rejected_at_parse_time(self, text):
        with pytest.raises(FormatError):
            bench.parse_config(text)

    @pytest.mark.parametrize("text", [
        "[dataset]\nsample_rate_hz = 1e7\n",
        "[dataset]\nsample_rate_hz = 1e308\nplan_s = 1e10, 0, 0, 0, 0\n",
        f"[dataset]\nsample_rate_hz = {MAX_FRAMES + 1}\nplan_s = 1, 0, 0, 0, 0\n",
        f"[downstream]\nfeature_height = {MAX_FRAMES + 1}\n",
    ], ids=["default-plan-at-10-mhz", "infinite-frames", "one-past-the-budget",
            "feature-height"])
    def test_more_frames_than_the_budget_rejected(self, text):
        with pytest.raises(FormatError, match=str(MAX_FRAMES)):
            bench.parse_config(text)

    @pytest.mark.parametrize("text, message", [
        ("[DEFAULT]\nreps = 2\n", r"\[DEFAULT\]: a config has no default section"),
        ("[run]\nquality_ladder.tlc1-lossy = 2, 300\n", r"qp must be in \[1, 64\], got 300"),
    ], ids=["default-section", "lossy-qp"])
    def test_config_rules_shared_with_other_parsers_give_their_message(self, text, message):
        with pytest.raises(FormatError, match=message):
            bench.parse_config(text)

    def test_the_frame_budget_binds_only_a_synthetic_corpus(self):
        plan = PhasePlan(1, 0, 0, 0, 0)
        assert bench.BenchConfig(sample_rate_hz=MAX_FRAMES, plan=plan).plan == plan
        ingest = bench.BenchConfig(dataset_kind="ingest", sample_rate_hz=1e7)
        assert ingest.sample_rate_hz == 1e7

    def test_requires_a_codec(self):
        with pytest.raises(ValueError):
            bench.BenchConfig(codecs=())

    @pytest.mark.parametrize("config", [bench.BenchConfig(), LOSSLESS, LOSSY, DOWNSTREAM],
                             ids=["default", "lossless", "lossy", "downstream"])
    def test_report_header_parses_back_to_the_config(self, config):
        assert bench.parse_config(ini_text(config)) == dataclasses.replace(config, jobs=0)

    def test_header_floats_keep_the_short_form_when_it_is_exact(self):
        items = dict(bench.BenchConfig(train_fraction=0.1234567, sample_rate_hz=100.0,
                                       plan=PhasePlan(0.1, 0.2, 1 / 3, 0.5, 2.0)
                                       ).resolved_items())
        assert items["downstream.train_fraction"] == "0.1234567"
        assert items["dataset.sample_rate_hz"] == "100"
        assert items["dataset.plan_s"] == "0.1,0.2,0.3333333333333333,0.5,2"

    @settings(max_examples=150, deadline=None)
    @given(st.builds(
        lambda plan_and_rate, **fields: bench.BenchConfig(
            plan=plan_and_rate[0], sample_rate_hz=plan_and_rate[1], **fields),
        plan_and_rate=PLANS_AND_RATES,
        dataset_kind=st.sampled_from(["synthetic", "ingest"]),
        objects=st.lists(st.sampled_from(OBJECT_NAMES), min_size=1, unique=True).map(tuple),
        poses=st.lists(st.sampled_from(GraspPose), unique=True).map(tuple),
        reps=st.integers(1, 0x10000),
        seed=st.integers(-2**63, 2**64),
        ingest_directory=PATHS,
        codecs=st.lists(CODEC_IDS, min_size=1, max_size=4).map(tuple),
        tile_height=st.integers(1, 10**6),
        jobs=st.integers(0, 8),
        codec_specs_path=PATHS,
        bd_pairs=st.lists(st.tuples(CODEC_IDS, CODEC_IDS), max_size=3).map(tuple),
        quality_ladders=st.dictionaries(CODEC_IDS, QUALITIES, max_size=3),
        classifiers=st.lists(st.sampled_from(ClassifierKind), max_size=4).map(tuple),
        downstream_codec=CODEC_IDS,
        downstream_qualities=QUALITIES,
        feature_height=st.integers(1, MAX_FRAMES),
        train_fraction=st.floats(0, 1, exclude_min=True, exclude_max=True),
        split_seed=st.integers(-2**63, 2**64),
        output_directory=PATHS,
    ))
    def test_any_valid_config_round_trips_through_its_header(self, config):
        assert bench.parse_config(ini_text(config)) == dataclasses.replace(config, jobs=0)

    @pytest.mark.parametrize("jobs, affinity, cpus, expected", [
        (3, {0}, 1, 3),
        (0, {0, 2, 5}, 8, 3),
        (0, None, 4, 4),
        (0, None, None, 1),
    ], ids=["jobs", "affinity", "cpu-count", "unknown"])
    def test_worker_count_is_jobs_or_the_usable_cpus(self, jobs, affinity, cpus, expected,
                                                    monkeypatch):
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: affinity, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert bench.BenchConfig(jobs=jobs).worker_count() == expected

    def test_module_docstring_example_parses(self):
        lines = bench.__doc__.split("::\n", 1)[1].splitlines()
        example = itertools.takewhile(lambda line: not line or line.startswith(" "), lines)
        config = bench.parse_config(textwrap.dedent("\n".join(example)))
        assert config.objects == ("apple", "egg")
        assert config.codecs == ("tlc1", "gzip", "hm-intra", "hm-scc")
        assert config.quality_ladders == {"tlc1-lossy": (2, 4, 8, 16, 32, 64)}
        assert config.output_directory == "bench-out"


class TestCorpus:
    def test_synthetic_corpus_shape_and_determinism(self):
        config = bench.BenchConfig(**SMALL)
        a = bench.build_corpus(config)
        b = bench.build_corpus(config)
        assert len(a) == 2 * 2 * 2
        assert all(x == y for x, y in zip(a, b))

    def test_ingest_corpus(self, tmp_path):
        config = bench.BenchConfig(**SMALL)
        for i, trace in enumerate(bench.build_corpus(config)):
            save_trace(trace, tmp_path / f"t{i}.mptd")
        ingest = bench.BenchConfig(
            dataset_kind="ingest", ingest_directory=str(tmp_path), codecs=("tlc1",)
        )
        corpus = bench.build_corpus(ingest)
        assert len(corpus) == 8

    def test_empty_ingest_directory_rejected(self, tmp_path):
        config = bench.BenchConfig(
            dataset_kind="ingest", ingest_directory=str(tmp_path), codecs=("tlc1",)
        )
        with pytest.raises(FormatError, match="no .mptd"):
            bench.build_corpus(config)


class TestLosslessSuite:
    def test_complete_object_pose_table(self, small_lossless_report):
        _, report = small_lossless_report
        combos = {(c["object"], c["pose"], c["codec"]) for c in report.cells}
        assert combos == {
            (obj, pose, "tlc1")
            for obj in ("egg", "apple")
            for pose in ("pinch", "cylindrical")
        }

    def test_cr_is_8_over_bpss_for_every_row(self, small_lossless_report):
        _, report = small_lossless_report
        for cell in report.cells:
            assert cell["cr"] == pytest.approx(8.0 / cell["bpss"], rel=1e-12)

    def test_marginals_recompute_from_cells(self, tmp_path, small_lossless_report):
        _, report = small_lossless_report
        _, table = bench.write_lossless_report(report, tmp_path)
        lines = [l for l in table.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "kind,name,tlc1"
        rows = {tuple(line.split(",")[:2]): float(line.split(",")[2]) for line in lines[1:]}
        assert set(rows) == {("object", "apple"), ("object", "egg"), ("pose", "cylindrical"),
                             ("pose", "pinch"), ("average", "bpss"), ("average", "cr")}
        for (key, name), value in rows.items():
            match = {} if key == "average" else {key: name}
            expected = mean_bpss(report.cells, "tlc1", **match)
            if name == "cr":
                expected = 8.0 / expected
            assert value == pytest.approx(expected, rel=1e-5)

    def test_bits_conserved_across_tiles(self, small_lossless_report):
        config, report = small_lossless_report
        expected = 0
        for trace in bench.build_corpus(config):
            for start, stop in tile_ranges(trace.frame_count, config.tile_height):
                tile = trace_to_image(trace, (start, stop))
                expected += codec.encode_lossless(tile).payload_bits
        assert sum(c["bits"] for c in report.cells) == expected

    def test_difficulty_ordering(self, small_lossless_report):
        _, report = small_lossless_report
        cells = report.cells
        assert mean_bpss(cells, "tlc1", object="egg") < mean_bpss(cells, "tlc1", object="apple")
        assert (mean_bpss(cells, "tlc1", pose="pinch")
                <= mean_bpss(cells, "tlc1", pose="cylindrical"))

    def test_byte_identical_reports(self, tmp_path, small_lossless_report):
        config, _ = small_lossless_report
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        bench.write_lossless_report(bench.run_lossless_suite(config), out_a)
        bench.write_lossless_report(bench.run_lossless_suite(config), out_b)
        for name in ("lossless_cells.csv", "lossless_table.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    @pytest.mark.skipif(not GZIP_AVAILABLE, reason="gzip not installed")
    def test_external_codec_joins_the_table(self):
        config = bench.BenchConfig(
            **{**SMALL, "reps": 1}, codecs=("tlc1", "gzip"), tile_height=64
        )
        report = bench.run_lossless_suite(config)
        assert codecs_of(report) == {"tlc1", "gzip"}
        assert not report.skipped

    def test_unavailable_codec_is_skipped(self, tmp_path):
        spec_file = tmp_path / "codecs.spec"
        spec_file.write_text(
            "[ghost]\nkind = lossless\nio_format = raw\n"
            "encode = no-such-tool-xyz {input} > {output}\n"
            "decode = no-such-tool-xyz -d {input} > {output}\n"
        )
        config = bench.BenchConfig(
            **{**SMALL, "reps": 1},
            codecs=("tlc1", "ghost"),
            codec_specs_path=str(spec_file),
        )
        report = bench.run_lossless_suite(config)
        assert [s.codec_id for s in report.skipped] == ["ghost"]
        assert codecs_of(report) == {"tlc1"}


class TestLossySuite:
    @pytest.fixture(scope="class")
    def lossy_report(self):
        config = bench.BenchConfig(
            **{**SMALL, "objects": ("orange",), "poses": (GraspPose.TRIPOD,)},
            codecs=("tlc1-lossy",),
            bd_pairs=(("tlc1-lossy", "tlc1-lossy"),),
        )
        return bench.run_lossy_suite(config)

    def test_monotone_rd_curve(self, lossy_report):
        curve = lossy_report.rd_curves["tlc1-lossy"]
        rates = [p.bpss for p in curve.points]
        psnrs = [p.psnr_db for p in curve.points]
        assert rates == sorted(rates)
        assert all(b > a for a, b in zip(rates, rates[1:]))
        assert psnrs == sorted(psnrs)

    def test_self_pair_bd_rate_is_zero(self, lossy_report):
        psnr_rows = [r for r in lossy_report.bd_rows if r["metric"] == "psnr"]
        assert len(psnr_rows) == 1
        assert psnr_rows[0]["bd_rate_percent"] == pytest.approx(0.0, abs=1e-9)

    def test_rejected_metric_variants_are_recorded_not_fatal(self, lossy_report):
        for row in lossy_report.bd_rows:
            assert (row["bd_rate_percent"] is None) == bool(row["note"])

    def test_report_files(self, tmp_path, lossy_report):
        paths = bench.write_lossy_report(lossy_report, tmp_path)
        names = {p.name for p in paths}
        assert "rd_points.csv" in names
        assert "rd_curve_tlc1-lossy.csv" in names
        assert "bdrate.csv" in names

    def test_equal_rate_points_dropped_from_the_curve_are_named(self, monkeypatch):
        # qualities 8, 32 and 64 all code at qp 8, so they share one rate
        entry = bench.TLC1_CODECS["tlc1-lossy"]
        monkeypatch.setitem(bench.TLC1_CODECS, "tlc1-lossy", dataclasses.replace(
            entry, code=lambda tile, quality: entry.code(tile, min(quality, 8))))
        report = bench.run_lossy_suite(LOSSY)
        assert [c["quality"] for c in report.cells] == [2, 8, 32, 64]
        assert len(report.rd_curves["tlc1-lossy"].points) == 2
        assert len(report.bd_rows) == 2
        for row in report.bd_rows:
            assert row["note"].startswith(
                "dropped equal-rate points tlc1-lossy@32 tlc1-lossy@64")

    @pytest.mark.parametrize("codecs,pair,stray", [
        (("tlc1-lossy",), ("tlc1-lossy", "hm-scc"), "hm-scc"),
        (("tlc1", "tlc1-lossy"), ("tlc1", "tlc1-lossy"), "tlc1"),
    ], ids=["not-requested", "lossless"])
    def test_bd_pair_outside_the_lossy_run_rejected_before_coding(self, codecs, pair, stray,
                                                                   monkeypatch):
        def fail(*_args, **_kwargs):
            raise AssertionError("the corpus was built or coded before the BD pairs were checked")

        monkeypatch.setattr(bench, "build_corpus", fail)
        monkeypatch.setattr(bench.CodecRunner, "run_trace", fail)
        config = dataclasses.replace(LOSSY, codecs=codecs, bd_pairs=(pair,))
        with pytest.raises(FormatError, match=fr"BD pair codecs \['{stray}'\] are not lossy"):
            bench.run_lossy_suite(config)

    def test_bd_pair_with_an_unavailable_codec_is_noted_not_fatal(self, tmp_path):
        spec_file = tmp_path / "codecs.spec"
        spec_file.write_text(
            "[ghost]\nkind = lossy\nio_format = ppm\nquality_ladder = 10, 20, 30, 40\n"
            "encode = no-such-tool-xyz {quality} {input} {output}\n"
            "decode = no-such-tool-xyz -d {input} {output}\n"
        )
        config = dataclasses.replace(
            LOSSY, codecs=("tlc1-lossy", "ghost"), codec_specs_path=str(spec_file),
            bd_pairs=(("ghost", "tlc1-lossy"), ("tlc1-lossy", "tlc1-lossy")))
        report = bench.run_lossy_suite(config)
        assert [s.codec_id for s in report.skipped] == ["ghost"]
        assert [(r["reference"], r["metric"], r["bd_rate_percent"], r["note"])
                for r in report.bd_rows[:2]] == [
            ("ghost", "psnr", None, "skipped: ghost unavailable"),
            ("ghost", "msssim", None, "skipped: ghost unavailable"),
        ]
        assert [r["reference"] for r in report.bd_rows[2:]] == ["tlc1-lossy"] * 2
        bdrate_csv = bench.write_lossy_report(report, tmp_path)[-1].read_text()
        assert "ghost,tlc1-lossy,psnr,,,skipped: ghost unavailable\n" in bdrate_csv


@pytest.mark.parametrize("suite, field", [
    (bench.run_lossless_suite, "codecs"),
    (bench.run_downstream_suite, "downstream_codec"),
], ids=["lossless", "downstream"])
def test_unknown_codec_rejected_before_the_corpus_is_built(suite, field, monkeypatch):
    def fail(*_args, **_kwargs):
        raise AssertionError("the corpus was built before the codec ids were resolved")

    monkeypatch.setattr(bench, "build_corpus", fail)
    value = ("tlc1", "no-such") if field == "codecs" else "no-such"
    config = dataclasses.replace(LOSSLESS, **{field: value})
    with pytest.raises(FormatError, match="codec 'no-such' not found"):
        suite(config)


@pytest.mark.parametrize("suite, codecs, kind", [
    (bench.run_lossless_suite, ("tlc1-lossy", "hm-scc"), "lossless"),
    (bench.run_lossy_suite, ("tlc1", "gzip"), "lossy"),
], ids=["lossless", "lossy"])
def test_request_with_no_codec_of_the_suite_kind_rejected_before_probing(suite, codecs, kind,
                                                                         monkeypatch):
    def fail(*_args, **_kwargs):
        raise AssertionError("a codec was probed or the corpus was built")

    monkeypatch.setattr(bench, "build_corpus", fail)
    monkeypatch.setattr(bench, "probe", fail)
    config = dataclasses.replace(LOSSLESS, codecs=codecs)
    with pytest.raises(FormatError, match=f"no {kind} codec among {', '.join(codecs)}"):
        suite(config)


@pytest.mark.parametrize("suite, spec", [
    (bench.run_lossless_suite, "[ghost]\nkind = lossless\nio_format = raw\n"
     "encode = no-such-tool-xyz {input} > {output}\n"
     "decode = no-such-tool-xyz -d {input} > {output}\n"),
    (bench.run_lossy_suite, "[ghost]\nkind = lossy\nio_format = ppm\nquality_ladder = 10, 20\n"
     "encode = no-such-tool-xyz {quality} {input} {output}\n"
     "decode = no-such-tool-xyz -d {input} {output}\n"),
], ids=["lossless", "lossy"])
def test_suite_whose_every_codec_failed_its_probe_raises_unavailable(suite, spec, tmp_path,
                                                                    monkeypatch):
    def fail(*_args, **_kwargs):
        raise AssertionError("the corpus was built for a run with no available codec")

    monkeypatch.setattr(bench, "build_corpus", fail)
    spec_file = tmp_path / "codecs.spec"
    spec_file.write_text(spec)
    config = dataclasses.replace(LOSSLESS, codecs=("ghost",), codec_specs_path=str(spec_file))
    with pytest.raises(CodecUnavailableError, match="ghost .*no-such-tool-xyz"):
        suite(config)


def test_codec_table_rejects_a_built_in_codec_id(tmp_path):
    spec_file = tmp_path / "codecs.spec"
    spec_file.write_text("[tlc1]\nkind = lossy\nquality_ladder = 1, 2\n"
                         "encode = a {quality} {input} {output}\n"
                         "decode = b {input} {output}\n")
    with pytest.raises(FormatError, match=r"\[tlc1\].*built in"):
        bench.codec_table(spec_file)


@pytest.mark.skipif(not GZIP_AVAILABLE, reason="gzip not installed")
def test_probe_codecs_and_the_lossless_suite_agree_on_every_status(tmp_path, capsys):
    corrupting = tmp_path / "corrupting-decoder"
    corrupting.write_text("#!/bin/sh\ntr '\\000' '\\001' < \"$1\" > \"$2\"\n")
    corrupting.chmod(0o755)
    spec_file = tmp_path / "codecs.spec"
    spec_file.write_text(
        "[gzip]\nio_format = raw\nencode = gzip -c {input} > {output}\n"
        "decode = gzip -dc {input} > {output}\n"
        "[ghost]\nio_format = raw\nencode = no-such-tool-xyz {input} > {output}\n"
        "decode = no-such-tool-xyz -d {input} > {output}\n"
        "[corrupt]\nio_format = raw\nencode = cp {input} {output}\n"
        f"decode = {corrupting} {{input}} {{output}}\n")
    codecs = ("tlc1", "gzip", "ghost", "corrupt")
    assert cli.main(["probe-codecs", "--specs", str(spec_file), "--codecs", ",".join(codecs)]) == 0
    listed = {row.split()[0]: row.split()[2] for row in capsys.readouterr().out.splitlines()[1:]}
    assert listed == {"tlc1": "available", "gzip": "available", "ghost": "unavailable",
                      "corrupt": "degraded"}
    config = bench.BenchConfig(**{**SMALL, "reps": 1, "poses": (GraspPose.PINCH,)},
                               codecs=codecs, codec_specs_path=str(spec_file))
    report = bench.run_lossless_suite(config)
    assert {s.codec_id: s.status.value for s in report.skipped} == {
        cid: status for cid, status in listed.items() if status != "available"}
    assert codecs_of(report) == {"tlc1", "gzip"}


def test_downstream_codes_every_quality_in_one_pool_call(monkeypatch):
    calls = []

    def counted(items, worker, jobs):
        results = parallel(items, worker, jobs)
        calls.append((len(items), any(isinstance(r, bench.TraceResult) for r in results)))
        return results

    parallel = bench._parallel_results
    monkeypatch.setattr(bench, "_parallel_results", counted)
    report = bench.run_downstream_suite(DOWNSTREAM)
    traces = len(DOWNSTREAM.objects) * len(DOWNSTREAM.poses) * DOWNSTREAM.reps
    # one call for both qualities, returning rates and features, not reconstructions
    assert calls == [(2 * traces, False)]
    assert len(report.accuracy_rows) == 3


class TestWorkerPool:
    def test_golden_reports_are_identical_with_two_workers(self, tmp_path):
        two = {name: dataclasses.replace(config, jobs=2)
               for name, config in (("lossless", LOSSLESS), ("lossy", LOSSY),
                                    ("downstream", DOWNSTREAM))}
        paths = bench.write_lossless_report(bench.run_lossless_suite(two["lossless"]), tmp_path)
        paths += bench.write_lossy_report(bench.run_lossy_suite(two["lossy"]), tmp_path)
        paths += bench.write_downstream_report(
            bench.run_downstream_suite(two["downstream"]), tmp_path)
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in paths} == REPORT_DIGESTS
        assert multiprocessing.active_children() == []

    def test_results_come_back_in_order_as_read_only_images(self):
        images = [TactileImage(np.full((2, 3, 3), i, np.uint8)) for i in range(5)]
        back = bench._parallel_results(images, lambda image: image, 2)
        assert back == images
        assert not any(image.pixels.flags.writeable for image in back)

    def test_codec_error_in_a_worker_reaches_the_caller_and_the_exit_code(
            self, tmp_path, monkeypatch, capsys):
        def code(_tile, _quality):
            raise CodecIntegrityError(f"stub failed in process {os.getpid()}")

        monkeypatch.setitem(bench.TLC1_CODECS, "tlc1",
                            bench.CodecEntry(CodecKind.LOSSLESS, (), code))
        config = dataclasses.replace(LOSSLESS, jobs=2, output_directory=str(tmp_path / "out"))
        with pytest.raises(CodecIntegrityError, match="stub failed in process") as caught:
            bench.run_lossless_suite(config)
        assert str(caught.value) != f"stub failed in process {os.getpid()}"
        assert multiprocessing.active_children() == []

        ini = tmp_path / "bench.ini"
        ini.write_text(ini_text(config))
        assert cli.main(["--config", str(ini), "--jobs", "2", "bench-lossless"]) == 3
        assert "stub failed in process" in capsys.readouterr().err
        assert multiprocessing.active_children() == []


class TestShortTiles:
    # 20 frames in 16-row tiles: a 4-row tail, below the 11-row MS-SSIM window
    TAIL = dict(objects=("egg",), poses=(GraspPose.PINCH,), reps=1, seed=1,
                plan=PhasePlan(0.02, 0.05, 0.03, 0.08, 0.02), codecs=("tlc1-lossy",),
                tile_height=16, jobs=1)

    def test_tail_tile_is_scored_on_the_last_window_rows(self):
        (trace,) = bench.build_corpus(bench.BenchConfig(**self.TAIL))
        assert trace.frame_count == 20
        runner = bench.CodecRunner(bench.TLC1_CODECS, 16)
        result = runner.run_trace(trace, "tlc1-lossy", 64, keep_recon=True)
        source, recon = trace_to_image(trace).pixels, result.recon.pixels
        tail = slice(-MSSSIM_WINDOW, None)
        expected = (
            ms_ssim(TactileImage(source[:16]), TactileImage(recon[:16])) * 16
            + ms_ssim(TactileImage(source[tail]), TactileImage(recon[tail])) * 4
        ) / 20
        assert result.msssim_weighted / result.sub_samples == pytest.approx(expected)

    def test_lossy_suite_completes_with_a_tail_tile(self):
        config = bench.BenchConfig(**self.TAIL, quality_ladders={"tlc1-lossy": (8, 64)})
        report = bench.run_lossy_suite(config)
        assert [c["quality"] for c in report.cells] == [8, 64]
        assert all(0 < c["msssim"] <= 1 for c in report.cells)

    @pytest.mark.parametrize("change", [
        {"plan": PhasePlan(0.02, 0.02, 0.02, 0.02, 0.02)},  # a 10-frame trace
        {"tile_height": 10},
    ], ids=["trace", "tile_height"])
    def test_rows_below_the_window_rejected_before_coding(self, change, monkeypatch):
        monkeypatch.setattr(bench.CodecRunner, "run_trace", None)
        config = bench.BenchConfig(**{**self.TAIL, **change})
        with pytest.raises(FormatError, match="of 11 rows, not 10"):
            bench.run_lossy_suite(config)


class TestDownstreamSuite:
    @pytest.fixture(scope="class")
    def downstream_report(self):
        config = bench.BenchConfig(
            objects=("egg", "apple", "water bottle", "potato"),
            poses=(GraspPose.PINCH, GraspPose.SPHERICAL),
            reps=10,
            plan=PhasePlan(0.1, 0.08, 0.04, 0.25, 0.03),
            jobs=2,
            classifiers=(ClassifierKind.KNN, ClassifierKind.SOFTMAX_REGRESSION),
            downstream_qualities=(8, 64),
            feature_height=8,
        )
        return bench.run_downstream_suite(config)

    def test_row_structure_and_ordering(self, downstream_report):
        rows = downstream_report.accuracy_rows
        assert rows[0]["source"] == "raw"
        assert rows[0]["bpss"] == 8.0
        rates = [r["bpss"] for r in rows]
        assert rates == sorted(rates, reverse=True)
        for row in rows:
            assert "knn" in row and "softmax" in row

    def test_compression_robustness_direction(self, downstream_report):
        rows = {r["source"]: r for r in downstream_report.accuracy_rows}
        raw = rows["raw"]
        qp64 = rows["tlc1-lossy@64"]
        qp8 = rows["tlc1-lossy@8"]
        for clf in ("knn", "softmax"):
            assert raw[clf] >= qp64[clf]
            assert raw[clf] - qp8[clf] <= 0.05

    def test_report_file_shape(self, tmp_path, downstream_report):
        (path,) = bench.write_downstream_report(downstream_report, tmp_path)
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "source,quality,bpss,knn,softmax"
        assert len(lines) == 1 + 3
