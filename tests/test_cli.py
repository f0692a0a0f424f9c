"""The CLI's exit-code contract: 0 success, 1 usage, 2 data, 3 codec error."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from taccompress import bench, cli

GZIP_AVAILABLE = shutil.which("gzip") is not None

# Two objects, one pose, tiny traces: each bench subcommand takes seconds.
DATASET = """
[dataset]
objects = egg, apple
poses = pinch
reps = {reps}
seed = 1
plan_s = {plan}
"""
TWELVE_FRAMES = "0.02, 0.03, 0.02, 0.03, 0.02"
TWO_FRAMES = "0, 0.01, 0.01, 0, 0"

GHOST_SPEC = """
[ghost]
kind = lossy
io_format = raw
quality_ladder = 1
encode = no-such-tool-xyz {input} {quality} > {output}
decode = no-such-tool-xyz -d {input} > {output}
"""


def write_config(tmp_path, text, reps=1, plan=TWELVE_FRAMES):
    path = tmp_path / "bench.ini"
    out = tmp_path / "out"
    path.write_text(DATASET.format(reps=reps, plan=plan) + text
                    + f"\n[output]\ndirectory = {out}\n")
    return str(path)


def downstream_config(tmp_path, codec, extra=""):
    return write_config(
        tmp_path,
        f"[run]\ncodecs = tlc1\n{extra}\n[downstream]\nclassifiers = softmax\n"
        f"codec = {codec}\nqualities = 64\nfeature_height = 2\ntrain_fraction = 0.5\n",
        reps=2, plan=TWO_FRAMES,
    )


def test_simulate_compress_decompress_metrics_round_trip(tmp_path, capsys):
    assert cli.main(["--seed", "1", "--out", str(tmp_path), "simulate", "--objects", "egg",
                     "--poses", "pinch", "--plan", TWELVE_FRAMES.replace(" ", "")]) == 0
    trace = tmp_path / "egg_pinch_0.mptd"
    blob = tmp_path / "egg.tlc1"
    back = tmp_path / "egg.ppm"
    assert cli.main(["compress", str(trace), str(blob)]) == 0
    assert cli.main(["decompress", str(blob), str(back)]) == 0
    capsys.readouterr()
    assert cli.main(["metrics", str(trace), str(back)]) == 0
    assert "ms_ssim = 1\n" in capsys.readouterr().out


def test_simulate_seed_defaults_to_the_bench_seed(tmp_path):
    runs = {}
    for name, seed_args in (("default", []), ("seed0", ["--seed", "0"])):
        out = tmp_path / name
        assert cli.main([*seed_args, "--out", str(out), "simulate", "--objects", "egg",
                         "--poses", "pinch", "--plan", TWO_FRAMES.replace(" ", "")]) == 0
        runs[name] = (out / "egg_pinch_0.mptd").read_bytes()
    assert runs["default"] == runs["seed0"]


def test_compress_qp_0_exits_2_and_writes_no_blob(tmp_path, capsys):
    assert cli.main(["--out", str(tmp_path), "simulate", "--objects", "egg", "--poses",
                     "pinch", "--plan", TWO_FRAMES.replace(" ", "")]) == 0
    blob = tmp_path / "egg.tlc1"
    assert cli.main(["compress", str(tmp_path / "egg_pinch_0.mptd"), str(blob),
                     "--qp", "0"]) == 2
    assert "qp must be in [1, 64], got 0" in capsys.readouterr().err
    assert not blob.exists()


@pytest.mark.parametrize("plan, reps", [
    ("0.01,0.02", "1"),
    ("0.01,0.01,0.01,0.01,0.01,0.01", "1"),
    (TWO_FRAMES.replace(" ", ""), "0"),
    (TWO_FRAMES.replace(" ", ""), "65537"),
], ids=["two-durations", "six-durations", "zero-reps", "reps-past-u16"])
def test_bad_simulate_plan_or_reps_exits_2(tmp_path, plan, reps):
    assert cli.main(["--out", str(tmp_path), "simulate", "--objects", "egg", "--poses",
                     "pinch", "--plan", plan, "--reps", reps]) == 2
    assert not any(tmp_path.iterdir())


def test_convert_mptd_to_ppm_and_back_gives_the_same_bytes(tmp_path):
    assert cli.main(["--out", str(tmp_path), "simulate", "--objects", "egg", "--poses",
                     "pinch", "--plan", TWELVE_FRAMES.replace(" ", "")]) == 0
    trace = tmp_path / "egg_pinch_0.mptd"
    image = tmp_path / "egg.ppm"
    back = tmp_path / "back.mptd"
    assert cli.main(["convert", str(trace), str(image)]) == 0
    assert cli.main(["convert", str(image), str(back), "--object", "egg"]) == 0
    assert back.read_bytes() == trace.read_bytes()


@pytest.fixture
def rd_curve(tmp_path):
    run = "[run]\ncodecs = tlc1-lossy\nquality_ladder.tlc1-lossy = 2, 8, 32, 64\n"
    assert cli.main(["--config", write_config(tmp_path, run), "bench-lossy"]) == 0
    return tmp_path / "out" / "rd_curve_tlc1-lossy.csv"


def test_bdrate_of_a_suite_curve_against_itself_exits_0(tmp_path, rd_curve, capsys):
    copy = tmp_path / "copy.csv"
    copy.write_bytes(rd_curve.read_bytes())
    capsys.readouterr()
    assert cli.main(["bdrate", str(rd_curve), str(copy)]) == 0
    assert capsys.readouterr().out.startswith("bd_rate_percent = ")


@pytest.mark.parametrize("text", ["", "# only a comment\n", "bpss,psnr_db,ms_ssim\n0.5,30\n"],
                         ids=["empty", "comment-only", "short-row"])
def test_malformed_bdrate_csv_exits_2(tmp_path, text):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    good = tmp_path / "good.csv"
    good.write_text("bpss,psnr_db,ms_ssim\n" + "".join(
        f"{r},{30 + r},0.9{r}\n" for r in range(1, 5)))
    assert cli.main(["bdrate", str(bad), str(good)]) == 2
    assert cli.main(["bdrate", str(good), str(bad)]) == 2


@pytest.mark.parametrize("rate", ["nan", "inf"])
def test_non_finite_bdrate_rate_exits_2(tmp_path, rate):
    rows = "".join(f"{r},{30 + r},0.9{r}\n" for r in range(1, 5))
    good = tmp_path / "good.csv"
    good.write_text("bpss,psnr_db,ms_ssim\n" + rows)
    bad = tmp_path / "bad.csv"
    bad.write_text("bpss,psnr_db,ms_ssim\n" + rows + f"{rate},40,0.99\n")
    assert cli.main(["bdrate", str(good), str(bad)]) == 2


def test_cluster_exits_0_and_writes_the_embedding(tmp_path):
    config = downstream_config(tmp_path, "tlc1-lossy")
    assert cli.main(["--config", config, "cluster", "--perplexity", "1"]) == 0
    lines = (tmp_path / "out" / "cluster_embedding.csv").read_text().splitlines()
    assert [l for l in lines if not l.startswith("#")][0] == "label,x,y,cluster"


def test_probe_codecs_exits_0_and_lists_gzip(capsys):
    assert cli.main(["probe-codecs"]) == 0
    assert any(line.split()[0] == "gzip" for line in capsys.readouterr().out.splitlines())


def test_probe_codecs_lists_the_built_in_codecs(capsys):
    assert cli.main(["probe-codecs", "--codecs", "tlc1-lossy,tlc1"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows == [["tlc1-lossy", "lossy", "available"], ["tlc1", "lossless", "available"]]


def test_probe_codecs_splits_ids_as_run_codecs_does(capsys):
    assert cli.main(["probe-codecs", "--codecs", "tlc1, tlc1-lossy"]) == 0
    rows = [line.split()[0] for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows == ["tlc1", "tlc1-lossy"]


def test_probe_codecs_with_an_unknown_id_exits_2(capsys):
    assert cli.main(["probe-codecs", "--codecs", "tlc1,nosuch"]) == 2
    captured = capsys.readouterr()
    assert "nosuch" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command, codecs, kind", [
    ("bench-lossy", "tlc1", "lossy"),
    ("bench-lossless", "tlc1-lossy", "lossless"),
], ids=["lossy", "lossless"])
def test_bench_suite_with_no_codec_of_its_kind_exits_2(tmp_path, capsys, command, codecs, kind):
    config = write_config(tmp_path, f"[run]\ncodecs = {codecs}\n")
    assert cli.main(["--config", config, command]) == 2
    assert f"data error: no {kind} codec among {codecs}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, run", [
    ("bench-lossless", "[run]\ncodecs = tlc1\ntile_height = 8\n"),
    ("bench-lossy", "[run]\ncodecs = tlc1-lossy\nquality_ladder.tlc1-lossy = 8, 64\n"),
], ids=["lossless", "lossy"])
def test_bench_suites_exit_0(tmp_path, command, run):
    assert cli.main(["--config", write_config(tmp_path, run), command]) == 0
    assert any((tmp_path / "out").glob("*.csv"))


def test_bench_downstream_exits_0(tmp_path):
    config = downstream_config(tmp_path, "tlc1-lossy")
    assert cli.main(["--config", config, "bench-downstream"]) == 0
    assert (tmp_path / "out" / "downstream_accuracy.csv").exists()


@pytest.mark.skipif(not GZIP_AVAILABLE, reason="gzip not installed")
def test_downstream_codec_outside_the_run_codecs_exits_0(tmp_path):
    config = downstream_config(tmp_path, "gzip")
    assert cli.main(["--config", config, "bench-downstream"]) == 0
    text = (tmp_path / "out" / "downstream_accuracy.csv").read_text()
    assert "\ngzip@64,64," in text


def test_malformed_codec_spec_file_exits_2_before_any_trace_is_built(tmp_path, capsys,
                                                                      monkeypatch):
    def fail(*_args, **_kwargs):
        raise AssertionError("a trace was built before the codec spec file was checked")

    monkeypatch.setattr(bench, "iter_corpus", fail)
    specs = tmp_path / "codecs.spec"
    specs.write_text("[broken]\nencode = gzip -c > {output}\ndecode = gzip -dc {input} > {output}\n")
    config = write_config(tmp_path, f"[run]\ncodecs = tlc1\ncodec_specs = {specs}\n")
    assert cli.main(["--config", config, "bench-lossless"]) == 2
    assert "[broken]: encode template missing {input}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["convert", "decompress"])
@pytest.mark.parametrize("rate", ["inf", "nan", "0"])
def test_non_finite_or_non_positive_trace_rate_exits_2_and_writes_no_file(tmp_path, capsys,
                                                                          command, rate):
    assert cli.main(["--out", str(tmp_path), "simulate", "--objects", "egg", "--poses",
                     "pinch", "--plan", TWO_FRAMES.replace(" ", "")]) == 0
    trace = str(tmp_path / "egg_pinch_0.mptd")
    source = tmp_path / ("egg.tlc1" if command == "decompress" else "egg.ppm")
    assert cli.main(["compress" if command == "decompress" else "convert", trace,
                     str(source)]) == 0
    out = tmp_path / "back.mptd"
    capsys.readouterr()
    assert cli.main([command, str(source), str(out), "--rate", rate]) == 2
    assert "sample_rate_hz must be finite and > 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["convert", "decompress"])
def test_repetition_past_the_mptd_u16_exits_2_and_writes_no_file(tmp_path, capsys, command):
    assert cli.main(["--out", str(tmp_path), "simulate", "--objects", "egg", "--poses",
                     "pinch", "--plan", TWO_FRAMES.replace(" ", "")]) == 0
    trace = str(tmp_path / "egg_pinch_0.mptd")
    source = tmp_path / ("egg.tlc1" if command == "decompress" else "egg.ppm")
    assert cli.main(["compress" if command == "decompress" else "convert", trace,
                     str(source)]) == 0
    out = tmp_path / "back.mptd"
    capsys.readouterr()
    assert cli.main([command, str(source), str(out), "--rep", "70000"]) == 2
    err = capsys.readouterr().err
    assert "repetition_id must be in [0, 65535]" in err
    assert "Traceback" not in err
    assert not out.exists()


# A child CLI process gets this much address space, so that an allocation the
# frame budget should have refused fails in the child, not on the machine.
ADDRESS_SPACE = 1 << 30
CAPPED_CLI = f"""
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_SPACE}, {ADDRESS_SPACE}))
from taccompress import cli
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
@pytest.mark.parametrize("argv", [
    ["simulate", "--objects", "egg", "--poses", "pinch", "--rate", "1e7"],
    ["simulate", "--objects", "egg", "--poses", "pinch", "--rate", "1e308",
     "--plan", "1e10,0,0,0,0"],
    ["bench-downstream"],
], ids=["default-plan-at-10-mhz", "infinite-frames", "feature-height-1e9"])
def test_more_frames_than_the_budget_exits_2_before_allocating(tmp_path, argv):
    config = write_config(tmp_path, "[run]\ncodecs = tlc1\n[downstream]\nclassifiers = knn\n"
                          "qualities = 64\nfeature_height = 1000000000\n",
                          reps=2, plan=TWO_FRAMES)
    out = tmp_path / "out"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", CAPPED_CLI, "--config", config,
                           "--out", str(out), *argv],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert not out.exists()


@pytest.mark.parametrize("rate", ["-5", "nan", "inf"])
def test_metrics_with_a_bad_rate_exits_2(tmp_path, capsys, rate):
    assert cli.main(["--out", str(tmp_path), "simulate", "--objects", "egg", "--poses",
                     "pinch", "--plan", TWELVE_FRAMES.replace(" ", "")]) == 0
    trace = str(tmp_path / "egg_pinch_0.mptd")
    capsys.readouterr()
    assert cli.main(["metrics", trace, trace, "--bits", "100", "--rate", rate]) == 2
    captured = capsys.readouterr()
    assert "sample rate must be finite and > 0" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("perplexity", ["nan", "0", "-1"])
def test_cluster_with_a_perplexity_outside_its_bound_exits_2(tmp_path, capsys, perplexity):
    config = downstream_config(tmp_path, "tlc1-lossy")
    assert cli.main(["--config", config, "cluster", "--perplexity", perplexity]) == 2
    assert "perplexity" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["frobnicate"], ["classify"]])
def test_unknown_subcommand_exits_1(argv):
    assert cli.main(argv) == 1


def test_blob_with_four_channels_exits_2(tmp_path):
    trace = tmp_path / "egg_pinch_0.mptd"
    blob = tmp_path / "egg.tlc1"
    cli.main(["--out", str(tmp_path), "simulate", "--objects", "egg", "--poses", "pinch",
              "--plan", "0,0.01,0.01,0,0"])
    assert cli.main(["compress", str(trace), str(blob)]) == 0
    data = bytearray(blob.read_bytes())
    data[15] = 4  # channels: after magic(4), version/mode/qp(3), dims(8)
    blob.write_bytes(bytes(data))
    assert cli.main(["decompress", str(blob), str(tmp_path / "out.ppm")]) == 2


@pytest.mark.parametrize("text", ["no section header\n", "[dataset]\nposes = fist\n",
                                  "[run]\ncodec = gzip\n", "[dataset]\nreps = two\n"],
                         ids=["no-section", "bad-pose", "unknown-key", "bad-int"])
def test_malformed_config_exits_2(tmp_path, text):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert cli.main(["--config", str(path), "bench-lossless"]) == 2


def test_unavailable_downstream_codec_exits_3(tmp_path, capsys):
    specs = tmp_path / "codecs.spec"
    specs.write_text(GHOST_SPEC)
    config = downstream_config(tmp_path, "ghost", extra=f"codec_specs = {specs}\n")
    assert cli.main(["--config", config, "bench-downstream"]) == 3
    assert "no-such-tool-xyz" in capsys.readouterr().err
