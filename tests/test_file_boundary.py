"""The file boundary: only ``taccompress._files`` opens files, and what it
reads and writes behaves the same for bytes, paths and streams."""

import ast
import io
import os
import stat
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from taccompress import bench, cli, codec
from taccompress.adapters import load_codec_specs
from taccompress.errors import FormatError
from taccompress.imaging import read_ppm, trace_to_image, write_ppm
from taccompress.layout import (
    FingerLayout,
    SensorLayout,
    SensorPosition,
    SensorSpec,
    default_layout,
)
from taccompress.trace import MPTD_MAGIC, GraspTrace, load_trace, save_trace

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "taccompress"
BOUNDARY = PACKAGE / "_files.py"
FILE_CALLS = {"open", "fdopen", "mkstemp",
              "read_text", "read_bytes", "write_text", "write_bytes"}


def file_calls(path: Path) -> list[str]:
    """``name:line`` of every call in ``path`` that opens, reads or writes a file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in FILE_CALLS:
                found.append(f"{path.name}:{node.lineno} {name}")
    return found


def test_only_the_boundary_module_touches_files():
    assert file_calls(BOUNDARY)  # the scan sees the calls it looks for
    strays = [call for path in sorted(PACKAGE.glob("*.py")) if path != BOUNDARY
              for call in file_calls(path)]
    assert strays == []


def oversized_tlc1() -> bytes:
    return codec.TLC1_MAGIC + struct.pack("<BBBIIBQ", 1, 0, 0, 1, 1, 3, 2**62)


def oversized_mptd() -> bytes:
    fingers, sensors, units = 32, 255, 0xFFFF
    frames = 0xFFFFFFFF
    assert frames * fingers * sensors * units * 3 >= 2**62
    finger = struct.pack("<B", sensors) + struct.pack("<BH", 0, units) * sensors
    return (MPTD_MAGIC + struct.pack("<HIBH", 1, 100_000, 0, 0) + b"\x00"
            + struct.pack("<B", fingers) + finger * fingers + struct.pack("<I", frames))


@pytest.mark.parametrize("parse, data", [(codec.read_blob, oversized_tlc1()),
                                         (load_trace, oversized_mptd())],
                         ids=["tlc1", "mptd"])
def test_oversized_length_read_from_a_stream_raises_format_error(parse, data):
    for source in (data, io.BufferedReader(io.BytesIO(data))):
        with pytest.raises(FormatError, match="truncated"):
            parse(source)


class FsPath:
    """An ``os.PathLike`` that is not a ``pathlib.Path``."""

    def __init__(self, path):
        self.path = str(path)

    def __fspath__(self):
        return self.path


def test_every_container_function_takes_any_pathlike(tmp_path):
    layout = SensorLayout((FingerLayout(0, (SensorSpec(SensorPosition.DISTAL, 2),)),))
    trace = GraspTrace(layout, np.arange(12, dtype=np.uint8).reshape(2, 2, 3),
                       object_label="egg")
    image = trace_to_image(trace)
    blob = codec.encode_lossless(image)
    save_trace(trace, FsPath(tmp_path / "t.mptd"))
    write_ppm(image, FsPath(tmp_path / "t.ppm"))
    codec.write_blob(blob, FsPath(tmp_path / "t.tlc1"))
    entries = {entry.name: entry for entry in os.scandir(tmp_path)}
    for name, read, expected in [("t.mptd", load_trace, trace), ("t.ppm", read_ppm, image),
                                 ("t.tlc1", codec.read_blob, blob)]:
        assert read(FsPath(tmp_path / name)) == expected
        assert read(entries[name]) == expected


@pytest.mark.parametrize("load", [bench.load_config, load_codec_specs],
                         ids=["config", "codec-specs"])
def test_a_text_file_that_is_not_utf8_raises_format_error(tmp_path, load):
    path = tmp_path / "not-utf8.ini"
    path.write_bytes(b"[dataset]\nobjects = \xff\n")
    with pytest.raises(FormatError, match="not UTF-8"):
        load(path)


REPORT = bench.BenchReport(
    header=[("tool", "taccompress")],
    cells=[{"object": "egg", "pose": "pinch", "codec": "tlc1", "traces": 1, "bits": 64,
            "bpss": 0.5, "cr": 16.0}],
)


def test_reports_get_the_mode_a_plain_open_gives(tmp_path):
    old = os.umask(0o022)
    try:
        paths = bench.write_lossless_report(REPORT, tmp_path)
    finally:
        os.umask(old)
    assert [stat.S_IMODE(p.stat().st_mode) for p in paths] == [0o644, 0o644]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_a_report_path_that_is_a_fifo_is_written_in_place(tmp_path):
    (expected,) = [p.read_bytes() for p in bench.write_lossless_report(REPORT, tmp_path / "a")
                   if p.name == "lossless_cells.csv"]
    fifo = tmp_path / "b" / "lossless_cells.csv"
    fifo.parent.mkdir()
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        bench.write_lossless_report(REPORT, fifo.parent)
        received = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert received == expected
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


def test_a_symlinked_path_is_written_through(tmp_path):
    target = tmp_path / "target.csv"
    target.write_bytes(b"old")
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "lossless_cells.csv").symlink_to(target)
    cells, _table = bench.write_lossless_report(REPORT, tmp_path / "out")
    assert cells.is_symlink()
    assert target.read_bytes().startswith(b"# tool = taccompress\n")


def test_reports_are_utf8_under_an_ascii_locale(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    layout = default_layout()
    frames = np.random.default_rng(0).integers(0, 256, (2, layout.total_units, 3), np.uint8)
    save_trace(GraspTrace(layout, frames, object_label="äpple"), corpus / "a.mptd")
    config = tmp_path / "bench.ini"
    config.write_text(f"[dataset]\nkind = ingest\ndirectory = {corpus}\n"
                      "[run]\ncodecs = tlc1\njobs = 1\n", encoding="utf-8")
    argv = ["--config", str(config), "--out", str(tmp_path / "out"), "bench-lossless"]
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "taccompress.cli", *argv], env=env,
                          capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr
    ascii_run = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    assert cli.main(argv) == 0
    utf8_run = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    assert ascii_run == utf8_run
    assert "äpple" in ascii_run["lossless_cells.csv"].decode("utf-8")
