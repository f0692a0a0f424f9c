import os
import shutil
import stat

import numpy as np
import pytest

from taccompress.adapters import (
    CODEC_PATH_ENV,
    CodecKind,
    CodecSpec,
    IOFormat,
    ProbeStatus,
    load_codec_specs,
    parse_codec_specs,
    probe,
    run_external,
)
from taccompress.errors import CodecIntegrityError, CodecRunError, FormatError
from taccompress.imaging import TactileImage

GZIP_AVAILABLE = shutil.which("gzip") is not None

GZIP_SPEC = CodecSpec(
    codec_id="gzip",
    kind=CodecKind.LOSSLESS,
    encode_template="gzip -c -9 {input} > {output}",
    decode_template="gzip -dc {input} > {output}",
    io_format=IOFormat.RAW_BYTES,
)


def constant_image(height=256, width=1140):
    return TactileImage(np.tile(np.array([128, 128, 0], np.uint8), (height, width, 1)))


def script_codec(tmp_path, name, encode_body, decode_body, io_format=IOFormat.RAW_BYTES):
    enc = tmp_path / f"{name}-enc"
    dec = tmp_path / f"{name}-dec"
    enc.write_text(f"#!/bin/sh\n{encode_body}\n")
    dec.write_text(f"#!/bin/sh\n{decode_body}\n")
    for p in (enc, dec):
        p.chmod(p.stat().st_mode | stat.S_IXUSR)
    return CodecSpec(
        codec_id=name,
        kind=CodecKind.LOSSLESS,
        encode_template=f"{enc} {{input}} {{output}}",
        decode_template=f"{dec} {{input}} {{output}}",
        io_format=io_format,
    )


class TestSpecValidation:
    def test_template_missing_placeholder_is_rejected(self):
        with pytest.raises(ValueError, match=r"encode template missing \{input\}"):
            CodecSpec(
                codec_id="broken",
                kind=CodecKind.LOSSLESS,
                encode_template="gzip -c {output}",
                decode_template="gzip -dc {input} > {output}",
            )

    def test_lossy_spec_requires_ladder_and_quality_placeholder(self):
        with pytest.raises(ValueError, match="quality"):
            CodecSpec(
                codec_id="x",
                kind=CodecKind.LOSSY,
                encode_template="enc {input} {output}",
                decode_template="dec {input} {output}",
                quality_ladder=(1, 2, 3, 4),
            )
        with pytest.raises(ValueError, match="ladder"):
            CodecSpec(
                codec_id="x",
                kind=CodecKind.LOSSY,
                encode_template="enc -q {quality} {input} {output}",
                decode_template="dec {input} {output}",
            )

    def test_repeated_ladder_step_is_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            CodecSpec(
                codec_id="twice",
                kind=CodecKind.LOSSY,
                encode_template="gzip -c {input} > {output} # {quality}",
                decode_template="gzip -dc {input} > {output}",
                quality_ladder=(8, 8, 16),
            )

    def test_missing_executable_is_unavailable(self):
        spec = CodecSpec(
            codec_id="ghost",
            kind=CodecKind.LOSSLESS,
            encode_template="no-such-codec-binary {input} {output}",
            decode_template="no-such-codec-binary -d {input} {output}",
        )
        result = probe(spec)
        assert result.status is ProbeStatus.UNAVAILABLE


class TestScriptedCodecs:
    def test_identity_codec_round_trips(self, tmp_path):
        spec = script_codec(tmp_path, "ident", 'cat "$1" > "$2"', 'cat "$1" > "$2"')
        assert probe(spec).status is ProbeStatus.AVAILABLE
        image = constant_image(8, 16)
        blob, recon = run_external(spec, image)
        assert recon == image
        assert blob.payload_bits == 8 * image.sample_count

    def test_corrupting_decoder_is_degraded(self, tmp_path):
        spec = script_codec(
            tmp_path, "corrupt", 'cat "$1" > "$2"',
            "tr '\\000' '\\001' < \"$1\" > \"$2\"",
        )
        result = probe(spec)
        assert result.status is ProbeStatus.DEGRADED

    def test_lossless_mismatch_raises_integrity_error(self, tmp_path):
        spec = script_codec(
            tmp_path, "lying", 'cat "$1" > "$2"',
            "tr '\\000' '\\001' < \"$1\" > \"$2\"",
        )
        with pytest.raises(CodecIntegrityError):
            run_external(spec, constant_image(4, 8))

    def test_failing_tool_raises_run_error(self, tmp_path):
        spec = script_codec(tmp_path, "dies", "exit 3", 'cat "$1" > "$2"')
        with pytest.raises(CodecRunError, match="exit 3"):
            run_external(spec, constant_image(4, 8))

    def test_codec_path_env_resolves_executables(self, tmp_path, monkeypatch):
        spec = script_codec(tmp_path, "pathy", 'cat "$1" > "$2"', 'cat "$1" > "$2"')
        bare = CodecSpec(
            codec_id="pathy",
            kind=CodecKind.LOSSLESS,
            encode_template="pathy-enc {input} {output}",
            decode_template="pathy-dec {input} {output}",
            io_format=IOFormat.RAW_BYTES,
        )
        assert probe(bare).status is ProbeStatus.UNAVAILABLE
        monkeypatch.setenv(CODEC_PATH_ENV, str(tmp_path))
        assert probe(bare).status is ProbeStatus.AVAILABLE


@pytest.mark.skipif(not GZIP_AVAILABLE, reason="gzip not installed")
class TestGzip:
    def test_probe_available(self):
        assert probe(GZIP_SPEC).status is ProbeStatus.AVAILABLE

    def test_constant_image_compresses_hard(self):
        image = constant_image()
        blob, recon = run_external(GZIP_SPEC, image)
        assert recon == image
        assert blob.payload_bits / image.sample_count < 0.05

    def test_size_counts_whole_output_file(self, tmp_path):
        image = constant_image(16, 64)
        blob, _ = run_external(GZIP_SPEC, image)
        # gzip's own container bytes are part of the measured cost
        assert blob.payload_bits >= 8 * 18  # gzip header+trailer floor


class TestSpecFile:
    def test_bundled_specs_parse_and_cover_paper_roster(self):
        specs = {s.codec_id: s for s in load_codec_specs()}
        for codec_id in ("bpg", "flif", "jpegxl", "webp", "gzip", "l3c",
                         "hm-intra", "hm-scc", "vtm-intra", "vtm-scc",
                         "jpeg2000", "tcm"):
            assert codec_id in specs

    def test_parse_rejects_unknown_kind(self):
        with pytest.raises(FormatError, match="kind"):
            parse_codec_specs("[x]\nkind = managed\nencode = a {input} {output}\n"
                              "decode = b {input} {output}\n")

    def test_parse_rejects_an_unknown_key(self):
        with pytest.raises(FormatError, match=r"\[x\].*io_formt"):
            parse_codec_specs("[x]\nio_formt = raw\nencode = a {input} {output}\n"
                              "decode = b {input} {output}\n")

    @pytest.mark.parametrize("section, message", [
        ("kind = lossless\nencode = a {output}\ndecode = b {input} {output}\n",
         r"encode template missing \{input\}"),
        ("kind = lossy\nencode = a -q {quality} {input} {output}\n"
         "decode = b {input} {output}\n", "lossy spec needs a quality ladder"),
        ("kind = lossy\nquality_ladder = 4, 8, 4\nencode = a -q {quality} {input} {output}\n"
         "decode = b {input} {output}\n", r"quality ladder \(4, 8, 4\) repeats a step"),
        ("kind = lossless\nencode = a '{input} {output}\ndecode = b {input} {output}\n",
         "encode template does not parse"),
    ], ids=["missing-input", "lossy-without-ladder", "repeated-step", "unbalanced-quote"])
    def test_parse_names_a_malformed_section(self, section, message):
        with pytest.raises(FormatError, match=rf"\[bad\]: {message}"):
            parse_codec_specs("[gzip]\nencode = gzip {input} > {output}\n"
                              "decode = gzip -d {input} > {output}\n[bad]\n" + section)

    def test_parse_rejects_a_default_section(self):
        with pytest.raises(FormatError, match=r"\[DEFAULT\]"):
            parse_codec_specs("[DEFAULT]\nkind = lossy\nquality_ladder = 1\n"
                              "[gzip]\nencode = a {input} {output}\n"
                              "decode = b {input} {output}\n")

    def test_parse_round_trip(self):
        specs = parse_codec_specs(
            "[demo]\nkind = lossy\nio_format = ppm\nquality_ladder = 1, 2, 3, 4\n"
            "encode = enc -q {quality} {input} {output}\ndecode = dec {input} {output}\n"
        )
        assert len(specs) == 1
        spec = specs[0]
        assert spec.kind is CodecKind.LOSSY
        assert spec.quality_ladder == (1, 2, 3, 4)
