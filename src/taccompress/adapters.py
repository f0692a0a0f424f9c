"""Harness for external codecs driven by command templates.

A codec spec names an encode and a decode command with ``{input}``,
``{output}`` and (for lossy codecs) ``{quality}`` placeholders.  Commands run
through the shell in an isolated scratch directory, so templates may use
redirection (``gzip -c {input} > {output}``).  The measured size is the
encoded file's byte length, container headers included, because that is the
real storage/transmission cost.

Lossless specs are verified: the decoded raster must match the source
bit-exactly or the run is reported as a codec-integrity failure rather than
silently counted.

Spec files and ``bench``'s configs share one INI dialect, which
``ini_sections`` reads: no interpolation, no ``[DEFAULT]`` section, and
``FormatError`` for text that does not parse.  ``split_list`` and
``int_list`` read its list values, separated by commas or blanks.  A spec
file holds one section per codec::

    [gzip]
    kind = lossless
    io_format = raw
    encode = gzip -c -9 {input} > {output}
    decode = gzip -dc {input} > {output}

    [webp]
    kind = lossless
    io_format = ppm
    encode = cwebp -z 9 -lossless {input} -o {output}
    decode = dwebp {input} -ppm -o {output}

A section takes only the keys in ``SPEC_KEYS``.  Each section must pass
``CodecSpec``'s checks: both templates hold ``{input}`` and ``{output}`` and
parse as shell words, and a lossy section's encode template holds
``{quality}`` and it has a quality ladder; no ladder repeats a step.  An
unknown key or a section that fails those checks raises ``FormatError``
naming the section.  (``bench.codec_table`` also rejects a section named
after a built-in codec.)

``TACCOMPRESS_CODEC_PATH`` prepends executable search paths.
"""

import configparser
import os
import shlex
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path

import numpy as np

from . import _files
from .codec import CompressedBlob
from .errors import CodecIntegrityError, CodecRunError, FormatError
from .imaging import TactileImage, read_ppm, write_ppm

DEFAULT_TIMEOUT_S = 300.0
PROBE_TIMEOUT_S = 30.0
CODEC_PATH_ENV = "TACCOMPRESS_CODEC_PATH"
SPEC_KEYS = ("kind", "io_format", "quality_ladder", "encode", "decode")


class CodecKind(Enum):
    LOSSLESS = "lossless"
    LOSSY = "lossy"


class ProbeStatus(Enum):
    AVAILABLE = "available"
    UNAVAILABLE = "unavailable"
    DEGRADED = "degraded"


class IOFormat(Enum):
    PPM = "ppm"
    RAW_BYTES = "raw"


@dataclass(frozen=True)
class CodecSpec:
    """Command templates and quality ladder for one external codec; building
    one runs the checks in the module docstring and raises ``ValueError``."""

    codec_id: str
    kind: CodecKind
    encode_template: str
    decode_template: str
    quality_ladder: tuple[int, ...] = ()
    io_format: IOFormat = IOFormat.PPM

    def __post_init__(self):
        for name, template in (("encode", self.encode_template),
                               ("decode", self.decode_template)):
            for placeholder in ("{input}", "{output}"):
                if placeholder not in template:
                    raise ValueError(f"{name} template missing {placeholder}")
            try:
                shlex.split(template)
            except ValueError as exc:
                raise ValueError(f"{name} template does not parse: {exc}") from None
        if self.kind is CodecKind.LOSSY:
            if "{quality}" not in self.encode_template:
                raise ValueError("lossy encode template missing {quality}")
            if not self.quality_ladder:
                raise ValueError("lossy spec needs a quality ladder")
        if len(set(self.quality_ladder)) != len(self.quality_ladder):
            raise ValueError(f"quality ladder {self.quality_ladder} repeats a step")


@dataclass(frozen=True)
class ProbeResult:
    codec_id: str
    status: ProbeStatus
    detail: str = ""

    @property
    def available(self) -> bool:
        return self.status is ProbeStatus.AVAILABLE


def _search_path() -> str:
    prefix = os.environ.get(CODEC_PATH_ENV, "")
    base = os.environ.get("PATH", os.defpath)
    return f"{prefix}{os.pathsep}{base}" if prefix else base


def _write_image(image: TactileImage, path: Path, io_format: IOFormat):
    if io_format is IOFormat.PPM:
        write_ppm(image, path)
    else:
        _files.write(path, image.pixels.tobytes())


def _read_image(path: Path, like: TactileImage, io_format: IOFormat) -> TactileImage:
    if io_format is IOFormat.PPM:
        return read_ppm(path)
    data = _files.source(path).read()
    expected = like.sample_count
    if len(data) != expected:
        raise FormatError(
            f"raw reconstruction is {len(data)} bytes, expected {expected}"
        )
    pixels = np.frombuffer(data, dtype=np.uint8).reshape(
        like.height, like.width, like.channels
    )
    return TactileImage(pixels=pixels)


def _run(command: str, cwd: Path, timeout: float):
    env = dict(os.environ, PATH=_search_path())
    try:
        proc = subprocess.run(
            command,
            shell=True,
            cwd=cwd,
            env=env,
            capture_output=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise CodecRunError(f"timed out after {timeout:.0f}s: {command}") from exc
    if proc.returncode != 0:
        output = (proc.stderr or proc.stdout or b"").decode("utf-8", "replace").strip()
        raise CodecRunError(
            f"command failed (exit {proc.returncode}): {command}\n{output[:2000]}"
        )


def run_external(
    spec: CodecSpec,
    image: TactileImage,
    quality: int | None = None,
    timeout: float = DEFAULT_TIMEOUT_S,
) -> tuple[CompressedBlob, TactileImage]:
    """Encode (and decode) one image with an external codec.

    Returns the measured blob and the decoded reconstruction.  Lossless
    specs raise :class:`CodecIntegrityError` if the reconstruction is not
    bit-exact.
    """
    if spec.kind is CodecKind.LOSSY and quality is None:
        raise ValueError(f"{spec.codec_id}: lossy codec needs a quality value")

    scratch = Path(tempfile.mkdtemp(prefix=f"{spec.codec_id}-"))
    try:
        src = scratch / ("input.ppm" if spec.io_format is IOFormat.PPM else "input.raw")
        enc = scratch / "encoded.bin"
        dec = scratch / ("decoded.ppm" if spec.io_format is IOFormat.PPM else "decoded.raw")
        _write_image(image, src, spec.io_format)

        encode_cmd = spec.encode_template.format(
            input=src, output=enc, quality="" if quality is None else quality
        )
        _run(encode_cmd, scratch, timeout)
        if not enc.exists() or enc.stat().st_size == 0:
            raise CodecRunError(f"{spec.codec_id}: encode produced no output file")
        payload = _files.source(enc).read()

        decode_cmd = spec.decode_template.format(
            input=enc, output=dec, quality="" if quality is None else quality
        )
        _run(decode_cmd, scratch, timeout)
        if not dec.exists():
            raise CodecRunError(f"{spec.codec_id}: decode produced no output file")
        recon = _read_image(dec, image, spec.io_format)

        if recon.pixels.shape != image.pixels.shape:
            raise CodecIntegrityError(
                f"{spec.codec_id}: reconstruction shape {recon.pixels.shape} "
                f"!= source {image.pixels.shape}"
            )
        if spec.kind is CodecKind.LOSSLESS and recon != image:
            raise CodecIntegrityError(
                f"{spec.codec_id}: lossless reconstruction differs from source"
            )
        blob = CompressedBlob(
            codec_id=spec.codec_id,
            width=image.width,
            height=image.height,
            channels=image.channels,
            payload=payload,
            quality=quality,
        )
        return blob, recon
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def probe(spec: CodecSpec) -> ProbeResult:
    """Check that a codec's executables exist and its tool round-trips a smoke image."""
    path = _search_path()
    for exe in {shlex.split(spec.encode_template)[0], shlex.split(spec.decode_template)[0]}:
        if shutil.which(exe, path=path) is None:
            return ProbeResult(
                spec.codec_id, ProbeStatus.UNAVAILABLE, f"executable not found: {exe}"
            )

    smoke = TactileImage(
        np.tile(np.array([128, 128, 0], np.uint8), (2, 2, 1))
    )
    quality = spec.quality_ladder[0] if spec.kind is CodecKind.LOSSY else None
    try:
        run_external(spec, smoke, quality=quality, timeout=PROBE_TIMEOUT_S)
    except (CodecRunError, CodecIntegrityError, FormatError) as exc:
        return ProbeResult(spec.codec_id, ProbeStatus.DEGRADED, str(exc))
    return ProbeResult(spec.codec_id, ProbeStatus.AVAILABLE)


def ini_sections(text: str, what: str) -> dict[str, dict[str, str]]:
    """Each section of INI ``text``, in file order, as a mapping of its keys
    to their raw values; text that does not parse, or a ``[DEFAULT]``
    section, raises ``FormatError`` naming ``what`` the text is."""
    # no default section: a [DEFAULT] header is a section, rejected below
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise FormatError(f"bad {what}: {exc}") from exc
    if parser.has_section(configparser.DEFAULTSECT):
        raise FormatError(f"[{configparser.DEFAULTSECT}]: a {what} has no default section, "
                          "whose keys would apply to every section")
    return {section: dict(parser.items(section)) for section in parser.sections()}


def split_list(raw: str) -> list[str]:
    """The items of an INI list value, separated by commas or blanks."""
    return raw.replace(",", " ").split()


def int_list(raw: str) -> tuple[int, ...]:
    """An INI list of integers, such as a quality ladder."""
    return tuple(int(item) for item in split_list(raw))


def parse_codec_specs(text: str) -> list[CodecSpec]:
    """Parse the INI-style codec spec format; see the module docstring."""
    specs = []
    for section, entries in ini_sections(text, "codec spec file").items():
        for key in entries:
            if key not in SPEC_KEYS:
                raise FormatError(f"[{section}]: unknown key {key!r}")
        try:
            kind = CodecKind(entries.get("kind", "lossless").strip().lower())
        except ValueError:
            raise FormatError(f"[{section}]: unknown kind {entries.get('kind')!r}") from None
        io_name = entries.get("io_format", "ppm").strip().lower()
        try:
            io_format = IOFormat(io_name)
        except ValueError:
            raise FormatError(f"[{section}]: unknown io_format {io_name!r}") from None
        try:
            ladder = int_list(entries.get("quality_ladder", ""))
        except ValueError:
            raise FormatError(f"[{section}]: bad quality ladder") from None
        try:
            specs.append(CodecSpec(
                codec_id=section,
                kind=kind,
                encode_template=entries.get("encode", ""),
                decode_template=entries.get("decode", ""),
                quality_ladder=ladder,
                io_format=io_format,
            ))
        except ValueError as exc:
            raise FormatError(f"[{section}]: {exc}") from None
    return specs


def load_codec_specs(path: str | Path | None = None) -> list[CodecSpec]:
    """Load codec specs from a file, or the bundled defaults when no path is given."""
    if path is not None:
        return parse_codec_specs(_files.read_utf8(path))
    bundled = resources.files("taccompress") / "data/external_codecs.spec"
    with resources.as_file(bundled) as bundled_path:
        return parse_codec_specs(_files.read_utf8(bundled_path))
