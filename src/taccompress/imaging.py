"""Lossless conversion between grasp traces and 8-bit RGB tactile images.

A tactile image puts sensor units along the width and time along the height:
pixel (row t, column u) holds the (x, y, z) force codes of unit u at frame t,
mapped to (R, G, B) in that fixed order.  The conversion is a bijection with
the covered trace segment; nothing is resampled or rescaled.

Binary PPM (P6) is the interchange format with external codecs.  The header
is the fixed template ``P6\\n{width} {height}\\n255\\n`` with exactly one
whitespace byte between tokens, followed by the raw raster.  ``write_ppm``
writes to a path (replaced atomically) or a binary stream; ``read_ppm``
reads bytes, a path or a binary stream.
"""

import re
from dataclasses import dataclass

import numpy as np

from . import _files
from .errors import FormatError
from .layout import AXIS_COUNT, GraspPose, SensorLayout
from .trace import GraspTrace

DEFAULT_TILE_HEIGHT = 256


@dataclass(frozen=True)
class TactileImage:
    """8-bit, 3-channel image; ``pixels`` has shape (height, width, 3)."""

    pixels: np.ndarray

    def __post_init__(self):
        pixels = np.asarray(self.pixels, dtype=np.uint8)
        if pixels.ndim != 3 or pixels.shape[2] != AXIS_COUNT:
            raise ValueError(f"pixels must have shape (h, w, 3), got {pixels.shape}")
        if pixels.shape[0] < 1 or pixels.shape[1] < 1:
            raise ValueError("image dimensions must be positive")
        pixels.setflags(write=False)
        object.__setattr__(self, "pixels", pixels)

    def __reduce__(self):
        # rebuilt through __post_init__: an unpickled array comes back writeable
        return TactileImage, (self.pixels,)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        return AXIS_COUNT

    @property
    def sample_count(self) -> int:
        """Raw 8-bit samples in the image; equals the covered sub-sample count."""
        return self.height * self.width * AXIS_COUNT

    def __eq__(self, other):
        if not isinstance(other, TactileImage):
            return NotImplemented
        return self.pixels.shape == other.pixels.shape and np.array_equal(
            self.pixels, other.pixels
        )

    __hash__ = None


def trace_to_image(trace: GraspTrace, frame_range: tuple[int, int] | None = None) -> TactileImage:
    """Convert a trace segment to an image; ``frame_range`` is half-open."""
    if frame_range is None:
        frame_range = (0, trace.frame_count)
    start, stop = frame_range
    if not (0 <= start < stop <= trace.frame_count):
        raise ValueError(
            f"frame range [{start}, {stop}) invalid for trace of {trace.frame_count} frames"
        )
    return TactileImage(pixels=trace.frames[start:stop])


def image_to_trace(
    image: TactileImage,
    layout: SensorLayout,
    sample_rate_hz: float = 100.0,
    object_label: str = "",
    pose_label: GraspPose = GraspPose.PINCH,
    repetition_id: int = 0,
) -> GraspTrace:
    """Exact inverse of :func:`trace_to_image` on the covered segment."""
    if image.width != layout.total_units:
        raise ValueError(
            f"image width {image.width} != layout total units {layout.total_units}"
        )
    return GraspTrace(
        layout=layout,
        frames=image.pixels,
        sample_rate_hz=sample_rate_hz,
        object_label=object_label,
        pose_label=pose_label,
        repetition_id=repetition_id,
    )


def tile_ranges(frame_count: int, tile_height: int = DEFAULT_TILE_HEIGHT) -> list[tuple[int, int]]:
    """Half-open frame ranges covering [0, frame_count) in fixed-height tiles."""
    if tile_height <= 0:
        raise ValueError("tile_height must be positive")
    return [(s, min(s + tile_height, frame_count)) for s in range(0, frame_count, tile_height)]


def ppm_bytes(image: TactileImage) -> bytes:
    header = f"P6\n{image.width} {image.height}\n255\n".encode("ascii")
    return header + image.pixels.tobytes()


def write_ppm(image: TactileImage, sink) -> int:
    """Write binary P6; returns bytes written."""
    return _files.write(sink, ppm_bytes(image))


# bytes-mode \s matches exactly the bytes that bytes.isspace accepts
_PPM_GAP = re.compile(rb"(?:\s+|#[^\n]*\n)*")  # whitespace and comment lines
_PPM_TOKEN = re.compile(rb"\S+")


def _ppm_token(data: bytes, pos: int) -> tuple[bytes, int]:
    pos = _PPM_GAP.match(data, pos).end()
    if data.startswith(b"#", pos):
        raise FormatError("unterminated comment in PPM header")
    token = _PPM_TOKEN.match(data, pos)
    if token is None:
        raise FormatError("malformed PPM header: missing token")
    return token.group(), token.end()


def read_ppm(source) -> TactileImage:
    """Read a binary P6 stream with maxval 255; exact inverse of ``write_ppm``."""
    data = _files.source(source).read()
    magic, pos = _ppm_token(data, 0)
    if magic != b"P6":
        raise FormatError(f"not a binary PPM: magic {magic[:16]!r}")
    fields = []
    for name in ("width", "height", "maxval"):
        token, pos = _ppm_token(data, pos)
        try:
            fields.append(int(token))
        except ValueError:
            raise FormatError(f"malformed PPM {name}: {token[:16]!r}") from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise FormatError(f"bad PPM dimensions {width}x{height}")
    if maxval != 255:
        raise FormatError(f"unsupported PPM maxval {maxval} (need 255)")
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise FormatError("PPM header not terminated by whitespace")
    pos += 1
    raster_len = width * height * AXIS_COUNT
    raster = data[pos : pos + raster_len]
    if len(raster) != raster_len:
        raise FormatError(
            f"truncated PPM raster: need {raster_len} bytes, have {len(raster)}"
        )
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width, AXIS_COUNT)
    return TactileImage(pixels=pixels)
