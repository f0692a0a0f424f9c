"""Built-in TLC1 reference codec: lossless and dead-zone-quantized lossy.

Bitstream container, little-endian::

    magic    "TLC1" (4 bytes)
    version  u8 = 1
    mode     u8 (0 = lossless, 1 = lossy)
    qp       u8 (0 in lossless mode, 1..64 in lossy mode)
    width    u32
    height   u32
    channels u8
    length   u64 payload byte count
    payload  range-coded bytes
    checksum u32 CRC-32 of the reconstruction raster

The checksum trails the payload because range coders desync silently: the
decoder recomputes the CRC of its own reconstruction and rejects the blob on
mismatch.  Rate accounting everywhere in the toolkit counts payload bytes
only (8 * len(payload) bits).

A blob's codec id is ``CODEC_IDS[mode]``, and its mode is the range coder's::

    codec id     mode  qp      blob quality
    tlc1         0     0       None
    tlc1-lossy   1     1..64   the qp

``mode_and_qp`` is the one check of this table; the encoders, ``decode``
(the one decoder), ``write_blob`` and ``read_blob`` all call it.

``write_blob`` writes to a path (replaced atomically) or a binary stream,
and refuses a blob that ``read_blob`` could not read back as itself;
``read_blob`` reads bytes, a path or a binary stream.
"""

import struct
import zlib
from dataclasses import dataclass

from . import _files, rangecoder
from .errors import CodecIntegrityError, FormatError
from .imaging import TactileImage
from .layout import AXIS_COUNT

TLC1_MAGIC = b"TLC1"
TLC1_VERSION = 1
CODEC_ID_LOSSLESS = "tlc1"
CODEC_ID_LOSSY = "tlc1-lossy"
CODEC_IDS = (CODEC_ID_LOSSLESS, CODEC_ID_LOSSY)
QP_MIN = 1
QP_MAX = 64


@dataclass(frozen=True)
class CompressedBlob:
    """Codec-tagged compressed payload plus what is needed to decode it."""

    codec_id: str
    width: int
    height: int
    channels: int
    payload: bytes
    quality: int | None = None
    checksum: int = 0

    def __post_init__(self):
        if not self.payload:
            raise ValueError("blob payload must be non-empty")
        if self.width < 1 or self.height < 1 or self.channels < 1:
            raise ValueError("blob dimensions must be positive")

    @property
    def payload_bits(self) -> int:
        return 8 * len(self.payload)

    @property
    def sub_samples(self) -> int:
        return self.width * self.height * self.channels


def mode_and_qp(codec_id: str, quality: int | None) -> tuple[int, int]:
    """The container mode and qp of a TLC1 blob with ``codec_id`` and
    ``quality``: ``(0, 0)`` for a ``tlc1`` blob, which has no quality, and
    ``(1, quality)`` for a ``tlc1-lossy`` one, whose quality lies in
    ``QP_MIN..QP_MAX``.  Anything else raises ``FormatError``."""
    if codec_id not in CODEC_IDS:
        raise FormatError(f"only TLC1 blobs have a TLC1 container and decoder, "
                          f"not {codec_id!r}")
    mode = CODEC_IDS.index(codec_id)
    if (quality is None) != (mode == rangecoder.MODE_LOSSLESS):
        raise FormatError(f"a {CODEC_ID_LOSSY} blob has a quality and a {CODEC_ID_LOSSLESS} "
                          f"blob none, not {codec_id} with {quality}")
    if mode == rangecoder.MODE_LOSSY and not QP_MIN <= quality <= QP_MAX:
        raise FormatError(f"qp must be in [{QP_MIN}, {QP_MAX}], got {quality}")
    return mode, quality or 0


def _encode(image: TactileImage, codec_id: str, quality: int | None) -> CompressedBlob:
    payload, recon = rangecoder.encode_image(image.pixels, *mode_and_qp(codec_id, quality))
    return CompressedBlob(codec_id=codec_id, width=image.width, height=image.height,
                          channels=image.channels, payload=payload, quality=quality,
                          checksum=zlib.crc32(recon.tobytes()))


def encode_lossless(image: TactileImage) -> CompressedBlob:
    """Losslessly compress an image; decoding reproduces it bit-exactly."""
    return _encode(image, CODEC_ID_LOSSLESS, None)


def encode_lossy(image: TactileImage, qp: int) -> CompressedBlob:
    """DPCM + dead-zone quantization; qp=1 degenerates to bit-exact."""
    return _encode(image, CODEC_ID_LOSSY, qp)


def decode(blob: CompressedBlob) -> TactileImage:
    """Decode a TLC1 blob of either mode; a reconstruction that fails the
    checksum raises ``CodecIntegrityError``."""
    recon = rangecoder.decode_image(blob.payload, blob.height, blob.width, blob.channels,
                                    *mode_and_qp(blob.codec_id, blob.quality))
    if zlib.crc32(recon.tobytes()) != blob.checksum:
        raise CodecIntegrityError(
            f"{blob.codec_id}: reconstruction checksum mismatch (corrupt payload?)"
        )
    return TactileImage(pixels=recon)


def decode_lossless(blob: CompressedBlob) -> TactileImage:
    if blob.codec_id != CODEC_ID_LOSSLESS:
        raise FormatError(f"not a {CODEC_ID_LOSSLESS} blob: {blob.codec_id}")
    return decode(blob)


def decode_lossy(blob: CompressedBlob) -> TactileImage:
    if blob.codec_id != CODEC_ID_LOSSY:
        raise FormatError(f"not a {CODEC_ID_LOSSY} blob: {blob.codec_id}")
    return decode(blob)


def _check_header(width: int, height: int, channels: int, length: int) -> None:
    """The container rules past ``mode_and_qp`` and the field widths, shared
    by ``read_blob`` and ``write_blob``: raises ``FormatError``."""
    if length == 0:
        raise FormatError("zero-length payload")
    if channels != AXIS_COUNT:
        raise FormatError(f"TLC1 blobs have {AXIS_COUNT} channels, not {channels}")
    samples = width * height * channels
    if not 0 < samples <= rangecoder.max_sample_count(length):
        raise FormatError(
            f"{width}x{height} image cannot be coded in a {length}-byte payload"
        )


def write_blob(blob: CompressedBlob, sink) -> int:
    """Serialize a TLC1 blob to its container; returns bytes written.  A blob
    that ``read_blob`` could not read back as itself raises ``ValueError``
    before anything is written."""
    mode, qp = mode_and_qp(blob.codec_id, blob.quality)
    _check_header(blob.width, blob.height, blob.channels, len(blob.payload))
    try:
        header = TLC1_MAGIC + struct.pack(
            "<BBBIIBQ", TLC1_VERSION, mode, qp, blob.width, blob.height,
            blob.channels, len(blob.payload)
        )
        trailer = struct.pack("<I", blob.checksum)
    except struct.error as exc:
        raise ValueError(f"blob field does not fit the TLC1 container: {exc}") from None
    return _files.write(sink, header + blob.payload + trailer)


def read_blob(source) -> CompressedBlob:
    """Parse a TLC1 container back into a blob."""
    source = _files.source(source)
    magic = _files.read_exact(source, 4, "TLC1 magic")
    if magic != TLC1_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {TLC1_MAGIC!r}")
    version, mode, qp, width, height, channels, length = struct.unpack(
        "<BBBIIBQ", _files.read_exact(source, 20, "TLC1 header")
    )
    if version != TLC1_VERSION:
        raise FormatError(f"unsupported TLC1 version {version}")
    if mode >= len(CODEC_IDS):
        raise FormatError(f"unknown TLC1 mode {mode}")
    codec_id, quality = CODEC_IDS[mode], qp or None  # qp 0: no quality
    mode_and_qp(codec_id, quality)  # raises for a qp the mode does not take
    _check_header(width, height, channels, length)
    payload = _files.read_exact(source, length, "TLC1 payload")
    (checksum,) = struct.unpack("<I", _files.read_exact(source, 4, "TLC1 checksum"))
    return CompressedBlob(codec_id=codec_id, width=width, height=height, channels=channels,
                          payload=payload, quality=quality, checksum=checksum)
