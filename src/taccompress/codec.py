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


def _encode(image: TactileImage, mode: int, qp: int) -> CompressedBlob:
    payload, recon = rangecoder.encode_image(image.pixels, mode, qp)
    lossy = mode == rangecoder.MODE_LOSSY
    return CompressedBlob(
        codec_id=CODEC_ID_LOSSY if lossy else CODEC_ID_LOSSLESS,
        width=image.width,
        height=image.height,
        channels=image.channels,
        payload=payload,
        quality=qp if lossy else None,
        checksum=zlib.crc32(recon.tobytes()),
    )


def encode_lossless(image: TactileImage) -> CompressedBlob:
    """Losslessly compress an image; decoding reproduces it bit-exactly."""
    return _encode(image, rangecoder.MODE_LOSSLESS, 1)


def encode_lossy(image: TactileImage, qp: int) -> CompressedBlob:
    """DPCM + dead-zone quantization; qp=1 degenerates to bit-exact."""
    if not QP_MIN <= qp <= QP_MAX:
        raise ValueError(f"qp must be in [{QP_MIN}, {QP_MAX}], got {qp}")
    return _encode(image, rangecoder.MODE_LOSSY, qp)


def _decode(blob: CompressedBlob, mode: int, qp: int) -> TactileImage:
    recon = rangecoder.decode_image(
        blob.payload, blob.height, blob.width, blob.channels, mode, qp
    )
    if zlib.crc32(recon.tobytes()) != blob.checksum:
        raise CodecIntegrityError(
            f"{blob.codec_id}: reconstruction checksum mismatch (corrupt payload?)"
        )
    return TactileImage(pixels=recon)


def decode_lossless(blob: CompressedBlob) -> TactileImage:
    if blob.codec_id != CODEC_ID_LOSSLESS:
        raise FormatError(f"not a {CODEC_ID_LOSSLESS} blob: {blob.codec_id}")
    return _decode(blob, rangecoder.MODE_LOSSLESS, 1)


def decode_lossy(blob: CompressedBlob) -> TactileImage:
    if blob.codec_id != CODEC_ID_LOSSY:
        raise FormatError(f"not a {CODEC_ID_LOSSY} blob: {blob.codec_id}")
    if blob.quality is None or not QP_MIN <= blob.quality <= QP_MAX:
        raise FormatError(f"lossy blob with invalid qp {blob.quality}")
    return _decode(blob, rangecoder.MODE_LOSSY, blob.quality)


def decode(blob: CompressedBlob) -> TactileImage:
    """Decode either TLC1 mode based on the blob's codec id."""
    if blob.codec_id == CODEC_ID_LOSSLESS:
        return decode_lossless(blob)
    if blob.codec_id == CODEC_ID_LOSSY:
        return decode_lossy(blob)
    raise FormatError(f"unknown codec id {blob.codec_id!r}")


def _check_header(mode: int, qp: int, width: int, height: int, channels: int,
                  length: int) -> None:
    """The container rules past the field widths, shared by ``read_blob``
    and ``write_blob``: raises ``FormatError`` (a ``ValueError``)."""
    if mode == 1 and not QP_MIN <= qp <= QP_MAX:
        raise FormatError(f"lossy qp {qp} out of range")
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
    if blob.codec_id not in (CODEC_ID_LOSSLESS, CODEC_ID_LOSSY):
        raise ValueError(f"only TLC1 blobs have a container, not {blob.codec_id!r}")
    mode = 0 if blob.codec_id == CODEC_ID_LOSSLESS else 1
    if (blob.quality is None) != (mode == 0):
        raise ValueError(f"a {CODEC_ID_LOSSY} blob has a quality and a {CODEC_ID_LOSSLESS} "
                         f"blob none, not {blob.codec_id} with {blob.quality}")
    qp = 0 if mode == 0 else blob.quality
    _check_header(mode, qp, blob.width, blob.height, blob.channels, len(blob.payload))
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
    if mode not in (0, 1):
        raise FormatError(f"unknown TLC1 mode {mode}")
    _check_header(mode, qp, width, height, channels, length)
    payload = _files.read_exact(source, length, "TLC1 payload")
    (checksum,) = struct.unpack("<I", _files.read_exact(source, 4, "TLC1 checksum"))
    return CompressedBlob(
        codec_id=CODEC_ID_LOSSLESS if mode == 0 else CODEC_ID_LOSSY,
        width=width,
        height=height,
        channels=channels,
        payload=payload,
        quality=None if mode == 0 else qp,
        checksum=checksum,
    )
