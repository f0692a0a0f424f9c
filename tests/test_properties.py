"""Property tests for the TLC1 codec: round trips, idempotence, hostile input,
and bit-exactness against a per-sample reference coder.  Hostile input also
goes to the other parsers: MPTD containers, PPM streams and bench configs.
The binary containers get it both as bytes and as a buffered stream."""

import io
import struct

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from test_file_boundary import oversized_mptd, oversized_tlc1

from taccompress import bench, codec, rangecoder
from taccompress.errors import CodecIntegrityError, FormatError
from taccompress.imaging import TactileImage, ppm_bytes, read_ppm
from taccompress.layout import FingerLayout, SensorLayout, SensorPosition, SensorSpec
from taccompress.trace import GraspTrace, load_trace, save_trace

SETTINGS = settings(max_examples=60, deadline=None)
ONE, SHIFT, TOP, MASK32 = 1 << 15, 5, 1 << 24, 0xFFFFFFFF

shapes = st.tuples(st.integers(1, 5), st.integers(1, 64))
images = shapes.flatmap(lambda hw: arrays(np.uint8, (*hw, 3)))
# Uniform pixels put nearly every interior sample in activity bucket 2; a few
# codes around 0 and 128 reach buckets 0 and 1 and long runs of zero residuals.
low_entropy_images = shapes.flatmap(lambda hw: arrays(
    np.uint8, (*hw, 3), elements=st.sampled_from([0, 1, 3, 126, 127, 128, 130])))


def parse_bytes_and_stream(parse, data, errors=FormatError):
    """``parse`` of ``data`` given as bytes and as a buffered stream: each
    raises only ``errors``, and both give the same result or error type."""
    outcomes = []
    for source in (data, io.BufferedReader(io.BytesIO(data))):
        try:
            outcomes.append(parse(source))
        except errors as exc:
            outcomes.append(type(exc))
    assert outcomes[0] == outcomes[1]


@SETTINGS
@given(images | low_entropy_images)
def test_lossless_round_trip_is_exact(pixels):
    img = TactileImage(pixels)
    assert codec.decode_lossless(codec.encode_lossless(img)) == img


@SETTINGS
@given(images | low_entropy_images, st.integers(1, 255))
def test_lossy_reencode_of_a_decoded_image_is_idempotent(pixels, qp):
    payload, once = rangecoder.encode_image(pixels, rangecoder.MODE_LOSSY, qp)
    assert np.array_equal(
        rangecoder.decode_image(payload, *pixels.shape, rangecoder.MODE_LOSSY, qp), once)
    _, twice = rangecoder.encode_image(once, rangecoder.MODE_LOSSY, qp)
    assert np.array_equal(twice, once)


# Containers with a well-formed header around arbitrary payload bytes reach
# the range decoder; bare arbitrary bytes exercise the header checks.
containers = st.builds(
    lambda mode, qp, width, height, channels, payload, checksum: (
        codec.TLC1_MAGIC
        + struct.pack("<BBBIIBQ", 1, mode, qp, width, height, channels, len(payload))
        + payload + struct.pack("<I", checksum)),
    st.integers(0, 1), st.integers(0, 255), st.integers(0, 40), st.integers(0, 8),
    st.sampled_from([3, 3, 3, 0, 4]), st.binary(max_size=64), st.integers(0, 2**32 - 1),
)


@SETTINGS
@given(st.one_of(st.binary(max_size=128), containers))
@example(oversized_tlc1())
def test_arbitrary_bytes_raise_only_format_or_integrity_errors(data):
    parse_bytes_and_stream(lambda source: codec.decode(codec.read_blob(source)), data,
                           (FormatError, CodecIntegrityError))


def _mutated(valid: bytes):
    """A valid encoding with some bytes overwritten and its tail cut."""
    def build(edits, cut):
        data = bytearray(valid)
        for i, byte in edits:
            data[i] = byte
        return bytes(data[:cut])

    return st.builds(
        build,
        st.lists(st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 255)), max_size=4),
        st.integers(0, len(valid)),
    )


_layout = SensorLayout((FingerLayout(0, (SensorSpec(SensorPosition.DISTAL, 2),)),))
_mptd = io.BytesIO()
save_trace(GraspTrace(_layout, np.full((2, 2, 3), 7, np.uint8), object_label="egg"), _mptd)
MPTD = _mptd.getvalue()
RATE_AT, LABEL_AT = 6, 14  # byte offsets of the sample rate and of the object label


@SETTINGS
@given(st.one_of(st.binary(max_size=64), _mutated(MPTD)))
@example(MPTD[:LABEL_AT] + b"\xff" + MPTD[LABEL_AT + 1:])
@example(MPTD[:RATE_AT] + bytes(4) + MPTD[RATE_AT + 4:])
@example(oversized_mptd())
def test_arbitrary_bytes_to_load_trace_raise_only_format_errors(data):
    parse_bytes_and_stream(load_trace, data)


@SETTINGS
@given(st.one_of(st.binary(max_size=64),
                 _mutated(ppm_bytes(TactileImage(np.full((2, 3, 3), 9, np.uint8))))))
def test_arbitrary_bytes_to_read_ppm_raise_only_format_errors(data):
    parse_bytes_and_stream(read_ppm, data)


_config_keys = sorted({name.split(".", 1)[1] for name, *_ in bench.CONFIG_KEYS})
_config_lines = st.one_of(
    st.sampled_from(["[dataset]", "[run]", "[downstream]", "[output]", "[DEFAULT]", "[x]"]),
    st.builds("{} = {}".format, st.sampled_from(_config_keys + ["quality_ladder.x", "codec"]),
              st.text("0123456789.,-: abegknpt", max_size=12) | st.text(max_size=12)),
    st.text(max_size=12),
)


@SETTINGS
@given(st.one_of(st.text(), st.lists(_config_lines, max_size=10).map("\n".join)))
def test_arbitrary_config_text_raises_only_format_errors(text):
    try:
        bench.parse_config(text)
    except FormatError:
        pass


# The reference coder: one sample at a time over numpy scalars, with the MED
# predictor, quantizer and carry handling written out as the format describes.
def _predict(recon, t, u, c):
    if t == 0 and u == 0:
        return (128 if c < 2 else 0), 0
    if t == 0:
        return int(recon[t, u - 1, c]), 0
    if u == 0:
        return int(recon[t - 1, u, c]), 0
    a, b, cc = (int(recon[t, u - 1, c]), int(recon[t - 1, u, c]),
                int(recon[t - 1, u - 1, c]))
    if cc >= max(a, b):
        pred = min(a, b)
    elif cc <= min(a, b):
        pred = max(a, b)
    else:
        pred = a + b - cc
    act = abs(a - cc) + abs(b - cc)
    return pred, 0 if act == 0 else 1 if act < 5 else 2


def reference_encode(pixels, mode, qp):
    levels = 8 if mode == rangecoder.MODE_LOSSLESS else 9
    probs = [ONE >> 1] * (9 << levels)
    recon = np.zeros_like(pixels)
    out, low, rng, cache, cache_size = [], 0, MASK32, 0, 1

    def shift_low():
        nonlocal low, cache, cache_size
        if low < 0xFF000000 or low > MASK32:
            carry = low >> 32
            out.extend([(cache + carry) & 0xFF] + [(0xFF + carry) & 0xFF] * (cache_size - 1))
            cache, cache_size = (low >> 24) & 0xFF, 0
        low, cache_size = (low << 8) & MASK32, cache_size + 1

    for (t, u, c), x in np.ndenumerate(pixels.astype(int)):
        pred, bucket = _predict(recon, t, u, c)
        if mode == rangecoder.MODE_LOSSLESS:
            value, recon[t, u, c] = (x - pred) & 0xFF, x
        else:
            q = (x - pred) // qp if x >= pred else -((pred - x) // qp)
            y = pred + q * qp
            assert 0 <= y <= 255  # the floor quantizer never passes the source
            value, recon[t, u, c] = (2 * q if q >= 0 else -2 * q - 1), y
        node, base = 1, (c * 3 + bucket) << levels
        for k in range(levels - 1, -1, -1):
            bit = (value >> k) & 1
            p = probs[base + node]
            bound = (rng >> 15) * p
            if bit:
                low, rng, probs[base + node] = low + bound, rng - bound, p - (p >> SHIFT)
            else:
                rng, probs[base + node] = bound, p + ((ONE - p) >> SHIFT)
            while rng < TOP:
                shift_low()
                rng = (rng << 8) & MASK32
            node = (node << 1) | bit
    for _ in range(5):
        shift_low()
    return bytes(out), recon


def reference_decode(payload, height, width, mode, qp):
    levels = 8 if mode == rangecoder.MODE_LOSSLESS else 9
    probs = [ONE >> 1] * (9 << levels)
    recon = np.zeros((height, width, 3), np.uint8)
    data = iter(payload)
    code, rng = 0, MASK32
    for _ in range(5):
        code = ((code << 8) | next(data, 0)) & MASK32
    for t, u, c in np.ndindex(recon.shape):
        pred, bucket = _predict(recon, t, u, c)
        node, base = 1, (c * 3 + bucket) << levels
        while node < 1 << levels:
            p = probs[base + node]
            bound = (rng >> 15) * p
            if code < bound:
                rng, probs[base + node], node = bound, p + ((ONE - p) >> SHIFT), 2 * node
            else:
                code, rng = code - bound, rng - bound
                probs[base + node], node = p - (p >> SHIFT), 2 * node + 1
            while rng < TOP:
                code, rng = ((code << 8) | next(data, 0)) & MASK32, (rng << 8) & MASK32
        value = node - (1 << levels)
        if mode == rangecoder.MODE_LOSSLESS:
            recon[t, u, c] = (pred + value) & 0xFF
        else:
            q = value // 2 if value % 2 == 0 else -(value + 1) // 2
            recon[t, u, c] = min(255, max(0, pred + q * qp))
    return recon


modes = st.just((rangecoder.MODE_LOSSLESS, 1)) | st.tuples(
    st.just(rangecoder.MODE_LOSSY), st.integers(1, 255))


def _flat_image(height, width, codes, edits):
    """A ``height`` x ``width`` image of one code per channel with ``edits``
    (row, column, channel, code) written over it, positions taken modulo."""
    pixels = np.empty((height, width, 3), np.uint8)
    pixels[:] = codes
    for t, u, c, code in edits:
        pixels[t % height, u % width, c % 3] = code
    return pixels


# Wide, mostly flat images code hundreds of zero residuals per context, so
# contexts saturate (215 zero codings from PROB_INIT) and most samples take
# the zero-symbol shortcut; a long zero run renormalizes inside a sample
# every ~730 samples, and each edit pulls a saturated context back out.
wide_flat_images = st.builds(
    _flat_image, st.integers(2, 3), st.integers(400, 600),
    st.tuples(*[st.integers(0, 255)] * 3),
    st.lists(st.tuples(*[st.integers(0, 1 << 16)] * 3, st.integers(0, 255)), max_size=8))


@SETTINGS
@given(images | low_entropy_images | wide_flat_images, modes)
def test_encoder_matches_the_reference_coder(pixels, mode_qp):
    payload, recon = rangecoder.encode_image(pixels, *mode_qp)
    ref_payload, ref_recon = reference_encode(pixels, *mode_qp)
    assert payload == ref_payload
    assert np.array_equal(recon, ref_recon)


@SETTINGS
@given(st.binary(min_size=1, max_size=64), st.integers(1, 4), st.integers(1, 16), modes)
def test_decoder_matches_the_reference_coder_on_any_payload(payload, height, width, mode_qp):
    assert np.array_equal(
        rangecoder.decode_image(payload, height, width, 3, *mode_qp),
        reference_decode(payload, height, width, *mode_qp))


# Payloads that reach saturated contexts: a run of zero bytes decodes as
# zero values until the contexts saturate, and the drawn bytes after it then
# meet them with any code; a reference encoding of a wide flat image, with a
# few bytes overwritten and its tail cut, also codes nonzero values in them.
@SETTINGS
@given(wide_flat_images, modes, st.data())
def test_decoder_matches_the_reference_coder_on_saturated_contexts(pixels, mode_qp, data):
    payload = data.draw(st.one_of(
        st.builds(lambda zeros, tail: b"\0" * zeros + tail,
                  st.integers(0, 200), st.binary(min_size=1, max_size=64)),
        _mutated(reference_encode(pixels, *mode_qp)[0])))
    height, width, _ = pixels.shape
    assert np.array_equal(
        rangecoder.decode_image(payload, height, width, 3, *mode_qp),
        reference_decode(payload, height, width, *mode_qp))
