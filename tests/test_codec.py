import dataclasses
import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taccompress import codec, rangecoder
from taccompress.errors import CodecIntegrityError, FormatError
from taccompress.imaging import TactileImage, trace_to_image
from taccompress.layout import GraspPose
from taccompress.metrics import psnr
from taccompress.simulate import PhasePlan, make_profile, generate_trace

PLAN = PhasePlan(0.15, 0.1, 0.05, 0.4, 0.05)


def constant_image(height=256, width=1140, codes=(128, 128, 0)):
    return TactileImage(np.tile(np.array(codes, np.uint8), (height, width, 1)))


def simulator_image(obj="orange", pose=GraspPose.TRIPOD, seed=0):
    return trace_to_image(generate_trace(make_profile(obj), pose, PLAN, seed=seed))


def random_image(seed, height=64, width=64):
    rng = np.random.default_rng(seed)
    return TactileImage(rng.integers(0, 256, (height, width, 3), dtype=np.uint8))


CODED_TILES = {False: codec.encode_lossless(random_image(0, 4, 6)),
               True: codec.encode_lossy(random_image(0, 4, 6), 8)}


def bpss_of(blob):
    return blob.payload_bits / blob.sub_samples


class TestLossless:
    def test_round_trip_constant(self):
        img = constant_image()
        blob = codec.encode_lossless(img)
        assert codec.decode_lossless(blob) == img

    def test_round_trip_edge_shapes(self):
        for shape in [(1, 1, 3), (1, 9, 3), (9, 1, 3), (2, 2, 3)]:
            img = TactileImage(
                np.random.default_rng(shape[0] * 10 + shape[1])
                .integers(0, 256, shape)
                .astype(np.uint8)
            )
            assert codec.decode_lossless(codec.encode_lossless(img)) == img

    def test_round_trip_random_images(self):
        for seed in range(10):
            img = random_image(seed)
            assert codec.decode_lossless(codec.encode_lossless(img)) == img

    def test_round_trip_simulator_images(self):
        for seed in range(10):
            img = simulator_image(seed=seed)
            assert codec.decode_lossless(codec.encode_lossless(img)) == img

    def test_constant_image_compresses_below_002(self):
        blob = codec.encode_lossless(constant_image())
        assert bpss_of(blob) < 0.02

    def test_random_image_is_incompressible(self):
        blob = codec.encode_lossless(random_image(1, 256, 256))
        assert bpss_of(blob) >= 7.9

    def test_determinism(self):
        img = simulator_image(seed=5)
        assert codec.encode_lossless(img).payload == codec.encode_lossless(img).payload

    def test_decode_rejects_wrong_codec_id(self):
        blob = codec.encode_lossy(simulator_image(), 4)
        with pytest.raises(FormatError):
            codec.decode_lossless(blob)


class TestLossy:
    def test_qp1_is_bit_exact(self):
        img = simulator_image(seed=2)
        blob = codec.encode_lossy(img, 1)
        assert codec.decode_lossy(blob) == img

    def test_qp1_rate_close_to_lossless(self):
        img = simulator_image(seed=3)
        lossless_bits = codec.encode_lossless(img).payload_bits
        lossy_bits = codec.encode_lossy(img, 1).payload_bits
        assert abs(lossy_bits - lossless_bits) / lossless_bits < 0.01

    def test_qp_out_of_range(self):
        img = random_image(0, 8, 8)
        for qp in (0, 65, -3):
            with pytest.raises(ValueError):
                codec.encode_lossy(img, qp)

    def test_monotone_rate_and_distortion(self):
        for seed, obj in [(0, "orange"), (1, "apple"), (2, "egg")]:
            img = simulator_image(obj=obj, seed=seed)
            prev_bits = None
            prev_psnr = None
            for qp in (1, 2, 4, 8, 16, 32, 64):
                blob = codec.encode_lossy(img, qp)
                recon = codec.decode_lossy(blob)
                quality = psnr(img, recon)
                if prev_bits is not None:
                    assert blob.payload_bits <= prev_bits
                    assert quality <= prev_psnr
                prev_bits, prev_psnr = blob.payload_bits, quality

    def test_hold_phase_image_qp64_psnr(self):
        # regression floor measured on seeded simulator output
        trace = generate_trace(make_profile("orange"), GraspPose.TRIPOD, PLAN, seed=11)
        bounds = PLAN.frame_boundaries(100.0)
        hold = trace_to_image(trace, (bounds[2], bounds[3]))
        recon = codec.decode_lossy(codec.encode_lossy(hold, 64))
        assert psnr(hold, recon) >= 30.0

    def test_requantization_is_idempotent(self):
        for qp in (2, 8, 64):
            img = simulator_image(obj="apple", pose=GraspPose.CYLINDRICAL, seed=4)
            once = codec.decode_lossy(codec.encode_lossy(img, qp))
            twice = codec.decode_lossy(codec.encode_lossy(once, qp))
            assert twice == once

    def test_idempotent_at_clamp_boundaries(self):
        # saturated codes force the encoder's boundary canonicalization
        rng = np.random.default_rng(0)
        pixels = rng.choice(
            np.array([0, 1, 2, 200, 254, 255], np.uint8), size=(64, 64, 3)
        )
        img = TactileImage(pixels)
        for qp in (8, 32, 64):
            once = codec.decode_lossy(codec.encode_lossy(img, qp))
            twice = codec.decode_lossy(codec.encode_lossy(once, qp))
            assert twice == once


class TestBlobContainer:
    def test_rate_accounting_is_exact(self):
        img = simulator_image(seed=6)
        blob = codec.encode_lossless(img)
        assert blob.payload_bits == 8 * len(blob.payload)
        assert blob.sub_samples == img.width * img.height * 3

    def test_container_round_trip(self):
        img = simulator_image(seed=7)
        for blob in (codec.encode_lossless(img), codec.encode_lossy(img, 8)):
            sink = io.BytesIO()
            written = codec.write_blob(blob, sink)
            assert written == len(sink.getvalue())
            parsed = codec.read_blob(sink.getvalue())
            assert parsed == blob

    def test_flipped_payload_byte_detected(self):
        img = simulator_image(seed=8)
        blob = codec.encode_lossless(img)
        corrupted = bytearray(blob.payload)
        corrupted[len(corrupted) // 2] ^= 0x40
        bad = codec.CompressedBlob(
            codec_id=blob.codec_id,
            width=blob.width,
            height=blob.height,
            channels=blob.channels,
            payload=bytes(corrupted),
            checksum=blob.checksum,
        )
        with pytest.raises(CodecIntegrityError, match="checksum"):
            codec.decode_lossless(bad)

    @pytest.mark.parametrize("mode", ["lossless", "lossy"])
    @pytest.mark.parametrize("keep", ["first-byte", "half"])
    def test_cut_payload_fails_its_checksum(self, mode, keep):
        # the decoder reads past the end of a short payload as zero bytes
        img = simulator_image(seed=9)
        blob = codec.encode_lossless(img) if mode == "lossless" else codec.encode_lossy(img, 8)
        cut = 1 if keep == "first-byte" else len(blob.payload) // 2
        short = dataclasses.replace(blob, payload=blob.payload[:cut])
        with pytest.raises(CodecIntegrityError, match="checksum"):
            codec.decode(short)

    def test_zero_length_payload_rejected(self):
        img = constant_image(4, 4)
        blob = codec.encode_lossless(img)
        sink = io.BytesIO()
        codec.write_blob(blob, sink)
        data = bytearray(sink.getvalue())
        # header: magic(4) + version/mode/qp(3) + dims(9) -> length at offset 16
        data[16:24] = (0).to_bytes(8, "little")
        with pytest.raises(FormatError, match="payload"):
            codec.read_blob(bytes(data[: 24 + 4]))

    def test_bad_magic_rejected(self):
        with pytest.raises(FormatError, match="magic"):
            codec.read_blob(b"XLC1" + b"\x00" * 30)

    def test_truncated_blob_rejected(self):
        img = constant_image(4, 4)
        sink = io.BytesIO()
        codec.write_blob(codec.encode_lossless(img), sink)
        with pytest.raises(FormatError, match="truncated"):
            codec.read_blob(sink.getvalue()[:-2])

    def test_channel_count_other_than_three_rejected(self):
        sink = io.BytesIO()
        codec.write_blob(codec.encode_lossless(constant_image(4, 4)), sink)
        data = bytearray(sink.getvalue())
        data[15] = 4  # channels: after magic(4), version/mode/qp(3), dims(8)
        with pytest.raises(FormatError, match="channels"):
            codec.read_blob(bytes(data))

    @pytest.mark.parametrize("width, height", [(0xFFFFFFFF, 0xFFFFFFFF), (0, 4)])
    def test_sample_count_the_payload_cannot_hold_rejected(self, width, height):
        # 29 bytes: header, a 1-byte payload and the checksum
        data = (codec.TLC1_MAGIC + struct.pack("<BBBIIBQ", 1, 0, 0, width, height, 3, 1)
                + b"\x00" + struct.pack("<I", 0))
        assert len(data) == 29
        with pytest.raises(FormatError, match="cannot be coded"):
            codec.read_blob(data)

    @pytest.mark.parametrize("mode, qp, message", [
        (0, 8, "tlc1 with 8"), (1, 0, "tlc1-lossy with None"), (1, 65, "got 65"),
        (2, 8, "unknown TLC1 mode"),
    ], ids=["lossless-with-a-qp", "lossy-without-one", "lossy-past-64", "unknown-mode"])
    def test_read_rejects_a_mode_and_qp_that_write_refuses(self, mode, qp, message):
        sink = io.BytesIO()
        codec.write_blob(codec.encode_lossless(constant_image(4, 4)), sink)
        data = bytearray(sink.getvalue())
        data[5:7] = bytes([mode, qp])  # after magic(4) and version(1)
        with pytest.raises(FormatError, match=message):
            codec.read_blob(bytes(data))

    def test_cheapest_tile_round_trips_through_the_container(self):
        # a constant 256x1140 tile codes the most samples per payload byte
        img = constant_image()
        sink = io.BytesIO()
        codec.write_blob(codec.encode_lossless(img), sink)
        assert codec.decode_lossless(codec.read_blob(sink.getvalue())) == img

    @pytest.mark.parametrize("codec_id, quality", [("gzip", None), ("gzip", 8), ("", None)])
    def test_write_rejects_a_codec_id_other_than_tlc1(self, codec_id, quality):
        blob = dataclasses.replace(codec.encode_lossless(constant_image(4, 4)),
                                   codec_id=codec_id, quality=quality)
        sink = io.BytesIO()
        with pytest.raises(ValueError, match="only TLC1 blobs"):
            codec.write_blob(blob, sink)
        assert sink.getvalue() == b""

    @pytest.mark.parametrize("quality", [0, 65, 300, -1, None])
    def test_write_rejects_a_lossy_quality_outside_the_qp_range(self, quality):
        blob = dataclasses.replace(codec.encode_lossy(constant_image(4, 4), 8), quality=quality)
        sink = io.BytesIO()
        with pytest.raises(ValueError):
            codec.write_blob(blob, sink)
        assert sink.getvalue() == b""

    @pytest.mark.parametrize("checksum", [-1, 2**32])
    def test_write_rejects_a_checksum_outside_u32(self, checksum):
        blob = dataclasses.replace(codec.encode_lossless(constant_image(4, 4)), checksum=checksum)
        sink = io.BytesIO()
        with pytest.raises(ValueError, match="does not fit"):
            codec.write_blob(blob, sink)
        assert sink.getvalue() == b""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        # blobs shaped like the codec's own output ...
        st.builds(
            lambda lossy, qp, **fields: codec.CompressedBlob(
                codec.CODEC_ID_LOSSY if lossy else codec.CODEC_ID_LOSSLESS,
                quality=qp if lossy else None, channels=3, **fields),
            lossy=st.booleans(), qp=st.integers(codec.QP_MIN, codec.QP_MAX),
            width=st.integers(1, 40), height=st.integers(1, 40),
            payload=st.binary(min_size=1, max_size=64), checksum=st.integers(0, 2**32 - 1)),
        # ... and blobs with any field out of place
        st.builds(
            codec.CompressedBlob,
            codec_id=st.sampled_from([codec.CODEC_ID_LOSSLESS, codec.CODEC_ID_LOSSY, "gzip"]),
            width=st.integers(1, 2**33), height=st.integers(1, 2**33),
            channels=st.sampled_from([3, 1, 4, 256]), payload=st.binary(min_size=1, max_size=64),
            quality=st.none() | st.integers(-1, 300), checksum=st.integers(-1, 2**33)),
    ))
    def test_every_blob_write_accepts_reads_back_as_itself(self, blob):
        sink = io.BytesIO()
        try:
            written = codec.write_blob(blob, sink)
        except ValueError:
            assert sink.getvalue() == b""
            return
        assert written == len(sink.getvalue())
        assert codec.read_blob(sink.getvalue()) == blob

    @settings(max_examples=60, deadline=None)
    @given(lossy=st.booleans(),
           codec_id=st.sampled_from([codec.CODEC_ID_LOSSLESS, codec.CODEC_ID_LOSSY, "gzip"]),
           quality=st.sampled_from([None, 0, 1, 8, 64, 65, -1]))
    def test_decode_and_write_blob_accept_the_same_blobs(self, lossy, codec_id, quality):
        # a real tile, relabelled: decoding it may then fail its checksum,
        # but it is a FormatError exactly when the container refuses it
        blob = dataclasses.replace(CODED_TILES[lossy], codec_id=codec_id, quality=quality)
        sink = io.BytesIO()
        try:
            codec.write_blob(blob, sink)
            written = True
        except ValueError:
            written = False
        try:
            codec.decode(blob)
            decoded = True
        except FormatError:
            decoded = False
        except CodecIntegrityError:
            decoded = True
        assert decoded == written


class TestSaturation:
    """The adaptation facts the zero-symbol shortcut in ``rangecoder`` rests on."""

    def test_coding_a_0_at_sat_keeps_sat(self):
        assert rangecoder._AFTER0[rangecoder.SAT] == rangecoder.SAT

    def test_no_update_takes_a_probability_above_sat(self):
        sat = rangecoder.SAT
        for table in (rangecoder._AFTER0, rangecoder._AFTER1):
            assert max(table[:sat + 1]) <= sat
        assert rangecoder.PROB_INIT <= sat

    def test_repeated_zeros_from_the_initial_probability_reach_sat(self):
        p, steps = rangecoder.PROB_INIT, 0
        while p != rangecoder.SAT and steps < 1000:
            p, steps = rangecoder._AFTER0[p], steps + 1
        assert p == rangecoder.SAT
        assert steps == 215

    @pytest.mark.parametrize("mode", [rangecoder.MODE_LOSSLESS, rangecoder.MODE_LOSSY])
    def test_zero_chain_table_is_the_chained_range_steps(self, mode):
        # the shortcut reads the table at range >> 15 for any range in
        # [RC_TOP, 2**32); both ends of each index's range must chain to it
        table = rangecoder._ZERO_CHAIN[mode]
        levels, bits, sat = rangecoder._LEVELS[mode], rangecoder.PROB_BITS, rangecoder.SAT
        assert table.itemsize == 4 and len(table) == 1 << 17
        for u in range(rangecoder.RC_TOP >> bits, 1 << 17):
            for rng in (u << bits, (u << bits) | 0x7FFF):
                for _ in range(levels):
                    rng = (rng >> bits) * sat
                assert table[u] == rng
