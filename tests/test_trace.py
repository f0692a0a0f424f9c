import io

import numpy as np
import pytest

from taccompress.errors import FormatError
from taccompress.layout import GraspPose, REST_CODES, default_layout
from taccompress.trace import GraspTrace, header_size, load_trace, save_trace


def rest_frames(frame_count, layout=None):
    layout = layout or default_layout()
    frames = np.empty((frame_count, layout.total_units, 3), dtype=np.uint8)
    frames[:, :, 0] = REST_CODES[0]
    frames[:, :, 1] = REST_CODES[1]
    frames[:, :, 2] = REST_CODES[2]
    return frames


def random_trace(seed, frame_count=7):
    rng = np.random.default_rng(seed)
    layout = default_layout()
    return GraspTrace(
        layout=layout,
        frames=rng.integers(0, 256, (frame_count, layout.total_units, 3), dtype=np.uint8),
        sample_rate_hz=float(rng.integers(1, 1000)),
        object_label=f"object-{seed}",
        pose_label=list(GraspPose)[seed % 4],
        repetition_id=int(rng.integers(0, 100)),
    )


@pytest.mark.parametrize("rate", [float("inf"), float("nan"), 0.0, -1.0])
def test_rate_that_is_not_finite_and_positive_rejected(rate):
    with pytest.raises(ValueError, match="sample_rate_hz must be finite and > 0"):
        GraspTrace(layout=default_layout(), frames=rest_frames(1), sample_rate_hz=rate)


@pytest.mark.parametrize("rep", [-1, 0x10000])
def test_repetition_outside_the_u16_rejected(rep):
    with pytest.raises(ValueError, match=r"repetition_id must be in \[0, 65535\]"):
        GraspTrace(layout=default_layout(), frames=rest_frames(1), repetition_id=rep)


def test_largest_repetition_round_trips():
    trace = GraspTrace(layout=default_layout(), frames=rest_frames(1), repetition_id=0xFFFF)
    sink = io.BytesIO()
    save_trace(trace, sink)
    assert load_trace(sink.getvalue()) == trace


def test_one_frame_payload_is_3420_bytes():
    layout = default_layout()
    trace = GraspTrace(layout=layout, frames=rest_frames(1))
    sink = io.BytesIO()
    written = save_trace(trace, sink)
    assert written == len(sink.getvalue())
    assert written == header_size(trace) + 3420  # 1140 units x 3 bytes


def test_100_frame_payload_size():
    # independent size computation: frames x units x axes bytes
    expected_payload = 100 * 1140 * 3
    trace = GraspTrace(layout=default_layout(), frames=rest_frames(100))
    data = io.BytesIO()
    written = save_trace(trace, data)
    assert expected_payload == 342000
    assert written == header_size(trace) + expected_payload


def test_round_trip_identity_random_traces():
    for seed in range(20):
        trace = random_trace(seed)
        sink = io.BytesIO()
        save_trace(trace, sink)
        loaded = load_trace(sink.getvalue())
        assert loaded == trace


def test_round_trip_preserves_exact_bytes():
    trace = random_trace(99)
    first = io.BytesIO()
    save_trace(trace, first)
    second = io.BytesIO()
    save_trace(load_trace(first.getvalue()), second)
    assert first.getvalue() == second.getvalue()


def test_sub_sample_count_matches_bandwidth_arithmetic():
    trace = GraspTrace(layout=default_layout(), frames=rest_frames(100))
    # one second at 100 Hz: 100 x 1140 x 3 sub-samples, 8 bits each
    assert trace.sub_sample_count == 342000
    assert trace.sub_sample_count * 8 == 2_736_000


def test_bad_magic_rejected():
    trace = random_trace(1)
    sink = io.BytesIO()
    save_trace(trace, sink)
    data = bytearray(sink.getvalue())
    data[:4] = b"XPTD"
    with pytest.raises(FormatError, match="magic"):
        load_trace(bytes(data))


def test_unsupported_version_rejected():
    sink = io.BytesIO()
    save_trace(random_trace(2), sink)
    data = bytearray(sink.getvalue())
    data[4] = 99
    with pytest.raises(FormatError, match="version"):
        load_trace(bytes(data))


def test_truncated_payload_rejected():
    sink = io.BytesIO()
    save_trace(random_trace(3), sink)
    data = sink.getvalue()
    with pytest.raises(FormatError, match="truncated"):
        load_trace(data[:-1])


def test_trailing_stream_content_is_left_unread():
    sink = io.BytesIO()
    save_trace(random_trace(4), sink)
    stream = io.BytesIO(sink.getvalue() + b"extra")
    load_trace(stream)
    assert stream.read() == b"extra"


def test_empty_trace_rejected_on_save():
    layout = default_layout()
    trace = GraspTrace(
        layout=layout, frames=np.empty((0, layout.total_units, 3), dtype=np.uint8)
    )
    with pytest.raises(ValueError, match="no frames"):
        save_trace(trace, io.BytesIO())


def test_frame_width_mismatch_rejected():
    layout = default_layout()
    with pytest.raises(ValueError, match="total units"):
        GraspTrace(layout=layout, frames=np.zeros((1, 1139, 3), dtype=np.uint8))


def test_path_round_trip(tmp_path):
    trace = random_trace(5)
    path = tmp_path / "t.mptd"
    save_trace(trace, path)
    assert load_trace(path) == trace
