import io

import numpy as np
import pytest

from taccompress.errors import FormatError
from taccompress.imaging import (
    TactileImage,
    image_to_trace,
    ppm_bytes,
    read_ppm,
    tile_ranges,
    trace_to_image,
    write_ppm,
)
from taccompress.layout import GraspPose, default_layout
from taccompress.trace import GraspTrace

from test_trace import random_trace, rest_frames


def test_rest_trace_maps_to_rest_image():
    trace = GraspTrace(layout=default_layout(), frames=rest_frames(1))
    image = trace_to_image(trace)
    assert (image.width, image.height, image.channels) == (1140, 1, 3)
    assert np.all(image.pixels[:, :, 0] == 128)
    assert np.all(image.pixels[:, :, 1] == 128)
    assert np.all(image.pixels[:, :, 2] == 0)


def test_full_trace_resolution():
    trace = GraspTrace(layout=default_layout(), frames=rest_frames(2500))
    image = trace_to_image(trace)
    assert (image.width, image.height) == (1140, 2500)


def test_round_trip_many_seeds():
    layout = default_layout()
    for seed in range(100):
        trace = random_trace(seed, frame_count=3)
        image = trace_to_image(trace)
        back = image_to_trace(
            image,
            layout,
            sample_rate_hz=trace.sample_rate_hz,
            object_label=trace.object_label,
            pose_label=trace.pose_label,
            repetition_id=trace.repetition_id,
        )
        assert back == trace


def test_frame_range_selects_segment():
    trace = random_trace(7, frame_count=10)
    image = trace_to_image(trace, (2, 5))
    assert image.height == 3
    assert np.array_equal(image.pixels, trace.frames[2:5])


def test_frame_range_errors():
    trace = random_trace(8, frame_count=4)
    with pytest.raises(ValueError):
        trace_to_image(trace, (2, 2))
    with pytest.raises(ValueError):
        trace_to_image(trace, (0, 5))
    with pytest.raises(ValueError):
        trace_to_image(trace, (-1, 2))


def test_width_mismatch_rejected():
    image = TactileImage(np.zeros((2, 1141, 3), dtype=np.uint8))
    with pytest.raises(ValueError, match="width"):
        image_to_trace(image, default_layout())


def test_image_byte_count_equals_sub_samples():
    trace = random_trace(9, frame_count=6)
    image = trace_to_image(trace)
    assert image.sample_count == trace.sub_sample_count


def test_ppm_header_template_2x1():
    image = TactileImage(np.zeros((1, 2, 3), dtype=np.uint8))
    data = ppm_bytes(image)
    assert data == b"P6\n2 1\n255\n" + b"\x00" * 6
    assert len(data) == 11 + 6


def test_ppm_header_length_1140x100():
    # header length derived from the fixed template "P6\n{w} {h}\n255\n"
    image = TactileImage(np.zeros((100, 1140, 3), dtype=np.uint8))
    expected_header = f"P6\n1140 100\n255\n".encode()
    data = ppm_bytes(image)
    assert data.startswith(expected_header)
    assert len(data) == len(expected_header) + 342000


def test_ppm_round_trip():
    rng = np.random.default_rng(0)
    image = TactileImage(rng.integers(0, 256, (5, 9, 3), dtype=np.uint8))
    sink = io.BytesIO()
    written = write_ppm(image, sink)
    assert written == len(sink.getvalue())
    assert read_ppm(sink.getvalue()) == image


def test_ppm_file_round_trip(tmp_path):
    image = TactileImage(np.full((4, 4, 3), 17, dtype=np.uint8))
    path = tmp_path / "img.ppm"
    write_ppm(image, path)
    assert read_ppm(path) == image


def test_ppm_rejects_bad_magic():
    with pytest.raises(FormatError, match="magic"):
        read_ppm(b"P5\n2 1\n255\n" + b"\x00" * 2)


@pytest.mark.parametrize("data", [b"P7" + b"x" * 1_000_000,
                                  b"P6\n" + b"9" * 1_000_000 + b" 1\n255\n"],
                         ids=["magic", "width"])
def test_ppm_error_quotes_only_a_short_prefix_of_a_long_token(data):
    with pytest.raises(FormatError) as caught:
        read_ppm(data)
    assert len(str(caught.value)) < 100


def test_ppm_rejects_wrong_maxval():
    with pytest.raises(FormatError, match="maxval"):
        read_ppm(b"P6\n2 1\n65535\n" + b"\x00" * 12)


def test_ppm_rejects_truncated_raster():
    with pytest.raises(FormatError, match="truncated"):
        read_ppm(b"P6\n2 1\n255\n" + b"\x00" * 5)


def test_ppm_accepts_comment_lines():
    image = read_ppm(b"P6\n# a comment\n2 1\n255\n" + b"\x01" * 6)
    assert image.width == 2 and image.height == 1


def test_tile_ranges_cover_exactly():
    ranges = tile_ranges(1000, 256)
    assert ranges == [(0, 256), (256, 512), (512, 768), (768, 1000)]
    assert tile_ranges(10, 256) == [(0, 10)]
    with pytest.raises(ValueError):
        tile_ranges(10, 0)
