"""Grasp traces and the bit-exact MPTD container format.

A trace is a timestamped sequence of full-hand force frames.  Frames are
stored as a dense ``(frame_count, total_units, 3)`` uint8 array in canonical
unit order, axes in (x, y, z) order.

MPTD container, all multi-byte integers little-endian::

    magic       "MPTD" (4 bytes)
    version     u16 = 1
    rate        u32, sample rate in Hz times 1000
    pose        u8   (0=pinch, 1=tripod, 2=cylindrical, 3=spherical)
    repetition  u16
    label       u8 length + UTF-8 bytes
    fingers     u8 finger count, then per finger:
                    u8 sensor count, then per sensor:
                        u8 position (0=distal, 1=intermediate, 2=proximal)
                        u16 unit count
    frames      u32 frame count
    payload     frame-major raster, one frame = units in canonical order,
                one unit = x, y, z bytes

``save_trace`` writes to a path (replaced atomically) or a binary stream;
``load_trace`` reads one container from bytes, a path or a binary stream.
"""

import io
import struct
from dataclasses import dataclass

import numpy as np

from . import _files
from .errors import FormatError
from .layout import (
    AXIS_COUNT,
    FingerLayout,
    GraspPose,
    SensorLayout,
    SensorPosition,
    SensorSpec,
)

MPTD_MAGIC = b"MPTD"
MPTD_VERSION = 1


@dataclass(frozen=True)
class GraspTrace:
    """One grasp recording: layout, acquisition metadata, and raw frames."""

    layout: SensorLayout
    frames: np.ndarray
    sample_rate_hz: float = 100.0
    object_label: str = ""
    pose_label: GraspPose = GraspPose.PINCH
    repetition_id: int = 0

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.uint8)
        if frames.ndim != 3 or frames.shape[2] != AXIS_COUNT:
            raise ValueError(f"frames must have shape (T, units, 3), got {frames.shape}")
        if frames.shape[1] != self.layout.total_units:
            raise ValueError(
                f"frame width {frames.shape[1]} != layout total units "
                f"{self.layout.total_units}"
            )
        if not (np.isfinite(self.sample_rate_hz) and self.sample_rate_hz > 0):
            raise ValueError(f"sample_rate_hz must be finite and > 0, not {self.sample_rate_hz}")
        if not 0 <= self.repetition_id <= 0xFFFF:  # MPTD stores it as a u16
            raise ValueError(f"repetition_id must be in [0, 65535], not {self.repetition_id}")
        frames.setflags(write=False)
        object.__setattr__(self, "frames", frames)

    @property
    def frame_count(self) -> int:
        return self.frames.shape[0]

    @property
    def sub_sample_count(self) -> int:
        """Number of 8-bit axis readings in the trace (the bpss denominator)."""
        return self.frame_count * self.layout.total_units * AXIS_COUNT

    def __eq__(self, other):
        if not isinstance(other, GraspTrace):
            return NotImplemented
        return (
            self.layout == other.layout
            and self.sample_rate_hz == other.sample_rate_hz
            and self.object_label == other.object_label
            and self.pose_label == other.pose_label
            and self.repetition_id == other.repetition_id
            and self.frames.shape == other.frames.shape
            and np.array_equal(self.frames, other.frames)
        )

    __hash__ = None


def header_size(trace: GraspTrace) -> int:
    """Exact MPTD header length in bytes for a given trace."""
    sensors = trace.layout.sensor_count
    fingers = len(trace.layout.fingers)
    label = len(trace.object_label.encode("utf-8"))
    return 4 + 2 + 4 + 1 + 2 + 1 + label + 1 + fingers + 3 * sensors + 4


def save_trace(trace: GraspTrace, destination) -> int:
    """Write the MPTD container to a path or binary stream; returns bytes written."""
    if trace.frame_count == 0:
        raise ValueError("refusing to write a trace with no frames")
    label = trace.object_label.encode("utf-8")
    if len(label) > 255:
        raise ValueError("object_label longer than 255 UTF-8 bytes")
    rate_mhz = round(trace.sample_rate_hz * 1000)
    if not 1 <= rate_mhz <= 0xFFFFFFFF:
        raise ValueError(f"sample rate {trace.sample_rate_hz} Hz not storable")

    out = io.BytesIO()
    out.write(MPTD_MAGIC)
    out.write(struct.pack("<HIBH", MPTD_VERSION, rate_mhz, trace.pose_label.value,
                          trace.repetition_id))
    out.write(struct.pack("<B", len(label)))
    out.write(label)
    out.write(struct.pack("<B", len(trace.layout.fingers)))
    for finger in trace.layout.fingers:
        out.write(struct.pack("<B", len(finger.sensors)))
        for sensor in finger.sensors:
            out.write(struct.pack("<BH", sensor.position.value, sensor.unit_count))
    out.write(struct.pack("<I", trace.frame_count))
    out.write(trace.frames.tobytes())
    return _files.write(destination, out.getvalue())


def load_trace(source) -> GraspTrace:
    """Read one MPTD container back into a trace; trailing stream content is
    left unread."""
    source = _files.source(source)
    magic = _files.read_exact(source, 4, "MPTD magic")
    if magic != MPTD_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MPTD_MAGIC!r}")
    version, rate_mhz, pose_code, repetition = struct.unpack(
        "<HIBH", _files.read_exact(source, 9, "MPTD fixed header")
    )
    if version != MPTD_VERSION:
        raise FormatError(f"unsupported MPTD version {version}")
    if rate_mhz == 0:
        raise FormatError("sample rate is zero")
    try:
        pose = GraspPose(pose_code)
    except ValueError:
        raise FormatError(f"unknown pose code {pose_code}") from None
    (label_len,) = struct.unpack("<B", _files.read_exact(source, 1, "MPTD label length"))
    try:
        label = _files.read_exact(source, label_len, "MPTD object label").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"object label is not UTF-8: {exc}") from None
    (finger_count,) = struct.unpack("<B", _files.read_exact(source, 1, "MPTD finger count"))
    if finger_count == 0:
        raise FormatError("layout has no fingers")
    fingers = []
    for fi in range(finger_count):
        (sensor_count,) = struct.unpack("<B", _files.read_exact(source, 1, "MPTD sensor count"))
        if sensor_count == 0:
            raise FormatError(f"finger {fi} has no sensors")
        sensors = []
        for _ in range(sensor_count):
            pos_code, unit_count = struct.unpack(
                "<BH", _files.read_exact(source, 3, "MPTD sensor spec")
            )
            try:
                position = SensorPosition(pos_code)
            except ValueError:
                raise FormatError(f"unknown sensor position code {pos_code}") from None
            if unit_count == 0:
                raise FormatError("sensor with zero units")
            sensors.append(SensorSpec(position, unit_count))
        fingers.append(FingerLayout(finger_id=fi, sensors=tuple(sensors)))
    layout = SensorLayout(fingers=tuple(fingers))

    (frame_count,) = struct.unpack("<I", _files.read_exact(source, 4, "MPTD frame count"))
    if frame_count == 0:
        raise FormatError("container promises zero frames")
    payload_len = frame_count * layout.total_units * AXIS_COUNT
    payload = _files.read_exact(source, payload_len, "MPTD frame payload")
    frames = np.frombuffer(payload, dtype=np.uint8).reshape(
        frame_count, layout.total_units, AXIS_COUNT
    )
    return GraspTrace(
        layout=layout,
        frames=frames,
        sample_rate_hz=rate_mhz / 1000.0,
        object_label=label,
        pose_label=pose,
        repetition_id=repetition,
    )
