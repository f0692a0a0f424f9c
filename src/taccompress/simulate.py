"""Deterministic synthetic grasp-trace generator.

Traces walk through the acquisition phases of a tabletop grasp: a pre-grasp
idle window, a monotone finger-closing ramp, a short lift transient, a long
static hold, and a release decay back to rest.  The force model is synthetic
but its knobs are chosen so that codec difficulty orders the way real grasp
data does: light regular objects (egg) compress best, heavy irregular ones
(apple) worst, and whole-hand cylindrical grasps cost more bits than
precision pinches because they light up more of the sensor surface.

Randomness comes from counter-based Philox generators keyed by the caller's
64-bit seed, so identical arguments always produce byte-identical traces.
Contact footprints (which units an object touches in a pose, and each unit's
contact weight) depend only on the object name and pose, never on the trace
seed: repeated grasps of one object land on the same units, like a fixture
repeating the same grasp ten times.
"""

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .layout import GraspPose, SensorLayout, SensorPosition, default_layout
from .trace import GraspTrace

OBJECT_NAMES = (
    "apple",
    "egg",
    "orange",
    "tomato",
    "potato",
    "vitamin bottle",
    "water bottle",
    "glass bottle",
)

MAX_FRAMES = 8192  # the frame budget of one synthetic trace: see PhasePlan.frame_count
# Fraction of noise_sigma applied to idle (non-contact) units and to every
# unit during pre-grasp; scales to exactly zero for noiseless profiles.
IDLE_NOISE_FRACTION = 0.2
# Low-frequency drift of the hold-phase contact intensity.
DRIFT_HZ = 0.3
# Static tangential load during hold, as a fraction of tangential_spread.
HOLD_SHEAR = 0.5
# Per-pose scaling of the commanded grip force.
POSE_FORCE = {
    GraspPose.PINCH: 0.85,
    GraspPose.TRIPOD: 0.90,
    GraspPose.CYLINDRICAL: 1.15,
    GraspPose.SPHERICAL: 1.00,
}
# Fraction of each participating sensor covered by the contact patch.
POSE_COVERAGE = {
    GraspPose.PINCH: 0.50,
    GraspPose.TRIPOD: 0.50,
    GraspPose.CYLINDRICAL: 0.45,
    GraspPose.SPHERICAL: 0.40,
}


@dataclass(frozen=True)
class PhasePlan:
    """Durations (seconds) of the five acquisition phases."""

    pre_grasp_s: float = 10.0
    close_ramp_s: float = 2.0
    lift_transient_s: float = 1.0
    hold_s: float = 15.0
    release_decay_s: float = 1.0

    def __post_init__(self):
        if not all(math.isfinite(d) and d >= 0 for d in self.durations):
            raise ValueError(
                f"phase durations must be finite and non-negative, not {self.durations}")
        if not 0 < self.total_s < math.inf:
            raise ValueError(
                f"phase durations must sum to a finite, positive total, not {self.total_s}")

    @property
    def durations(self) -> tuple[float, ...]:
        return (
            self.pre_grasp_s,
            self.close_ramp_s,
            self.lift_transient_s,
            self.hold_s,
            self.release_decay_s,
        )

    @property
    def total_s(self) -> float:
        return sum(self.durations)

    def frame_count(self, sample_rate_hz: float) -> int:
        """The frames a trace of this plan holds at ``sample_rate_hz``, the
        last of ``frame_boundaries``; ``ValueError`` when that count is not
        finite or exceeds ``MAX_FRAMES``.  That budget lies far below MPTD's
        u32 frame field: ``generate_trace`` peaks at about 114 KiB per frame
        (measured peak RSS: 363 MiB at 2,900 frames, the default plan at
        100 Hz, and 953 MiB at 8,192)."""
        frames = self.total_s * sample_rate_hz
        if not (math.isfinite(frames) and round(frames) <= MAX_FRAMES):
            raise ValueError(f"{self.total_s:g} s at {sample_rate_hz:g} Hz is "
                             f"{frames:g} frames, more than the {MAX_FRAMES} a trace may hold")
        return round(frames)

    def frame_boundaries(self, sample_rate_hz: float) -> list[int]:
        """Cumulative frame index at the end of each phase.

        Boundaries are rounded cumulative durations, so per-phase frame
        counts always sum to round(total * rate).
        """
        bounds = []
        acc = 0.0
        for d in self.durations:
            acc += d
            bounds.append(round(acc * sample_rate_hz))
        return bounds


@dataclass(frozen=True)
class ObjectProfile:
    """Contact statistics of one grasped object.

    ``footprints`` maps each pose to the sorted array of unit indices the
    object touches; ``unit_weights`` holds the per-unit contact weight in
    (0, 1] for those indices.
    """

    name: str
    footprints: dict
    unit_weights: dict
    peak_normal: int
    tangential_spread: int
    noise_sigma: float
    irregularity: float

    def __post_init__(self):
        if not 1 <= self.peak_normal <= 255:
            raise ValueError("peak_normal must be in 1..255")
        if not 0 <= self.tangential_spread <= 127:
            raise ValueError("tangential_spread must be in 0..127")
        if not (self.noise_sigma >= 0 and math.isfinite(self.noise_sigma)):
            raise ValueError("noise_sigma must be finite and non-negative")
        if not 0 <= self.irregularity <= 1:
            raise ValueError("irregularity must be in [0, 1]")
        for pose in GraspPose:
            idx = self.footprints.get(pose)
            if idx is None or len(idx) == 0:
                raise ValueError(f"{self.name}: empty footprint for pose {pose.name}")


def stable_seed(*parts: str) -> int:
    """A 64-bit generator key that depends only on ``parts``."""
    digest = hashlib.sha256("\x1f".join(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _pose_sensors(layout: SensorLayout, pose: GraspPose) -> list[tuple[int, int]]:
    """(start, stop) unit ranges of the sensors participating in a pose."""
    last_finger = layout.fingers[-1].finger_id
    ranges = []
    for finger_id, sensor_index, start, stop in layout.unit_ranges():
        position = layout.fingers[finger_id].sensors[sensor_index].position
        if pose is GraspPose.PINCH:
            # thumb-like finger plus the first finger, fingertips only
            keep = position is SensorPosition.DISTAL and finger_id in (0, last_finger)
        elif pose is GraspPose.TRIPOD:
            keep = position is SensorPosition.DISTAL and finger_id in (0, 1, last_finger)
        elif pose is GraspPose.CYLINDRICAL:
            keep = True
        else:  # spherical
            keep = position in (SensorPosition.DISTAL, SensorPosition.PROXIMAL)
        if keep:
            ranges.append((start, stop))
    return ranges


def _make_footprints(layout: SensorLayout, name: str, scale: float):
    """Seed-independent contact geometry for one object across all poses."""
    footprints = {}
    weights = {}
    for pose in GraspPose:
        rng = np.random.Generator(
            np.random.Philox(key=stable_seed("footprint", name, pose.name))
        )
        indices = []
        for start, stop in _pose_sensors(layout, pose):
            count = stop - start
            patch = max(1, min(count, round(count * POSE_COVERAGE[pose] * scale)))
            offset = int(rng.integers(0, count - patch + 1))
            indices.append(np.arange(start + offset, start + offset + patch))
        idx = np.concatenate(indices)
        footprints[pose] = idx
        # bell-shaped weight across each contiguous patch, plus mild jitter
        w = np.empty(idx.size)
        pos = 0
        for block in indices:
            n = block.size
            centered = (np.arange(n) - (n - 1) / 2) / max(n / 2, 1)
            w[pos : pos + n] = 0.55 + 0.45 * (1 - centered**2)
            pos += n
        w *= 1.0 - 0.15 * rng.random(idx.size)
        weights[pose] = np.clip(w, 0.05, 1.0)
    return footprints, weights


_PROFILE_PARAMS = {
    # name: (scale, peak_normal, tangential_spread, noise_sigma, irregularity)
    "apple": (1.00, 180, 40, 0.45, 0.55),
    "egg": (0.80, 60, 8, 0.05, 0.04),
    "orange": (1.00, 140, 30, 0.18, 0.30),
    "tomato": (0.95, 110, 22, 0.15, 0.22),
    "potato": (0.90, 150, 28, 0.22, 0.38),
    "vitamin bottle": (0.85, 130, 26, 0.35, 0.42),
    "water bottle": (1.00, 90, 18, 0.10, 0.12),
    "glass bottle": (1.05, 160, 32, 0.28, 0.30),
}


def make_profile(name: str) -> ObjectProfile:
    if name not in _PROFILE_PARAMS:
        raise ValueError(f"unknown object profile {name!r}")
    scale, peak, spread, sigma, irregularity = _PROFILE_PARAMS[name]
    footprints, weights = _make_footprints(default_layout(), name, scale)
    return ObjectProfile(
        name=name,
        footprints=footprints,
        unit_weights=weights,
        peak_normal=peak,
        tangential_spread=spread,
        noise_sigma=sigma,
        irregularity=irregularity,
    )


def default_profiles() -> list[ObjectProfile]:
    """The eight benchmark objects, hardest-to-compress knobs on the apple."""
    return [make_profile(name) for name in OBJECT_NAMES]


def generate_trace(
    profile: ObjectProfile,
    pose: GraspPose,
    plan: PhasePlan | None = None,
    sample_rate_hz: float = 100.0,
    seed: int = 0,
    repetition_id: int = 0,
) -> GraspTrace:
    """Synthesize one grasp trace; deterministic for fixed arguments."""
    plan = plan or PhasePlan()
    layout = default_layout()
    if not (math.isfinite(sample_rate_hz) and sample_rate_hz > 0):
        raise ValueError(f"sample_rate_hz must be finite and > 0, not {sample_rate_hz}")
    footprint = profile.footprints[pose]  # non-empty: ObjectProfile checks it
    if int(np.max(footprint)) >= layout.total_units:
        raise ValueError("footprint index outside layout")

    total_frames = plan.frame_count(sample_rate_hz)
    if total_frames == 0:
        raise ValueError("plan too short for the sample rate: zero frames")
    units = layout.total_units

    weights = profile.unit_weights[pose]
    peak = profile.peak_normal * POSE_FORCE[pose]
    shear = profile.tangential_spread
    sigma = profile.noise_sigma
    idle_sigma = IDLE_NOISE_FRACTION * sigma

    # per-unit hold levels, modulated by a slow drift when irregular
    n_fp = footprint.size
    drift_phase = np.random.Generator(
        np.random.Philox(key=stable_seed("drift", profile.name, pose.name))
    ).random(n_fp) * (0.5 * math.pi) * profile.irregularity

    pre_end, ramp_end, lift_end, hold_end, decay_end = plan.frame_boundaries(sample_rate_hz)
    t_idx = np.arange(total_frames)
    seconds = t_idx / sample_rate_hz
    lift_start_s = ramp_end / sample_rate_hz

    # drift multiplier per (frame, footprint unit); identity before lift
    drift = np.ones((total_frames, n_fp))
    active = t_idx >= ramp_end
    if profile.irregularity > 0 and active.any():
        phase = 2 * math.pi * DRIFT_HZ * (seconds[active] - lift_start_s)
        drift[active] = 1.0 + 0.5 * profile.irregularity * np.sin(
            phase[:, None] + drift_phase[None, :]
        )
    # freeze drift through the release decay so z can only shrink
    if decay_end > hold_end and hold_end > 0:
        drift[hold_end:] = drift[hold_end - 1]

    # phase envelopes
    ramp = np.zeros(total_frames)
    if ramp_end > pre_end:
        tau = (t_idx[pre_end:ramp_end] - pre_end + 1) / (ramp_end - pre_end)
        ramp[pre_end:ramp_end] = 0.5 * (1 - np.cos(math.pi * tau))
    ramp[ramp_end:] = 1.0
    decay = np.ones(total_frames)
    if decay_end > hold_end:
        tau = (t_idx[hold_end:decay_end] - hold_end + 1) / (decay_end - hold_end)
        decay[hold_end:] = 0.5 * (1 + np.cos(math.pi * tau))
    envelope = ramp * decay

    lift_pulse = np.zeros(total_frames)
    if lift_end > ramp_end:
        tau = (t_idx[ramp_end:lift_end] - ramp_end + 0.5) / (lift_end - ramp_end)
        lift_pulse[ramp_end:lift_end] = np.sin(math.pi * tau)

    # deterministic base signal
    base = np.zeros((total_frames, units, 3))
    base[:, :, 0] = 128.0
    base[:, :, 1] = 128.0
    fp_w = weights[None, :]
    base[:, footprint, 2] = peak * fp_w * drift * envelope[:, None]
    base[:, footprint, 1] += HOLD_SHEAR * shear * fp_w * envelope[:, None]
    base[:, footprint, 0] += shear * fp_w * lift_pulse[:, None]

    # noise: idle level everywhere, contact level on footprint axes where the
    # phase allows it; footprint z stays noise-free during ramp and decay so
    # the mean grip force is exactly monotone there
    rng = np.random.Generator(np.random.Philox(key=seed & 0xFFFFFFFFFFFFFFFF))
    noise = rng.standard_normal(base.shape)
    np.clip(noise, -3.0, 3.0, out=noise)
    sigmas = np.full(base.shape, idle_sigma)
    contact = np.zeros(total_frames, dtype=bool)
    contact[pre_end:decay_end] = True
    z_noisy = np.zeros(total_frames, dtype=bool)
    z_noisy[ramp_end:hold_end] = True
    z_quiet = contact & ~z_noisy
    sigmas[np.ix_(contact, footprint, [0, 1])] = sigma
    sigmas[np.ix_(z_noisy, footprint, [2])] = sigma
    sigmas[np.ix_(z_quiet, footprint, [2])] = 0.0
    noise *= sigmas
    base += noise

    codes = np.rint(base)  # round half to even, then clamp to code range
    np.clip(codes, 0, 255, out=codes)
    return GraspTrace(
        layout=layout,
        frames=codes.astype(np.uint8),
        sample_rate_hz=sample_rate_hz,
        object_label=profile.name,
        pose_label=pose,
        repetition_id=repetition_id,
    )
