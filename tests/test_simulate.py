import numpy as np
import pytest

from taccompress.layout import GraspPose, default_layout
from taccompress.simulate import (
    MAX_FRAMES,
    OBJECT_NAMES,
    PhasePlan,
    default_profiles,
    generate_trace,
    make_profile,
)

SHORT_PLAN = PhasePlan(
    pre_grasp_s=0.2, close_ramp_s=0.2, lift_transient_s=0.1,
    hold_s=0.4, release_decay_s=0.1,
)


def test_default_plan_matches_acquisition_protocol():
    plan = PhasePlan()
    assert plan.pre_grasp_s == 10.0
    assert plan.hold_s == 15.0
    assert plan.total_s == 29.0


def test_default_plan_frame_count_at_100hz():
    # per-phase counts must sum to the rounded total
    bounds = PhasePlan().frame_boundaries(100.0)
    assert bounds[-1] == 2900
    per_phase = [b - a for a, b in zip([0] + bounds, bounds)]
    assert sum(per_phase) == 2900
    assert per_phase == [1000, 200, 100, 1500, 100]


@pytest.mark.parametrize("rate", [0.01, 1.0, 100.0, 1 / 3, MAX_FRAMES / 29])
def test_frame_count_is_the_last_boundary(rate):
    assert PhasePlan().frame_count(rate) == PhasePlan().frame_boundaries(rate)[-1]


@pytest.mark.parametrize("plan, rate", [
    (PhasePlan(), 1e7),
    (PhasePlan(1e10, 0, 0, 0, 0), 1e308),
    (PhasePlan(1, 0, 0, 0, 0), MAX_FRAMES + 1),
], ids=["default-plan-at-10-mhz", "infinite-frames", "one-past-the-budget"])
def test_more_frames_than_the_budget_rejected_before_generation(plan, rate):
    with pytest.raises(ValueError, match=str(MAX_FRAMES)):
        plan.frame_count(rate)
    with pytest.raises(ValueError, match=str(MAX_FRAMES)):
        generate_trace(make_profile("egg"), GraspPose.PINCH, plan, sample_rate_hz=rate)


def test_plan_rejects_negative_and_empty():
    with pytest.raises(ValueError):
        PhasePlan(pre_grasp_s=-1)
    with pytest.raises(ValueError):
        PhasePlan(0, 0, 0, 0, 0)


def test_eight_profiles_with_expected_names():
    profiles = default_profiles()
    assert [p.name for p in profiles] == list(OBJECT_NAMES)


def test_egg_is_easiest_apple_is_hardest():
    profiles = {p.name: p for p in default_profiles()}
    product = {
        name: p.peak_normal * p.noise_sigma * p.irregularity
        for name, p in profiles.items()
    }
    assert min(product, key=product.get) == "egg"
    assert max(product, key=product.get) == "apple"
    assert profiles["egg"].noise_sigma < profiles["apple"].noise_sigma


def test_footprints_valid_for_every_pose():
    layout = default_layout()
    for profile in default_profiles():
        for pose in GraspPose:
            footprint = profile.footprints[pose]
            assert footprint.size > 0
            assert footprint.min() >= 0
            assert footprint.max() < layout.total_units
            assert len(np.unique(footprint)) == footprint.size


def test_footprints_are_seed_independent():
    a = make_profile("orange")
    b = make_profile("orange")
    for pose in GraspPose:
        assert np.array_equal(a.footprints[pose], b.footprints[pose])
        assert np.array_equal(a.unit_weights[pose], b.unit_weights[pose])


def test_determinism_byte_identical():
    profile = make_profile("potato")
    a = generate_trace(profile, GraspPose.TRIPOD, SHORT_PLAN, seed=123)
    b = generate_trace(profile, GraspPose.TRIPOD, SHORT_PLAN, seed=123)
    assert a == b
    c = generate_trace(profile, GraspPose.TRIPOD, SHORT_PLAN, seed=124)
    assert c != a


def test_zero_noise_pre_grasp_only_is_all_rest():
    profile = make_profile("egg")
    quiet = type(profile)(
        name=profile.name,
        footprints=profile.footprints,
        unit_weights=profile.unit_weights,
        peak_normal=profile.peak_normal,
        tangential_spread=profile.tangential_spread,
        noise_sigma=0.0,
        irregularity=0.0,
    )
    plan = PhasePlan(pre_grasp_s=0.5, close_ramp_s=0, lift_transient_s=0,
                     hold_s=0, release_decay_s=0)
    trace = generate_trace(quiet, GraspPose.PINCH, plan, seed=5)
    assert trace.frame_count == 50
    assert np.all(trace.frames[:, :, 0] == 128)
    assert np.all(trace.frames[:, :, 1] == 128)
    assert np.all(trace.frames[:, :, 2] == 0)


def test_codes_cover_valid_range_and_idle_units_stay_near_rest():
    profile = make_profile("apple")
    trace = generate_trace(profile, GraspPose.CYLINDRICAL, SHORT_PLAN, seed=77)
    frames = trace.frames
    assert frames.dtype == np.uint8  # clamped to 0..255 by construction
    idle = np.setdiff1d(
        np.arange(trace.layout.total_units), profile.footprints[GraspPose.CYLINDRICAL]
    )
    bound = int(np.ceil(3 * profile.noise_sigma))
    x = frames[:, idle, 0].astype(int)
    y = frames[:, idle, 1].astype(int)
    z = frames[:, idle, 2].astype(int)
    assert np.abs(x - 128).max() <= bound
    assert np.abs(y - 128).max() <= bound
    assert z.max() <= bound


def test_grip_force_monotone_during_ramp_and_decay():
    profile = make_profile("glass bottle")
    for seed in range(5):
        trace = generate_trace(profile, GraspPose.SPHERICAL, SHORT_PLAN, seed=seed)
        bounds = SHORT_PLAN.frame_boundaries(trace.sample_rate_hz)
        pre_end, ramp_end, lift_end, hold_end, decay_end = bounds
        footprint = profile.footprints[GraspPose.SPHERICAL]
        mean_z = trace.frames[:, footprint, 2].astype(float).mean(axis=1)
        ramp = mean_z[pre_end:ramp_end]
        decay = mean_z[hold_end:decay_end]
        assert np.all(np.diff(ramp) >= 0)
        assert np.all(np.diff(decay) <= 0)


def test_release_ends_at_rest_codes():
    profile = make_profile("tomato")
    quiet = type(profile)(
        name=profile.name,
        footprints=profile.footprints,
        unit_weights=profile.unit_weights,
        peak_normal=profile.peak_normal,
        tangential_spread=profile.tangential_spread,
        noise_sigma=0.0,
        irregularity=0.0,
    )
    trace = generate_trace(quiet, GraspPose.PINCH, SHORT_PLAN, seed=0)
    last = trace.frames[-1]
    assert np.all(last[:, 0] == 128)
    assert np.all(last[:, 1] == 128)
    assert np.all(last[:, 2] == 0)


def test_ramp_reaches_peak_on_footprint():
    profile = make_profile("apple")
    trace = generate_trace(profile, GraspPose.CYLINDRICAL, SHORT_PLAN, seed=3)
    bounds = SHORT_PLAN.frame_boundaries(100.0)
    hold = trace.frames[bounds[2] : bounds[3], profile.footprints[GraspPose.CYLINDRICAL], 2]
    # commanded peak is scaled per pose and per unit weight; the strongest
    # unit should get close to the commanded force at least once
    assert hold.max() >= 0.75 * profile.peak_normal


def test_empty_footprint_rejected():
    profile = make_profile("egg")
    broken = dict(profile.footprints)
    broken[GraspPose.PINCH] = np.array([], dtype=int)
    with pytest.raises(ValueError, match="footprint"):
        type(profile)(
            name="egg",
            footprints=broken,
            unit_weights=profile.unit_weights,
            peak_normal=profile.peak_normal,
            tangential_spread=profile.tangential_spread,
            noise_sigma=profile.noise_sigma,
            irregularity=profile.irregularity,
        )


def test_zero_duration_plan_rejected_at_generation():
    profile = make_profile("egg")
    plan = PhasePlan(0.001, 0, 0, 0, 0)
    with pytest.raises(ValueError, match="zero frames"):
        generate_trace(profile, GraspPose.PINCH, plan, sample_rate_hz=10.0, seed=0)
