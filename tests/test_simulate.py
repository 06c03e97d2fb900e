import hashlib
import math

import numpy as np
import pytest

from magspy.simulate import (DeviceProfile, MotionScript, RotationEvent,
                             estimate_snr, load_device_profile,
                             make_class_signature, pattern_correlation,
                             perturb_pattern, profile_for_snr, profile_from_dict,
                             random_motion_script, render_recording,
                             synth_square_pattern)
from magspy.traces import CpuPattern, SensorRecording


class TestMakeClassSignature:
    def test_deterministic(self):
        a = make_class_signature("news-site", 12.0, 100.0, 7)
        b = make_class_signature("news-site", 12.0, 100.0, 7)
        assert np.array_equal(a.values, b.values)

    def test_distinct_classes_differ(self):
        a = make_class_signature("a", 12.0, 100.0, 3)
        b = make_class_signature("b", 12.0, 100.0, 3)
        assert float(np.linalg.norm(a.values - b.values)) > 0

    def test_distinct_seeds_differ(self):
        a = make_class_signature("a", 12.0, 100.0, 0)
        b = make_class_signature("a", 12.0, 100.0, 1)
        assert float(np.linalg.norm(a.values - b.values)) > 0

    def test_length_and_bounds(self):
        sig = make_class_signature("a", 12.0, 100.0, 0)
        assert len(sig) == 1200
        assert sig.values.min() >= 0.0
        assert sig.values.max() <= 1.0

    def test_rejects_non_positive_duration(self):
        with pytest.raises(ValueError):
            make_class_signature("a", 0.0, 100.0, 0)


class TestSquarePattern:
    def test_two_second_cycles_at_1hz(self):
        pattern = synth_square_pattern(2.0, 2.0, 3, 1.0)
        assert pattern.values.tolist() == [1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0]

    def test_single_cycle_at_2hz(self):
        pattern = synth_square_pattern(1.0, 1.0, 1, 2.0)
        assert pattern.values.tolist() == [1, 1, 0, 0]

    def test_length_identity(self):
        pattern = synth_square_pattern(2.0, 3.0, 4, 10.0)
        assert len(pattern) == 4 * (2.0 + 3.0) * 10.0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            synth_square_pattern(0.0, 1.0, 1, 1.0)
        with pytest.raises(ValueError):
            synth_square_pattern(1.0, 1.0, 0, 1.0)


class TestRenderRecording:
    def test_zero_coupling_zero_noise_is_baseline(self):
        profile = DeviceProfile((20.0, 5.0, 43.0), (0.0, 0.0, 1.0), 0.0, 0.0, 10.0)
        rec = render_recording(synth_square_pattern(1, 1, 2, 10.0), profile, seed=0)
        assert np.array_equal(rec.mag, np.tile([20.0, 5.0, 43.0], (40, 1)))
        assert rec.gyro is None  # no rotation and no gyro noise: no gyroscope

    # sha256 of the gyro and mag bytes, pinned before stationary renders
    # dropped their all-zero gyroscope: a rendered gyroscope is unchanged.
    @pytest.mark.parametrize("gyro_noise_std, rotating, gyro_digest, mag_digest", [
        (0.01, False,
         "00222a215916f61c960a4257021a707b52e28d2d4b14bd69543cea6e049be206",
         "6490b8135603c7c4300e5731abff00f4c66eabcd2814e0e13457a3397e964be3"),
        (0.0, True,
         "89fb66e0f2071c7d42c045a8cbc794fd31c7864c5d52d70b0b6bc402a3050dec",
         "03dea9d9d5744c626338f2e5edd2043402ec519fa92d1e9b58d434d21e5d7aca"),
        (0.01, True,
         "c7b7ed90aed824bb606e06a250acc9a7e7c55b7fe887adb992ab642d14be85cb",
         "03dea9d9d5744c626338f2e5edd2043402ec519fa92d1e9b58d434d21e5d7aca"),
    ], ids=["gyro-noise", "rotation", "rotation-and-gyro-noise"])
    def test_gyro_rendered_with_rotation_or_gyro_noise(self, gyro_noise_std, rotating,
                                                       gyro_digest, mag_digest):
        script = (MotionScript((RotationEvent(20, 80, 2.0, (0.0, 0.6, 0.8)),))
                  if rotating else None)
        rec = render_recording(make_class_signature("a", 2.0, 100.0, 0),
                               profile_for_snr(10.0, gyro_noise_std=gyro_noise_std),
                               motion=script, seed=42)
        assert hashlib.sha256(rec.gyro.tobytes()).hexdigest() == gyro_digest
        assert hashlib.sha256(rec.mag.tobytes()).hexdigest() == mag_digest

    def test_motion_script_without_events_renders_no_gyro(self):
        profile = profile_for_snr(10.0, rate_hz=10.0)
        pattern = CpuPattern(np.zeros(20), 10.0)
        rec = render_recording(pattern, profile, motion=MotionScript(), seed=0)
        assert rec.gyro is None
        assert np.array_equal(rec.mag, render_recording(pattern, profile, seed=0).mag)

    def test_zero_rate_event_does_not_rotate(self):
        # The sin^2 pulse scales to the event's peak rate, zero included.
        profile = profile_for_snr(10.0, rate_hz=10.0)
        pattern = CpuPattern(np.zeros(20), 10.0)
        script = MotionScript((RotationEvent(5, 10, 0.0, (1.0, 0.0, 0.0)),))
        rec = render_recording(pattern, profile, motion=script, seed=0)
        assert rec.gyro is None
        assert rec.mag.tobytes() == render_recording(pattern, profile, seed=0).mag.tobytes()

    def test_analytic_two_sample_case(self):
        profile = DeviceProfile((50.0, 0.0, 0.0), (0.0, 0.0, 1.0), 3.0, 0.0, 1.0)
        rec = render_recording(CpuPattern([0.0, 1.0], 1.0), profile, seed=0)
        assert np.array_equal(rec.mag, [[50.0, 0.0, 0.0], [50.0, 0.0, 3.0]])

    def test_deterministic_given_seed(self):
        profile = profile_for_snr(10.0)
        pattern = make_class_signature("a", 2.0, 100.0, 0)
        a = render_recording(pattern, profile, seed=42)
        b = render_recording(pattern, profile, seed=42)
        assert np.array_equal(a.mag, b.mag)
        assert np.array_equal(a.gyro, b.gyro)

    def test_linearity_in_cpu_load(self):
        profile = DeviceProfile((20.0, 5.0, 43.0), (0.36, 0.48, 0.8), 4.0, 0.0, 100.0)
        base = make_class_signature("a", 1.0, 100.0, 0)
        full = render_recording(base, profile, seed=0).mag - profile.baseline_field
        for alpha in (0.5, 0.25):
            scaled = CpuPattern(alpha * base.values, 100.0)
            got = render_recording(scaled, profile, seed=0).mag - profile.baseline_field
            assert np.allclose(got, alpha * full, atol=1e-12)

    def test_cpu_resampled_to_device_rate(self):
        profile = DeviceProfile((50.0, 0.0, 0.0), (1.0, 0.0, 0.0), 1.0, 0.0, 10.0)
        rec = render_recording(CpuPattern([0.0, 1.0], 1.0), profile, seed=0)
        assert len(rec) == 20

    def test_motion_rotates_baseline_and_reports_gyro(self):
        profile = DeviceProfile((50.0, 0.0, 0.0), (0.0, 0.0, 1.0), 0.0, 0.0, 100.0)
        script = MotionScript((RotationEvent(10, 50, 2.0, (0.0, 0.0, 1.0)),))
        pattern = CpuPattern(np.zeros(100), 100.0)
        rec = render_recording(pattern, profile, motion=script, seed=0)
        assert rec.gyro.max() == pytest.approx(2.0)
        assert np.abs(np.linalg.norm(rec.mag, axis=1) - 50.0).max() < 1e-9
        assert np.abs(rec.mag[-1] - [50.0, 0.0, 0.0]).max() > 1.0

    def test_motion_event_out_of_bounds(self):
        profile = profile_for_snr(10.0, rate_hz=10.0)
        script = MotionScript((RotationEvent(5, 100, 1.0, (1.0, 0.0, 0.0)),))
        with pytest.raises(ValueError, match="extends past"):
            render_recording(CpuPattern(np.zeros(20), 10.0), profile,
                             motion=script, seed=0)


    def test_event_turning_over_pi_per_sample_rejected(self):
        # At 8 Hz a rate of 8 pi rad/s turns the device by pi rad per sample.
        # A huge rate used to overflow in the rotation, then fail in math.sin.
        profile = profile_for_snr(10.0, rate_hz=8.0)
        pattern = CpuPattern(np.zeros(40), 8.0)

        def render(rate):
            script = MotionScript((RotationEvent(5, 10, rate, (1.0, 0.0, 0.0)),))
            return render_recording(pattern, profile, motion=script, seed=0)

        assert render(8.0 * math.pi).gyro.max() == pytest.approx(8.0 * math.pi)
        for rate in (math.nextafter(8.0 * math.pi, math.inf), 1e200):
            with pytest.raises(ValueError, match="peak_rate_rad_s"):
                render(rate)


class TestEstimateSnr:
    def test_convention_20db_hand_case(self):
        # PCA trace on x only; idle samples {1,-1} (std 1), high {11,9}
        # (mean separation 10): 20*log10(10/1) = 20 dB exactly.
        mag = [(1.0, 0, 0), (-1.0, 0, 0), (1.0, 0, 0), (-1.0, 0, 0),
               (11.0, 0, 0), (9.0, 0, 0), (11.0, 0, 0), (9.0, 0, 0)]
        rec = SensorRecording("d", 1.0, mag)
        ref = CpuPattern([0, 0, 0, 0, 1, 1, 1, 1], 1.0)
        assert estimate_snr(rec, ref) == pytest.approx(20.0, abs=1e-9)

    def test_profile_for_snr_hits_target(self):
        ref = synth_square_pattern(2.0, 2.0, 25, 100.0)
        for target in (4.0, 12.0):
            rec = render_recording(ref, profile_for_snr(target), seed=3)
            assert estimate_snr(rec, ref) == pytest.approx(target, abs=1.0)

    def test_zero_gain_strongly_negative(self):
        profile = DeviceProfile((20.0, 5.0, 43.0), (0.36, 0.48, 0.8), 0.0, 1.0, 100.0)
        ref = synth_square_pattern(2.0, 2.0, 25, 100.0)
        rec = render_recording(ref, profile, seed=1)
        assert estimate_snr(rec, ref) < -10.0

    def test_doubling_gain_adds_6db(self):
        ref = synth_square_pattern(2.0, 2.0, 25, 100.0)
        deltas = []
        for seed in range(10):
            lo = render_recording(ref, profile_for_snr(12.0), seed=seed)
            hi = render_recording(
                ref, DeviceProfile((20.0, 5.0, 43.0), (0.36, 0.48, 0.8),
                                   2.0 * 10 ** (12.0 / 20.0), 1.0, 100.0),
                seed=seed)
            deltas.append(estimate_snr(hi, ref) - estimate_snr(lo, ref))
        assert float(np.mean(deltas)) == pytest.approx(6.02, abs=0.5)

    def test_noiseless_idle_is_infinite(self):
        profile = DeviceProfile((50.0, 0.0, 0.0), (0.0, 0.0, 1.0), 3.0, 0.0, 1.0)
        ref = CpuPattern([0.0, 0.0, 1.0, 1.0], 1.0)
        rec = render_recording(ref, profile, seed=0)
        assert estimate_snr(rec, ref) == math.inf

    def test_strictly_increasing_in_gain(self):
        ref = synth_square_pattern(2.0, 2.0, 15, 100.0)
        means = []
        for gain in (1.0, 2.0, 4.0):
            profile = DeviceProfile((20.0, 5.0, 43.0), (0.36, 0.48, 0.8),
                                    gain, 1.0, 100.0)
            values = [estimate_snr(render_recording(ref, profile, seed=s), ref)
                      for s in range(10)]
            means.append(float(np.mean(values)))
        assert means[0] < means[1] < means[2]

    def test_requires_both_regimes(self):
        rec = SensorRecording("d", 1.0, np.random.default_rng(0).normal(0, 1, (4, 3)))
        with pytest.raises(ValueError):
            estimate_snr(rec, CpuPattern([1.0, 1.0, 1.0, 1.0], 1.0))


class TestPatternCorrelation:
    def test_noise_free_self_correlation(self):
        profile = DeviceProfile((20.0, 5.0, 43.0), (0.36, 0.48, 0.8), 3.0, 0.0, 100.0)
        ref = synth_square_pattern(2.0, 2.0, 5, 100.0)
        rec = render_recording(ref, profile, seed=0)
        assert pattern_correlation(rec, ref) == pytest.approx(1.0, abs=1e-9)

    def test_constant_reference_rejected(self):
        profile = profile_for_snr(12.0)
        ref = synth_square_pattern(2.0, 2.0, 5, 100.0)
        rec = render_recording(ref, profile, seed=0)
        with pytest.raises(ValueError, match="zero variance"):
            pattern_correlation(rec, CpuPattern(np.ones(100), 100.0))

    def test_12db_exceeds_point8(self):
        ref = synth_square_pattern(2.0, 2.0, 25, 100.0)
        rec = render_recording(ref, profile_for_snr(12.0), seed=9)
        assert pattern_correlation(rec, ref) > 0.8


class TestPerturbPattern:
    def test_deterministic(self):
        base = make_class_signature("a", 12.0, 100.0, 0)
        a = perturb_pattern(base, 5, start_jitter_s=0.3, time_warp=0.05,
                            level_jitter=0.05, background_drift=0.1)
        b = perturb_pattern(base, 5, start_jitter_s=0.3, time_warp=0.05,
                            level_jitter=0.05, background_drift=0.1)
        assert np.array_equal(a.values, b.values)

    def test_noop_without_knobs(self):
        base = make_class_signature("a", 12.0, 100.0, 0)
        out = perturb_pattern(base, 5)
        assert np.array_equal(out.values, base.values)

    def test_stays_in_unit_range(self):
        base = make_class_signature("a", 12.0, 100.0, 0)
        out = perturb_pattern(base, 5, start_jitter_s=1.0, time_warp=0.2,
                              level_jitter=0.3, background_drift=0.5)
        assert out.values.min() >= 0.0
        assert out.values.max() <= 1.0


class TestMotionScriptGeneration:
    def test_peak_rate_attained_exactly(self):
        script = random_motion_script(1000, 100.0, seed=3,
                                      peak_rate_rad_s=(2.0, 3.0))
        profile = DeviceProfile((20.0, 5.0, 43.0), (0.36, 0.48, 0.8), 0.0, 0.0, 100.0)
        rec = render_recording(CpuPattern(np.zeros(1000), 100.0), profile,
                               motion=script, seed=0)
        rates = np.linalg.norm(rec.gyro, axis=1)
        peaks = [ev.peak_rate_rad_s for ev in script.rotation_events]
        assert rates.max() >= max(peaks) - 1e-9

    def test_events_within_bounds(self):
        script = random_motion_script(500, 100.0, seed=1)
        for ev in script.rotation_events:
            assert ev.start_index + ev.duration_samples <= 500


class TestProfileConfig:
    def test_unit_coupling_enforced(self):
        with pytest.raises(ValueError, match="unit vector"):
            DeviceProfile((0.0, 0.0, 50.0), (1.0, 1.0, 0.0), 1.0, 1.0, 100.0)

    @pytest.mark.parametrize("baseline, coupling, name", [
        ((0.0, 0.0, 50.0), (np.nan, 0.0, 0.0), "coupling_dir"),
        ((np.inf, 0.0, 50.0), (0.0, 0.0, 1.0), "baseline_field"),
    ])
    def test_non_finite_vector_rejected(self, baseline, coupling, name):
        with pytest.raises(ValueError, match=name):
            DeviceProfile(baseline, coupling, 1.0, 1.0, 100.0)

    def test_non_finite_rotation_axis_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            RotationEvent(10, 50, 2.0, (np.nan, 0.0, 0.0))

    # Squaring an entry this large overflows; the check must not. Warnings
    # are errors under pytest, so an overflow warning would fail the test.
    HUGE = 1.3407807929942597e+154

    def test_huge_coupling_entry_is_not_a_unit_vector(self):
        with pytest.raises(ValueError, match="coupling_dir"):
            DeviceProfile((0.0, 0.0, 50.0), (self.HUGE, 0.0, 0.0), 1.0, 1.0, 100.0)

    def test_huge_axis_entry_is_not_a_unit_vector(self):
        with pytest.raises(ValueError, match="axis"):
            RotationEvent(10, 50, 2.0, (self.HUGE, 0.0, 0.0))

    def test_from_dict_with_snr(self):
        profile = profile_from_dict({"snr_db": 12.0, "noise_std": 2.0})
        assert profile.gain == pytest.approx(2.0 * 10 ** 0.6)

    @pytest.mark.parametrize("fields", [
        {}, {"noise_std": 0.5, "rate_hz": 50.0, "gyro_noise_std": 0.01},
        {"baseline_field": [0.0, 0.0, 50.0], "coupling_dir": [0.0, 0.6, 0.8]},
    ], ids=["defaults", "noise-and-rates", "vectors"])
    def test_profile_for_snr_is_the_snr_document(self, fields):
        a = profile_for_snr(12.0, **fields)
        b = profile_from_dict({"snr_db": 12.0, **fields})
        for name in ("baseline_field", "coupling_dir", "gain", "noise_std", "rate_hz",
                     "gyro_noise_std"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_profile_for_snr_rejects_gain_and_zero_noise(self):
        with pytest.raises(ValueError, match="gain"):
            profile_for_snr(12.0, gain=3.0)
        # A noiseless profile would get gain 0 and render a constant.
        with pytest.raises(ValueError, match="noise_std"):
            profile_for_snr(12.0, noise_std=0.0)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text('{"gain": 3.0, "noise_std": 0.5, "rate_hz": 50.0}')
        profile = load_device_profile(path)
        assert profile.gain == 3.0
        assert profile.rate_hz == 50.0

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            profile_from_dict({"gain": 1.0, "bogus": 2})
