import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from magspy.motion import MotionThresholds, is_disturbed
from magspy.simulate import (make_class_signature, profile_for_snr,
                             random_motion_script, render_recording)
from magspy.traces import SensorRecording


class TestMotionMetrics:
    """The mean and maximum rotation-rate magnitudes that is_disturbed compares."""

    def test_all_zero(self):
        assert not is_disturbed(np.zeros((10, 3)), MotionThresholds(0.0, 0.0))

    def test_three_four_five(self):
        sample = [(3.0, 4.0, 0.0)]  # magnitude 5, so mean and max are both 5
        below = math.nextafter(5.0, 0.0)
        assert is_disturbed(sample, MotionThresholds(below, math.inf))
        assert is_disturbed(sample, MotionThresholds(math.inf, below))
        assert not is_disturbed(sample, MotionThresholds(5.0, 5.0))

    def test_constant_unit(self):
        gyro = [(1.0, 0.0, 0.0)] * 5
        assert is_disturbed(gyro, MotionThresholds(0.999, math.inf))
        assert is_disturbed(gyro, MotionThresholds(math.inf, 0.999))
        assert not is_disturbed(gyro, MotionThresholds(1.0, 1.0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="gyro"):
            is_disturbed(np.zeros((0, 3)), MotionThresholds())

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValueError, match="gyro"):
            is_disturbed([(0.0, 0.0, 0.0), (value, 0.0, 0.0)], MotionThresholds())


class TestIsDisturbed:
    def test_still_device(self):
        assert not is_disturbed(np.zeros((4, 3)), MotionThresholds(0.1, 1.0))

    def test_max_criterion(self):
        gyro = np.zeros((100, 3))
        gyro[0] = (3.0, 4.0, 0.0)  # mean 0.05, max 5
        assert is_disturbed(gyro, MotionThresholds(0.1, 1.0))
        assert not is_disturbed(gyro, MotionThresholds(0.1, 5.0))

    def test_mean_criterion(self):
        gyro = [(0.1, 0.0, 0.0), (0.0, 0.3, 0.0)]  # mean 0.2, max 0.3
        assert is_disturbed(gyro, MotionThresholds(0.1, 1.0))
        assert not is_disturbed(gyro, MotionThresholds(0.2, 1.0))

    def test_no_gyroscope_is_never_disturbed(self):
        assert not is_disturbed(None, MotionThresholds(0.0, 0.0))

    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 20), st.just(3)),
                      elements=st.floats(-3, 3)),
           st.floats(0, 2), st.floats(0, 2), st.floats(0, 2), st.floats(0, 2))
    def test_monotone_in_thresholds(self, gyro, mean_thr, max_thr, d_mean, d_max):
        tight = MotionThresholds(mean_thr, max_thr)
        loose = MotionThresholds(mean_thr + d_mean, max_thr + d_max)
        if not is_disturbed(gyro, tight):
            assert not is_disturbed(gyro, loose)
        assert not is_disturbed(gyro, MotionThresholds(math.inf, math.inf))


def _recording(gyro_scale=0.0, seed=0):
    rng = np.random.default_rng(seed)
    return SensorRecording("d", 100.0, rng.normal(50, 1, (50, 3)),
                           gyro=rng.normal(0, gyro_scale, (50, 3)) + gyro_scale)


def _flagged(recordings, thresholds):
    """``run_movement``'s movement filter: a recording is dropped when its
    gyroscope is disturbed (one without a gyroscope never is)."""
    return [is_disturbed(rec.gyro, thresholds) for rec in recordings]


class TestFilterDataset:
    def test_all_stationary(self):
        # With gyro noise the stationary render has a gyroscope, still unflagged.
        sig = make_class_signature("a", 2.0, 100.0, 0)
        recs = [render_recording(sig, profile_for_snr(12.0, gyro_noise_std=noise), seed=i)
                for i in range(5) for noise in (0.0, 0.005)]
        assert [rec.gyro is None for rec in recs] == [True, False] * 5
        assert not any(_flagged(recs, MotionThresholds()))

    def test_motion_scripted_all_flagged(self):
        profile = profile_for_snr(12.0)
        sig = make_class_signature("a", 2.0, 100.0, 0)
        recs = []
        for i in range(5):
            script = random_motion_script(200, 100.0, seed=i,
                                          peak_rate_rad_s=(2.0, 3.0))
            recs.append(render_recording(sig, profile, motion=script, seed=i))
        assert all(_flagged(recs, MotionThresholds()))

    def test_vacuous_thresholds(self):
        recs = [_recording(gyro_scale=3.0, seed=i) for i in range(4)]
        assert all(_flagged(recs, MotionThresholds()))
        assert not any(_flagged(recs, MotionThresholds(math.inf, math.inf)))

    def test_monotone_in_thresholds(self):
        recs = [_recording(gyro_scale=s, seed=i)
                for i, s in enumerate([0.0, 0.05, 0.2, 0.8, 2.0])]
        tight = _flagged(recs, MotionThresholds(0.05, 0.5))
        loose = _flagged(recs, MotionThresholds(0.5, 2.5))
        assert all(t or not lo for t, lo in zip(tight, loose))
        assert sum(loose) < sum(tight)
