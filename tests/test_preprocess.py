import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magspy.preprocess import (augment_with_inverse, normalize_unit_range,
                               pca_first_component, preprocess_recording,
                               resample)
from magspy.simulate import (DeviceProfile, pattern_correlation,
                             profile_for_snr, render_recording,
                             synth_square_pattern)
from magspy.traces import Trace1D


class TestPcaFirstComponent:
    def test_single_axis_variance(self):
        res = pca_first_component([(1, 0, 0), (3, 0, 0), (2, 0, 0)])
        assert np.allclose(res.component, [1, 0, 0])
        assert np.allclose(res.projected.values, [-1, 1, 0])
        assert res.explained_fraction == pytest.approx(1.0)

    def test_diagonal_line(self):
        data = [(k, k, 0.0) for k in range(5)]
        res = pca_first_component(data)
        assert np.allclose(res.component, [1 / np.sqrt(2), 1 / np.sqrt(2), 0])
        assert res.explained_fraction == pytest.approx(1.0)

    def test_matches_dense_eigensolver_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            scale = rng.uniform(0.5, 5.0, 3)
            data = rng.normal(0.0, 1.0, (1000, 3)) * scale
            res = pca_first_component(data)
            cov = np.cov(data.T, ddof=1)
            eigvals, eigvecs = np.linalg.eigh(cov)
            oracle = eigvecs[:, -1]
            assert abs(float(res.component @ oracle)) > 1 - 1e-9
            assert res.projected.values.var(ddof=1) == pytest.approx(
                eigvals[-1], rel=1e-9)

    @pytest.mark.parametrize("exponent", [-300, -40, 60, 660, 1000])
    def test_power_of_two_scale_keeps_the_axis(self, exponent):
        # The eigenproblem is solved on the samples scaled into (-1, 1) by a
        # power of two, so finite samples of any magnitude overflow nowhere
        # (warnings are errors here) and give the same axis, bit for bit.
        data = np.random.default_rng(5).normal(0.0, 1.0, (400, 3)) * [3.0, 1.0, 0.5]
        base = pca_first_component(data)
        scaled = pca_first_component(np.ldexp(data, exponent))
        assert scaled.component.tobytes() == base.component.tobytes()
        assert scaled.explained_fraction == base.explained_fraction
        assert np.array_equal(scaled.projected.values,
                              np.ldexp(base.projected.values, exponent))

    def test_sign_convention(self):
        res = pca_first_component([(-1, 0, 0), (-3, 0, 0), (-2, 0, 0)])
        assert res.component[np.argmax(np.abs(res.component))] >= 0

    def test_rotation_covariance(self):
        rng = np.random.default_rng(3)
        data = rng.normal(0.0, 1.0, (500, 3)) * [3.0, 1.0, 0.5]
        theta = 0.7
        rot = np.array([
            [np.cos(theta), -np.sin(theta), 0],
            [np.sin(theta), np.cos(theta), 0],
            [0, 0, 1],
        ])
        base = pca_first_component(data)
        rotated = pca_first_component(data @ rot.T)
        assert abs(float(rotated.component @ (rot @ base.component))) > 1 - 1e-9
        agree = np.allclose(rotated.projected.values, base.projected.values,
                            atol=1e-9)
        flipped = np.allclose(rotated.projected.values, -base.projected.values,
                              atol=1e-9)
        assert agree or flipped

    def test_degenerate_trace(self):
        with pytest.raises(ValueError, match="degenerate trace"):
            pca_first_component([(1.0, 2.0, 3.0)] * 10)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            pca_first_component([(1.0, 2.0, 3.0)])


class TestNormalizeUnitRange:
    def test_affine_map(self):
        out = normalize_unit_range(Trace1D([2.0, 4.0, 6.0], 1.0))
        assert np.allclose(out.values, [0.0, 0.5, 1.0])
        assert out.normalized

    def test_two_point(self):
        out = normalize_unit_range(Trace1D([-1.0, 1.0], 1.0))
        assert np.array_equal(out.values, [0.0, 1.0])

    def test_constant_trace(self):
        with pytest.raises(ValueError, match="constant trace"):
            normalize_unit_range(Trace1D([5.0, 5.0, 5.0], 1.0))

    def test_idempotent(self):
        once = normalize_unit_range(Trace1D([2.0, 4.0, 6.0], 1.0))
        twice = normalize_unit_range(once)
        assert np.array_equal(once.values, twice.values)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50).filter(
        lambda v: max(v) > min(v)))
    def test_bounds_property(self, values):
        out = normalize_unit_range(Trace1D(values, 1.0))
        assert out.values.min() == 0.0
        assert out.values.max() == 1.0


class TestAugmentWithInverse:
    def test_definition(self):
        trace = Trace1D([0.0, 1.0, 0.5], 1.0, normalized=True)
        original, inverse = augment_with_inverse(trace)
        assert original is trace
        assert np.allclose(inverse.values, [1.0, 0.0, 0.5])

    def test_involution(self):
        trace = Trace1D([0.0, 0.25, 1.0], 1.0, normalized=True)
        _, inverse = augment_with_inverse(trace)
        _, back = augment_with_inverse(inverse)
        assert np.array_equal(back.values, trace.values)

    def test_requires_normalized(self):
        with pytest.raises(ValueError):
            augment_with_inverse(Trace1D([0.0, 2.0], 1.0))


class TestResample:
    def test_block_means(self):
        out = resample(Trace1D([1.0, 1.0, 0.0, 0.0], 4.0), 2.0)
        assert np.allclose(out.values, [1.0, 0.0])
        assert out.rate_hz == 2.0

    def test_alternating(self):
        out = resample(Trace1D([0.0, 1.0, 0.0, 1.0], 4.0), 2.0)
        assert np.allclose(out.values, [0.5, 0.5])

    def test_identity_rate(self):
        out = resample(Trace1D([0.1, 0.9, 0.4], 4.0), 4.0)
        assert np.allclose(out.values, [0.1, 0.9, 0.4])
        assert not out.normalized

    def test_upsampling_rejected(self):
        with pytest.raises(ValueError):
            resample(Trace1D([0.0, 1.0], 1.0), 2.0)

    @given(st.integers(1, 6), st.integers(2, 40))
    @settings(max_examples=50)
    def test_mean_preserved_for_integer_ratio(self, ratio, blocks):
        rng = np.random.default_rng(blocks * 7 + ratio)
        values = rng.normal(0.0, 1.0, ratio * blocks)
        out = resample(Trace1D(values, float(ratio)), 1.0)
        assert len(out) == blocks
        assert out.values.mean() == pytest.approx(values.mean(), abs=1e-9)


class TestPreprocessRecording:
    def test_square_pattern_shape_recovered(self):
        profile = DeviceProfile((50.0, 0.0, 0.0), (0.0, 0.0, 1.0), 3.0, 0.0, 10.0)
        pattern = synth_square_pattern(1.0, 1.0, 3, 10.0)
        rec = render_recording(pattern, profile, seed=0)
        trace = preprocess_recording(rec)
        assert set(np.round(trace.values, 9)) <= {0.0, 1.0}
        assert np.allclose(trace.values, pattern.values) or np.allclose(
            trace.values, 1.0 - pattern.values)

    def test_pure_noise_succeeds_but_uncorrelated(self):
        profile = profile_for_snr(12.0)
        zeroed = DeviceProfile(profile.baseline_field, profile.coupling_dir,
                               0.0, 1.0, 100.0)
        reference = synth_square_pattern(2.0, 2.0, 25, 100.0)
        rec = render_recording(reference, zeroed, seed=5)
        trace = preprocess_recording(rec)
        assert trace.normalized
        assert pattern_correlation(rec, reference) < 0.2

    def test_constant_recording_degenerate(self):
        profile = DeviceProfile((50.0, 0.0, 0.0), (0.0, 0.0, 1.0), 0.0, 0.0, 10.0)
        pattern = synth_square_pattern(1.0, 1.0, 2, 10.0)
        rec = render_recording(pattern, profile, seed=0)
        with pytest.raises(ValueError, match="degenerate trace"):
            preprocess_recording(rec)

    def test_resample_then_normalize_order(self):
        profile = DeviceProfile((50.0, 0.0, 0.0), (0.0, 0.0, 1.0), 3.0, 0.0, 4.0)
        pattern = synth_square_pattern(1.0, 1.0, 2, 4.0)
        rec = render_recording(pattern, profile, seed=0)
        trace = preprocess_recording(rec, target_rate_hz=2.0)
        assert trace.rate_hz == 2.0
        assert len(trace) == 8
        assert trace.normalized
