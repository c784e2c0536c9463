import numpy as np
import pytest

from papernet.dsp import (
    BiquadCascade,
    apply_standardizer,
    butter_bandpass_design,
    filtfilt,
    fit_standardizer,
    frequency_response,
    preprocess_recording,
)
from papernet.errors import DataError, FilterDesignError

SAMPLE_RATES = (128.0, 256.0, 512.0)


def design(fs):
    return butter_bandpass_design(4, 0.5, 45.0, fs)


def sine(f, fs, n=4096):
    t = np.arange(n) / fs
    return np.sin(2 * np.pi * f * t)


def fitted_amplitude(y, f, fs):
    """Least-squares amplitude of a sinusoid at frequency f."""
    n = len(y)
    t = np.arange(n) / fs
    s, c = np.sin(2 * np.pi * f * t), np.cos(2 * np.pi * f * t)
    return np.hypot(2 * np.mean(y * s), 2 * np.mean(y * c))


class TestDesign:
    @pytest.mark.parametrize("fs", SAMPLE_RATES)
    def test_band_centre_gain(self, fs):
        centre = np.sqrt(0.5 * 45.0)
        assert frequency_response(design(fs), centre) == pytest.approx(1.0, rel=0.01)

    @pytest.mark.parametrize("fs", SAMPLE_RATES)
    def test_corner_gain_is_half_power(self, fs):
        cascade = design(fs)
        target = 1.0 / np.sqrt(2.0)
        assert frequency_response(cascade, 0.5) == pytest.approx(target, rel=0.02)
        assert frequency_response(cascade, 45.0) == pytest.approx(target, rel=0.02)

    @pytest.mark.parametrize("fs", SAMPLE_RATES)
    def test_dc_and_nyquist_rejected(self, fs):
        cascade = design(fs)
        assert frequency_response(cascade, 0.0) < 1e-6
        assert frequency_response(cascade, fs / 2.0) < 1e-6

    @pytest.mark.parametrize("fs", SAMPLE_RATES)
    def test_poles_inside_unit_circle(self, fs):
        cascade = design(fs)
        assert cascade.is_stable()
        assert np.all(np.abs(cascade.poles()) < 1.0)

    def test_four_sections_for_order_four(self):
        assert design(256.0).sections.shape == (4, 6)

    def test_mains_frequency_attenuated(self):
        # 60 Hz sits 1.33x above the 45 Hz corner; order-4 prototype knocks
        # it well below the -3 dB line
        assert frequency_response(design(256.0), 60.0) < 0.3

    def test_invalid_band_edges(self):
        with pytest.raises(FilterDesignError):
            butter_bandpass_design(4, 45.0, 0.5, 256.0)
        with pytest.raises(FilterDesignError):
            butter_bandpass_design(4, 0.5, 140.0, 256.0)
        with pytest.raises(FilterDesignError):
            butter_bandpass_design(4, 0.0, 45.0, 256.0)

    def test_response_rejects_out_of_range(self):
        with pytest.raises(FilterDesignError):
            frequency_response(design(256.0), 200.0)


class TestFrequencyResponse:
    def test_unity_section_is_allpass(self):
        unity = BiquadCascade(
            sections=np.array([[1.0, 0.0, 0.0, 1.0, 0.0, 0.0]]),
            order=1, low_hz=1.0, high_hz=10.0, sample_rate_hz=100.0,
        )
        for f in (0.0, 3.3, 25.0, 50.0):
            assert frequency_response(unity, f) == pytest.approx(1.0)

    def test_vectorized_matches_scalar(self):
        cascade = design(256.0)
        freqs = np.array([1.0, 10.0, 40.0])
        vec = frequency_response(cascade, freqs)
        np.testing.assert_allclose(
            vec, [frequency_response(cascade, f) for f in freqs]
        )


class TestFiltFilt:
    def test_dc_rejected(self):
        cascade = design(256.0)
        out = filtfilt(cascade, np.full(2048, 5.0))
        assert np.max(np.abs(out)) < 1e-3 * 5.0

    def test_zero_in_zero_out(self):
        out = filtfilt(design(256.0), np.zeros(500))
        np.testing.assert_array_equal(out, np.zeros(500))

    @pytest.mark.parametrize("fs", SAMPLE_RATES)
    @pytest.mark.parametrize("f", (5.0, 10.0, 20.0))
    def test_sine_amplitude_matches_squared_response(self, fs, f):
        cascade = design(fs)
        x = sine(f, fs)
        y = filtfilt(cascade, x)
        lo, hi = int(0.1 * len(x)), int(0.9 * len(x))
        measured = fitted_amplitude(y[lo:hi], f, fs)
        expected = frequency_response(cascade, f) ** 2
        assert measured == pytest.approx(expected, rel=0.02)

    def test_zero_phase_via_cross_correlation(self):
        fs = 256.0
        cascade = design(fs)
        x = sine(10.0, fs)
        y = filtfilt(cascade, x)
        lo, hi = 400, 3696
        lags = range(-20, 21)
        scores = [np.dot(y[lo:hi], x[lo + lag : hi + lag]) for lag in lags]
        assert list(lags)[int(np.argmax(scores))] == 0

    def test_output_length_preserved(self):
        out = filtfilt(design(256.0), np.random.default_rng(0).normal(size=777))
        assert len(out) == 777

    def test_too_short_signal(self):
        with pytest.raises(DataError):
            filtfilt(design(256.0), np.zeros(27))


class TestPreprocessRecording:
    def test_dc_offset_removed(self):
        rng = np.random.default_rng(1)
        base = rng.normal(size=(2048, 16))
        shifted = base + 100.0
        a = preprocess_recording(base, 256.0)
        b = preprocess_recording(shifted, 256.0)
        assert np.max(np.abs(a - b)) < 1e-2

    def test_shape_preserved(self):
        rows = np.random.default_rng(2).normal(size=(500, 16))
        assert preprocess_recording(rows, 256.0).shape == (500, 16)

    def test_channel_independence(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(600, 16))
        cascade = design(256.0)
        full = preprocess_recording(rows, 256.0)
        for ch in (0, 7, 15):
            np.testing.assert_array_equal(full[:, ch], filtfilt(cascade, rows[:, ch]))

    def test_wrong_channel_count(self):
        with pytest.raises(DataError):
            preprocess_recording(np.zeros((100, 12)), 256.0)


class TestStandardizer:
    def test_two_point_arithmetic(self):
        rows = np.zeros((2, 16))
        rows[0, :] = 1.0
        rows[1, :] = 3.0
        std = fit_standardizer(rows, [0, 1])
        np.testing.assert_array_equal(std.mean, np.full(16, 2.0))
        np.testing.assert_array_equal(std.std, np.full(16, 1.0))
        np.testing.assert_array_equal(
            apply_standardizer(std, np.full((1, 16), 1.0)), np.full((1, 16), -1.0)
        )

    def test_training_rows_become_standard(self):
        rng = np.random.default_rng(4)
        rows = rng.normal(3.0, 2.5, size=(400, 16))
        idx = np.arange(250)
        std = fit_standardizer(rows, idx)
        z = apply_standardizer(std, rows[idx])
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-6)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-6)

    def test_no_leakage_from_validation_rows(self):
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(100, 16))
        train_idx = np.arange(60)
        before = fit_standardizer(rows, train_idx)
        rows[60:] += 1e6  # perturb everything outside the training rows
        after = fit_standardizer(rows, train_idx)
        np.testing.assert_array_equal(before.mean, after.mean)
        np.testing.assert_array_equal(before.std, after.std)

    def test_degenerate_channel_floored_with_warning(self):
        rows = np.random.default_rng(6).normal(size=(50, 16))
        rows[:, 3] = 42.0
        with pytest.warns(UserWarning, match="constant channel"):
            std = fit_standardizer(rows, np.arange(50))
        assert std.std[3] == 1e-8

    def test_empty_training_rows(self):
        with pytest.raises(DataError):
            fit_standardizer(np.zeros((10, 16)), [])
