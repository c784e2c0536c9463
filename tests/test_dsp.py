import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import signal

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

    @pytest.mark.parametrize("order", [0, -1, 2.5, 4.0, True, "4", None])
    def test_order_must_be_positive_int(self, order):
        with pytest.raises(FilterDesignError, match="order"):
            butter_bandpass_design(order, 0.5, 45.0, 256.0)

    def test_numpy_integer_order_accepted(self):
        cascade = butter_bandpass_design(np.int64(2), 0.5, 45.0, 256.0)
        assert cascade.sections.shape == (2, 6)

    def test_response_rejects_out_of_range(self):
        with pytest.raises(FilterDesignError):
            frequency_response(design(256.0), 200.0)


class TestFrequencyResponse:
    def test_unity_section_is_allpass(self):
        unity = BiquadCascade(
            sections=np.array([[1.0, 0.0, 0.0, 1.0, 0.0, 0.0]]),
            sample_rate_hz=100.0,
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


ORACLE_RATES = (100.0, 128.0, 256.0, 512.0, 1000.0)


@st.composite
def _designs(draw):
    """An order 1..8, a sample rate and a band whose edges lie between 0.1%
    and 99.9% of Nyquist, at least 0.1% of Nyquist apart."""
    order = draw(st.integers(1, 8))
    fs = draw(st.sampled_from(ORACLE_RATES))
    low = draw(st.floats(1e-3, 0.998))
    high = draw(st.floats(low + 1e-3, 0.999))
    return order, low * fs / 2, high * fs / 2, fs


class TestScipyOracle:
    """The numpy design, response and zero-phase filter against
    ``scipy.signal``, which papernet itself does not import."""

    @settings(max_examples=300, deadline=None)
    @given(design_args=_designs())
    def test_design_matches_butter_sos(self, design_args):
        order, low, high, fs = design_args
        expected = signal.butter(order, [low, high], btype="bandpass", fs=fs, output="sos")
        got = butter_bandpass_design(order, low, high, fs).sections
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("fs", ORACLE_RATES)
    @pytest.mark.parametrize("order", range(1, 9))
    def test_frequency_response_matches_sosfreqz(self, order, fs):
        cascade = butter_bandpass_design(order, 0.5, 45.0, fs)
        f = np.linspace(0.0, fs / 2, 257)
        _, h = signal.sosfreqz(cascade.sections, worN=f, fs=fs)
        np.testing.assert_allclose(frequency_response(cascade, f), np.abs(h),
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("fs", ORACLE_RATES)
    @pytest.mark.parametrize("order", range(1, 9))
    def test_filtfilt_matches_sosfiltfilt(self, order, fs):
        cascade = butter_bandpass_design(order, 0.5, 45.0, fs)
        pad = 3 * (2 * order + 1)
        rng = np.random.default_rng(order)
        # the shortest allowed length and a recording of many blocks, each
        # as one signal and as 16 columns
        for shape in [(pad + 1,), (pad + 1, 16), (2000,), (2000, 16)]:
            x = rng.normal(size=shape) + 3.0
            expected = signal.sosfiltfilt(cascade.sections, x, axis=0, padlen=pad)
            got = filtfilt(cascade, x)
            assert got.shape == expected.shape
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(got - expected)) <= 1e-9 * scale, shape


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _bands(draw):
    """A finite sample rate and two band edges, each an arbitrary finite
    float or the next of two ascending fractions of the rate's Nyquist."""
    fs = draw(st.floats(1e-3, 1e18) | _FINITE)
    fractions = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)))
    low, high = (draw(st.just(r * fs / 2) | _FINITE) for r in fractions)
    return fs, low, high


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

    # rounding puts a pole at z = 1 in both pinned designs, and I - A of the
    # block filter is then exactly singular
    @example(band=(1e10, 0.5, 45.0))
    @example(band=(256.0, 1e-7, 45.0))
    @settings(max_examples=200, deadline=None)
    @given(band=_bands())
    def test_any_finite_design_filters_or_is_refused(self, band):
        sample_rate_hz, low_hz, high_hz = band
        rows = np.random.default_rng(4).normal(size=(64, 16))
        try:
            out = preprocess_recording(rows, sample_rate_hz, low_hz, high_hz)
        except FilterDesignError:
            return
        assert out.shape == rows.shape and np.isfinite(out).all()


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
