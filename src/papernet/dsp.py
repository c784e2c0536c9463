"""Signal conditioning: Butterworth band-pass design, zero-phase filtering,
and train-statistics standardization.

The band-pass cascade comes from an order-4 analog Butterworth prototype
(low-pass to band-pass transformation, bilinear transform with frequency
pre-warping), realized as second-order sections. Zero-phase filtering is
scipy's ``sosfiltfilt``: the cascade runs forward and backward over an
odd-reflection extension so the net magnitude response is |H|^2 with no
phase distortion.

``scipy.signal`` is imported inside the three functions that call it, so
importing the package (and serving a model) loads no scipy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, FilterDesignError

STD_FLOOR = 1e-8
DEFAULT_BAND = (0.5, 45.0)
DEFAULT_SAMPLE_RATE = 256.0
NUM_CHANNELS = 16


@dataclass
class BiquadCascade:
    """Second-order sections [n, 6] as (b0, b1, b2, 1, a1, a2) rows, plus the
    design metadata they were generated from."""

    sections: np.ndarray
    order: int
    low_hz: float
    high_hz: float
    sample_rate_hz: float

    @property
    def nyquist(self) -> float:
        return self.sample_rate_hz / 2.0

    def poles(self) -> np.ndarray:
        """Poles of every section in the z-plane."""
        return np.concatenate([np.roots(sec[3:]) for sec in self.sections])

    def is_stable(self) -> bool:
        return bool(np.all(np.abs(self.poles()) < 1.0))


def butter_bandpass_design(
    order: int = 4,
    low_hz: float = DEFAULT_BAND[0],
    high_hz: float = DEFAULT_BAND[1],
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE,
) -> BiquadCascade:
    """Design the band-pass cascade; band edges land at the -3 dB points."""
    from scipy import signal

    if not math.isfinite(sample_rate_hz):
        raise FilterDesignError(f"sample rate must be finite, got {sample_rate_hz} Hz")
    if not 0.0 < low_hz < high_hz < sample_rate_hz / 2.0:
        raise FilterDesignError(
            f"band edges ({low_hz}, {high_hz}) Hz must satisfy "
            f"0 < low < high < Nyquist ({sample_rate_hz / 2.0} Hz)"
        )
    sos = signal.butter(
        order, [low_hz, high_hz], btype="bandpass", fs=sample_rate_hz, output="sos"
    )
    cascade = BiquadCascade(
        sections=np.asarray(sos, dtype=np.float64),
        order=order,
        low_hz=low_hz,
        high_hz=high_hz,
        sample_rate_hz=sample_rate_hz,
    )
    if not cascade.is_stable():
        raise FilterDesignError("designed cascade has poles on or outside the unit circle")
    return cascade


def frequency_response(cascade: BiquadCascade, f_hz) -> np.ndarray | float:
    """|H(e^{j omega})| at ``f_hz`` (a scalar or a 1-D array of Hz)."""
    from scipy import signal

    f = np.asarray(f_hz, dtype=np.float64)
    if np.any(f < 0) or np.any(f > cascade.nyquist):
        raise FilterDesignError(f"frequency outside [0, Nyquist]: {f_hz}")
    _, h = signal.sosfreqz(
        cascade.sections, worN=np.atleast_1d(f), fs=cascade.sample_rate_hz
    )
    mag = np.abs(h)
    return float(mag[0]) if np.isscalar(f_hz) else mag


def filtfilt(cascade: BiquadCascade, x) -> np.ndarray:
    """Zero-phase filtering along axis 0 of a 1-D signal or of [N, C]
    channel columns, each column on its own; odd-reflection padding of
    length 3*(2*order+1)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise DataError(
            f"filtfilt expects a 1-D signal or [N, C] columns, got shape {x.shape}"
        )
    pad = 3 * (2 * cascade.order + 1)
    if len(x) <= pad:
        raise DataError(f"signal length {len(x)} too short for padding {pad}")
    from scipy import signal

    return signal.sosfiltfilt(cascade.sections, x, axis=0, padlen=pad)


def preprocess_recording(
    features,
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE,
    low_hz: float = DEFAULT_BAND[0],
    high_hz: float = DEFAULT_BAND[1],
    order: int = 4,
) -> np.ndarray:
    """Band-pass every channel column of an [N, 16] recording independently,
    over the full series, before any split-dependent step."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[1] != NUM_CHANNELS:
        raise DataError(
            f"expected [N, {NUM_CHANNELS}] channel columns, got shape {feats.shape}"
        )
    cascade = butter_bandpass_design(order, low_hz, high_hz, sample_rate_hz)
    return filtfilt(cascade, feats)


@dataclass
class Standardizer:
    """Per-channel affine transform fitted on the training rows only."""

    mean: np.ndarray
    std: np.ndarray
    fitted_on: str


def fit_standardizer(filtered, train_indices) -> Standardizer:
    """Channel means and stds over the training rows; stds are floored at
    1e-8 (a degenerate constant channel draws a warning)."""
    feats = np.asarray(filtered, dtype=np.float64)
    idx = np.asarray(train_indices, dtype=np.int64)
    if idx.size == 0:
        raise DataError("cannot fit a standardizer on zero training rows")
    rows = feats[idx]
    mean = rows.mean(axis=0)
    std = rows.std(axis=0)
    degenerate = std < STD_FLOOR
    if np.any(degenerate):
        warnings.warn(
            f"constant channel(s) {np.flatnonzero(degenerate).tolist()}: "
            "std floored at 1e-8",
            stacklevel=2,
        )
        std = np.where(degenerate, STD_FLOOR, std)
    return Standardizer(mean=mean, std=std, fitted_on=f"train[n={idx.size}]")


def apply_standardizer(standardizer: Standardizer, rows) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    return (rows - standardizer.mean) / standardizer.std
