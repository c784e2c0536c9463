"""Signal conditioning: Butterworth band-pass design, zero-phase filtering,
and train-statistics standardization, in numpy alone.

The band-pass cascade follows the classic design steps: an order-N analog
Butterworth prototype, a low-pass to band-pass transformation around the
pre-warped band edges, and the bilinear transform. Its poles and zeros are
paired into second-order sections by the "nearest" rule: the pole closest to
the unit circle goes into the last free section, with the zeros nearest to
it.

Zero-phase filtering runs the cascade forward and then backward over an
odd-reflection extension of the signal, so the net magnitude response is
|H|^2 with no phase distortion. Each pass starts from the cascade's
steady state for a step at the first sample, as in Gustafsson, *Determining
the initial states in forward-backward filtering* (IEEE TSP, 1996). A pass
is a block state-space filter (Burrus, *Block realization of digital
filters*, IEEE Trans. Audio Electroacoust., 1972): the sections become one
state-space system in their transposed direct form II coordinates, and the
signal is processed in blocks of ``BLOCK`` samples. Within a block the
output is a Toeplitz matrix of the impulse response times the block's input,
plus the block's entry state seen through ``C A^i``; only the entry states
are carried from block to block in a Python loop. Channels form the leading
batch axis of every matrix product, so each channel's arithmetic is the same
whether it is filtered alone or with others.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, FilterDesignError

STD_FLOOR = 1e-8
DEFAULT_BAND = (0.5, 45.0)
DEFAULT_SAMPLE_RATE = 256.0
FILTER_ORDER = 4  # Butterworth order of the preprocessing band-pass
NUM_CHANNELS = 16
# samples per block of the block state-space filter (a power of two)
BLOCK = 128


@dataclass
class BiquadCascade:
    """Second-order sections [n, 6] as (b0, b1, b2, 1, a1, a2) rows, one per
    filter order, plus the sample rate they were designed for."""

    sections: np.ndarray
    sample_rate_hz: float

    def poles(self) -> np.ndarray:
        """Poles of every section in the z-plane."""
        return np.concatenate([np.roots(sec[3:]) for sec in self.sections])

    def is_stable(self) -> bool:
        return bool(np.all(np.abs(self.poles()) < 1.0))


def butter_bandpass_design(
    order: int = FILTER_ORDER,
    low_hz: float = DEFAULT_BAND[0],
    high_hz: float = DEFAULT_BAND[1],
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE,
) -> BiquadCascade:
    """Design the band-pass cascade; band edges land at the -3 dB points."""
    if isinstance(order, bool) or not isinstance(order, numbers.Integral) or order < 1:
        raise FilterDesignError(f"filter order must be an integer >= 1, got {order!r}")
    if not math.isfinite(sample_rate_hz):
        raise FilterDesignError(f"sample rate must be finite, got {sample_rate_hz} Hz")
    if not 0.0 < low_hz < high_hz < sample_rate_hz / 2.0:
        raise FilterDesignError(
            f"band edges ({low_hz}, {high_hz}) Hz must satisfy "
            f"0 < low < high < Nyquist ({sample_rate_hz / 2.0} Hz)"
        )
    poles, gain = _bandpass_poles(order, low_hz, high_hz, sample_rate_hz)
    cascade = BiquadCascade(
        sections=_pair_sections(poles, gain, order),
        sample_rate_hz=sample_rate_hz,
    )
    if not cascade.is_stable():
        raise FilterDesignError("designed cascade has poles on or outside the unit circle")
    return cascade


def _bandpass_poles(order, low_hz, high_hz, sample_rate_hz):
    """z-plane poles and gain of the digital band-pass; its zeros are
    ``order`` at z=1 and ``order`` at z=-1."""
    m = np.arange(-order + 1, order, 2, dtype=np.float64)
    prototype = -np.exp(1j * np.pi * m / (2 * order))
    # edges as fractions of Nyquist, pre-warped for a bilinear transform at
    # a sample rate of 2 (so 2*fs = 4)
    wn = np.array([low_hz, high_hz], dtype=np.float64) / (sample_rate_hz / 2.0)
    warped = 4.0 * np.tan(np.pi * wn / 2.0)
    bw = warped[1] - warped[0]
    w0 = np.sqrt(warped[0] * warped[1])
    shifted = prototype * bw / 2
    root = np.sqrt(shifted**2 - w0**2)
    analog = np.concatenate((shifted + root, shifted - root))
    poles = (4.0 + analog) / (4.0 - analog)
    # bw**N undoes the band-pass scaling; the analog zeros at the origin and
    # the poles set the bilinear transform's gain change
    gain = bw**order * np.real(4.0**order / np.prod(4.0 - analog))
    return poles, gain


def _pair_sections(poles, gain, order) -> np.ndarray:
    """Second-order sections by "nearest" pairing. Working from the last
    section to the first, the remaining pole closest to the unit circle is
    joined by its conjugate (a real pole by the real pole next closest to the
    circle) and by the two remaining zeros nearest to it. The gain goes on
    section 0."""
    tol = 100 * np.finfo(np.float64).eps
    real = np.abs(poles.imag) <= tol * np.abs(poles)
    upper = poles[~real & (poles.imag > 0)]
    # one member per conjugate pair, then the real poles, each sorted
    p = np.concatenate(
        (upper[np.lexsort((np.abs(upper.imag), upper.real))], np.sort(poles[real].real))
    )
    z = np.concatenate((-np.ones(order), np.ones(order)))
    sections = np.zeros((order, 6))
    for si in range(order - 1, -1, -1):
        worst = np.argmin(np.abs(1 - np.abs(p)))
        p1 = p[worst]
        p = np.delete(p, worst)
        if np.isreal(p1):
            left = np.flatnonzero(np.isreal(p))
            second = left[np.argmin(np.abs(1 - np.abs(p[left])))]
            p2 = p[second]
            p = np.delete(p, second)
        else:
            p2 = np.conj(p1)
        # every zero is real, so these are the nearest and the next nearest
        near = np.argsort(np.abs(z - p1), kind="stable")[:2]
        z1, z2 = z[near]
        z = np.delete(z, near)
        sections[si] = (
            1.0, -(z1 + z2), z1 * z2, 1.0, np.real(-(p1 + p2)), np.real(p1 * p2)
        )
    sections[0, :3] *= gain
    return sections


def frequency_response(cascade: BiquadCascade, f_hz) -> np.ndarray | float:
    """|H(e^{j omega})| at ``f_hz`` (a scalar or a 1-D array of Hz)."""
    f = np.asarray(f_hz, dtype=np.float64)
    if np.any(f < 0) or np.any(f > cascade.sample_rate_hz / 2.0):
        raise FilterDesignError(f"frequency outside [0, Nyquist]: {f_hz}")
    zm1 = np.exp(-2j * np.pi * np.atleast_1d(f) / cascade.sample_rate_hz)
    h = np.ones_like(zm1)
    for b0, b1, b2, a0, a1, a2 in cascade.sections:
        h *= (b0 + zm1 * (b1 + zm1 * b2)) / (a0 + zm1 * (a1 + zm1 * a2))
    mag = np.abs(h)
    return float(mag[0]) if np.isscalar(f_hz) else mag


def filtfilt(cascade: BiquadCascade, x) -> np.ndarray:
    """Zero-phase filtering along axis 0 of a 1-D signal or of [N, C]
    channel columns, each column on its own; odd-reflection padding of
    length 3*(2*n+1) for n sections."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise DataError(
            f"filtfilt expects a 1-D signal or [N, C] columns, got shape {x.shape}"
        )
    pad = 3 * (2 * len(cascade.sections) + 1)
    if len(x) <= pad:
        raise DataError(f"signal length {len(x)} too short for padding {pad}")
    # channels first: [C, N]
    cols = x.reshape(len(x), -1).T
    ext = np.concatenate(
        (
            2 * cols[:, :1] - cols[:, pad:0:-1],
            cols,
            2 * cols[:, -1:] - cols[:, -2 : -(pad + 2) : -1],
        ),
        axis=1,
    )
    system = _BlockFilter(cascade.sections)
    y = system(ext)
    y = system(y[:, ::-1])[:, ::-1]
    out = y[:, pad:-pad].T
    return out.reshape(x.shape)


class _BlockFilter:
    """The cascade as one state-space system (A, B, C, D) in the sections'
    DF2T coordinates, with the block matrices of a ``BLOCK``-sample step."""

    def __init__(self, sections: np.ndarray):
        n = 2 * len(sections)
        a = np.zeros((n, n))
        b = np.zeros(n)
        c = np.zeros(n)
        d = 1.0
        for k, (b0, b1, b2, _, a1, a2) in enumerate(sections):
            i = 2 * k
            # this section's input is c @ state + d * x
            drive = np.array([b1 - a1 * b0, b2 - a2 * b0])
            a[i : i + 2] += np.outer(drive, c)
            a[i : i + 2, i : i + 2] = [[-a1, 1.0], [-a2, 0.0]]
            b[i : i + 2] = drive * d
            c *= b0
            c[i] = 1.0
            d *= b0
        # state after a long unit step; I - A is singular if rounding puts a pole at z = 1
        try:
            self.steady = np.linalg.solve(np.eye(n) - a, b)
        except np.linalg.LinAlgError:
            raise FilterDesignError("the band-pass design has a pole at z = 1 in float64") from None
        # A^i for i <= BLOCK, one product at a time (repeated squaring loses
        # digits on poles near the unit circle)
        powers = [np.eye(n)]
        for _ in range(BLOCK):
            powers.append(a @ powers[-1])
        powers = np.array(powers)
        seen = c @ powers[:-1]  # rows c A^i
        reach = powers[:-1] @ b  # rows A^i b
        impulse = np.concatenate(([d], seen[:-1] @ b))
        lag = np.subtract.outer(np.arange(BLOCK), np.arange(BLOCK))
        # y_block = x_block @ toeplitz.T + entry_state @ seen.T
        self.toeplitz_t = np.where(lag >= 0, impulse[np.maximum(lag, 0)], 0.0).T
        self.seen_t = seen.T
        # entry state of the next block = A^BLOCK entry + x_block @ reach[::-1]
        self.reach_rev = np.ascontiguousarray(reach[::-1])
        self.power_t = powers[-1].T

    def __call__(self, u: np.ndarray) -> np.ndarray:
        """Filter the rows of ``u`` [C, N], each from the steady state of a
        step at its first sample."""
        channels, n = u.shape
        blocks = -(-n // BLOCK)
        padded = np.zeros((channels, blocks * BLOCK))
        padded[:, :n] = u
        padded = padded.reshape(channels, blocks, BLOCK)
        drive = padded @ self.reach_rev
        entry = np.empty_like(drive)
        state = u[:, :1, None] * self.steady
        for j in range(blocks):
            entry[:, j : j + 1] = state
            state = state @ self.power_t + drive[:, j : j + 1]
        y = padded @ self.toeplitz_t
        y += entry @ self.seen_t
        return y.reshape(channels, -1)[:, :n]


def preprocess_recording(
    features,
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE,
    low_hz: float = DEFAULT_BAND[0],
    high_hz: float = DEFAULT_BAND[1],
) -> np.ndarray:
    """Band-pass every channel column of an [N, 16] recording independently,
    over the full series, before any split-dependent step."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[1] != NUM_CHANNELS:
        raise DataError(
            f"expected [N, {NUM_CHANNELS}] channel columns, got shape {feats.shape}"
        )
    cascade = butter_bandpass_design(FILTER_ORDER, low_hz, high_hz, sample_rate_hz)
    return filtfilt(cascade, feats)


@dataclass
class Standardizer:
    """Per-channel affine transform fitted on the training rows only."""

    mean: np.ndarray
    std: np.ndarray


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
    return Standardizer(mean=mean, std=std)


def apply_standardizer(standardizer: Standardizer, rows) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    return (rows - standardizer.mean) / standardizer.std
