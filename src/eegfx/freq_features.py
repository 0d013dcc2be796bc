"""Welch power spectral density and spectral features.

Every feature consumes a :class:`Psd` and treats the normalized power
vector (power divided by total power) as a probability mass over the
frequency grid.  A batch :class:`Psd` (:func:`welch` of a matrix) gets
one value per row, as the 1-D call computes it, NaN where that raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from eegfx.signals import Epoch

__all__ = [
    "Psd",
    "psd_welch",
    "welch",
    "iwmf",
    "iwbw",
    "sef",
    "median_frequency",
    "spectral_entropy",
    "peak_frequency",
]

_WELCH_SEGMENT = 256


@dataclass(frozen=True)
class Psd:
    """One-sided power spectral density estimate, or a batch of them.

    ``freqs`` runs strictly increasing from 0 Hz to the Nyquist
    frequency; ``power`` holds one nonnegative value per bin, or one
    such row per signal.  A batch row of NaN is a spectrum that
    overflowed, undefined.
    """

    freqs: np.ndarray
    power: np.ndarray

    def __post_init__(self) -> None:
        # views, frozen below without freezing the caller's arrays
        freqs = np.asarray(self.freqs, dtype=np.float64).view()
        power = np.asarray(self.power, dtype=np.float64).view()
        if freqs.ndim != 1 or power.ndim > 2 or freqs.shape != power.shape[-1:] or freqs.size < 2:
            raise ValueError("freqs and power must be matching 1-D vectors (>= 2 bins)")
        if freqs[0] != 0.0 or np.any(np.diff(freqs) <= 0):
            raise ValueError("frequency grid must increase strictly from 0")
        undefined = np.isnan(power) if power.ndim == 2 else False
        if np.any(power < 0) or not np.all(np.isfinite(power) | undefined):
            raise ValueError("power must be finite and nonnegative")
        freqs.flags.writeable = False
        power.flags.writeable = False
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "power", power)


def welch(samples, fs: float, segment: int = _WELCH_SEGMENT) -> Psd:
    """One-sided Welch PSD of a signal or of each row of a matrix: Hamming
    window, ``segment``-sample segments, 50% overlap; signals must be at
    least one segment long.  A row whose power overflows is NaN in a batch;
    a 1-D signal raises."""
    samples = np.asarray(samples, dtype=np.float64)
    n = samples.shape[-1]
    if segment < 4:
        raise ValueError(f"welch segment must be >= 4 samples, got {segment}")
    if n < segment:
        raise ValueError(f"epoch has {n} samples, welch needs >= {segment}")
    # the periodic Hamming window scaled to a density, each segment's mean
    # removed, the segments averaged along a contiguous axis: the order of
    # every step sets the last bit, which the tests pin with ==
    hop = segment - segment // 2
    count = (n - segment // 2) // hop
    window = 0.54 + (1.0 - 0.54) * np.cos(np.linspace(-math.pi, math.pi, segment + 1)[:-1])
    window *= 1 / np.sqrt(sum(window**2) / (1 / fs))
    segments = sliding_window_view(samples, segment, axis=-1)[..., : count * hop : hop, :]
    spectra = np.fft.rfft((segments - segments.mean(axis=-1, keepdims=True)) * window)
    power = spectra.real**2 + spectra.imag**2
    power[..., 1 : -1 if segment % 2 == 0 else None] *= 2
    power = np.moveaxis(power, -2, -1).copy().mean(axis=-1)
    freqs = np.fft.rfftfreq(segment, 1 / fs)
    overflow = ~np.isfinite(power).all(axis=-1, keepdims=True)
    return Psd(freqs=freqs, power=np.where(overflow, math.nan, power))


def psd_welch(epoch: Epoch, segment: int = _WELCH_SEGMENT) -> Psd:
    """Welch PSD of one epoch; see :func:`welch`."""
    return welch(epoch.samples, epoch.fs, segment)


def _normalized(psd: Psd) -> np.ndarray:
    total = psd.power.sum(axis=-1, keepdims=True)
    if psd.power.ndim == 1 and total[0] <= 0.0:
        raise ValueError("zero total power, spectral features undefined")
    with np.errstate(invalid="ignore"):  # a zero-power batch row is 0/0: NaN
        return psd.power / total


def iwmf(psd: Psd) -> float:
    """Intensity weighted mean frequency: mean of the normalized PSD."""
    return np.vecdot(_normalized(psd), psd.freqs)


def iwbw(psd: Psd) -> float:
    """Intensity weighted bandwidth: SD of the normalized PSD."""
    p = _normalized(psd)
    mu = np.vecdot(p, psd.freqs)
    return np.sqrt(np.vecdot(p, (psd.freqs - mu[..., None]) ** 2))


def sef(psd: Psd, alpha: float) -> float:
    """Spectral edge frequency: smallest grid frequency whose cumulative
    normalized power reaches alpha percent.

    alpha may be 100, which lands on the last bin carrying power.
    """
    if not 0.0 < alpha <= 100.0:
        raise ValueError(f"alpha must be in (0, 100], got {alpha}")
    cum = np.cumsum(_normalized(psd), axis=-1)
    idx = (cum < alpha / 100.0 - 1e-12).sum(axis=-1)
    idx = np.minimum(idx, cum.shape[-1] - 1)  # guards cumulative rounding at alpha=100
    return psd.freqs[idx] + 0.0 * cum[..., -1]  # + 0, or NaN on an undefined row


def median_frequency(psd: Psd) -> float:
    """Frequency splitting the spectrum into equal power halves (SEF50)."""
    return sef(psd, 50.0)


def spectral_entropy(psd: Psd) -> float:
    """Shannon entropy of the normalized PSD in nats, 0 ln 0 := 0."""
    p = _normalized(psd)
    with np.errstate(invalid="ignore"):
        log_p = np.log(np.where(p > 0, p, 1.0))
    return -np.vecdot(p, log_p)


def _local_maxima(power: np.ndarray) -> list[np.ndarray]:
    """Each row's local maxima: a rise followed by a fall in the same row,
    at the middle of a plateau, rounded down."""
    steps = np.diff(power)
    rows, cols = np.nonzero(steps)  # each row's rises and falls, in order
    rise = steps[rows, cols] > 0
    top = rise[:-1] & ~rise[1:] & (rows[:-1] == rows[1:])
    peaks = (cols[:-1][top] + 1 + cols[1:][top]) // 2
    return np.split(peaks, np.searchsorted(rows[:-1][top], np.arange(1, len(power))))


def _dominant_peak(freqs: np.ndarray, power: np.ndarray, peaks: np.ndarray) -> tuple[float, float]:
    if peaks.size == 0:
        peaks = np.array([int(np.argmax(power))])
    # walk outward to the half-maximum crossings, all peaks at once: the
    # walk stops at the nearest bin below half power; clip at the edges
    n = power.size
    half = power[peaks] / 2.0
    below = power < half[:, None]
    bins = np.arange(n)
    i = np.where(below & (bins < peaks[:, None]), bins, -1).max(axis=1) + 1
    j = np.where(below & (bins > peaks[:, None]), bins, n).min(axis=1) - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = (half - power[i - 1]) / (power[i] - power[i - 1])
        left = np.where(i == 0, freqs[0], freqs[i - 1] + frac * (freqs[i] - freqs[i - 1]))
        k = np.minimum(j + 1, n - 1)
        frac = (power[j] - half) / (power[j] - power[k])
        right = np.where(j == n - 1, freqs[-1], freqs[j] + frac * (freqs[k] - freqs[j]))
    # each peak's band is the contiguous run of bins inside its FWHM
    lo = np.searchsorted(freqs, left, side="left")
    hi = np.searchsorted(freqs, right, side="right")
    scores = [power[a:b].mean() for a, b in zip(lo, hi)]
    best = int(np.argmax(scores))
    return float(freqs[peaks[best]]), float(right[best] - left[best])


def peak_frequency(psd: Psd) -> tuple[float, float]:
    """Dominant spectral peak and its full-width-half-max bandwidth.

    Candidate peaks are the local maxima of the PSD (the global maximum
    when the spectrum is monotone).  Each candidate is scored by its
    average power over its own FWHM band; the best-scoring peak wins.
    Returns ``(peak_hz, bandwidth_hz)``, arrays for a batch.
    """
    defined = ~np.isnan(_normalized(psd)[..., :1])  # rejects a zero-power spectrum
    power = np.atleast_2d(psd.power)
    peaks = [
        _dominant_peak(psd.freqs, row, maxima) if ok else (math.nan, math.nan)
        for row, maxima, ok in zip(power, _local_maxima(power), np.atleast_2d(defined)[:, 0])
    ]
    return peaks[0] if psd.power.ndim == 1 else tuple(np.array(peaks).T)
