"""Welch power spectral density and spectral features.

Every feature consumes a :class:`Psd` and treats the normalized power
vector (power divided by total power) as a probability mass over the
frequency grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.signal

from eegfx.signals import Epoch

__all__ = [
    "Psd",
    "psd_welch",
    "iwmf",
    "iwbw",
    "sef",
    "median_frequency",
    "spectral_entropy",
    "peak_frequency",
]

_WELCH_SEGMENT = 256
_WELCH_OVERLAP = 0.5


@dataclass(frozen=True)
class Psd:
    """One-sided power spectral density estimate.

    ``freqs`` runs strictly increasing from 0 Hz to the Nyquist
    frequency; ``power`` holds one nonnegative value per bin.
    ``total_power`` is derived (sum of ``power``), not a constructor
    argument.
    """

    freqs: np.ndarray
    power: np.ndarray
    total_power: float = field(init=False)

    def __post_init__(self) -> None:
        freqs = np.asarray(self.freqs, dtype=np.float64)
        power = np.asarray(self.power, dtype=np.float64)
        if freqs.ndim != 1 or freqs.shape != power.shape or freqs.size < 2:
            raise ValueError("freqs and power must be matching 1-D vectors (>= 2 bins)")
        if freqs[0] != 0.0 or np.any(np.diff(freqs) <= 0):
            raise ValueError("frequency grid must increase strictly from 0")
        if not np.all(np.isfinite(power)) or np.any(power < 0):
            raise ValueError("power must be finite and nonnegative")
        freqs.flags.writeable = False
        power.flags.writeable = False
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "total_power", float(power.sum()))

    @property
    def nyquist(self) -> float:
        return float(self.freqs[-1])


def psd_welch(epoch: Epoch, segment: int = _WELCH_SEGMENT) -> Psd:
    """Welch PSD: Hamming window, ``segment``-sample segments, 50% overlap.

    One-sided estimate.  The epoch must be at least one segment long.
    """
    n = epoch.samples.size
    if segment < 4:
        raise ValueError(f"welch segment must be >= 4 samples, got {segment}")
    if n < segment:
        raise ValueError(f"epoch has {n} samples, welch needs >= {segment}")
    freqs, power = scipy.signal.welch(
        epoch.samples,
        fs=epoch.fs,
        window="hamming",
        nperseg=segment,
        noverlap=int(segment * _WELCH_OVERLAP),
    )
    # rounding noise in the FFT can leave tiny negative values
    return Psd(freqs=freqs, power=np.maximum(power, 0.0))


def _normalized(psd: Psd) -> np.ndarray:
    if psd.total_power <= 0.0:
        raise ValueError("zero total power, spectral features undefined")
    return psd.power / psd.total_power


def iwmf(psd: Psd) -> float:
    """Intensity weighted mean frequency: mean of the normalized PSD."""
    return float(_normalized(psd) @ psd.freqs)


def iwbw(psd: Psd) -> float:
    """Intensity weighted bandwidth: SD of the normalized PSD."""
    p = _normalized(psd)
    mu = float(p @ psd.freqs)
    return math.sqrt(float(p @ (psd.freqs - mu) ** 2))


def sef(psd: Psd, alpha: float) -> float:
    """Spectral edge frequency: smallest grid frequency whose cumulative
    normalized power reaches alpha percent.

    alpha may be 100, which lands on the last bin carrying power.
    """
    if not 0.0 < alpha <= 100.0:
        raise ValueError(f"alpha must be in (0, 100], got {alpha}")
    cum = np.cumsum(_normalized(psd))
    idx = int(np.searchsorted(cum, alpha / 100.0 - 1e-12))
    idx = min(idx, cum.size - 1)  # guards cumulative rounding at alpha=100
    return float(psd.freqs[idx])


def median_frequency(psd: Psd) -> float:
    """Frequency splitting the spectrum into equal power halves (SEF50)."""
    return sef(psd, 50.0)


def spectral_entropy(psd: Psd) -> float:
    """Shannon entropy of the normalized PSD in nats, 0 ln 0 := 0."""
    p = _normalized(psd)
    p = p[p > 0]
    return float(-(p @ np.log(p)))


def _half_max_edges(freqs: np.ndarray, power: np.ndarray, peak: int) -> tuple[float, float]:
    # walk outward to the half-maximum crossings; clip at the spectrum edge
    half = power[peak] / 2.0
    i = peak
    while i > 0 and power[i - 1] >= half:
        i -= 1
    if i == 0:
        left = float(freqs[0])
    else:
        frac = (half - power[i - 1]) / (power[i] - power[i - 1])
        left = float(freqs[i - 1] + frac * (freqs[i] - freqs[i - 1]))
    i = peak
    n = power.size
    while i < n - 1 and power[i + 1] >= half:
        i += 1
    if i == n - 1:
        right = float(freqs[-1])
    else:
        frac = (power[i] - half) / (power[i] - power[i + 1])
        right = float(freqs[i] + frac * (freqs[i + 1] - freqs[i]))
    return left, right


def peak_frequency(psd: Psd) -> tuple[float, float]:
    """Dominant spectral peak and its full-width-half-max bandwidth.

    Candidate peaks are the local maxima of the PSD (the global maximum
    when the spectrum is monotone).  Each candidate is scored by its
    average power over its own FWHM band; the best-scoring peak wins.
    Returns ``(peak_hz, bandwidth_hz)``.
    """
    _normalized(psd)  # rejects zero-power spectra
    power = psd.power
    freqs = psd.freqs
    peaks, _ = scipy.signal.find_peaks(power)
    if peaks.size == 0:
        peaks = np.array([int(np.argmax(power))])
    best_score = -math.inf
    best: tuple[float, float] = (float(freqs[peaks[0]]), 0.0)
    for idx in peaks:
        left, right = _half_max_edges(freqs, power, int(idx))
        band = (freqs >= left) & (freqs <= right)
        score = float(power[band].mean())
        if score > best_score:
            best_score = score
            best = (float(freqs[idx]), right - left)
    return best
