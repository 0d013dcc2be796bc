"""Multi-level discrete wavelet transform and sub-band features.

The DWT is a Mallat filter-bank cascade over Daubechies orthonormal
filters.  Each level runs the analysis pair as a circular convolution,
so the coefficient energy of every level equals the energy of its
input exactly and the full decomposition partitions the signal energy
across D1..DL plus A_L.  Odd-length inputs are padded with one repeat
of their final sample before filtering; the pad is deterministic, so
reconstruction stays exact at every length.

Sub-band features are the time-domain statistics of each band's
coefficient sequence: the moments of :func:`time_features.moments`,
min, max, energy and line length, so a band value equals the 1-D
function applied to ``decomp.band(name)``.  Both also take each row of a
matrix; they work along the last axis only, so batch rows equal 1-D calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from eegfx.time_features import energy, line_length, moments

__all__ = [
    "BAND_FEATURES",
    "LEVELS",
    "WaveletDecomposition",
    "dwt",
    "idwt",
    "subband_features",
    "WAVELETS",
]

_SQRT3 = math.sqrt(3.0)
_SQRT2 = math.sqrt(2.0)

# Daubechies scaling filters keyed by tap count.
WAVELETS: Mapping[str, tuple[float, ...]] = {
    "d4": (
        (1.0 + _SQRT3) / (4.0 * _SQRT2),
        (3.0 + _SQRT3) / (4.0 * _SQRT2),
        (3.0 - _SQRT3) / (4.0 * _SQRT2),
        (1.0 - _SQRT3) / (4.0 * _SQRT2),
    ),
    "d8": (
        0.23037781330885523,
        0.7148465705525415,
        0.6308807679295904,
        -0.02798376941698385,
        -0.18703481171888114,
        0.030841381835986965,
        0.032883011666982945,
        -0.010597401784997278,
    ),
}


def _band_names(levels: int) -> tuple[str, ...]:
    return tuple(f"D{k}" for k in range(1, levels + 1)) + (f"A{levels}",)


# The band layout the feature catalog reads: the subband_features keys of
# a LEVELS-deep decomposition, statistics in _STATISTICS order per band.
LEVELS = 5
_STATISTICS = (
    "Mean", "AbsMean", "Variance", "Skewness", "Kurtosis", "Min", "Max", "Energy", "LineLength"
)
BAND_FEATURES = tuple(f"{stat}{band}" for band in _band_names(LEVELS) for stat in _STATISTICS)


def _filter_bank(wavelet_id: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    key = wavelet_id.lower()
    if key not in WAVELETS:
        raise ValueError(f"unknown wavelet {wavelet_id!r}, choose from {sorted(WAVELETS)}")
    rec_lo = np.array(WAVELETS[key], dtype=np.float64)
    taps = rec_lo.size
    rec_hi = (-1.0) ** np.arange(taps) * rec_lo[::-1]
    return rec_lo[::-1], rec_hi[::-1], rec_lo, rec_hi


@dataclass(frozen=True)
class WaveletDecomposition:
    """Coefficients of a multi-level DWT.

    ``details`` holds D1 (finest) through DL; ``approx`` is A_L.  Each
    is a vector, or one row per signal for a batch (not invertible).
    ``length`` records the analyzed sample count so the inverse can
    crop pad samples away.
    """

    details: tuple[np.ndarray, ...]
    approx: np.ndarray
    wavelet_id: str
    length: int

    def __post_init__(self) -> None:
        # views, frozen below without freezing the caller's arrays
        details = tuple(np.asarray(d, dtype=np.float64).view() for d in self.details)
        approx = np.asarray(self.approx, dtype=np.float64).view()
        if not details:
            raise ValueError("need at least one detail sequence")
        if approx.shape != details[-1].shape:
            raise ValueError("approx and deepest detail must have equal length")
        for shallow, deep in zip(details, details[1:]):
            if abs(deep.shape[-1] - shallow.shape[-1] / 2) > 1:
                raise ValueError("detail lengths must halve level to level")
        for arr in (*details, approx):
            if arr.ndim not in (1, 2) or not np.all(np.isfinite(arr)):
                raise ValueError("coefficients must be finite vectors or rows")
            arr.flags.writeable = False
        object.__setattr__(self, "details", details)
        object.__setattr__(self, "approx", approx)

    @property
    def levels(self) -> int:
        return len(self.details)

    @property
    def band_names(self) -> tuple[str, ...]:
        return _band_names(self.levels)

    def band(self, name: str) -> np.ndarray:
        for label, coeffs in zip(self.band_names, (*self.details, self.approx)):
            if label == name:
                return coeffs
        raise KeyError(f"no band {name!r} in {self.band_names}")


def _analyze(a: np.ndarray, dec_lo: np.ndarray, dec_hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # circular convolution of each row at the odd outputs; taps summed last first, as np.convolve
    if a.shape[-1] % 2:
        a = np.concatenate([a, a[..., -1:]], axis=-1)
    n = a.shape[-1]
    taps = dec_lo.size
    wrap = a[..., 1 - taps :] if n >= taps - 1 else a[..., np.arange(1 - taps, 0) % n]
    ext = np.concatenate([wrap, a], axis=-1)
    window = ext[..., 1 : n + 1 : 2]
    lo, hi = dec_lo[-1] * window, dec_hi[-1] * window
    for k in range(taps - 2, -1, -1):
        window = ext[..., taps - k : taps - k + n : 2]
        lo += dec_lo[k] * window
        hi += dec_hi[k] * window
    return lo, hi


def _synthesize(
    a: np.ndarray,
    d: np.ndarray,
    rec_lo: np.ndarray,
    rec_hi: np.ndarray,
    n_out: int,
) -> np.ndarray:
    m = a.size
    up = np.zeros(2 * m)
    up[0::2] = a
    rec = np.convolve(up, rec_lo)
    up[0::2] = d
    rec = rec + np.convolve(up, rec_hi)
    out = rec[: 2 * m].copy()
    tail = rec[2 * m :]
    # fold the convolution tail back circularly, then undo the analysis shift
    np.add.at(out, np.arange(tail.size) % (2 * m), tail)
    out = np.roll(out, -(rec_lo.size - 2))
    return out[:n_out]


def _samples_of(signal) -> np.ndarray:
    a = np.asarray(signal, dtype=np.float64)
    if a.ndim not in (1, 2) or a.shape[-1] < 2:
        raise ValueError("need a 1-D signal (or rows of a matrix) of length >= 2")
    if not np.all(np.isfinite(a)):
        raise ValueError("signal must be finite")
    return a


def dwt(signal, wavelet: str = "d4", levels: int = LEVELS) -> WaveletDecomposition:
    """Decompose a sample vector or each matrix row into ``levels`` bands.

    Requires at least 2**levels samples so the deepest band is nonempty.
    """
    x = _samples_of(signal)
    dec_lo, dec_hi, _, _ = _filter_bank(wavelet)
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    if x.shape[-1] < 2**levels:
        raise ValueError(f"{x.shape[-1]} samples too short for a {levels}-level decomposition")
    details = []
    a = x
    for _ in range(levels):
        a, d = _analyze(a, dec_lo, dec_hi)
        details.append(d)
    return WaveletDecomposition(
        details=tuple(details),
        approx=a,
        wavelet_id=wavelet.lower(),
        length=x.shape[-1],
    )


def idwt(decomp: WaveletDecomposition) -> np.ndarray:
    """Reconstruct the analyzed signal from its decomposition."""
    _, _, rec_lo, rec_hi = _filter_bank(decomp.wavelet_id)
    lengths = [decomp.length]
    for _ in range(decomp.levels - 1):
        lengths.append((lengths[-1] + 1) // 2)
    a = decomp.approx
    for d, n_out in zip(reversed(decomp.details), reversed(lengths)):
        if a.size != d.size:
            raise ValueError("approx/detail length mismatch in decomposition")
        a = _synthesize(a, d, rec_lo, rec_hi, n_out)
    return a


def subband_features(decomp: WaveletDecomposition) -> dict[str, float]:
    """Per-band features, keyed ``<Feature><Band>`` (for example EnergyD1).

    Mean, absolute mean, variance, skewness, kurtosis, min, max, energy,
    and line length of each band's coefficient sequence, each as the
    time-domain function computes it; one value per row for a batch.
    """
    out: dict[str, float] = {}
    for band_name, coeffs in zip(decomp.band_names, (*decomp.details, decomp.approx)):
        if coeffs.shape[-1] < 2:
            raise ValueError(f"band {band_name} has {coeffs.shape[-1]} coefficient(s), need >= 2")
        mean, var, _, skew, kurt = moments(coeffs)
        values = (
            mean, np.abs(coeffs).mean(axis=-1), var, skew, kurt,
            coeffs.min(axis=-1), coeffs.max(axis=-1), energy(coeffs), line_length(coeffs),
        )
        for stat, value in zip(_STATISTICS, values, strict=True):
            out[f"{stat}{band_name}"] = value if coeffs.ndim == 2 else float(value)
    return out
