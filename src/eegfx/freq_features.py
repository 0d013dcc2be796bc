"""Welch power spectral density and spectral features.

Every feature consumes a :class:`Psd` and treats the normalized power
vector (power divided by total power) as a probability mass over the
frequency grid.  A batch :class:`Psd` (:func:`welch` of a matrix) gets
one value per row, as the 1-D call computes it, NaN where that raises.

The dominant-peak search runs once down the whole batch, a 1-D call as a
batch of one row.  It takes every row's candidate peaks as one flat
list: one half-maximum walk over all of them, in blocks of bounded size,
then one mean per FWHM band, gathered by band length so that each band
sums in the order a 1-D ``.mean()`` does.
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

# Cells (peaks x bins) per block of the peak search, so that its temporaries
# stay near a MiB each for any batch size.
_WALK_CELLS = 1 << 16


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


def _local_maxima(power: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, bin) of every local maximum of a PSD matrix, row by row in bin
    order: a rise followed by a fall in the same row, at the middle of a
    plateau, rounded down."""
    steps = np.diff(power)
    rows, cols = np.nonzero(steps)  # each row's rises and falls, in order
    rise = steps[rows, cols] > 0
    top = rise[:-1] & ~rise[1:] & (rows[:-1] == rows[1:])
    return rows[:-1][top], (cols[:-1][top] + 1 + cols[1:][top]) // 2


def _candidates(power: np.ndarray, defined: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, bin) of every candidate peak of the defined rows, row by row in
    bin order: the local maxima, or the global maximum of a monotone row."""
    rows, peaks = _local_maxima(power)  # none in a zero or a NaN row
    flat = np.flatnonzero(defined & (np.bincount(rows, minlength=len(power)) == 0))
    rows = np.concatenate([rows, flat])
    order = np.argsort(rows, kind="stable")
    return rows[order], np.concatenate([peaks, power[flat].argmax(axis=1)])[order]


def _half_power_walk(power: np.ndarray, rows: np.ndarray, peaks: np.ndarray):
    """Each peak's half power and its walk's stops (i, j): the bins next to
    the nearest bins below half power on either side, or the row's edges.
    Runs in blocks of about ``_WALK_CELLS`` (peak, bin) cells."""
    n = power.shape[1]
    half = power[rows, peaks] / 2.0
    i, j = np.empty_like(peaks), np.empty_like(peaks)
    step = max(1, _WALK_CELLS // n)
    for s in range(0, peaks.size, step):
        below = power[rows[s : s + step]] < half[s : s + step, None]
        before = below & (np.arange(n) < peaks[s : s + step, None])
        below ^= before  # the peak's own bin is never below: the bins after it
        # argmax 0 is "none": bin n - 1 is never before a peak, bin 0 never after
        last = before[:, ::-1].argmax(axis=1)
        first = below.argmax(axis=1)
        i[s : s + step] = np.where(last == 0, 0, n - last)
        j[s : s + step] = np.where(first == 0, n, first) - 1
    return half, i, j


def _band_means(power: np.ndarray, rows: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """power[row, lo:hi].mean() of each band, NaN for an empty one.  Bands of
    one length L are gathered into contiguous (count, L) blocks and summed
    along their rows, which adds each band in the order a 1-D ``.mean()``
    does; ``np.add.reduceat`` adds in another order."""
    flat = power.ravel()
    length = hi - lo
    order = np.argsort(length, kind="stable")
    starts = (rows * power.shape[1] + lo)[order]
    sums = np.full(order.size, math.nan)  # an empty band's mean is NaN
    sizes, firsts = np.unique(length[order], return_index=True)
    ends = [*firsts[1:].tolist(), order.size]
    for size, first, end in zip(sizes.tolist(), firsts.tolist(), ends):
        if size <= 0:
            continue
        chunk = max(1, _WALK_CELLS // size)
        for s in range(first, end, chunk):
            e = min(s + chunk, end)
            sums[s:e] = flat[starts[s:e, None] + np.arange(size)].sum(axis=1)
    means = np.empty_like(sums)
    means[order] = sums / length[order]
    return means


def _dominant_peaks(freqs: np.ndarray, power: np.ndarray, defined: np.ndarray):
    """(peak_hz, bandwidth_hz) of each row of a PSD matrix, NaN where not defined."""
    peak_hz = np.full(len(power), math.nan)
    bandwidth = np.full(len(power), math.nan)
    rows, peaks = _candidates(power, defined)
    if rows.size == 0:
        return peak_hz, bandwidth
    half, i, j = _half_power_walk(power, rows, peaks)
    # interpolate to the half-maximum crossings; clip at the edges
    n = power.shape[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = (half - power[rows, i - 1]) / (power[rows, i] - power[rows, i - 1])
        left = np.where(i == 0, freqs[0], freqs[i - 1] + frac * (freqs[i] - freqs[i - 1]))
        k = np.minimum(j + 1, n - 1)
        frac = (power[rows, j] - half) / (power[rows, j] - power[rows, k])
        right = np.where(j == n - 1, freqs[-1], freqs[j] + frac * (freqs[k] - freqs[j]))
    # each peak's band is the contiguous run of bins inside its FWHM
    lo = np.searchsorted(freqs, left, side="left")
    hi = np.searchsorted(freqs, right, side="right")
    scores = _band_means(power, rows, lo, hi)
    # each row's first best score; a NaN score wins, as np.argmax picks it
    firsts = np.flatnonzero(np.diff(rows, prepend=-1))
    best = np.repeat(np.maximum.reduceat(scores, firsts), np.diff(firsts, append=rows.size))
    hits = np.flatnonzero((scores == best) | np.isnan(scores))
    winners = hits[np.diff(rows[hits], prepend=-1) != 0]
    peak_hz[rows[winners]] = freqs[peaks[winners]]
    bandwidth[rows[winners]] = right[winners] - left[winners]
    return peak_hz, bandwidth


def peak_frequency(psd: Psd) -> tuple[float, float]:
    """Dominant spectral peak and its full-width-half-max bandwidth.

    Candidate peaks are the local maxima of the PSD (the global maximum
    when the spectrum is monotone).  Each candidate is scored by its
    average power over its own FWHM band; the best-scoring peak wins.
    Returns ``(peak_hz, bandwidth_hz)``, arrays for a batch.
    """
    defined = ~np.isnan(_normalized(psd)[..., 0])  # rejects a zero-power spectrum
    peak_hz, bandwidth = _dominant_peaks(psd.freqs, np.atleast_2d(psd.power), np.atleast_1d(defined))
    if psd.power.ndim == 1:
        return float(peak_hz[0]), float(bandwidth[0])
    return peak_hz, bandwidth
