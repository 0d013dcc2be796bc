"""Record-to-feature-table extraction.

Every epoch of every montage channel gets the configured base features;
per-channel values are then averaged over each montage side, so one
base feature becomes two columns, ``<Name>L`` and ``<Name>R``.  Rows
are epochs in time order, labeled seizure when annotations cover more
than half the window.

A feature that is undefined for some epoch (zero-power spectrum, no
template matches) yields NaN in that cell rather than failing the run;
downstream evaluation skips such columns.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import time_features as tf
from .config import RunConfig
from .feature_table import FeatureTable
from .freq_features import (
    iwbw,
    iwmf,
    median_frequency,
    peak_frequency,
    psd_welch,
    sef,
    spectral_entropy,
)
from .signals import Epoch, EpochLabel, Montage, Record, label_epoch, segment
from .wavelets import dwt, subband_features

__all__ = ["DEFAULT_FEATURES", "FEATURE_CATALOG", "extract"]

log = logging.getLogger("eegfx")

_BAND_NAMES = ("D1", "D2", "D3", "D4", "D5", "A5")
_BAND_FEATURES = (
    "Mean", "AbsMean", "Variance", "Skewness", "Kurtosis",
    "Min", "Max", "Energy", "LineLength",
)

# The default catalog mirrors the evaluated feature set: 17 time-domain
# and 5 frequency-domain features, plus 9 statistics per wavelet band.
_DEFAULT_TIME = (
    "Mean", "Variance", "CV", "Skewness", "Kurtosis", "Max", "Min",
    "Energy", "NE", "LineLength", "ShEn", "ApEn", "SampEn",
    "LocalExtrema", "ZeroCrossing", "Mobility", "Complexity",
)
_DEFAULT_FREQ = ("IWMF", "IWBW", "SE", "PeakAmplitude", "PeakFrequency")

DEFAULT_FEATURES: tuple[str, ...] = (
    _DEFAULT_TIME
    + _DEFAULT_FREQ
    + tuple(f"{feat}{band}" for band in _BAND_NAMES for feat in _BAND_FEATURES)
)

_STAT_FEATURES = {
    "Mean": "mean", "Variance": "variance", "CV": "cv",
    "Skewness": "skewness", "Kurtosis": "kurtosis", "Max": "max",
    "Min": "min", "Median": "median", "Mode": "mode",
    "Q1": "q1", "Q3": "q3", "IQR": "iqr",
}
_DIRECT_FEATURES = {
    "Energy": tf.energy,
    "NE": tf.nonlinear_energy,
    "LineLength": tf.line_length,
    "ShEn": tf.shannon_entropy,
    "LocalExtrema": lambda x: float(tf.local_extrema(x)),
    "ZeroCrossing": lambda x: float(tf.zero_crossings(x)),
    "RMS": tf.rms,
    "AveragePower": tf.average_power,
    "PE": tf.permutation_entropy,
    "WPE": tf.weighted_permutation_entropy,
    "FuzzyEn": tf.fuzzy_entropy,
    "DistEn": tf.distribution_entropy,
    "SVDEn": tf.svd_entropy,
    "HFD": tf.higuchi_fd,
    "BCFD": tf.box_counting_fd,
    "HE": tf.hurst_exponent,
    "DFA": tf.dfa,
}
_HJORTH_FEATURES = ("Mobility", "Complexity")
_TEMPLATE_FEATURES = ("ApEn", "SampEn")
_PSD_FEATURES = {
    "IWMF": iwmf,
    "IWBW": iwbw,
    "SE": spectral_entropy,
    "MedianFrequency": median_frequency,
    "SEF90": lambda p: sef(p, 90.0),
    "SEF95": lambda p: sef(p, 95.0),
}
_PEAK_FEATURES = ("PeakAmplitude", "PeakFrequency")
_SUBBAND_FEATURES = frozenset(
    f"{feat}{band}" for band in _BAND_NAMES for feat in _BAND_FEATURES
)

FEATURE_CATALOG: frozenset = frozenset(
    set(_STAT_FEATURES)
    | set(_DIRECT_FEATURES)
    | set(_HJORTH_FEATURES)
    | set(_TEMPLATE_FEATURES)
    | set(_PSD_FEATURES)
    | set(_PEAK_FEATURES)
    | _SUBBAND_FEATURES
)


def _epoch_features(
    epoch: Epoch, names: tuple[str, ...], wavelet: str, levels: int
) -> dict[str, float]:
    """All requested base features for one epoch of one channel."""
    want = set(names)
    out: dict[str, float] = {}
    x = epoch.samples

    stat_names = want & set(_STAT_FEATURES)
    if stat_names:
        stats = tf.stat_summary(x)
        for name in stat_names:
            out[name] = float(getattr(stats, _STAT_FEATURES[name]))
    for name in want & set(_DIRECT_FEATURES):
        try:
            out[name] = float(_DIRECT_FEATURES[name](x))
        except ValueError:
            out[name] = math.nan
    if want & set(_HJORTH_FEATURES):
        try:
            _, mobility, complexity = tf.hjorth(x)
            out["Mobility"], out["Complexity"] = float(mobility), float(complexity)
        except ValueError:
            out["Mobility"] = out["Complexity"] = math.nan
    if want & set(_TEMPLATE_FEATURES):
        try:
            out["ApEn"], out["SampEn"] = tf.template_entropies(x)
        except ValueError:
            out["ApEn"] = out["SampEn"] = math.nan

    psd_names = want & set(_PSD_FEATURES)
    peak_names = want & set(_PEAK_FEATURES)
    if psd_names or peak_names:
        psd = psd_welch(epoch)
        for name in psd_names:
            try:
                out[name] = float(_PSD_FEATURES[name](psd))
            except ValueError:
                out[name] = math.nan
        if peak_names:
            try:
                peak_hz, _ = peak_frequency(psd)
                out["PeakFrequency"] = float(peak_hz)
                out["PeakAmplitude"] = float(
                    psd.power[np.searchsorted(psd.freqs, peak_hz)]
                )
            except ValueError:
                out["PeakFrequency"] = out["PeakAmplitude"] = math.nan

    if want & _SUBBAND_FEATURES:
        decomp = dwt(x, wavelet=wavelet, levels=levels)
        for key, value in subband_features(decomp).items():
            if key in want:
                out[key] = float(value)

    return {name: out[name] for name in names}


def _montage_in_record(record: Record, montage: Montage) -> Montage:
    """Restrict a montage to the record's channels, logging what differs."""
    present = set(record.channels)
    missing = [c for c in montage.all_channels if c not in present]
    extra = sorted(present - set(montage.all_channels))
    if missing:
        log.warning("montage channels missing from %s: %s",
                     record.name or "record", missing)
    if extra:
        log.warning("ignoring channels outside the montage: %s", extra)
    left = tuple(c for c in montage.left if c in present)
    right = tuple(c for c in montage.right if c in present)
    if not left or not right:
        raise ValueError(
            f"record has no channels on the "
            f"{'left' if not left else 'right'} montage side"
        )
    return Montage(left=left, right=right)


def extract(record: Record, config: RunConfig | None = None) -> FeatureTable:
    """Run the feature pipeline over one record.

    Columns follow the configured base-feature order, left then right
    per feature.  Channels fan out across ``config.threads`` workers;
    assembly order is fixed, so output is identical at any thread count.
    """
    config = config or RunConfig()
    names = tuple(config.features) if config.features is not None else DEFAULT_FEATURES
    unknown = sorted(set(names) - FEATURE_CATALOG)
    if unknown:
        raise ValueError(f"unknown features {unknown}")
    if len(set(names)) != len(names):
        raise ValueError("feature list has duplicates")

    montage = _montage_in_record(record, config.montage)
    channels = montage.all_channels
    epochs = segment(record, config.width_s, config.stride_s)
    n_epochs = len(epochs[channels[0]])
    if n_epochs == 0:
        raise ValueError(
            f"record {record.duration} s is shorter than one "
            f"{config.width_s} s epoch"
        )

    def worker(channel: str) -> list[dict[str, float]]:
        return [
            _epoch_features(e, names, config.wavelet, config.levels)
            for e in epochs[channel]
        ]

    if config.threads == 1:
        per_channel = {c: worker(c) for c in channels}
    else:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            per_channel = dict(zip(channels, pool.map(worker, channels)))

    reference = epochs[channels[0]]
    starts = np.array([e.start_time for e in reference])
    labels = np.array(
        [
            1 if label_epoch(e, record.annotations) is EpochLabel.SEIZURE else 0
            for e in reference
        ],
        dtype=np.int64,
    )

    def side_mean(side: tuple[str, ...], i: int, name: str) -> float:
        total = 0.0
        for channel in side:
            v = per_channel[channel][i][name]
            if not math.isfinite(v):
                return math.nan
            total += v
        return total / len(side)

    values = np.empty((n_epochs, 2 * len(names)))
    for j, name in enumerate(names):
        for i in range(n_epochs):
            values[i, 2 * j] = side_mean(montage.left, i, name)
            values[i, 2 * j + 1] = side_mean(montage.right, i, name)

    feature_names = tuple(
        f"{name}{side}" for name in names for side in ("L", "R")
    )
    return FeatureTable(
        records=(record.name or "record",) * n_epochs,
        epoch_starts=starts,
        labels=labels,
        feature_names=feature_names,
        values=values,
    )
