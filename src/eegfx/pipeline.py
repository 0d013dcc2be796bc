"""Record-to-feature-table extraction.

Every epoch of every montage channel gets the configured base features;
per-channel values are then averaged over each montage side, so one
base feature becomes two columns, ``<Name>L`` and ``<Name>R``.  Rows
are epochs in time order, labeled seizure when annotations cover more
than half the window.

One registry maps each base feature name to a ``(source, reader)``
pair.  A source is an intermediate of one channel epoch that several
features share: the samples, their moments, the full ``stat_summary``,
Hjorth parameters, the fused ApEn/SampEn template counts, the Welch PSD
and its dominant peak, or the DWT band table.  Each source is computed
at most once per epoch, and only when a requested feature reads it; a
reader turns the source into one float.  ``FEATURE_CATALOG`` is the
registry's key set.

A feature that is undefined for some epoch yields NaN in that cell
rather than failing the run: a reader that raises ``ValueError``
(zero-power spectrum, no template match at m+1) and a Hjorth, template
or peak source that raises it (constant signal) give NaN cells.  Any
other source's ``ValueError`` is structural -- an epoch shorter than
the Welch segment or too short for the DWT depth -- and aborts the run.
A side mean is NaN wherever one of its channels is not finite;
downstream evaluation skips such columns.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from operator import attrgetter, itemgetter
from typing import Any, Callable

import numpy as np

from . import time_features as tf
from .config import RunConfig
from .feature_table import FeatureTable
from .freq_features import (
    Psd,
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
DEFAULT_FEATURES: tuple[str, ...] = (
    "Mean", "Variance", "CV", "Skewness", "Kurtosis", "Max", "Min",
    "Energy", "NE", "LineLength", "ShEn", "ApEn", "SampEn",
    "LocalExtrema", "ZeroCrossing", "Mobility", "Complexity",
    "IWMF", "IWBW", "SE", "PeakAmplitude", "PeakFrequency",
) + tuple(f"{feat}{band}" for band in _BAND_NAMES for feat in _BAND_FEATURES)


def _peak(psd: Psd) -> tuple[float, float]:
    """(frequency, power) of the PSD's dominant peak."""
    peak_hz, _ = peak_frequency(psd)
    return peak_hz, psd.power[np.searchsorted(psd.freqs, peak_hz)]


class _Sources(dict):
    """One channel epoch's sources, each computed on first lookup."""

    def __init__(self, epoch: Epoch, config: RunConfig) -> None:
        super().__init__(samples=epoch.samples)
        self.epoch = epoch
        self.config = config

    def __missing__(self, source: str) -> Any:
        try:
            value = _SOURCES[source](self)
        except ValueError:
            if source not in _UNDEFINED_ON_ERROR:
                raise
            value = None
        self[source] = value
        return value


_SOURCES: dict[str, Callable[[_Sources], Any]] = {
    "moments": lambda s: tf.moments(s["samples"]),
    "summary": lambda s: tf.stat_summary(s["samples"]),
    "hjorth": lambda s: tf.hjorth(s["samples"]),
    "template": lambda s: tf.template_entropies(s["samples"]),
    "psd": lambda s: psd_welch(s.epoch),
    "peak": lambda s: _peak(s["psd"]),
    "bands": lambda s: subband_features(
        dwt(s["samples"], s.config.wavelet, s.config.levels)
    ),
}
# Sources whose ValueError means the features are undefined on this epoch.
_UNDEFINED_ON_ERROR = frozenset({"hjorth", "template", "peak"})

_REGISTRY: dict[str, tuple[str, Callable[[Any], float]]] = {
    **{
        name: ("moments", itemgetter(i))
        for i, name in enumerate(("Mean", "Variance", "CV", "Skewness", "Kurtosis"))
    },
    "Max": ("samples", np.max),
    "Min": ("samples", np.min),
    **{
        name: ("summary", attrgetter(name.lower()))
        for name in ("Median", "Mode", "Q1", "Q3", "IQR")
    },
    "Energy": ("samples", tf.energy),
    "NE": ("samples", tf.nonlinear_energy),
    "LineLength": ("samples", tf.line_length),
    "ShEn": ("samples", tf.shannon_entropy),
    "LocalExtrema": ("samples", tf.local_extrema),
    "ZeroCrossing": ("samples", tf.zero_crossings),
    "RMS": ("samples", tf.rms),
    "AveragePower": ("samples", tf.average_power),
    "PE": ("samples", tf.permutation_entropy),
    "WPE": ("samples", tf.weighted_permutation_entropy),
    "FuzzyEn": ("samples", tf.fuzzy_entropy),
    "DistEn": ("samples", tf.distribution_entropy),
    "SVDEn": ("samples", tf.svd_entropy),
    "HFD": ("samples", tf.higuchi_fd),
    "BCFD": ("samples", tf.box_counting_fd),
    "HE": ("samples", tf.hurst_exponent),
    "DFA": ("samples", tf.dfa),
    "Mobility": ("hjorth", itemgetter(1)),
    "Complexity": ("hjorth", itemgetter(2)),
    "ApEn": ("template", itemgetter(0)),
    "SampEn": ("template", itemgetter(1)),
    "IWMF": ("psd", iwmf),
    "IWBW": ("psd", iwbw),
    "SE": ("psd", spectral_entropy),
    "MedianFrequency": ("psd", median_frequency),
    "SEF90": ("psd", partial(sef, alpha=90.0)),
    "SEF95": ("psd", partial(sef, alpha=95.0)),
    "PeakFrequency": ("peak", itemgetter(0)),
    "PeakAmplitude": ("peak", itemgetter(1)),
    **{
        f"{feat}{band}": ("bands", itemgetter(f"{feat}{band}"))
        for band in _BAND_NAMES
        for feat in _BAND_FEATURES
    },
}

FEATURE_CATALOG: frozenset = frozenset(_REGISTRY)


def _epoch_row(
    epoch: Epoch, readers: list[tuple[str, Callable[[Any], float]]], config: RunConfig
) -> list[float]:
    """The requested base features of one channel epoch, NaN where undefined."""
    sources = _Sources(epoch, config)
    row = []
    for source, read in readers:
        value = sources[source]
        try:
            row.append(math.nan if value is None else float(read(value)))
        except ValueError:
            row.append(math.nan)
    return row


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

    readers = [_REGISTRY[name] for name in names]

    def worker(channel: str) -> np.ndarray:
        return np.array([_epoch_row(e, readers, config) for e in epochs[channel]])

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

    values = np.empty((n_epochs, 2 * len(names)))
    for k, side in enumerate((montage.left, montage.right)):
        total = np.zeros((n_epochs, len(names)))
        finite = np.ones((n_epochs, len(names)), dtype=bool)
        for channel in side:  # summed in montage order
            total += per_channel[channel]
            finite &= np.isfinite(per_channel[channel])
        values[:, k::2] = np.where(finite, total / len(side), math.nan)

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
