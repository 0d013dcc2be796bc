"""Record-to-feature-table extraction.

Every epoch of every montage channel gets the configured base features;
per-channel values are then averaged over each montage side, so one
base feature becomes two columns, ``<Name>L`` and ``<Name>R``.  Rows
are epochs in time order, labeled seizure when annotations cover more
than half the window.

Each channel is cut into a zero-copy (n_epochs, width) matrix of its
epochs.  The epoch-channel rows, in montage order, are computed in
blocks of at most ``_BLOCK_SAMPLES`` samples: channels that fit are
stacked whole into one block, and a longer channel is cut into row
slices of its own matrix, so the block, not the record, bounds the
working memory.  One registry maps each base feature name to a
``(source, reader)`` pair.  A source is computed down the whole block,
at most once per block and only when a requested feature reads it: the
block, its moments, ``stat_summary``, Hjorth parameters, Welch PSD,
dominant peaks or DWT band table.  Only the ApEn/SampEn counts and the
entropy and fractal features outside the default catalog (PE, WPE,
FuzzyEn, DistEn, SVDEn, HFD, BCFD, HE, DFA) still run row by row.  A
reader turns a source into a column, each row equal to the 1-D public
function on that epoch.  ``FEATURE_CATALOG`` is the registry's key set.

A feature undefined on an epoch gives a NaN cell exactly where its 1-D
function raises ``ValueError`` (constant signal, zero-power spectrum,
no template match at m+1).  A non-finite sample in a montage channel,
or an epoch shorter than the Welch segment or the DWT depth, aborts the
run before any feature is computed.  An epoch narrower than a batched
kernel's minimum (2 samples for the moments, ``stat_summary``, line
length and zero crossings, 3 for Hjorth, NE and local extrema) aborts it
with that kernel's 1-D length error, "x needs at least n samples".  A
side mean is NaN wherever one of its channels is not finite; downstream
evaluation skips such columns.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from operator import attrgetter, itemgetter
from typing import Any, Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import time_features as tf
from .config import RunConfig
from .feature_table import FeatureTable
from .freq_features import (
    Psd,
    iwbw,
    iwmf,
    median_frequency,
    peak_frequency,
    sef,
    spectral_entropy,
    welch,
)
from .signals import EpochLabel, Montage, Record, label_epoch, window_counts
from .wavelets import BAND_FEATURES, LEVELS, dwt, subband_features

__all__ = ["DEFAULT_FEATURES", "FEATURE_CATALOG", "extract"]

log = logging.getLogger("eegfx")

# The default catalog mirrors the evaluated feature set: 17 time-domain
# and 5 frequency-domain features, plus 9 statistics per wavelet band.
DEFAULT_FEATURES: tuple[str, ...] = (
    "Mean", "Variance", "CV", "Skewness", "Kurtosis", "Max", "Min",
    "Energy", "NE", "LineLength", "ShEn", "ApEn", "SampEn",
    "LocalExtrema", "ZeroCrossing", "Mobility", "Complexity",
    "IWMF", "IWBW", "SE", "PeakAmplitude", "PeakFrequency",
) + BAND_FEATURES


def _peak(psd: Psd) -> tuple[np.ndarray, np.ndarray]:
    """(frequency, power) of each PSD row's dominant peak, NaN where undefined."""
    peak_hz, _ = peak_frequency(psd)
    padded = np.pad(psd.power, ((0, 0), (0, 1)), constant_values=math.nan)  # NaN sorts last
    return peak_hz, padded[np.arange(peak_hz.size), np.searchsorted(psd.freqs, peak_hz)]


def _by_row(fn: Callable[[np.ndarray], Any], rows: np.ndarray, width: int = 1) -> np.ndarray:
    """fn of each epoch-matrix row as ``width`` float columns, NaN where fn raises ValueError."""
    out = np.full((len(rows), width), math.nan)
    for i, row in enumerate(rows):
        try:
            out[i] = fn(row)
        except ValueError:
            pass
    return out


# Made in this order from a block of epoch rows ("samples"), fs, config and the
# sources before them; Welch and the DWT fail only on the epoch width, so go first.
_BATCH_SOURCES: dict[str, Callable[[dict], Any]] = {
    "psd": lambda s: welch(s["samples"], s["fs"]),
    "bands": lambda s: subband_features(dwt(s["samples"], s["config"].wavelet, LEVELS)),
    "moments": lambda s: tf.moments(s["samples"]),
    "summary": lambda s: tf.stat_summary(s["samples"]),
    "hjorth": lambda s: tf.hjorth(s["samples"]),
    "template": lambda s: _by_row(tf.template_entropies, s["samples"], width=2),
    "peak": lambda s: _peak(s["psd"]),
}

_REGISTRY: dict[str, tuple[str, Callable[[Any], np.ndarray]]] = {
    **{
        name: ("moments", itemgetter(i))
        for i, name in enumerate(("Mean", "Variance", "CV", "Skewness", "Kurtosis"))
    },
    "Max": ("samples", partial(np.max, axis=-1)),
    "Min": ("samples", partial(np.min, axis=-1)),
    **{
        name: ("summary", attrgetter(name.lower()))
        for name in ("Median", "Mode", "Q1", "Q3", "IQR")
    },
    "Energy": ("samples", tf.energy),
    "NE": ("samples", tf.nonlinear_energy),
    "LineLength": ("samples", tf.line_length),
    "LocalExtrema": ("samples", tf.local_extrema),
    "ZeroCrossing": ("samples", tf.zero_crossings),
    "ShEn": ("samples", tf.shannon_entropy),
    "RMS": ("samples", tf.rms),
    "AveragePower": ("samples", tf.average_power),
    **{
        name: ("samples", lambda rows, fn=fn: _by_row(fn, rows))
        for name, fn in (
            ("PE", tf.permutation_entropy), ("WPE", tf.weighted_permutation_entropy),
            ("FuzzyEn", tf.fuzzy_entropy),
            ("DistEn", tf.distribution_entropy), ("SVDEn", tf.svd_entropy),
            ("HFD", tf.higuchi_fd), ("BCFD", tf.box_counting_fd),
            ("HE", tf.hurst_exponent), ("DFA", tf.dfa),
        )
    },
    "Mobility": ("hjorth", itemgetter(1)),
    "Complexity": ("hjorth", itemgetter(2)),
    "ApEn": ("template", itemgetter(np.s_[:, 0])),
    "SampEn": ("template", itemgetter(np.s_[:, 1])),
    "IWMF": ("psd", iwmf),
    "IWBW": ("psd", iwbw),
    "SE": ("psd", spectral_entropy),
    "MedianFrequency": ("psd", median_frequency),
    "SEF90": ("psd", partial(sef, alpha=90.0)),
    "SEF95": ("psd", partial(sef, alpha=95.0)),
    "PeakFrequency": ("peak", itemgetter(0)),
    "PeakAmplitude": ("peak", itemgetter(1)),
    **{name: ("bands", itemgetter(name)) for name in BAND_FEATURES},
}

FEATURE_CATALOG: frozenset = frozenset(_REGISTRY)

# Samples per block of epoch-channel rows (1 MiB of float64): enough rows
# that one source call's fixed cost is small, few enough to stay in cache.
_BLOCK_SAMPLES = 1 << 17


def _blocks(n_channels: int, n_epochs: int, width: int) -> list[tuple[range, slice]]:
    """Montage-ordered (channels, epoch rows) blocks of at most the sample budget.

    Channels whose epochs fit are stacked whole, in blocks of even size;
    a longer channel is its own run of blocks, each a row slice of it.
    """
    budget = max(1, _BLOCK_SAMPLES // width)
    per_block = max(1, budget // n_epochs)
    n_groups = -(-n_channels // per_block)
    n_cuts = -(-n_epochs // budget)
    groups = [range(n_channels * i // n_groups, n_channels * (i + 1) // n_groups)
              for i in range(n_groups)]
    cuts = [slice(n_epochs * i // n_cuts, n_epochs * (i + 1) // n_cuts) for i in range(n_cuts)]
    return [(group, rows) for group in groups for rows in cuts]


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
    per feature.  Row blocks fan out across ``config.threads`` workers;
    each side is summed in montage order, so output is identical at any
    thread count and block layout.
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
    width, stride, n_epochs = window_counts(
        record.n_samples, record.fs, config.width_s, config.stride_s
    )
    span = (n_epochs - 1) * stride + width
    for channel in channels:
        bad = np.flatnonzero(~np.isfinite(record.channel_data(channel)[:span]))
        if bad.size:
            raise ValueError(f"channel {channel!r}: non-finite sample at {bad[0] / record.fs:g} s")

    readers = [_REGISTRY[name] for name in names]
    needed = {source for source, _ in readers}
    needed |= {"psd"} if "peak" in needed else set()
    epochs = [sliding_window_view(record.channel_data(c), width)[::stride] for c in channels]

    def worker(block: tuple[range, slice]) -> np.ndarray:
        group, rows = block
        pieces = [epochs[c][rows] for c in group]
        samples = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        sources = {"samples": samples, "fs": record.fs, "config": config}
        for source, make in _BATCH_SOURCES.items():
            if source in needed:
                sources[source] = make(sources)
        return np.column_stack([read(sources[source]) for source, read in readers])

    # Each side's channels are summed in montage order, one block at a time.
    sides = (len(montage.left), len(montage.right))
    total = np.zeros((2, n_epochs, len(names)))
    finite = np.ones((2, n_epochs, len(names)), dtype=bool)
    blocks = _blocks(len(channels), n_epochs, width)
    with ThreadPoolExecutor(max_workers=config.threads) as pool:  # no thread until a submit
        results = pool.map(worker, blocks) if config.threads > 1 else map(worker, blocks)
        for (group, rows), result in zip(blocks, results):
            for c, piece in zip(group, np.split(result, len(group))):
                k = int(c >= sides[0])
                total[k, rows] += piece
                finite[k, rows] &= np.isfinite(piece)

    starts = np.arange(n_epochs) * stride / record.fs
    seizure = [label_epoch((s, s + width / record.fs), record.annotations) for s in starts]
    labels = np.array([label is EpochLabel.SEIZURE for label in seizure], dtype=np.int64)

    values = np.empty((n_epochs, 2 * len(names)))
    for k in range(2):
        values[:, k::2] = np.where(finite[k], total[k] / sides[k], math.nan)

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
