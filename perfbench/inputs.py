"""Seeded inputs for the benchmark workloads.

A record workload is a synthetic 16-channel record with one seizure,
written to EDF plus its ``.ann`` interval sidecar, exactly what
``eegfx synth`` produces and ``eegfx extract`` reads.  The table
workload is a labeled feature table with the real ``<Name>L/R``
columns of the default catalog, generated directly at the paper's
seizure share.  The seed changes every value; sizes and the column
structure are fixed per workload, so runs on different seeds measure
the same amount of work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from eegfx.annotations import write_annotations
from eegfx.edf import write_edf
from eegfx.feature_table import FeatureTable
from eegfx.pipeline import DEFAULT_FEATURES
from eegfx.synth import SynthSpec, synth_record

# Feature groups of the default catalog, as extract computes them:
# one stat_summary, six waveform-shape scans, one Hjorth pass, one
# fused ApEn/SampEn match count, one Welch PSD, one DWT cascade.
_BANDS = ("D1", "D2", "D3", "D4", "D5", "A5")
_BAND_STATS = (
    "Mean", "AbsMean", "Variance", "Skewness", "Kurtosis",
    "Min", "Max", "Energy", "LineLength",
)
GROUPS: dict[str, tuple[str, ...]] = {
    "moments": ("Mean", "Variance", "CV", "Skewness", "Kurtosis", "Max", "Min"),
    "shape": ("Energy", "NE", "LineLength", "ShEn", "LocalExtrema", "ZeroCrossing"),
    "hjorth": ("Mobility", "Complexity"),
    "template": ("ApEn", "SampEn"),
    "spectral": ("IWMF", "IWBW", "SE", "PeakAmplitude", "PeakFrequency"),
    "wavelet": tuple(f"{stat}{band}" for band in _BANDS for stat in _BAND_STATS),
}
if sorted(sum(GROUPS.values(), ())) != sorted(DEFAULT_FEATURES):
    raise ImportError("feature groups no longer cover the default catalog")

NO_TEMPLATE = tuple(f for f in DEFAULT_FEATURES if f not in GROUPS["template"])

# The paper's class counts: 4677 seizure epochs out of 268101.
PAPER_SEIZURE_SHARE = 4677 / 268101


@dataclass(frozen=True)
class RecordInput:
    """A record on disk plus what the chain needs to know about it."""

    edf_path: Path
    features: tuple[str, ...]
    duration_s: float


@dataclass(frozen=True)
class TableInput:
    table: FeatureTable
    eval_columns: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload; ``tiny`` sizes are for the self-test."""

    name: str
    record_s: float
    tiny_record_s: float
    features: tuple[str, ...]
    table_rows: int = 0
    tiny_table_rows: int = 0

    @property
    def has_table(self) -> bool:
        return self.table_rows > 0


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # Template entropies take about 2/3 of extract; evaluate runs all
        # 152 columns at a small epoch count.
        Workload("clinical_default", record_s=12.0, tiny_record_s=8.0,
                 features=DEFAULT_FEATURES),
        # No template features: DWT band statistics, Welch, moments and
        # per-epoch dispatch/assembly dominate extract.
        Workload("long_screen", record_s=48.0, tiny_record_s=8.0,
                 features=NO_TEMPLATE),
        # No extract in the chain: CSV I/O at real width and the KDE at a
        # large N.  The small side record only feeds the extract metrics.
        Workload("paper_ratio_rank", record_s=12.0, tiny_record_s=8.0,
                 features=NO_TEMPLATE, table_rows=8192, tiny_table_rows=512),
    )
}


def make_record(path: Path, duration_s: float, features: tuple[str, ...],
                seed: int) -> RecordInput:
    """Write a seeded synthetic record to ``path`` and ``path.ann``.

    The seizure covers 30-70% of the record, so both classes have
    enough epochs for the KDE at every size the benchmark uses.
    """
    spec = SynthSpec(
        duration_s=duration_s,
        seizure_intervals=((0.3 * duration_s, 0.7 * duration_s),),
        seed=seed,
        name=path.stem,
    )
    record = synth_record(spec)
    write_edf(record, path)
    write_annotations(record.annotations, Path(f"{path}.ann"))
    return RecordInput(path, features, duration_s)


# Column shapes cycle over the base features; effect sizes (in latent
# standard deviations) run from none to strong.
_SHAPES = ("gaussian", "lognormal", "count", "bounded")
_EFFECTS = (0.0, 0.15, 0.4, 0.8, 1.5)
_LR_CORRELATION = 0.8


def _shaped(z: np.ndarray, shape: str, rng: np.random.Generator) -> np.ndarray:
    if shape == "gaussian":
        return 10.0 + 3.0 * z
    if shape == "lognormal":
        return np.exp(0.8 * z)
    if shape == "count":
        return rng.poisson(np.exp(1.5 + 0.4 * z)).astype(np.float64)
    return 1.0 / (1.0 + np.exp(-z))


def make_table(rows: int, seed: int) -> TableInput:
    """A labeled table with the 152 default-catalog column names.

    Each base feature draws a latent value per hemisphere, correlated
    between L and R and shifted by the feature's effect size on seizure
    rows, then maps it to a Gaussian, heavy-tailed log-normal, integer
    count or bounded logistic column.
    """
    rng = np.random.default_rng(seed)
    n_seizure = max(2, round(rows * PAPER_SEIZURE_SHARE))
    labels = np.zeros(rows, dtype=np.int64)
    labels[rng.choice(rows, size=n_seizure, replace=False)] = 1
    names = tuple(f"{name}{side}" for name in DEFAULT_FEATURES for side in "LR")
    values = np.empty((rows, len(names)))
    mix = math.sqrt(1.0 - _LR_CORRELATION**2)
    for j in range(len(DEFAULT_FEATURES)):
        shift = _EFFECTS[j % len(_EFFECTS)] * labels
        left = rng.standard_normal(rows)
        right = _LR_CORRELATION * left + mix * rng.standard_normal(rows)
        shape = _SHAPES[j % len(_SHAPES)]
        values[:, 2 * j] = _shaped(left + shift, shape, rng)
        values[:, 2 * j + 1] = _shaped(right + shift, shape, rng)
    table = FeatureTable(
        records=("paper_ratio",) * rows,
        epoch_starts=np.arange(rows, dtype=np.float64),
        labels=labels,
        feature_names=names,
        values=values,
    )
    # A fixed slice of four columns, one per shape and both sides, keeps
    # evaluate at the paper's class balance within the run time.
    slice_ = tuple(
        names[2 * j + k % 2] for k, j in enumerate(range(0, len(DEFAULT_FEATURES), 19))
    )
    return TableInput(table, slice_)
