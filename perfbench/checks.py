"""Output checks.  Each returns (name, ok, detail) items; every item is
one operation in the benchmark's attempted/failed counts.

References are independent of the code paths they check: extract cells
are recomputed from the 1-D public feature functions on raw sample
slices, and err_b from a direct-sum Gaussian KDE written here.
"""

from __future__ import annotations

import math

import numpy as np

from eegfx import time_features as tf
from eegfx.cfs import discretize, merit, symmetric_correlation
from eegfx.config import RunConfig
from eegfx.freq_features import iwbw, iwmf, peak_frequency, psd_welch, spectral_entropy
from eegfx.signals import Epoch
from eegfx.wavelets import dwt, subband_features

from chain import ChainResult, Extracted
from inputs import GROUPS

CELL_RTOL = 1e-12
ERR_B_ATOL = 1e-4
MERIT_RTOL = 1e-12
CSV_RTOL = 1e-8  # 9 significant digits round to within 5e-9 relative
COUNT_FEATURES = ("LocalExtrema", "ZeroCrossing")

_SHAPE_FNS = {
    "Energy": tf.energy,
    "NE": tf.nonlinear_energy,
    "LineLength": tf.line_length,
    "ShEn": tf.shannon_entropy,
    "LocalExtrema": tf.local_extrema,
    "ZeroCrossing": tf.zero_crossings,
}
_SPECTRAL_FNS = {"IWMF": iwmf, "IWBW": iwbw, "SE": spectral_entropy}


def reference_value(name: str, x: np.ndarray, fs: float, config: RunConfig) -> float:
    """One base feature of one channel epoch from the 1-D public API.

    NaN where the 1-D function raises ValueError, as extract writes.
    """
    try:
        if name in GROUPS["moments"]:
            return float(getattr(tf.stat_summary(x), name.lower()))
        if name in _SHAPE_FNS:
            return float(_SHAPE_FNS[name](x))
        if name in GROUPS["hjorth"]:
            return float(tf.hjorth(x)[1 if name == "Mobility" else 2])
        if name == "ApEn":
            return float(tf.approximate_entropy(x))
        if name == "SampEn":
            return float(tf.sample_entropy(x))
        if name in GROUPS["spectral"]:
            psd = psd_welch(Epoch(samples=x, fs=fs))
            if name in _SPECTRAL_FNS:
                return float(_SPECTRAL_FNS[name](psd))
            peak_hz, _ = peak_frequency(psd)
            if name == "PeakFrequency":
                return float(peak_hz)
            return float(psd.power[np.searchsorted(psd.freqs, peak_hz)])
        return float(subband_features(dwt(x, config.wavelet, config.levels))[name])
    except ValueError:
        return math.nan


def _same(got: float, want: float, exact: bool) -> bool:
    if math.isnan(got) or math.isnan(want):
        return math.isnan(got) and math.isnan(want)
    if exact or got == want:
        return got == want
    return abs(got - want) <= CELL_RTOL * max(abs(got), abs(want))


def extract_cells(ex: Extracted, features: tuple[str, ...], config: RunConfig,
                  rng: np.random.Generator):
    """A seeded sample of (epoch, feature) cells, both hemispheres.

    One feature per group present in the catalog plus both count
    features, each at a random epoch.  Hemisphere means sum channels in
    montage order, as extract does, so counts can be compared exactly.
    """
    record, table = ex.record, ex.table
    width = int(round(config.width_s * record.fs))
    stride = int(round(config.stride_s * record.fs))
    picks = [
        str(rng.choice(in_catalog))
        for group in GROUPS.values()
        if (in_catalog := [f for f in group if f in features])
    ]
    picks += [f for f in COUNT_FEATURES if f in features and f not in picks]
    for name in picks:
        i = int(rng.integers(len(table)))
        lo = i * stride
        for side, channels in (("L", config.montage.left), ("R", config.montage.right)):
            total = 0.0
            for channel in channels:
                x = record.channel_data(channel)[lo : lo + width]
                total += reference_value(name, x, record.fs, config)
            want = total / len(channels)
            got = float(table.column(f"{name}{side}")[i])
            ok = _same(got, want, exact=name in COUNT_FEATURES)
            yield (f"extract_cell:{name}{side}@{i}", ok, f"got {got!r} want {want!r}")


def oracle_err_b(seizure: np.ndarray, normal: np.ndarray, n_grid: int) -> float:
    """Two-class Bayes error from a direct-sum Gaussian KDE.

    Same rules as the library: h = 1.06 sigma N^(-1/5) per class, priors
    from class counts, a uniform grid over the pooled range padded by
    four of the larger bandwidth, trapezoid integration of the smaller
    weighted density.
    """
    classes = (np.asarray(seizure, np.float64), np.asarray(normal, np.float64))
    pooled = max(c.max() for c in classes) - min(c.min() for c in classes)
    widths = []
    for c in classes:
        sigma = c.std(ddof=1)
        widths.append(1.06 * sigma * c.size ** -0.2 if sigma > 0
                      else (1e-3 * pooled if pooled > 0 else 1e-3))
    lo = min(c.min() for c in classes) - 4.0 * max(widths)
    hi = max(c.max() for c in classes) + 4.0 * max(widths)
    grid = np.linspace(lo, hi, n_grid)
    total = classes[0].size + classes[1].size
    weighted = []
    for c, h in zip(classes, widths):
        density = np.zeros(n_grid)
        for start in range(0, c.size, 512):
            z = (grid[:, None] - c[None, start : start + 512]) / h
            density += np.exp(-0.5 * z * z).sum(axis=1)
        density /= c.size * h * math.sqrt(2.0 * math.pi)
        weighted.append(c.size / total * density)
    y = np.minimum(*weighted)
    err = float(((y[1:] + y[:-1]) * np.diff(grid)).sum() / 2.0)
    return min(max(err, 0.0), 1.0)


def err_b_oracle(result: ChainResult, config: RunConfig, count: int,
                 rng: np.random.Generator):
    reports = {f"{r.feature_id}{r.hemisphere}": r for r in result.reports}
    names = sorted(reports)
    for name in rng.choice(names, size=min(count, len(names)), replace=False):
        want = oracle_err_b(*result.read.class_values(str(name)), config.kde_grid)
        got = reports[name].err_b
        yield (f"err_b_oracle:{name}", abs(got - want) <= ERR_B_ATOL,
               f"got {got!r} want {want!r}")


def energy_significant(result: ChainResult):
    significant = {f"{r.feature_id}{r.hemisphere}": r.significant for r in result.reports}
    for name in ("EnergyL", "EnergyR"):
        yield (f"significant:{name}", significant.get(name) is True,
               f"significant={significant.get(name)}")


def best_merit(result: ChainResult, config: RunConfig):
    """Merit of the best subset, recomputed from discretized columns."""
    table, trace = result.read, result.trace
    codes = {n: discretize(table.column(n), config.cfs_bins) for n in trace.best_subset}
    r_fc = {n: symmetric_correlation(c, table.labels) for n, c in codes.items()}
    r_ff = {
        (f, g): symmetric_correlation(codes[f], codes[g])
        for i, f in enumerate(trace.best_subset) for g in trace.best_subset[i + 1 :]
    }
    want = merit(trace.best_subset, r_fc, r_ff)
    got = trace.best_merit
    ok = abs(got - want) <= MERIT_RTOL * max(abs(want), 1e-300)
    yield ("best_merit", ok, f"got {got!r} want {want!r}")


def csv_round_trip(result: ChainResult):
    a, b = result.written, result.read
    ok = (
        a.feature_names == b.feature_names
        and a.records == b.records
        and np.array_equal(a.labels, b.labels)
        and np.allclose(b.epoch_starts, a.epoch_starts, rtol=CSV_RTOL, atol=0.0)
        and np.allclose(b.values, a.values, rtol=CSV_RTOL, atol=0.0, equal_nan=True)
    )
    yield ("csv_round_trip", ok, f"{len(a)} rows x {len(a.feature_names)} columns")


def same_outputs(first: ChainResult, other: ChainResult, label: str):
    """A repeated pass over the same input gives bit-identical outputs."""
    ok = (
        np.array_equal(first.read.values, other.read.values, equal_nan=True)
        and [(r.feature_id, r.hemisphere, r.err_b) for r in first.reports]
        == [(r.feature_id, r.hemisphere, r.err_b) for r in other.reports]
        and first.trace == other.trace
    )
    yield (f"deterministic:{label}", ok, "")


def same_table(a, b, label: str):
    ok = a.feature_names == b.feature_names and np.array_equal(
        a.values, b.values, equal_nan=True
    )
    yield (f"identical_table:{label}", ok, "")
