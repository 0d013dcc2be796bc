"""Per-layer timings for the traced run.

Every layer is timed from outside, by calling its public functions on
the workload's own epochs, record or table.  Each metric names the
end-to-end metric it should move; see README.md for the mapping.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
import time

import numpy as np

from eegfx import time_features as tf
from eegfx.cfs import discretize, symmetric_correlation
from eegfx.config import RunConfig
from eegfx.edf import read_edf
from eegfx.evaluation import bayes_error, fit_kde
from eegfx.freq_features import iwbw, iwmf, peak_frequency, psd_welch, spectral_entropy
from eegfx.pipeline import extract
from eegfx.signals import label_epoch, segment
from eegfx.wavelets import dwt, subband_features

from chain import ChainResult, Extracted, Tracer
from inputs import GROUPS, RecordInput

EPOCH_SAMPLE = 32
ROUNDS = 3
KDE_COLUMNS = 3
CFS_PAIRS = 200
FLOOR_FEATURE = ("Energy",)
GROUP_EPOCHS = 6


def _per_call(fn, items, rounds: int = ROUNDS) -> float:
    """Median over rounds of the mean seconds per call over ``items``."""
    per_round = []
    for _ in range(rounds):
        start = time.perf_counter()
        for item in items:
            fn(item)
        per_round.append((time.perf_counter() - start) / len(items))
    return statistics.median(per_round)


def _nan_on_error(fn):
    def call(x):
        try:
            return fn(x)
        except ValueError:
            return float("nan")
    return call


def _shape(x):
    return (tf.energy(x), tf.nonlinear_energy(x), tf.line_length(x),
            tf.shannon_entropy(x), tf.zero_crossings(x), tf.local_extrema(x))


def _spectral(psd):
    return (iwmf(psd), iwbw(psd), spectral_entropy(psd), peak_frequency(psd))


def record_layers(src: RecordInput, ex: Extracted, config: RunConfig, tracer: Tracer,
                  rng: np.random.Generator):
    """edf, signals, feature-function and pipeline-group metrics.

    Returns the metrics and the (threads=1, threads=2) tables of the
    crop, which must be identical.
    """
    out: dict[str, float] = {}
    record = ex.record
    with tracer.span("layer.edf.read_edf"):
        out["edf.read_edf_s"] = _per_call(read_edf, [src.edf_path])
    with tracer.span("layer.signals.segment"):
        out["signals.segment_s"] = _per_call(
            lambda r: segment(r, config.width_s, config.stride_s), [record])
    epochs = segment(record, config.width_s, config.stride_s)
    reference = epochs[record.channels[0]]
    with tracer.span("layer.signals.label_epoch"):
        out["signals.label_epoch_s"] = _per_call(
            lambda es: [label_epoch(e, record.annotations) for e in es], [reference])

    pool = [e for channel in record.channels for e in epochs[channel]]
    sample = [pool[i] for i in rng.choice(len(pool), size=min(EPOCH_SAMPLE, len(pool)),
                                          replace=False)]
    xs = [e.samples for e in sample]
    psds = [psd_welch(e) for e in sample]
    decomps = [dwt(x, config.wavelet, config.levels) for x in xs]
    timed = {
        "time_features.apen_ms": (_nan_on_error(tf.approximate_entropy), xs),
        "time_features.sampen_ms": (_nan_on_error(tf.sample_entropy), xs),
        "time_features.stat_summary_ms": (tf.stat_summary, xs),
        "time_features.hjorth_ms": (_nan_on_error(tf.hjorth), xs),
        "time_features.shape_ms": (_nan_on_error(_shape), xs),
        "freq_features.psd_welch_ms": (psd_welch, sample),
        "freq_features.spectral_ms": (_nan_on_error(_spectral), psds),
        "wavelets.dwt_ms": (lambda x: dwt(x, config.wavelet, config.levels), xs),
        "wavelets.subband_features_ms": (subband_features, decomps),
    }
    for name, (fn, items) in timed.items():
        with tracer.span(f"layer.{name}"):
            out[name] = 1e3 * _per_call(fn, items)

    # extract with each group alone, with the full catalog, with one cheap
    # feature and at threads=2, in interleaved rounds on the first few
    # epochs; minimum over rounds.  Groups in the workload's catalog plus
    # the unattributed rest add up to the full catalog.  A group outside
    # it (template, on the no-template catalogs) is timed for reference.
    crop_s = config.width_s + (GROUP_EPOCHS - 1) * config.stride_s
    crop = dataclasses.replace(
        record, data=record.data[:, : int(round(crop_s * record.fs))], annotations=())
    runs = {
        "full": config.replace(features=src.features),
        **{group: config.replace(features=names) for group, names in GROUPS.items()},
        "floor": config.replace(features=FLOOR_FEATURE),
        "threads2": config.replace(features=src.features, threads=2),
    }
    best = dict.fromkeys(runs, math.inf)
    tables = {}
    for _ in range(ROUNDS):
        for key, run_config in runs.items():
            with tracer.span(f"layer.pipeline.{key}") as span:
                tables[key] = extract(crop, run_config)
            best[key] = min(best[key], span.seconds)
    epoch_channels = len(tables["full"]) * len(crop.channels)
    per_ms = {key: 1e3 * s / epoch_channels for key, s in best.items()}
    attributed = 0.0
    for group, names in GROUPS.items():
        out[f"pipeline.group.{group}_ms"] = per_ms[group]
        if set(names) <= set(src.features):
            attributed += per_ms[group]
    out["pipeline.floor_ms"] = per_ms["floor"]
    out["pipeline.unattributed_ms"] = per_ms["full"] - attributed
    out["pipeline.threads2_speedup"] = best["full"] / best["threads2"]
    out["pipeline.nan_cell_frac"] = float(np.isnan(ex.table.values).mean())
    return out, (tables["full"], tables["threads2"])


def table_layers(result: ChainResult, evaluated: tuple[str, ...], config: RunConfig,
                 tracer: Tracer, rng: np.random.Generator) -> dict[str, float]:
    """feature_table, evaluation and cfs metrics on the chain's own table."""
    table = result.read
    out = {
        "feature_table.write_csv_s": result.stages["write_csv"],
        "feature_table.read_csv_s": result.stages["read_csv"],
        "feature_table.csv_bytes": float(result.csv_bytes),
        "evaluation.columns_skipped": float(len(result.skipped)),
        "evaluation.kernel_evals": float(config.kde_grid * len(table)),
        "cfs.forward_search_s": result.stages["select"],
    }
    finite = [c for c in evaluated if c not in result.skipped]
    columns = [str(c) for c in rng.choice(finite, size=min(KDE_COLUMNS, len(finite)),
                                          replace=False)]
    fit_s, bayes_s = [], []
    with tracer.span("layer.evaluation"):
        for column in columns:
            classes = table.class_values(column)
            start = time.perf_counter()
            model = fit_kde(classes)
            mid = time.perf_counter()
            bayes_error(model, n_grid=config.kde_grid)
            fit_s.append(mid - start)
            bayes_s.append(time.perf_counter() - mid)
    out["evaluation.fit_kde_ms"] = 1e3 * statistics.median(fit_s)
    out["evaluation.bayes_error_ms"] = 1e3 * statistics.median(bayes_s)

    names = table.feature_names
    with tracer.span("layer.cfs.discretize") as span:
        codes = [discretize(table.column(n), config.cfs_bins) for n in names]
    out["cfs.discretize_ms"] = 1e3 * span.seconds / len(names)
    pairs = rng.integers(len(codes), size=(CFS_PAIRS, 2))
    with tracer.span("layer.cfs.symmetric_correlation") as span:
        for i, j in pairs:
            symmetric_correlation(codes[i], codes[j])
    out["cfs.symmetric_correlation_us"] = 1e6 * span.seconds / CFS_PAIRS
    return out
