"""Bayes-error feature significance and detection metrics.

Per-class feature densities are estimated with Gaussian-kernel KDE,
the two-class Bayes error is integrated numerically, and a feature's
worth is the percentage improvement of that error over the
always-predict-majority baseline.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from eegfx.feature_table import FeatureTable

__all__ = [
    "KdeModel",
    "SignificanceReport",
    "DetectionCounts",
    "fit_kde",
    "bayes_error",
    "err0",
    "improvement_rate",
    "feature_significance",
    "significance_csv",
    "epoch_metrics",
    "SIGNIFICANCE_THRESHOLD",
]

SIGNIFICANCE_THRESHOLD = 4.5  # improvement-rate percent

_GRID_POINTS = 4096
_GRID_MARGIN_BANDWIDTHS = 4.0
_KDE_BLOCK = 256


@dataclass(frozen=True)
class KdeModel:
    """Two-class Gaussian-kernel density model.

    ``class_samples`` holds the training values per class (index 0 =
    seizure, index 1 = normal in pipeline use, but the model itself is
    symmetric).  Bandwidths follow h = 1.06 sigma N^(-1/5) per class.
    """

    class_samples: tuple[np.ndarray, np.ndarray]
    bandwidths: tuple[float, float]
    priors: tuple[float, float]

    def __post_init__(self) -> None:
        samples = tuple(np.asarray(s, dtype=np.float64) for s in self.class_samples)
        bandwidths = tuple(float(h) for h in self.bandwidths)
        priors = tuple(float(p) for p in self.priors)
        if len(samples) != 2 or len(bandwidths) != 2 or len(priors) != 2:
            raise ValueError("model is strictly two-class")
        for s in samples:
            if s.ndim != 1 or s.size < 2 or not np.all(np.isfinite(s)):
                raise ValueError("each class needs >= 2 finite samples")
            s.flags.writeable = False
        if min(bandwidths) <= 0.0:
            raise ValueError("bandwidths must be positive")
        if min(priors) <= 0.0 or abs(sum(priors) - 1.0) > 1e-9:
            raise ValueError("priors must be positive and sum to 1")
        object.__setattr__(self, "class_samples", samples)
        object.__setattr__(self, "bandwidths", bandwidths)
        object.__setattr__(self, "priors", priors)

    def density(self, class_index: int, points: np.ndarray) -> np.ndarray:
        """Gaussian-kernel density of one class at the given points."""
        samples = self.class_samples[class_index]
        h = self.bandwidths[class_index]
        points = np.asarray(points, dtype=np.float64)
        out = np.empty(points.size)
        norm = 1.0 / (samples.size * h * math.sqrt(2.0 * math.pi))
        for lo in range(0, points.size, _KDE_BLOCK):
            z = (points[lo : lo + _KDE_BLOCK, None] - samples[None, :]) / h
            out[lo : lo + _KDE_BLOCK] = np.exp(-0.5 * z * z).sum(axis=1) * norm
        return out

    def evaluation_grid(self, n_points: int = _GRID_POINTS) -> np.ndarray:
        """Uniform grid spanning the pooled samples plus 4 bandwidths."""
        lo = min(float(s.min()) for s in self.class_samples)
        hi = max(float(s.max()) for s in self.class_samples)
        margin = _GRID_MARGIN_BANDWIDTHS * max(self.bandwidths)
        return np.linspace(lo - margin, hi + margin, n_points)


def fit_kde(
    class_values: Sequence[np.ndarray],
    priors: Sequence[float] | None = None,
) -> KdeModel:
    """Fit per-class Gaussian KDEs with the 1.06 sigma N^(-1/5) bandwidth.

    ``class_values`` must hold exactly two sample vectors.  Priors
    default to class counts over the total; pass explicit priors to
    model a different class balance than the sample sizes suggest.
    A zero-variance class falls back to a bandwidth of 1e-3 times the
    pooled data range so its density stays proper.
    """
    if len(class_values) != 2:
        raise ValueError(f"exactly two classes required, got {len(class_values)}")
    samples = tuple(np.asarray(v, dtype=np.float64).ravel() for v in class_values)
    for s in samples:
        if s.size < 2:
            raise ValueError("each class needs at least 2 samples")
        if not np.all(np.isfinite(s)):
            raise ValueError("class samples must be finite")
    pooled_range = max(float(s.max()) for s in samples) - min(float(s.min()) for s in samples)
    bandwidths = []
    for s in samples:
        sigma = float(s.std(ddof=1))
        if sigma > 0.0:
            bandwidths.append(1.06 * sigma * s.size ** (-1.0 / 5.0))
        else:
            bandwidths.append(1e-3 * pooled_range if pooled_range > 0.0 else 1e-3)
    if priors is None:
        total = samples[0].size + samples[1].size
        priors = (samples[0].size / total, samples[1].size / total)
    return KdeModel(
        class_samples=samples,
        bandwidths=(bandwidths[0], bandwidths[1]),
        priors=(float(priors[0]), float(priors[1])),
    )


def bayes_error(model: KdeModel, n_grid: int = _GRID_POINTS) -> float:
    """Minimum achievable misclassification probability of the model.

    Integrates min_i P(C_i) p(x|C_i) with the trapezoid rule over the
    model's evaluation grid.
    """
    grid = model.evaluation_grid(n_grid)
    weighted = np.minimum(
        model.priors[0] * model.density(0, grid),
        model.priors[1] * model.density(1, grid),
    )
    if not np.all(np.isfinite(weighted)):
        raise ValueError("non-finite density on the evaluation grid")
    return float(np.trapezoid(weighted, grid))


def err0(n_seizure: int, n_normal: int) -> float:
    """Baseline error of always predicting the majority (normal) class."""
    if n_seizure < 1 or n_normal < 1:
        raise ValueError(f"both class counts must be positive, got ({n_seizure}, {n_normal})")
    return n_seizure / (n_seizure + n_normal)


def improvement_rate(err_b: float, err_0: float) -> float:
    """Percent reduction of the Bayes error relative to the baseline."""
    if err_0 <= 0.0:
        raise ValueError("baseline error must be positive")
    return 100.0 * (err_0 - err_b) / err_0


@dataclass(frozen=True)
class SignificanceReport:
    """Bayes-error evaluation of one feature column."""

    feature_id: str
    hemisphere: str
    err_b: float
    err_0: float
    rate: float
    significant: bool

    def __post_init__(self) -> None:
        if not 0.0 <= self.err_b <= 1.0:
            raise ValueError(f"err_b must be a probability, got {self.err_b}")
        if not 0.0 < self.err_0 <= 1.0:
            raise ValueError(f"err_0 must be in (0, 1], got {self.err_0}")


def feature_significance(
    table: FeatureTable,
    feature: str,
    hemisphere: str = "",
    threshold: float = SIGNIFICANCE_THRESHOLD,
    n_grid: int = _GRID_POINTS,
) -> SignificanceReport:
    """Score one feature column of a labeled table.

    The column name is ``feature`` plus the hemisphere suffix.  The
    baseline comes from the table's own class counts; the report flags
    significance when the improvement rate exceeds ``threshold``.
    """
    seizure, normal = table.class_values(f"{feature}{hemisphere}")
    if seizure.size < 2 or normal.size < 2:
        raise ValueError("both classes need >= 2 epochs in the table")
    if not (np.all(np.isfinite(seizure)) and np.all(np.isfinite(normal))):
        raise ValueError(f"feature {feature}{hemisphere} has non-finite values")
    err_0 = err0(*table.class_counts())
    err_b = bayes_error(fit_kde((seizure, normal)), n_grid=n_grid)
    rate = improvement_rate(err_b, err_0)
    return SignificanceReport(
        feature_id=feature,
        hemisphere=hemisphere,
        err_b=min(max(err_b, 0.0), 1.0),
        err_0=err_0,
        rate=rate,
        significant=rate > threshold,
    )


def significance_csv(reports: Sequence[SignificanceReport]) -> str:
    """Render reports as CSV rows: feature,hemisphere,err_b,err_0,rate,significant."""
    buf = io.StringIO()
    buf.write("feature,hemisphere,err_b,err_0,rate,significant\n")
    for r in reports:
        buf.write(
            f"{r.feature_id},{r.hemisphere},{r.err_b:.9g},{r.err_0:.9g},"
            f"{r.rate:.9g},{'true' if r.significant else 'false'}\n"
        )
    return buf.getvalue()


@dataclass(frozen=True)
class DetectionCounts:
    """Epoch-level confusion counts."""

    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self) -> None:
        for name in ("tp", "fp", "fn", "tn"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {v!r}")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def epoch_metrics(counts: DetectionCounts) -> tuple[float, float, float]:
    """(accuracy, sensitivity, specificity) from confusion counts."""
    if counts.total == 0 or counts.tp + counts.fn == 0 or counts.tn + counts.fp == 0:
        raise ValueError("metric denominator is zero, undefined metric")
    acc = (counts.tp + counts.tn) / counts.total
    sen = counts.tp / (counts.tp + counts.fn)
    spec = counts.tn / (counts.tn + counts.fp)
    return acc, sen, spec
