"""Bayes-error feature significance and detection metrics.

Per-class feature densities are estimated with binned Gaussian-kernel
KDE: each class is linearly binned on a lattice of step at most h/8, and
both classes are convolved with the kernel in one two-row real FFT whose
kernel transform is taken in closed form, in O(N + lattice log lattice)
time rather than the O(grid x N) of a direct sum.  The two-class Bayes error
is integrated with the trapezoid rule on a fixed grid, and a feature's
worth is the percentage improvement of that error over the
always-predict-majority baseline.

``rank_features`` holds the table-wide rules that ``eegfx evaluate``
applies: it scores every column, skips each column that
``feature_significance`` refuses with that refusal as the reason, and
ranks the rest by falling rate, ties by column name.
"""

from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass, field
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
    "rank_features",
    "significance_csv",
    "epoch_metrics",
    "SIGNIFICANCE_THRESHOLD",
    "GRID_POINTS",
]

SIGNIFICANCE_THRESHOLD = 4.5  # improvement-rate percent

GRID_POINTS = 4096  # Bayes-error integration grid
_GRID_MARGIN_BANDWIDTHS = 4.0
_BINS_PER_BANDWIDTH = 8  # binning lattice step <= h/8
_KERNEL_BANDWIDTHS = 8.0  # lattice and FFT margin: the kernel's reach +-8h
_MAGNITUDES = (2.0**-500, 2.0**500)  # a column's largest |value| fitted as is


@functools.lru_cache(maxsize=1024)
def _fast_len(n: int) -> int:
    """The smallest 5-smooth length 2**a 3**b 5**c >= n, a fast real FFT."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            candidate = p35 << ((n - 1) // p35).bit_length()  # smallest p35 2**a >= n
            if candidate < best:
                best = candidate
            p35 *= 3
        p5 *= 5
    return best


@dataclass(frozen=True)
class KdeModel:
    """Two-class Gaussian-kernel density model.

    ``class_samples`` holds the training values per class (index 0 =
    seizure, index 1 = normal in pipeline use, but the model itself is
    symmetric).  Bandwidths follow h = 1.06 sigma N^(-1/5) per class.
    Construction takes each class's (min, max) once; that pass is also
    the model's only finiteness check.
    """

    class_samples: tuple[np.ndarray, np.ndarray]
    bandwidths: tuple[float, float]
    priors: tuple[float, float]
    _support: tuple[tuple[float, float], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # views, frozen below without freezing the caller's arrays
        samples = tuple(np.asarray(s, dtype=np.float64).view() for s in self.class_samples)
        bandwidths = tuple(float(h) for h in self.bandwidths)
        priors = tuple(float(p) for p in self.priors)
        if len(samples) != 2 or len(bandwidths) != 2 or len(priors) != 2:
            raise ValueError("model is strictly two-class")
        support = []
        for s in samples:
            if s.ndim != 1 or s.size < 2:
                raise ValueError("each class needs >= 2 samples")
            lo, hi = float(s.min()), float(s.max())
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError("class samples have non-finite values")
            support.append((lo, hi))
            s.flags.writeable = False
        if not all(0.0 < h < math.inf for h in bandwidths):
            raise ValueError("bandwidths must be positive and finite")
        if min(priors) <= 0.0 or abs(sum(priors) - 1.0) > 1e-9:
            raise ValueError("priors must be positive and sum to 1")
        object.__setattr__(self, "class_samples", samples)
        object.__setattr__(self, "bandwidths", bandwidths)
        object.__setattr__(self, "priors", priors)
        object.__setattr__(self, "_support", tuple(support))

    def evaluation_grid(self, n_points: int = GRID_POINTS) -> np.ndarray:
        """Uniform grid spanning the pooled samples plus 4 bandwidths."""
        return np.linspace(*self._grid_ends(n_points), n_points)

    def _grid_ends(self, n_points: int) -> tuple[float, float]:
        if n_points < 2:
            raise ValueError(f"the grid needs >= 2 points, got {n_points}")
        margin = _GRID_MARGIN_BANDWIDTHS * max(self.bandwidths)
        lo = min(lo for lo, _ in self._support) - margin
        hi = max(hi for _, hi in self._support) + margin
        return lo, hi

    def density(self, class_index: int, n_points: int = GRID_POINTS) -> np.ndarray:
        """Gaussian-kernel density of one class on ``evaluation_grid(n_points)``.

        Linearly binned KDE (Silverman, AS 176, 1982; Wand, 1994).  The
        grid step dx is split r = ceil(8 dx / h) ways, so the binning
        lattice has a step of at most h/8 and holds every grid point.
        The lattice spans only this class's support +-8h, which keeps it
        small however narrow the class is against the pooled range.  Both
        classes' weights go through one two-row real FFT, each row times
        the closed-form transform of its sampled Gaussian, and every r-th
        lattice point is read back; grid points off the lattice get 0.
        """
        return self._densities(n_points)[class_index]

    def _densities(self, n_points: int) -> np.ndarray:
        """Both class densities on ``evaluation_grid(n_points)``, one row each."""
        start, stop = self._grid_ends(n_points)
        dx = (stop - start) / (n_points - 1)
        lattices = []
        for (lo, hi), h in zip(self._support, self.bandwidths):
            r = math.ceil(_BINS_PER_BANDWIDTH * dx / h)
            step = dx / r
            reach = _KERNEL_BANDWIDTHS * h
            first = max(0, math.floor((lo - reach - start) / step))
            last = min(r * (n_points - 1), math.ceil((hi + reach - start) / step))
            lattices.append((r, step, first, last, min(math.ceil(reach / step), last - first)))
        # n_fft >= size + half keeps the circular wrap-around 8h off either lattice
        n_fft = _fast_len(max(last - first + 1 + half for _, _, first, last, half in lattices))
        weights = np.zeros((2, n_fft))
        for row, samples, (_, step, first, last, _) in zip(weights, self.class_samples, lattices):
            pos = (samples - (start + first * step)) / step
            left = pos.astype(np.intp)
            frac = pos - left
            size = last - first + 1
            row[:size] = np.bincount(left, 1.0 - frac, size) + np.bincount(left + 1, frac, size)

        # The kernel exp(-k^2 / 2 sigma^2), sigma = h / step >= 8, has the transform
        # sigma sqrt(2 pi) exp(-(sigma omega)^2 / 2) up to aliasing of order
        # exp(-2 (pi sigma)^2), so the density's 1 / (N h sqrt(2 pi)) becomes
        # 1 / (N step).  Past sigma omega = 10 the factor is below exp(-50): cut.
        sigma = np.array([[h / step] for h, (_, step, *_) in zip(self.bandwidths, lattices)])
        norm = np.array([[s.size * step] for s, (_, step, *_) in zip(self.class_samples, lattices)])
        kept = min(n_fft // 2 + 1, math.ceil(10.0 * n_fft / (2.0 * math.pi * sigma.min())))
        omega = np.arange(kept) * (2.0 * math.pi / n_fft)
        spectrum = np.fft.rfft(weights)
        spectrum[:, kept:] = 0.0
        spectrum[:, :kept] *= np.exp(-0.5 * (sigma * omega) ** 2) / norm
        smooth = np.fft.irfft(spectrum, n_fft)

        out = np.zeros((2, n_points))
        for row, smoothed, (r, _, first, last, _) in zip(out, smooth, lattices):
            j0, j1 = -(-first // r), last // r
            if j0 <= j1:  # else the lattice lies between two grid points
                row[j0 : j1 + 1] = smoothed[r * j0 - first : r * j1 - first + 1 : r]
        return np.maximum(out, 0.0, out=out)


def fit_kde(
    class_values: Sequence[np.ndarray],
    priors: Sequence[float] | None = None,
) -> KdeModel:
    """Fit per-class Gaussian KDEs with the 1.06 sigma N^(-1/5) bandwidth.

    ``class_values`` must hold exactly two sample vectors.  Priors
    default to class counts over the total; pass explicit priors to
    model a different class balance than the sample sizes suggest.
    A zero-variance class falls back to a bandwidth of 1e-3 times the
    pooled data range so its density stays proper.  Non-finite samples
    are refused when the model is built.
    """
    if len(class_values) != 2:
        raise ValueError(f"exactly two classes required, got {len(class_values)}")
    samples = tuple(np.asarray(v, dtype=np.float64).ravel() for v in class_values)
    if min(s.size for s in samples) < 2:
        raise ValueError("each class needs at least 2 samples")
    # an infinite sample gives sigma = nan and a huge one sigma = inf; the
    # model refuses either as a bandwidth
    with np.errstate(invalid="ignore", over="ignore"):
        sigmas = [float(s.std(ddof=1)) for s in samples]
    bandwidths = [1.06 * sigma * s.size ** (-1.0 / 5.0) for s, sigma in zip(samples, sigmas)]
    if not all(sigma > 0.0 for sigma in sigmas):
        pooled_range = max(float(s.max()) for s in samples) - min(float(s.min()) for s in samples)
        fallback = 1e-3 * pooled_range if pooled_range > 0.0 else 1e-3
        bandwidths = [b if sigma > 0.0 else fallback for b, sigma in zip(bandwidths, sigmas)]
    if priors is None:
        total = samples[0].size + samples[1].size
        priors = (samples[0].size / total, samples[1].size / total)
    return KdeModel(
        class_samples=samples,
        bandwidths=(bandwidths[0], bandwidths[1]),
        priors=(float(priors[0]), float(priors[1])),
    )


def bayes_error(model: KdeModel, n_grid: int = GRID_POINTS) -> float:
    """Minimum achievable misclassification probability of the model.

    Integrates min_i P(C_i) p(x|C_i) with the trapezoid rule over the
    model's evaluation grid.
    """
    densities = model._densities(n_grid)
    weighted = np.minimum(model.priors[0] * densities[0], model.priors[1] * densities[1])
    if not np.all(np.isfinite(weighted)):
        raise ValueError("non-finite density on the evaluation grid")
    return float(np.trapezoid(weighted, model.evaluation_grid(n_grid)))


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
    n_grid: int = GRID_POINTS,
) -> SignificanceReport:
    """Score one feature column of a labeled table.

    The column name is ``feature`` plus the hemisphere suffix.  The
    baseline comes from the table's own class counts; the report flags
    significance when the improvement rate exceeds ``threshold``.
    """
    column = f"{feature}{hemisphere}"
    try:
        model = _fit_column(table.class_values(column))
    except ValueError as exc:
        raise ValueError(f"feature {column}: {exc}") from None
    err_0 = err0(*table.class_counts())
    err_b = bayes_error(model, n_grid=n_grid)
    rate = improvement_rate(err_b, err_0)
    return SignificanceReport(
        feature_id=feature,
        hemisphere=hemisphere,
        err_b=min(max(err_b, 0.0), 1.0),
        err_0=err_0,
        rate=rate,
        significant=rate > threshold,
    )


def _fit_column(classes: tuple[np.ndarray, np.ndarray]) -> KdeModel:
    """``fit_kde``, at an exact power-of-two scale when needed.

    A column whose largest magnitude lies outside [2^-500, 2^500] is fitted
    again with both classes scaled by a power of two that brings it into
    [0.5, 1).  The scale is exact and the Bayes error does not depend on
    it, while the bandwidths, grid and density normalization stay clear of
    underflow and overflow.  A column inside the window is fitted once, and
    the model's support gives its magnitude.
    """
    try:
        model = fit_kde(classes)
        (lo0, hi0), (lo1, hi1) = model._support
        magnitude = max(-lo0, hi0, -lo1, hi1)
    except ValueError:
        magnitude = max(float(np.max(np.abs(c))) for c in classes)  # NaN if any is
        if not _out_of_window(magnitude):
            raise
    if _out_of_window(magnitude):
        exponent = math.frexp(magnitude)[1]
        return fit_kde([np.ldexp(c, -exponent) for c in classes])
    return model


def _out_of_window(magnitude: float) -> bool:
    low, high = _MAGNITUDES
    return 0.0 < magnitude < math.inf and not low <= magnitude <= high


def rank_features(
    table: FeatureTable,
    threshold: float = SIGNIFICANCE_THRESHOLD,
    n_grid: int = GRID_POINTS,
) -> tuple[list[SignificanceReport], dict[str, str]]:
    """Score every column of a labeled table: (ranked reports, skipped).

    Reports rank by falling improvement rate, ties by column name; a
    ``<feature>L`` or ``<feature>R`` column is reported with that
    hemisphere.  ``skipped`` maps each column ``feature_significance``
    refuses to its message.  A class under 2 epochs raises first.
    """
    n_seizure, n_normal = table.class_counts()
    if min(n_seizure, n_normal) < 2:
        raise ValueError(f"table needs both classes with at least 2 epochs each, "
                         f"has {n_seizure} seizure and {n_normal} normal epochs")
    reports, skipped = [], {}
    for column in table.feature_names:
        side = column[-1] if len(column) > 1 and column[-1] in ("L", "R") else ""
        feature = column[: len(column) - len(side)]
        try:
            reports.append(feature_significance(table, feature, side, threshold, n_grid))
        except ValueError as exc:
            skipped[column] = str(exc)
    reports.sort(key=lambda r: (-r.rate, f"{r.feature_id}{r.hemisphere}"))
    return reports, skipped


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
