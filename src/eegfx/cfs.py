"""Correlation-based feature selection.

Features are discretized by rank into plain int64 codes; correlations
are symmetrical uncertainty (SU, an entropy ratio in [0, 1]) from one
row-wise kernel that counts a block of code rows against one code vector
with a single ``bincount``.  Entropies sum their counts sorted and in
sequence, so an SU does not depend on argument order, unused code values
or the other rows of the call.  Greedy forward selection scores subsets
by Hall's merit, keeping its sums as running totals: one kernel call per
pick.  ``select_features`` runs that search over the columns
``discretize`` accepts and names each column it skips with the reason.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from eegfx.feature_table import FeatureTable

__all__ = [
    "MeritTrace",
    "discretize",
    "symmetric_correlation",
    "merit",
    "forward_search",
    "select_features",
    "DEFAULT_BINS",
]

DEFAULT_BINS = 10  # equal-frequency bins per feature
_BLOCK_CELLS = 1 << 17  # int64 cells per kernel block, about 1 MB


def discretize(values, n_bins: int = DEFAULT_BINS) -> np.ndarray:
    """Equal-frequency int64 bin codes by rank; ties share the lower bin.

    A sample's code is floor(rank * n_bins / N) where rank is the
    position of its first occurrence in sort order, so the codes depend
    only on the ordering of the values: any increasing transform of the
    input yields identical codes.
    """
    a = np.asarray(values, dtype=np.float64)
    if a.ndim != 1 or a.size == 0:
        raise ValueError("values must be a nonempty 1-D vector")
    if not np.all(np.isfinite(a)):
        raise ValueError("values must be finite")
    if n_bins < 2:
        raise ValueError(f"n_bins must be >= 2, got {n_bins}")
    _, inverse, counts = np.unique(a, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - counts)[inverse] * n_bins // a.size


def _codes_of(x) -> np.ndarray:
    a = np.asarray(x)
    if a.ndim != 1 or a.size == 0 or not np.issubdtype(a.dtype, np.integer):
        raise ValueError("expected a nonempty 1-D integer code vector")
    if a.min() < 0:
        raise ValueError("codes must be nonnegative")
    return a.astype(np.int64, copy=False)


def _entropy(counts: np.ndarray, n: int) -> np.ndarray:
    """-sum p log p along the last axis, over the counts sorted and in sequence."""
    p = np.sort(counts, axis=-1) / n
    terms = p * np.log(p, out=np.zeros_like(p), where=p > 0)
    return -np.add.accumulate(terms, axis=-1)[..., -1]


def _su_rows(codes: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Symmetrical uncertainty of every row of a (rows, N) code matrix with b."""
    n_rows, n = codes.shape
    n_a, n_b = int(codes.max()) + 1, int(b.max()) + 1
    cells = n_a * n_b
    h_b = _entropy(np.bincount(b, minlength=n_b), n)
    step = max(1, _BLOCK_CELLS // max(n, cells))
    buffer = np.empty((min(step, n_rows), n), dtype=np.int64)  # one index array live
    out = np.empty(n_rows)
    for lo in range(0, n_rows, step):
        block = codes[lo : lo + step]
        joint_index = np.multiply(block, n_b, out=buffer[: len(block)])
        joint_index += b
        joint_index += np.arange(0, len(block) * cells, cells)[:, None]
        joint = np.bincount(joint_index.ravel(), minlength=len(block) * cells)
        joint = joint.reshape(len(block), n_a, n_b)
        h_a = _entropy(joint.sum(axis=2), n)
        h_ab = _entropy(joint.reshape(len(block), cells), n)
        total = h_a + h_b
        info = total - h_ab
        su = np.divide(2.0 * info, total, out=np.zeros_like(total), where=total > 0)
        out[lo : lo + step] = np.maximum(su, 0.0)
    return out


def symmetric_correlation(a, b) -> float:
    """Symmetrical uncertainty 2 I(a;b) / (H(a) + H(b)), natural log.

    Takes two nonnegative integer code vectors, such as ``discretize``
    output or class labels.  Zero when the joint information is zero
    (for instance either side is constant).
    """
    codes_a, codes_b = _codes_of(a), _codes_of(b)
    if codes_a.size != codes_b.size:
        raise ValueError(f"length mismatch: {codes_a.size} vs {codes_b.size}")
    return float(_su_rows(codes_a[None, :], codes_b)[0])


def merit(
    subset: Sequence[str],
    feature_class_corr: Mapping[str, float],
    feature_feature_corr: Mapping[tuple[str, str], float],
) -> float:
    """Merit k r_fc / sqrt(k + k (k-1) r_ff), means over the subset.

    Computed as sum r_fc / sqrt(k + 2 sum r_ff), both sums in subset
    order; the pair sum adds, member by member, the sum of that member's
    pairs with the members before it.  ``forward_search`` keeps these
    sums as running totals, so its merits equal this value bit for bit.
    Pair keys may be given in either order.
    """
    k = len(subset)
    if k < 1:
        raise ValueError("subset must contain at least one feature")
    if len(set(subset)) != k:
        raise ValueError("subset contains repeated features")
    sum_fc = sum_ff = 0.0
    for j, g in enumerate(subset):
        sum_fc += float(feature_class_corr[g])
        pairs = 0.0
        for f in subset[:j]:
            key = (f, g) if (f, g) in feature_feature_corr else (g, f)
            pairs += float(feature_feature_corr[key])
        sum_ff += pairs
    return sum_fc / math.sqrt(k + 2.0 * sum_ff)


@dataclass(frozen=True)
class MeritTrace:
    """Greedy-search record: features in entry order with merit per size."""

    features: tuple[str, ...]
    merits: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.features) != len(self.merits) or not self.features:
            raise ValueError("one merit per selected feature required")

    @property
    def best_size(self) -> int:
        """Size of the shortest prefix that reaches the maximum merit."""
        return int(np.argmax(self.merits)) + 1

    @property
    def best_subset(self) -> tuple[str, ...]:
        return self.features[: self.best_size]

    @property
    def best_merit(self) -> float:
        return self.merits[self.best_size - 1]

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("rank,feature,merit_at_entry\n")
        for rank, (feature, m) in enumerate(zip(self.features, self.merits), start=1):
            buf.write(f"{rank},{feature},{m:.9g}\n")
        return buf.getvalue()

    def summary(self) -> dict:
        return {
            "best_size": self.best_size,
            "best_merit": self.best_merit,
            "features": list(self.best_subset),
        }


def forward_search(
    table: FeatureTable,
    max_size: int,
    n_bins: int = DEFAULT_BINS,
) -> MeritTrace:
    """Greedy forward selection over the table's feature columns.

    Each step adds the unselected feature whose addition maximizes the
    merit; ties fall to the higher feature-class correlation and then
    to feature-name order.
    """
    n_columns = len(table.feature_names)
    if not 1 <= max_size <= n_columns:
        raise ValueError(f"max_size {max_size} not in [1, {n_columns}]")
    names, codes, skipped = _discretized(table, n_bins)
    if skipped:
        raise ValueError(next(iter(skipped.values())))
    return _greedy(table, names, codes, max_size)


def select_features(
    table: FeatureTable,
    max_size: int,
    n_bins: int = DEFAULT_BINS,
) -> tuple[MeritTrace, dict[str, str]]:
    """``forward_search`` over the columns ``discretize`` accepts: (trace, skipped).

    ``skipped`` maps each refused column (a non-finite cell) to the
    refusal's message, and the search picks at most ``max_size`` of the
    columns left.  A table with no column left is refused.
    """
    names, codes, skipped = _discretized(table, n_bins)
    if not names:
        reasons = "".join(f"; skipped {reason}" for reason in skipped.values())
        raise ValueError(f"no feature column to select from{reasons}")
    return _greedy(table, names, codes, min(max_size, len(names))), skipped


def _discretized(
    table: FeatureTable, n_bins: int
) -> tuple[tuple[str, ...], np.ndarray, dict[str, str]]:
    """(names, codes, skipped): rank codes of the columns ``discretize`` accepts."""
    codes = np.empty((len(table.feature_names), len(table)), dtype=np.int64)
    names: list[str] = []
    skipped: dict[str, str] = {}
    for name in table.feature_names:
        try:
            codes[len(names)] = discretize(table.column(name), n_bins)
            names.append(name)
        except ValueError as exc:
            skipped[name] = f"feature {name}: {exc}"
    return tuple(names), codes[: len(names)], skipped


def _greedy(
    table: FeatureTable, names: tuple[str, ...], codes: np.ndarray, max_size: int
) -> MeritTrace:
    """The forward search over one row of ``codes`` per name."""
    n_seizure, n_normal = table.class_counts()
    if n_seizure == 0 or n_normal == 0:
        raise ValueError("both classes must be present for selection")
    r_fc = _su_rows(codes, table.labels)
    r_ff = np.zeros(len(names))  # each column's summed SU with the members
    sum_fc = sum_ff = 0.0
    selected: list[int] = []
    merits: list[float] = []
    remaining = list(range(len(names)))
    while len(selected) < max_size:
        if selected:
            r_ff += _su_rows(codes, codes[selected[-1]])
        scores = (sum_fc + r_fc) / np.sqrt(len(selected) + 1 + 2.0 * (sum_ff + r_ff))
        best = min(remaining, key=lambda c: (-scores[c], -r_fc[c], names[c]))
        selected.append(best)
        merits.append(float(scores[best]))
        remaining.remove(best)
        sum_fc += r_fc[best]
        sum_ff += r_ff[best]
    features = tuple(names[i] for i in selected)
    return MeritTrace(features, tuple(merits))
