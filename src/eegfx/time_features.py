"""Time-domain features for one epoch (or any real-valued sequence).

Everything here is a pure function of a 1-D array, so the same operations
apply unchanged to raw samples and to wavelet sub-band coefficients (and,
for the moments, ``stat_summary``, Hjorth, shape functions, RMS, average
power and Shannon entropy, to each row of a matrix). Entropy
conventions: natural log throughout, 0*ln(0) := 0, Chebyshev distance for
template matching, and match tolerance is inclusive (distance <= r counts).

ApEn and SampEn share one template-match count (``template_entropies``).
The samples within r of a sample form one run of the sorted samples, so
each sample's matches are one packed bitset, the difference of two prefix
bitsets over the sort order. A template's matches are the AND of its
samples' bitsets, each shifted back by the sample's offset, and its count
is their popcount: Theta(N^2 / 64) word operations whatever the data.
Every pair is judged by the same per-sample test, |x[i+k] - x[j+k]| <= r,
so the counts are exact, not approximate.

FuzzEn and DistEn share one pair engine (``_pair_distances``): the
Chebyshev distance of every unordered pair of mean-removed windows,
visited once, a block of rows at a time, so memory is O(block x N)
rather than O(N^2).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "StatSummary",
    "approximate_entropy",
    "average_power",
    "box_counting_fd",
    "dfa",
    "distribution_entropy",
    "energy",
    "fuzzy_entropy",
    "higuchi_fd",
    "hjorth",
    "hurst_exponent",
    "line_length",
    "local_extrema",
    "moments",
    "nonlinear_energy",
    "permutation_entropy",
    "rms",
    "sample_entropy",
    "shannon_entropy",
    "stat_summary",
    "svd_entropy",
    "template_entropies",
    "weighted_permutation_entropy",
    "zero_crossings",
]

# Rows per block of the pair engine; keeps the O(N^2) work in large matrix
# ops without holding all N^2 / 2 pair distances at once.
_BLOCK_ROWS = 128

# Words of one match-bitset block (its samples times its words) in template
# matching. Wider signals are counted a column block of words at a time, so
# memory is O(N x block) even when nearly every pair matches (tie-heavy
# input), and a block of 1024-sample bitsets stays in cache.
_BLOCK_WORDS = 1 << 15
_BITS = np.uint64(1) << np.arange(64, dtype=np.uint64)  # bit b of a word


def _as_signal(x, min_len: int, name: str = "x") -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {a.shape}")
    if a.size < min_len:
        raise ValueError(f"{name} needs at least {min_len} samples, got {a.size}")
    return a


def _batched(min_len: int, undefined: str | None = None):
    """Take a 1-D signal (scalars out) or an (n_rows, n) matrix (a value per row);
    further arguments pass to the kernel.
    The kernel works along the last axis only, so a batch row equals the 1-D
    call bit for bit.  It marks an undefined row NaN, where a 1-D call raises.
    A matrix narrower than ``min_len`` raises the 1-D call's length error."""
    def wrap(kernel):
        @functools.wraps(kernel)
        def call(x, *args, **kwargs):
            a = np.asarray(x, dtype=np.float64)
            if a.ndim == 2:
                if a.shape[1] < min_len:
                    raise ValueError(f"x needs at least {min_len} samples, got {a.shape[1]}")
                return kernel(a, *args, **kwargs)
            out = kernel(_as_signal(a, min_len), *args, **kwargs)
            row = tuple(v.item() for v in out) if isinstance(out, tuple) else out.item()
            if undefined and any(map(math.isnan, row if isinstance(row, tuple) else (row,))):
                raise ValueError(undefined)
            return row
        return call
    return wrap


@dataclass(frozen=True)
class StatSummary:
    mean: float
    variance: float
    cv: float
    skewness: float
    kurtosis: float
    min: float
    max: float
    median: float
    mode: float
    q1: float
    q3: float
    iqr: float


@_batched(2)
def moments(a: np.ndarray) -> tuple[float, float, float, float, float]:
    """(mean, variance, cv, skewness, kurtosis) of a sequence.

    Population moments (divide by N); skewness/kurtosis standardized by
    SD^3/SD^4, kurtosis raw (Gaussian -> 3), both 0 for a constant input.
    cv = sqrt(variance)/mean, 0 for a constant signal and NaN when the
    mean is exactly 0 (undefined).
    """
    mean = a.mean(axis=-1)
    var = a.var(axis=-1)
    sd = np.sqrt(var)
    d = a - mean[..., None]
    d2 = d * d  # products, not d**3 and d**4: numpy's pow costs ~100 ns an element
    with np.errstate(divide="ignore", invalid="ignore"):
        skew = (d2 * d).mean(axis=-1) / np.float_power(sd, 3)  # libm pow, as float ** is
        kurt = (d2 * d2).mean(axis=-1) / (var * var)
        cv = sd / np.where(mean != 0.0, mean, math.nan)
    cv, skew, kurt = np.where(var == 0.0, 0.0, (cv, skew, kurt))  # a constant: all 0
    return mean, var, cv, skew, kurt


def _amplitude_histogram(
    a: np.ndarray, lo: np.ndarray, hi: np.ndarray, n_bins: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's counts and edges as ``np.histogram(row, n_bins, range=(lo,
    hi))`` makes them, bit for bit, for the row's min lo and max hi; and the
    rows it makes them for.  It raises on the others, a constant row among
    them: a range not finite or too narrow for n_bins + 1 increasing edges.

    Its rule, row by row: the edges are ``np.linspace``'s; the bin index is
    ``(x - lo) / (hi - lo) * n_bins``, the last edge's value clamped into the
    last bin, then moved one bin down or up where the edges say so, but not
    past the last bin.  Here an index is flat over the (row, edge) table, so
    one bincount counts every row; a count past the last bin is folded back.
    """
    span = hi - lo
    with np.errstate(invalid="ignore", over="ignore"):
        edges = np.arange(n_bins + 1.0) * (span / n_bins)[:, None] + lo[:, None]
        edges[:, -1] = hi
        ok = np.isfinite(lo) & np.isfinite(hi) & ~(edges[:, :-1] >= edges[:, 1:]).any(axis=1)
    counts = np.zeros((len(a), n_bins + 1), dtype=np.intp)
    if ok.any():
        x, table = (a, edges) if ok.all() else (a[ok], edges[ok])
        index = x - lo[ok, None]
        index /= span[ok, None]
        index *= n_bins
        index = index.astype(np.intp)
        np.minimum(index, n_bins - 1, out=index)
        index += np.arange(len(x))[:, None] * (n_bins + 1)
        table = table.ravel()
        index -= x < np.take(table, index)
        index += x >= np.take(table[1:], index)
        counts[ok] = np.bincount(index.ravel(), minlength=len(x) * (n_bins + 1)).reshape(-1, n_bins + 1)
    counts[:, -2] += counts[:, -1]
    return counts[:, :-1], edges, ok


@_batched(2)
def _summary(a: np.ndarray) -> tuple:
    a = a.reshape(-1, a.shape[-1])
    lo, hi = a.min(axis=-1), a.max(axis=-1)
    counts, edges, ok = _amplitude_histogram(a, lo, hi, 64)
    rows, top = np.arange(len(a)), counts.argmax(axis=-1)
    center = 0.5 * (edges[rows, top] + edges[rows, top + 1])
    mode = np.where(lo == hi, lo, np.where(ok, center, math.nan))
    q1, median, q3 = np.percentile(a, [25, 50, 75], axis=-1)
    values = (*moments(a), lo, hi, median, mode, q1, q3, q3 - q1)
    return tuple(np.where(np.isnan(mode), math.nan, v) for v in values)


def stat_summary(x) -> StatSummary:
    """Moment and order statistics of a sequence, or of each row of a matrix.

    The moments are those of :func:`moments`. Quartiles use linear
    interpolation; mode is the center of the fullest of 64 equal-width bins.
    Raises where the range is not finite or too narrow for the bins; a
    matrix gets arrays, NaN in every field of such a row.
    """
    summary = StatSummary(*_summary(x))
    if isinstance(summary.mode, float) and math.isnan(summary.mode):
        raise ValueError("amplitude range not finite or too narrow for 64 bins")
    return summary


@_batched(1)
def energy(a: np.ndarray) -> float:
    """Sum of squared amplitudes.

    Summed by numpy's own loop rather than a BLAS dot product: above
    about 10k samples a threaded BLAS ``a @ a`` can cost milliseconds
    per call in thread hand-off, where the sum itself takes microseconds.
    """
    return np.einsum("...i,...i->...", a, a)


@_batched(1)
def average_power(a: np.ndarray) -> float:
    """Energy per sample."""
    return energy.__wrapped__(a) / a.shape[-1]


@_batched(1)
def rms(a: np.ndarray) -> float:
    """Root mean square amplitude."""
    return np.sqrt(average_power.__wrapped__(a))


@_batched(2)
def line_length(a: np.ndarray) -> float:
    """Total vertical extent: sum of absolute successive differences.

    Takes the absolute value in place, so a call holds one temporary the
    size of the signal rather than two.  Past about 100k samples two
    live temporaries make the allocator return and re-fault their pages
    on every call, which costs more than the sum itself.
    """
    steps = np.diff(a, axis=-1)
    return np.abs(steps, out=steps).sum(axis=-1)


@_batched(3)
def nonlinear_energy(a: np.ndarray) -> float:
    """Sum of x[i]^2 - x[i+1]*x[i-1] over interior samples.

    Grows with both amplitude and frequency (~ A^2 w^2 for a sinusoid).
    """
    return (a[..., 1:-1] * a[..., 1:-1] - a[..., 2:] * a[..., :-2]).sum(axis=-1)


def _entropy(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


@_batched(1, undefined="amplitude range not finite or too narrow for n_bins bins")
def shannon_entropy(a: np.ndarray, n_bins: int = 64) -> float:
    """Entropy of the amplitude histogram over equal-width bins on [min, max],
    0 for a constant signal.  Each row's value is that of its nonzero bins'
    probabilities p, summed as ``-(p * ln p).sum()`` in bin order."""
    if n_bins < 2:
        raise ValueError("n_bins must be >= 2")
    a = a.reshape(-1, a.shape[-1])
    lo, hi = a.min(axis=-1), a.max(axis=-1)
    counts, _, ok = _amplitude_histogram(a, lo, hi, n_bins)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = counts / a.shape[-1]
        terms = p * np.log(p)  # NaN in an empty bin, never read
    nonzero = counts > 0
    filled = nonzero.sum(axis=1)
    h = np.where(lo == hi, 0.0, math.nan)
    # rows with the same number of nonzero bins gather into one contiguous
    # block, so each row sums its terms in bin order, as a 1-D sum would
    for size in np.unique(filled[ok]).tolist():
        rows = np.flatnonzero(ok & (filled == size))
        h[rows] = -terms[rows][nonzero[rows]].reshape(rows.size, size).sum(axis=1)
    return h


def _template_args(x, m: int, r: float | None) -> tuple[np.ndarray, float]:
    """The signal and tolerance of a template entropy: m >= 1, N >= m + 2,
    and r > 0, r defaulting to 0.2 * sample SD."""
    if m < 1:
        raise ValueError("m must be >= 1")
    a = _as_signal(x, m + 2)
    if r is None:
        r = 0.2 * float(a.std(ddof=1))
    if not r > 0:
        raise ValueError("tolerance r must be > 0")
    return a, r


def _run_ends(xs: np.ndarray, r: float) -> np.ndarray:
    """For each sorted sample xs[k], the end of its run: the number of
    samples y with fl(y - xs[k]) <= r.

    Rounding is monotone, so these samples are a prefix of the sort order.
    A search for fl(xs[k] + r) lands within a few ulp of the end; each
    correction then steps over one whole run of tied values, checking the
    exact predicate, until the end is exact.
    """
    ends = np.searchsorted(xs, xs + r, side="right")  # >= k + 1, as r > 0
    above = np.append(xs, np.inf)
    while (short := np.flatnonzero(above[ends] - xs <= r)).size:
        ends[short] = np.searchsorted(xs, xs[ends[short]], side="right")
    while (long := np.flatnonzero(xs[ends - 1] - xs > r)).size:
        ends[long] = np.searchsorted(xs, xs[ends[long] - 1], side="left")
    return ends


def _sample_match_words(
    rank: np.ndarray, lo: np.ndarray, hi: np.ndarray, first: int, cols: int, pad: int
) -> np.ndarray:
    """Words first .. first + cols - 1 of every sample's match bitset, word
    major and flat (word w of sample u at ``w * N + u``), then ``pad`` zero
    words.

    Sample v is bit v % 64 of word v // 64. Sample u's bitset marks the
    samples of rank lo[u] .. hi[u] - 1: P[hi[u]] ^ P[lo[u]], where the
    prefix bitset P[k] marks the samples of rank < k.
    """
    size = rank.size
    prefix = np.zeros((size + 1, cols), dtype=np.uint64)
    ranks = rank[64 * first : 64 * (first + cols)]  # samples of these words
    offset = np.arange(ranks.size)
    prefix[ranks + 1, offset >> 6] = _BITS[offset & 63]
    np.bitwise_or.accumulate(prefix, axis=0, out=prefix)
    rows = np.take(prefix, hi, axis=0)
    rows ^= np.take(prefix, lo, axis=0)
    words = np.zeros(cols * size + pad, dtype=np.uint64)
    words[: cols * size].reshape(cols, size)[...] = rows.T
    return words


def _template_match_counts(
    a: np.ndarray, m: int, r: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-template Chebyshev match counts (d <= r, self included) at
    lengths m and m+1, from packed match bitsets.

    The samples within r of a sample are one run of the sorted samples, and
    its match bitset marks them (``_sample_match_words``). Template j
    matches template i at length m iff bit j of S[i+k] >> k is set in the
    bitset S of every sample i+k, k < m, and at m+1 iff also for k = m; the
    counts are popcounts. The words are taken a column block of about
    ``_BLOCK_WORDS / N`` at a time, with the m // 64 + 1 words after it
    that the shifts read.
    ``a`` must be finite, so that every template matches itself.
    """
    size = a.size
    n = size - m + 1
    order = np.argsort(a)
    hi_sorted = _run_ends(a[order], r)
    # the match relation is symmetric: rank k's run starts after every run
    # that ends at or before k
    lo_sorted = np.cumsum(np.bincount(hi_sorted, minlength=size)[:size])
    rank = np.empty(size, dtype=np.intp)
    rank[order] = np.arange(size)
    lo, hi = lo_sorted[rank], hi_sorted[rank]
    n_words = -(-size // 64)
    width = min(n_words, max(1, _BLOCK_WORDS // size))
    counts_m = np.zeros(n, dtype=np.int64)
    counts_m1 = np.zeros(n - 1, dtype=np.int64)
    for first in range(0, n_words, width):
        block = min(width, n_words - first)
        # flat, so that a shift by k samples and q words is one contiguous
        # offset, k + q * N; m spare words keep the last offset in range.
        # An offset row runs into the next word's row only at samples past
        # the last template it counts for.
        matches = _sample_match_words(rank, lo, hi, first, block + m // 64 + 1, m)
        span = block * size
        longer = matches[:span]  # bit j of row i: templates i, j match at length 1
        for k in range(1, m + 1):
            q, s = divmod(k, 64)
            start = q * size + k
            sample_k = matches[start : start + span] >> s  # bit j: x[j+k] near x[i+k]
            if s:
                sample_k |= matches[start + size : start + size + span] << (64 - s)
            sample_k &= longer
            shorter, longer = longer, sample_k
        for counts, bits in ((counts_m, shorter), (counts_m1, longer)):
            per_row = np.bitwise_count(bits).reshape(block, size).sum(axis=0, dtype=np.int64)
            counts += per_row[: counts.size]
    return counts_m, counts_m1


def _phi(counts: np.ndarray) -> float:
    return float(np.log(counts / counts.size).mean())


def template_entropies(x, m: int = 2, r: float | None = None) -> tuple[float, float]:
    """(ApEn, SampEn) from one shared template-match count.

    Templates are the stride-1 windows of length m and m+1, compared under
    Chebyshev distance <= r; r defaults to 0.2 * sample SD. ApEn is
    phi(m) - phi(m+1), where phi(s) averages ln of the fraction of
    length-s windows matching each window, itself included. SampEn is
    ln(B / A) over ordered pairs i != j of matching windows, B at length
    m and A at m+1, each length over its own full index range; it is NaN
    when no (m+1)-pair matches. Raises on m < 1, N < m + 2, r <= 0 (a
    constant signal under the default r) or a non-finite sample.
    """
    a, r = _template_args(x, m, r)
    if not np.isfinite(a).all():
        raise ValueError("template matching needs finite samples")
    counts_m, counts_m1 = _template_match_counts(a, m, r)
    apen = _phi(counts_m) - _phi(counts_m1)
    pairs_m = int(counts_m.sum()) - counts_m.size
    pairs_m1 = int(counts_m1.sum()) - counts_m1.size
    if pairs_m1 == 0:
        return apen, math.nan
    return apen, math.log(pairs_m) - math.log(pairs_m1)


def approximate_entropy(x, m: int = 2, r: float | None = None) -> float:
    """Template-matching regularity statistic with self-matches included.

    phi(s) averages ln of the fraction of length-s windows within Chebyshev
    distance r of each window (the window itself always matches, so the
    fraction is never 0); result is phi(m) - phi(m+1). r defaults to
    0.2 * sample SD. See ``template_entropies``.
    """
    return template_entropies(x, m, r)[0]


def sample_entropy(x, m: int = 2, r: float | None = None) -> float:
    """ln of the ratio of m-window to (m+1)-window match counts.

    Counts ordered template pairs i != j (no self-matches) under Chebyshev
    distance <= r, each window length over its own full index range. Raises
    if no (m+1)-pair matches, where the statistic is undefined. See
    ``template_entropies``.
    """
    sampen = template_entropies(x, m, r)[1]
    if math.isnan(sampen):
        raise ValueError("sample entropy undefined: no template pair matches at m+1")
    return sampen


def _ordinal_patterns(x, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank patterns of all stride-1 windows, ties keeping earlier index first.

    Returns (pattern id per window, window matrix); 1 <= m <= 8.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > 8:
        raise ValueError("m > 8 is intractable (m! patterns)")
    windows = sliding_window_view(_as_signal(x, m), m)
    order = np.argsort(windows, axis=1, kind="stable")
    # encode each permutation as an integer in factorial-free base m
    ids = np.zeros(windows.shape[0], dtype=np.int64)
    for k in range(m):
        ids = ids * m + order[:, k]
    return ids, windows


def permutation_entropy(x, m: int = 3) -> float:
    """Entropy of the rank-order pattern distribution of stride-1 windows."""
    ids, _ = _ordinal_patterns(x, m)
    _, counts = np.unique(ids, return_counts=True)
    return _entropy(counts / ids.size)


def weighted_permutation_entropy(x, m: int = 3) -> float:
    """Permutation entropy with each window weighted by its variance.

    Pattern probabilities are variance-weighted relative frequencies; a
    signal whose every window is constant carries zero total weight and
    returns 0.
    """
    ids, windows = _ordinal_patterns(x, m)
    weights = windows.var(axis=1)
    total = weights.sum()
    if total == 0.0:
        return 0.0
    uniq, inv = np.unique(ids, return_inverse=True)
    p = np.bincount(inv, weights=weights, minlength=uniq.size) / total
    return _entropy(p)


def _centered_windows(a: np.ndarray, length: int, count: int) -> np.ndarray:
    """The first ``count`` windows of ``length`` samples, each mean-removed."""
    windows = sliding_window_view(a, length)[:count]
    return windows - windows.mean(axis=1, keepdims=True)


def _pair_distances(windows: np.ndarray):
    """Chebyshev distances of the unordered pairs i < j of the rows of
    ``windows``, yielded one block of ``_BLOCK_ROWS`` values of i at a
    time, each pair exactly once."""
    count, length = windows.shape
    for lo in range(0, count - 1, _BLOCK_ROWS):
        blk, rest = windows[lo : lo + _BLOCK_ROWS], windows[lo + 1 :]
        d = np.abs(blk[:, None, 0] - rest[None, :, 0])
        step = np.empty_like(d)  # one scratch block for every coordinate
        for k in range(1, length):
            np.subtract(blk[:, None, k], rest[None, :, k], out=step)
            np.maximum(d, np.abs(step, out=step), out=d)
        del step
        # row p is window lo + p and column q window lo + 1 + q: keep q >= p,
        # a tail of each row, so the rows' tails in order need no mask
        kept = np.concatenate([row[p:] for p, row in enumerate(d)])
        del d
        yield kept


def fuzzy_entropy(x, m: int = 2, r: float | None = None) -> float:
    """Graded template matching on mean-removed windows.

    Similarity between windows is the Gaussian exp(-d^2/(2r^2)) of their
    Chebyshev distance; the same N-m leading windows are compared at
    lengths m and m+1 so the pair counts cancel in
    ln(phi(m)) - ln(phi(m+1)), and so does summing each unordered pair
    once rather than both orders. r defaults to 0.2 * sample SD.
    """
    a, r = _template_args(x, m, r)
    sim_m, sim_m1 = (
        sum(float(np.exp(-(d * d) / (2.0 * r * r)).sum()) for d in pairs)
        for pairs in (_pair_distances(_centered_windows(a, k, a.size - m)) for k in (m, m + 1))
    )
    return math.log(sim_m) - math.log(sim_m1)


def distribution_entropy(x, m: int = 2, n_bins: int = 256) -> float:
    """Normalized entropy of the template-distance histogram, in [0, 1].

    Chebyshev distances between all pairs of distinct mean-removed
    windows (same window construction as fuzzy_entropy) are binned into
    n_bins equal-width bins over [0, max distance]; entropy is normalized
    by ln(n_bins). A constant signal puts every distance in one bin -> 0.
    The largest distance is the largest per-coordinate spread (max - min)
    of the windows: |u - v| rounds monotonically in u and in v, so no pair
    rounds above the spread of the coordinate it is read from.
    """
    a = _as_signal(x, m + 2)
    if m < 1:
        raise ValueError("m must be >= 1")
    if n_bins < 2:
        raise ValueError("n_bins must be >= 2")
    count = a.size - m
    windows = _centered_windows(a, m, count)
    dmax = float((windows.max(axis=0) - windows.min(axis=0)).max())
    if dmax == 0.0:
        return 0.0
    counts = sum(
        np.histogram(d, bins=n_bins, range=(0.0, dmax))[0] for d in _pair_distances(windows)
    )
    # unordered pairs: ordered-pair histogram is exactly 2x, same frequencies
    return _entropy(counts / (count * (count - 1) // 2)) / math.log(n_bins)


def svd_entropy(x, m: int = 3, delay: int = 1) -> float:
    """Entropy of normalized singular values of the delay-embedding matrix.

    Rows are [x[i], x[i+delay], ..., x[i+(m-1)delay]]. Singular values are
    normalized to sum to 1; zero singular values contribute nothing. An
    all-zero signal returns 0.
    """
    a = _as_signal(x, 1)
    if m < 1 or delay < 1:
        raise ValueError("m and delay must be >= 1")
    if a.size < m * delay:
        raise ValueError(f"need N >= m * delay = {m * delay}, got {a.size}")
    rows = a.size - (m - 1) * delay
    idx = np.arange(rows)[:, None] + np.arange(m)[None, :] * delay
    sigma = np.linalg.svd(a[idx], compute_uv=False)
    total = sigma.sum()
    if total == 0.0:
        return 0.0
    return _entropy(sigma / total)


def _log_spaced_sizes(lo: int, hi: int, num: int = 12) -> np.ndarray:
    if hi < lo:
        raise ValueError(f"invalid size range [{lo}, {hi}]")
    return np.unique(np.round(np.geomspace(lo, hi, num)).astype(int))


def hurst_exponent(x) -> float:
    """Rescaled-range slope over log-spaced window sizes 8..N/2.

    Each window size splits the signal into non-overlapping windows; per
    window, R is the range of the cumulative mean-removed partial sums and
    S the population SD. ln(mean R/S) is regressed on ln(size) with an
    intercept (a forced zero intercept would make the estimate depend on
    units). Zero-variance windows are skipped; if every window at every
    size is constant the statistic is undefined.
    """
    a = _as_signal(x, 32)
    sizes = _log_spaced_sizes(8, a.size // 2)
    log_size, log_rs = [], []
    for w in sizes:
        n_seg = a.size // w
        segs = a[: n_seg * w].reshape(n_seg, w)
        sd = segs.std(axis=1)
        keep = sd > 0
        if not keep.any():
            continue
        z = np.cumsum(segs[keep] - segs[keep].mean(axis=1, keepdims=True), axis=1)
        rs = (z.max(axis=1) - z.min(axis=1)) / sd[keep]
        log_size.append(math.log(w))
        log_rs.append(math.log(rs.mean()))
    if len(log_size) < 2:
        raise ValueError("Hurst exponent undefined: all windows constant")
    return float(np.polyfit(log_size, log_rs, 1)[0])


def higuchi_fd(x, k_max: int = 8) -> float:
    """Curve-length fractal dimension from decimated path lengths.

    For each step tau = 1..k_max and each phase, the mean absolute increment
    of the decimated series is rescaled to the full record length; the
    dimension is minus the slope of ln(mean length) vs ln(tau).
    """
    a = _as_signal(x, 3)
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    if a.size <= k_max:
        raise ValueError(f"need N > k_max, got N={a.size}, k_max={k_max}")
    n = a.size
    log_tau, log_len = [], []
    for tau in range(1, k_max + 1):
        lengths = []
        for m0 in range(tau):
            n_inc = (n - 1 - m0) // tau
            if n_inc < 1:
                continue
            path = np.abs(np.diff(a[m0 : m0 + n_inc * tau + 1 : tau])).sum()
            lengths.append(path * (n - 1) / (n_inc * tau * tau))
        mean_len = float(np.mean(lengths))
        if mean_len <= 0.0:
            # flat at this decimation; a log fit cannot use it
            continue
        log_tau.append(math.log(tau))
        log_len.append(math.log(mean_len))
    if len(log_tau) < 2:
        raise ValueError("Higuchi dimension undefined: flat signal")
    return float(-np.polyfit(log_tau, log_len, 1)[0])


def _boxes_crossed(t: np.ndarray, y: np.ndarray, k: int) -> int:
    """Count eps x eps boxes (eps = 2^-k) crossed by the unit-square polyline."""
    n_cols = 1 << k
    eps = 1.0 / n_cols
    cols = np.minimum((t / eps).astype(np.int64), n_cols - 1)
    # include interpolated values at column boundaries in both neighbors
    tb = np.arange(1, n_cols) * eps
    yb = np.interp(tb, t, y)
    all_cols = np.concatenate([cols, np.arange(1, n_cols), np.arange(n_cols - 1)])
    all_y = np.concatenate([y, yb, yb])
    ymin = np.full(n_cols, np.inf)
    ymax = np.full(n_cols, -np.inf)
    np.minimum.at(ymin, all_cols, all_y)
    np.maximum.at(ymax, all_cols, all_y)
    occupied = ymax >= ymin
    row_lo = np.minimum(np.floor(ymin[occupied] / eps), n_cols - 1)
    row_hi = np.minimum(np.floor(ymax[occupied] / eps), n_cols - 1)
    return int((row_hi - row_lo + 1).sum())


def box_counting_fd(x) -> float:
    """Box-counting dimension of the signal polyline in the unit square.

    Dyadic box sizes 2^-1 .. 2^-(log2(N)-1); the limit is replaced by the
    log-log regression slope over those scales. A constant signal is a
    horizontal line: dimension 1 by convention.
    """
    a = _as_signal(x, 16)
    lo, hi = float(a.min()), float(a.max())
    if lo == hi:
        return 1.0
    t = np.linspace(0.0, 1.0, a.size)
    y = (a - lo) / (hi - lo)
    k_top = int(math.floor(math.log2(a.size))) - 1
    ks = np.arange(1, k_top + 1)
    counts = [_boxes_crossed(t, y, int(k)) for k in ks]
    # ln N(eps) vs ln(1/eps) = k ln 2
    return float(np.polyfit(ks * math.log(2.0), np.log(counts), 1)[0])


@_batched(3, undefined="Hjorth parameters undefined for a constant (or overflowing) signal")
def hjorth(a: np.ndarray) -> tuple[float, float, float]:
    """(activity, mobility, complexity).

    Activity is the population variance; mobility the SD ratio of the first
    difference to the signal; complexity the mobility ratio of the first
    difference to the signal. Requires a nonconstant signal. A constant
    derivative (straight ramp) has zero mobility; its complexity ratio is
    0/0 and is defined as 0 here.
    """
    activity = a.var(axis=-1)
    d1 = np.diff(a, axis=-1)
    sd1 = d1.std(axis=-1)
    sd2 = np.diff(d1, axis=-1).std(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        mobility = sd1 / np.sqrt(activity)  # 0 for a ramp; NaN: constant or overflowing
        complexity = np.where(mobility == 0.0, 0.0, (sd2 / sd1) / mobility)
    return activity + mobility * 0.0, mobility, complexity


def dfa(x) -> float:
    """Detrended fluctuation slope over log-spaced scales 4..N/4.

    The cumulative mean-removed profile is split into non-overlapping
    segments per scale, each segment is detrended by its least-squares
    line, and RMS residuals (over the included samples) are regressed
    against scale on log-log axes.
    """
    a = _as_signal(x, 64)
    profile = np.cumsum(a - a.mean())
    log_n, log_f = [], []
    for n in _log_spaced_sizes(4, a.size // 4):
        n_seg = profile.size // n
        segs = profile[: n_seg * n].reshape(n_seg, n)
        t = np.arange(n, dtype=np.float64)
        coef = np.polyfit(t, segs.T, 1)
        resid = segs - (np.outer(coef[0], t) + coef[1][:, None])
        f = math.sqrt(float((resid * resid).mean()))
        if f > 0.0:
            log_n.append(math.log(n))
            log_f.append(math.log(f))
    if len(log_n) < 2:
        raise ValueError("DFA undefined: zero fluctuation at all scales")
    return float(np.polyfit(log_n, log_f, 1)[0])


@_batched(2)
def zero_crossings(a: np.ndarray) -> int:
    """Count of adjacent sample pairs with strictly opposite signs."""
    return (a[..., :-1] * a[..., 1:] < 0).sum(axis=-1)


@_batched(3)
def local_extrema(a: np.ndarray) -> int:
    """Count of interior samples where the slope strictly changes sign."""
    d = np.diff(a, axis=-1)
    return (d[..., :-1] * d[..., 1:] < 0).sum(axis=-1)
