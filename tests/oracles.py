"""Naive reference implementations used only by the test suite.

The entropy references are plain double loops over Python floats,
independently of the library's vectorized code, so agreement is meaningful.
Conventions mirror the documented library contracts: natural log, Chebyshev
distance, inclusive tolerance (d <= r).  The KDE reference is the exact
O(grid x N) direct sum, blocked over samples with numpy so it finishes at
the paper's epoch counts; it shares no code with the library's binned KDE.
The sampled-kernel KDE bins like the library but convolves each class with
the kernel sampled on the lattice and cut at +-8h (Wand, 1994), three FFTs
per class; it pins the library's closed-form kernel transform within a
stated tolerance and shares only the FFT length rule.
The CFS reference is the pair-by-pair greedy search: one bincount per
pair, p @ log p entropies, and every candidate's merit summed afresh.
The dominant-peak and histogram references work one row at a time, with
a plain loop for the local maxima, one ``.mean()`` per FWHM band and
``np.histogram`` per row; the batched kernels must equal them bit for bit.
"""

import math

import numpy as np

from eegfx.evaluation import _fast_len


def chebyshev(u, v):
    return max(abs(a - b) for a, b in zip(u, v))


def naive_apen(x, m, r):
    n = len(x)

    def phi(length):
        templates = [x[i : i + length] for i in range(n - length + 1)]
        t = len(templates)
        total = 0.0
        for u in templates:
            c = sum(1 for v in templates if chebyshev(u, v) <= r)
            total += math.log(c / t)
        return total / t

    return phi(m) - phi(m + 1)


def naive_sampen(x, m, r):
    n = len(x)

    def matches(length):
        templates = [x[i : i + length] for i in range(n - length + 1)]
        count = 0
        for i, u in enumerate(templates):
            for j, v in enumerate(templates):
                if i != j and chebyshev(u, v) <= r:
                    count += 1
        return count

    a, b = matches(m), matches(m + 1)
    if b == 0:
        raise ValueError("no (m+1)-matches")
    return math.log(a) - math.log(b)


def _centered(x, length, count):
    out = []
    for i in range(count):
        w = x[i : i + length]
        mu = sum(w) / length
        out.append([v - mu for v in w])
    return out


def naive_fuzzen(x, m, r):
    n = len(x)
    count = n - m

    def phi(length):
        windows = _centered(x, length, count)
        total = 0.0
        for i, u in enumerate(windows):
            for j, v in enumerate(windows):
                if i != j:
                    d = chebyshev(u, v)
                    total += math.exp(-(d * d) / (2.0 * r * r))
        return total / (count * (count - 1))

    return math.log(phi(m)) - math.log(phi(m + 1))


def naive_disten(x, m, n_bins):
    n = len(x)
    windows = _centered(x, m, n - m)
    dists = []
    for i, u in enumerate(windows):
        for j, v in enumerate(windows):
            if i != j:
                dists.append(chebyshev(u, v))
    dmax = max(dists)
    if dmax == 0.0:
        return 0.0
    counts = [0] * n_bins
    for d in dists:
        b = min(int(d / dmax * n_bins), n_bins - 1)
        counts[b] += 1
    h = 0.0
    for c in counts:
        if c:
            p = c / len(dists)
            h -= p * math.log(p)
    return h / math.log(n_bins)


def _pattern(window):
    # ascending rank order, equal values keep original order
    return tuple(sorted(range(len(window)), key=lambda j: (window[j], j)))


def naive_pe(x, m):
    n = len(x)
    counts = {}
    for i in range(n - m + 1):
        p = _pattern(x[i : i + m])
        counts[p] = counts.get(p, 0) + 1
    total = sum(counts.values())
    h = 0.0
    for c in counts.values():
        p = c / total
        h -= p * math.log(p)
    return h


def naive_wpe(x, m):
    n = len(x)
    weights = {}
    total = 0.0
    for i in range(n - m + 1):
        w = x[i : i + m]
        mu = sum(w) / m
        var = sum((v - mu) ** 2 for v in w) / m
        p = _pattern(w)
        weights[p] = weights.get(p, 0.0) + var
        total += var
    if total == 0.0:
        return 0.0
    h = 0.0
    for wsum in weights.values():
        p = wsum / total
        if p > 0.0:
            h -= p * math.log(p)
    return h


def row_local_maxima(power):
    """Bins where a rise is followed by a fall, at the middle of a plateau,
    rounded down."""
    peaks, n, i = [], len(power), 1
    while i < n:
        if power[i - 1] < power[i]:
            j = i
            while j + 1 < n and power[j + 1] == power[i]:
                j += 1
            if j + 1 < n and power[j + 1] < power[i]:
                peaks.append((i + j) // 2)
            i = j + 1
        else:
            i += 1
    return np.array(peaks, dtype=np.intp)


def dominant_peak(freqs, power):
    """(peak_hz, bandwidth_hz) of one spectrum, NaN for zero or NaN power.

    Each candidate (the local maxima, else the global maximum) walks out to
    its half-maximum crossings; the first candidate with the largest mean
    power over the bins inside its FWHM wins.
    """
    if not power.sum() > 0:
        return math.nan, math.nan
    peaks = row_local_maxima(power)
    if peaks.size == 0:
        peaks = np.array([int(np.argmax(power))])
    n = power.size
    half = power[peaks] / 2.0
    below = power < half[:, None]
    bins = np.arange(n)
    i = np.where(below & (bins < peaks[:, None]), bins, -1).max(axis=1) + 1
    j = np.where(below & (bins > peaks[:, None]), bins, n).min(axis=1) - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = (half - power[i - 1]) / (power[i] - power[i - 1])
        left = np.where(i == 0, freqs[0], freqs[i - 1] + frac * (freqs[i] - freqs[i - 1]))
        k = np.minimum(j + 1, n - 1)
        frac = (power[j] - half) / (power[j] - power[k])
        right = np.where(j == n - 1, freqs[-1], freqs[j] + frac * (freqs[k] - freqs[j]))
    lo = np.searchsorted(freqs, left, side="left")
    hi = np.searchsorted(freqs, right, side="right")
    scores = [power[a:b].mean() for a, b in zip(lo, hi)]
    best = int(np.argmax(scores))
    return float(freqs[peaks[best]]), float(right[best] - left[best])


def histogram_shannon_entropy(x, n_bins):
    """ShEn of one signal from np.histogram over [min, max]; 0 when constant.
    Raises ValueError where np.histogram does."""
    lo, hi = float(np.min(x)), float(np.max(x))
    if lo == hi:
        return 0.0
    counts, _ = np.histogram(x, bins=n_bins, range=(lo, hi))
    p = counts / len(x)
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def histogram_mode(x, n_bins=64):
    """Center of the first fullest of n_bins np.histogram bins on [min, max];
    the value itself when constant."""
    lo, hi = float(np.min(x)), float(np.max(x))
    if lo == hi:
        return lo
    counts, edges = np.histogram(x, bins=n_bins, range=(lo, hi))
    top = int(np.argmax(counts))
    return float(0.5 * (edges[top] + edges[top + 1]))


def direct_kde_density(samples, h, points, block=1024):
    """Gaussian-kernel density sum_i phi((x - s_i) / h) / (N h), exactly."""
    samples = np.asarray(samples, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    total = np.zeros(points.size)
    for lo in range(0, samples.size, block):
        z = points[:, None] - samples[None, lo : lo + block]
        z /= h
        z *= z
        z *= -0.5
        total += np.exp(z, out=z).sum(axis=1)
    return total / (samples.size * h * math.sqrt(2.0 * math.pi))


def direct_bayes_error(model, n_grid=4096):
    """The model's Bayes error from direct-sum densities on its own grid."""
    grid = model.evaluation_grid(n_grid)
    weighted = np.minimum(
        *(
            p * direct_kde_density(s, h, grid)
            for s, h, p in zip(model.class_samples, model.bandwidths, model.priors)
        )
    )
    return float(np.trapezoid(weighted, grid))


def sampled_kernel_density(model, class_index, n_points=4096):
    """One class's binned KDE convolved with the sampled kernel cut at +-8h.

    The same lattice, binning and read-back as ``KdeModel.density``, but
    three real FFTs at the class's own length: the bin weights', the
    kernel's sampled on the lattice and truncated at +-8h, and the
    inverse.  It reads the grid and support from the model's public
    fields.
    """
    samples = model.class_samples[class_index]
    h = model.bandwidths[class_index]
    lo, hi = float(samples.min()), float(samples.max())
    grid = model.evaluation_grid(n_points)
    start, stop = float(grid[0]), float(grid[-1])
    dx = (stop - start) / (n_points - 1)
    r = math.ceil(8 * dx / h)
    step = dx / r
    reach = 8.0 * h
    first = max(0, math.floor((lo - reach - start) / step))
    last = min(r * (n_points - 1), math.ceil((hi + reach - start) / step))
    size = last - first + 1

    pos = (samples - (start + first * step)) / step
    left = pos.astype(np.intp)
    frac = pos - left
    weights = np.bincount(left, 1.0 - frac, size) + np.bincount(left + 1, frac, size)

    half = min(math.ceil(reach / step), size - 1)
    n_fft = _fast_len(size + half)
    kernel = np.zeros(n_fft)
    kernel[: half + 1] = np.exp(-0.5 * (np.arange(half + 1) * (step / h)) ** 2)
    kernel[n_fft - half :] = kernel[half:0:-1]
    smooth = np.fft.irfft(np.fft.rfft(weights, n_fft) * np.fft.rfft(kernel), n_fft)

    out = np.zeros(n_points)
    j0, j1 = -(-first // r), last // r
    picked = smooth[r * j0 - first : r * j1 - first + 1 : r]
    out[j0 : j1 + 1] = np.maximum(picked, 0.0) / (samples.size * h * math.sqrt(2.0 * math.pi))
    return out


def sampled_kernel_bayes_error(model, n_grid=4096):
    """The model's Bayes error from sampled-kernel densities on its own grid."""
    weighted = np.minimum(
        *(p * sampled_kernel_density(model, i, n_grid) for i, p in enumerate(model.priors))
    )
    return float(np.trapezoid(weighted, model.evaluation_grid(n_grid)))


def naive_discretize(values, n_bins):
    """Rank codes floor(first_rank * n_bins / N) by sort and binary search."""
    a = np.asarray(values, dtype=np.float64)
    return np.searchsorted(np.sort(a), a, side="left") * n_bins // a.size


def _naive_entropy(counts):
    p = np.sort(counts[counts > 0]) / counts.sum()
    return float(-(p @ np.log(p)))


def naive_symmetric_correlation(a, b):
    """2 I(a;b) / (H(a) + H(b)) from one bincount per pair, p @ log p entropies.

    Nonzero counts are sorted first, so SU(a, b) == SU(b, a) exactly, and
    pairs whose tables hold the same counts in another layout give the
    same float: rounding does not break their ties.
    """
    n_b = int(b.max()) + 1
    h_a, h_b = _naive_entropy(np.bincount(a)), _naive_entropy(np.bincount(b))
    if h_a + h_b == 0.0:
        return 0.0
    info = h_a + h_b - _naive_entropy(np.bincount(a * n_b + b))
    return max(0.0, 2.0 * info / (h_a + h_b))


def _naive_merit(subset, r_fc, pair):
    """k mean_fc / sqrt(k + k (k-1) mean_ff), each member's pairs summed first.

    Plain left-to-right float sums in the library's documented grouping.
    Another grouping lets rounding alone order candidates whose pair
    correlations are the same values against other members, which the
    exact-order comparison with the library cannot allow.
    """
    k = len(subset)
    sum_fc = total = 0.0
    for j, g in enumerate(subset):
        sum_fc += r_fc[g]
        partial = 0.0
        for f in subset[:j]:
            partial += pair(f, g)
        total += partial
    if k == 1:
        return sum_fc
    return k * (sum_fc / k) / math.sqrt(k + k * (k - 1) * (total / (k * (k - 1) / 2)))


def naive_forward_search(table, max_size, n_bins):
    """Greedy CFS recomputing every candidate's merit from all its pairs.

    Returns (features, merits).  Ties in merit fall to the higher
    feature-class correlation, then to name order.
    """
    names = table.feature_names
    labels = table.labels.astype(np.int64)
    codes = {n: naive_discretize(table.column(n), n_bins) for n in names}
    r_fc = {n: naive_symmetric_correlation(codes[n], labels) for n in names}
    r_ff = {}

    def pair(f, g):
        key = (f, g) if f <= g else (g, f)
        if key not in r_ff:
            r_ff[key] = naive_symmetric_correlation(codes[key[0]], codes[key[1]])
        return r_ff[key]

    selected, merits = [], []
    remaining = list(names)
    while len(selected) < max_size:
        best_name, best_key = None, None
        for name in remaining:
            key = (_naive_merit(selected + [name], r_fc, pair), r_fc[name])
            if best_key is None or key > best_key or (key == best_key and name < best_name):
                best_name, best_key = name, key
        selected.append(best_name)
        merits.append(best_key[0])
        remaining.remove(best_name)
    return tuple(selected), tuple(merits)
