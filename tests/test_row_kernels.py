"""The batched dominant-peak search and amplitude histogram against their
per-row references in ``oracles``, bit for bit.

``peak_frequency`` of a PSD matrix and ``shannon_entropy`` /
``stat_summary`` of a sample matrix each run once down the whole matrix.
Every row must be ``==`` to the per-row reference (NaN exactly where the
reference is undefined or raises), and so must the 1-D call.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from eegfx import freq_features as ff
from eegfx import time_features as tf
from eegfx.freq_features import Psd, peak_frequency


def _same(got, want) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    both_nan = np.isnan(got) & np.isnan(want)
    return got.shape == want.shape and bool(((got == want) | both_nan).all())


def _or_nan(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return math.nan


# ---------------------------------------------------------------- spectra

_KINDS = ("noise", "plateaus", "monotone", "one_bin", "zero", "hump", "overflow")


def _spectrum(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """One PSD row of the given kind; a hump's FWHM bands run to most of n."""
    if kind == "noise":
        return rng.random(n) * 10.0 ** rng.integers(-3, 4)
    if kind == "plateaus":
        return rng.integers(0, 4, n).astype(float)
    if kind == "monotone":
        row = np.sort(rng.random(n))
        return row[::-1].copy() if rng.random() < 0.5 else row
    if kind == "one_bin":
        row = np.zeros(n)
        row[rng.integers(0, n)] = 1.0 + rng.random()
        return row
    if kind == "zero":
        return np.zeros(n)
    if kind == "hump":
        bins = np.arange(n)
        width = n * (0.05 + 0.5 * rng.random())
        hump = np.exp(-0.5 * ((bins - rng.integers(0, n)) / width) ** 2)
        return hump * (1.0 + 0.05 * rng.random(n))  # ripples: many peaks, long bands
    return np.full(n, math.nan)  # a batch row that overflowed


def _batch(seed: int, n: int, rows: int) -> Psd:
    rng = np.random.default_rng(seed)
    power = np.array([_spectrum(_KINDS[rng.integers(len(_KINDS))], n, rng) for _ in range(rows)])
    return Psd(freqs=np.linspace(0.0, 128.0, n), power=power)


def _check_peaks(psd: Psd) -> None:
    peak_hz, bandwidth = peak_frequency(psd)
    for r, row in enumerate(psd.power):
        want = oracles.dominant_peak(psd.freqs, row)
        assert _same((peak_hz[r], bandwidth[r]), want), (r, row)
        if not math.isnan(want[0]):
            one = peak_frequency(Psd(freqs=psd.freqs, power=row))
            assert _same(one, want) and all(type(v) is float for v in one), r


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 300), rows=st.integers(1, 12))
def test_batched_peaks_equal_the_per_row_reference(seed, n, rows):
    _check_peaks(_batch(seed, n, rows))


@pytest.mark.parametrize("cells", [1, 7, 300])
def test_peak_blocks_of_any_size_give_the_same_rows(monkeypatch, cells):
    # Few cells per block: every walk and band block holds one or a few peaks.
    monkeypatch.setattr(ff, "_WALK_CELLS", cells)
    for seed in range(6):
        _check_peaks(_batch(seed, 257, 8))


@pytest.mark.parametrize("sizes", [range(1, 8), range(8, 129), range(129, 400)])
def test_band_means_equal_slice_means_at_every_length(sizes):
    rng = np.random.default_rng(len(sizes))
    power = rng.random((5, 400)) * 10.0 ** rng.integers(-5, 6, (5, 1))
    length = np.array([s for s in sizes for _ in range(3)])
    rows = rng.integers(0, 5, length.size)
    lo = rng.integers(0, 400 - length + 1)
    got = ff._band_means(power, rows, lo, lo + length)
    want = [power[r, a : a + k].mean() for r, a, k in zip(rows, lo, length)]
    assert _same(got, want)


def test_empty_band_mean_is_nan():
    power = np.ones((1, 4))
    got = ff._band_means(power, np.zeros(3, dtype=np.intp), np.array([2, 3, 1]), np.array([2, 1, 3]))
    assert np.isnan(got[:2]).all() and got[2] == 1.0


def test_rows_without_power_are_nan_and_one_row_raises():
    psd = _batch(0, 129, 1)
    power = np.vstack([psd.power, np.zeros(129), np.full(129, math.nan)])
    peak_hz, bandwidth = peak_frequency(Psd(freqs=psd.freqs, power=power))
    assert np.isnan(peak_hz[1:]).all() and np.isnan(bandwidth[1:]).all()
    with pytest.raises(ValueError, match="zero total power"):
        peak_frequency(Psd(freqs=psd.freqs, power=np.zeros(129)))


def test_peak_search_memory_is_bounded_at_ten_minutes_of_epochs():
    # A 10-minute record at 4 s epochs and a 1 s stride has 597 epochs.
    # Noise spectra have about 43 local maxima a row, 25.7k peaks in all:
    # one (peak, bin) temporary over all of them would take 26 MB.
    power = np.random.default_rng(9).random((597, 129))
    psd = Psd(freqs=np.linspace(0.0, 128.0, 129), power=power)
    peak_frequency(psd)  # warm: first-call allocations are not the kernel's
    tracemalloc.start()
    try:
        peak_frequency(psd)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


# ---------------------------------------------------------------- histograms

_SCALES = (1.0, 1e-300, 1e300, 1e-310)


def _signals(seed: int, width: int, n_bins: int, rows: int) -> np.ndarray:
    """Rows of noise, ties, constants, and samples on or one ulp beside the
    linspace bin edges of their own range (where the bin index computed from
    the range needs its one-bin corrections), at scales 1e-310 to 1e300."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(rows):
        scale = _SCALES[rng.integers(len(_SCALES))]
        kind = rng.integers(4)
        if kind == 0:
            row = rng.standard_normal(width)
        elif kind == 1:
            row = rng.integers(-3, 4, width).astype(float)
        elif kind == 2:
            row = np.full(width, rng.standard_normal())
        else:
            lo, hi = sorted(rng.standard_normal(2) * scale)
            edges = np.linspace(lo, hi, n_bins + 1)
            beside = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
            row = rng.choice(np.clip(beside, lo, hi), width)
            row[: min(2, width)] = (lo, hi)[: min(2, width)]
            out.append(row)
            continue
        out.append(row * scale)
    return np.array(out)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    width=st.integers(1, 300),
    n_bins=st.sampled_from([2, 3, 64, 256]),
    rows=st.integers(1, 10),
)
def test_batched_shannon_entropy_equals_np_histogram(seed, width, n_bins, rows):
    x = _signals(seed, width, n_bins, rows)
    with np.errstate(all="ignore"):
        got = tf.shannon_entropy(x, n_bins)
        for r, row in enumerate(x):
            want = _or_nan(oracles.histogram_shannon_entropy, row, n_bins)
            assert _same(got[r], want), (r, row)
            assert _same(_or_nan(tf.shannon_entropy, row, n_bins), want), (r, row)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), width=st.integers(2, 300), rows=st.integers(1, 10))
def test_batched_mode_and_quartiles_equal_the_per_row_reference(seed, width, rows):
    x = _signals(seed, width, 64, rows)
    with np.errstate(all="ignore"):
        summary = tf.stat_summary(x)
        for r, row in enumerate(x):
            mode = _or_nan(oracles.histogram_mode, row)
            q1, median, q3 = np.percentile(row, [25, 50, 75])
            want = (mode, q1, median, q3) if not math.isnan(mode) else (math.nan,) * 4
            got = (summary.mode[r], summary.q1[r], summary.median[r], summary.q3[r])
            assert _same(got, want), (r, row)


def test_too_narrow_range_is_nan_in_a_batch_and_raises_alone():
    # Two adjacent subnormals: no room for 65 increasing edges.
    row = np.array([0.0, 5e-324, 0.0])
    with pytest.raises(ValueError):
        oracles.histogram_shannon_entropy(row, 64)
    with pytest.raises(ValueError, match="too narrow"):
        tf.shannon_entropy(row)
    with pytest.raises(ValueError, match="too narrow"):
        tf.stat_summary(row)
    x = np.vstack([row, [1.0, 2.0, 3.0]])
    assert np.isnan(tf.shannon_entropy(x)[0]) and tf.shannon_entropy(x)[1] > 0
    summary = tf.stat_summary(x)
    assert all(math.isnan(getattr(summary, f)[0]) for f in summary.__dataclass_fields__)
    assert not math.isnan(summary.mode[1])
