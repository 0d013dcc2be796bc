"""Template-match counting behind ApEn and SampEn, and the memory of the
pair engine behind FuzzEn and DistEn.

The bit-parallel counter must give exactly the per-template counts of a
brute-force pairwise Chebyshev comparison, on signal families chosen to
stress ties, heavy tails, differences landing exactly on r and rounding
at a large offset, and at lengths and template sizes next to the edges of
its 64-bit words and of its column blocks.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from eegfx import time_features
from eegfx.time_features import (
    _BLOCK_WORDS,
    _template_match_counts,
    approximate_entropy,
    distribution_entropy,
    fuzzy_entropy,
    sample_entropy,
    template_entropies,
)


def brute_counts(x, length, r):
    """Per-template count of windows j (itself included) with
    |x[i+k] - x[j+k]| <= r for every k < length."""
    windows = sliding_window_view(x, length)
    counts = np.empty(len(windows), dtype=np.int64)
    for lo in range(0, len(windows), 128):
        block = windows[lo : lo + 128, None, :]
        counts[lo : lo + 128] = (np.abs(block - windows) <= r).all(axis=2).sum(axis=1)
    return counts


def _sd_tolerance(x):
    return 0.2 * float(x.std(ddof=1))


def _gaussian(rng, n):
    x = rng.standard_normal(n)
    return x, _sd_tolerance(x)


def _random_walk(rng, n):
    x = np.cumsum(rng.standard_normal(n))
    return x, _sd_tolerance(x)


def _edf16(rng, n):
    # 30 uV EEG stored as 16-bit EDF samples over a +-3200 uV range
    step = 6400.0 / 65535
    x = step * np.round(30.0 * rng.standard_normal(n) / step)
    return x, _sd_tolerance(x)


def _two_level(rng, n):
    x = rng.integers(0, 2, n).astype(np.float64)
    return x, _sd_tolerance(x)


def _student_t2(rng, n):
    x = rng.standard_t(2, n)
    return x, _sd_tolerance(x)


def _large_offset(rng, n):
    # differences of a few ulp of 1e6, tolerance between ulp multiples
    ulp = math.ulp(1e6)
    return 1e6 + ulp * rng.integers(-4, 5, n), 1.5 * ulp


def _integer_r1(rng, n):
    # many differences are exactly r
    return rng.integers(-3, 4, n).astype(np.float64), 1.0


def _rounding_edge(rng, n):
    # fl(v + r) < y while fl(|y - v|) == r: the pair matches, though a
    # search for fl(v + r) ends v's run before y; only the exact check of
    # the run's end takes y in
    v, r = -0.0010414656301016882, 0.0008969982709389136
    y = np.nextafter(v + r, np.inf)
    assert abs(y - v) <= r
    return rng.choice([v, y], n), r


FAMILIES = {
    "gaussian": _gaussian,
    "random_walk": _random_walk,
    "edf16": _edf16,
    "two_level": _two_level,
    "student_t2": _student_t2,
    "large_offset": _large_offset,
    "integer_r1": _integer_r1,
    "rounding_edge": _rounding_edge,
}


def _signal(family, n, seed):
    x, r = FAMILIES[family](np.random.default_rng(seed), n)
    if not r > 0:  # a constant draw of a tiny two-level signal
        r = 0.5
    return x, r


def _assert_exact(m, x, r):
    counts_m, counts_m1 = _template_match_counts(x, m, r)
    assert np.array_equal(counts_m, brute_counts(x, m, r))
    assert np.array_equal(counts_m1, brute_counts(x, m + 1, r))


def _first_block_edge():
    """The shortest signal whose bitsets take two column blocks of words."""
    return next(n for n in range(64, 1 << 20) if -(-n // 64) > _BLOCK_WORDS // n)


BLOCK_EDGE = _first_block_edge()
# lengths next to a word edge and next to the first column-block edge
EDGE_SIZES = (63, 65, 127, 128, 129, BLOCK_EDGE - 1, BLOCK_EDGE, BLOCK_EDGE + 1)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("m", (1, 2, 3))
@pytest.mark.parametrize("size", ("m+2", 64, 1024, 2048, *EDGE_SIZES))
def test_counts_equal_brute_force(family, m, size):
    n = m + 2 if size == "m+2" else size
    _assert_exact(m, *_signal(family, n, seed=n + m))


# shifts by m - 1 and m samples that end inside, on or past a word's last bit
WIDE_CASES = [
    (m, size)
    for m in (63, 64, 65, 130)
    for size in ("m+2", 127, 128, 129, 255, 256, 257)
    if size == "m+2" or size >= m + 2
]


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize(("m", "size"), WIDE_CASES)
def test_counts_equal_brute_force_when_shifts_cross_words(family, m, size):
    n = m + 2 if size == "m+2" else size
    _assert_exact(m, *_signal(family, n, seed=n + m))


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("m", (1, 2, 63, 64, 65, 130))
@pytest.mark.parametrize("block", (1, 2))
def test_counts_equal_brute_force_in_narrow_blocks(monkeypatch, family, m, block):
    # blocks of one or two words, so every halo of m // 64 + 1 words reaches
    # into the next block, or past the last word
    n = 257
    monkeypatch.setattr(time_features, "_BLOCK_WORDS", block * n)
    _assert_exact(m, *_signal(family, n, seed=n + m))


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    m=st.sampled_from((1, 2, 3)),
    n=st.integers(0, 2048),
    seed=st.integers(0, 2**32 - 1),
)
def test_counts_equal_brute_force_on_random_draws(family, m, n, seed):
    n = max(n, m + 2)
    _assert_exact(m, *_signal(family, n, seed))


def test_entropies_follow_from_the_counts():
    x, r = _gaussian(np.random.default_rng(7), 1024)
    b, a = brute_counts(x, 2, r), brute_counts(x, 3, r)
    apen = float(np.log(b / b.size).mean()) - float(np.log(a / a.size).mean())
    sampen = math.log(int(b.sum()) - b.size) - math.log(int(a.sum()) - a.size)
    assert template_entropies(x, 2, r) == (apen, sampen)
    assert approximate_entropy(x, 2, r) == apen
    assert sample_entropy(x, 2, r) == sampen


def test_sampen_is_nan_when_no_pair_matches_at_m_plus_1():
    x = 2.0 ** np.arange(20)
    apen, sampen = template_entropies(x, 2, 1e-6)
    assert apen == pytest.approx(math.log(18 / 19), abs=1e-15)  # self-matches only
    assert math.isnan(sampen)
    with pytest.raises(ValueError, match="undefined"):
        sample_entropy(x, 2, 1e-6)


def test_invalid_input_raises():
    with pytest.raises(ValueError, match="r must be > 0"):
        template_entropies(np.zeros(64))  # default r of a constant signal
    with pytest.raises(ValueError, match="at least 4 samples"):
        template_entropies(np.arange(3.0), 2, 0.5)
    with pytest.raises(ValueError, match="finite"):
        template_entropies(np.array([0.0, 1.0, np.nan, 1.0, 0.0]), 1, 0.5)


def test_peak_allocation_is_bounded_on_tie_heavy_input():
    # About half of the 16.8M ordered pairs of a two-level signal match; the
    # prefix bitsets of all 4096 samples alone would take 2.1 MB, so the
    # counter must hold one column block of words at a time.
    x = np.random.default_rng(3).integers(0, 2, 4096).astype(np.float64)
    tracemalloc.start()
    try:
        _template_match_counts(x, 2, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000


@pytest.mark.parametrize("entropy", (distribution_entropy, fuzzy_entropy))
def test_pair_engine_peak_allocation_is_bounded(entropy):
    # 4096 samples have 8.4M unordered window pairs; held at once, their
    # distances alone would take 64 MiB and their indices twice that.
    x = np.random.default_rng(5).standard_normal(4096)
    tracemalloc.start()
    try:
        entropy(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20
