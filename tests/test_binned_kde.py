"""The binned KDE against the exact direct sum on the same grid.

``bayes_error`` bins each class on a lattice of step <= h/8 and convolves
with the Gaussian kernel by FFT.  The reference is the O(grid x N) direct
sum in ``oracles.py``, integrated on the same ``evaluation_grid``; the
two must agree to 1e-4 in err_b on skewed and heavy-tailed columns, on
grids coarse against a class's bandwidth, on zero-variance classes and
on classes far narrower than the pooled range.
"""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegfx.evaluation import _fast_len, bayes_error, fit_kde
from oracles import direct_bayes_error, direct_kde_density

ORACLE_ATOL = 1e-4


def _gap(model, n_grid=4096):
    return abs(bayes_error(model, n_grid=n_grid) - direct_bayes_error(model, n_grid))


def _coarsest_dx_over_h(model, n_grid=4096):
    grid = model.evaluation_grid(n_grid)
    return (grid[1] - grid[0]) / min(model.bandwidths)


def _lognormal(rng, n, shift):
    return rng.lognormal(shift, 1.5, n)


def _student_t2(rng, n, shift):
    return rng.standard_t(2, n) + shift


def _poisson_counts(rng, n, shift):
    return rng.poisson(4.0 + 3.0 * shift, n).astype(float)


def _bounded_logistic(rng, n, shift):
    return 1.0 / (1.0 + np.exp(-(rng.standard_normal(n) * 2.0 + shift)))


SKEWED = {
    "lognormal_s1.5": _lognormal,
    "student_t2": _student_t2,
    "poisson": _poisson_counts,
    "bounded_logistic": _bounded_logistic,
}


@pytest.mark.parametrize("family", sorted(SKEWED))
@pytest.mark.parametrize("sizes", [(5, 4), (60, 40), (300, 3000), (2000, 2000)])
def test_skewed_heavy_tailed_columns_match_direct_sum(family, sizes):
    rng = np.random.default_rng(sum(map(ord, family)) + sizes[1])
    draw = SKEWED[family]
    model = fit_kde((draw(rng, sizes[0], 0.0), draw(rng, sizes[1], 0.8)))
    assert _gap(model) <= ORACLE_ATOL


@pytest.mark.parametrize("equal_priors", [False, True])
def test_skewed_columns_with_overlapping_weighted_densities(equal_priors):
    # equal priors make both classes win somewhere on the grid, so the
    # minimum switches sides many times along heavy tails
    rng = np.random.default_rng(21)
    for draw in SKEWED.values():
        a, b = draw(rng, 700, 0.0), draw(rng, 900, 0.5)
        model = fit_kde((a, b), priors=(0.5, 0.5) if equal_priors else None)
        assert _gap(model) <= ORACLE_ATOL


def _coarse_grid_case(ratio_target, seed):
    """A narrow class inside a wide one, tuned so dx / h is near the target."""
    rng = np.random.default_rng(seed)
    narrow = rng.standard_normal(9)
    narrow = (narrow - narrow.mean()) / narrow.std(ddof=1)
    h_narrow = 1.06 * 9 ** -0.2
    span = ratio_target * h_narrow * 4095
    wide = np.concatenate([[-span / 2, span / 2], rng.uniform(-span / 2, span / 2, 7)])
    return fit_kde((narrow, wide))


@pytest.mark.parametrize("ratio_target", [0.5, 0.94, 1.7, 6.0, 40.0])
def test_coarse_grid_against_bandwidth_matches_direct_sum(ratio_target):
    for seed in range(3):
        model = _coarse_grid_case(ratio_target, seed)
        assert _coarsest_dx_over_h(model) >= 0.5
        assert _gap(model) <= ORACLE_ATOL


def test_narrow_class_beside_an_outlier_matches_direct_sum():
    # One far outlier stretches the grid to dx ~ 8 h of the 39-row class.
    # Binning at step h/4 missed the direct sum by 1.3e-4 here; at h/8
    # the gap is 2.6e-5.
    rng = np.random.default_rng(8)
    narrow = rng.standard_normal(39)
    h = 1.06 * narrow.std(ddof=1) * 39 ** -0.2
    wide = np.concatenate([rng.standard_normal(285) * 4.0 * h, [8.0 * h * 4095]])
    model = fit_kde((narrow, wide), priors=(0.5, 0.5))
    assert _coarsest_dx_over_h(model) >= 5.0
    assert _gap(model) <= ORACLE_ATOL


@pytest.mark.parametrize(
    "classes",
    [
        "flat_inside_spread",
        "flat_at_spread_edge",
        "both_flat_apart",
        "both_flat_same_value",
    ],
)
def test_zero_variance_fallback_class_matches_direct_sum(classes):
    rng = np.random.default_rng(31)
    spread = rng.uniform(0.0, 10.0, 200)
    a, b = {
        "flat_inside_spread": (np.full(50, 5.0), spread),
        "flat_at_spread_edge": (np.full(50, spread.max()), spread),
        "both_flat_apart": (np.full(30, -1.0), np.full(70, 2.5)),
        "both_flat_same_value": (np.full(30, 7.0), np.full(70, 7.0)),
    }[classes]
    model = fit_kde((a, b))
    assert min(model.bandwidths) > 0.0
    assert _gap(model) <= ORACLE_ATOL


_FAMILIES = {
    "normal": lambda rng, n: rng.standard_normal(n),
    "lognormal": lambda rng, n: rng.lognormal(0.0, 1.5, n),
    "t2": lambda rng, n: rng.standard_t(2, n),
    "poisson": lambda rng, n: rng.poisson(2.0, n).astype(float),
    "uniform": lambda rng, n: rng.uniform(0.0, 1.0, n),
}


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.tuples(st.integers(2, 500), st.integers(2, 500)),
    log_scales=st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)),
    shift=st.floats(-3.0, 3.0),
    families=st.tuples(st.sampled_from(sorted(_FAMILIES)), st.sampled_from(sorted(_FAMILIES))),
    seed=st.integers(0, 2**32 - 1),
)
def test_binned_bayes_error_tracks_direct_sum(sizes, log_scales, shift, families, seed):
    rng = np.random.default_rng(seed)
    model = fit_kde([
        10.0 ** log_scale * (_FAMILIES[family](rng, n) + offset)
        for n, log_scale, family, offset in zip(sizes, log_scales, families, (shift, 0.0))
    ])
    assert _gap(model) <= ORACLE_ATOL


@pytest.mark.parametrize("fraction", [1e-6, 1e-9])
def test_narrow_class_keeps_memory_and_time_bounded(fraction):
    """A class 1e-6 or 1e-9 as wide as the pooled range.

    A lattice of step h/8 over the whole grid would hold about 3e7
    points (1e-6) or 3e10 points (1e-9).  The lattice covers only the
    class support +-8h, so the peak stays far below one such array.
    The wide class has exact end points 0 and 10, so grid point 2048 of
    4097 lies on the narrow class's centre and its density is nonzero
    there.
    """
    budget_s = 2.0
    peak_bound = 4 * 2**20
    n_grid = 4097
    rng = np.random.default_rng(41)
    wide = np.concatenate([[0.0, 10.0], rng.uniform(0.0, 10.0, 198)])
    narrow = 5.0 + fraction * 10.0 * rng.standard_normal(50)

    tracemalloc.start()
    try:
        start = time.perf_counter()
        model = fit_kde((narrow, wide))
        err_b = bayes_error(model, n_grid=n_grid)
        dens = model.density(0, n_grid)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert elapsed < budget_s, f"{elapsed:.2f} s (budget {budget_s} s)"
    assert peak < peak_bound, f"peak {peak} bytes (bound {peak_bound})"
    assert abs(err_b - direct_bayes_error(model, n_grid)) <= ORACLE_ATOL
    h = model.bandwidths[0]
    want = direct_kde_density(narrow, h, model.evaluation_grid(n_grid))
    assert want[n_grid // 2] > 0.1 * want.max() > 0.0
    # binning at step d <= h/8 moves each kernel's value by at most
    # d^2/8 max|K''| = (d/h)^2/8 K(0) <= K(0)/512
    assert np.max(np.abs(dens - want)) <= 1.0 / (512.0 * h * math.sqrt(2.0 * math.pi))


def test_fft_length_is_the_smallest_5_smooth_length():
    smooth = sorted(
        2**a * 3**b * 5**c for a in range(14) for b in range(9) for c in range(6)
    )
    for n in range(1, 5001):
        assert _fast_len(n) == next(m for m in smooth if m >= n), n


def test_fft_length_matches_the_reference():
    fft = pytest.importorskip("scipy.fft")
    lengths = range(1, 100_001)
    assert [_fast_len(n) for n in lengths] == [fft.next_fast_len(n, real=True) for n in lengths]
