"""Batch rows equal the 1-D public functions, bit for bit.

Each batched kernel takes the overlapping epoch matrix that extract
builds, ``sliding_window_view(channel, width)[::stride]``.  Every row
of its output must be ``np.array_equal`` to the 1-D function called on
that row, and NaN exactly where the 1-D function raises ValueError.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from eegfx import time_features as tf
from eegfx.freq_features import (
    iwbw,
    iwmf,
    median_frequency,
    peak_frequency,
    psd_welch,
    sef,
    spectral_entropy,
    welch,
)
from eegfx.signals import Epoch
from eegfx.wavelets import dwt, subband_features

FS = 256.0
LEVELS = 5

# (width, stride, Welch segment): an even width, an odd width (the DWT
# pads each odd level), width = 2**LEVELS (one coefficient in D5 and A5,
# too few for the band table) and twice that (two coefficients).
SHAPES = [(256, 96, 256), (257, 100, 128), (2**LEVELS, 7, 16), (2 ** (LEVELS + 1), 9, 32)]

_SAMPLE_KERNELS = {
    "moments": tf.moments,
    "hjorth": tf.hjorth,
    "energy": tf.energy,
    "nonlinear_energy": tf.nonlinear_energy,
    "line_length": tf.line_length,
    "zero_crossings": tf.zero_crossings,
    "local_extrema": tf.local_extrema,
    "rms": tf.rms,
    "average_power": tf.average_power,
    "shannon_entropy": tf.shannon_entropy,
}
_MIN_LENGTHS = {
    "moments": 2,
    "hjorth": 3,
    "energy": 1,
    "nonlinear_energy": 3,
    "line_length": 2,
    "zero_crossings": 2,
    "local_extrema": 3,
    "rms": 1,
    "average_power": 1,
    "shannon_entropy": 1,
}
_PSD_FEATURES = {
    "iwmf": iwmf,
    "iwbw": iwbw,
    "median_frequency": median_frequency,
    "sef90": lambda psd: sef(psd, 90.0),
    "sef100": lambda psd: sef(psd, 100.0),
    "spectral_entropy": spectral_entropy,
    "peak_frequency": peak_frequency,
}


def _channel(width: int, seed: int = 0) -> np.ndarray:
    """Blocks of one epoch each: noise, zero, constant, zero-mean noise,
    a ramp, noise near 1e-300 and near 1e300, and noise with a flat
    middle.  Windows across block edges give mixed and partly flat rows."""
    rng = np.random.default_rng(seed)
    noise = lambda: 20.0 * rng.standard_normal(width)  # noqa: E731
    steps = rng.integers(-50, 50, width // 2).astype(float)  # sums exactly to 0
    zero_mean = np.concatenate([steps, -steps, np.zeros(width % 2)])
    partly_flat = noise()
    partly_flat[width // 4 : 3 * width // 4] = 0.0
    blocks = [
        noise(), np.zeros(width), np.full(width, 7.25), zero_mean,
        np.arange(width, dtype=float), 1e-301 * noise(), 1e299 * noise(),
        partly_flat, noise(),
    ]
    return np.concatenate(blocks)


def _rows(channel: np.ndarray, width: int, stride: int) -> np.ndarray:
    return sliding_window_view(channel, width)[::stride]


def _or_nan(fn, *args):
    """fn's value(s), NaN where it raises ValueError."""
    try:
        return fn(*args)
    except ValueError:
        return math.nan


def _expected(fn, rows: np.ndarray, n_outputs: int = 1) -> np.ndarray:
    """fn on each row, shaped (n_outputs, n_rows); NaN rows where it raises."""
    values = [np.broadcast_to(np.array(_or_nan(fn, row), dtype=float), n_outputs) for row in rows]
    return np.array(values).T


def _assert_rows_equal(got, want, what: str) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    assert got.shape == want.shape, what
    bad = ~((got == want) | (np.isnan(got) & np.isnan(want)))
    assert not bad.any(), f"{what}: differs at {np.argwhere(bad).tolist()}"


def _check_sample_kernels(rows: np.ndarray) -> None:
    for name, kernel in _SAMPLE_KERNELS.items():
        with np.errstate(all="ignore"):
            got = np.array(kernel(rows), dtype=float).reshape(-1, len(rows))
            want = _expected(kernel, rows, got.shape[0])
        _assert_rows_equal(got, want, name)


def _check_stat_summary(rows: np.ndarray) -> None:
    with np.errstate(all="ignore"):
        batch = tf.stat_summary(rows)
        for field in tf.StatSummary.__dataclass_fields__:
            want = _expected(lambda row: getattr(tf.stat_summary(row), field), rows)
            _assert_rows_equal(getattr(batch, field), want[0], f"stat_summary.{field}")


def _check_spectral(rows: np.ndarray, segment: int) -> None:
    with np.errstate(all="ignore"):
        batch = welch(rows, FS, segment)
        for i, row in enumerate(rows):
            psd = _or_nan(psd_welch, Epoch(samples=row, fs=FS), segment)
            if psd is math.nan:
                assert np.isnan(batch.power[i]).all(), f"welch row {i}"
            else:
                assert np.array_equal(batch.power[i], psd.power), f"welch row {i}"
        for name, feature in _PSD_FEATURES.items():
            got = np.array(feature(batch), dtype=float).reshape(-1, len(rows))
            want = _expected(
                lambda row: feature(psd_welch(Epoch(samples=row, fs=FS), segment)),
                rows, got.shape[0],
            )
            _assert_rows_equal(got, want, name)


def _check_wavelets(rows: np.ndarray) -> None:
    with np.errstate(all="ignore"):
        batch = dwt(rows, "d4", LEVELS)
        for i, row in enumerate(rows):
            one = dwt(row, "d4", LEVELS)
            for name in one.band_names:
                assert np.array_equal(batch.band(name)[i], one.band(name)), (name, i)
        if batch.approx.shape[1] < 2:  # structural: raises for a batch as for one row
            with pytest.raises(ValueError, match="need >= 2"):
                subband_features(batch)
            with pytest.raises(ValueError, match="need >= 2"):
                subband_features(one)
            return
        table = subband_features(batch)
        for i, row in enumerate(rows):
            for key, value in subband_features(dwt(row, "d4", LEVELS)).items():
                _assert_rows_equal(table[key][i], value, f"{key} row {i}")


@pytest.mark.parametrize("width, stride, segment", SHAPES)
class TestRowsEqualOneDimensionalCalls:
    def test_moments_hjorth_and_shape(self, width, stride, segment):
        _check_sample_kernels(_rows(_channel(width), width, stride))

    def test_stat_summary(self, width, stride, segment):
        _check_stat_summary(_rows(_channel(width), width, stride))

    def test_welch_and_spectral_features(self, width, stride, segment):
        _check_spectral(_rows(_channel(width), width, stride), segment)

    def test_dwt_and_band_table(self, width, stride, segment):
        _check_wavelets(_rows(_channel(width), width, stride))


def test_the_channel_covers_undefined_rows():
    # Guards the fixture: some rows must be undefined for each group.
    rows = _rows(_channel(256), 256, 96)
    with np.errstate(all="ignore"):
        hjorth_nan = np.isnan(tf.hjorth(rows)[1])
        psd = welch(rows, FS)
        cv = tf.moments(rows)[2]
    assert hjorth_nan.any() and not hjorth_nan.all()
    assert np.isnan(iwmf(psd)).any()
    assert np.isnan(psd.power).all(axis=1).any()  # 1e299 noise overflows
    assert np.isnan(cv).any()  # zero-mean row: cv undefined


def test_one_dimensional_calls_still_return_scalars():
    x = np.random.default_rng(1).standard_normal(300)
    assert isinstance(tf.energy(x), float)
    assert isinstance(tf.zero_crossings(x), int)
    assert all(isinstance(v, float) for v in tf.moments(x))
    with pytest.raises(ValueError, match="constant"):
        tf.hjorth(np.ones(10))


@pytest.mark.parametrize("name", sorted(_SAMPLE_KERNELS))
def test_batch_narrower_than_the_minimum_raises_the_length_error(name):
    n = _MIN_LENGTHS[name]
    for x in (np.zeros(n - 1), np.zeros((3, n - 1))):
        with pytest.raises(ValueError, match=f"x needs at least {n} samples, got {n - 1}"):
            _SAMPLE_KERNELS[name](x)


@settings(max_examples=25, deadline=None)
@given(
    start=st.integers(min_value=0, max_value=900),
    length=st.integers(min_value=1, max_value=700),
    level=st.sampled_from([0.0, 7.25, -3.5]),
)
def test_flat_stretches_anywhere_keep_rows_identical(start, length, level):
    x = 20.0 * np.random.default_rng(start * 1000 + length).standard_normal(1024)
    x[start : start + length] = level
    rows = _rows(x, 256, 64)
    _check_sample_kernels(rows)
    _check_stat_summary(rows)
    _check_spectral(rows, 128)
    _check_wavelets(rows)
