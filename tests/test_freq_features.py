import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from eegfx.freq_features import (
    Psd,
    _local_maxima,
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


def _psd(power, freqs=None):
    power = np.asarray(power, dtype=float)
    if freqs is None:
        freqs = np.arange(power.size, dtype=float)
    return Psd(freqs=freqs, power=power)


def _point_mass(idx, n_bins=129, height=1.0):
    p = np.zeros(n_bins)
    p[idx] = height
    return _psd(p)


def _sine_epoch(freq_hz, n=1024, fs=256.0, amp=1.0, phase=0.0):
    t = np.arange(n) / fs
    return Epoch(samples=amp * np.sin(2 * np.pi * freq_hz * t + phase), fs=fs)


def test_psd_rejects_bad_inputs():
    with pytest.raises(ValueError):
        Psd(freqs=np.array([0.0, 1.0]), power=np.array([1.0, -0.5]))
    with pytest.raises(ValueError):
        Psd(freqs=np.array([0.0, 2.0, 1.0]), power=np.ones(3))
    with pytest.raises(ValueError):
        Psd(freqs=np.array([1.0, 2.0, 3.0]), power=np.ones(3))
    with pytest.raises(ValueError):
        Psd(freqs=np.array([0.0, 1.0]), power=np.ones(3))


def test_psd_arrays_are_read_only():
    psd = _psd([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        psd.power[0] = 9.0


def test_welch_grid_runs_zero_to_nyquist():
    psd = psd_welch(_sine_epoch(10.0))
    assert psd.freqs[0] == 0.0
    assert psd.freqs[-1] == 128.0
    assert psd.freqs.size == 129


def test_welch_sinusoid_peaks_at_its_frequency():
    psd = psd_welch(_sine_epoch(10.0))
    bin_width = psd.freqs[1] - psd.freqs[0]
    assert abs(psd.freqs[np.argmax(psd.power)] - 10.0) <= bin_width


def test_welch_white_noise_spreads_power():
    rng = np.random.default_rng(11)
    ratios = []
    for _ in range(10):
        epoch = Epoch(samples=rng.standard_normal(2560), fs=256.0)
        psd = psd_welch(epoch)
        ratios.append(psd.power.max() / np.median(psd.power))
    assert np.mean(ratios) < 5.0


def test_welch_zeros_gives_zero_total_power():
    psd = psd_welch(Epoch(samples=np.zeros(512), fs=256.0))
    assert psd.power.sum() == 0.0
    for feature in (iwmf, iwbw, spectral_entropy, peak_frequency):
        with pytest.raises(ValueError, match="zero total power"):
            feature(psd)
    with pytest.raises(ValueError, match="zero total power"):
        sef(psd, 50.0)


def test_welch_rejects_short_epochs():
    with pytest.raises(ValueError, match="welch needs"):
        psd_welch(Epoch(samples=np.zeros(255), fs=256.0))


def test_iwmf_point_mass():
    assert iwmf(_point_mass(10, height=2.5)) == 10.0


def test_iwmf_two_point_mean():
    p = np.zeros(129)
    p[10] = p[30] = 1.0
    assert iwmf(_psd(p)) == pytest.approx(20.0)


def test_iwmf_uniform_is_grid_mean():
    psd = _psd(np.ones(129))
    assert iwmf(psd) == pytest.approx(64.0)


def test_iwmf_stays_inside_support():
    rng = np.random.default_rng(7)
    for _ in range(50):
        power = rng.uniform(0.0, 1.0, size=65)
        power[rng.uniform(size=65) < 0.5] = 0.0
        if power.sum() == 0.0:
            power[3] = 1.0
        psd = _psd(power)
        active = psd.freqs[power > 0]
        assert active.min() <= iwmf(psd) <= active.max()


def test_iwbw_point_mass_is_zero():
    assert iwbw(_point_mass(17)) == 0.0


def test_iwbw_symmetric_pair_is_half_spread():
    p = np.zeros(129)
    p[20 - 6] = p[20 + 6] = 3.0
    assert iwbw(_psd(p)) == pytest.approx(6.0)


def test_iwbw_narrower_concentration_is_smaller():
    narrow = np.zeros(129)
    narrow[30:33] = 1.0
    wide = np.zeros(129)
    wide[10:53] = 1.0
    assert iwbw(_psd(narrow)) < iwbw(_psd(wide))


def test_sef_point_mass_any_alpha():
    psd = _point_mass(25)
    for alpha in (5.0, 50.0, 95.0, 100.0):
        assert sef(psd, alpha) == 25.0


def test_sef_uniform_median_is_middle_bin():
    assert sef(_psd(np.ones(129)), 50.0) == 64.0
    assert median_frequency(_psd(np.ones(129))) == 64.0


def test_sef_100_lands_on_last_powered_bin():
    p = np.zeros(129)
    p[5:41] = 1.0
    assert sef(_psd(p), 100.0) == 40.0


def test_sef_monotone_in_alpha():
    rng = np.random.default_rng(19)
    for _ in range(30):
        psd = _psd(rng.uniform(0.0, 1.0, size=129))
        a1, a2 = sorted(rng.uniform(1.0, 100.0, size=2))
        assert sef(psd, a1) <= sef(psd, a2)


def test_sef_rejects_alpha_outside_range():
    psd = _point_mass(10)
    for alpha in (0.0, -3.0, 100.5):
        with pytest.raises(ValueError):
            sef(psd, alpha)


def test_spectral_entropy_point_mass_is_zero():
    assert spectral_entropy(_point_mass(40)) == 0.0


def test_spectral_entropy_uniform_is_log_bins():
    assert spectral_entropy(_psd(np.ones(129))) == pytest.approx(math.log(129))


def test_spectral_entropy_orders_sine_below_noise():
    rng = np.random.default_rng(23)
    noise = Epoch(samples=rng.standard_normal(1024), fs=256.0)
    assert spectral_entropy(psd_welch(_sine_epoch(10.0))) < spectral_entropy(psd_welch(noise))


def test_peak_frequency_single_sinusoid():
    psd = psd_welch(_sine_epoch(10.0))
    peak_hz, width = peak_frequency(psd)
    assert abs(peak_hz - 10.0) <= psd.freqs[1] - psd.freqs[0]
    assert width > 0.0


def test_peak_frequency_prefers_stronger_component():
    t = np.arange(2048) / 256.0
    x = 2.0 * np.sin(2 * np.pi * 10.0 * t) + np.sin(2 * np.pi * 30.0 * t)
    peak_hz, _ = peak_frequency(psd_welch(Epoch(samples=x, fs=256.0)))
    assert abs(peak_hz - 10.0) <= 1.0


def test_peak_frequency_point_mass_width_within_one_bin():
    peak_hz, width = peak_frequency(_point_mass(12))
    assert peak_hz == 12.0
    assert width <= 1.0 + 1e-12


def test_peak_frequency_monotone_psd_falls_back_to_global_max():
    power = np.linspace(4.0, 0.5, 65)
    peak_hz, width = peak_frequency(_psd(power))
    assert peak_hz == 0.0
    assert width >= 0.0


@pytest.mark.parametrize("segment", [4, 5, 17, 128, 256, 257])
@pytest.mark.parametrize("fs", [100.0, 173.61, 256.0, 500.0, 1000.0])
def test_welch_matches_the_reference_bit_for_bit(segment, fs):
    signal = pytest.importorskip("scipy.signal")
    rng = np.random.default_rng(segment)
    for width in (segment, segment + 1, 2 * segment + 3, 1000, 4096):
        for scale in (1e-3, 1.0, 1e6):
            rows = scale * (rng.standard_normal((3, width)) + rng.uniform(-1.0, 1.0))
            # one signal, a contiguous batch, and a strided epoch matrix as
            # extract cuts it from a channel
            epochs = sliding_window_view(np.concatenate(rows), width)[:: width // 3 + 1]
            for x in (rows[0], rows, epochs):
                freqs, power = signal.welch(
                    x, fs=fs, window="hamming", nperseg=segment, noverlap=segment // 2
                )
                psd = welch(x, fs, segment)
                assert np.array_equal(psd.freqs, freqs), (width, scale, x.shape)
                assert np.array_equal(psd.power, power), (width, scale, x.shape)


def test_local_maxima_take_the_middle_of_a_plateau():
    rows = np.array([
        [0, 1, 0, 2, 2, 0, 3, 3, 3, 0],
        [1, 1, 0, 2, 2, 2, 2, 1, 1, 1],
        [0, 1, 2, 3, 4, 5, 5, 5, 5, 5],
    ], dtype=float)
    row, peaks = _local_maxima(rows)
    assert [peaks[row == r].tolist() for r in range(3)] == [[1, 3, 7], [4], []]


def test_local_maxima_match_the_reference():
    signal = pytest.importorskip("scipy.signal")
    rng = np.random.default_rng(0)
    checked = 0
    for n in range(1, 200):
        # small integers give plateaus and ties between neighbouring rows
        for power in (rng.integers(0, 4, (6, n)).astype(float), rng.standard_normal((6, n))):
            rows, peaks = _local_maxima(power)
            for r, row in enumerate(power):
                assert np.array_equal(peaks[rows == r], signal.find_peaks(row)[0]), row
                checked += 1
    assert checked == 2388
