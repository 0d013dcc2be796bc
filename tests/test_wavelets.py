import numpy as np
import pytest

from eegfx.time_features import energy, line_length, stat_summary
from eegfx.wavelets import WaveletDecomposition, dwt, idwt, subband_features


def _band_energies(decomp):
    return [energy(band) for band in (*decomp.details, decomp.approx)]


def test_round_trip_is_exact_on_random_epochs():
    rng = np.random.default_rng(0)
    for wavelet in ("d4", "d8"):
        for _ in range(40):
            x = rng.standard_normal(1024)
            recon = idwt(dwt(x, wavelet=wavelet, levels=5))
            assert np.max(np.abs(recon - x)) < 1e-8


def test_round_trip_handles_awkward_lengths():
    rng = np.random.default_rng(1)
    for wavelet in ("d4", "d8"):
        for n in (32, 97, 999, 1025):
            x = rng.standard_normal(n)
            recon = idwt(dwt(x, wavelet=wavelet, levels=5))
            assert recon.size == n
            assert np.max(np.abs(recon - x)) < 1e-8


def test_energy_partition_is_exact_for_power_of_two_lengths():
    rng = np.random.default_rng(3)
    for wavelet in ("d4", "d8"):
        for _ in range(25):
            x = rng.standard_normal(1024)
            decomp = dwt(x, wavelet=wavelet, levels=5)
            total = sum(_band_energies(decomp))
            assert abs(total - energy(x)) / energy(x) < 1e-9


def test_energy_partition_within_one_percent_at_odd_lengths():
    rng = np.random.default_rng(4)
    for wavelet in ("d4", "d8"):
        for n in (999, 1000, 1025, 1060):
            x = rng.standard_normal(n)
            decomp = dwt(x, wavelet=wavelet, levels=5)
            total = sum(_band_energies(decomp))
            assert abs(total - energy(x)) / energy(x) < 0.01


def test_linear_ramp_interior_details_vanish():
    x = np.linspace(0.0, 5.0, 1024)
    for wavelet, taps in (("d4", 4), ("d8", 8)):
        decomp = dwt(x, wavelet=wavelet, levels=5)
        for detail in decomp.details:
            interior = detail[taps:-taps]
            assert interior.size > 0
            assert np.max(np.abs(interior)) < 1e-9


def test_unit_impulse_energy_is_preserved():
    x = np.zeros(1024)
    x[500] = 1.0
    for wavelet in ("d4", "d8"):
        total = sum(_band_energies(dwt(x, wavelet=wavelet, levels=5)))
        assert abs(total - 1.0) < 1e-9


def test_constant_signal_loads_only_the_approximation():
    x = np.full(1024, 3.3)
    decomp = dwt(x, levels=5)
    for detail in decomp.details:
        assert energy(detail) < 1e-18
    assert energy(decomp.approx) == pytest.approx(energy(x), rel=1e-12)


def test_band_energy_scales_quadratically():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(1024)
    base = _band_energies(dwt(x, levels=5))
    scaled = _band_energies(dwt(2.5 * x, levels=5))
    for a, b in zip(scaled, base):
        assert a == pytest.approx(2.5**2 * b, rel=1e-12)


def test_detail_lengths_halve_per_level():
    decomp = dwt(np.random.default_rng(6).standard_normal(1024), levels=5)
    assert [d.size for d in decomp.details] == [512, 256, 128, 64, 32]
    assert decomp.approx.size == 32
    assert decomp.band_names == ("D1", "D2", "D3", "D4", "D5", "A5")


def test_band_lookup():
    decomp = dwt(np.random.default_rng(7).standard_normal(256), levels=3)
    assert np.array_equal(decomp.band("D2"), decomp.details[1])
    assert np.array_equal(decomp.band("A3"), decomp.approx)
    with pytest.raises(KeyError):
        decomp.band("A5")


def test_coefficients_are_read_only():
    decomp = dwt(np.random.default_rng(8).standard_normal(256), levels=3)
    with pytest.raises(ValueError):
        decomp.details[0][0] = 1.0
    with pytest.raises(ValueError):
        decomp.approx[0] = 1.0


def test_dwt_input_validation():
    rng = np.random.default_rng(9)
    with pytest.raises(ValueError, match="too short"):
        dwt(rng.standard_normal(31), levels=5)
    with pytest.raises(ValueError, match="levels"):
        dwt(rng.standard_normal(64), levels=0)
    with pytest.raises(ValueError, match="unknown wavelet"):
        dwt(rng.standard_normal(64), wavelet="sym5")
    with pytest.raises(ValueError):
        dwt(np.array([1.0, np.nan, 2.0, 3.0]), levels=1)


def test_decomposition_validation():
    with pytest.raises(ValueError, match="halve"):
        WaveletDecomposition(
            details=(np.ones(8), np.ones(7)),
            approx=np.ones(7),
            wavelet_id="d4",
            length=16,
        )
    with pytest.raises(ValueError, match="equal length"):
        WaveletDecomposition(
            details=(np.ones(8),),
            approx=np.ones(4),
            wavelet_id="d4",
            length=16,
        )


def test_subband_features_names_and_delegation():
    rng = np.random.default_rng(10)
    decomp = dwt(rng.standard_normal(1024), levels=5)
    table = subband_features(decomp)
    assert len(table) == 9 * 6
    for band_name in decomp.band_names:
        coeffs = decomp.band(band_name)
        stats = stat_summary(coeffs)
        assert table[f"Mean{band_name}"] == stats.mean
        assert table[f"AbsMean{band_name}"] == stat_summary(np.abs(coeffs)).mean
        assert table[f"Variance{band_name}"] == stats.variance
        assert table[f"Skewness{band_name}"] == stats.skewness
        assert table[f"Kurtosis{band_name}"] == stats.kurtosis
        assert table[f"Min{band_name}"] == stats.min
        assert table[f"Max{band_name}"] == stats.max
        assert table[f"Energy{band_name}"] == energy(coeffs)
        assert table[f"LineLength{band_name}"] == line_length(coeffs)


def test_subband_features_rejects_degenerate_bands():
    decomp = dwt(np.random.default_rng(12).standard_normal(32), levels=5)
    assert decomp.approx.size == 1
    with pytest.raises(ValueError, match="need >= 2"):
        subband_features(decomp)
