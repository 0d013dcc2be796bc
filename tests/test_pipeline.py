"""Extraction pipeline: column wiring, averaging, labels, determinism."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from eegfx import pipeline
from eegfx import time_features as tf
from eegfx.config import RunConfig
from eegfx.feature_table import FeatureTable
from eegfx.freq_features import (
    iwbw,
    iwmf,
    median_frequency,
    peak_frequency,
    psd_welch,
    sef,
    spectral_entropy,
)
from eegfx.pipeline import DEFAULT_FEATURES, FEATURE_CATALOG, extract
from eegfx.signals import Epoch, Montage, Record
from eegfx.synth import SynthSpec, synth_record
from eegfx.time_features import (
    approximate_entropy,
    energy,
    sample_entropy,
    stat_summary,
)
from eegfx.wavelets import dwt, subband_features

_PAIR = Montage(left=("A",), right=("B",))


def _record(seed=0, seconds=20, fs=256.0, channels=("A", "B"), annotations=()):
    rng = np.random.default_rng(seed)
    data = 20.0 * rng.standard_normal((len(channels), int(seconds * fs)))
    return Record(
        channels=channels, data=data, fs=fs,
        annotations=annotations, name="unit",
    )


class TestShape:
    def test_default_catalog_is_76_features(self):
        assert len(DEFAULT_FEATURES) == 76
        assert set(DEFAULT_FEATURES) <= FEATURE_CATALOG

    def test_band_features_are_the_decomposition_keys_in_order(self):
        # the catalog's last 54 names are what subband_features returns at
        # the default depth, so the two cannot drift apart
        x = np.random.default_rng(3).standard_normal(1024)
        bands = tuple(subband_features(dwt(x)))
        assert len(bands) == 54
        assert DEFAULT_FEATURES[-len(bands):] == bands

    def test_columns_pair_left_right_per_feature(self):
        cfg = RunConfig(features=("Energy", "ShEn"), montage=_PAIR)
        table = extract(_record(), cfg)
        assert table.feature_names == ("EnergyL", "EnergyR", "ShEnL", "ShEnR")

    def test_row_count_follows_segmentation_formula(self):
        cfg = RunConfig(features=("Mean",), montage=_PAIR)
        table = extract(_record(seconds=20), cfg)
        assert len(table.records) == 17  # floor((20 - 4) / 1) + 1
        assert np.array_equal(table.epoch_starts, np.arange(17.0))
        assert set(table.records) == {"unit"}

    def test_full_default_run_has_152_columns(self):
        cfg = RunConfig(montage=_PAIR)
        table = extract(_record(seconds=8), cfg)
        assert len(table.feature_names) == 152
        assert "EnergyD1L" in table.feature_names
        assert "IWMFR" in table.feature_names
        assert np.all(np.isfinite(table.values))

    def test_too_short_record_errors(self):
        cfg = RunConfig(montage=_PAIR)
        with pytest.raises(ValueError, match="shorter than one"):
            extract(_record(seconds=3), cfg)


class TestValues:
    def test_single_channel_sides_match_standalone_ops(self):
        record = _record(seed=3, seconds=6)
        cfg = RunConfig(
            features=("Mean", "Energy", "ApEn", "SampEn", "PeakFrequency",
                      "EnergyD2"),
            montage=_PAIR,
        )
        table = extract(record, cfg)
        x = record.data[0][:1024]
        epoch = Epoch(samples=x, fs=256.0, channel_id="A")
        assert table.column("MeanL")[0] == stat_summary(x).mean
        assert table.column("EnergyL")[0] == energy(x)
        assert table.column("ApEnL")[0] == approximate_entropy(x)
        assert table.column("SampEnL")[0] == sample_entropy(x)
        assert table.column("PeakFrequencyL")[0] == peak_frequency(psd_welch(epoch))[0]
        assert table.column("EnergyD2L")[0] == energy(dwt(x).band("D2"))

    def test_peak_amplitude_is_psd_power_at_peak(self):
        record = _record(seed=4, seconds=6)
        cfg = RunConfig(features=("PeakAmplitude", "PeakFrequency"), montage=_PAIR)
        table = extract(record, cfg)
        psd = psd_welch(Epoch(samples=record.data[1][:1024], fs=256.0))
        peak_hz, _ = peak_frequency(psd)
        expected = psd.power[np.searchsorted(psd.freqs, peak_hz)]
        assert table.column("PeakAmplitudeR")[0] == expected

    def test_hemisphere_average_is_mean_over_side_channels(self):
        rng = np.random.default_rng(5)
        base = rng.standard_normal(int(6 * 256.0))
        record = Record(
            channels=("L1", "L2", "R1"),
            data=np.vstack([base, 3.0 * base, base]),
            fs=256.0,
        )
        cfg = RunConfig(
            features=("Variance",),
            montage=Montage(left=("L1", "L2"), right=("R1",)),
        )
        table = extract(record, cfg)
        v1 = stat_summary(base[:1024]).variance
        v2 = stat_summary(3.0 * base[:1024]).variance
        assert table.column("VarianceL")[0] == (v1 + v2) / 2
        assert table.column("VarianceR")[0] == v1

    def test_undefined_features_become_nan_not_errors(self):
        # Channel A is constant: no template tolerance, no spectral power.
        n = int(6 * 256)
        record = Record(
            channels=("A", "B"),
            data=np.vstack([np.zeros(n), np.random.default_rng(0).standard_normal(n)]),
            fs=256.0,
        )
        cfg = RunConfig(features=("SampEn", "IWMF", "Mean"), montage=_PAIR)
        table = extract(record, cfg)
        assert math.isnan(table.column("SampEnL")[0])
        assert math.isnan(table.column("IWMFL")[0])
        assert table.column("MeanL")[0] == 0.0
        assert np.all(np.isfinite(table.column("SampEnR")))
        assert np.all(np.isfinite(table.column("IWMFR")))

    def test_flat_stretch_gives_nan_cells_under_the_default_catalog(self):
        # 6 s of silence on the first left channel: the three 4 s epochs
        # inside it have no Hjorth, template or spectral features.
        record = synth_record(SynthSpec(duration_s=20.0, seed=1))
        data = record.data.copy()
        data[0, int(6 * record.fs) : int(12 * record.fs)] = 0.0
        table = extract(dataclasses.replace(record, data=data), RunConfig())
        flat = np.isin(table.epoch_starts, (6.0, 7.0, 8.0))
        for name in ("MobilityL", "ComplexityL", "ApEnL", "SampEnL"):
            column = table.column(name)
            assert np.all(np.isnan(column[flat]))
            assert np.all(np.isfinite(column[~flat]))
        assert np.all(np.isfinite(table.column("MobilityR")))
        assert np.all(np.isfinite(table.column("MeanL")))


def _peak(psd, which):
    peak_hz, _ = peak_frequency(psd)
    if which == "frequency":
        return peak_hz
    return psd.power[np.searchsorted(psd.freqs, peak_hz)]


# Each catalog name as a call of the 1-D public API on one channel epoch.
_STAT_FIELDS = {
    "Mean": "mean", "Variance": "variance", "CV": "cv", "Skewness": "skewness",
    "Kurtosis": "kurtosis", "Max": "max", "Min": "min", "Median": "median",
    "Mode": "mode", "Q1": "q1", "Q3": "q3", "IQR": "iqr",
}
_ON_SAMPLES = {
    **{name: (lambda x, f=field: getattr(stat_summary(x), f))
       for name, field in _STAT_FIELDS.items()},
    "Energy": tf.energy, "NE": tf.nonlinear_energy, "LineLength": tf.line_length,
    "ShEn": tf.shannon_entropy, "LocalExtrema": tf.local_extrema,
    "ZeroCrossing": tf.zero_crossings, "RMS": tf.rms,
    "AveragePower": tf.average_power, "PE": tf.permutation_entropy,
    "WPE": tf.weighted_permutation_entropy, "FuzzyEn": tf.fuzzy_entropy,
    "DistEn": tf.distribution_entropy, "SVDEn": tf.svd_entropy,
    "HFD": tf.higuchi_fd, "BCFD": tf.box_counting_fd, "HE": tf.hurst_exponent,
    "DFA": tf.dfa,
    "Mobility": lambda x: tf.hjorth(x)[1],
    "Complexity": lambda x: tf.hjorth(x)[2],
    "ApEn": tf.approximate_entropy, "SampEn": tf.sample_entropy,
}
_ON_PSD = {
    "IWMF": iwmf, "IWBW": iwbw, "SE": spectral_entropy,
    "MedianFrequency": median_frequency,
    "SEF90": lambda p: sef(p, 90.0), "SEF95": lambda p: sef(p, 95.0),
    "PeakFrequency": lambda p: _peak(p, "frequency"),
    "PeakAmplitude": lambda p: _peak(p, "amplitude"),
}


def _reference_cell(name, x, fs):
    """One channel epoch's value from the public 1-D function, NaN where
    that function raises ValueError."""
    try:
        if name in _ON_SAMPLES:
            return float(_ON_SAMPLES[name](x))
        if name in _ON_PSD:
            return float(_ON_PSD[name](psd_welch(Epoch(samples=x, fs=fs))))
        return float(subband_features(dwt(x))[name])
    except ValueError:
        return math.nan


class TestCatalogWiring:
    """Every catalog name, through extract, equals its public function."""

    _cells: dict = {}  # reference values by (name, channel, epoch), shared

    @staticmethod
    def _record():
        # A noise channel, an all-zero channel, a constant channel, and a
        # noise channel with a zero stretch across its first epochs.
        record = synth_record(
            SynthSpec(duration_s=6.0, channels=("A", "B", "C", "D", "E", "F"), seed=3)
        )
        data = record.data.copy()
        data[1] = 0.0
        data[3] = 7.25
        data[4, 256:1280] = 0.0
        return dataclasses.replace(record, data=data)

    def test_reference_covers_the_catalog(self):
        known = set(_ON_SAMPLES) | set(_ON_PSD)
        bands = set(subband_features(dwt(np.arange(1024.0))))
        assert known | bands == FEATURE_CATALOG
        assert not known & bands

    @pytest.mark.parametrize(
        "left, right",
        [(("A",), ("B",)), (("C",), ("D",)), (("E",), ("F",)),
         (("A", "B", "E"), ("C", "D", "F"))],
    )
    def test_every_catalog_cell_equals_its_public_function(self, left, right):
        record = self._record()
        names = tuple(sorted(FEATURE_CATALOG))
        cfg = RunConfig(features=names, montage=Montage(left=left, right=right))
        table = extract(record, cfg)
        width = int(cfg.width_s * record.fs)
        stride = int(cfg.stride_s * record.fs)
        for i in range(len(table)):
            cut = slice(i * stride, i * stride + width)
            for side, channels in (("L", left), ("R", right)):
                for name in names:
                    want = 0.0
                    for c in channels:
                        key = (name, c, i)
                        if key not in self._cells:
                            x = record.channel_data(c)[cut]
                            self._cells[key] = _reference_cell(name, x, record.fs)
                        want += self._cells[key]
                    want = want / len(channels) if math.isfinite(want) else math.nan
                    got = table.column(f"{name}{side}")[i]
                    if math.isnan(want):
                        assert math.isnan(got), (name, side, i)
                    else:
                        assert got == want, (name, side, i, got, want)


class TestLabels:
    def test_majority_overlap_labels_seizure(self):
        record = _record(seconds=30, annotations=((10.0, 20.0),))
        cfg = RunConfig(features=("Mean",), montage=_PAIR)
        table = extract(record, cfg)
        labeled = table.epoch_starts[table.labels == 1]
        assert np.array_equal(labeled, np.arange(9.0, 18.0))

    def test_no_annotations_all_normal(self):
        cfg = RunConfig(features=("Mean",), montage=_PAIR)
        table = extract(_record(), cfg)
        assert table.labels.sum() == 0


class TestMontageHandling:
    def test_extra_channels_are_ignored(self):
        record = _record(channels=("A", "B", "ECG"))
        cfg = RunConfig(features=("Mean",), montage=_PAIR)
        table = extract(record, cfg)
        assert table.feature_names == ("MeanL", "MeanR")

    def test_missing_montage_channels_shrink_the_average(self):
        record = _record(channels=("L1", "R1"))
        cfg = RunConfig(
            features=("Mean",),
            montage=Montage(left=("L1", "L2"), right=("R1",)),
        )
        table = extract(record, cfg)
        assert table.column("MeanL")[0] == stat_summary(record.data[0][:1024]).mean

    def test_empty_montage_side_errors(self):
        record = _record(channels=("A", "C"))
        cfg = RunConfig(features=("Mean",), montage=Montage(left=("A",), right=("B",)))
        with pytest.raises(ValueError, match="right montage side"):
            extract(record, cfg)

    def test_unknown_feature_errors(self):
        cfg = RunConfig(features=("Mean", "Bogus"), montage=_PAIR)
        with pytest.raises(ValueError, match="Bogus"):
            extract(_record(), cfg)

    def test_non_finite_sample_names_channel_and_time(self):
        record = _record(seconds=8, channels=("A", "B", "ECG"))
        data = record.data.copy()
        data[1, 600] = np.nan
        data[2, 10] = np.inf  # outside the montage: ignored
        cfg = RunConfig(features=("Mean",), montage=_PAIR)
        with pytest.raises(ValueError, match=r"channel 'B': non-finite sample at 2\.34375 s"):
            extract(dataclasses.replace(record, data=data), cfg)
        data[1, 600] = 0.0
        table = extract(dataclasses.replace(record, data=data), cfg)
        assert np.all(np.isfinite(table.values))

    def test_duplicate_feature_errors(self):
        cfg = RunConfig(features=("Mean", "Mean"), montage=_PAIR)
        with pytest.raises(ValueError, match="duplicates"):
            extract(_record(), cfg)


class TestDeterminism:
    def test_same_input_same_bytes(self):
        record = synth_record(
            SynthSpec(duration_s=20.0, fs=128.0, channels=("A", "B"),
                      seizure_intervals=((5, 10),), seed=2)
        )
        cfg = RunConfig(features=("Mean", "Energy", "ApEn", "IWMF", "EnergyD1"),
                        montage=_PAIR)
        assert extract(record, cfg).to_csv() == extract(record, cfg).to_csv()

    def test_thread_count_does_not_change_output(self):
        record = _record(seconds=10, channels=("A", "B", "C", "D"))
        montage = Montage(left=("A", "B"), right=("C", "D"))
        serial = RunConfig(features=("Energy", "ShEn"), montage=montage, threads=1)
        pooled = serial.replace(threads=3)
        assert extract(record, serial).to_csv() == extract(record, pooled).to_csv()

    def test_block_layout_does_not_change_output(self, monkeypatch):
        # Five channels of 5 epochs at width 512, one of them flat so the
        # full catalog has NaN cells: one channel per block, channels
        # stacked in a few blocks, channels cut into row slices, one block.
        record = _record(seconds=8, fs=128.0, channels=("A", "B", "C", "D", "E"))
        data = record.data.copy()
        data[1] = 0.0
        record = dataclasses.replace(record, data=data)
        cfg = RunConfig(features=tuple(sorted(FEATURE_CATALOG)),
                        montage=Montage(left=("A", "B", "C"), right=("D", "E")))
        layouts = []
        blocks = pipeline._blocks

        def spy(*args):
            layouts.append(blocks(*args))
            return layouts[-1]

        monkeypatch.setattr(pipeline, "_blocks", spy)
        outputs = []
        for rows, threads in ((5, 1), (10, 1), (2, 1), (2, 3), (1 << 10, 1)):
            monkeypatch.setattr(pipeline, "_BLOCK_SAMPLES", rows * 512)
            table = extract(record, cfg.replace(threads=threads))
            outputs.append(table.to_csv())
        assert [len(layout) for layout in layouts] == [5, 3, 15, 15, 1]
        assert np.isnan(table.values).any()
        assert all(out == outputs[0] for out in outputs)

    def test_csv_round_trip_preserves_table(self, tmp_path):
        cfg = RunConfig(features=("Mean", "Energy"), montage=_PAIR)
        table = extract(_record(seconds=8), cfg)
        path = tmp_path / "t.csv"
        table.write_csv(path)
        loaded = FeatureTable.read_csv(path)
        assert loaded.feature_names == table.feature_names
        assert np.array_equal(loaded.labels, table.labels)


class TestExecutionStyle:
    def test_only_the_template_counter_runs_row_by_row(self, monkeypatch):
        # Every default source but ApEn/SampEn runs down the epoch matrix;
        # _by_row, the per-row loop, sees the template counter and nothing else.
        seen = []
        by_row = pipeline._by_row

        def spy(fn, rows, width=1):
            seen.append(fn)
            return by_row(fn, rows, width)

        monkeypatch.setattr(pipeline, "_by_row", spy)
        table = extract(_record(seconds=8), RunConfig(montage=_PAIR))
        assert len(table.feature_names) == 2 * len(DEFAULT_FEATURES)
        assert seen and set(seen) == {tf.template_entropies}

    def test_one_welch_call_per_block_not_per_channel(self, monkeypatch):
        calls = []
        welch = pipeline.welch

        def spy(rows, fs):
            calls.append(rows.shape)
            return welch(rows, fs)

        monkeypatch.setattr(pipeline, "welch", spy)
        record = synth_record(SynthSpec(duration_s=12.0, seed=0))
        extract(record, RunConfig(features=("IWMF",)))
        assert len(record.channels) == 16
        assert 1 <= len(calls) <= 2
        assert sum(n for n, _ in calls) == 16 * 9

    def test_channel_longer_than_the_budget_is_not_copied(self, monkeypatch):
        # At 4 rows per block, each 17-epoch channel is five row slices of
        # its own epoch matrix, each a view of the record's samples.
        seen = []
        welch = pipeline.welch

        def spy(rows, fs):
            seen.append(rows)
            return welch(rows, fs)

        monkeypatch.setattr(pipeline, "welch", spy)
        monkeypatch.setattr(pipeline, "_BLOCK_SAMPLES", 4 * 1024)
        record = _record(seconds=20)
        extract(record, RunConfig(features=("IWMF",), montage=_PAIR))
        assert len(seen) == 10 and sum(map(len, seen)) == 2 * 17
        assert max(map(len, seen)) <= 4
        assert all(np.shares_memory(rows, record.data) for rows in seen)


class TestMemory:
    def test_the_block_budget_bounds_the_peak(self):
        # At 48 s two channels' 45 epochs share a block; at 192 s each
        # channel's 189 epochs are cut into row slices.
        extract(synth_record(SynthSpec(duration_s=8.0, seed=0)), RunConfig())  # warm caches
        peaks = []
        for seconds in (48.0, 192.0):
            record = synth_record(SynthSpec(duration_s=seconds, seed=1))
            tracemalloc.start()
            try:
                extract(record, RunConfig())
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 6 * 2**20
        assert peaks[1] <= peaks[0] + 2**20
