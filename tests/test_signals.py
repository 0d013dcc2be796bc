from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from eegfx.signals import (
    DEFAULT_MONTAGE,
    Epoch,
    EpochLabel,
    Montage,
    Record,
    label_epoch,
    segment,
    window_counts,
)


def make_record(n_samples, fs=256.0, channels=("A", "B"), annotations=()):
    rng = np.random.default_rng(0)
    data = rng.standard_normal((len(channels), n_samples))
    return Record(channels=channels, data=data, fs=fs, annotations=annotations)


class TestTypes:
    def test_epoch_validation(self):
        with pytest.raises(ValueError):
            Epoch(samples=np.array([1.0]), fs=256.0)
        with pytest.raises(ValueError):
            Epoch(samples=np.array([1.0, np.nan]), fs=256.0)
        with pytest.raises(ValueError):
            Epoch(samples=np.array([1.0, 2.0]), fs=0.0)

    def test_epoch_immutable(self):
        e = Epoch(samples=np.array([1.0, 2.0, 3.0]), fs=1.0)
        with pytest.raises(ValueError):
            e.samples[0] = 9.0

    def test_epoch_interval(self):
        e = Epoch(samples=np.zeros(1024), fs=256.0, start_time=3.0)
        assert e.duration == 4.0
        assert e.interval == (3.0, 7.0)

    def test_record_validation(self):
        with pytest.raises(ValueError):
            make_record(100, annotations=[(0.2, 0.1)])
        with pytest.raises(ValueError):
            make_record(100, annotations=[(-1.0, 0.1)])
        with pytest.raises(ValueError):
            make_record(256, annotations=[(0.0, 0.6), (0.5, 0.9)])
        with pytest.raises(ValueError):
            Record(channels=("A", "A"), data=np.zeros((2, 10)), fs=1.0)

    def test_montage_validation(self):
        with pytest.raises(ValueError):
            Montage(left=("A",), right=("A", "B"))
        with pytest.raises(ValueError):
            Montage(left=(), right=("B",))

    def test_default_montage_shape(self):
        assert len(DEFAULT_MONTAGE.left) == 8
        assert len(DEFAULT_MONTAGE.right) == 8
        assert DEFAULT_MONTAGE.left[0] == "FP1-F7"
        assert DEFAULT_MONTAGE.right[-1] == "P8-O2"

    def test_label_enum_two_classes(self):
        assert {label.value for label in EpochLabel} == {"seizure", "normal"}


class TestSegment:
    def test_counts_2560(self):
        epochs = segment(make_record(2560), 4.0, 1.0)
        assert set(epochs) == {"A", "B"}
        assert all(len(v) == 7 for v in epochs.values())
        assert all(len(e.samples) == 1024 for v in epochs.values() for e in v)

    def test_exactly_one_window(self):
        epochs = segment(make_record(1024), 4.0, 1.0)
        assert len(epochs["A"]) == 1

    def test_too_short(self):
        with pytest.raises(ValueError):
            segment(make_record(1023), 4.0, 1.0)

    def test_stride_exact_starts(self):
        epochs = segment(make_record(2560), 4.0, 1.0)["A"]
        for k, e in enumerate(epochs):
            assert e.start_time == k * 1.0

    def test_tiling_with_stride_equal_width(self):
        rec = make_record(3072)
        epochs = segment(rec, 4.0, 4.0)["B"]
        glued = np.concatenate([e.samples for e in epochs])
        assert np.array_equal(glued, rec.data[1])

    def test_non_integer_window_rejected(self):
        with pytest.raises(ValueError):
            segment(make_record(1000, fs=100.0), 0.105, 1.0)
        with pytest.raises(ValueError):
            segment(make_record(1000, fs=100.0), 1.0, 0.0105)

    def test_epochs_carry_channel_and_fs(self):
        e = segment(make_record(2048), 4.0, 2.0)["B"][1]
        assert e.channel_id == "B"
        assert e.fs == 256.0
        assert e.start_time == 2.0

    @settings(max_examples=100, deadline=None)
    @given(
        fs=st.sampled_from([100.0, 173.61, 256.0]),
        width=st.integers(2, 64),
        stride=st.integers(1, 80),
        extra=st.integers(0, 200),
    )
    def test_epochs_are_the_rows_extract_cuts(self, fs, width, stride, extra):
        # extract cuts each channel as sliding_window_view(channel, width)[::stride]
        # and dates row k at k * stride / fs
        rec = make_record(width + extra, fs=fs)
        width_s, stride_s = width / fs, stride / fs
        epochs = segment(rec, width_s, stride_s)
        width_n, stride_n, count = window_counts(rec.n_samples, fs, width_s, stride_s)
        assert (width_n, stride_n) == (width, stride)
        for channel, samples in zip(rec.channels, rec.data):
            rows = sliding_window_view(samples, width)[::stride]
            assert len(epochs[channel]) == count == len(rows)
            for k, (epoch, row) in enumerate(zip(epochs[channel], rows)):
                assert np.array_equal(epoch.samples, row)
                assert epoch.start_time == k * stride / fs
                assert (epoch.channel_id, epoch.fs) == (channel, fs)


class TestLabelEpoch:
    def test_exact_half_overlap_stays_normal(self):
        assert label_epoch((10.0, 14.0), [(0.0, 12.0)]) is EpochLabel.NORMAL

    def test_full_containment(self):
        assert label_epoch((10.0, 14.0), [(8.0, 20.0)]) is EpochLabel.SEIZURE

    def test_three_quarter_overlap(self):
        assert label_epoch((10.0, 14.0), [(11.0, 14.0)]) is EpochLabel.SEIZURE

    def test_no_annotations(self):
        assert label_epoch((10.0, 14.0), []) is EpochLabel.NORMAL

    def test_split_across_two_annotations(self):
        # 1.2 s + 1.2 s = 2.4 s of a 4 s epoch -> seizure only when summed
        anns = [(10.0, 11.2), (12.0, 13.2)]
        assert label_epoch((10.0, 14.0), anns) is EpochLabel.SEIZURE

    def test_epoch_object_accepted(self):
        e = Epoch(samples=np.zeros(1024), fs=256.0, start_time=10.0)
        assert label_epoch(e, [(10.0, 13.0)]) is EpochLabel.SEIZURE

    # Times are multiples of 1/8 s, so every sum and difference the label
    # takes is exact in floating point and must agree with exact arithmetic.
    @settings(max_examples=200, deadline=None)
    @given(
        start=st.integers(0, 400),
        n=st.integers(2, 200),
        ticks=st.lists(st.integers(0, 800), unique=True, max_size=12),
    )
    @example(start=80, n=32, ticks=[0, 96])  # [10, 14) half covered by [0, 12)
    @example(start=80, n=32, ticks=[80, 88, 104, 112])  # half, split in two
    def test_label_matches_exact_coverage_on_a_dyadic_grid(self, start, n, ticks):
        fs = 8
        ticks = sorted(ticks)[: len(ticks) // 2 * 2]
        spans = [(Fraction(a, fs), Fraction(b, fs)) for a, b in zip(ticks[::2], ticks[1::2])]
        lo, hi = Fraction(start, fs), Fraction(start + n, fs)
        covered = sum(max(Fraction(0), min(hi, b) - max(lo, a)) for a, b in spans)
        want = EpochLabel.SEIZURE if 2 * covered > hi - lo else EpochLabel.NORMAL
        annotations = [(float(a), float(b)) for a, b in spans]
        epoch = Epoch(samples=np.zeros(n), fs=float(fs), start_time=float(lo))
        assert label_epoch((float(lo), float(hi)), annotations) is want
        assert label_epoch(epoch, annotations) is want
