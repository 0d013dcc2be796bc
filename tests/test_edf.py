"""EDF reader/writer: calibration math, round trips, header diagnostics."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from eegfx.edf import EdfHeader, EdfSignal, read_edf, read_edf_header, write_edf
from eegfx.signals import Record


def _random_record(seed=0, channels=("C3", "C4", "O1"), fs=64.0, seconds=10):
    rng = np.random.default_rng(seed)
    data = 80.0 * rng.standard_normal((len(channels), int(seconds * fs)))
    return Record(channels=channels, data=data, fs=fs, name="rnd")


def _patched(path, out, offset, field):
    raw = bytearray(path.read_bytes())
    raw[offset : offset + len(field)] = field
    out.write_bytes(bytes(raw))
    return out


class TestWriteRead:
    def test_header_fields_survive(self, tmp_path):
        record = _random_record()
        f = tmp_path / "a.edf"
        write_edf(record, f, patient="anon", recording="sess 1")
        header = read_edf_header(f)
        assert header.version == "0"
        assert header.patient == "anon"
        assert header.recording == "sess 1"
        assert header.n_signals == 3
        assert tuple(s.label for s in header.signals) == ("C3", "C4", "O1")
        assert header.n_records == 10
        assert header.record_duration_s == 1.0
        assert all(s.samples_per_record == 64 for s in header.signals)
        assert all(s.digital_min == -32768 for s in header.signals)
        assert all(s.digital_max == 32767 for s in header.signals)

    def test_read_back_is_within_half_a_quantization_step(self, tmp_path):
        record = _random_record(seed=3)
        f = tmp_path / "a.edf"
        write_edf(record, f, physical_range=(-500.0, 500.0))
        loaded = read_edf(f)
        step = 1000.0 / 65535
        assert loaded.fs == record.fs
        assert loaded.channels == record.channels
        assert np.max(np.abs(loaded.data - record.data)) <= 0.5 * step + 1e-12
        assert loaded.name == "a"
        assert loaded.annotations == ()

    def test_write_read_write_read_is_bit_exact(self, tmp_path):
        # First write quantizes; once on the lattice, everything after
        # must reproduce the file byte for byte.
        record = _random_record(seed=7)
        f, g = tmp_path / "a.edf", tmp_path / "b.edf"
        write_edf(record, f)
        first = read_edf(f)
        ranges = [
            (s.physical_min, s.physical_max) for s in read_edf_header(f).signals
        ]
        write_edf(first, g, physical_range=ranges)
        second = read_edf(g)
        assert np.array_equal(first.data, second.data)
        assert f.read_bytes() == g.read_bytes()

    def test_read_decodes_in_one_pass(self, tmp_path):
        # 16 channels interleaved in one-second records; the decode holds the
        # int16 payload and the float64 samples, not per-signal copies of both
        channels = tuple(f"C{k}" for k in range(16))
        record = _random_record(seed=5, channels=channels, fs=256.0, seconds=120)
        data = record.data.copy()
        data[:, 7] = 1000.0  # the range top, so these samples decode at digital_max
        f = tmp_path / "a.edf"
        header = write_edf(dataclasses.replace(record, data=data), f)
        tracemalloc.start()
        try:
            loaded = read_edf(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * loaded.data.nbytes
        codes = np.frombuffer(f.read_bytes()[header.header_bytes :], dtype="<i2")
        codes = codes.reshape(header.n_records, len(channels), -1)
        for k, sig in enumerate(header.signals):
            c = codes[:, k].reshape(-1)
            want = (c.astype(np.float64) - sig.digital_min) * sig.gain + sig.physical_min
            want = np.where(c == sig.digital_max, sig.physical_max, want)
            assert np.array_equal(loaded.data[k], want)
            assert loaded.data[k, 7] == sig.physical_max == 1000.0

    def test_default_range_encloses_data_with_integer_bounds(self, tmp_path):
        record = _random_record(seed=11)
        f = tmp_path / "a.edf"
        header = write_edf(record, f)
        for sig, row in zip(header.signals, record.data):
            assert sig.physical_min == np.floor(row.min())
            assert sig.physical_max == np.ceil(row.max())
            assert float(sig.physical_min).is_integer()

    def test_constant_channel_gets_a_widened_range(self, tmp_path):
        record = Record(channels=("Z",), data=np.full((1, 64), 5.0), fs=64.0)
        f = tmp_path / "a.edf"
        header = write_edf(record, f)
        assert header.signals[0].physical_min == 4.0
        assert header.signals[0].physical_max == 6.0
        assert np.allclose(read_edf(f).data, 5.0, atol=1e-4)

    def test_fractional_duration_becomes_a_single_record(self, tmp_path):
        record = Record(
            channels=("A", "B"),
            data=np.random.default_rng(0).standard_normal((2, 224)),
            fs=64.0,
        )
        f = tmp_path / "a.edf"
        header = write_edf(record, f, physical_range=(-8.0, 8.0))
        assert header.n_records == 1
        assert header.record_duration_s == 3.5
        loaded = read_edf(f)
        assert loaded.fs == 64.0
        assert loaded.n_samples == 224

    def test_per_channel_mapping_range(self, tmp_path):
        record = Record(
            channels=("A", "B"),
            data=np.vstack([np.linspace(-1, 1, 64), np.linspace(-9, 9, 64)]),
            fs=64.0,
        )
        f = tmp_path / "a.edf"
        header = write_edf(
            record, f, physical_range={"A": (-2.0, 2.0), "B": (-10.0, 10.0)}
        )
        assert header.signals[0].physical_max == 2.0
        assert header.signals[1].physical_max == 10.0

    def test_samples_outside_explicit_range_error(self, tmp_path):
        record = _random_record(seed=5)
        with pytest.raises(ValueError, match="outside the physical"):
            write_edf(record, tmp_path / "a.edf", physical_range=(-1.0, 1.0))
        record = Record(channels=("A",), data=[[0.0, np.nan]], fs=2.0)
        with pytest.raises(ValueError, match="outside the physical"):
            write_edf(record, tmp_path / "b.edf", physical_range=(-1.0, 1.0))


# A bound is any double, or a short decimal that fits the 8-character field.
_BOUNDS = st.one_of(
    st.floats(),
    st.integers(-(10**9), 10**9).map(float),
    st.builds(lambda m, e: float(f"{m}e{e}"), st.integers(-999, 999), st.integers(-330, 310)),
)
_RANGE_ERRORS = ("does not fit", "physical range is empty", "digital step")


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(lo=_BOUNDS, hi=_BOUNDS, u=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6))
@example(lo=-1.0, hi=0.1, u=[0.5] * 6)  # the top code once read back past 0.1
@example(lo=0.0, hi=1e-304, u=[0.5] * 6)  # a subnormal digital step
@example(lo=0.0, hi=5e-324, u=[0.5] * 6)  # a step that rounds to 0
@example(lo=-1e308, hi=1e308, u=[0.5] * 6)  # a span that overflows
@example(lo=0.0, hi=float("inf"), u=[0.5] * 6)
def test_any_physical_range_round_trips_or_is_refused(tmp_path, lo, hi, u):
    # samples include both bounds; the first write quantizes, and the
    # second write of the read-back record must reproduce it exactly
    u = np.array([0.0, 1.0, *u])
    with np.errstate(all="ignore"):
        data = (lo * (1.0 - u) + hi * u)[None, :]
    record = Record(channels=("A",), data=data, fs=4.0)
    f, g = tmp_path / "a.edf", tmp_path / "b.edf"
    try:
        write_edf(record, f, physical_range=(lo, hi))
    except ValueError as err:
        assert any(name in str(err) for name in _RANGE_ERRORS), err
        return
    first = read_edf(f)
    header = read_edf_header(f)
    write_edf(first, g, physical_range=[(s.physical_min, s.physical_max) for s in header.signals])
    assert np.array_equal(read_edf(g).data, first.data)
    assert g.read_bytes() == f.read_bytes()


class TestDiagnostics:
    def test_zero_signals_declared(self, tmp_path):
        record = _random_record()
        f = tmp_path / "a.edf"
        write_edf(record, f)
        bad = _patched(f, tmp_path / "bad.edf", 252, b"0   ")
        with pytest.raises(ValueError, match="0 signals"):
            read_edf_header(bad)

    def test_equal_digital_bounds(self, tmp_path):
        record = Record(channels=("A",), data=np.zeros((1, 64)), fs=64.0)
        f = tmp_path / "a.edf"
        write_edf(record, f)
        # One signal: digital min/max fields sit at 376 and 384.
        bad = _patched(f, tmp_path / "bad.edf", 376, b"7       7       ")
        with pytest.raises(ValueError, match="zero digital range"):
            read_edf_header(bad)

    def test_truncated_header(self, tmp_path):
        f = tmp_path / "a.edf"
        f.write_bytes(b" " * 100)
        with pytest.raises(ValueError, match="truncated"):
            read_edf_header(f)

    def test_truncated_payload(self, tmp_path):
        record = _random_record()
        f = tmp_path / "a.edf"
        write_edf(record, f)
        g = tmp_path / "bad.edf"
        g.write_bytes(f.read_bytes()[:-10])
        with pytest.raises(ValueError, match="truncated"):
            read_edf(g)

    def test_trailing_bytes(self, tmp_path):
        record = _random_record()
        f = tmp_path / "a.edf"
        write_edf(record, f)
        g = tmp_path / "bad.edf"
        g.write_bytes(f.read_bytes() + b"\x00\x00")
        with pytest.raises(ValueError, match="inconsistent record sizes"):
            read_edf(g)

    def test_header_size_mismatch(self, tmp_path):
        record = _random_record()
        f = tmp_path / "a.edf"
        write_edf(record, f)
        bad = _patched(f, tmp_path / "bad.edf", 184, b"9999    ")
        with pytest.raises(ValueError, match="header size"):
            read_edf_header(bad)

    def test_mixed_sampling_rates(self, tmp_path):
        record = Record(
            channels=("A", "B"),
            data=np.zeros((2, 128)),
            fs=64.0,
        )
        f = tmp_path / "a.edf"
        write_edf(record, f)
        # Two signals: the samples-per-record fields sit at 688 and 696.
        bad = _patched(f, tmp_path / "bad.edf", 696, b"32      ")
        with pytest.raises(ValueError, match="mixed sampling rates"):
            read_edf(bad)

    def test_garbled_numeric_field(self, tmp_path):
        record = _random_record()
        f = tmp_path / "a.edf"
        write_edf(record, f)
        bad = _patched(f, tmp_path / "bad.edf", 236, b"banana  ")
        with pytest.raises(ValueError, match="record count"):
            read_edf_header(bad)


class TestHeaderTypes:
    def test_signal_rejects_zero_digital_range(self):
        with pytest.raises(ValueError, match="zero digital range"):
            EdfSignal(label="A", digital_min=5, digital_max=5)

    def test_signal_rejects_empty_physical_range(self):
        with pytest.raises(ValueError, match="physical range"):
            EdfSignal(label="A", physical_min=1.0, physical_max=1.0)

    def test_signal_rejects_nonpositive_samples_per_record(self):
        with pytest.raises(ValueError, match="samples per record"):
            EdfSignal(label="A", samples_per_record=0)

    def test_header_rejects_no_signals(self):
        with pytest.raises(ValueError, match="0 signals"):
            EdfHeader(
                version="0", patient="", recording="", start_date="01.01.00",
                start_time="00.00.00", n_records=1, record_duration_s=1.0,
                signals=(),
            )

    def test_header_rejects_nonpositive_record_count(self):
        with pytest.raises(ValueError, match="data records"):
            EdfHeader(
                version="0", patient="", recording="", start_date="01.01.00",
                start_time="00.00.00", n_records=0, record_duration_s=1.0,
                signals=(EdfSignal(label="A", samples_per_record=4),),
            )

    def test_gain_is_physical_span_per_digital_step(self):
        sig = EdfSignal(
            label="A", physical_min=-100.0, physical_max=100.0,
            digital_min=-1000, digital_max=1000, samples_per_record=4,
        )
        assert sig.gain == pytest.approx(0.1)


class TestHeaderLayout:
    def test_two_channel_header_bytes_and_read_back(self, tmp_path):
        record = Record(
            channels=("Fp1", "C4"),
            data=np.vstack([np.linspace(-50.0, 50.0, 8), np.linspace(0.0, 2.0, 8)]),
            fs=4.0,
        )
        f = tmp_path / "a.edf"
        written = write_edf(
            record, f, physical_range=[(-100.0, 100.0), (-0.5, 2.25)],
            patient="anon", recording="sess 1",
            start_date="02.03.04", start_time="05.06.07",
        )

        def field(text, width):
            return text.ljust(width).encode("ascii")

        fixed = (
            field("0", 8) + field("anon", 80) + field("sess 1", 80)
            + field("02.03.04", 8) + field("05.06.07", 8) + field("768", 8)
            + field("", 44) + field("2", 8) + field("1", 8) + field("2", 4)
        )
        per_signal = (
            field("Fp1", 16) + field("C4", 16)
            + field("", 80) * 2
            + field("uV", 8) * 2
            + field("-100", 8) + field("-0.5", 8)
            + field("100", 8) + field("2.25", 8)
            + field("-32768", 8) * 2
            + field("32767", 8) * 2
            + field("", 80) * 2
            + field("4", 8) * 2
            + field("", 32) * 2
        )
        raw = f.read_bytes()
        assert len(fixed) == 256 and len(per_signal) == 512
        assert raw[:768] == fixed + per_signal
        assert len(raw) == 768 + 2 * 2 * 8

        header = read_edf_header(f)
        assert header == written
        assert (header.version, header.patient, header.recording) == ("0", "anon", "sess 1")
        assert (header.start_date, header.start_time) == ("02.03.04", "05.06.07")
        assert (header.n_records, header.record_duration_s) == (2, 1.0)
        assert header.signals == (
            EdfSignal(label="Fp1", physical_min=-100.0, physical_max=100.0,
                      samples_per_record=4),
            EdfSignal(label="C4", physical_min=-0.5, physical_max=2.25,
                      samples_per_record=4),
        )
