"""EDF (European Data Format) reader and writer.

Layout: a 256-byte fixed header, then 256 bytes of per-signal header
fields, then data records of little-endian 16-bit two's-complement
samples.  Digital values map to physical units via

    physical = (digital - dig_min) * (phys_max - phys_min)
                                   / (dig_max - dig_min) + phys_min

The header layout is described once, as two tables of
``(attribute, width, field name, type)``: ``_HEADER_FIELDS`` for the
fixed header and ``_SIGNAL_FIELDS`` for the per-signal block.  The
reader and the writer both walk those tables, so a field's position,
width, type and the name its error messages use live in one place.

The writer quantizes against the physical range *as re-parsed from the
8-character ASCII header fields it writes*, so a read/write/read cycle
reproduces sample values bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .signals import Record

__all__ = ["EdfHeader", "EdfSignal", "read_edf", "read_edf_header", "write_edf"]

_DIGITAL_MIN = -32768
_DIGITAL_MAX = 32767


@dataclass(frozen=True)
class EdfSignal:
    """Per-signal header block: labeling, calibration, and record shape."""

    label: str
    transducer: str = ""
    physical_dim: str = "uV"
    physical_min: float = float(_DIGITAL_MIN)
    physical_max: float = float(_DIGITAL_MAX)
    digital_min: int = _DIGITAL_MIN
    digital_max: int = _DIGITAL_MAX
    prefiltering: str = ""
    samples_per_record: int = 1

    def __post_init__(self) -> None:
        if self.digital_min == self.digital_max:
            raise ValueError(
                f"signal {self.label!r} has zero digital range "
                f"({self.digital_min} .. {self.digital_max})"
            )
        if not self.physical_min < self.physical_max:
            raise ValueError(
                f"signal {self.label!r} physical range is empty "
                f"({self.physical_min} .. {self.physical_max})"
            )
        if not 0.0 < abs(self.gain) < np.inf:
            raise ValueError(
                f"signal {self.label!r} physical range "
                f"({self.physical_min} .. {self.physical_max}) gives a digital "
                f"step of {self.gain}"
            )
        if self.samples_per_record <= 0:
            raise ValueError(
                f"signal {self.label!r} declares {self.samples_per_record} "
                "samples per record"
            )

    @property
    def gain(self) -> float:
        """Physical units per digital step."""
        return (self.physical_max - self.physical_min) / (
            self.digital_max - self.digital_min
        )


@dataclass(frozen=True)
class EdfHeader:
    version: str
    patient: str
    recording: str
    start_date: str
    start_time: str
    n_records: int
    record_duration_s: float
    signals: tuple[EdfSignal, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "signals", tuple(self.signals))
        if not self.signals:
            raise ValueError("EDF header declares 0 signals")
        if self.n_records < 1:
            raise ValueError(f"EDF header declares {self.n_records} data records")
        if not self.record_duration_s > 0:
            raise ValueError(
                f"record duration must be positive, got {self.record_duration_s}"
            )

    @property
    def n_signals(self) -> int:
        return len(self.signals)

    @property
    def header_bytes(self) -> int:
        return 256 * (1 + self.n_signals)

    @property
    def samples_per_record(self) -> int:
        return sum(s.samples_per_record for s in self.signals)


# Fields in file order; a None attribute is a reserved field, written
# blank and never read.  Per-signal fields are stored as ns consecutive
# copies of each field, not ns consecutive signal blocks.
_HEADER_FIELDS = (
    ("version", 8, "version", str),
    ("patient", 80, "patient", str),
    ("recording", 80, "recording", str),
    ("start_date", 8, "start date", str),
    ("start_time", 8, "start time", str),
    ("header_bytes", 8, "header size", int),
    (None, 44, "reserved", str),
    ("n_records", 8, "record count", int),
    ("record_duration_s", 8, "record duration", float),
    ("n_signals", 4, "signal count", int),
)
_SIGNAL_FIELDS = (
    ("label", 16, "label", str),
    ("transducer", 80, "transducer", str),
    ("physical_dim", 8, "physical dimension", str),
    ("physical_min", 8, "physical minimum", float),
    ("physical_max", 8, "physical maximum", float),
    ("digital_min", 8, "digital minimum", int),
    ("digital_max", 8, "digital maximum", int),
    ("prefiltering", 80, "prefiltering", str),
    ("samples_per_record", 8, "samples per record", int),
    (None, 32, "reserved", str),
)


def _parse_field(raw: bytes, kind: type, what: str):
    try:
        text = raw.decode("ascii").strip()
    except UnicodeDecodeError:
        raise ValueError(f"non-ASCII bytes in EDF {what} field") from None
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"EDF {what} field is not {noun}: {text!r}") from None


def _parse_fields(raw: bytes, fields, count: int = 1) -> list[dict]:
    """Decode ``count`` interleaved copies of ``fields`` into attribute dicts."""
    parsed = [{} for _ in range(count)]
    offset = 0
    for attr, width, what, kind in fields:
        for values in parsed:
            if attr is not None:
                values[attr] = _parse_field(raw[offset : offset + width], kind, what)
            offset += width
    return parsed


def _read_exact(handle, count: int, what: str) -> bytes:
    raw = handle.read(count)
    if len(raw) != count:
        raise ValueError(
            f"truncated EDF file: expected {count} bytes of {what}, "
            f"got {len(raw)}"
        )
    return raw


def read_edf_header(path: str | Path) -> EdfHeader:
    """Parse and validate the header of an EDF file."""
    with open(path, "rb") as handle:
        (fixed,) = _parse_fields(_read_exact(handle, 256, "header"), _HEADER_FIELDS)
        n_signals = fixed.pop("n_signals")
        if n_signals < 1:
            raise ValueError(f"EDF header declares {n_signals} signals")
        signals = _parse_fields(
            _read_exact(handle, 256 * n_signals, "signal headers"),
            _SIGNAL_FIELDS,
            n_signals,
        )
    declared = fixed.pop("header_bytes")
    header = EdfHeader(**fixed, signals=tuple(EdfSignal(**s) for s in signals))
    if declared != header.header_bytes:
        raise ValueError(
            f"EDF header size field says {declared} bytes, "
            f"but {header.n_signals} signals need {header.header_bytes}"
        )
    return header


def read_edf(path: str | Path) -> Record:
    """Load an EDF file as a :class:`Record` in physical units.

    All signals must share one sampling rate; annotations are not part
    of EDF proper and come back empty.
    """
    path = Path(path)
    header = read_edf_header(path)
    rates = {s.samples_per_record / header.record_duration_s for s in header.signals}
    if len(rates) != 1:
        raise ValueError(f"mixed sampling rates unsupported: {sorted(rates)} Hz")
    fs = rates.pop()

    spr = header.signals[0].samples_per_record  # the same for all: one rate
    record_len = header.samples_per_record
    expected = 2 * record_len * header.n_records
    size = path.stat().st_size - header.header_bytes
    if size < expected:
        raise ValueError(
            f"truncated EDF file: {header.n_records} records of "
            f"{record_len} samples need {expected} bytes, got {size}"
        )
    if size > expected:
        raise ValueError(
            f"inconsistent record sizes: {size - expected} bytes "
            f"beyond {header.n_records} declared records"
        )

    digital = np.fromfile(path, dtype="<i2", offset=header.header_bytes)
    digital = digital.reshape(header.n_records, header.n_signals, spr)
    data = np.empty((header.n_signals, header.n_records * spr))
    rows = data.reshape(header.n_signals, header.n_records, spr)  # a view
    for row, codes, sig in zip(rows, digital.transpose(1, 0, 2), header.signals):
        row[...] = codes
        row -= sig.digital_min
        row *= sig.gain
        row += sig.physical_min
        # digital_max is physical_max by definition; the formula can round
        # past it, and a re-write would then reject the sample
        row[codes == sig.digital_max] = sig.physical_max
    return Record(
        channels=tuple(s.label for s in header.signals),
        data=data,
        fs=fs,
        annotations=(),
        name=path.stem,
    )


def _format_fields(items, fields) -> bytes:
    """Encode ``fields`` of each item, field by field, as ASCII columns."""
    parts = []
    for attr, width, what, kind in fields:
        for item in items:
            value = "" if attr is None else getattr(item, attr)
            text = _format_range(value, what) if kind is float else str(value)
            if len(text) > width:
                raise ValueError(f"EDF {what} field {text!r} exceeds {width} characters")
            if not text.isascii():
                raise ValueError(f"EDF {what} field {text!r} is not ASCII")
            parts.append(text.ljust(width).encode("ascii"))
    return b"".join(parts)


def _format_range(value: float, what: str) -> str:
    """Render a physical bound in <= 8 characters without losing precision."""
    if float(value).is_integer() and abs(value) < 1e8:
        text = str(int(value))
        if len(text) <= 8:
            return text
    for candidate in (repr(float(value)), format(value, ".6g"), format(value, ".5g")):
        if len(candidate) <= 8 and float(candidate) == float(value):
            return candidate
    raise ValueError(f"{what} {value!r} does not fit an 8-character EDF field")


def _record_shape(n_samples: int, fs: float) -> tuple[int, int, float]:
    """Choose (n_records, samples_per_record, record_duration_s)."""
    if float(fs).is_integer() and n_samples % int(fs) == 0:
        return n_samples // int(fs), int(fs), 1.0
    return 1, n_samples, n_samples / fs


def write_edf(
    record: Record,
    path: str | Path,
    physical_range: tuple[float, float]
    | Sequence[tuple[float, float]]
    | Mapping[str, tuple[float, float]]
    | None = None,
    patient: str = "",
    recording: str = "",
    start_date: str = "01.01.00",
    start_time: str = "00.00.00",
) -> EdfHeader:
    """Write a record as 16-bit EDF and return the header as written.

    ``physical_range`` sets the calibration span per channel: one
    ``(min, max)`` pair for all channels, a sequence of pairs in channel
    order, a mapping from channel label, or None for per-channel integer
    bounds that enclose the data.  Samples outside the span are an
    error, not a silent clip.  Quantization uses the range values parsed
    back from their ASCII header rendering, which is what makes repeated
    read/write cycles on the same span bit-stable.

    Lengths divisible by an integer sampling rate are stored as
    one-second records; anything else becomes a single record whose
    duration must fit the 8-character duration field exactly.
    """
    path = Path(path)
    n_records, spr, duration = _record_shape(record.n_samples, record.fs)

    signals = []
    for row, channel in enumerate(record.channels):
        if physical_range is None:
            lo = float(np.floor(record.data[row].min()))
            hi = float(np.ceil(record.data[row].max()))
            if lo == hi:
                lo, hi = lo - 1.0, hi + 1.0
        elif isinstance(physical_range, Mapping):
            lo, hi = physical_range[channel]
        elif physical_range and np.isscalar(physical_range[0]):
            lo, hi = physical_range  # one pair for every channel
        else:
            lo, hi = physical_range[row]
        signals.append(
            EdfSignal(
                label=channel,
                physical_min=float(_format_range(float(lo), "physical minimum")),
                physical_max=float(_format_range(float(hi), "physical maximum")),
                samples_per_record=spr,
            )
        )
    header = EdfHeader(
        version="0",
        patient=patient,
        recording=recording,
        start_date=start_date,
        start_time=start_time,
        n_records=n_records,
        record_duration_s=duration,
        signals=signals,
    )

    digital = np.empty((n_records, header.samples_per_record), dtype="<i2")
    offset = 0
    for row, sig in enumerate(header.signals):
        samples = record.data[row]
        # negated, so that a NaN sample (min and max NaN) fails it too
        if not sig.physical_min <= samples.min() <= samples.max() <= sig.physical_max:
            raise ValueError(
                f"channel {sig.label!r} samples span "
                f"[{samples.min()}, {samples.max()}], outside the physical "
                f"range ({sig.physical_min} .. {sig.physical_max})"
            )
        codes = np.rint((samples - sig.physical_min) / sig.gain) + sig.digital_min
        codes = np.clip(codes, sig.digital_min, sig.digital_max)
        digital[:, offset : offset + spr] = codes.reshape(n_records, spr)
        offset += spr

    path.write_bytes(
        _format_fields([header], _HEADER_FIELDS)
        + _format_fields(header.signals, _SIGNAL_FIELDS)
        + digital.tobytes()
    )
    return header
