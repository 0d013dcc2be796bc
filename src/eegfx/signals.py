"""Signal containers, epoch segmentation, and hemisphere grouping.

An EEG recording is held as a channel-by-sample matrix (:class:`Record`).
Sliding windows cut from one channel are :class:`Epoch` objects; features are
computed per epoch and then averaged over each :class:`Montage` side's
channels by the pipeline.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "Epoch",
    "EpochLabel",
    "Montage",
    "Record",
    "DEFAULT_MONTAGE",
    "label_epoch",
    "segment",
    "window_counts",
]


class EpochLabel(enum.Enum):
    SEIZURE = "seizure"
    NORMAL = "normal"


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.asarray(a, dtype=np.float64).view()  # freeze a view, not the caller's array
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Epoch:
    """One fixed-length window of one channel.

    Parameters
    ----------
    samples : array_like
        Amplitudes in microvolts, length >= 2, all finite.
    fs : float
        Sampling frequency in Hz, > 0.
    channel_id : str
        Montage label of the source channel.
    start_time : float
        Offset of the first sample from record start, in seconds.
    """

    samples: np.ndarray
    fs: float
    channel_id: str = ""
    start_time: float = 0.0

    def __post_init__(self) -> None:
        samples = _readonly(self.samples)
        if samples.ndim != 1 or samples.size < 2:
            raise ValueError("epoch needs a 1-D sample vector of length >= 2")
        if not np.all(np.isfinite(samples)):
            raise ValueError("epoch samples must be finite")
        if not self.fs > 0:
            raise ValueError(f"fs must be positive, got {self.fs}")
        object.__setattr__(self, "samples", samples)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.fs

    @property
    def interval(self) -> tuple[float, float]:
        return (self.start_time, self.start_time + self.duration)


@dataclass(frozen=True)
class Record:
    """Multi-channel recording with seizure annotations.

    ``data`` is channels x samples; ``annotations`` is a list of
    ``[start_s, end_s)`` seizure intervals, normalized (sorted, merged,
    within the record duration).
    """

    channels: tuple[str, ...]
    data: np.ndarray
    fs: float
    annotations: tuple[tuple[float, float], ...] = field(default_factory=tuple)
    name: str = ""

    def __post_init__(self) -> None:
        data = _readonly(self.data)
        channels = tuple(self.channels)
        if data.ndim != 2:
            raise ValueError("record data must be channels x samples")
        if len(channels) != data.shape[0]:
            raise ValueError(
                f"{len(channels)} channel labels for {data.shape[0]} data rows"
            )
        if len(set(channels)) != len(channels):
            raise ValueError("duplicate channel labels")
        if not self.fs > 0:
            raise ValueError(f"fs must be positive, got {self.fs}")
        duration = data.shape[1] / self.fs
        annotations = tuple((float(s), float(e)) for s, e in self.annotations)
        for start, end in annotations:
            if end <= start:
                raise ValueError(f"empty annotation [{start}, {end})")
            if start < 0 or end > duration + 1e-9:
                raise ValueError(
                    f"annotation [{start}, {end}) outside record of {duration} s"
                )
        for (_, e0), (s1, _) in zip(annotations, annotations[1:]):
            if s1 < e0:
                raise ValueError("annotations must be normalized (sorted, disjoint)")
        object.__setattr__(self, "channels", channels)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "annotations", annotations)

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]

    @property
    def duration(self) -> float:
        return self.n_samples / self.fs

    def channel_data(self, channel_id: str) -> np.ndarray:
        try:
            row = self.channels.index(channel_id)
        except ValueError:
            raise KeyError(f"no channel {channel_id!r} in record") from None
        return self.data[row]


@dataclass(frozen=True)
class Montage:
    """Left/right split of channel labels. Sides are disjoint and non-empty."""

    left: tuple[str, ...]
    right: tuple[str, ...]

    def __post_init__(self) -> None:
        for side, labels in (("left", self.left), ("right", self.right)):
            if isinstance(labels, str):
                raise ValueError(f"montage {side} side must be a list of labels, got {labels!r}")
        left = tuple(self.left)
        right = tuple(self.right)
        if not left or not right:
            raise ValueError("both montage sides must be non-empty")
        if set(left) & set(right):
            raise ValueError("montage sides must be disjoint")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @property
    def all_channels(self) -> tuple[str, ...]:
        return self.left + self.right


# 10-20 longitudinal bipolar chains; odd-numbered electrodes are left
# hemisphere by convention, even-numbered right.
DEFAULT_MONTAGE = Montage(
    left=("FP1-F7", "F7-T7", "T7-P7", "P7-O1", "FP1-F3", "F3-C3", "C3-P3", "P3-O1"),
    right=("FP2-F4", "F4-C4", "C4-P4", "P4-O2", "FP2-F8", "F8-T8", "T8-P8", "P8-O2"),
)


def window_counts(n_samples: int, fs: float, width_s: float, stride_s: float):
    """(width, stride, count) in samples of the epochs a record is cut into."""
    width = width_s * fs
    stride = stride_s * fs
    width_n = int(round(width))
    stride_n = int(round(stride))
    if width_n <= 0 or abs(width - width_n) > 1e-9:
        raise ValueError(f"width_s * fs must be a positive integer, got {width}")
    if stride_n <= 0 or abs(stride - stride_n) > 1e-9:
        raise ValueError(f"stride_s * fs must be a positive integer, got {stride}")
    if n_samples < width_n:
        raise ValueError(
            f"record of {n_samples} samples shorter than one {width_n}-sample window"
        )
    count = (n_samples - width_n) // stride_n + 1
    return width_n, stride_n, count


def segment(
    record: Record, width_s: float, stride_s: float
) -> dict[str, list[Epoch]]:
    """Cut every channel into overlapping fixed-width epochs.

    Epoch k covers samples ``[k*stride, k*stride + width)``; the trailing
    partial window is dropped, never padded (padding would bias amplitude
    features). Returns ``{channel_id: [Epoch, ...]}`` with
    ``floor((L - width*fs)/(stride*fs)) + 1`` epochs per channel.
    """
    width_n, stride_n, count = window_counts(
        record.n_samples, record.fs, width_s, stride_s
    )
    out: dict[str, list[Epoch]] = {}
    for row, channel in enumerate(record.channels):
        chan = record.data[row]
        epochs = []
        for k in range(count):
            lo = k * stride_n
            epochs.append(
                Epoch(
                    samples=chan[lo : lo + width_n],
                    fs=record.fs,
                    channel_id=channel,
                    start_time=lo / record.fs,
                )
            )
        out[channel] = epochs
    return out


def label_epoch(
    epoch: Epoch | tuple[float, float],
    annotations: Sequence[tuple[float, float]],
) -> EpochLabel:
    """Label an epoch seizure iff annotations cover > 50% of its duration.

    ``epoch`` may be an :class:`Epoch` or a bare ``(start_s, end_s)``
    interval. Overlap is summed across the (normalized, disjoint)
    annotation intervals; exactly half coverage stays normal.
    """
    if isinstance(epoch, Epoch):
        start, end = epoch.interval
    else:
        start, end = epoch
    if end <= start:
        raise ValueError(f"empty epoch interval [{start}, {end})")
    covered = 0.0
    for a_start, a_end in annotations:
        covered += max(0.0, min(end, a_end) - max(start, a_start))
    if covered > 0.5 * (end - start):
        return EpochLabel.SEIZURE
    return EpochLabel.NORMAL
