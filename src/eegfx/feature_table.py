"""Epochs-by-features matrix with class labels, persisted as CSV.

Schema: ``record,epoch_start_s,label,<feature columns...>`` with label
1 for seizure epochs and 0 for normal ones.  Floats are written with 9
significant digits (``%.9g``), so identical tables serialize
byte-identically.  ``to_csv`` and ``write_csv`` apply one row template
to blocks of 256 rows, so writing holds one block's Python floats at a
time; ``read_csv`` checks the header and each row's cell count, then
parses all numeric columns in one ``np.loadtxt`` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator

import numpy as np

__all__ = ["FeatureTable"]

_FIXED_COLUMNS = ("record", "epoch_start_s", "label")
_CSV_BLOCK_ROWS = 256


@dataclass(frozen=True)
class FeatureTable:
    """Rows are epochs; columns are named feature values plus metadata."""

    records: tuple[str, ...]
    epoch_starts: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        records = tuple(str(r) for r in self.records)
        # views, frozen below without freezing the caller's arrays
        starts = np.asarray(self.epoch_starts, dtype=np.float64).view()
        labels = np.asarray(self.labels)
        names = tuple(str(n) for n in self.feature_names)
        values = np.asarray(self.values, dtype=np.float64).view()
        n = len(records)
        if values.ndim != 2 or values.shape != (n, len(names)):
            raise ValueError("values must be (epoch count) x (feature count)")
        if starts.shape != (n,) or labels.shape != (n,):
            raise ValueError("records, epoch_starts and labels must align")
        if n == 0:
            raise ValueError("feature table needs at least one epoch row")
        if not np.isin(labels, (0, 1)).all():
            raise ValueError("labels must be 0 (normal) or 1 (seizure)")
        labels = labels.astype(np.int64)
        if len(set(names)) != len(names):
            raise ValueError("duplicate feature column names")
        for banned in names + records:
            if "," in banned or "\n" in banned:
                raise ValueError(f"name {banned!r} cannot contain ',' or newline")
        for arr in (starts, labels, values):
            arr.flags.writeable = False
        object.__setattr__(self, "records", records)
        object.__setattr__(self, "epoch_starts", starts)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.records)

    def column(self, name: str) -> np.ndarray:
        try:
            idx = self.feature_names.index(name)
        except ValueError:
            raise KeyError(f"no feature column {name!r}") from None
        return self.values[:, idx]

    def class_counts(self) -> tuple[int, int]:
        """(seizure epochs, normal epochs)."""
        n_seizure = int((self.labels == 1).sum())
        return n_seizure, len(self.records) - n_seizure

    def class_values(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Feature column split as (seizure values, normal values)."""
        col = self.column(name)
        seizure, normal = self._class_masks
        return col[seizure], col[normal]

    @cached_property
    def _class_masks(self) -> tuple[np.ndarray, np.ndarray]:
        """(seizure rows, normal rows) as masks, built once per table."""
        return self.labels == 1, self.labels == 0

    def to_csv(self) -> str:
        return "".join(self._csv_blocks())

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", encoding="ascii", newline="") as handle:
            handle.writelines(self._csv_blocks())

    def _csv_blocks(self) -> Iterator[str]:
        # Blocks of rows keep the Python floats of only one block alive,
        # not a float object per cell of the whole table.
        yield ",".join(_FIXED_COLUMNS + self.feature_names) + "\n"
        row = "%s,%.9g,%d" + ",%.9g" * len(self.feature_names) + "\n"
        for lo in range(0, len(self.records), _CSV_BLOCK_ROWS):
            hi = lo + _CSV_BLOCK_ROWS
            numbers = np.column_stack(
                [self.epoch_starts[lo:hi], self.labels[lo:hi], self.values[lo:hi]]
            ).tolist()
            yield "".join(row % (rec, *cells) for rec, cells in zip(self.records[lo:hi], numbers))

    @classmethod
    def read_csv(cls, path: str | Path) -> "FeatureTable":
        lines = Path(path).read_text(encoding="ascii").splitlines()
        if not lines:
            raise ValueError(f"{path}: empty feature table file")
        header = lines[0].split(",")
        if tuple(header[: len(_FIXED_COLUMNS)]) != _FIXED_COLUMNS:
            raise ValueError(f"{path}: header must start with {','.join(_FIXED_COLUMNS)}")
        rows = lines[1:]
        if not rows:
            raise ValueError(f"{path}: feature table needs at least one epoch row")
        for ln, line in enumerate(rows, start=2):
            cells = line.count(",") + 1
            if cells != len(header):
                raise ValueError(f"{path}:{ln}: expected {len(header)} cells, got {cells}")
        try:
            numbers = np.loadtxt(
                rows, delimiter=",", usecols=range(1, len(header)), comments=None, ndmin=2
            )
            return cls(
                records=tuple(line[: line.index(",")] for line in rows),
                epoch_starts=numbers[:, 0],
                labels=numbers[:, 1],
                feature_names=tuple(header[len(_FIXED_COLUMNS) :]),
                values=numbers[:, 2:],
            )
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
