"""Run configuration: one JSON file, overridable by CLI flags.

Defaults follow the evaluation protocol this library reproduces: 4 s
epochs at 1 s stride, tap-4 Daubechies, 16-channel bipolar montage;
the KDE grid, CFS bins and threshold are the library functions' own
defaults.  The DWT depth is fixed in :mod:`eegfx.wavelets`, not here.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

from .cfs import DEFAULT_BINS
from .evaluation import GRID_POINTS, SIGNIFICANCE_THRESHOLD
from .signals import DEFAULT_MONTAGE, Montage
from .wavelets import LEVELS, WAVELETS

__all__ = ["RunConfig"]

# Integer fields and their smallest allowed value.
_COUNTS = {"kde_grid": 16, "cfs_bins": 2, "cfs_max_size": 1, "threads": 1}
# Real fields, and whether 0 is allowed.
_REALS = {"width_s": False, "stride_s": False, "threshold": True}


@dataclass(frozen=True)
class RunConfig:
    """Knobs for the extract/evaluate/select pipeline.

    ``features`` lists base feature names (hemisphere suffixes are
    added during extraction); None selects the full default catalog.
    ``levels`` is a read-only constant, ``wavelets.LEVELS``, not a field.
    """

    width_s: float = 4.0
    stride_s: float = 1.0
    wavelet: str = "d4"
    features: tuple[str, ...] | None = None
    montage: Montage = DEFAULT_MONTAGE
    kde_grid: int = GRID_POINTS
    cfs_bins: int = DEFAULT_BINS
    cfs_max_size: int = 10
    threshold: float = SIGNIFICANCE_THRESHOLD
    threads: int = 1
    levels: ClassVar[int] = LEVELS

    def __post_init__(self) -> None:
        if self.features is not None:
            if isinstance(self.features, str) or not isinstance(self.features, Iterable):
                raise ValueError(f"features must be a list of names, got {self.features!r}")
            object.__setattr__(self, "features", tuple(self.features))
            for name in self.features:
                if not isinstance(name, str):
                    raise ValueError(f"features must be a list of names, got {name!r} in it")
        for key, low in _COUNTS.items():
            value = getattr(self, key)
            if (
                isinstance(value, bool)
                or not isinstance(value, numbers.Real)
                or not float(value).is_integer()
                or value < low
            ):
                raise ValueError(f"{key} must be an integer >= {low}, got {value!r}")
            object.__setattr__(self, key, int(value))
        for key, zero_ok in _REALS.items():
            value = getattr(self, key)
            if (
                isinstance(value, bool)
                or not isinstance(value, numbers.Real)
                or not (value >= 0 if zero_ok else value > 0)
            ):
                raise ValueError(f"{key} must be a number {'>=' if zero_ok else '>'} 0, got {value!r}")
        if not isinstance(self.wavelet, str) or self.wavelet not in WAVELETS:
            raise ValueError(
                f"unknown wavelet {self.wavelet!r}, have {sorted(WAVELETS)}"
            )
        if self.features is not None and not self.features:
            raise ValueError("feature list must name at least one feature")
        if not isinstance(self.montage, Montage):
            raise ValueError("montage must be a Montage")

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        """Parse a config file body; unknown keys are an error."""
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(
                f"unknown config keys {sorted(unknown)}, have {sorted(known)}"
            )
        if "montage" in raw:
            montage = raw["montage"]
            if not isinstance(montage, dict) or set(montage) != {"left", "right"}:
                raise ValueError(
                    "montage must be an object with 'left' and 'right' lists"
                )
            raw["montage"] = Montage(left=montage["left"], right=montage["right"])
        return cls(**raw)

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        try:
            return cls.from_json(Path(path).read_text())
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    def to_json(self) -> str:
        raw = dataclasses.asdict(self)
        raw["features"] = list(self.features) if self.features is not None else None
        raw["montage"] = {
            "left": list(self.montage.left),
            "right": list(self.montage.right),
        }
        return json.dumps(raw, indent=2) + "\n"

    def replace(self, **overrides) -> "RunConfig":
        """A copy with the given fields changed (None values ignored)."""
        changed = {k: v for k, v in overrides.items() if v is not None}
        return dataclasses.replace(self, **changed)
