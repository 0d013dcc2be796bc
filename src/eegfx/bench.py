"""Runtime-vs-length measurement for feature functions.

Each feature is timed over a ladder of signal lengths; the log-log
slope of runtime against length estimates the complexity exponent
(1 for linear scans, 2 for pairwise template matching).

Measurement guards against two artifacts of timing small numpy calls:
per-size batches of distinct signals keep every block streaming through
memory instead of replaying one cache-hot array, and the sizes are
timed in interleaved rounds (minimum per size across rounds) so clock
noise and frequency drift cannot skew one end of the fit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from . import time_features as tf

__all__ = [
    "BenchResult",
    "LINEAR_SIZES",
    "LINEAR_SUITE",
    "QUADRATIC_SIZES",
    "QUADRATIC_SUITE",
    "bench_csv",
    "run_bench",
]

LINEAR_SUITE: Mapping[str, Callable[[np.ndarray], float]] = {
    "LineLength": tf.line_length,
    "Energy": tf.energy,
    "NE": tf.nonlinear_energy,
    "ZeroCrossing": tf.zero_crossings,
    "LocalExtrema": tf.local_extrema,
}
QUADRATIC_SUITE: Mapping[str, Callable[[np.ndarray], float]] = {
    "ApEn": tf.approximate_entropy,
    "SampEn": tf.sample_entropy,
}

# Linear features need lengths where per-call work dwarfs call overhead
# but one batch still fits the measurement budget; quadratic ones already
# take about 1 ms per call at 1024, far above call overhead.
LINEAR_SIZES = (16384, 32768, 65536)
QUADRATIC_SIZES = (1024, 2048, 4096)

_TARGET_BLOCK_S = 3e-3
_BATCH_BUDGET = 2_097_152  # elements of fresh signal per size


@dataclass(frozen=True)
class BenchResult:
    """Best-of-rounds runtimes of one feature over increasing lengths."""

    feature: str
    sizes: tuple[int, ...]
    seconds: tuple[float, ...]

    def __post_init__(self) -> None:
        sizes = tuple(int(n) for n in self.sizes)
        seconds = tuple(float(s) for s in self.seconds)
        if len(sizes) != len(seconds):
            raise ValueError(f"{len(sizes)} sizes for {len(seconds)} timings")
        if len(sizes) < 2:
            raise ValueError("need timings at >= 2 sizes to fit a slope")
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError(f"sizes must increase, got {sizes}")
        if any(s <= 0 for s in seconds):
            raise ValueError("timings must be positive")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "seconds", seconds)

    @property
    def slope(self) -> float:
        """Fitted exponent of runtime against length, log-log."""
        coeffs = np.polyfit(np.log(self.sizes), np.log(self.seconds), 1)
        return float(coeffs[0])


def _bench_feature(
    fn: Callable[[np.ndarray], float],
    rng: np.random.Generator,
    sizes: tuple[int, ...],
    repeats: int,
) -> tuple[float, ...]:
    batches = []
    inners = []
    for n in sizes:
        probe = rng.standard_normal(n)
        fn(probe)  # warm code paths before the calibration call
        start = time.perf_counter()
        fn(probe)
        once = max(time.perf_counter() - start, 1e-9)
        cap = max(4, _BATCH_BUDGET // n)
        count = max(1, min(cap, math.ceil(_TARGET_BLOCK_S / once)))
        batch = [probe] + [rng.standard_normal(n) for _ in range(count - 1)]
        for signal in batch:
            fn(signal)  # touch every page before any timed block
        batches.append(batch)
        inners.append(max(1, math.ceil(_TARGET_BLOCK_S / (once * count))))

    best = [math.inf] * len(sizes)
    for _ in range(repeats):
        for i, (batch, inner) in enumerate(zip(batches, inners)):
            start = time.perf_counter()
            for _ in range(inner):
                for signal in batch:
                    fn(signal)
            per_call = (time.perf_counter() - start) / (inner * len(batch))
            best[i] = min(best[i], per_call)
    return tuple(best)


def run_bench(
    suite: Mapping[str, Callable[[np.ndarray], float]],
    sizes: tuple[int, ...] = LINEAR_SIZES,
    seed: int = 0,
    repeats: int = 5,
) -> tuple[BenchResult, ...]:
    """Time every feature in ``suite`` on seeded Gaussian signals."""
    if not suite:
        raise ValueError("empty feature suite")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    results = []
    for name, fn in suite.items():
        rng = np.random.default_rng(seed)
        seconds = _bench_feature(fn, rng, tuple(int(n) for n in sizes), repeats)
        results.append(BenchResult(feature=name, sizes=tuple(sizes), seconds=seconds))
    return tuple(results)


def bench_csv(results: tuple[BenchResult, ...]) -> str:
    """Flat table: one row per (feature, length), slope repeated per feature."""
    lines = ["feature,n_samples,seconds,slope"]
    for result in results:
        for n, s in zip(result.sizes, result.seconds):
            lines.append(f"{result.feature},{n},{s:.9g},{result.slope:.4f}")
    return "\n".join(lines) + "\n"
