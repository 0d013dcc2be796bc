"""Runtime-vs-length measurement for feature functions.

Each feature is timed over a ladder of signal lengths; the log-log
slope of runtime against length estimates the complexity exponent
(1 for linear scans, 2 for pairwise template matching).

Measurement guards against five artifacts of timing small numpy calls:
per-size batches of distinct signals keep every block streaming through
memory instead of replaying one cache-hot array; each round times the
floor and every size back to back in equally long blocks, and the slope
is fitted within each round, so a change of host speed that outlasts a
round scales every size alike and cancels; the reported slope is the
median over rounds, so a minority of rounds that a speed switch splits
cannot move it; and each feature's per-call floor -- its time on a
``FLOOR_SIZE``-sample signal -- is subtracted before each round's fit,
so the fixed cost of argument checks and numpy dispatch does not
flatten the slope; and one large block is allocated and freed before
any timing.  glibc serves a block above its mmap threshold (128 KiB at
start-up) with a fresh mapping and trims the heap after each call, so
until some larger block has been freed, every call whose temporaries
cross the threshold faults them in again: a step between two lengths,
not a cost per sample.  Freeing the large block lifts the threshold for
the process, as the first large array of any real run does.  A cost
that stays constant from the floor length upwards, such as thread
hand-off inside one large call, is not in the floor and still shows.
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
    "FLOOR_SIZE",
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

# Linear features need lengths where per-call work is well above the
# subtracted per-call floor (about 5-10 us against 20-200 us) but one
# batch still fits the measurement budget; quadratic ones take about
# 0.3-0.6 ms per call at 1024 and 1-2 ms at 2048, against their own
# per-call floor of about 0.1 ms.
LINEAR_SIZES = (16384, 32768, 65536)
QUADRATIC_SIZES = (1024, 2048, 4096)
# Length of the floor signal: a 4-sample Gaussian segment repeated, so
# template features always find matching pairs.  Its own work is under
# 0.1% of a linear feature's at 16384 and 1/64 of a quadratic one's at 128.
FLOOR_SIZE = 16

_TARGET_BLOCK_S = 3e-3
_ALLOCATOR_BLOCK = 2**21  # float64 elements: 16 MiB, under glibc's 32 MiB cap
_BATCH_BUDGET = 2_097_152  # elements of fresh signal per size


def _fit_slope(sizes, seconds, floor: float = 0.0) -> float:
    """Log-log slope of per-call time above ``floor`` against length.

    NaN when some timing is not above the floor: the sizes are then too
    small to measure the feature's work apart from its call cost.
    """
    net = np.subtract(seconds, floor)
    if np.any(net <= 0):
        return math.nan
    return float(np.polyfit(np.log(sizes), np.log(net), 1)[0])


@dataclass(frozen=True)
class BenchResult:
    """Per-round runtimes of one feature over increasing lengths.

    ``rounds[k]`` holds the seconds per call at each size in round k and
    ``floors[k]`` the seconds per call at ``FLOOR_SIZE`` in that round.
    """

    feature: str
    sizes: tuple[int, ...]
    rounds: tuple[tuple[float, ...], ...]
    floors: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        sizes = tuple(int(n) for n in self.sizes)
        rounds = tuple(tuple(float(s) for s in row) for row in self.rounds)
        floors = tuple(float(f) for f in self.floors) or (0.0,) * len(rounds)
        if not rounds:
            raise ValueError("need timings from >= 1 round")
        if len(floors) != len(rounds):
            raise ValueError(f"{len(floors)} floors for {len(rounds)} rounds")
        if any(len(row) != len(sizes) for row in rounds):
            raise ValueError(f"{len(sizes)} sizes for rounds of other lengths")
        if len(sizes) < 2:
            raise ValueError("need timings at >= 2 sizes to fit a slope")
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError(f"sizes must increase, got {sizes}")
        if any(s <= 0 for row in rounds for s in row):
            raise ValueError("timings must be positive")
        if not all(0 <= f < math.inf for f in floors):
            raise ValueError(f"floors must be finite and >= 0, got {floors}")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "rounds", rounds)
        object.__setattr__(self, "floors", floors)

    @property
    def seconds(self) -> tuple[float, ...]:
        """Best-of-rounds seconds per call at each size."""
        return tuple(min(column) for column in zip(*self.rounds))

    @property
    def floor(self) -> float:
        """Best-of-rounds seconds per call at ``FLOOR_SIZE``."""
        return min(self.floors)

    @property
    def slope(self) -> float:
        """Median over rounds of each round's floor-subtracted slope.

        NaN when in some round a timing is not above that round's floor.
        """
        return float(np.median([
            _fit_slope(self.sizes, row, floor)
            for row, floor in zip(self.rounds, self.floors)
        ]))


def _signal(rng: np.random.Generator, n: int) -> np.ndarray:
    if n == FLOOR_SIZE:
        return np.tile(rng.standard_normal(4), FLOOR_SIZE // 4)
    return rng.standard_normal(n)


def _bench_feature(
    fn: Callable[[np.ndarray], float],
    rng: np.random.Generator,
    sizes: tuple[int, ...],
    repeats: int,
) -> list[list[float]]:
    """Seconds per call in each round, at the floor length, then at ``sizes``."""
    batches = []
    sweeps = []
    for n in (FLOOR_SIZE, *sizes):
        probe = _signal(rng, n)
        fn(probe)  # warm code paths before the calibration call
        start = time.perf_counter()
        fn(probe)
        once = max(time.perf_counter() - start, 1e-9)
        cap = max(4, _BATCH_BUDGET // n)
        count = max(1, min(cap, math.ceil(_TARGET_BLOCK_S / once)))
        batch = [probe] + [_signal(rng, n) for _ in range(count - 1)]
        start = time.perf_counter()
        for signal in batch:
            fn(signal)  # touch every page before any timed block
        sweeps.append(max(time.perf_counter() - start, 1e-9))
        batches.append(batch)

    # Every block spans about the same wall time: the target, or one sweep
    # of the slowest batch.  Swings in host speed then average over equal
    # windows at every size, so no size is timed in a shorter window than
    # another.  Pass counts come from the sweeps, not the cache-hot probe,
    # so batches of equal bytes get equal counts and none carries a larger
    # share of cold first passes.
    block_s = max(_TARGET_BLOCK_S, *sweeps)
    inners = [max(1, round(block_s / sweep)) for sweep in sweeps]

    rounds = []
    for _ in range(repeats):
        row = []
        for batch, inner in zip(batches, inners):
            start = time.perf_counter()
            for _ in range(inner):
                for signal in batch:
                    fn(signal)
            row.append((time.perf_counter() - start) / (inner * len(batch)))
        rounds.append(row)
    return rounds


def run_bench(
    suite: Mapping[str, Callable[[np.ndarray], float]],
    sizes: tuple[int, ...] = LINEAR_SIZES,
    seed: int = 0,
    repeats: int = 5,
) -> tuple[BenchResult, ...]:
    """Time every feature in ``suite`` on seeded Gaussian signals.

    Every size must exceed ``FLOOR_SIZE``; the floor is timed alongside.
    """
    if not suite:
        raise ValueError("empty feature suite")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    sizes = tuple(int(n) for n in sizes)
    if min(sizes, default=0) <= FLOOR_SIZE:
        raise ValueError(f"sizes must exceed the floor length {FLOOR_SIZE}, got {sizes}")
    np.empty(_ALLOCATOR_BLOCK)  # freed at once: lifts the mmap threshold
    results = []
    for name, fn in suite.items():
        rng = np.random.default_rng(seed)
        rounds = _bench_feature(fn, rng, sizes, repeats)
        results.append(BenchResult(
            name, sizes, tuple(row[1:] for row in rounds), tuple(row[0] for row in rounds)
        ))
    return tuple(results)


def bench_csv(results: tuple[BenchResult, ...]) -> str:
    """Flat table: one row per (feature, length), slope repeated per feature."""
    lines = ["feature,n_samples,seconds,slope"]
    for result in results:
        for n, s in zip(result.sizes, result.seconds):
            lines.append(f"{result.feature},{n},{s:.9g},{result.slope:.4f}")
    return "\n".join(lines) + "\n"
