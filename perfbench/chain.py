"""The CLI's extract -> CSV -> evaluate -> select chain, stage by stage.

Each stage calls the same public functions the ``eegfx`` commands call,
in the same order, so stage times are what a CLI user waits for minus
process start-up.  The table goes through one CSV write and read, as
it does between ``eegfx extract`` and ``eegfx evaluate``/``select``.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from eegfx.annotations import read_annotations
from eegfx.cfs import MeritTrace, forward_search
from eegfx.config import RunConfig
from eegfx.edf import read_edf
from eegfx.evaluation import SignificanceReport, feature_significance
from eegfx.feature_table import FeatureTable
from eegfx.pipeline import extract
from eegfx.signals import Record

from inputs import RecordInput

SELECT_K = 10
# A light stage is repeated until its calls add up to this many seconds
# and timed by its mean call: one call of a few milliseconds is too short
# to time against the noise of a shared host.
MIN_STAGE_S = 0.5


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Times named stages; with ``keep`` it also keeps every span.

    Spans are (name, start, end, parent) in memory, written out by the
    caller when the run ends.  Without ``keep`` a stage costs two clock
    reads and nothing is stored.
    """

    def __init__(self, keep: bool) -> None:
        self.keep = keep
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        span = Span(name, time.perf_counter(), parent)
        if self.keep:
            self._open.append(len(self.spans))
            self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            if self.keep:
                self._open.pop()

    def dump(self, origin: float) -> list[dict]:
        return [
            {"id": i, "name": s.name, "start_s": s.start - origin,
             "end_s": s.end - origin, "parent": s.parent}
            for i, s in enumerate(self.spans)
        ]


@dataclass
class Extracted:
    record: Record
    table: FeatureTable
    read_edf_s: float
    extract_s: float

    @property
    def epoch_channels(self) -> int:
        return len(self.table) * len(self.record.channels)


@dataclass
class ChainResult:
    """Outputs and stage seconds of one pass of the chain."""

    extracted: Extracted | None
    written: FeatureTable
    read: FeatureTable
    csv_bytes: int
    reports: list[SignificanceReport]
    skipped: list[str]
    trace: MeritTrace
    stages: dict[str, float]
    column_s: list[float]
    wall_s: float


def load_and_extract(src: RecordInput, config: RunConfig, tracer: Tracer) -> Extracted:
    """``eegfx extract``: EDF plus ``.ann`` sidecar in, feature table out."""
    with tracer.span("edf.read_edf") as read_span:
        record = read_edf(src.edf_path)
        record = dataclasses.replace(
            record, annotations=read_annotations(Path(f"{src.edf_path}.ann"))
        )
    with tracer.span("pipeline.extract") as extract_span:
        table = extract(record, config.replace(features=src.features))
    return Extracted(record, table, read_span.seconds, extract_span.seconds)


def _split_column(name: str) -> tuple[str, str]:
    if len(name) > 1 and name[-1] in ("L", "R"):
        return name[:-1], name[-1]
    return name, ""


def evaluate(table: FeatureTable, columns: tuple[str, ...], config: RunConfig,
             tracer: Tracer, column_s: list[float]):
    """``eegfx evaluate``: score finite columns, skip the rest, rank by rate."""
    reports, skipped = [], []
    for column in columns:
        if not np.all(np.isfinite(table.column(column))):
            skipped.append(column)
            continue
        feature, hemisphere = _split_column(column)
        with tracer.span(f"evaluation.column:{column}") as span:
            reports.append(feature_significance(
                table, feature, hemisphere,
                threshold=config.threshold, n_grid=config.kde_grid,
            ))
        column_s.append(span.seconds)
    if not reports:
        raise ValueError("no finite feature columns to evaluate")
    reports.sort(key=lambda r: r.rate, reverse=True)
    return reports, skipped


def select(table: FeatureTable, config: RunConfig) -> MeritTrace:
    """``eegfx select``: greedy CFS forward search, k=10."""
    return forward_search(table, max_size=min(SELECT_K, len(table.feature_names)),
                          n_bins=config.cfs_bins)


def run_chain(
    csv_path: Path,
    config: RunConfig,
    tracer: Tracer,
    stages: dict[str, float],
    record: RecordInput | None = None,
    table: FeatureTable | None = None,
    eval_columns: tuple[str, ...] | None = None,
) -> ChainResult:
    """One pass: [EDF -> extract ->] CSV write -> read -> evaluate -> select.

    Record workloads start from the EDF on disk; the table workload
    starts from a table in memory and has no extract stage.
    ``eval_columns`` of None evaluates every column, as the CLI does.
    Stage seconds go into ``stages`` as each stage ends, so a caller
    can tell how far a pass that raised got.
    """
    column_s: list[float] = []
    with tracer.span("chain") as chain_span:
        extracted = None
        if record is not None:
            extracted = load_and_extract(record, config, tracer)
            stages["read_edf"] = extracted.read_edf_s
            stages["extract"] = extracted.extract_s
            table = extracted.table
        with tracer.span("feature_table.write_csv") as span:
            table.write_csv(csv_path)
        stages["write_csv"] = span.seconds
        with tracer.span("feature_table.read_csv") as span:
            read = FeatureTable.read_csv(csv_path)
        stages["read_csv"] = span.seconds
        columns = read.feature_names if eval_columns is None else eval_columns
        with tracer.span("evaluation.evaluate") as span:
            reports, skipped = evaluate(read, columns, config, tracer, column_s)
        stages["evaluate"] = span.seconds
        with tracer.span("cfs.forward_search") as span:
            trace = select(read, config)
        stages["select"] = span.seconds
    return ChainResult(
        extracted=extracted,
        written=table,
        read=read,
        csv_bytes=csv_path.stat().st_size,
        reports=reports,
        skipped=skipped,
        trace=trace,
        stages=stages,
        column_s=column_s,
        wall_s=chain_span.seconds,
    )


def _mean_call_s(first_s: float, call) -> float:
    """Mean seconds per call, counting a first call that took ``first_s``."""
    total, calls = first_s, 1
    while total < MIN_STAGE_S:
        start = time.perf_counter()
        call()
        total += time.perf_counter() - start
        calls += 1
    return total / calls


def light_stage_means(result: ChainResult, csv_path: Path, config: RunConfig,
                      eval_columns: tuple[str, ...] | None) -> dict[str, float]:
    """Mean call seconds of the CSV round trip, evaluate and select.

    Repeats run after the pass on the same inputs, outside ``wall_s``.
    """
    read = result.read
    columns = read.feature_names if eval_columns is None else eval_columns
    quiet = Tracer(keep=False)

    def round_trip():
        result.written.write_csv(csv_path)
        FeatureTable.read_csv(csv_path)

    stages = result.stages
    return {
        "table_io": _mean_call_s(stages["write_csv"] + stages["read_csv"], round_trip),
        "evaluate": _mean_call_s(
            stages["evaluate"], lambda: evaluate(read, columns, config, quiet, [])),
        "select": _mean_call_s(stages["select"], lambda: select(read, config)),
    }
