"""One benchmark run: set up, measure, check, summarise.

A timed run repeats the chain closed loop, one pass after another in
one process with ``threads=1``, for the requested seconds and reports
medians over passes.  A traced run alternates untraced and traced
passes, then times each layer from outside; its spans go to a JSON file.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy
from eegfx.config import RunConfig

import checks
import layers
from chain import (ChainResult, Extracted, Tracer, light_stage_means, load_and_extract,
                   run_chain)
from inputs import NO_TEMPLATE, WORKLOADS, RecordInput, TableInput, make_record, make_table

SETUP_REPEATS = 3
TRACE_PAIRS = 2
WARM_RECORD_S = 8.0
ORACLE_COLUMNS = {"record": 4, "table": 2}


@dataclass
class Inputs:
    record: RecordInput | None = None  # the chain's input, record workloads
    side: RecordInput | None = None  # feeds extract metrics, table workload
    table: TableInput | None = None

    @property
    def extract_source(self) -> RecordInput:
        return self.record or self.side


@dataclass
class Pass:
    """One pass of the chain, plus the extract that fed the metrics."""

    result: ChainResult
    extracted: Extracted
    light: dict[str, float]  # mean call seconds of the light stages
    seconds: float


@dataclass
class Ops:
    """Chain stages and checks attempted, and the ones that failed."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, items) -> None:
        try:
            for name, ok, detail in items:
                self.attempted += 1
                if not ok:
                    self.failed += 1
                    self.failures.append(f"{name}: {detail}")
        except Exception:
            self.attempted += 1
            self.failed += 1
            self.failures.append(traceback.format_exc())


def host_facts(seed: int, blas_threads: str) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas_info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_info.get('name')} {blas_info.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cores": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "workload_seed": seed,
    }


def _make_inputs(workload, seed: int, tiny: bool, work: Path) -> Inputs:
    duration = workload.tiny_record_s if tiny else workload.record_s
    source = make_record(work / "input.edf", duration, workload.features, seed)
    if not workload.has_table:
        return Inputs(record=source)
    rows = workload.tiny_table_rows if tiny else workload.table_rows
    return Inputs(side=source, table=make_table(rows, seed))


def _warm_up(config: RunConfig, work: Path, seed: int) -> None:
    """Run every stage once on a small record, so first-call costs are paid."""
    warm = make_record(work / "warm.edf", WARM_RECORD_S, NO_TEMPLATE, seed)
    run_chain(work / "warm.csv", config, Tracer(keep=False), {}, record=warm)


def _one_pass(inputs: Inputs, config: RunConfig, tracer: Tracer, work: Path,
              stages: dict[str, float]) -> Pass:
    start = time.perf_counter()
    csv_path = work / "table.csv"
    eval_columns = None
    if inputs.record is not None:
        result = run_chain(csv_path, config, tracer, stages, record=inputs.record)
        extracted = result.extracted
    else:
        with tracer.span("side_record"):
            extracted = load_and_extract(inputs.side, config, tracer)
        stages["side_extract"] = extracted.read_edf_s + extracted.extract_s
        eval_columns = inputs.table.eval_columns
        result = run_chain(csv_path, config, tracer, stages,
                           table=inputs.table.table, eval_columns=eval_columns)
    light = light_stage_means(result, csv_path, config, eval_columns)
    return Pass(result, extracted, light, time.perf_counter() - start)


def _attempt(passes: list[Pass], ops: Ops, inputs: Inputs, config: RunConfig,
             tracer: Tracer, work: Path) -> bool:
    """Run one pass; a stage that raises counts as one failed operation.

    Every pass starts from a collected heap, so a full collection left
    over from the previous pass does not land in this one's timings.
    """
    gc.collect()
    stages: dict[str, float] = {}
    try:
        passes.append(_one_pass(inputs, config, tracer, work, stages))
    except Exception:
        ops.attempted += len(stages) + 1
        ops.failed += 1
        ops.failures.append(traceback.format_exc())
        return False
    ops.attempted += len(stages)
    return True


def _pass_metrics(p: Pass, duration_s: float) -> dict[str, float]:
    extract_s = p.extracted.extract_s
    return {
        "wall_s": p.result.wall_s,
        "extract.realtime_x": duration_s / extract_s,
        "extract.ms_per_epoch_channel": 1e3 * extract_s / p.extracted.epoch_channels,
        "table_io.s": p.light["table_io"],
        "evaluate.s_per_column": p.light["evaluate"] / len(p.result.column_s),
        "select.s": p.light["select"],
    }


def _peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


def summarise(values: list[float]) -> dict:
    """Median, plus the highest whole percentile with >= 10 samples above it."""
    n = len(values)
    out = {"median": statistics.median(values), "n": n}
    if n > 20:
        p = math.floor(100.0 * (n - 10) / n)
        out[f"p{p}"] = float(np.percentile(values, p))
    return out


def run(workload_name: str, seed: int, seconds: float, trace: bool, tiny: bool,
        out_dir: Path, blas_threads: str) -> dict:
    workload = WORKLOADS[workload_name]
    config = RunConfig()
    ops = Ops()
    rng = np.random.default_rng([seed, 1])
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir, prefix="work-") as tmp:
        work = Path(tmp)
        setup_s = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            inputs = _make_inputs(workload, seed, tiny, work)
            _warm_up(config, work, seed)
            setup_s.append(time.perf_counter() - start)

        passes: list[Pass] = []
        tracer = Tracer(keep=trace)
        origin = time.perf_counter()
        if trace:
            # Untraced and traced passes alternate on the same inputs.
            for pass_tracer in (Tracer(keep=False), tracer) * TRACE_PAIRS:
                if not _attempt(passes, ops, inputs, config, pass_tracer, work):
                    break
        else:
            while _attempt(passes, ops, inputs, config, tracer, work):
                if time.perf_counter() - origin + passes[-1].seconds > seconds:
                    break
        if not passes or (trace and len(passes) < 2 * TRACE_PAIRS):
            raise RuntimeError("the chain failed:\n" + "\n".join(ops.failures))
        peak_rss = _peak_rss_mb()

        first = passes[0]
        layer_metrics: dict[str, float] = {}
        if trace:
            untraced, traced = passes[0::2], passes[1::2]
            with tracer.span("layers"):
                layer_metrics, (threads1, threads2) = layers.record_layers(
                    inputs.extract_source, first.extracted, config, tracer, rng)
                evaluated = (inputs.table.eval_columns if inputs.table
                             else first.result.read.feature_names)
                layer_metrics.update(layers.table_layers(
                    traced[-1].result, evaluated, config, tracer, rng))
            layer_metrics["trace.overhead_frac"] = (
                sum(p.result.wall_s for p in traced)
                / sum(p.result.wall_s for p in untraced) - 1.0)
            ops.check(checks.same_table(threads1, threads2, "threads2"))

        kind = "record" if inputs.record is not None else "table"
        ops.check(checks.extract_cells(first.extracted, inputs.extract_source.features,
                                       config, rng))
        ops.check(checks.err_b_oracle(first.result, config, ORACLE_COLUMNS[kind], rng))
        if kind == "record":
            ops.check(checks.energy_significant(first.result))
        ops.check(checks.best_merit(first.result, config))
        ops.check(checks.csv_round_trip(first.result))
        for i, later in enumerate(passes[1:], start=2):
            ops.check(checks.same_outputs(first.result, later.result, f"pass{i}"))

    duration = inputs.extract_source.duration_s
    per_pass = [_pass_metrics(p, duration) for p in passes]
    summaries = {
        name: summarise([m[name] for m in per_pass]) for name in per_pass[0]
    }
    summaries["setup_s"] = summarise(setup_s)
    summaries["peak_rss_mb"] = {"median": peak_rss, "n": 1}
    column_s = [s for p in passes for s in p.result.column_s]
    result = {
        "workload": workload_name,
        "trace": trace,
        "host": host_facts(seed, blas_threads),
        "passes": len(passes),
        "sizes": {
            "record_s": duration,
            "epochs": len(first.extracted.table),
            "channels": len(first.extracted.record.channels),
            "table_rows": len(first.result.read),
            "evaluated_columns": len(first.result.column_s),
        },
        "summaries": summaries,
        "per_pass": per_pass,
        "setup_s": setup_s,
        "evaluate_column_s": summarise(column_s),
        "ops": {"attempted": ops.attempted, "failed": ops.failed,
                "failures": ops.failures},
    }
    if trace:
        result["per_layer"] = layer_metrics
        result["spans"] = tracer.dump(origin)
    return result
