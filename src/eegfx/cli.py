"""Command line: extract | evaluate | select | synth | bench.

Every command exits 0 on success and 1 with a diagnostic on stderr on
failure, removing any partially written outputs.  Options shared with
the config file (``--config``) override its values.  ``evaluate`` and
``select`` are one library call each (``rank_features``,
``select_features``), which own the skip and ranking rules; the commands
print each skipped column's reason on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from .annotations import read_annotations, write_annotations
from .bench import (
    LINEAR_SIZES,
    LINEAR_SUITE,
    QUADRATIC_SIZES,
    QUADRATIC_SUITE,
    bench_csv,
    run_bench,
)
from .cfs import select_features
from .config import RunConfig
from .edf import read_edf, write_edf
from .evaluation import err0, rank_features, significance_csv
from .feature_table import FeatureTable
from .pipeline import extract
from .synth import SynthSpec, synth_record

__all__ = ["main"]


def _load_config(args) -> RunConfig:
    config = RunConfig.load(args.config) if args.config else RunConfig()
    overrides = {
        "features": getattr(args, "features", None),
        "wavelet": getattr(args, "wavelet", None),
        "width_s": getattr(args, "width", None),
        "stride_s": getattr(args, "stride", None),
        "threads": getattr(args, "threads", None),
    }
    if overrides["features"] is not None:
        overrides["features"] = tuple(
            name.strip() for name in overrides["features"].split(",") if name.strip()
        )
    return config.replace(**overrides)


def _write_text(path: Path, text: str, created: list[Path]) -> None:
    created.append(path)
    path.write_text(text, encoding="ascii", newline="")


def cmd_extract(args, created: list[Path]) -> None:
    config = _load_config(args)
    record = read_edf(args.input)
    sidecar = Path(str(args.input) + ".ann")
    if sidecar.exists():
        record = dataclasses.replace(
            record, annotations=read_annotations(sidecar)
        )
    table = extract(record, config)
    out = Path(args.out)
    created.append(out)
    table.write_csv(out)
    print(
        f"wrote {out}: {len(table.records)} epochs x "
        f"{len(table.feature_names)} feature columns, "
        f"{int(table.labels.sum())} seizure"
    )


def cmd_evaluate(args, created: list[Path]) -> None:
    config = _load_config(args)
    table = FeatureTable.read_csv(args.input)
    reports, skipped = rank_features(table, config.threshold, config.kde_grid)
    print(f"err_0 = {err0(*table.class_counts()):.4f}")
    for reason in skipped.values():
        print(f"skipping {reason}", file=sys.stderr)
    if not reports:
        raise ValueError("no feature column could be scored")
    _write_text(Path(args.out), significance_csv(reports), created)
    significant = sum(1 for r in reports if r.significant)
    print(
        f"wrote {args.out}: {len(reports)} columns, "
        f"{significant} significant above {config.threshold}%"
    )


def cmd_select(args, created: list[Path]) -> None:
    config = _load_config(args)
    table = FeatureTable.read_csv(args.input)
    trace, skipped = select_features(table, config.cfs_max_size, config.cfs_bins)
    for reason in skipped.values():
        print(f"skipping {reason}", file=sys.stderr)
    out = Path(args.out)
    _write_text(out, trace.to_csv(), created)
    best_path = out.with_suffix(".json")
    if best_path == out:
        best_path = out.with_name(out.name + ".best.json")
    summary = trace.summary()
    _write_text(best_path, json.dumps(summary, indent=2) + "\n", created)
    print(
        f"wrote {out} and {best_path}: best subset has "
        f"{summary['best_size']} feature(s), merit {summary['best_merit']:.6g}"
    )


def _parse_intervals(text: str) -> tuple[tuple[float, float], ...]:
    intervals = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split("-")
        if len(parts) != 2:
            raise ValueError(
                f"seizure interval {chunk!r} is not of the form start-end"
            )
        intervals.append((float(parts[0]), float(parts[1])))
    return tuple(intervals)


def cmd_synth(args, created: list[Path]) -> None:
    if args.seizures is None:
        intervals = ((0.3 * args.duration, 0.4 * args.duration),)
    else:
        intervals = _parse_intervals(args.seizures)
    out = Path(args.out)
    spec = SynthSpec(
        duration_s=args.duration,
        seizure_intervals=intervals,
        seizure_gain=args.gain,
        seed=args.seed,
        name=out.stem,
    )
    record = synth_record(spec)
    created.append(out)
    write_edf(record, out)
    sidecar = Path(str(out) + ".ann")
    created.append(sidecar)
    write_annotations(record.annotations, sidecar)
    print(
        f"wrote {out} and {sidecar}: {record.duration:g} s x "
        f"{len(record.channels)} channels, {len(record.annotations)} seizure(s)"
    )


def cmd_bench(args, created: list[Path]) -> None:
    suites = [(LINEAR_SUITE, LINEAR_SIZES), (QUADRATIC_SUITE, QUADRATIC_SIZES)]
    if args.features is not None:
        wanted = {name.strip() for name in args.features.split(",") if name.strip()}
        available = set(LINEAR_SUITE) | set(QUADRATIC_SUITE)
        unknown = sorted(wanted - available)
        if unknown:
            raise ValueError(
                f"unknown bench features {unknown}, have {sorted(available)}"
            )
        suites = [
            ({k: v for k, v in suite.items() if k in wanted}, sizes)
            for suite, sizes in suites
        ]
    results = ()
    for suite, sizes in suites:
        if suite:
            results += run_bench(suite, sizes, seed=args.seed)
    for result in results:
        times = "  ".join(
            f"{n}:{s * 1e3:.3f}ms" for n, s in zip(result.sizes, result.seconds)
        )
        print(f"{result.feature:<12} slope {result.slope:.2f}  "
              f"floor {result.floor * 1e3:.3f}ms  {times}")
    if args.out:
        _write_text(Path(args.out), bench_csv(results), created)
        print(f"wrote {args.out}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eegfx",
        description="EEG seizure-feature extraction, evaluation, and selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", help="JSON run-config file")

    p = sub.add_parser("extract", help="EDF record -> feature-table CSV")
    add_config(p)
    p.add_argument("--input", required=True, help="EDF file; seizure intervals "
                   "are read from <input>.ann when that file exists")
    p.add_argument("--out", required=True, help="feature-table CSV to write")
    p.add_argument("--features", help="comma-separated base feature names")
    p.add_argument("--wavelet", help="wavelet id (d4, d8)")
    p.add_argument("--width", type=float, help="epoch width, seconds")
    p.add_argument("--stride", type=float, help="epoch stride, seconds")
    p.add_argument("--threads", type=int,
                   help="worker threads over blocks of epoch-channel rows")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("evaluate", help="feature table -> significance CSV")
    add_config(p)
    p.add_argument("--input", required=True, help="feature-table CSV")
    p.add_argument("--out", required=True, help="significance CSV to write")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("select", help="feature table -> CFS subset")
    add_config(p)
    p.add_argument("--input", required=True, help="feature-table CSV")
    p.add_argument("--out", required=True,
                   help="merit-trace CSV; best subset goes to <out>.json")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("synth", help="generate a synthetic EDF + annotations")
    p.add_argument("--out", required=True, help="EDF file to write; intervals "
                   "go to <out>.ann")
    p.add_argument("--seed", type=int, default=0, help="noise seed")
    p.add_argument("--duration", type=float, default=600.0, help="seconds")
    p.add_argument("--gain", type=float, default=4.0,
                   help="seizure/background RMS ratio, >= 1")
    p.add_argument("--seizures",
                   help="comma-separated start-end pairs in seconds, for "
                        "example '60-120,300-330'; empty for none; default "
                        "one seizure over 30-40%% of the record")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("bench", help="runtime scaling of feature functions")
    p.add_argument("--out", help="CSV to write (prints a table regardless)")
    p.add_argument("--seed", type=int, default=0, help="signal seed")
    p.add_argument("--features", help="comma-separated subset of the suites")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(format="%(levelname)s: %(message)s")
    created: list[Path] = []
    try:
        args.func(args, created)
        return 0
    except Exception as exc:
        for path in created:
            path.unlink(missing_ok=True)
        print(f"eegfx {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
