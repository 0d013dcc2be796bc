"""eegfx pipeline benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload clinical_default --seed 1 --seconds 30 --trace 0

Runs the extract -> CSV -> evaluate -> select chain on seeded inputs
built from the library in ``src/``, checks the outputs and prints one
line per metric, then a final JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones and
writes the spans to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# Same BLAS thread count on every run, set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Printed with the end-to-end metrics but not in BENCHMARK.json: on the
# record workloads the round trip of a small table takes ~2 ms, and its
# run-to-run spread on a shared host exceeds any bound the gate allows.
PRINTED_ONLY = {"table_io.s": "s"}


def _use_checkout_library() -> None:
    """Import eegfx from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import eegfx

    if Path(eegfx.__file__).resolve().parent != (SRC / "eegfx").resolve():
        raise ImportError(f"eegfx resolved to {eegfx.__file__}, not {SRC}")


def _parser(workloads) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="how long the timed loop runs")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs, for the self-test; timings mean nothing")
    return p


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    try:
        _use_checkout_library()
        import runner
    except ImportError as exc:
        print(f"perfbench: cannot load eegfx from {SRC}: {exc}", file=sys.stderr)
        return 2
    args = _parser(runner.WORKLOADS).parse_args(argv)
    if not args.seconds > 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    result = runner.run(args.workload, args.seed, args.seconds, bool(args.trace),
                        args.tiny, OUT, BLAS_THREADS)
    suffix = "tiny-" if args.tiny else ""
    out_path = OUT / f"{suffix}{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=1) + "\n")

    print("host " + json.dumps(result["host"]))
    print(f"workload {args.workload} seed {args.seed} passes {result['passes']} "
          f"sizes {json.dumps(result['sizes'])}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {name: result["per_layer"][name] for name in units}
        for name, value in metrics.items():
            print(f"  {name} = {_fmt(value)} {units[name]}")
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {}
        for name, unit in {**units, **PRINTED_ONLY}.items():
            summary = result["summaries"][name]
            if name in units:
                metrics[name] = summary["median"]
            extra = "".join(f" {k} {_fmt(v)}" for k, v in summary.items()
                            if k not in ("median", "n"))
            print(f"  {name} = {_fmt(summary['median'])} {unit} "
                  f"(median of {summary['n']}{extra})")
        column = result["evaluate_column_s"]
        extra = "".join(f" {k} {_fmt(v)} s" for k, v in column.items()
                        if k not in ("median", "n"))
        print(f"  evaluate per column: median {_fmt(column['median'])} s{extra} "
              f"(n={column['n']})")
    ops = result["ops"]
    print(f"  ops_failed_frac = {ops['failed'] / ops['attempted']:.6g} "
          f"({ops['failed']} of {ops['attempted']} stages and checks)")
    for failure in ops["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"wrote {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": ops["failed"] == 0,
        "attempted": ops["attempted"],
        "failed": ops["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
