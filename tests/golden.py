"""Golden outputs: a fixed set of seeded CLI runs and their digests.

``build(root)`` writes every output under ``root`` through ``eegfx.cli``
and returns them by name.  ``tests/golden_digests.txt`` holds, per
output, the sha256 of its bytes and a 4-hex digest of each line (of
each 256-byte block for the EDF), so a changed output can be named with
its first changed line.  ``tests/test_golden.py`` rebuilds and compares.

A change that moves bytes on purpose regenerates the manifest with::

    PYTHONPATH=src python tests/golden.py

and says in CHANGES.md which outputs moved and why.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from eegfx.cli import main
from eegfx.edf import read_edf, write_edf
from eegfx.feature_table import FeatureTable
from eegfx.pipeline import FEATURE_CATALOG

MANIFEST = Path(__file__).with_name("golden_digests.txt")
_BLOCK_BYTES = 256  # EDF header and sample bytes are digested in blocks
MESSY_MONTAGE = {"left": ["FP1-F7", "F7-T7"], "right": ["FP2-F4", "F4-C4"]}


def _run(*argv) -> None:
    code = main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"eegfx {' '.join(map(str, argv))} exited {code}")


def _messy_record(source: Path, out: Path) -> None:
    """Four channels of ``source``: one flat, one saturated, one flat over 3-8 s."""
    record = read_edf(source)
    rows = [record.channels.index(c) for c in MESSY_MONTAGE["left"] + MESSY_MONTAGE["right"]]
    data = record.data[rows].copy()
    data[0] = 0.0
    rail = 0.2 * data[2].std()
    data[2] = np.clip(data[2], -rail, rail)
    data[3, int(3 * record.fs) : int(8 * record.fs)] = data[3, int(3 * record.fs)]
    channels = tuple(record.channels[i] for i in rows)
    write_edf(dataclasses.replace(record, channels=channels, data=data), out)
    Path(f"{out}.ann").write_text(Path(f"{source}.ann").read_text())


def _wide_table(path: Path, rows: int = 2048, columns: int = 152, seed: int = 23) -> Path:
    """A seeded table wide and long enough to span several blocks of the cfs kernels.

    Columns cycle through four shapes: smooth, lognormal, Poisson counts
    (many ties) and values rounded to 0.1 (ties and signed zeros); the
    last column is constant.  About one row in ten is a seizure epoch.
    """
    rng = np.random.default_rng(seed)
    labels = (rng.random(rows) < 0.1).astype(int)
    z = rng.standard_normal((rows, columns)) + 0.25 * (np.arange(columns) % 5) * labels[:, None]
    values = z.copy()
    values[:, 1::4] = np.exp(0.8 * z[:, 1::4])
    values[:, 2::4] = rng.poisson(np.exp(1.0 + 0.4 * z[:, 2::4]))
    values[:, 3::4] = np.round(0.3 * z[:, 3::4], 1)
    values[:, -1] = 4.0
    FeatureTable(
        records=("wide",) * rows,
        epoch_starts=np.arange(rows, dtype=float),
        labels=labels,
        feature_names=tuple(f"W{j:03d}" for j in range(columns)),
        values=values,
    ).write_csv(path)
    return path


def _write_config(path: Path, **fields) -> Path:
    path.write_text(json.dumps(fields))
    return path


def build(root: Path) -> dict[str, Path]:
    """Run every golden command under ``root``; outputs by name, in order."""
    root = Path(root)
    synth = root / "synth.edf"
    _run("synth", "--out", synth, "--duration", 12, "--seed", 5, "--seizures", "3-9")
    small = root / "small.edf"
    _run("synth", "--out", small, "--duration", 10, "--seed", 6, "--seizures", "3-8")
    four = root / "four.edf"
    _messy_record(small, four)

    tables = {
        "default": (synth, None),
        "d8": (synth, _write_config(root / "d8.json", wavelet="d8", width_s=2.0, stride_s=0.5)),
        "messy95": (four, _write_config(
            root / "messy95.json", features=sorted(FEATURE_CATALOG), montage=MESSY_MONTAGE)),
    }
    outputs = {"synth.edf": synth, "synth.edf.ann": Path(f"{synth}.ann")}
    for name, (edf, config) in tables.items():
        table = root / f"{name}.csv"
        args = ("--input", edf) + (("--config", config) if config else ())
        _run("extract", *args, "--out", table)
        outputs[f"extract/{name}.csv"] = table
        _run("evaluate", "--input", table, "--out", root / f"{name}.evaluate.csv")
        outputs[f"evaluate/{name}.csv"] = root / f"{name}.evaluate.csv"
        _run("select", "--input", table, "--out", root / f"{name}.select.csv")
        outputs[f"select/{name}.csv"] = root / f"{name}.select.csv"
        outputs[f"select/{name}.json"] = root / f"{name}.select.json"

    # select alone: more bins than the 9 rows of default.csv, and a table
    # whose ranks take several blocks
    bins37 = _write_config(root / "bins37.json", cfs_bins=37)
    selects = {
        "default_bins37": (root / "default.csv", ("--config", bins37)),
        "wide2048": (_wide_table(root / "wide2048.csv"), ()),
    }
    for name, (table, extra) in selects.items():
        _run("select", "--input", table, *extra, "--out", root / f"{name}.select.csv")
        outputs[f"select/{name}.csv"] = root / f"{name}.select.csv"
        outputs[f"select/{name}.json"] = root / f"{name}.select.json"

    # evaluate at 2048 rows: class densities of about 190 and 1860 samples
    wide = root / "wide2048.csv"
    _run("evaluate", "--input", wide, "--out", root / "wide2048.evaluate.csv")
    outputs["evaluate/wide2048.csv"] = root / "wide2048.evaluate.csv"
    return outputs


def _chunks(data: bytes, binary: bool) -> list[bytes]:
    if binary:
        return [data[i : i + _BLOCK_BYTES] for i in range(0, len(data), _BLOCK_BYTES)]
    return data.splitlines(keepends=True)


def digest(name: str, data: bytes) -> tuple[str, str]:
    """(sha256 of the bytes, 4-hex digest of each line or block, joined)."""
    parts = _chunks(data, name.endswith(".edf"))
    lines = "".join(hashlib.sha256(part).hexdigest()[:4] for part in parts)
    return hashlib.sha256(data).hexdigest(), lines


def manifest_text(outputs: dict[str, Path]) -> str:
    rows = [
        "# name sha256 line-digests; regenerate: PYTHONPATH=src python tests/golden.py",
        f"numpy {np.__version__}",
    ]
    for name, path in outputs.items():
        rows.append(" ".join((name, *digest(name, path.read_bytes()))))
    return "\n".join(rows) + "\n"


def read_manifest(text: str) -> tuple[str, dict[str, tuple[str, str]]]:
    """(numpy version, {name: (sha256, line digests)}) from a manifest."""
    rows = [row.split(" ") for row in text.splitlines() if not row.startswith("#")]
    version = rows[0][1]
    return version, {name: (sha, lines) for name, sha, lines in rows[1:]}


def first_difference(name: str, data: bytes, lines: str) -> str:
    """Where ``data`` first departs from the recorded line digests."""
    unit = "block" if name.endswith(".edf") else "line"
    _, got = digest(name, data)
    got_parts, want_parts = len(got) // 4, len(lines) // 4
    for i in range(min(got_parts, want_parts)):
        if got[4 * i : 4 * i + 4] != lines[4 * i : 4 * i + 4]:
            if unit == "block":
                return f"block {i + 1} (bytes {_BLOCK_BYTES * i}..{_BLOCK_BYTES * (i + 1) - 1})"
            text = data.splitlines()[i].decode("ascii", "replace")
            return f"line {i + 1}: {text[:120]}"
    return f"{unit} count {got_parts}, recorded {want_parts}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        text = manifest_text(build(Path(tmp)))
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else MANIFEST
    target.write_text(text)
    print(f"wrote {target}")
