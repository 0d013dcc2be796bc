"""Byte identity across commits: rebuild the golden outputs and digest them.

The manifest ``golden_digests.txt`` and the commands behind it live in
``golden.py``; see its docstring for how to regenerate the manifest.
"""

import numpy as np

import golden


def test_outputs_match_the_golden_digests(tmp_path):
    version, recorded = golden.read_manifest(golden.MANIFEST.read_text())
    outputs = golden.build(tmp_path)
    assert sorted(outputs) == sorted(recorded), "golden outputs differ from the manifest"
    moved = []
    for name, path in outputs.items():
        sha, lines = recorded[name]
        data = path.read_bytes()
        if golden.digest(name, data)[0] != sha:
            moved.append(f"{name}: first change at {golden.first_difference(name, data, lines)}")
    assert not moved, (
        f"outputs moved (digests taken with numpy {version}, running {np.__version__}):\n"
        + "\n".join(moved)
    )
