"""The benchmark's own output checks pass on this checkout.

A tiny traced perfbench run compares sampled extract cells with the 1-D
public functions (to 1e-12 relative, counts exactly), checks that
``threads=2`` gives the same table as ``threads=1``, and checks err_b
against perfbench's own direct-sum KDE (to 1e-4), CFS merit and the CSV
round trip.  The benchmark's self-test checks only the shape of its
output; these tests require every check to pass, on a record workload
and on the generated-table workload.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tiny_traced_run(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "1", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0, proc.stdout


def test_tiny_traced_clinical_run_fails_no_check():
    _tiny_traced_run("clinical_default")


def test_tiny_traced_table_run_fails_no_check():
    _tiny_traced_run("paper_ratio_rank")
