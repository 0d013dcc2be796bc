"""Benchmark harness: slope math, suite plumbing, CSV output."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eegfx
from eegfx.bench import (
    FLOOR_SIZE,
    BenchResult,
    LINEAR_SUITE,
    QUADRATIC_SUITE,
    bench_csv,
    run_bench,
)


class TestSlopeMath:
    def test_doubling_time_with_size_is_slope_one(self):
        r = BenchResult("f", (1000, 2000, 4000), ((1e-3, 2e-3, 4e-3),))
        assert r.slope == pytest.approx(1.0, abs=1e-12)

    def test_quadrupling_time_is_slope_two(self):
        r = BenchResult("f", (1000, 2000, 4000), ((1e-3, 4e-3, 16e-3),))
        assert r.slope == pytest.approx(2.0, abs=1e-12)

    def test_constant_time_is_slope_zero(self):
        r = BenchResult("f", (1000, 2000), ((5e-3, 5e-3),))
        assert r.slope == pytest.approx(0.0, abs=1e-12)

    def test_floor_is_subtracted_before_the_fit(self):
        # 1 ms of work doubling with size on top of a 5 ms constant cost
        r = BenchResult("f", (1000, 2000, 4000), ((6e-3, 7e-3, 9e-3),), (5e-3,))
        assert r.slope == pytest.approx(1.0, abs=1e-12)
        assert r.seconds == (6e-3, 7e-3, 9e-3)

    def test_timing_not_above_floor_gives_nan_slope(self):
        r = BenchResult("f", (1000, 2000), ((1e-3, 2e-3),), (1e-3,))
        assert math.isnan(r.slope)

    def test_validation(self):
        with pytest.raises(ValueError, match="floor"):
            BenchResult("f", (1000, 2000), ((1e-3, 2e-3),), (-1e-6,))
        with pytest.raises(ValueError, match="increase"):
            BenchResult("f", (2000, 1000), ((1e-3, 2e-3),))
        with pytest.raises(ValueError, match="sizes for"):
            BenchResult("f", (1000, 2000), ((1e-3,),))
        with pytest.raises(ValueError, match=">= 2 sizes"):
            BenchResult("f", (1000,), ((1e-3,),))
        with pytest.raises(ValueError, match="positive"):
            BenchResult("f", (1000, 2000), ((1e-3, 0.0),))
        with pytest.raises(ValueError, match=">= 1 round"):
            BenchResult("f", (1000, 2000), ())
        with pytest.raises(ValueError, match="floors for"):
            BenchResult("f", (1000, 2000), ((1e-3, 2e-3),), (0.0, 0.0))

    def test_slope_is_fitted_within_each_round(self):
        # the host runs 1.6x slower in the second round, floor included
        fast = (1.1e-3, 2.1e-3, 4.1e-3)
        slow = tuple(1.6 * t for t in fast)
        r = BenchResult("f", (1000, 2000, 4000), (fast, slow), (1e-4, 1.6e-4))
        assert r.slope == pytest.approx(1.0, abs=1e-9)

    def test_slope_is_the_median_over_rounds(self):
        # A speed switch splits the first round: only its smallest size ran
        # at the fast level.  The best-of-rounds times mix the two levels
        # and read 1.34; the median of the per-round slopes reads 1.
        slow = (1.6e-3, 3.2e-3, 6.4e-3)
        split = (1e-3, 3.2e-3, 6.4e-3)
        r = BenchResult("f", (1000, 2000, 4000), (split, slow, slow))
        assert r.slope == pytest.approx(1.0, abs=1e-12)
        best = BenchResult("f", r.sizes, (r.seconds,))
        assert best.slope > 1.3

    def test_seconds_and_floor_are_best_of_rounds(self):
        r = BenchResult("f", (1000, 2000), ((3e-3, 2e-3), (1e-3, 4e-3)), (2e-4, 1e-4))
        assert r.seconds == (1e-3, 2e-3)
        assert r.floor == 1e-4


class TestRunBench:
    def test_measures_every_suite_entry(self):
        results = run_bench(
            {"sum": np.sum, "ptp": np.ptp}, sizes=(256, 512), repeats=2
        )
        assert tuple(r.feature for r in results) == ("sum", "ptp")
        assert all(r.sizes == (256, 512) for r in results)
        assert all(s > 0 for r in results for s in r.seconds)
        assert all(r.floor > 0 for r in results)
        assert all(len(r.rounds) == len(r.floors) == 2 for r in results)

    def test_floor_is_timed_at_floor_size(self):
        calls = []
        run_bench({"len": lambda x: calls.append(x.size)}, sizes=(256, 512), repeats=1)
        assert set(calls) == {FLOOR_SIZE, 256, 512}

    def test_sizes_must_exceed_floor(self):
        with pytest.raises(ValueError, match="floor"):
            run_bench({"sum": np.sum}, sizes=(FLOOR_SIZE, 512))

    def test_line_length_scales_linearly(self):
        results = run_bench(
            {"LineLength": LINEAR_SUITE["LineLength"]},
            sizes=(16384, 65536, 262144),
            repeats=3,
        )
        assert 0.6 < results[0].slope < 1.5

    def test_template_entropy_scales_quadratically(self):
        results = run_bench(
            {"SampEn": QUADRATIC_SUITE["SampEn"]}, sizes=(512, 1024, 2048), repeats=2
        )
        assert 1.5 < results[0].slope < 2.5

    def test_fresh_process_times_the_feature_not_the_allocator(self):
        # NE's temporaries cross glibc's start-up mmap threshold between
        # 16384 and 32768 samples; in a process that has freed no large
        # block, that step alone read slopes near 1.9
        code = (
            "from eegfx.bench import LINEAR_SUITE, run_bench; "
            "print(run_bench({'NE': LINEAR_SUITE['NE']})[0].slope)"
        )
        path = [str(Path(eegfx.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        )
        assert proc.returncode == 0, proc.stderr
        assert 0.6 < float(proc.stdout) < 1.5

    def test_empty_suite_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            run_bench({}, sizes=(256, 512))

    def test_bad_repeats_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            run_bench({"sum": np.sum}, sizes=(256, 512), repeats=0)


class TestCsv:
    def test_layout(self):
        results = (BenchResult("f", (1000, 2000), ((1e-3, 2e-3),)),)
        text = bench_csv(results)
        lines = text.splitlines()
        assert lines[0] == "feature,n_samples,seconds,slope"
        assert lines[1] == "f,1000,0.001,1.0000"
        assert lines[2] == "f,2000,0.002,1.0000"
        assert text.endswith("\n")
