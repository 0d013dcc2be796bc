"""Acceptance gate: one test per contract-level guarantee.

Each test prints a single PASS/FAIL line (written through pytest's
capture so the gate is readable in any run log) and then asserts, so a
red line always comes with a red test.  Tolerances and runtime budgets
are part of the guarantees; oracle values come from closed forms or
from the naive reference implementations in ``oracles.py``.
"""

import itertools
import math
import sys
import time

import numpy as np
import pytest

import oracles
from eegfx.bench import LINEAR_SIZES, LINEAR_SUITE, run_bench
from eegfx.cfs import discretize, forward_search, merit, symmetric_correlation
from eegfx.config import RunConfig
from eegfx.evaluation import bayes_error, err0, feature_significance, fit_kde
from eegfx.feature_table import FeatureTable
from eegfx.pipeline import extract
from eegfx.signals import Montage
from eegfx.synth import SynthSpec, synth_record
from eegfx.time_features import (
    approximate_entropy,
    dfa,
    distribution_entropy,
    energy,
    fuzzy_entropy,
    higuchi_fd,
    hurst_exponent,
    permutation_entropy,
    sample_entropy,
    weighted_permutation_entropy,
)
from eegfx.wavelets import WAVELETS, dwt, idwt


def normal_cdf(x: float) -> float:
    """The standard normal CDF, Phi(x)."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", file=sys.__stdout__)
    assert ok, f"{name}: {detail}"


def test_entropy_suite_matches_naive_oracles():
    rng = np.random.default_rng(42)
    # The budget times the library calls alone; the pure-Python oracles
    # measure the host's interpreter, not the code under test.  It is the
    # former 60 s whole-suite budget less the 32.4 s that the whole suite
    # took in the last passing run log (recorded in the CHANGES.md entry
    # "Tier-1 repair"), so the library is held at least as tightly as that
    # gate held it there.
    budget_s = 27.6
    tol = 1e-12
    library_s = 0.0

    def library(fn, *args):
        nonlocal library_s
        begin = time.perf_counter()
        try:
            return fn(*args)
        finally:
            library_s += time.perf_counter() - begin

    start = time.perf_counter()

    worst = {name: 0.0 for name in ("ApEn", "SampEn", "FuzzEn", "DistEn", "PE", "WPE")}
    # 200 signals, mostly short with a long tail up to the 512-sample cap,
    # so the untimed O(N^2) reference loops run in minutes, not hours.
    sizes = np.concatenate([rng.integers(64, 257, 170), rng.integers(257, 513, 30)])
    rng.shuffle(sizes)
    for n in sizes:
        x = rng.standard_normal(int(n))
        xs = x.tolist()
        m = int(rng.integers(1, 4))
        m_win = int(rng.integers(2, 5))
        m_pe = int(rng.integers(3, 6))
        r = float(rng.choice((0.15, 0.2, 0.25))) * float(np.std(x, ddof=1))
        n_bins = int(rng.choice((64, 128, 256)))

        worst["ApEn"] = max(
            worst["ApEn"],
            abs(library(approximate_entropy, x, m, r) - oracles.naive_apen(xs, m, r)),
        )
        try:
            want = oracles.naive_sampen(xs, m, r)
        except ValueError:
            with pytest.raises(ValueError):
                library(sample_entropy, x, m, r)
        else:
            worst["SampEn"] = max(
                worst["SampEn"], abs(library(sample_entropy, x, m, r) - want)
            )
        worst["FuzzEn"] = max(
            worst["FuzzEn"],
            abs(library(fuzzy_entropy, x, m_win, r) - oracles.naive_fuzzen(xs, m_win, r)),
        )
        worst["DistEn"] = max(
            worst["DistEn"],
            abs(
                library(distribution_entropy, x, m_win, n_bins)
                - oracles.naive_disten(xs, m_win, n_bins)
            ),
        )
        worst["PE"] = max(
            worst["PE"],
            abs(library(permutation_entropy, x, m_pe) - oracles.naive_pe(xs, m_pe)),
        )
        worst["WPE"] = max(
            worst["WPE"],
            abs(library(weighted_permutation_entropy, x, m_pe) - oracles.naive_wpe(xs, m_pe)),
        )

    elapsed = time.perf_counter() - start
    deviations = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    report(
        "entropy oracle suite",
        max(worst.values()) <= tol and library_s <= budget_s,
        f"max |library - naive| over 200 signals: {deviations} "
        f"(tol {tol:g}), library {library_s:.2f} s (budget {budget_s:g} s), "
        f"oracles and loop {elapsed - library_s:.1f} s",
    )


def test_baseline_error_arithmetic():
    value = err0(4677, 263424)
    report(
        "baseline error arithmetic",
        round(value, 4) == 0.0174,
        f"err0(4677, 263424) = {value:.6f}, rounds to {round(value, 4)}",
    )


def test_bayes_error_against_gaussian_closed_form():
    budget_s = 10.0
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    a = rng.normal(-1.0, 1.0, 20000)
    b = rng.normal(+1.0, 1.0, 20000)
    err_b = bayes_error(fit_kde((a, b)))
    elapsed = time.perf_counter() - start
    # equal priors, unit variances at +-1: optimal boundary at 0
    oracle = normal_cdf(-1.0)
    report(
        "KDE Bayes error vs closed form",
        abs(err_b - oracle) <= 0.01 and elapsed < budget_s,
        f"err_b = {err_b:.5f} vs {oracle:.5f} (tol 0.01), "
        f"{elapsed:.1f} s (budget {budget_s:g} s)",
    )


# column shapes of the generated paper-scale table: (rng, n, shift) -> values
_PAPER_FAMILIES = (
    lambda rng, n, shift: rng.standard_normal(n) + shift,
    lambda rng, n, shift: rng.lognormal(shift, 1.5, n),
    lambda rng, n, shift: rng.standard_t(2, n) + shift,
    lambda rng, n, shift: rng.poisson(4.0 + 2.0 * shift, n).astype(float),
    lambda rng, n, shift: 1.0 / (1.0 + np.exp(-(2.0 * rng.standard_normal(n) + shift))),
)


def _paper_column(k, n_seizure, n_normal):
    """Column k of a generated 152-column table, as (seizure, normal) values."""
    rng = np.random.default_rng(1000 + k)
    draw = _PAPER_FAMILIES[k % len(_PAPER_FAMILIES)]
    return draw(rng, n_seizure, 0.25 * (k % 13)), draw(rng, n_normal, 0.0)


def test_evaluate_at_the_papers_epoch_counts():
    # 152 columns at 4677 seizure + 263,424 normal epochs, generated and
    # scored one at a time (2.1 MB each, never the 326 MB table).  The
    # budget times the library calls alone.  The direct sum took 20-35 s
    # per column at these counts on a 2-core host, so it needs about an
    # hour for the 152 columns and cannot meet it.
    budget_s = 30.0
    n_seizure, n_normal, n_columns = 4677, 263424, 152
    err_0 = err0(n_seizure, n_normal)
    library_s = 0.0
    errors = []
    for k in range(n_columns):
        seizure, normal = _paper_column(k, n_seizure, n_normal)
        start = time.perf_counter()
        errors.append(bayes_error(fit_kde((seizure, normal))))
        library_s += time.perf_counter() - start
    worst_excess = max(errors) - err_0

    # a unit Gaussian shifted by 3: the Bayes boundary sits where the
    # prior-weighted densities cross.  The sampling SD of err_b at these
    # counts is about 1.6e-4 and smoothing by h adds a 9e-5 bias, so the
    # tolerance is 3 SD plus that bias.
    gauss_tol = 6e-4
    mu = 3.0
    seizure, normal = np.random.default_rng(7).standard_normal((2, n_normal))
    seizure = seizure[:n_seizure] + mu
    prior = n_seizure / (n_seizure + n_normal)
    cut = mu / 2.0 + math.log((1.0 - prior) / prior) / mu
    closed = prior * normal_cdf(cut - mu) + (1.0 - prior) * normal_cdf(-cut)
    gauss = bayes_error(fit_kde((seizure, normal)))

    lognormal = _paper_column(1, n_seizure, n_normal)
    model = fit_kde(lognormal)
    binned = bayes_error(model)
    direct = oracles.direct_bayes_error(model)
    report(
        "evaluate at the paper's epoch counts",
        err_0 == 4677 / 268101
        and round(err_0, 4) == 0.0174
        and library_s <= budget_s
        and worst_excess <= 1e-3
        and abs(gauss - closed) <= gauss_tol
        and abs(binned - direct) <= 1e-4,
        f"{n_columns} columns in {library_s:.2f} s (budget {budget_s:g} s), "
        f"err_0 = {err_0:.6f}, max err_b - err_0 = {worst_excess:.2e} (want <= 1e-3); "
        f"Gaussian shift {mu:g}: err_b = {gauss:.6f} vs closed form {closed:.6f} "
        f"(tol {gauss_tol:g}); log-normal: binned {binned:.7f} "
        f"vs direct sum {direct:.7f} (tol 1e-4)",
    )


def test_identical_classes_recover_the_minority_prior():
    rng = np.random.default_rng(11)
    seizure = rng.standard_normal(2000)
    normal = rng.standard_normal(18000)
    err_b = bayes_error(fit_kde((seizure, normal)))
    err_0 = err0(2000, 18000)
    rate = 100.0 * (err_0 - err_b) / err_0
    report(
        "identical-class sanity",
        abs(err_b - 0.1) <= 0.005 and abs(rate) < 5.0,
        f"priors (0.1, 0.9), same distribution: err_b = {err_b:.4f} "
        f"(want 0.1 +- 0.005), rate = {rate:.2f}% (want |rate| < 5)",
    )


def test_dwt_reconstruction_vanishing_moments_and_energy():
    rng = np.random.default_rng(3)
    worst_pr = 0.0
    worst_partition = 0.0
    wavelets = tuple(WAVELETS)
    # default epoch shape: 4 s at 256 Hz, amplitudes spanning muscle to uV
    for i in range(1000):
        x = rng.standard_normal(1024) * float(rng.choice((0.1, 1.0, 100.0)))
        decomp = dwt(x, wavelet=wavelets[i % len(wavelets)], levels=5)
        worst_pr = max(worst_pr, float(np.max(np.abs(idwt(decomp) - x))))
        total = sum(energy(band) for band in (*decomp.details, decomp.approx))
        worst_partition = max(worst_partition, abs(total - energy(x)) / energy(x))

    worst_ramp = 0.0
    ramp = np.linspace(0.0, 5.0, 1024)
    for wavelet, taps in (("d4", 4), ("d8", 8)):
        for detail in dwt(ramp, wavelet=wavelet, levels=5).details:
            worst_ramp = max(worst_ramp, float(np.max(np.abs(detail[taps:-taps]))))

    report(
        "DWT reconstruction / ramp / energy partition",
        worst_pr < 1e-8 and worst_ramp < 1e-9 and worst_partition < 0.01,
        f"1000 epochs: max reconstruction error {worst_pr:.2e} (< 1e-8), "
        f"ramp interior details {worst_ramp:.2e} (< 1e-9), "
        f"energy partition error {worst_partition:.2e} (< 0.01)",
    )


def test_scaling_estimators_recover_known_exponents():
    budget_s = 30.0
    start = time.perf_counter()
    n = 4096
    he_white, dfa_white, dfa_walk, hfd_line, hfd_white = [], [], [], [], []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        white = rng.standard_normal(n)
        he_white.append(hurst_exponent(white))
        dfa_white.append(dfa(white))
        dfa_walk.append(dfa(np.cumsum(rng.standard_normal(n))))
        slope, intercept = rng.uniform(-2.0, 2.0), rng.uniform(-5.0, 5.0)
        hfd_line.append(higuchi_fd(slope * np.arange(n) + intercept))
        hfd_white.append(higuchi_fd(rng.standard_normal(n)))
    means = {name: float(np.mean(v)) for name, v in (
        ("HE white", he_white),
        ("DFA white", dfa_white),
        ("DFA walk", dfa_walk),
        ("Higuchi line", hfd_line),
        ("Higuchi white", hfd_white),
    )}
    bounds = {
        "HE white": (0.4, 0.6),
        "DFA white": (0.4, 0.6),
        "DFA walk": (1.3, 1.7),
        "Higuchi line": (0.95, 1.05),
        "Higuchi white": (1.8, 2.05),
    }
    elapsed = time.perf_counter() - start
    ok = all(bounds[k][0] <= v <= bounds[k][1] for k, v in means.items())
    detail = ", ".join(
        f"{k} = {v:.3f} in [{bounds[k][0]}, {bounds[k][1]}]" for k, v in means.items()
    )
    report(
        "known-exponent estimators",
        ok and elapsed < budget_s,
        f"{detail}; {elapsed:.1f} s (budget {budget_s:g} s)",
    )


def _random_six_feature_table(rng) -> FeatureTable:
    n = 80
    labels = np.zeros(n, dtype=np.int64)
    labels[: n // 3] = 1
    rng.shuffle(labels)
    shifts = rng.uniform(0.0, 2.0, 6)
    values = rng.standard_normal((n, 6)) + labels[:, None] * shifts[None, :]
    values[:, 5] = values[:, 0] + 0.3 * rng.standard_normal(n)  # redundant pair
    return FeatureTable(
        records=("t",) * n,
        epoch_starts=np.arange(n, dtype=np.float64),
        labels=labels,
        feature_names=tuple(f"F{j}" for j in range(6)),
        values=values,
    )


def test_greedy_selection_tracks_exhaustive_search():
    rng = np.random.default_rng(5)
    worst_ratio = math.inf
    k1_exact = True
    for _ in range(50):
        table = _random_six_feature_table(rng)
        names = table.feature_names
        labels = table.labels.astype(np.int64)
        codes = {f: discretize(table.column(f)) for f in names}
        r_fc = {f: symmetric_correlation(codes[f], labels) for f in names}
        r_ff = {
            (f, g): symmetric_correlation(codes[f], codes[g])
            for f, g in itertools.combinations(names, 2)
        }
        trace = forward_search(table, max_size=4)
        k1_exact &= trace.merits[0] == max(r_fc.values())
        for size in range(1, 5):
            best = max(
                merit(subset, r_fc, r_ff)
                for subset in itertools.combinations(names, size)
            )
            if best > 0.0:
                worst_ratio = min(worst_ratio, trace.merits[size - 1] / best)
    report(
        "CFS greedy vs exhaustive",
        worst_ratio >= 0.95 and k1_exact,
        f"greedy/exhaustive merit >= {worst_ratio:.4f} over 50 tables, "
        f"sizes 1-4 (want >= 0.95); size-1 merit equals max r_fc: {k1_exact}",
    )


def test_end_to_end_synthetic_pipeline_orders_features():
    budget_s = 120.0
    start = time.perf_counter()
    spec = SynthSpec(
        duration_s=240.0,
        seizure_intervals=((30.0, 60.0), (120.0, 150.0), (200.0, 220.0)),
        seizure_gain=4.0,
        seed=12,
        name="e2e",
    )
    config = RunConfig(features=("Variance", "Energy", "NE", "Skewness"))
    table = extract(synth_record(spec), config)
    rates = {}
    for feature in config.features:
        for hemisphere in ("L", "R"):
            r = feature_significance(table, feature, hemisphere).rate
            rates[f"{feature}{hemisphere}"] = r
    elapsed = time.perf_counter() - start
    amplitude_ok = all(
        rates[f"{f}{h}"] > 50.0 for f in ("Variance", "Energy", "NE") for h in "LR"
    )
    skew_ok = all(rates[f"Skewness{h}"] < 10.0 for h in "LR")
    detail = ", ".join(f"{k} = {v:.1f}%" for k, v in rates.items())
    report(
        "end-to-end synthetic pipeline",
        amplitude_ok and skew_ok and elapsed < budget_s,
        f"{detail} (amplitude features > 50, skewness < 10); "
        f"{elapsed:.1f} s (budget {budget_s:g} s)",
    )


def test_runtime_scaling_matches_complexity_claims():
    linear = run_bench(LINEAR_SUITE, LINEAR_SIZES, seed=0, repeats=5)
    naive_suite = {
        "NaiveApEn": lambda x: oracles.naive_apen(x.tolist(), 2, 0.2),
        "NaiveSampEn": lambda x: oracles.naive_sampen(x.tolist(), 2, 0.2),
    }
    quadratic = run_bench(naive_suite, sizes=(128, 256, 512), seed=0, repeats=3)
    linear_ok = all(0.8 <= r.slope <= 1.3 for r in linear)
    quadratic_ok = all(1.7 <= r.slope <= 2.3 for r in quadratic)
    detail = ", ".join(f"{r.feature} = {r.slope:.2f}" for r in (*linear, *quadratic))
    report(
        "runtime scaling",
        linear_ok and quadratic_ok,
        f"log-log slopes {detail} (linear in [0.8, 1.3], naive "
        f"quadratic in [1.7, 2.3])",
    )


def test_extraction_is_deterministic(tmp_path):
    spec = SynthSpec(
        duration_s=30.0,
        channels=("C3", "P3", "C4", "P4"),
        seizure_intervals=((9.0, 15.0),),
        seed=21,
    )
    config = RunConfig(montage=Montage(left=("C3", "P3"), right=("C4", "P4")))
    outputs = []
    for run in ("a", "b"):
        path = tmp_path / f"{run}.csv"
        extract(synth_record(spec), config).write_csv(path)
        outputs.append(path.read_bytes())
    report(
        "deterministic extraction",
        outputs[0] == outputs[1],
        f"two same-seed runs, {len(outputs[0])} bytes of CSV each, "
        f"byte-identical: {outputs[0] == outputs[1]}",
    )
