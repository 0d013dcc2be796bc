import bisect
import itertools
import json
import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from eegfx.cfs import (
    MeritTrace,
    _su_rows,
    discretize,
    forward_search,
    merit,
    select_features,
    symmetric_correlation,
)
from eegfx.feature_table import FeatureTable
from oracles import naive_forward_search


def _table(columns: dict, labels):
    labels = np.asarray(labels, dtype=int)
    names = tuple(columns)
    values = np.column_stack([np.asarray(columns[n], dtype=float) for n in names])
    return FeatureTable(
        records=tuple("r" for _ in labels),
        epoch_starts=np.arange(float(len(labels))),
        labels=labels,
        feature_names=names,
        values=values,
    )


def test_discretize_equal_frequency():
    rng = np.random.default_rng(0)
    values = rng.permutation(np.linspace(-5.0, 5.0, 100))
    codes = discretize(values, n_bins=10)
    assert np.array_equal(np.bincount(codes), np.full(10, 10))


def test_discretize_constant_is_single_bin():
    codes = discretize(np.full(40, 7.7), n_bins=10)
    assert codes.dtype == np.int64 and np.all(codes == 0)


def test_discretize_ties_share_lower_bin():
    codes = discretize(np.array([1.0, 1.0, 2.0, 3.0]), n_bins=2)
    assert codes.tolist() == [0, 0, 1, 1]


def test_discretize_is_rank_based():
    rng = np.random.default_rng(1)
    values = rng.standard_normal(200)
    base = discretize(values)
    assert np.array_equal(discretize(np.exp(values)), base)
    assert np.array_equal(discretize(3.0 * values + 10.0), base)


def test_discretize_validation():
    with pytest.raises(ValueError):
        discretize(np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        discretize(np.array([1.0, 2.0]), n_bins=1)
    with pytest.raises(ValueError, match="nonnegative"):
        symmetric_correlation(np.array([0, -1]), np.array([0, 1]))


def test_su_identical_is_one():
    codes = discretize(np.random.default_rng(2).standard_normal(100))
    assert symmetric_correlation(codes, codes) == 1.0


def test_su_independent_is_near_zero():
    rng = np.random.default_rng(3)
    a = rng.integers(0, 10, size=10000)
    b = rng.integers(0, 10, size=10000)
    assert symmetric_correlation(a, b) < 0.02


def test_su_constant_side_is_zero():
    flat = discretize(np.full(50, 1.0))
    varied = discretize(np.arange(50.0))
    assert symmetric_correlation(flat, varied) == 0.0
    assert symmetric_correlation(flat, flat) == 0.0


def test_su_is_symmetric():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = discretize(rng.standard_normal(300))
        b = discretize(rng.standard_normal(300) + 0.5 * a)
        assert abs(symmetric_correlation(a, b) - symmetric_correlation(b, a)) < 1e-12


def test_su_invariant_under_code_relabeling():
    rng = np.random.default_rng(5)
    a = discretize(rng.standard_normal(500))
    b = discretize(rng.standard_normal(500) + a)
    perm = rng.permutation(10)
    relabeled = perm[a]
    assert symmetric_correlation(relabeled, b) == pytest.approx(
        symmetric_correlation(a, b), abs=1e-12
    )


def test_su_accepts_raw_labels():
    labels = np.array([0, 1, 0, 1, 0, 1])
    feature = np.array([0, 9, 0, 9, 0, 9])
    assert symmetric_correlation(feature, labels) == pytest.approx(1.0)


def test_su_length_mismatch():
    a = discretize(np.arange(10.0))
    b = discretize(np.arange(12.0))
    with pytest.raises(ValueError, match="length mismatch"):
        symmetric_correlation(a, b)


def test_merit_singleton_is_class_correlation():
    assert merit(["F"], {"F": 0.37}, {}) == 0.37


def test_merit_plug_in_value():
    r_fc = {"A": 0.5, "B": 0.3}
    r_ff = {("A", "B"): 1.0}
    assert merit(["A", "B"], r_fc, r_ff) == pytest.approx(0.8 / math.sqrt(4.0))


def test_merit_duplicate_never_beats_singleton():
    rng = np.random.default_rng(6)
    for _ in range(20):
        r = float(rng.uniform(0.05, 1.0))
        singleton = merit(["F"], {"F": r}, {})
        doubled = merit(["F", "Twin"], {"F": r, "Twin": r}, {("F", "Twin"): 1.0})
        assert doubled <= singleton + 1e-12


def test_merit_validation():
    with pytest.raises(ValueError):
        merit([], {}, {})
    with pytest.raises(ValueError, match="repeated"):
        merit(["F", "F"], {"F": 0.5}, {})


def test_forward_search_picks_dominant_feature_first():
    rng = np.random.default_rng(7)
    labels = rng.integers(0, 2, size=300)
    table = _table(
        {
            "NoiseA": rng.standard_normal(300),
            "Signal": labels.astype(float),
            "NoiseB": rng.standard_normal(300),
        },
        labels,
    )
    trace = forward_search(table, max_size=3)
    assert trace.features[0] == "Signal"
    assert trace.merits[0] == pytest.approx(1.0)


def test_forward_search_full_size_is_a_permutation():
    rng = np.random.default_rng(8)
    labels = rng.integers(0, 2, size=200)
    table = _table(
        {f"F{i}": rng.standard_normal(200) + 0.3 * i * labels for i in range(5)},
        labels,
    )
    trace = forward_search(table, max_size=5)
    assert sorted(trace.features) == sorted(table.feature_names)
    assert len(trace.merits) == 5


def test_forward_search_is_deterministic():
    rng = np.random.default_rng(9)
    labels = rng.integers(0, 2, size=250)
    cols = {f"F{i}": rng.standard_normal(250) + 0.2 * i * labels for i in range(6)}
    a = forward_search(_table(cols, labels), max_size=4)
    b = forward_search(_table(cols, labels), max_size=4)
    assert a == b


def test_forward_search_breaks_exact_ties_by_name():
    rng = np.random.default_rng(10)
    labels = rng.integers(0, 2, size=200)
    shared = rng.standard_normal(200) + labels
    table = _table({"B": shared, "A": shared.copy()}, labels)
    trace = forward_search(table, max_size=1)
    assert trace.features == ("A",)


def test_forward_search_breaks_merit_ties_by_class_correlation(monkeypatch):
    # After A, B scores 0.5625 / sqrt(2) and C 0.703125 / sqrt(3.125): the
    # same double, so the higher r_fc (C) must win over the name order (B).
    sus = iter([
        np.array([0.5, 0.0625, 0.203125]),  # each column with the labels
        np.array([1.0, 0.0, 0.5625]),  # each column with the member A
    ])
    monkeypatch.setattr("eegfx.cfs._su_rows", lambda codes, b: next(sus))
    rng = np.random.default_rng(12)
    labels = rng.integers(0, 2, size=40)
    table = _table({name: rng.standard_normal(40) for name in "ABC"}, labels)
    trace = forward_search(table, max_size=2)
    assert trace.merits[1] == 0.5625 / math.sqrt(2.0)
    assert trace.features == ("A", "C")


def test_forward_search_merits_are_self_consistent():
    rng = np.random.default_rng(11)
    labels = rng.integers(0, 2, size=300)
    cols = {f"F{i}": rng.standard_normal(300) + 0.4 * (i % 3) * labels for i in range(6)}
    table = _table(cols, labels)
    trace = forward_search(table, max_size=4)
    codes = {n: discretize(table.column(n)) for n in table.feature_names}
    r_fc = {n: symmetric_correlation(codes[n], table.labels.astype(int)) for n in codes}
    r_ff = {
        (f, g): symmetric_correlation(codes[f], codes[g])
        for f, g in itertools.combinations(sorted(codes), 2)
    }
    for size, recorded in enumerate(trace.merits, start=1):
        assert recorded == merit(list(trace.features[:size]), r_fc, r_ff)


def test_greedy_merit_close_to_exhaustive():
    rng = np.random.default_rng(12)
    for _ in range(10):
        labels = rng.integers(0, 2, size=150)
        cols = {}
        for i in range(6):
            gain = rng.uniform(0.0, 1.2)
            cols[f"F{i}"] = rng.standard_normal(150) + gain * labels
        cols["F1"] = cols["F0"] + 0.01 * rng.standard_normal(150)  # near-duplicate
        table = _table(cols, labels)
        trace = forward_search(table, max_size=4)
        codes = {n: discretize(table.column(n)) for n in table.feature_names}
        r_fc = {n: symmetric_correlation(codes[n], table.labels.astype(int)) for n in codes}
        r_ff = {
            (f, g): symmetric_correlation(codes[f], codes[g])
            for f, g in itertools.combinations(sorted(codes), 2)
        }
        names = table.feature_names
        assert trace.merits[0] == max(r_fc.values())
        for size in range(1, 5):
            best = max(
                merit(list(sub), r_fc, r_ff) for sub in itertools.combinations(names, size)
            )
            assert trace.merits[size - 1] >= 0.95 * best


def _table_with_holes(rng, n=120):
    labels = rng.integers(0, 2, size=n)
    columns = {f"F{i}": rng.standard_normal(n) + i * 0.2 * labels for i in range(6)}
    columns["F1"][4] = np.nan
    columns["F4"][9] = np.inf
    return _table(columns, labels), columns, labels


def test_select_features_skips_what_discretize_refuses():
    rng = np.random.default_rng(21)
    table, columns, labels = _table_with_holes(rng)
    trace, skipped = select_features(table, max_size=10)
    assert skipped == {
        "F1": "feature F1: values must be finite",
        "F4": "feature F4: values must be finite",
    }
    finite = _table({k: v for k, v in columns.items() if k not in skipped}, labels)
    assert trace == forward_search(finite, max_size=4)  # the cap counts the 4 left


def test_select_features_equals_forward_search_on_a_finite_table():
    rng = np.random.default_rng(22)
    labels = rng.integers(0, 2, size=90)
    table = _table({f"G{i}": rng.standard_normal(90) + (i % 3) * labels for i in range(7)}, labels)
    for max_size in (1, 3, 7, 50):
        trace, skipped = select_features(table, max_size=max_size, n_bins=6)
        assert skipped == {}
        assert trace == forward_search(table, max_size=min(max_size, 7), n_bins=6)


def test_select_features_with_no_usable_column_names_each():
    labels = np.array([0, 1] * 10)
    bad = np.arange(20.0)
    bad[3] = np.nan
    table = _table({"XL": bad, "XR": bad}, labels)
    with pytest.raises(ValueError, match="no feature column to select from") as exc:
        select_features(table, max_size=3)
    assert "feature XL: values must be finite" in str(exc.value)
    assert "feature XR: values must be finite" in str(exc.value)


def test_forward_search_names_a_non_finite_column():
    rng = np.random.default_rng(23)
    table, _, _ = _table_with_holes(rng)
    with pytest.raises(ValueError, match="feature F1: values must be finite"):
        forward_search(table, max_size=2)


def test_forward_search_guards():
    rng = np.random.default_rng(13)
    labels = rng.integers(0, 2, size=100)
    table = _table({"F": rng.standard_normal(100)}, labels)
    with pytest.raises(ValueError, match="max_size"):
        forward_search(table, max_size=2)
    single_class = _table({"F": rng.standard_normal(100)}, np.ones(100, dtype=int))
    with pytest.raises(ValueError, match="both classes"):
        forward_search(single_class, max_size=1)


def test_trace_outputs():
    trace = MeritTrace(features=("B", "A", "C"), merits=(0.4, 0.6, 0.5))
    assert trace.best_size == 2
    assert trace.best_subset == ("B", "A")
    assert trace.best_merit == 0.6
    lines = trace.to_csv().splitlines()
    assert lines[0] == "rank,feature,merit_at_entry"
    assert lines[1] == "1,B,0.4"
    summary = json.loads(json.dumps(trace.summary()))
    assert summary == {"best_size": 2, "best_merit": 0.6, "features": ["B", "A"]}


def test_trace_best_size_is_first_maximum():
    trace = MeritTrace(features=("A", "B", "C"), merits=(0.5, 0.9, 0.9))
    assert trace.best_size == 2
    assert trace.best_subset == ("A", "B")


def test_trace_validation():
    with pytest.raises(ValueError, match="one merit per"):
        MeritTrace(features=("A", "B"), merits=(0.5,))
    with pytest.raises(ValueError, match="one merit per"):
        MeritTrace(features=(), merits=())


# perfbench's four column shapes, with effect sizes from none to strong
_SHAPES = (
    lambda z, rng: 10.0 + 3.0 * z,
    lambda z, rng: np.exp(0.8 * z),
    lambda z, rng: rng.poisson(np.exp(1.5 + 0.4 * z)).astype(float),
    lambda z, rng: 1.0 / (1.0 + np.exp(-z)),
)


def _mixed_table(rows: int, seed: int) -> FeatureTable:
    """152 shaped columns plus tie-heavy Poisson, constant and duplicate ones."""
    rng = np.random.default_rng(seed)
    labels = np.zeros(rows, dtype=int)
    labels[rng.choice(rows, size=max(1, rows // 5), replace=False)] = 1
    cols = {}
    for j in range(152):
        z = rng.standard_normal(rows) + 0.3 * (j % 5) * labels
        cols[f"S{j:03d}"] = _SHAPES[j % 4](z, rng)
    for j in range(8):
        cols[f"P{j}"] = rng.poisson(0.7 + labels).astype(float)
    cols["K0"] = np.full(rows, 3.0)
    cols["K1"] = np.zeros(rows)
    for j in (0, 1, 2, 5):  # copies named before and after every S column
        cols[f"A{j}"] = cols[f"S{j:03d}"].copy()
        cols[f"Z{j}"] = cols[f"S{j:03d}"].copy()
    names = list(cols)
    rng.shuffle(names)
    return _table({n: cols[n] for n in names}, labels)


@pytest.mark.parametrize("n_bins", [2, 10, 17])
@pytest.mark.parametrize("rows", [3, 9, 45, 400])
def test_forward_search_matches_naive_oracle(rows, n_bins):
    table = _mixed_table(rows, seed=rows * 100 + n_bins)
    assert 0 < table.labels.sum() < rows
    features, merits = naive_forward_search(table, 8, n_bins)
    trace = forward_search(table, max_size=8, n_bins=n_bins)
    assert trace.features == features
    np.testing.assert_allclose(trace.merits, merits, rtol=1e-12, atol=0.0)
    codes = {n: discretize(table.column(n), n_bins) for n in trace.features}
    r_fc = {n: symmetric_correlation(c, table.labels) for n, c in codes.items()}
    r_ff = {
        (f, g): symmetric_correlation(codes[f], codes[g])
        for f, g in itertools.combinations(trace.features, 2)
    }
    for size, recorded in enumerate(trace.merits, start=1):
        assert recorded == merit(trace.features[:size], r_fc, r_ff)


def _code_pairs(rng):
    for n in (1, 2, 7, 50, 400, 3000):
        for bins in (1, 2, 10, 17):
            a = rng.integers(0, bins, size=n)
            yield a, (a + rng.integers(0, 2, size=n)) % bins
            yield a, rng.integers(0, 2, size=n)


def test_su_kernel_is_exactly_symmetric_and_code_range_free():
    rng = np.random.default_rng(15)
    for a, b in _code_pairs(rng):
        su = symmetric_correlation(a, b)
        assert symmetric_correlation(b, a) == su
        assert symmetric_correlation(2 * a, b) == su
        assert symmetric_correlation(a, 3 * b + 1) == su


@pytest.mark.parametrize("n, bins", [(8192, 10), (40, 17), (5, 2)])
def test_su_kernel_batch_rows_equal_1d_calls(n, bins):
    rng = np.random.default_rng(n + bins)
    codes = rng.integers(0, bins, size=(40, n))
    codes[3] = 0  # constant row
    codes[7] = codes[2] * 2  # sparser copy of another row
    for b in (codes[5], rng.integers(0, 2, size=n)):
        batch = _su_rows(codes, b)
        assert np.array_equal(batch, [symmetric_correlation(row, b) for row in codes])


_grid_values = st.lists(st.integers(-160, 160), min_size=1, max_size=80).map(
    lambda v: np.asarray(v, dtype=float) / 8.0
)


@settings(max_examples=200, deadline=None)
@given(values=_grid_values, n_bins=st.integers(2, 20))
def test_discretize_invariant_under_increasing_transforms(values, n_bins):
    base = discretize(values, n_bins)
    assert np.array_equal(discretize(np.exp(values), n_bins), base)
    assert np.array_equal(discretize(2.5 * values + 7.0, n_bins), base)


@settings(max_examples=200, deadline=None)
@given(values=_grid_values, n_bins=st.integers(2, 20))
def test_discretize_ties_share_lowest_code(values, n_bins):
    codes = discretize(values, n_bins)
    for v in np.unique(values):
        tied = codes[values == v]
        first_rank = int(np.sum(values < v))
        assert np.all(tied == first_rank * n_bins // values.size)


@settings(max_examples=200, deadline=None)
@given(values=_grid_values, n_bins=st.integers(2, 20))
def test_discretize_matches_sorted_list_oracle(values, n_bins):
    ordered = sorted(values.tolist())
    want = [bisect.bisect_left(ordered, v) * n_bins // len(ordered) for v in values.tolist()]
    assert discretize(values, n_bins).tolist() == want
