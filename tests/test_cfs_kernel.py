"""The column-matrix rank kernel behind ``discretize`` and ``select``, and the greedy pick.

The reference for every code is Python-int arithmetic on the count of
strictly smaller values (the first-occurrence rank), which cannot
overflow; ``tests/oracles.naive_discretize`` multiplies in int64 and
wraps at huge bin counts, so it is not used here.
"""

from unittest import mock

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from eegfx import cfs
from eegfx.cfs import _pick, _rank_codes, discretize, forward_search, select_features
from eegfx.feature_table import FeatureTable
from oracles import naive_forward_search


def _python_codes(column, n_bins: int) -> list[int]:
    """floor(rank * n_bins / N) in Python ints; rank counts the strictly smaller values."""
    values = [float(v) for v in column]
    return [sum(w < v for w in values) * n_bins // len(values) for v in values]


def _table(columns: dict, labels) -> FeatureTable:
    labels = np.asarray(labels, dtype=int)
    return FeatureTable(
        records=("r",) * len(labels),
        epoch_starts=np.arange(float(len(labels))),
        labels=labels,
        feature_names=tuple(columns),
        values=np.column_stack([np.asarray(c, dtype=float) for c in columns.values()]),
    )


# a coarse grid, so ties are common; -0.0 and 0.0 are both on it
_cells = st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0, 1e300, -1e-300])
_bins = st.one_of(st.integers(2, 60), st.integers(2**40, 2**63 - 1))


@st.composite
def _matrices(draw):
    n_rows = draw(st.integers(1, 6))
    n = draw(st.integers(1, 30))
    matrix = np.array(
        draw(st.lists(st.lists(_cells, min_size=n, max_size=n), min_size=n_rows, max_size=n_rows))
    )
    for r in draw(st.sets(st.integers(0, n_rows - 1))):
        matrix[r] = matrix[r, 0]  # constant rows
    return matrix


@settings(max_examples=300, deadline=None)
@given(matrix=_matrices(), n_bins=_bins, budget=st.sampled_from([1, 5, 40, 1 << 17]), data=st.data())
def test_block_codes_equal_python_int_ranks(matrix, n_bins, budget, data):
    rows = np.asarray(
        data.draw(st.lists(st.integers(0, len(matrix) - 1), min_size=1, max_size=8)), dtype=np.intp
    )
    columns = np.asfortranarray(matrix)  # strided rows, as a table's values.T
    with mock.patch.object(cfs, "_BLOCK_CELLS", budget):  # budget 1: one row per block
        codes = _rank_codes(columns, rows, n_bins)
        one_row = [discretize(matrix[r], n_bins).tolist() for r in rows]
    want = [_python_codes(matrix[r], n_bins) for r in rows]
    assert codes.dtype == np.int64 and codes.tolist() == want
    assert one_row == want


@pytest.mark.parametrize("n_bins", [2**62, 2**63 - 1, 10**18 + 7, 3**39])
def test_discretize_is_exact_at_huge_bin_counts(n_bins):
    assert discretize(np.arange(10.0), n_bins).tolist() == _python_codes(range(10), n_bins)
    values = np.random.default_rng(32).integers(0, 40, size=300).astype(float)  # ties
    codes = discretize(values, n_bins)
    assert codes.min() >= 0 and codes.tolist() == _python_codes(values, n_bins)


def test_discretize_refuses_bin_counts_beyond_int64():
    with pytest.raises(OverflowError):
        discretize(np.arange(10.0), 2**63)


def _forty_by_four(seed=33):
    rng = np.random.default_rng(seed)
    labels = np.arange(40) % 2
    columns = {
        "K": rng.standard_normal(40) + labels,
        "B": rng.poisson(2.0 + labels, size=40),  # ties
        "Q": rng.standard_normal(40),
        "A": np.round(rng.standard_normal(40) + 0.5 * labels, 1),
    }
    return _table(columns, labels)


@pytest.mark.parametrize("n_bins", [41, 10**5, 2**62])
def test_bins_at_or_above_the_row_count_give_the_trace_at_the_row_count(n_bins):
    table = _forty_by_four()
    assert forward_search(table, max_size=4, n_bins=n_bins) == forward_search(table, 4, 40)
    assert select_features(table, 4, n_bins) == select_features(table, 4, 40)
    _, codes, _ = cfs._discretized(table, n_bins)
    assert codes.max() < len(table)  # the joint tables are sized by rows, not bins


def test_non_finite_columns_are_skipped_with_the_discretize_message():
    rng = np.random.default_rng(34)
    labels = np.arange(30) % 3 == 0
    columns = {f"F{i}": rng.standard_normal(30) + i * labels for i in range(6)}
    columns["NaN"] = columns["F0"].copy()
    columns["NaN"][7] = np.nan
    columns["Inf"] = np.where(np.arange(30) == 2, np.inf, columns["F1"])
    columns["NegInf"] = np.where(np.arange(30) == 29, -np.inf, columns["F2"])
    columns["AllNaN"] = np.full(30, np.nan)
    names = ["F0", "NaN", "F1", "Inf", "F2", "NegInf", "F3", "AllNaN", "F4", "F5"]
    table = _table({n: columns[n] for n in names}, labels)
    bad = ("NaN", "Inf", "NegInf", "AllNaN")
    with mock.patch.object(cfs, "_BLOCK_CELLS", 70):  # two columns per block
        kept, codes, skipped = cfs._discretized(table, 4)
        trace, skipped_too = select_features(table, max_size=3, n_bins=4)
        with pytest.raises(ValueError, match="^feature NaN: values must be finite$"):
            forward_search(table, max_size=2, n_bins=4)
    assert skipped == skipped_too == {n: f"feature {n}: values must be finite" for n in bad}
    for name in bad:
        with pytest.raises(ValueError, match="^values must be finite$"):
            discretize(columns[name], 4)
    assert kept == tuple(n for n in names if n not in bad)
    assert codes.tolist() == [discretize(columns[n], 4).tolist() for n in kept]
    finite = _table({n: columns[n] for n in kept}, labels)
    assert trace == forward_search(finite, max_size=3, n_bins=4)


def test_pick_orders_by_merit_then_class_correlation_then_name():
    names = ("Zeta", "beta", "Alpha", "Mid", "alpha")  # not in sorted order
    name_rank = np.empty(5, dtype=np.intp)
    name_rank[sorted(range(5), key=names.__getitem__)] = np.arange(5)
    scores = np.array([0.5, 0.5, 0.5, 0.9, 0.5])
    r_fc = np.array([0.3, 0.3, 0.2, 0.1, 0.3])
    remaining = np.ones(5, dtype=bool)
    assert _pick(scores, r_fc, name_rank, remaining) == 3  # the highest merit
    remaining[3] = False
    assert _pick(scores, r_fc, name_rank, remaining) == 0  # "Zeta" < "alpha" < "beta"
    remaining[0] = False
    assert _pick(scores, r_fc, name_rank, remaining) == 4
    remaining[4] = False
    assert _pick(scores, r_fc, name_rank, remaining) == 1  # r_fc beats "Alpha"'s name


def test_exact_ties_among_copies_fall_to_name_order():
    rng = np.random.default_rng(35)
    labels = rng.integers(0, 2, size=60)
    signal = rng.standard_normal(60) + 3.0 * labels
    columns = {
        "Q": signal,
        "noise": rng.standard_normal(60),
        "C": signal.copy(),
        "B2": rng.standard_normal(60) + 0.5 * labels,
        "A": signal.copy(),
        "B1": rng.standard_normal(60) + 0.5 * labels,
    }
    table = _table(columns, labels)
    trace = forward_search(table, max_size=6)
    assert trace.features[0] == "A"
    features, merits = naive_forward_search(table, 6, 10)
    assert trace.features == features
    np.testing.assert_allclose(trace.merits, merits, rtol=1e-12, atol=0.0)
    copies = [f for f in trace.features if f in ("A", "C", "Q")]
    assert copies == ["A", "C", "Q"]
