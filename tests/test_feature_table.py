import numpy as np
import pytest

from eegfx.feature_table import FeatureTable


def _small_table():
    return FeatureTable(
        records=("rec01", "rec01", "rec02", "rec02"),
        epoch_starts=np.array([0.0, 1.0, 0.0, 1.0]),
        labels=np.array([1, 0, 0, 1]),
        feature_names=("VarianceL", "VarianceR"),
        values=np.array([[1.5, 2.5], [0.5, 0.25], [0.75, 0.125], [3.0, 4.0]]),
    )


def test_column_lookup_and_counts():
    table = _small_table()
    assert np.array_equal(table.column("VarianceL"), [1.5, 0.5, 0.75, 3.0])
    assert table.class_counts() == (2, 2)
    seizure, normal = table.class_values("VarianceR")
    assert np.array_equal(seizure, [2.5, 4.0])
    assert np.array_equal(normal, [0.25, 0.125])
    with pytest.raises(KeyError):
        table.column("EnergyD1L")


def test_len_counts_epochs():
    assert len(_small_table()) == 4


def test_rejects_inconsistent_shapes():
    with pytest.raises(ValueError):
        FeatureTable(
            records=("a", "b"),
            epoch_starts=np.array([0.0]),
            labels=np.array([1, 0]),
            feature_names=("F",),
            values=np.array([[1.0], [2.0]]),
        )
    with pytest.raises(ValueError):
        FeatureTable(
            records=("a",),
            epoch_starts=np.array([0.0]),
            labels=np.array([1]),
            feature_names=("F", "G"),
            values=np.array([[1.0]]),
        )


def test_rejects_bad_labels_and_names():
    with pytest.raises(ValueError, match="labels"):
        FeatureTable(
            records=("a",),
            epoch_starts=np.array([0.0]),
            labels=np.array([2]),
            feature_names=("F",),
            values=np.array([[1.0]]),
        )
    with pytest.raises(ValueError, match="duplicate"):
        FeatureTable(
            records=("a",),
            epoch_starts=np.array([0.0]),
            labels=np.array([1]),
            feature_names=("F", "F"),
            values=np.array([[1.0, 2.0]]),
        )
    with pytest.raises(ValueError, match="cannot contain"):
        FeatureTable(
            records=("a,b",),
            epoch_starts=np.array([0.0]),
            labels=np.array([1]),
            feature_names=("F",),
            values=np.array([[1.0]]),
        )


def test_rejects_empty_table():
    with pytest.raises(ValueError, match="at least one"):
        FeatureTable(
            records=(),
            epoch_starts=np.array([]),
            labels=np.array([], dtype=int),
            feature_names=("F",),
            values=np.empty((0, 1)),
        )


def test_values_are_read_only():
    table = _small_table()
    with pytest.raises(ValueError):
        table.values[0, 0] = 9.0
    with pytest.raises(ValueError):
        table.labels[0] = 0


def test_csv_round_trip(tmp_path):
    table = _small_table()
    path = tmp_path / "table.csv"
    table.write_csv(path)
    back = FeatureTable.read_csv(path)
    assert back.records == table.records
    assert back.feature_names == table.feature_names
    assert np.array_equal(back.labels, table.labels)
    assert np.array_equal(back.epoch_starts, table.epoch_starts)
    assert np.array_equal(back.values, table.values)
    assert back.to_csv() == table.to_csv()


def test_csv_format_is_fixed():
    table = FeatureTable(
        records=("r",),
        epoch_starts=np.array([2.0]),
        labels=np.array([0]),
        feature_names=("F", "G"),
        values=np.array([[0.123456789123456, 1e-12]]),
    )
    lines = table.to_csv().splitlines()
    assert lines[0] == "record,epoch_start_s,label,F,G"
    assert lines[1] == "r,2,0,0.123456789,1e-12"


@pytest.mark.parametrize("rows", [255, 256, 257, 700])
def test_csv_rows_across_write_blocks_match_per_row_format(tmp_path, rows):
    rng = np.random.default_rng(rows)
    table = FeatureTable(
        records=tuple(f"rec{i % 7}" for i in range(rows)),
        epoch_starts=np.arange(rows) * 2.0,
        labels=rng.integers(0, 2, rows),
        feature_names=("F", "G", "H"),
        values=rng.standard_normal((rows, 3)) * 10.0 ** rng.integers(-8, 8, (rows, 3)),
    )
    want = "record,epoch_start_s,label,F,G,H\n" + "".join(
        "%s,%.9g,%d,%.9g,%.9g,%.9g\n" % (r, t, lab, *v)
        for r, t, lab, v in zip(table.records, table.epoch_starts, table.labels, table.values)
    )
    assert table.to_csv() == want
    path = tmp_path / "t.csv"
    table.write_csv(path)
    assert path.read_bytes() == want.encode("ascii")


def test_round_trip_preserves_nine_significant_digits(tmp_path):
    rng = np.random.default_rng(5)
    values = rng.standard_normal((20, 3)) * 10.0 ** rng.integers(-6, 6, size=(20, 3))
    table = FeatureTable(
        records=tuple(f"r{i}" for i in range(20)),
        epoch_starts=np.arange(20.0),
        labels=(np.arange(20) % 2).astype(int),
        feature_names=("A", "B", "C"),
        values=values,
    )
    path = tmp_path / "t.csv"
    table.write_csv(path)
    back = FeatureTable.read_csv(path)
    assert np.allclose(back.values, values, rtol=1e-8, atol=0.0)


def test_read_csv_diagnostics(tmp_path):
    bad_header = tmp_path / "bad1.csv"
    bad_header.write_text("foo,bar\n")
    with pytest.raises(ValueError, match="header"):
        FeatureTable.read_csv(bad_header)
    ragged = tmp_path / "bad2.csv"
    ragged.write_text("record,epoch_start_s,label,F\nr,0,1\n")
    with pytest.raises(ValueError, match="expected 4 cells"):
        FeatureTable.read_csv(ragged)


_SPECIAL_CSV = (
    "record,epoch_start_s,label,F,G,H,I,J\n"
    "a,0,1,nan,inf,-inf,-0,123456789\n"
    "b,2.5,0,1e+21,4.94065646e-324,1.79769313e+308,0.123456789,-1.23456789e-05\n"
)


def test_special_values_format_and_read_back_bit_exactly(tmp_path):
    table = FeatureTable(
        records=("a", "b"),
        epoch_starts=np.array([0.0, 2.5]),
        labels=np.array([1, 0]),
        feature_names=("F", "G", "H", "I", "J"),
        values=np.array(
            [
                [np.nan, np.inf, -np.inf, -0.0, 123456789.0],
                [1e21, 5e-324, np.finfo(np.float64).max, 0.123456789, -1.23456789e-5],
            ]
        ),
    )
    assert table.to_csv() == _SPECIAL_CSV
    path = tmp_path / "special.csv"
    table.write_csv(path)
    assert path.read_text() == _SPECIAL_CSV
    back = FeatureTable.read_csv(path)
    assert back.records == ("a", "b")
    assert back.feature_names == ("F", "G", "H", "I", "J")
    assert back.labels.tolist() == [1, 0]
    assert back.epoch_starts.tobytes() == np.array([0.0, 2.5]).tobytes()
    # Every cell reads back as Python's float() of its text, bit for bit:
    # -0.0 keeps its sign and the largest float rounds to 9 digits.
    cells = [line.split(",")[3:] for line in _SPECIAL_CSV.splitlines()[1:]]
    expected = np.array([[float(c) for c in row] for row in cells])
    assert back.values.tobytes() == expected.tobytes()
    assert np.signbit(back.values[0, 3])
    assert back.to_csv() == _SPECIAL_CSV


@pytest.mark.parametrize(
    "text, match",
    [
        ("record,epoch_start_s,label,F\nr,0,1,2\nr,1,0\n", r"bad\.csv:3: expected 4 cells"),
        ("record,epoch_start_s,label,F\nr,0,1,abc\n", "could not convert"),
        ("record,epoch_start_s,label,F\nr,0,1.5,2\n", None),
        ("record,epoch_start_s,label,F\n", "at least one"),
    ],
    ids=["ragged", "non-numeric", "non-integer-label", "header-only"],
)
def test_read_csv_rejects_malformed_tables(tmp_path, text, match):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=match):
        FeatureTable.read_csv(path)
