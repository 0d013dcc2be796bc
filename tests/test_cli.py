"""End-to-end tests for the eegfx command line."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eegfx
from eegfx.annotations import read_annotations
from eegfx.cli import main
from eegfx.edf import read_edf, write_edf
from eegfx.evaluation import rank_features
from eegfx.feature_table import FeatureTable

FAST_FEATURES = "Mean,Variance,Energy,LineLength,IWMF,EnergyD2"


def run(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synth record plus its extracted table, shared across tests."""
    root = tmp_path_factory.mktemp("chain")
    edf = root / "rec.edf"
    table = root / "feats.csv"
    assert run("synth", "--out", edf, "--duration", 30, "--seed", 7) == 0
    assert run("extract", "--input", edf, "--out", table,
               "--features", FAST_FEATURES) == 0
    return root


class TestSynth:
    def test_writes_edf_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "a.edf"
        assert run("synth", "--out", out, "--duration", 20, "--seed", 1) == 0
        assert out.exists()
        # default seizure spans 30-40% of the record
        assert read_annotations(str(out) + ".ann") == ((6.0, 8.0),)
        assert "a.edf" in capsys.readouterr().out

    def test_explicit_intervals(self, tmp_path):
        out = tmp_path / "b.edf"
        assert run("synth", "--out", out, "--duration", 20,
                   "--seizures", "2-4, 6-8") == 0
        assert read_annotations(str(out) + ".ann") == ((2.0, 4.0), (6.0, 8.0))

    def test_empty_intervals(self, tmp_path):
        out = tmp_path / "c.edf"
        assert run("synth", "--out", out, "--duration", 20, "--seizures", "") == 0
        assert read_annotations(str(out) + ".ann") == ()

    def test_bad_interval_cleans_up(self, tmp_path, capsys):
        out = tmp_path / "d.edf"
        assert run("synth", "--out", out, "--duration", 10,
                   "--seizures", "5-3") == 1
        assert "eegfx synth" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_malformed_interval_text(self, tmp_path, capsys):
        assert run("synth", "--out", tmp_path / "e.edf",
                   "--seizures", "10:20") == 1
        assert "start-end" in capsys.readouterr().err


class TestExtract:
    def test_table_shape_and_labels(self, workspace):
        table = FeatureTable.read_csv(workspace / "feats.csv")
        # 30 s record, 4 s window, 1 s stride
        assert len(table.records) == 27
        assert len(table.feature_names) == 2 * len(FAST_FEATURES.split(","))
        # seizure marked for epochs with > 50% overlap of [9, 12)
        assert list(np.flatnonzero(table.labels)) == [8, 9]
        assert np.all(np.isfinite(table.values))

    def test_no_sidecar_means_no_seizures(self, workspace, tmp_path):
        edf = workspace / "rec.edf"
        bare = tmp_path / "bare.edf"
        bare.write_bytes(edf.read_bytes())
        out = tmp_path / "t.csv"
        assert run("extract", "--input", bare, "--out", out,
                   "--features", "Mean") == 0
        assert not FeatureTable.read_csv(out).labels.any()

    def test_window_flags_change_row_count(self, workspace, tmp_path):
        out = tmp_path / "t.csv"
        assert run("extract", "--input", workspace / "rec.edf", "--out", out,
                   "--features", "Mean", "--width", 2, "--stride", 2) == 0
        assert len(FeatureTable.read_csv(out).records) == 15

    def test_config_file_supplies_features(self, workspace, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"features": ["Energy", "ShEn"]}))
        out = tmp_path / "t.csv"
        assert run("extract", "--config", cfg, "--input", workspace / "rec.edf",
                   "--out", out) == 0
        assert FeatureTable.read_csv(out).feature_names == (
            "EnergyL", "EnergyR", "ShEnL", "ShEnR")

    def test_flag_overrides_config(self, workspace, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"features": ["Energy"]}))
        out = tmp_path / "t.csv"
        assert run("extract", "--config", cfg, "--input", workspace / "rec.edf",
                   "--out", out, "--features", "Mean") == 0
        assert FeatureTable.read_csv(out).feature_names == ("MeanL", "MeanR")

    def test_unknown_feature_cleans_up(self, workspace, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert run("extract", "--input", workspace / "rec.edf", "--out", out,
                   "--features", "Banana") == 1
        assert "Banana" in capsys.readouterr().err
        assert not out.exists()

    def test_levels_flag_is_a_usage_error(self, workspace, tmp_path, capsys):
        # the DWT depth is fixed; argparse refuses the flag before extract runs
        out = tmp_path / "t.csv"
        with pytest.raises(SystemExit) as exc:
            run("extract", "--input", workspace / "rec.edf", "--out", out, "--levels", 4)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --levels 4" in err
        assert "MeanD5" not in err
        assert not out.exists()

    def test_missing_input(self, tmp_path, capsys):
        assert run("extract", "--input", tmp_path / "nope.edf",
                   "--out", tmp_path / "t.csv") == 1
        assert "eegfx extract" in capsys.readouterr().err


class TestEvaluate:
    def test_writes_sorted_significance(self, workspace, tmp_path, capsys):
        out = tmp_path / "sig.csv"
        assert run("evaluate", "--input", workspace / "feats.csv",
                   "--out", out) == 0
        printed = capsys.readouterr().out
        assert "err_0 = 0.0741" in printed
        lines = out.read_text().splitlines()
        assert lines[0] == "feature,hemisphere,err_b,err_0,rate,significant"
        assert len(lines) == 1 + 2 * len(FAST_FEATURES.split(","))
        rates = [float(line.split(",")[4]) for line in lines[1:]]
        assert rates == sorted(rates, reverse=True)

    def test_threshold_flows_from_config(self, workspace, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"threshold": 1000.0}))
        out = tmp_path / "sig.csv"
        assert run("evaluate", "--config", cfg, "--input",
                   workspace / "feats.csv", "--out", out) == 0
        assert all(line.endswith("false")
                   for line in out.read_text().splitlines()[1:])

    def test_nan_column_skipped_with_warning(self, workspace, tmp_path, capsys):
        table = FeatureTable.read_csv(workspace / "feats.csv")
        values = table.values.copy()
        values[3, 0] = np.nan
        broken = FeatureTable(records=table.records,
                              epoch_starts=table.epoch_starts,
                              labels=table.labels,
                              feature_names=table.feature_names,
                              values=values)
        src = tmp_path / "broken.csv"
        broken.write_csv(src)
        out = tmp_path / "sig.csv"
        assert run("evaluate", "--input", src, "--out", out) == 0
        captured = capsys.readouterr()
        assert table.feature_names[0] in captured.err
        assert len(out.read_text().splitlines()) == len(table.feature_names)

    def test_equal_rates_sort_by_column_name(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        labels = np.repeat([0, 1], 40)
        shared = rng.standard_normal(80) + labels
        broken = rng.standard_normal(80)
        broken[5] = np.nan
        table = FeatureTable(records=("r",) * 80,
                             epoch_starts=np.arange(80.0),
                             labels=labels,
                             feature_names=("B", "Broken", "A"),
                             values=np.column_stack([shared, broken, shared]))
        src = tmp_path / "twins.csv"
        table.write_csv(src)
        out = tmp_path / "sig.csv"
        assert run("evaluate", "--input", src, "--out", out) == 0
        assert "Broken" in capsys.readouterr().err
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == ["A", "B"]
        assert rows[0][2:] == rows[1][2:]

    def test_single_class_table_fails(self, tmp_path, capsys):
        edf = tmp_path / "flat.edf"
        feats = tmp_path / "flat.csv"
        assert run("synth", "--out", edf, "--duration", 20,
                   "--seizures", "") == 0
        assert run("extract", "--input", edf, "--out", feats,
                   "--features", "Mean") == 0
        assert run("evaluate", "--input", feats, "--out", tmp_path / "s.csv") == 1
        assert "both classes" in capsys.readouterr().err


class TestOneSkipRule:
    """``evaluate`` and ``select`` skip, name and explain unusable columns."""

    def test_cli_rows_follow_rank_features(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        labels = np.repeat([0, 1], 30)
        shared = rng.standard_normal(60) + labels
        broken = rng.standard_normal(60) + labels
        broken[11] = np.nan
        columns = {"ZetaR": shared, "HoleL": broken, "AlphaL": shared,
                   "Noise": rng.standard_normal(60), "AlphaR": shared}
        table = FeatureTable(records=("r",) * 60, epoch_starts=np.arange(60.0),
                             labels=labels, feature_names=tuple(columns),
                             values=np.column_stack(list(columns.values())))
        src = tmp_path / "ties.csv"
        table.write_csv(src)
        out = tmp_path / "sig.csv"
        assert run("evaluate", "--input", src, "--out", out) == 0
        err = capsys.readouterr().err
        assert err == "skipping feature HoleL: class samples have non-finite values\n"
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        reports, skipped = rank_features(FeatureTable.read_csv(src))
        assert list(skipped) == ["HoleL"]
        assert [(row[0], row[1]) for row in rows] == [
            (r.feature_id, r.hemisphere) for r in reports]
        assert [row[0] + row[1] for row in rows[:3]] == ["AlphaL", "AlphaR", "ZetaR"]

    def test_one_epoch_class_fails_once_with_the_counts(self, workspace, tmp_path, capsys):
        table = FeatureTable.read_csv(workspace / "feats.csv")
        labels = np.zeros(len(table), dtype=int)
        labels[8] = 1
        src = tmp_path / "lonely.csv"
        dataclasses.replace(table, labels=labels).write_csv(src)
        out = tmp_path / "sig.csv"
        assert run("evaluate", "--input", src, "--out", out) == 1
        err = capsys.readouterr().err
        assert err == ("eegfx evaluate: table needs both classes with at least 2 "
                       "epochs each, has 1 seizure and 26 normal epochs\n")
        assert not out.exists()

    def test_flat_channel_record_goes_through_the_chain(self, workspace, tmp_path, capsys):
        record = read_edf(workspace / "rec.edf")
        data = record.data.copy()
        data[record.channels.index("FP1-F7")] = 0.0
        edf = tmp_path / "flat.edf"
        write_edf(dataclasses.replace(record, data=data), edf)
        (tmp_path / "flat.edf.ann").write_text((workspace / "rec.edf.ann").read_text())
        feats, sig, trace = tmp_path / "f.csv", tmp_path / "s.csv", tmp_path / "t.csv"
        assert run("extract", "--input", edf, "--out", feats,
                   "--features", FAST_FEATURES) == 0
        capsys.readouterr()
        assert run("evaluate", "--input", feats, "--out", sig) == 0
        assert capsys.readouterr().err == (
            "skipping feature IWMFL: class samples have non-finite values\n")
        assert run("select", "--input", feats, "--out", trace) == 0
        assert capsys.readouterr().err == "skipping feature IWMFL: values must be finite\n"
        assert len(sig.read_text().splitlines()) == 1 + 11
        assert len(trace.read_text().splitlines()) == 1 + 10  # 11 columns left, cap 10
        assert "IWMFL" not in sig.read_text() + trace.read_text()

    def test_select_with_no_usable_column_fails_named(self, tmp_path, capsys):
        values = np.arange(20.0)
        values[2] = np.nan
        table = FeatureTable(records=("r",) * 20, epoch_starts=np.arange(20.0),
                             labels=np.array([0, 1] * 10), feature_names=("OnlyL",),
                             values=values[:, None])
        src = tmp_path / "hole.csv"
        table.write_csv(src)
        out = tmp_path / "trace.csv"
        assert run("select", "--input", src, "--out", out) == 1
        err = capsys.readouterr().err
        assert err == ("eegfx select: no feature column to select from; "
                       "skipped feature OnlyL: values must be finite\n")
        assert list(tmp_path.iterdir()) == [src]


class TestSelect:
    def test_trace_and_best_subset(self, workspace, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        assert run("select", "--input", workspace / "feats.csv",
                   "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "rank,feature,merit_at_entry"
        assert len(lines) == 11  # 10 columns <= default max size
        best = json.loads((tmp_path / "trace.json").read_text())
        ranked = [line.split(",")[1] for line in lines[1:]]
        assert best["features"] == ranked[: best["best_size"]]
        assert 0.0 < best["best_merit"] <= 1.0
        assert "best subset" in capsys.readouterr().out

    def test_json_out_does_not_collide(self, workspace, tmp_path):
        out = tmp_path / "trace.json"
        assert run("select", "--input", workspace / "feats.csv",
                   "--out", out) == 0
        assert out.read_text().startswith("rank,feature")
        json.loads((tmp_path / "trace.json.best.json").read_text())

    def test_max_size_from_config(self, workspace, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"cfs_max_size": 2}))
        out = tmp_path / "trace.csv"
        assert run("select", "--config", cfg, "--input",
                   workspace / "feats.csv", "--out", out) == 0
        assert len(out.read_text().splitlines()) == 3


class TestBench:
    def test_filtered_run_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert run("bench", "--features", "Energy", "--out", out) == 0
        printed = capsys.readouterr().out
        assert "Energy" in printed and "slope" in printed
        lines = out.read_text().splitlines()
        assert lines[0] == "feature,n_samples,seconds,slope"
        assert len(lines) == 4
        assert all(line.startswith("Energy,") for line in lines[1:])

    def test_unknown_feature(self, capsys):
        assert run("bench", "--features", "Banana") == 1
        assert "Banana" in capsys.readouterr().err


COMMANDS = ("extract", "evaluate", "select", "synth", "bench")


def test_console_script_is_wired():
    """The ``eegfx`` entry in pyproject.toml runs the CLI, installed or not.

    Calls the ``module:function`` target in a fresh interpreter the way
    the wrapper that ``pip install`` generates does, importing eegfx from
    where this test process found it.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert "eegfx" in scripts
    module, _, function = scripts["eegfx"].partition(":")
    code = f"import sys; from {module} import {function}; sys.exit({function}())"
    path = [str(Path(eegfx.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-c", code, "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    assert proc.returncode == 0, proc.stderr
    for command in COMMANDS:
        assert command in proc.stdout


def test_dependency_floors_cover_numpy2_calls():
    """numpy is the one runtime dependency; ``np.vecdot`` and
    ``np.trapezoid`` exist from numpy 2.0 on."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    dependencies = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    assert dependencies == ["numpy>=2.0"]


@pytest.mark.skipif(shutil.which("eegfx") is None, reason="no eegfx executable on PATH")
def test_installed_console_script_runs():
    proc = subprocess.run(["eegfx", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for command in COMMANDS:
        assert command in proc.stdout
