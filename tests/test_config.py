"""Run configuration parsing, defaults, validation, and overrides."""

import dataclasses

import pytest

from eegfx.config import RunConfig
from eegfx.signals import DEFAULT_MONTAGE, Montage
from eegfx.wavelets import LEVELS


class TestDefaults:
    def test_protocol_defaults(self):
        cfg = RunConfig()
        assert cfg.width_s == 4.0
        assert cfg.stride_s == 1.0
        assert cfg.wavelet == "d4"
        assert cfg.levels == 5
        assert cfg.features is None
        assert cfg.montage == DEFAULT_MONTAGE
        assert cfg.kde_grid == 4096
        assert cfg.cfs_bins == 10
        assert cfg.threshold == 4.5
        assert cfg.threads == 1

    def test_default_montage_is_sixteen_channels(self):
        assert len(DEFAULT_MONTAGE.all_channels) == 16


class TestJson:
    def test_round_trip(self):
        cfg = RunConfig(
            width_s=2.0,
            features=("Mean", "Energy"),
            montage=Montage(left=("A",), right=("B",)),
            threads=4,
        )
        assert RunConfig.from_json(cfg.to_json()) == cfg

    def test_partial_file_keeps_defaults(self):
        cfg = RunConfig.from_json('{"width_s": 8.0}')
        assert cfg.width_s == 8.0
        assert cfg.stride_s == 1.0
        assert cfg.wavelet == "d4"

    def test_load_names_file_on_error(self, tmp_path):
        f = tmp_path / "run.json"
        f.write_text('{"widht_s": 8.0}')
        with pytest.raises(ValueError, match=r"run\.json.*widht_s"):
            RunConfig.load(f)

    def test_load_names_file_on_malformed_value(self, tmp_path):
        f = tmp_path / "run.json"
        f.write_text('{"width_s": "4"}')
        with pytest.raises(ValueError, match=r"run\.json: width_s must be a number"):
            RunConfig.load(f)

    def test_load_reads_file(self, tmp_path):
        f = tmp_path / "run.json"
        f.write_text('{"stride_s": 0.5}')
        assert RunConfig.load(f).stride_s == 0.5

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            RunConfig.from_json('{"epoch_width": 4.0}')

    def test_levels_is_not_a_key(self):
        # the DWT depth is fixed by eegfx.wavelets, so a file cannot set it
        assert "levels" not in RunConfig().to_json()
        with pytest.raises(ValueError, match=r"unknown config keys \['levels'\]"):
            RunConfig.from_json('{"levels": 5}')

    def test_invalid_json_rejected(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            RunConfig.from_json("width_s: 4")

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            RunConfig.from_json("[1, 2]")

    def test_montage_needs_both_sides(self):
        with pytest.raises(ValueError, match="left.*right"):
            RunConfig.from_json('{"montage": {"left": ["A"]}}')

    def test_montage_parses(self):
        cfg = RunConfig.from_json(
            '{"montage": {"left": ["A", "B"], "right": ["C"]}}'
        )
        assert cfg.montage == Montage(left=("A", "B"), right=("C",))

    def test_null_features_means_full_catalog(self):
        assert RunConfig.from_json('{"features": null}').features is None

    @pytest.mark.parametrize(
        "body, match",
        [
            ('{"features": "Energy"}', "features"),
            ('{"montage": {"left": "F3", "right": "C4"}}', "left"),
            ('{"montage": {"left": ["F3"], "right": "C4"}}', "right"),
            ('{"kde_grid": 100.5}', "kde_grid"),
            ('{"cfs_bins": 3.5}', "cfs_bins"),
            ('{"cfs_max_size": 2.5}', "cfs_max_size"),
            ('{"levels": "5"}', "levels"),
            ('{"threads": true}', "threads"),
            ('{"width_s": "4"}', r"width_s must be a number > 0, got '4'"),
            ('{"width_s": true}', r"width_s must be a number > 0, got True"),
            ('{"stride_s": null}', r"stride_s must be a number > 0, got None"),
            ('{"threshold": "5"}', r"threshold must be a number >= 0, got '5'"),
            ('{"features": 5}', r"features must be a list of names, got 5"),
            ('{"features": ["Energy", 3]}', r"features must be a list of names, got 3 in it"),
            ('{"wavelet": ["d4"]}', r"unknown wavelet \['d4'\]"),
        ],
    )
    def test_malformed_values_rejected(self, body, match):
        with pytest.raises(ValueError, match=match):
            RunConfig.from_json(body)

    def test_integral_counts_are_stored_as_int(self):
        cfg = RunConfig.from_json('{"kde_grid": 1024.0}')
        assert cfg.kde_grid == 1024
        assert isinstance(cfg.kde_grid, int)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(width_s=0.0), "width"),
            (dict(stride_s=-1.0), "stride"),
            (dict(wavelet="sym5"), "unknown wavelet"),
            (dict(threshold=-1.0), "threshold"),
            (dict(threads=0), "threads"),
            (dict(features=()), "at least one"),
            (dict(kde_grid=4), "grid"),
            (dict(cfs_bins=1), "bins"),
            (dict(cfs_max_size=0), "cfs_max_size"),
        ],
    )
    def test_rejects(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            RunConfig(**kwargs)

    def test_levels_is_a_constant_not_a_field(self):
        cfg = RunConfig()
        assert cfg.levels == RunConfig.levels == LEVELS == 5
        with pytest.raises(TypeError, match="levels"):
            RunConfig(levels=4)
        with pytest.raises(TypeError, match="levels"):
            cfg.replace(levels=4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.levels = 4


class TestReplace:
    def test_none_overrides_are_ignored(self):
        cfg = RunConfig(width_s=8.0)
        assert cfg.replace(width_s=None, stride_s=None) == cfg

    def test_values_apply(self):
        cfg = RunConfig().replace(wavelet="d8", threads=3)
        assert cfg.wavelet == "d8"
        assert cfg.threads == 3

    def test_replaced_config_is_revalidated(self):
        with pytest.raises(ValueError, match="threads"):
            RunConfig().replace(threads=-2)
