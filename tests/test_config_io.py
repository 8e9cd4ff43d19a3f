"""Tests for repro.config_io — JSON round-tripping of configurations."""

import json

import pytest

from repro.config import PearlConfig, PhotonicConfig, SimulationConfig
from repro.config_io import (
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)


class TestRoundTrip:
    def test_default_config(self, tmp_path):
        config = PearlConfig()
        path = save_config(config, tmp_path / "config.json")
        assert load_config(path) == config

    def test_customised_config(self, tmp_path):
        config = (
            PearlConfig(
                simulation=SimulationConfig(
                    warmup_cycles=123, measure_cycles=456
                )
            )
            .with_reservation_window(777)
            .with_turn_on_ns(16.0)
        )
        path = save_config(config, tmp_path / "config.json")
        loaded = load_config(path)
        assert loaded == config
        assert loaded.power_scaling.reservation_window == 777
        assert loaded.photonic.laser_turn_on_ns == 16.0

    def test_tuples_restored(self, tmp_path):
        config = PearlConfig(
            photonic=PhotonicConfig(
                wavelength_states=(64, 32, 16),
                laser_power_w=(1.16, 0.581, 0.29),
                serialization_cycles=(2, 4, 8),
            )
        )
        path = save_config(config, tmp_path / "config.json")
        loaded = load_config(path)
        assert loaded.photonic.wavelength_states == (64, 32, 16)
        assert isinstance(loaded.photonic.wavelength_states, tuple)

    def test_json_is_human_readable(self, tmp_path):
        path = save_config(PearlConfig(), tmp_path / "config.json")
        data = json.loads(path.read_text())
        assert data["architecture"]["num_clusters"] == 16
        assert data["photonic"]["laser_power_w"][0] == 1.16


class TestStrictness:
    def test_unknown_section_rejected(self):
        data = config_to_dict(PearlConfig())
        data["bogus"] = {}
        with pytest.raises(ValueError):
            config_from_dict(data)

    def test_unknown_field_rejected(self):
        data = config_to_dict(PearlConfig())
        data["architecture"]["bogus_field"] = 1
        with pytest.raises(ValueError):
            config_from_dict(data)

    def test_partial_config_uses_defaults(self):
        config = config_from_dict({"simulation": {"measure_cycles": 999}})
        assert config.simulation.measure_cycles == 999
        assert config.architecture.num_clusters == 16

    def test_invalid_values_still_validated(self):
        with pytest.raises(ValueError):
            config_from_dict({"architecture": {"num_clusters": 0}})
