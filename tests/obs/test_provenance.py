"""Provenance collection: config digests, git info, run context."""

from repro import __version__
from repro.config import PearlConfig
from repro.obs.provenance import (
    collect_provenance,
    config_digest,
    git_provenance,
)


class TestConfigDigest:
    def test_none_config(self):
        assert config_digest(None) is None

    def test_stable_for_equal_configs(self):
        assert config_digest(PearlConfig()) == config_digest(PearlConfig())

    def test_changes_with_config(self):
        base = PearlConfig()
        changed = base.with_reservation_window(
            base.power_scaling.reservation_window * 2
        )
        assert config_digest(base) != config_digest(changed)


class TestGitProvenance:
    def test_keys_present(self):
        info = git_provenance()
        assert set(info) == {"commit", "branch", "dirty"}


class TestCollect:
    def test_core_keys(self):
        block = collect_provenance(PearlConfig(), seed=11, experiment="fig9")
        assert block["repro_version"] == __version__
        assert block["seed"] == 11
        assert block["experiment"] == "fig9"
        assert block["config_digest"] is not None
        for key in ("python", "numpy", "platform", "timestamp", "git"):
            assert key in block

    def test_json_serialisable(self):
        import json

        json.dumps(collect_provenance(PearlConfig(), seed=1))
