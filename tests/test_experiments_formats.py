"""The one dict format of a sweep's records, and the bytes it hashes to.

``Setting.as_dict``/``from_dict`` and ``Scenario.as_dict``/``from_dict``
are the only place the sweep-definition dicts are written and read;
checkpoints (``sweep_fingerprint``), shard manifests, persisted rows and
service requests all go through them. The literals below were recorded
before the format moved there, so a checkpoint or shard directory
written by an older build still resumes.
"""

import json

import pytest

from repro.distrib.manifest import build_shard_manifests
from repro.experiments.config import (
    DEFAULT_SCENARIO,
    LITERAL_SCENARIO,
    Scenario,
    Setting,
)
from repro.parallel.sweep import sweep_fingerprint
from repro.util.rng import seed_sequence_of

SETTINGS = (
    Setting(k=4, connectivity=0.5, heterogeneity=0.4, mean_g=250.0,
            mean_bw=30.0, mean_maxcon=10.0),
    Setting(k=6, connectivity=0.3, heterogeneity=0.6, mean_g=50.0,
            mean_bw=70.0, mean_maxcon=25.0),
)
DEFINITION = (("greedy", "lprg"), ("maxmin", "sum"), 2)


@pytest.mark.parametrize(
    "scenario, fingerprint",
    [
        (DEFAULT_SCENARIO, "8a5925b5d674ec0291c79bad66393d82d9b48a3a"),
        (LITERAL_SCENARIO, "d9acfc91fcd35ecbd522d82f5d37b8db0c6dac32"),
    ],
)
def test_sweep_fingerprint_is_pinned(scenario, fingerprint):
    assert sweep_fingerprint(SETTINGS, scenario, *DEFINITION, 7) == fingerprint


def test_shard_manifest_campaign_block_is_pinned(tmp_path):
    first = build_shard_manifests(
        SETTINGS, DEFAULT_SCENARIO, *DEFINITION, seed_sequence_of(7),
        n_shards=2, shard_dir=tmp_path,
    )[0]
    assert json.dumps(first.campaign, sort_keys=True) == (
        '{"methods": ["greedy", "lprg"], "n_platforms": 2, '
        '"objectives": ["maxmin", "sum"], "scenario": '
        '{"apply_speed_heterogeneity": true, "payoff_high": 1.2, '
        '"payoff_low": 0.8, "platforms_per_setting": 10, "speed": 100.0}, '
        '"seed": {"entropy": 7, "entropy_is_list": false, "pool_size": 4, '
        '"spawn_key": []}, "settings": [{"K": 4, "connectivity": 0.5, '
        '"heterogeneity": 0.4, "mean_bw": 30.0, "mean_g": 250.0, '
        '"mean_maxcon": 10.0}, {"K": 6, "connectivity": 0.3, '
        '"heterogeneity": 0.6, "mean_bw": 70.0, "mean_g": 50.0, '
        '"mean_maxcon": 25.0}]}'
    )
    assert first.campaign_fingerprint == "8a5925b5d674ec0291c79bad66393d82d9b48a3a"
    assert first.fingerprint == "0dfb8700af310e3b61d148ab147ab6f5a6009e14"
    rebuilt = first.rebuild_sweep()
    assert tuple(rebuilt["settings"]) == SETTINGS
    assert rebuilt["scenario"] == DEFAULT_SCENARIO


class TestSettingDict:
    @pytest.mark.parametrize("setting", SETTINGS)
    def test_round_trip(self, setting):
        assert Setting.from_dict(setting.as_dict()) == setting

    def test_lower_case_k_is_accepted(self):
        data = SETTINGS[0].as_dict()
        data["k"] = data.pop("K")
        assert Setting.from_dict(data) == SETTINGS[0]

    def test_missing_field_raises_key_error(self):
        data = SETTINGS[0].as_dict()
        del data["mean_bw"]
        with pytest.raises(KeyError, match="mean_bw"):
            Setting.from_dict(data)

    @pytest.mark.parametrize(
        "field, value", [("K", "four"), ("connectivity", "x"), ("mean_g", None)]
    )
    def test_malformed_number_names_its_field(self, field, value):
        data = dict(SETTINGS[0].as_dict(), **{field: value})
        with pytest.raises(ValueError, match=repr(field)):
            Setting.from_dict(data)

    def test_not_a_dict(self):
        with pytest.raises(TypeError, match="must be a dict"):
            Setting.from_dict([4, 0.5])


class TestScenarioDict:
    @pytest.mark.parametrize("scenario", [DEFAULT_SCENARIO, LITERAL_SCENARIO])
    def test_round_trip(self, scenario):
        assert Scenario.from_dict(scenario.as_dict()) == scenario

    def test_missing_keys_take_defaults(self):
        assert Scenario.from_dict({}) == DEFAULT_SCENARIO
        assert Scenario.from_dict({"payoff_high": 2}) == Scenario(payoff_high=2.0)

    def test_unknown_key_is_refused(self):
        with pytest.raises(ValueError, match="payoff_hi"):
            Scenario.from_dict({"payoff_hi": 2.0})

    def test_malformed_number_names_its_field(self):
        with pytest.raises(ValueError, match="'speed'"):
            Scenario.from_dict({"speed": "fast"})
