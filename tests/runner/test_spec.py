"""Unit tests for run/sweep specs: hashing, expansion, spec files."""

import json

import pytest

from repro.runner.spec import (
    BASELINE,
    RunSpec,
    SweepSpec,
    derive_sweep_seeds,
    load_sweep_spec,
    sweep_spec_from_mapping,
)


class TestRunSpecKey:
    def test_key_is_stable_across_instances(self):
        a = RunSpec.single("rf_jamming", seed=7, horizon_s=600.0)
        b = RunSpec.single("rf_jamming", seed=7, horizon_s=600.0)
        assert a.key == b.key

    def test_key_changes_with_any_field(self):
        base = RunSpec.single("rf_jamming", seed=7, horizon_s=600.0)
        variants = [
            RunSpec.single("rf_jamming", seed=8, horizon_s=600.0),
            RunSpec.single("gnss_spoofing", seed=7, horizon_s=600.0),
            RunSpec.single("rf_jamming", seed=7, horizon_s=900.0),
            RunSpec.single("rf_jamming", seed=7, horizon_s=600.0,
                           profile="undefended"),
            RunSpec.single("rf_jamming", seed=7, horizon_s=600.0,
                           start=100.0),
            RunSpec.single("rf_jamming", seed=7, horizon_s=600.0,
                           overrides={"drone_enabled": False}),
            RunSpec.single("rf_jamming", seed=7, horizon_s=600.0,
                           ids_family="signature"),
        ]
        keys = {base.key} | {v.key for v in variants}
        assert len(keys) == len(variants) + 1

    def test_key_ignores_override_ordering(self):
        a = RunSpec.single("baseline", seed=1, horizon_s=60.0,
                           overrides={"n_workers": 1, "drone_enabled": False})
        b = RunSpec.single("baseline", seed=1, horizon_s=60.0,
                           overrides={"drone_enabled": False, "n_workers": 1})
        assert a.key == b.key

    def test_dict_round_trip_preserves_key(self):
        spec = RunSpec.single(
            "wifi_deauth", seed=3, horizon_s=300.0, profile="undefended",
            start=60.0, duration=120.0, ids_family="ensemble",
            overrides={"n_workers": 2},
        )
        clone = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.key == spec.key

    def test_baseline_has_empty_plan(self):
        spec = RunSpec.single(BASELINE, seed=1, horizon_s=60.0)
        assert spec.plan == ()


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        seeds = derive_sweep_seeds(42, 8)
        assert seeds == derive_sweep_seeds(42, 8)
        assert len(set(seeds)) == 8

    def test_different_base_seed_different_seeds(self):
        assert derive_sweep_seeds(1, 4) != derive_sweep_seeds(2, 4)

    def test_prefix_stability(self):
        # growing the sweep must not change the seeds of existing runs
        assert derive_sweep_seeds(42, 8)[:3] == derive_sweep_seeds(42, 3)


class TestSweepExpansion:
    def test_full_grid_size(self):
        grid = SweepSpec(
            campaigns=["rf_jamming", "gnss_spoofing", "baseline"],
            seeds=[1, 2], profiles=["defended", "undefended"],
            horizon_s=120.0,
        )
        specs = grid.expand()
        assert len(specs) == 3 * 2 * 2
        assert len({s.key for s in specs}) == len(specs)

    def test_expansion_order_is_stable(self):
        grid = SweepSpec(campaigns=["a", "b"], seeds=[1, 2], horizon_s=60.0)
        assert [s.key for s in grid.expand()] == [s.key for s in grid.expand()]

    def test_variants_rename_and_override(self):
        grid = SweepSpec(
            campaigns=["rf_jamming"], seeds=[1], horizon_s=60.0,
            variants={"no_drone": {"drone_enabled": False}},
        )
        (spec,) = grid.expand()
        assert spec.campaign == "rf_jamming/no_drone"
        assert dict(spec.overrides) == {"drone_enabled": False}
        # the executable plan still names the real campaign
        assert spec.plan[0][0] == "rf_jamming"

    def test_derived_seeds_when_none_given(self):
        grid = SweepSpec(campaigns=["baseline"], base_seed=9, n_seeds=3,
                         horizon_s=60.0)
        seeds = [s.seed for s in grid.expand()]
        assert seeds == derive_sweep_seeds(9, 3)


class TestSpecFiles:
    def test_toml_round_trip(self, tmp_path):
        path = tmp_path / "grid.toml"
        path.write_text(
            'campaigns = ["rf_jamming", "baseline"]\n'
            "base_seed = 7\n"
            "n_seeds = 2\n"
            "horizon_minutes = 10\n"
            'profiles = ["defended", "undefended"]\n'
            "attack_start = 120.0\n"
            "attack_duration = 300.0\n"
            "\n"
            "[variants.no_drone]\n"
            "drone_enabled = false\n"
        )
        spec = load_sweep_spec(str(path))
        assert spec.campaigns == ["rf_jamming", "baseline"]
        assert spec.horizon_s == 600.0
        assert spec.attack_duration == 300.0
        assert spec.variants == {"no_drone": {"drone_enabled": False}}
        assert len(spec.expand()) == 2 * 2 * 2

    def test_json_spec(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({
            "campaigns": ["gnss_spoofing"],
            "seeds": [5, 6, 7],
            "horizon_s": 300.0,
        }))
        spec = load_sweep_spec(str(path))
        assert spec.resolved_seeds() == [5, 6, 7]
        assert len(spec.expand()) == 3

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep spec keys"):
            sweep_spec_from_mapping({"campaignz": ["typo"]})

    @pytest.mark.parametrize(
        "key", ["campaigns", "seeds", "profiles", "ids_families"]
    )
    @pytest.mark.parametrize("value", [5, "rf_jamming", None, {"a": 1}])
    def test_non_list_value_rejected(self, key, value):
        with pytest.raises(ValueError, match=rf"'{key}' must be a list"):
            sweep_spec_from_mapping({key: value})

    @pytest.mark.parametrize("variants", [5, ["no_drone"], {"no_drone": 5}])
    def test_non_table_variants_rejected(self, variants):
        with pytest.raises(ValueError, match=r"'variants' must be a table"):
            sweep_spec_from_mapping({"variants": variants})

    def test_non_table_spec_rejected(self):
        with pytest.raises(ValueError, match="sweep spec must be a table"):
            sweep_spec_from_mapping(5)
