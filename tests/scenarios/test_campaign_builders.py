"""Direct coverage of ``scenarios.campaigns.build_campaign``.

Every registered builder is exercised over the kwargs surface the
factory and CLI actually use — default build, explicit ``start``,
bounded and open-ended ``duration`` — plus the error edges: unknown
names, double-arming, and the ``combined`` builder that stages its own
durations (and therefore rejects a ``duration`` kwarg, which the
factory's fallback path must absorb).
"""

import math

import pytest

from repro.scenarios.campaigns import CAMPAIGN_BUILDERS, build_campaign
from repro.scenarios.worksite import ScenarioConfig, build_worksite

ALL_NAMES = sorted(CAMPAIGN_BUILDERS)
SINGLE_STEP = [name for name in ALL_NAMES if name != "combined"]


@pytest.fixture()
def scenario():
    return build_worksite(ScenarioConfig(seed=5))


class TestBuilderMatrix:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_default_build_is_named_and_armable(self, scenario, name):
        campaign = build_campaign(name, scenario)
        assert campaign.name == name
        assert campaign.steps
        assert campaign.attack_types
        assert not campaign.armed
        campaign.arm()
        assert campaign.armed

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_start_kwarg_moves_the_first_step(self, scenario, name):
        campaign = build_campaign(name, scenario, start=123.0)
        assert min(step.start_at for step in campaign.steps) == 123.0

    @pytest.mark.parametrize("name", SINGLE_STEP)
    def test_duration_kwarg_bounds_the_window(self, scenario, name):
        campaign = build_campaign(name, scenario, start=50.0, duration=45.0)
        (step,) = campaign.steps
        assert step.duration == 45.0
        ((_, start, end),) = campaign.ground_truth_windows()
        assert (start, end) == (50.0, 95.0)

    @pytest.mark.parametrize("name", SINGLE_STEP)
    def test_explicit_open_ended_duration(self, scenario, name):
        campaign = build_campaign(name, scenario, start=50.0, duration=None)
        ((_, start, end),) = campaign.ground_truth_windows()
        assert start == 50.0
        assert end == math.inf


class TestCombined:
    def test_stages_its_own_durations(self, scenario):
        campaign = build_campaign("combined", scenario, start=10.0)
        assert len(campaign.steps) == 4
        assert [step.start_at for step in campaign.steps] == [
            10.0, 250.0, 490.0, 730.0,
        ]
        assert all(step.duration is not None for step in campaign.steps)

    def test_rejects_duration_kwarg(self, scenario):
        with pytest.raises(TypeError):
            build_campaign("combined", scenario, duration=60.0)

    def test_factory_fallback_absorbs_the_duration(self):
        from repro.runner.spec import RunSpec
        from repro.scenarios.factory import compose_run

        prepared = compose_run(RunSpec(
            campaign="combined", seed=5, horizon_s=60.0,
            plan=(("combined", 10.0, 60.0),),
        ))
        # the duration was dropped, not fatal: all four staged windows exist
        assert len(prepared.windows) == 4


class TestErrorEdges:
    def test_unknown_name_lists_the_catalogue(self, scenario):
        with pytest.raises(KeyError) as excinfo:
            build_campaign("zero_day", scenario)
        message = str(excinfo.value)
        assert "available" in message
        assert "rf_jamming" in message

    def test_arming_twice_raises(self, scenario):
        campaign = build_campaign("rf_jamming", scenario)
        campaign.arm()
        with pytest.raises(RuntimeError):
            campaign.arm()

    def test_windows_mirror_steps(self, scenario):
        campaign = build_campaign("combined", scenario, start=20.0)
        windows = campaign.ground_truth_windows()
        assert len(windows) == len(campaign.steps)
        for (_, start, end), step in zip(windows, campaign.steps):
            assert start == step.start_at
            assert end == step.start_at + step.duration
