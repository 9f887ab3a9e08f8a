"""Schedule failover: LP re-solve over survivors, privacy floor held."""

import math

import pytest

from repro.core.planner import Requirements, plan_max_rate
from repro.netsim.rng import RngRegistry
from repro.protocol.config import ProtocolConfig
from repro.protocol.remicss import PointToPointNetwork
from repro.protocol.resilience import FailoverController
from repro.protocol.resilience.failover import (
    sampler_kappa_floor,
    schedule_min_threshold,
)
from repro.protocol.scheduler import DynamicParameterSampler, ExplicitScheduler
from repro.workloads.setups import diverse_setup

REQUIREMENTS = Requirements(max_risk=0.02)


def build(schedule=None, kappa=2.0, mu=3.0, seed=3):
    channels = diverse_setup()
    registry = RngRegistry(seed)
    network = PointToPointNetwork(channels, 100, registry)
    config = ProtocolConfig(kappa=kappa, mu=mu, symbol_size=100, share_synthetic=True)
    node_a, _ = network.node_pair(config, registry, schedule=schedule)
    return channels, registry, node_a


def build_explicit(requirements=REQUIREMENTS, seed=3):
    channels = diverse_setup()
    plan = plan_max_rate(channels, requirements)
    channels, registry, node = build(schedule=plan.schedule, seed=seed)
    controller = FailoverController(
        node, channels, registry.stream("failover"), requirements=requirements
    )
    return plan, node, controller


class TestKappaFloor:
    def test_explicit_floor_is_min_support_threshold(self):
        plan, _, controller = build_explicit()
        floor = min(k for (k, _m), _p in plan.schedule.support())
        assert sampler_kappa_floor(ExplicitScheduler(plan.schedule, None)) == floor
        assert controller.kappa_floor == floor

    def test_dynamic_floor_is_floor_of_kappa(self):
        channels, registry, node = build(kappa=2.5, mu=3.0)
        assert sampler_kappa_floor(node.sampler) == 2.0


class TestMinKappaPlanning:
    def test_rejects_floor_below_one(self):
        with pytest.raises(ValueError):
            plan_max_rate(diverse_setup(), Requirements(), min_kappa=0.5)

    def test_floor_restricts_the_threshold_grid(self):
        channels = diverse_setup()
        free = plan_max_rate(channels, Requirements())
        floored = plan_max_rate(channels, Requirements(), min_kappa=2.0)
        assert schedule_min_threshold(floored.schedule) >= 2
        assert floored.kappa >= 2.0
        # A constrained search can only do worse (or equal) on rate.
        assert floored.rate <= free.rate + 1e-9


class TestReplanned:
    def test_survivor_plan_respects_the_floor_and_avoids_quarantine(self):
        plan, node, controller = build_explicit()
        record = controller.apply(1.0, frozenset({4}))
        assert record.mode == "replanned"
        assert record.plan is not None
        schedule = node.sampler.schedule
        assert schedule_min_threshold(schedule) >= math.floor(controller.kappa_floor)
        for (_k, members), prob in schedule.support():
            assert 4 not in members
        assert node.sender.selector.excluded == frozenset({4})
        assert node.sender.sampler is node.sampler
        # Availability degrades: the survivor plan is no faster.
        assert record.plan.rate <= plan.rate + 1e-9

    def test_node_sampler_is_the_senders(self):
        _, registry, node = build()
        sampler = DynamicParameterSampler(3.0, 3.0, registry.stream("direct"))
        node.sender.sampler = sampler
        assert node.sampler is sampler

    def test_empty_quarantine_restores_the_base_sampler(self):
        plan, node, controller = build_explicit()
        base = node.sampler
        controller.apply(1.0, frozenset({4}))
        assert node.sampler is not base
        record = controller.apply(2.0, frozenset())
        assert record.mode == "restored"
        assert node.sampler is base
        assert node.sender.selector.excluded == frozenset()

    def test_infeasible_survivors_degrade_and_pause_admission(self):
        # Demand more rate than the four slow channels can carry, so the
        # loss of channel 4 (100 Mbps) makes the LP infeasible.
        requirements = Requirements(max_risk=0.02, min_rate=120.0)
        plan, node, controller = build_explicit(requirements=requirements)
        record = controller.apply(1.0, frozenset({4}))
        assert record.mode == "degraded"
        assert record.error is not None
        assert controller.degraded
        assert node.sender.admission_paused
        # The heal lifts the pause and restores the plan.
        record = controller.apply(2.0, frozenset())
        assert record.mode == "restored"
        assert not controller.degraded
        assert not node.sender.admission_paused

    def test_all_channels_quarantined_degrades(self):
        _, node, controller = build_explicit()
        record = controller.apply(1.0, frozenset(range(5)))
        assert record.mode == "degraded"
        assert node.sender.admission_paused


class TestMasked:
    def test_dynamic_sampler_is_kept_and_selector_masked(self):
        channels, registry, node = build(kappa=2.0, mu=3.0)
        controller = FailoverController(node, channels, registry.stream("failover"))
        base = node.sampler
        record = controller.apply(1.0, frozenset({0}))
        assert record.mode == "masked"
        assert node.sampler is base  # thresholds untouched: kappa preserved
        assert isinstance(node.sampler, DynamicParameterSampler)
        assert node.sender.selector.excluded == frozenset({0})

    def test_too_few_survivors_degrade(self):
        channels, registry, node = build(kappa=2.0, mu=3.0)
        controller = FailoverController(node, channels, registry.stream("failover"))
        # ceil(mu)=3 shares cannot fit on 2 surviving channels.
        record = controller.apply(1.0, frozenset({0, 1, 2}))
        assert record.mode == "degraded"
        assert node.sender.admission_paused

    def test_records_accumulate_in_order(self):
        channels, registry, node = build(kappa=2.0, mu=3.0)
        controller = FailoverController(node, channels, registry.stream("failover"))
        controller.apply(1.0, frozenset({0}))
        controller.apply(2.0, frozenset())
        assert [r.mode for r in controller.records] == ["masked", "restored"]
        assert [r.time for r in controller.records] == [1.0, 2.0]
