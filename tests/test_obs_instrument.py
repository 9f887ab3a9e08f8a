"""End-to-end observability: instrumented iperf runs, seeded determinism,
fault-matrix counter reconciliation, and zero perturbation of results."""

import pytest

from repro.netsim.engine import Engine
from repro.obs import Observability, metrics_to_jsonl, trace_to_jsonl
from repro.protocol.config import ProtocolConfig
from repro.workloads import iperf
from repro.workloads.iperf import practical_max_rate, run_iperf
from repro.workloads.setups import FAULT_SCENARIOS, diverse_setup, lossy_setup
from repro.workloads.setups import testbed_fault_plan as fault_plan_for

SEED = 5
WARMUP = 2.0
DURATION = 8.0


def summed(samples, name):
    """One series' value summed over its label sets."""
    return sum(sample["value"] for sample in samples if sample["name"] == name)


def run(obs=None, scenario=None, seed=SEED, setup=diverse_setup, channel=4):
    channels = setup()
    config = ProtocolConfig(kappa=2.0, mu=3.0, share_synthetic=True)
    offered = 0.9 * practical_max_rate(channels, config.mu, config.symbol_size)
    plan = fault_plan_for(scenario, 30.0, 70.0, channel=channel) if scenario else None
    return run_iperf(
        channels,
        config,
        offered_rate=offered,
        duration=DURATION,
        warmup=WARMUP,
        seed=seed,
        fault_plan=plan,
        obs=obs,
    )


def by_name(samples, name):
    return [s for s in samples if s["name"] == name]


class TestEngineDispatchHook:
    def test_hook_sees_every_event(self):
        engine = Engine()
        seen = []
        engine.set_dispatch_hook(lambda event, depth: seen.append((event.time, depth)))
        engine.schedule_at(1.0, lambda: None)
        engine.schedule_at(2.0, lambda: None)
        engine.run()
        assert [t for t, _ in seen] == [1.0, 2.0]

    def test_cancelled_events_not_counted(self):
        engine = Engine()
        seen = []
        engine.set_dispatch_hook(lambda event, depth: seen.append(event.time))
        event = engine.schedule_at(1.0, lambda: None)
        event.cancel()
        engine.run()
        assert seen == []

    def test_hook_removable(self):
        engine = Engine()
        engine.set_dispatch_hook(lambda event, depth: 1 / 0)
        engine.set_dispatch_hook(None)
        engine.schedule_at(1.0, lambda: None)
        engine.run()  # would raise if the hook still fired


class TestInstrumentedRun:
    def test_counters_match_component_stats(self):
        obs = Observability.create(tracing=True)
        result = run(obs)
        samples = obs.snapshot()
        node_a = [
            s for s in by_name(samples, "sim_sender_symbols_sent_total")
            if s["labels"]["node"] == "nodeA"
        ]
        assert len(node_a) == 1
        # The iperf result reports whole-run sender stats for node A.
        assert node_a[0]["value"] == float(result.sender_stats["symbols_sent"])
        delivered = [
            s for s in by_name(samples, "sim_receiver_symbols_delivered_total")
            if s["labels"]["node"] == "nodeB"
        ]
        assert delivered[0]["value"] == float(result.receiver_stats["symbols_delivered"])
        # Link delivery counters agree with the engine-level accounting.
        fwd_delivered = sum(
            s["value"] for s in by_name(samples, "sim_link_delivered_total")
            if s["labels"]["direction"] == "fwd"
        )
        shares_received = result.receiver_stats["shares_received"]
        assert fwd_delivered == float(shares_received)

    def test_latency_histogram_counts_deliveries(self):
        obs = Observability.create(tracing=False)
        result = run(obs)
        samples = obs.snapshot()
        hist = [
            s for s in by_name(samples, "sim_receiver_reconstruct_latency")
            if s["labels"]["node"] == "nodeB"
        ]
        assert len(hist) == 1
        assert hist[0]["count"] == result.receiver_stats["symbols_delivered"]
        assert hist[0]["sum"] > 0.0

    def test_schedule_picks_and_stalls_exported(self):
        obs = Observability.create(tracing=False)
        run(obs)
        samples = obs.snapshot()
        picks = [
            s for s in by_name(samples, "sim_sender_schedule_picks_total")
            if s["labels"]["node"] == "nodeA"
        ]
        assert picks, "dynamic sampler picks should be exported"
        assert sum(s["value"] for s in picks) > 0
        # (kappa, mu) = (2, 3) is deterministic: exactly the (2, 3) atom.
        assert picks[0]["labels"]["k"] == "2"
        assert picks[0]["labels"]["m"] == "3"
        assert by_name(samples, "sim_sender_readiness_stalls_total")

    def test_engine_and_trace_series_present(self):
        obs = Observability.create(tracing=True)
        run(obs)
        samples = obs.snapshot()
        names = {s["name"] for s in samples}
        assert "sim_engine_events_processed_total" in names
        assert "sim_engine_events_total" in names
        assert "sim_engine_queue_depth_max" in names
        assert "sim_receiver_occupancy" in names
        assert any(e.name == "share_tx" for e in obs.tracer.events)

    def test_observability_does_not_perturb_results(self):
        plain = run(None)
        observed = run(Observability.create(tracing=True))
        assert observed.achieved_rate == plain.achieved_rate
        assert observed.symbols_delivered == plain.symbols_delivered
        assert observed.loss_fraction == plain.loss_fraction
        assert observed.sender_stats == plain.sender_stats
        assert observed.receiver_stats == plain.receiver_stats

    def test_disabled_observability_is_silent(self, monkeypatch):
        # Tracing off: every wired component keeps a None tracer, and the
        # metrics are exactly those of a traced run.
        wired = {"instrument_node": [], "instrument_timeline": []}

        def recording(name, wire):
            def record(obs, part):
                wired[name].append(part)
                wire(obs, part)

            return record

        for name in wired:
            monkeypatch.setattr(iperf, name, recording(name, getattr(iperf, name)))
        traced = Observability.create(tracing=True)
        run(traced, scenario="flap")
        for parts in wired.values():
            parts.clear()
        obs = Observability.create(tracing=False)
        run(obs, scenario="flap")
        assert obs.tracer is None
        nodes, injectors = wired["instrument_node"], wired["instrument_timeline"]
        assert len(nodes) == 2 and len(injectors) == 1
        for node in nodes:
            assert node.sender.tracer is None and node.receiver.tracer is None
        assert injectors[0].tracer is None
        assert metrics_to_jsonl(obs.snapshot()) == metrics_to_jsonl(traced.snapshot())


class TestSeededDeterminism:
    def test_same_seed_identical_metrics_and_trace_dump(self):
        dumps = []
        for _ in range(2):
            obs = Observability.create(tracing=True)
            run(obs, scenario="flap")
            dumps.append(
                (metrics_to_jsonl(obs.snapshot()), trace_to_jsonl(obs.tracer.events))
            )
        assert dumps[0][0] == dumps[1][0]
        assert dumps[0][1] == dumps[1][1]

    def test_different_seed_differs(self):
        # diverse_setup is loss-free and the (2, 3) sampler is degenerate,
        # so nothing there consumes randomness; the Lossy setup does.
        texts = []
        for seed in (1, 2):
            obs = Observability.create(tracing=False)
            run(obs, seed=seed, setup=lossy_setup)
            texts.append(metrics_to_jsonl(obs.snapshot()))
        assert texts[0] != texts[1]


class TestFaultMatrix:
    """Every canonical scenario, reconciled against the injector's summary."""

    @pytest.mark.parametrize("scenario", FAULT_SCENARIOS)
    def test_fault_counters_match_injector_summary(self, scenario):
        obs = Observability.create(tracing=True)
        result = run(obs, scenario=scenario)
        samples = obs.snapshot()
        summary = result.fault_summary
        assert summary is not None and summary["applied"] > 0
        applied_metric = sum(
            s["value"] for s in by_name(samples, "sim_fault_events_total")
        )
        assert applied_metric == float(summary["applied"])
        by_action_metric = {
            s["labels"]["action"]: s["value"]
            for s in by_name(samples, "sim_fault_events_total")
        }
        assert by_action_metric == {
            action: float(count) for action, count in summary["by_action"].items()
        }
        # The tracer saw each applied event too.
        fault_traces = [e for e in obs.tracer.events if e.name == "fault_applied"]
        assert len(fault_traces) == summary["applied"]

    @pytest.mark.parametrize("scenario", ["flap", "partition_heal"])
    def test_outage_scenarios_report_down_drops(self, scenario):
        obs = Observability.create(tracing=False)
        # Fault the slow 5 Mbps channel: its long serialisation times make
        # mid-wire aborts (counted as down_drops) certain in a short run.
        run(obs, scenario=scenario, channel=0)
        samples = obs.snapshot()
        down_drops = summed(samples, "sim_link_down_drops_total")
        assert down_drops > 0
        downs = summed(samples, "sim_link_downs_total")
        ups = summed(samples, "sim_link_ups_total")
        assert downs > 0 and ups > 0
