"""End-to-end integration: protocol + simulator + model + adversary together."""

import numpy as np
import pytest

from repro.core.channel import ChannelSet
from repro.core.program import Objective, optimal_schedule
from repro.core.properties import subset_loss
from repro.netsim.rng import RngRegistry
from repro.protocol.config import ProtocolConfig
from repro.protocol.micss import MicssNode
from repro.protocol.remicss import PointToPointNetwork
from repro.sharing.blakley import BlakleyScheme
from repro.sharing.ramp import RampScheme
from repro.sharing.shamir import ShamirScheme
from repro.workloads.iperf import practical_max_rate, run_iperf
from repro.workloads.setups import lossy_setup


def run_stream(channels, config, symbols, rate, seed=1, schedule=None, drain=20.0,
               fault_plan=None):
    """Send a stream of random payloads; return (sent list, delivered dict, nodes)."""
    registry = RngRegistry(seed)
    network = PointToPointNetwork(channels, config.symbol_size, registry)
    if fault_plan is not None:
        network.apply_faults(fault_plan)
    node_a, node_b = network.node_pair(config, registry, schedule=schedule)
    delivered = {}
    node_b.on_deliver(lambda seq, payload, delay: delivered.__setitem__(seq, payload))
    payload_rng = registry.stream("payloads")
    sent = []

    def offer():
        payload = payload_rng.bytes(config.symbol_size)
        if node_a.send(payload):
            sent.append(payload)

    engine = network.engine
    t = 0.0
    for _ in range(symbols):
        engine.schedule_at(t, offer)
        t += 1.0 / rate
    engine.run_until(t + drain)
    return sent, delivered, (node_a, node_b)


class TestEndToEndIntegrity:
    def test_every_delivered_symbol_is_intact(self):
        channels = lossy_setup()
        config = ProtocolConfig(kappa=2.0, mu=3.0, symbol_size=200)
        sent, delivered, _ = run_stream(channels, config, symbols=800, rate=50.0)
        assert len(delivered) > 700
        for seq, payload in delivered.items():
            assert payload == sent[seq]

    def test_loss_rate_matches_subset_formula(self):
        # Fixed integer (k, m): symbol loss should match l(k, M) for the
        # channels the dynamic scheduler actually picks.  With identical
        # loss on all channels the subset does not matter.
        channels = ChannelSet.from_vectors(
            risks=[0.0] * 4,
            losses=[0.1] * 4,
            delays=[0.01] * 4,
            rates=[100.0] * 4,
        )
        config = ProtocolConfig(kappa=2.0, mu=3.0, symbol_size=100,
                                reassembly_timeout=10.0)
        sent, delivered, _ = run_stream(channels, config, symbols=4000, rate=100.0)
        expected = subset_loss(channels, 2, [0, 1, 2])
        measured = 1.0 - len(delivered) / len(sent)
        assert measured == pytest.approx(expected, abs=0.015)

    def test_explicit_lp_schedule_end_to_end(self):
        channels = lossy_setup()
        schedule = optimal_schedule(channels, Objective.LOSS, 2.0, 3.0, at_max_rate=True)
        config = ProtocolConfig(kappa=2.0, mu=3.0, symbol_size=200)
        sent, delivered, (node_a, _) = run_stream(
            channels, config, symbols=1000, rate=60.0, schedule=schedule
        )
        assert len(delivered) > 900
        for seq, payload in delivered.items():
            assert payload == sent[seq]
        # Channel usage follows the LP schedule's proportions.
        usage = np.array(node_a.sender.shares_per_channel, dtype=float)
        usage /= usage.sum()
        target = schedule.channel_usage() / schedule.channel_usage().sum()
        np.testing.assert_allclose(usage, target, atol=0.05)

    def test_blakley_scheme_end_to_end(self):
        channels = ChannelSet.from_vectors(
            risks=[0.0] * 3, losses=[0.0] * 3, delays=[0.01] * 3, rates=[200.0] * 3
        )
        config = ProtocolConfig(
            kappa=2.0, mu=3.0, symbol_size=48, scheme=BlakleyScheme(max_secret_len=48)
        )
        sent, delivered, _ = run_stream(channels, config, symbols=100, rate=20.0)
        assert len(delivered) == 100
        for seq, payload in delivered.items():
            assert payload == sent[seq]

    def test_determinism_end_to_end(self):
        channels = lossy_setup()
        config = ProtocolConfig(kappa=2.0, mu=3.5, symbol_size=100)
        a = run_stream(channels, config, symbols=300, rate=40.0, seed=3)
        b = run_stream(channels, config, symbols=300, rate=40.0, seed=3)
        assert set(a[1]) == set(b[1])
        assert a[1] == b[1]


class TestFaultToleranceEndToEnd:
    """The protocol + simulator + fault layer together (see also
    tests/test_netsim_faults.py for the per-scenario matrix)."""

    def test_flap_plus_burst_degrades_gracefully(self):
        from repro.netsim.faults import FaultPlan

        channels = lossy_setup()
        config = ProtocolConfig(kappa=2.0, mu=3.0, symbol_size=100)
        plan = (
            FaultPlan()
            .flap(4, period=4.0, down_for=1.5, start=3.0, stop=12.0)
            .burst(3.0, p_bad=0.1, p_good=0.3, loss_bad=0.9, channel=2)
            .end_burst(12.0, channel=2)
        )
        baseline = run_stream(channels, config, symbols=800, rate=50.0, seed=6)
        faulted = run_stream(channels, config, symbols=800, rate=50.0, seed=6,
                             fault_plan=plan)
        # Faults cost symbols but never integrity, and never wedge the run.
        assert 0 < len(faulted[1]) <= len(baseline[1])
        for seq, payload in faulted[1].items():
            assert payload == faulted[0][seq]
        # Deliveries continue after every fault has healed (t=12).
        node_b = faulted[2][1]
        assert node_b.receiver.stats.symbols_delivered == len(faulted[1])
        assert node_b.receiver.pending == 0  # reassembly table fully drained

    def test_partition_heal_resumes_and_matches_baseline_loss_model(self):
        from repro.netsim.faults import FaultPlan

        channels = lossy_setup()
        config = ProtocolConfig(kappa=2.0, mu=3.0, symbol_size=100)
        plan = FaultPlan().partition(5.0).heal(8.0)
        sent, delivered, (node_a, node_b) = run_stream(
            channels, config, symbols=800, rate=50.0, seed=7, fault_plan=plan
        )
        assert len(delivered) > 0
        assert node_b.receiver.pending == 0
        # The source queue shed load during the outage but the pipeline
        # recovered: sender counters stay conserved.
        s = node_a.sender.stats
        assert s.symbols_offered == s.symbols_sent + s.source_drops + node_a.sender.backlog


class TestMicssVsRemicss:
    """The Sec. V comparison: best-effort threshold transport vs MICSS."""

    def _channels(self, loss=0.05):
        return ChannelSet.from_vectors(
            risks=[0.0] * 3,
            losses=[loss] * 3,
            delays=[0.05] * 3,
            rates=[50.0] * 3,
        )

    def _micss_stream(self, channels, symbol_size, seed, symbols, rate, until):
        """Like :func:`run_stream`, over a MICSS node pair."""
        registry = RngRegistry(seed)
        network = PointToPointNetwork(channels, symbol_size, registry)
        node_a = MicssNode(
            network.engine, network.ports_a_out, network.ports_a_in, symbol_size, registry,
            name="a",
        )
        node_b = MicssNode(
            network.engine, network.ports_b_out, network.ports_b_in, symbol_size, registry,
            name="b",
        )
        delivered = {}
        node_b.on_deliver(lambda seq, payload, delay: delivered.__setitem__(seq, payload))
        payload_rng = registry.stream("payloads")
        sent = []

        def offer():
            payload = payload_rng.bytes(symbol_size)
            if node_a.send(payload):
                sent.append(payload)

        engine = network.engine
        for i in range(symbols):
            engine.schedule_at(i / rate, offer)
        engine.run_until(until)
        return sent, delivered, node_a

    def test_remicss_needs_no_retransmission_when_k_below_m(self):
        channels = self._channels()
        config = ProtocolConfig(kappa=2.0, mu=3.0, symbol_size=100,
                                reassembly_timeout=10.0)
        sent, delivered, _ = run_stream(channels, config, symbols=1000, rate=30.0)
        expected_loss = subset_loss(channels, 2, [0, 1, 2])
        measured = 1.0 - len(delivered) / len(sent)
        # Loses only the l(2, M) fraction with zero retransmissions.
        assert measured == pytest.approx(expected_loss, abs=0.015)

    def test_micss_delivers_everything_but_retransmits(self):
        sent, delivered, node_a = self._micss_stream(
            self._channels(), 100, seed=2, symbols=300, rate=30.0, until=100.0
        )
        assert len(delivered) == len(sent)
        assert all(delivered[i] == sent[i] for i in range(len(sent)))
        assert node_a.stats.retransmissions > 0

    def test_remicss_out_delivers_micss_under_loss(self):
        """At κ = µ = n, ReMICSS sheds l(n, C) of the symbols but sends
        faster than reliable MICSS, which stalls on retransmissions."""
        channels = self._channels(loss=0.03)
        _, delivered, node_a = self._micss_stream(
            channels, 1250, seed=11, symbols=4000, rate=100.0, until=60.0
        )
        assert node_a.stats.retransmissions > 0
        config = ProtocolConfig(kappa=3.0, mu=3.0, share_synthetic=True,
                                reassembly_timeout=10.0)
        remicss = run_iperf(channels, config, offered_rate=100.0, duration=40.0, warmup=5.0)
        assert remicss.achieved_rate > len(delivered) / 60.0


class TestDesignAblations:
    """The design choices DESIGN.md calls out, against their alternatives."""

    def test_explicit_lp_schedule_loses_no_more_than_dynamic(self):
        """Sec. V's readiness heuristic gives up little loss-optimality
        against an LP-optimal explicit schedule at the same maximum rate."""
        channels = lossy_setup()
        config = ProtocolConfig(kappa=2.0, mu=3.0, share_synthetic=True,
                                reassembly_timeout=10.0)
        offered = practical_max_rate(channels, config.mu, config.symbol_size)
        schedule = optimal_schedule(channels, Objective.LOSS, 2.0, 3.0, at_max_rate=True)
        window = {"offered_rate": offered, "duration": 20.0, "warmup": 4.0}
        dynamic = run_iperf(channels, config, **window)
        explicit = run_iperf(channels, config, schedule=schedule, **window)
        assert explicit.loss_percent <= dynamic.loss_percent + 1.0
        assert explicit.achieved_rate == pytest.approx(dynamic.achieved_rate, rel=0.1)

    def test_ramp_scheme_nearly_doubles_goodput(self):
        """Ablation of H(Y) = H(X): a (k, L = 2, m) ramp scheme's half-size
        shares nearly double Shamir's channel-limited symbol rate."""
        channels = ChannelSet.from_vectors(
            risks=[0.0] * 3, losses=[0.0] * 3, delays=[0.005] * 3, rates=[40.0] * 3
        )

        def delivered(scheme):
            config = ProtocolConfig(kappa=2.0, mu=3.0, symbol_size=1250, scheme=scheme)
            return len(run_stream(channels, config, symbols=2000, rate=100.0, seed=3,
                                  drain=5.0)[1])

        assert delivered(RampScheme(blocks=2)) > 1.6 * delivered(ShamirScheme())
