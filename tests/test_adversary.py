"""Adversary: eavesdropping, ground-truth reconstruction, Monte-Carlo checks."""

import numpy as np
import pytest

from repro.adversary.eavesdropper import Eavesdropper
from repro.adversary.montecarlo import (
    estimate_schedule_properties,
    estimate_subset_properties,
)
from repro.core.channel import ChannelSet
from repro.core.optimal import max_privacy_risk
from repro.core.properties import subset_loss, subset_risk
from repro.core.schedule import ShareSchedule
from repro.netsim.engine import Engine
from repro.netsim.link import Link
from repro.netsim.packet import Datagram
from repro.netsim.rng import RngRegistry
from repro.protocol.config import ProtocolConfig
from repro.protocol.remicss import PointToPointNetwork
from repro.protocol.wire import encode_share
from repro.sharing.shamir import ShamirScheme


def run_with_adversary(risks, kappa, mu, symbols=3000, seed=5):
    """Send symbols through the protocol with an eavesdropper attached."""
    n = len(risks)
    channels = ChannelSet.from_vectors(
        risks=risks,
        losses=[0.0] * n,
        delays=[0.001] * n,
        rates=[100.0] * n,
    )
    registry = RngRegistry(seed)
    network = PointToPointNetwork(channels, 64, registry)
    config = ProtocolConfig(kappa=kappa, mu=mu, symbol_size=64)
    node_a, node_b = network.node_pair(config, registry)
    adversary = Eavesdropper(
        links=[duplex.forward for duplex in network.duplex],
        risks=risks,
        rng=registry.stream("adversary"),
        scheme=ShamirScheme(),
    )
    originals = {}
    payload_rng = registry.stream("payloads")
    sent = {"count": 0}

    def offer():
        payload = payload_rng.bytes(64)
        if node_a.send(payload):
            originals[(0, sent["count"])] = payload
            sent["count"] += 1

    t = 0.0
    engine = network.engine
    # Offer well below capacity so every symbol is transmitted.
    for _ in range(symbols):
        engine.schedule_at(t, offer)
        t += 0.02
    engine.run_until(t + 5.0)
    return adversary, originals, node_a


class TestEavesdropper:
    def test_empirical_risk_matches_model(self):
        risks = [0.3, 0.5, 0.4]
        adversary, originals, node_a = run_with_adversary(risks, kappa=2.0, mu=3.0)
        channels = ChannelSet.from_vectors(
            risks=risks, losses=[0.0] * 3, delays=[0.0] * 3, rates=[1.0] * 3
        )
        predicted = subset_risk(channels, 2, [0, 1, 2])
        empirical = adversary.compromise_rate(node_a.sender.stats.symbols_sent)
        assert empirical == pytest.approx(predicted, abs=0.03)

    def test_reconstructed_plaintexts_are_correct(self):
        adversary, originals, _ = run_with_adversary(
            [0.5, 0.5, 0.5], kappa=2.0, mu=3.0, symbols=500
        )
        assert adversary.compromised_count() > 0
        assert adversary.verify_plaintexts(originals)

    def test_zero_risk_channels_leak_nothing(self):
        adversary, _, _ = run_with_adversary([0.0, 0.0, 0.0], kappa=1.0, mu=1.0, symbols=200)
        assert adversary.compromised_count() == 0
        assert adversary.shares_captured == 0

    def test_full_risk_with_k1_compromises_everything(self):
        adversary, _, node = run_with_adversary([1.0, 1.0, 1.0], kappa=1.0, mu=1.0, symbols=200)
        assert adversary.compromised_count() == node.sender.stats.symbols_sent

    def test_higher_kappa_reduces_compromise(self):
        rates = {}
        for kappa in (1.0, 3.0):
            adversary, _, node = run_with_adversary(
                [0.4, 0.4, 0.4], kappa=kappa, mu=3.0, symbols=1500
            )
            rates[kappa] = adversary.compromise_rate(node.sender.stats.symbols_sent)
        assert rates[3.0] < rates[1.0]

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            Eavesdropper(links=[], risks=[0.5], rng=rng)


def run_two_flows(risk, symbols_per_flow, seed, synthetic=False):
    """Flows 1 and 2 share one sender (κ = 2, µ = 3) under a tap at ``risk``."""
    channels = ChannelSet.from_vectors(
        risks=[risk] * 3, losses=[0.0] * 3, delays=[0.001] * 3, rates=[50.0] * 3
    )
    registry = RngRegistry(seed)
    network = PointToPointNetwork(channels, 64, registry)
    config = ProtocolConfig(kappa=2.0, mu=3.0, symbol_size=64, share_synthetic=synthetic)
    node_a, _ = network.node_pair(config, registry)
    adversary = Eavesdropper(
        links=[duplex.forward for duplex in network.duplex],
        risks=[risk] * 3,
        rng=registry.stream("adversary"),
        scheme=ShamirScheme(),
    )
    payload_rng = registry.stream("payloads")
    originals = {}
    for seq in range(symbols_per_flow):
        for flow in (1, 2):
            payload = None if synthetic else payload_rng.bytes(64)
            originals[(flow, seq)] = payload
            network.engine.schedule_at(
                (2 * seq + flow) * 0.025, node_a.sender.offer, payload, flow
            )
    network.engine.run_until(symbols_per_flow * 0.05 + 5.0)
    assert node_a.sender.stats.symbols_sent == 2 * symbols_per_flow
    return adversary, originals


class TestEavesdropperFlows:
    """Every flow numbers its symbols from 0, so shares group by (flow, seq)."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_each_secret_is_rebuilt_from_its_own_flow(self, seed):
        adversary, originals = run_two_flows(0.5, 200, seed)
        # z(2, {0, 1, 2}) at risk 0.5 is 1/2: about 200 of 400 symbols.
        assert adversary.compromised_count() == pytest.approx(200, abs=40)
        assert adversary.verify_plaintexts(originals)

    def test_full_risk_compromises_every_symbol_of_every_flow(self):
        adversary, originals = run_two_flows(1.0, 10, 5)
        assert adversary.compromised_count() == 20
        assert adversary.verify_plaintexts(originals)

    def test_synthetic_shares_count_every_symbol_of_every_flow(self):
        adversary, _ = run_two_flows(1.0, 10, 5, synthetic=True)
        assert adversary.compromised_count() == 20
        assert adversary.symbols_observed == {(f, s) for f in (1, 2) for s in range(10)}


def tapped_link():
    """One lossless link under a tap that captures every share."""
    engine = Engine()
    link = Link(
        engine, byte_rate=1e6, loss=0.0, delay=0.0,
        rng=np.random.default_rng(0), queue_limit=100,
    )
    adversary = Eavesdropper(
        links=[link], risks=[1.0], rng=np.random.default_rng(1), scheme=ShamirScheme()
    )
    return engine, link, adversary


def send_shares(engine, link, packets):
    for packet in packets:
        link.send(Datagram(size=len(packet), payload=packet))
    engine.run()


class TestSymbolKeys:
    SECRETS = {1: b"flow one secret!", 2: b"flow two secret!"}

    def packets(self, flow, seq=0):
        """The two shares (k = 2) of ``flow``'s secret, encoded as symbol ``seq``."""
        shares = ShamirScheme().split(self.SECRETS[flow], 2, 2, np.random.default_rng(flow))
        return [encode_share(seq, share, "shamir-gf256", flow=flow) for share in shares]

    def test_shares_of_two_flows_never_meet(self):
        engine, link, adversary = tapped_link()
        one, two = self.packets(1), self.packets(2)
        send_shares(engine, link, [one[0], two[1]])
        assert adversary.symbols_observed == {(1, 0), (2, 0)}
        assert adversary.compromised == {}
        send_shares(engine, link, [one[1]])
        assert adversary.compromised == {(1, 0): self.SECRETS[1]}

    def test_verify_plaintexts_checks_the_flow(self):
        engine, link, adversary = tapped_link()
        send_shares(engine, link, self.packets(1, seq=4))
        secret = self.SECRETS[1]
        assert adversary.verify_plaintexts({(1, 4): secret})
        assert not adversary.verify_plaintexts({(2, 4): secret})
        assert not adversary.verify_plaintexts({(0, 4): secret})

    def test_synthetic_shares_group_by_flow(self):
        engine, link, adversary = tapped_link()
        for flow in (1, 2, 1):
            link.send(Datagram(size=20, meta={"seq": 0, "k": 2, "flow": flow}))
        engine.run()
        assert adversary.symbols_observed == {(1, 0), (2, 0)}
        assert adversary.compromised == {(1, 0): b""}

    def test_synthetic_share_without_a_flow_is_flow_zero(self):
        engine, link, adversary = tapped_link()
        for _ in range(2):
            link.send(Datagram(size=20, meta={"seq": 4, "k": 2}))
        engine.run()
        assert adversary.compromised == {(0, 4): b""}


class TestRepeatedIndices:
    """A repair can resend one share index, and the tap can capture both copies."""

    def test_a_repeated_index_does_not_block_reconstruction(self):
        engine, link, adversary = tapped_link()
        first, second = TestSymbolKeys().packets(1)
        send_shares(engine, link, [first, first])
        assert adversary.compromised == {}
        send_shares(engine, link, [second])
        assert adversary.compromised == {(1, 0): TestSymbolKeys.SECRETS[1]}

    def test_a_repeated_synthetic_index_counts_once(self):
        engine, link, adversary = tapped_link()
        for index in (1, 1):
            link.send(Datagram(size=20, meta={"seq": 3, "k": 2, "index": index}))
        engine.run()
        assert adversary.compromised == {}
        link.send(Datagram(size=20, meta={"seq": 3, "k": 2, "index": 2}))
        engine.run()
        assert adversary.compromised == {(0, 3): b""}


class TestMonteCarloEstimators:
    def test_subset_estimates_match_formulas(self, five_channels, rng):
        estimate = estimate_subset_properties(five_channels, 3, [0, 1, 2, 3], rng, samples=150_000)
        assert estimate.risk == pytest.approx(
            subset_risk(five_channels, 3, [0, 1, 2, 3]), abs=0.01
        )
        assert estimate.loss == pytest.approx(
            subset_loss(five_channels, 3, [0, 1, 2, 3]), abs=0.01
        )

    def test_schedule_estimates_match_formulas(self, five_channels, rng):
        schedule = ShareSchedule(
            five_channels,
            {(1, frozenset({0, 4})): 0.4, (3, frozenset({0, 1, 2, 3, 4})): 0.6},
        )
        estimate = estimate_schedule_properties(schedule, rng, samples=150_000)
        assert estimate.risk == pytest.approx(schedule.privacy_risk(), abs=0.01)
        assert estimate.loss == pytest.approx(schedule.loss(), abs=0.01)
        assert estimate.delay == pytest.approx(schedule.delay(), rel=0.05)

    def test_max_privacy_schedule_estimate(self, five_channels, rng):
        value, schedule = max_privacy_risk(five_channels)
        estimate = estimate_schedule_properties(schedule, rng, samples=300_000)
        assert estimate.risk == pytest.approx(value, abs=0.005)

    def test_invalid_subset_rejected(self, five_channels, rng):
        with pytest.raises(ValueError):
            estimate_subset_properties(five_channels, 3, [0, 1], rng)
