"""What the rng registry seeds, and when: streams are seeded on first use,
replay eagerly seeded streams byte for byte, and (κ, µ) tables are shared."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.rng import RandomBytes, RngRegistry
from repro.protocol.config import ProtocolConfig
from repro.protocol.scheduler import DynamicParameterSampler
from repro.workloads.fleet import run_fleet
from repro.workloads.iperf import practical_max_rate, run_iperf
from repro.workloads.setups import SYMBOL_SIZE, diverse_setup

NAMES = ["link0.fwd.loss", "flow17.sched", "nodeA.pad", "workload.payload", "attack.ch2.fwd", ""]


def eager(seed, name):
    """The generator a registry stream replays: seeded when it is made."""
    seed_seq = np.random.SeedSequence(entropy=seed, spawn_key=(zlib.crc32(name.encode()),))
    return np.random.default_rng(seed_seq)


def draws(generator, round_):
    """One round of every draw the repo takes from a stream."""
    return (
        generator.random(),
        generator.random(3).tolist(),
        int(generator.integers(0, 2**40)),
        generator.integers(1, 256, size=4).tolist(),
        generator.bytes(5 + round_),
        float(generator.uniform(-0.5, 0.5)),
    )


@pytest.fixture
def seedings(monkeypatch):
    """Spawn keys of every ``np.random.SeedSequence`` made while it is on."""
    made = []
    real = np.random.SeedSequence

    def counting(*args, **kwargs):
        made.append(kwargs.get("spawn_key"))
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    return made


class TestLazyStreams:
    @given(
        seed=st.integers(0, 2**64 - 1),
        order=st.permutations(range(len(NAMES))),
        rounds=st.integers(1, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_handles_replay_eager_generators(self, seed, order, rounds):
        registry = RngRegistry(seed)
        handles = [registry.stream(NAMES[i]) for i in order]
        twins = [eager(seed, NAMES[i]) for i in order]
        for round_ in range(rounds):
            for handle, twin in zip(handles, twins):
                assert draws(handle, round_) == draws(twin, round_)
        for handle, twin in zip(handles, twins):
            assert handle.bit_generator.state == twin.bit_generator.state

    def test_untouched_handle_seeds_nothing(self, seedings):
        registry = RngRegistry(5)
        handle = registry.stream("never.drawn")
        assert registry.stream("never.drawn") is handle
        assert repr(handle) == "RngStream('never.drawn')"
        assert seedings == []
        handle.random()
        handle.integers(0, 10)
        assert seedings == [(zlib.crc32(b"never.drawn"),)]

    def test_numpy_integer_seed_is_the_same_seed(self):
        assert RngRegistry(np.int64(7)).stream("x").random() == RngRegistry(7).stream("x").random()


class TestConstructionSeeds:
    def test_mixture_sampler_seeds_at_construction(self, seedings):
        stream = RngRegistry(1).stream("flow1.sched")
        DynamicParameterSampler(1.5, 3.0, stream)
        assert len(seedings) == 1

    def test_random_bytes_seeds_at_construction(self, seedings):
        RandomBytes(RngRegistry(1).stream("flow1.src"))
        assert len(seedings) == 1

    def test_only_the_sending_node_seeds_a_pad(self, seedings):
        channels = diverse_setup()
        config = ProtocolConfig(kappa=2.0, mu=3.0, symbol_size=SYMBOL_SIZE)
        rate = practical_max_rate(channels, 3.0, SYMBOL_SIZE)
        run_iperf(channels, config, rate, duration=2.0, warmup=1.0, seed=1)
        assert seedings.count((zlib.crc32(b"nodeA.pad"),)) == 1
        assert (zlib.crc32(b"nodeB.pad"),) not in seedings

    @pytest.mark.parametrize("kappa, mu", [(1.0, 1.0), (2.0, 3.0), (3.0, 4.0)])
    def test_single_atom_sampler_never_seeds(self, seedings, kappa, mu):
        sampler = DynamicParameterSampler(kappa, mu, RngRegistry(1).stream("nodeA.sched"))
        assert {sampler.sample() for _ in range(1000)} == {(int(kappa), int(mu), None)}
        assert seedings == []


class TestFleetSeedings:
    # Before streams were seeded on first use, every stream a cell named was
    # seeded: 44 in the synthetic cell (8 link loss streams, two nodes'
    # schedule and pad streams, 32 flow schedules) and 76 in the
    # authenticated one (plus 32 payload streams).  Now only the 11 flows
    # whose κ or µ is fractional seed a schedule stream, and a pad is seeded
    # at its sender's first split: the real cell adds the sending node's
    # pad and 32 sources, and the node that only receives seeds no pad.
    @pytest.mark.parametrize("synthetic, auth, seeded", [(True, False, 11), (False, True, 44)])
    def test_one_cell_seeds_only_what_it_draws(self, seedings, synthetic, auth, seeded):
        run_fleet(flows=32, shards=1, symbols_per_flow=4, synthetic=synthetic, auth=auth)
        assert len(seedings) == seeded


class TestSharedTables:
    def test_equal_pairs_share_one_table(self):
        registry = RngRegistry(3)
        first = DynamicParameterSampler(2.5, 4.0, registry.stream("a"))
        second = DynamicParameterSampler(2.5, 4.0, registry.stream("b"))
        assert first._pairs is second._pairs
        assert first._cdf is second._cdf
        assert isinstance(first._pairs, tuple) and isinstance(first._cdf, tuple)

    def test_invalid_pair_raises_every_time(self):
        rng = np.random.default_rng(0)
        for _ in range(2):
            with pytest.raises(ValueError):
                DynamicParameterSampler(3.0, 2.0, rng)
