"""The bounded repair buffer: NACKs in, budgeted retransmissions out."""

from repro.netsim.rng import RngRegistry
from repro.protocol.resilience import RepairBuffer
from repro.protocol.resilience.config import REPAIR_BUFFER_LIMIT


class NoJitter:
    """A stream whose every draw is 0, so repair delays are exact."""

    def random(self):
        return 0.0


def make_buffer(seed=5):
    return RepairBuffer(RngRegistry(seed).stream("resilience.repair"))


def remember(buffer, seq, k=2, m=3, offered_at=0.0, flow=0):
    # Synthetic-mode shares: position i holds share index i+1 (None body).
    buffer.remember(flow, seq, k, m, offered_at, shares=(None,) * m)


class TestJobs:
    def test_missing_indices_complement_have(self):
        buffer = make_buffer()
        remember(buffer, seq=7, k=3, m=5)
        job = buffer.handle_nack(1.0, 0, 7, have=[2, 4])
        assert job is not None
        assert job.seq == 7
        assert (job.k, job.m, job.round) == (3, 5, 1)
        # Needs k - held = 1 more share, from the missing set {1, 3, 5}.
        assert [index for index, _share in job.shares] == [1]

    def test_exactly_enough_shares_to_reach_k(self):
        buffer = make_buffer()
        remember(buffer, seq=1, k=3, m=4)
        job = buffer.handle_nack(1.0, 0, 1, have=[2])
        assert len(job.shares) == 2  # k=3, held 1

    def test_backoff_grows_per_round(self):
        buffer = RepairBuffer(NoJitter())
        remember(buffer, seq=1)
        first = buffer.handle_nack(1.0, 0, 1, have=[1])
        assert first.send_at == 1.0 + 0.25  # REPAIR_BACKOFF
        second = buffer.handle_nack(first.send_at + 0.1, 0, 1, have=[1])
        assert second.round == 2
        # REPAIR_BACKOFF_FACTOR = 2 doubles the delay per round.
        assert second.send_at == (first.send_at + 0.1) + 0.5

    def test_jitter_is_seeded_and_bounded(self):
        delays = []
        for _ in range(2):
            buffer = make_buffer(seed=9)
            remember(buffer, seq=1)
            delays.append(buffer.handle_nack(0.0, 0, 1, have=[1]).send_at)
        assert delays[0] == delays[1]  # same stream, same jitter
        # REPAIR_JITTER = 0.25 of the 0.25 first-round delay.
        assert 0.25 <= delays[0] <= 0.25 + 0.0625


class TestBounds:
    def test_unknown_seq_is_counted(self):
        buffer = make_buffer()
        assert buffer.handle_nack(1.0, 0, 99, have=[1]) is None
        assert buffer.unknown_nacks == 1

    def test_budget_exhaustion(self):
        buffer = make_buffer()
        remember(buffer, seq=1)
        now = 1.0
        for expected_round in (1, 2):
            job = buffer.handle_nack(now, 0, 1, have=[1])
            assert job.round == expected_round
            now = job.send_at + 0.01
        assert buffer.handle_nack(now, 0, 1, have=[1]) is None
        assert buffer.budget_exhausted == 1

    def test_duplicate_nack_before_send_time(self):
        buffer = make_buffer()
        remember(buffer, seq=1)
        job = buffer.handle_nack(1.0, 0, 1, have=[1])
        assert buffer.handle_nack(job.send_at - 0.1, 0, 1, have=[1]) is None
        assert buffer.duplicate_nacks == 1

    def test_nothing_needed_is_a_duplicate(self):
        buffer = make_buffer()
        remember(buffer, seq=1, k=2, m=3)
        assert buffer.handle_nack(1.0, 0, 1, have=[1, 2]) is None
        assert buffer.duplicate_nacks == 1

    def test_buffer_evicts_oldest_when_full(self):
        assert REPAIR_BUFFER_LIMIT == 4096
        buffer = make_buffer()
        for seq in range(REPAIR_BUFFER_LIMIT + 2):  # 4,098 symbols
            remember(buffer, seq)
        assert len(buffer) == REPAIR_BUFFER_LIMIT
        assert buffer.handle_nack(1.0, 0, 1, have=[1]) is None  # evicted
        assert buffer.unknown_nacks == 1
        assert buffer.handle_nack(1.0, 0, 2, have=[1]) is not None
        assert buffer.handle_nack(1.0, 0, REPAIR_BUFFER_LIMIT + 1, have=[1]) is not None
