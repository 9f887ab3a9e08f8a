"""Every run path tears its network down, so nothing it built waits for
the cyclic collector.

Each case runs once to warm imports and caches, then again with
collection off and ``gc.DEBUG_SAVEALL`` on: a forced collection after the
second run must find no unreachable objects (the fleet cell's version of
this check is in tests/test_fleet_cell_golden.py).
"""

import gc

import pytest

from repro.adversary.active import canonical_attack
from repro.adversary.active.harness import run_under_attack
from repro.netsim.faults import canonical_plan
from repro.protocol.config import ProtocolConfig
from repro.workloads.echo import run_echo
from repro.workloads.iperf import run_iperf
from repro.workloads.setups import diverse_setup, identical_setup
from repro.workloads.traces import run_trace

REAL = ProtocolConfig(kappa=2.0, mu=3.0, symbol_size=256, share_synthetic=False)
SYNTHETIC = ProtocolConfig(kappa=2.0, mu=3.0, share_synthetic=True)


def iperf(config, **kwargs):
    return lambda: run_iperf(
        diverse_setup(), config, offered_rate=40.0, duration=3.0, warmup=1.0,
        seed=3, **kwargs,
    )


CASES = {
    "iperf_real": iperf(REAL),
    # The receiver CPU is saturated, so work is still queued at the end.
    "iperf_cpu": iperf(REAL, sender_cpu_capacity=60.0, receiver_cpu_capacity=20.0),
    "iperf_faults_resilience": iperf(
        SYNTHETIC,
        fault_plan=canonical_plan("burst", 1.5, 3.0, channel=3),
        resilience=True,
    ),
    "iperf_attack": iperf(
        REAL, attack_plan=canonical_attack("targeted_corruption", 1.5, 10.0)
    ),
    "echo": lambda: run_echo(
        identical_setup(10.0, n=3), REAL, offered_rate=2.0, duration=4.0, warmup=1.0
    ),
    "trace": lambda: run_trace(identical_setup(50.0, n=3), REAL, kind="messaging",
                               duration=5.0),
    "attack_auth": lambda: run_under_attack(
        canonical_attack("targeted_partition", 2.0, 6.0), duration=6.0, auth=True
    ),
    "attack_auth_resilience": lambda: run_under_attack(
        canonical_attack("replay_flood", 2.0, 6.0), duration=6.0, auth=True,
        resilience=True,
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_finished_run_is_freed_by_refcount(case):
    run = CASES[case]
    run()  # imports and caches warm up
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        leftovers = len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert leftovers == 0
