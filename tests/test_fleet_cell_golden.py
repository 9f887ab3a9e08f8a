"""Fixed-seed goldens for one fleet cell: real, authenticated and synthetic.

Each case runs :func:`repro.fleet.cell.run_cell` on the same six flows over
four slow, lossy channels (deep sender queues, late shares) and pins every
flow's delivery digest and κ audit plus the cell's sender, receiver and
mux counters.  The literals are the protocol's observable behaviour: a
refactor of the send or receive path that keeps them keeps the wire
shares, the delivery order, the payloads and the delays.  ``events`` is not pinned -- it counts
engine bookkeeping, not behaviour.  The same cells also check that a
finished cell leaves no reference cycles behind.
"""

import gc

import pytest

from repro.fleet.cell import run_cell
from repro.fleet.spec import synthesize_fleet

SEED = 12345

#: Per-flow delivery digests (every flow delivers all 8 symbols).
DIGESTS = {
    "real": {
        "1": "e2dac95bf1affb62e27c5f4f51cea016e8b455c2f0e5adda046725d4508547dc",
        "2": "443fef4b73ce30378dbdc6f1b275bdc64a209e2954af95dcedb2d61151477de8",
        "3": "792c5d962e625486cc778af9e7034a9158ed2e59109ece9a7835a3a384b46e07",
        "4": "161290bec2480b85378c7a81d7ccd61f6db80fc0ea8853892a9fc80c8ba9e589",
        "5": "0875e6235d2366013625fa081a9d5b8b8dc1f2edcd2882ec8b3a72744d10b665",
        "6": "3cb2d7f64f5a3d95f5b700e11f981e324919c94c182c365bef478901e4682e6c",
    },
    "auth": {
        "1": "b011cfb8c88e4a08f4b5a6f1c93cdb2705ed1e8cf561fec9bb780c83d3045537",
        "2": "e1f2db7603213ed6bf51bf8b02ece1a6ea9180bb9a00949b0d29e68be67e3410",
        "3": "e4e8196a4346fbabd254ab746819554d0877b6a0af33f577117cb38588348c6a",
        "4": "dc18338d75fd5a59353d5c59835d9463da2fe1e5644e04fa385b17518a078973",
        "5": "9dff5c6fd0414382feadcb5243f21ffad2bc184474127ee58046ae75d90ed89b",
        "6": "50ae9cf14eb6ddc61dc96ebc95fb62002c82dbebc1829731387cc09be2749dd1",
    },
    "synthetic": {
        "1": "f344e1cb1e772f084bfbd3249798fb10c4e2ee9e31c03e33ec6270328d559fb0",
        "2": "ea3ba242b0a0f85aa7e1676ca9660cd8c21997d589924b0d3f4cb1516e4d14bb",
        "3": "02f64365c4b6da23b8f0507225042d0fee1cb9919b10ebeb4bad963771b08ff8",
        "4": "d962a68ad12de236efecbdc4261e4b425a2d5d61e134167a0101ca69d8f77e90",
        "5": "8531db1e2490c858df8ff733ab0544ffc5a499610f56f719f7e295f68c25c245",
        "6": "1044e4d6ad825a72a569687a9319a7d4da48974eccbe167d6d068eeb7237da1e",
    },
}

#: Per-flow κ audit, ``(avg_kappa, picks)``: the same in every case.
KAPPA_AUDIT = {
    "1": (2.0, 8), "2": (1.625, 8), "3": (1.0, 8),
    "4": (2.0, 8), "5": (2.0, 8), "6": (1.75, 8),
}

#: Nonzero aggregate counters; every other counter must be zero.
SENDER = {
    "real": {"symbols_offered": 48, "symbols_sent": 48, "shares_sent": 144, "readiness_stalls": 85},
    "auth": {
        "symbols_offered": 48, "symbols_sent": 48, "shares_sent": 144,
        "readiness_stalls": 90, "auth_tagged_shares": 144,
    },
    "synthetic": {
        "symbols_offered": 48, "symbols_sent": 48, "shares_sent": 144, "readiness_stalls": 85,
    },
}
RECEIVER = {
    "real": {"shares_received": 138, "symbols_delivered": 48, "late_shares": 55},
    "auth": {
        "shares_received": 138, "symbols_delivered": 48, "late_shares": 55,
        "auth_verified_shares": 138,
    },
    "synthetic": {"shares_received": 138, "symbols_delivered": 48, "late_shares": 55},
}

CASES = {
    "real": {"synthetic": False},
    "auth": {"synthetic": False, "auth": True},
    "synthetic": {"synthetic": True},
}


def cell_params(**extra):
    fleet = synthesize_fleet(6, rate=4.0, symbols=8)
    return {
        "cell": 0,
        "flows": [flow.as_dict() for flow in fleet.flows],
        "tenants": [tenant.as_dict() for tenant in fleet.tenants],
        "channels": 4,
        "loss": 0.05,
        "delay": 0.05,
        "rate": 4.0,
        "symbol_size": 64,
        "quantum": 1.0,
        "queue_limit": 64,
        **extra,
    }


def nonzero(stats):
    return {name: value for name, value in stats.items() if name != "flows" and value}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cell_matches_golden(case):
    result = run_cell(cell_params(**CASES[case]), SEED)
    assert {flow: record["digest"] for flow, record in result["flows"].items()} == DIGESTS[case]
    assert all(record["delivered"] == 8 for record in result["flows"].values())
    assert {
        flow: (record["avg_kappa"], record["picks"])
        for flow, record in result["flows"].items()
    } == KAPPA_AUDIT
    assert nonzero(result["sender"]) == SENDER[case]
    assert nonzero(result["receiver"]) == RECEIVER[case]
    assert result["mux"] == {"rounds": 48, "offer_failures": 0}


@pytest.mark.parametrize("case", sorted(CASES))
def test_finished_cell_is_freed_by_refcount(case):
    """``run_cell`` tears its network down, so nothing it built waits for
    the cyclic collector: with collection off, a forced collection finds
    no unreachable objects."""
    run_cell(cell_params(**CASES[case]), SEED)  # imports and caches warm up
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run_cell(cell_params(**CASES[case]), SEED)
        gc.collect()
        leftovers = len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert leftovers == 0
