"""The metric catalogue checked against the code.

One fully armed, instrumented ``run_iperf`` -- the Diverse setup, shares
authenticated through ``ProtocolConfig.auth``, a ``burst`` fault on
channel 3, a ``forged_injection`` attack and the resilience layer on --
exports every metric the simulator has.  The tables of
docs/OBSERVABILITY.md must list exactly that run's (name, type) pairs,
and every counter exported from a stats record must read its field:
``<prefix>_<field>_total`` per link, per node, for the resilience
manager and for the attack injector.
"""

import re
from dataclasses import asdict, fields
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.adversary.active import canonical_attack
from repro.netsim.faults import canonical_plan
from repro.obs import Observability
from repro.protocol.auth import AuthConfig, derive_root_key
from repro.protocol.config import ProtocolConfig
from repro.workloads import iperf
from repro.workloads.iperf import practical_max_rate, run_iperf
from repro.workloads.setups import diverse_setup

DOC = Path(__file__).resolve().parents[1] / "docs" / "OBSERVABILITY.md"
SEED = 7
WARMUP, DURATION = 2.0, 8.0
START, STOP = 3.0, 8.0

#: The header every catalogue table carries, and the one row form it takes.
HEADER = "| metric | type | labels | meaning |"
ROW = re.compile(r"\| `([a-z0-9_]+)` \| (counter|gauge|histogram) \| ")


def documented(text):
    """The (name, type) rows of every catalogue table in ``text``."""
    rows = []
    in_table = False
    for line in text.splitlines():
        if line.startswith("| metric "):
            assert line == HEADER, f"catalogue table with another header: {line}"
            in_table = True
        elif not line.startswith("|"):
            in_table = False
        elif in_table and not line.startswith("|---"):
            match = ROW.match(line)
            assert match, f"catalogue row without one metric and its type: {line}"
            rows.append(match.groups())
    return rows


@pytest.fixture(scope="module")
def armed():
    """The fully armed run: its samples and every component it wired."""
    wired = {
        "instrument_network": [],
        "instrument_node": [],
        "instrument_resilience": [],
        "instrument_timeline": [],
    }

    def recording(name, wire):
        def record(obs, part):
            wired[name].append(part)
            wire(obs, part)

        return record

    channels = diverse_setup()
    # µ = κ leaves no spare share, so the burst's losses reach the repair path.
    config = ProtocolConfig(kappa=2.0, mu=2.0, auth=AuthConfig(root_key=derive_root_key(SEED)))
    obs = Observability.create()
    with pytest.MonkeyPatch.context() as patch:
        for name in wired:
            patch.setattr(iperf, name, recording(name, getattr(iperf, name)))
        run_iperf(
            channels,
            config,
            offered_rate=0.9 * practical_max_rate(channels, config.mu, config.symbol_size),
            duration=DURATION,
            warmup=WARMUP,
            seed=SEED,
            fault_plan=canonical_plan("burst", START, STOP, channel=3),
            attack_plan=canonical_attack("forged_injection", START, STOP),
            resilience=True,
            obs=obs,
        )
    (network,) = wired["instrument_network"]
    (manager,) = wired["instrument_resilience"]
    (attacker,) = [part for part in wired["instrument_timeline"] if part.KIND == "attack"]
    return SimpleNamespace(
        obs=obs,
        samples=obs.snapshot(),
        network=network,
        nodes=wired["instrument_node"],
        manager=manager,
        attacker=attacker,
    )


def exported(samples):
    return {(sample["name"], sample["type"]) for sample in samples}


def drift(exported, rows):
    """(exported but not listed, listed but not exported), each sorted."""
    listed = set(rows)
    return sorted(exported - listed), sorted(listed - exported)


def counter_values(samples):
    return {
        (sample["name"], tuple(sorted(sample["labels"].items()))): sample["value"]
        for sample in samples
        if sample["type"] == "counter"
    }


def stats_records(armed):
    """(prefix, stats record, labels) for every record the run exports."""
    records = [
        ("sim_resilience", armed.manager.stats, {}),
        ("adv", armed.attacker.stats, {}),
    ]
    for node in armed.nodes:
        records.append(("sim_sender", node.sender.stats, {"node": node.name}))
        records.append(("sim_receiver", node.receiver.stats, {"node": node.name}))
    for channel, duplex in enumerate(armed.network.duplex):
        for direction, link in (("fwd", duplex.forward), ("rev", duplex.reverse)):
            labels = {"channel": str(channel), "direction": direction}
            records.append(("sim_link", link.stats, labels))
    return records


def test_docs_tables_list_exactly_the_exported_metrics(armed):
    rows = documented(DOC.read_text())
    assert len(rows) == len(set(rows)), "a metric is listed twice"
    missing, extra = drift(exported(armed.samples), rows)
    assert not missing, f"exported but not in the docs: {missing}"
    assert not extra, f"in the docs but not exported: {extra}"


def test_drift_shows_any_one_row_deleted_from_the_docs(armed):
    lines = DOC.read_text().splitlines()
    rows = [i for i, line in enumerate(lines) if ROW.match(line)]
    assert len(rows) == len(exported(armed.samples))
    for i in rows:
        text = "\n".join(lines[:i] + lines[i + 1 :])
        assert drift(exported(armed.samples), documented(text)) == (
            [ROW.match(lines[i]).groups()],
            [],
        )


@pytest.mark.parametrize(
    "row",
    [
        "| `sim_link_phantom_total` | counter | `channel`, `direction` | never exported |",
        "| `adv_shares_forged_total` | gauge | — | exported as a counter |",
    ],
    ids=["unknown-name", "wrong-type"],
)
def test_drift_shows_a_row_added_to_the_docs(armed, row):
    lines = DOC.read_text().splitlines()
    first_row = next(i for i, line in enumerate(lines) if ROW.match(line))
    text = "\n".join(lines[:first_row] + [row] + lines[first_row:])
    assert drift(exported(armed.samples), documented(text)) == ([], [ROW.match(row).groups()])


def test_prose_and_other_tables_are_not_catalogue_rows():
    text = "\n".join(
        [
            "Every `sim_link_*` series carries `channel` and `direction`.",
            "",
            "| field | meaning |",
            "|---|---|",
            "| `sim_link_offered_total` | named in another table |",
        ]
    )
    assert documented(text) == []


def test_every_stats_field_is_exported_with_its_value(armed):
    values = counter_values(armed.samples)
    records = stats_records(armed)
    assert len(armed.nodes) == 2 and len(armed.network.duplex) == 5
    for prefix, stats, labels in records:
        for field in fields(stats):
            key = (f"{prefix}_{field.name}_total", tuple(sorted(labels.items())))
            assert key in values, f"{type(stats).__name__}.{field.name} is not exported"
            assert values[key] == getattr(stats, field.name), key
    # The run moved the records, so equal values are not all zeros.
    assert armed.attacker.stats.shares_forged > 0
    assert armed.manager.stats.repair_shares_sent > 0


@pytest.mark.parametrize(
    "prefix", ["sim_link", "sim_sender", "sim_receiver", "sim_resilience", "adv"]
)
def test_each_series_reads_its_own_field(armed, prefix):
    # The run leaves many fields at 0, where a series wired to another
    # field (or another link's or node's record) still reads equal: give
    # every field of every record of this prefix its own value, then take
    # a fresh snapshot.
    records = [(stats, labels) for name, stats, labels in stats_records(armed) if name == prefix]
    saved = [(stats, asdict(stats)) for stats, _ in records]
    try:
        value = 1000
        for stats, _ in records:
            for field in fields(stats):
                value += 1
                setattr(stats, field.name, value)
        values = counter_values(armed.obs.snapshot())
        for stats, labels in records:
            for field in fields(stats):
                key = (f"{prefix}_{field.name}_total", tuple(sorted(labels.items())))
                assert values[key] == getattr(stats, field.name), key
    finally:
        for stats, fields_before in saved:
            for name, before in fields_before.items():
                setattr(stats, name, before)
