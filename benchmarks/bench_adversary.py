"""The under-attack trend file: what each canonical adversary costs.

Runs every canonical attack scenario (docs/ADVERSARY.md) through the
seeded harness -- unauthenticated and with authenticated shares armed
(docs/AUTH.md) -- and records, per scenario, the delivery ratio, the
detected-corruption / auth-failure / replay-drop rates, and the delivery
digest; plus a ``deterministic`` flag from re-running one scenario per
arm and comparing the full JSON rows byte-for-byte.  What tagging costs
in wall time is the benchmark ledger's ``protocol.auth.self_frac`` on
``fleet_auth`` and ``attack_auth`` (benchmarks/ledger/README.md).

The committed ``BENCH_adversary.json`` at the repo root is generated from
a ``--quick`` run, and ``--check BENCH_adversary.json`` gates CI: the
simulation is deterministic end to end, so a fresh same-settings run must
match the committed rows *exactly* -- any drift means attack or protocol
behaviour changed and the trend file (and its PR) must say so.  Silent
corruption (``wrong_payloads > 0`` in either arm) or a broken determinism
flag fails the gate regardless of the baseline::

    PYTHONPATH=src python benchmarks/bench_adversary.py --quick \\
        --check BENCH_adversary.json
"""

import argparse
import json
import sys

from repro.adversary.active import canonical_attack, run_under_attack
from repro.adversary.active.scenarios import CANONICAL_ATTACKS

SCHEMA = "bench-adversary/2"
SEED = 11
WARMUP = 4.0
DURATION = 30.0
#: The attack window starts after warmup and outlives the offer window,
#: so every offered symbol contends with the adversary.
START = WARMUP


def measure(scenario: str, quick: bool = False, auth: bool = False) -> dict:
    """One scenario run; returns a JSON-safe row."""
    duration = DURATION / 2 if quick else DURATION
    stop = START + duration
    row = run_under_attack(
        canonical_attack(scenario, START, stop),
        duration=duration,
        warmup=WARMUP,
        seed=SEED,
        auth=auth,
    )
    receiver = row["receiver"]
    stats = row["attack"]["stats"]
    shares = receiver["shares_received"]
    out = {
        "scenario": scenario,
        "delivery_ratio": round(row["delivery_ratio"], 6),
        "wrong_payloads": row["wrong_payloads"],
        "reconstruction_errors": receiver["reconstruction_errors"],
        "corrupt_detected_rate": (
            round(receiver["corrupt_shares_detected"] / shares, 6) if shares else 0.0
        ),
        "replay_dropped_rate": (
            round(receiver["replayed_shares_dropped"] / shares, 6) if shares else 0.0
        ),
        "shares_corrupted": stats["shares_corrupted"],
        "shares_forged": stats["shares_forged"],
        "packets_replayed": stats["packets_replayed"],
        "adaptive_jams": stats["adaptive_jams"],
        "targeted_corruptions": stats["targeted_corruptions"],
        "digest": row["digest"],
    }
    if auth:
        # The auth arm's detection ledger: every forged/corrupted share
        # lands here instead of (or before) the robust decoder.
        out["auth_failed_rate"] = (
            round(receiver["auth_failed_shares"] / shares, 6) if shares else 0.0
        )
        out["auth_failed_shares"] = receiver["auth_failed_shares"]
        out["auth_verified_shares"] = receiver["auth_verified_shares"]
    return out


def run_adversary_bench(quick: bool = False) -> dict:
    """Both arms of every scenario plus the same-seed determinism flag."""
    names = sorted(CANONICAL_ATTACKS)
    scenarios = {name: measure(name, quick=quick) for name in names}
    auth_scenarios = {name: measure(name, quick=quick, auth=True) for name in names}
    deterministic = json.dumps(
        measure(names[0], quick=quick), sort_keys=True
    ) == json.dumps(scenarios[names[0]], sort_keys=True) and json.dumps(
        measure(names[0], quick=quick, auth=True), sort_keys=True
    ) == json.dumps(auth_scenarios[names[0]], sort_keys=True)
    return {
        "schema": SCHEMA,
        "quick": quick,
        "seed": SEED,
        "deterministic": deterministic,
        "scenarios": scenarios,
        "auth_scenarios": auth_scenarios,
    }


def check_against_baseline(results: dict, baseline: dict) -> "list[str]":
    """Exact-reproducibility gate; returns failure messages.

    Every scenario row in both arms must match the committed file exactly.
    """
    failures = []
    if not results["deterministic"]:
        failures.append("deterministic: same-seed replay diverged within this run")
    for arm in ("scenarios", "auth_scenarios"):
        for name, row in sorted(results[arm].items()):
            if row["wrong_payloads"]:
                failures.append(
                    f"{arm}/{name}: {row['wrong_payloads']} silently corrupted "
                    "payloads delivered"
                )
    if baseline.get("schema") != results["schema"]:
        failures.append(
            f"schema: committed {baseline.get('schema')!r} != {results['schema']!r} "
            "(regenerate BENCH_adversary.json)"
        )
        return failures
    if baseline.get("quick") != results["quick"] or baseline.get("seed") != results["seed"]:
        failures.append(
            "settings: committed file was generated with different --quick/seed; "
            "rerun with matching settings"
        )
        return failures
    for arm in ("scenarios", "auth_scenarios"):
        for name, row in sorted(results[arm].items()):
            committed = baseline.get(arm, {}).get(name)
            if committed is None:
                failures.append(f"{arm}/{name}: scenario missing from the committed file")
                continue
            if committed != row:
                drift = sorted(
                    key for key in set(row) | set(committed)
                    if row.get(key) != committed.get(key)
                )
                failures.append(
                    f"{arm}/{name}: run diverges from the committed rows on {drift} "
                    "(the simulation is deterministic -- this is a behaviour "
                    "change; regenerate BENCH_adversary.json and explain it)"
                )
    return failures


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="halved window for CI smoke")
    parser.add_argument("--json", metavar="PATH", help="write results as JSON to PATH")
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        help="compare against a committed BENCH_adversary.json; exit 1 on drift",
    )
    args = parser.parse_args()
    results = run_adversary_bench(quick=args.quick)
    print(json.dumps(results, indent=2, sort_keys=True))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    if args.check:
        with open(args.check) as handle:
            baseline = json.load(handle)
        failures = check_against_baseline(results, baseline)
        if failures:
            for failure in failures:
                print(f"FAIL {failure}", file=sys.stderr)
            sys.exit(1)
        print("adversary bench check: ok")


if __name__ == "__main__":
    main()
