"""Command-line interface to the model, planner and simulator.

Examples::

    # Optimal rate and full-utilisation bound for a channel set
    python -m repro.cli rate --channel 0.2,0.01,0.25,5 \\
                             --channel 0.1,0.005,0.025,20 --mu 1.5

    # A privacy-optimal schedule at maximum rate
    python -m repro.cli optimize --channels channels.json \\
                                 --kappa 2 --mu 3 --objective privacy

    # The fastest plan meeting requirements
    python -m repro.cli plan --channels channels.json --max-risk 0.01

    # Measure the reference protocol on the simulated testbed
    python -m repro.cli simulate --channels channels.json --kappa 2 --mu 3

Channels are given either inline (``--channel z,loss,delay,rate``, repeat
per channel) or as a JSON file: a list of ``[z, loss, delay, rate]`` rows
or of ``{"risk": ..., "loss": ..., "delay": ..., "rate": ...}`` objects.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from typing import List, Optional, Sequence, Tuple

from repro.core.channel import ChannelSet
from repro.core.optimal import max_privacy_risk, min_delay, min_loss
from repro.core.planner import (
    NoFeasiblePlanError,
    Requirements,
    plan_max_rate,
)
from repro.core.program import Objective, optimal_schedule
from repro.core.rate import (
    full_utilization_mu_limit,
    max_rate,
    optimal_rate,
)
from repro.lp import InfeasibleError


def _parse_inline_channel(spec: str) -> List[float]:
    parts = spec.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"expected 'risk,loss,delay,rate', got {spec!r}"
        )
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _channel_row(entry: object) -> List[float]:
    """One ``--channels`` JSON row: 4 numbers or a risk/loss/delay/rate object."""
    fields = ("risk", "loss", "delay", "rate")
    values = [entry.get(key) for key in fields] if isinstance(entry, dict) else entry
    if isinstance(values, list) and len(values) == 4:
        try:
            return [float(v) for v in values]
        except (TypeError, ValueError):
            pass
    raise ValueError(
        f"channel row {entry!r}: expected 4 numbers [risk, loss, delay, rate] "
        "or an object with risk, loss, delay and rate"
    )


def load_channels(
    json_path: Optional[str], inline: Optional[Sequence[List[float]]]
) -> ChannelSet:
    """Build a ChannelSet from a JSON file or inline specs.

    Raises:
        ValueError: when neither or both are given, or the JSON is not a
            list of channel rows (see :func:`_channel_row`).
    """
    if json_path and inline:
        raise ValueError("give either --channels or --channel, not both")
    rows: List[List[float]]
    if json_path:
        with open(json_path) as handle:
            data = json.load(handle)
        if not isinstance(data, list):
            raise ValueError(f"{json_path}: expected a JSON list of channel rows")
        rows = [_channel_row(entry) for entry in data]
    elif inline:
        rows = [list(spec) for spec in inline]
    else:
        raise ValueError("no channels given; use --channels FILE or --channel z,l,d,r")
    return ChannelSet.from_vectors(
        risks=[r[0] for r in rows],
        losses=[r[1] for r in rows],
        delays=[r[2] for r in rows],
        rates=[r[3] for r in rows],
    )


def _print_schedule(schedule) -> None:
    print(f"kappa = {schedule.kappa:.4f}, mu = {schedule.mu:.4f}")
    print(f"Z(p) = {schedule.privacy_risk():.6f}")
    print(f"L(p) = {schedule.loss():.6f}")
    print(f"D(p) = {schedule.delay():.6f}")
    print(f"sustainable rate = {schedule.max_symbol_rate():.4f} symbols/unit")
    print("atoms:")
    for (k, members), probability in schedule.support():
        print(f"  p(k={k}, M={{{','.join(map(str, sorted(members)))}}}) = {probability:.4f}")


def cmd_rate(args: argparse.Namespace) -> int:
    channels = load_channels(args.channels, args.channel)
    print(f"n = {channels.n} channels, total rate = {max_rate(channels):.4f}")
    print(f"full-utilisation bound (Theorem 2): mu <= {full_utilization_mu_limit(channels):.4f}")
    if args.mu is not None:
        print(f"optimal rate at mu = {args.mu}: {optimal_rate(channels, args.mu):.4f} (Theorem 4)")
    risk, _ = max_privacy_risk(channels)
    loss, _ = min_loss(channels)
    delay, _ = min_delay(channels)
    print(f"extremes: Z_C = {risk:.6f}, L_C = {loss:.3e}, D_C = {delay:.6f}")
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    channels = load_channels(args.channels, args.channel)
    try:
        schedule = optimal_schedule(
            channels,
            Objective(args.objective),
            kappa=args.kappa,
            mu=args.mu,
            at_max_rate=not args.free,
            limited=args.limited,
        )
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    _print_schedule(schedule)
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    channels = load_channels(args.channels, args.channel)
    requirements = Requirements(
        max_risk=args.max_risk,
        max_loss=args.max_loss,
        max_delay=args.max_delay,
        min_rate=args.min_rate,
    )
    try:
        plan = plan_max_rate(channels, requirements)
    except NoFeasiblePlanError as exc:
        print(f"no feasible plan: {exc}", file=sys.stderr)
        return 1
    print(
        f"plan: kappa = {plan.kappa}, mu = {plan.mu}, "
        f"rate = {plan.rate:.4f} symbols/unit"
    )
    print(f"risk = {plan.risk:.6f}, loss = {plan.loss:.6f}, delay = {plan.delay:.6f}")
    _print_schedule(plan.schedule)
    return 0


def load_fault_plan(spec: Optional[str], duration: float, warmup: float):
    """Resolve a ``--faults`` value into a FaultPlan (or None).

    The value is either the name of a canonical scenario (``flap``,
    ``burst``, ``delay_spike``, ``rate_cut``, ``partition_heal``) -- placed
    in the middle of the measurement window -- or the path of a JSON file
    holding a list of fault-event objects (see docs/FAULTS.md).
    """
    if not spec:
        return None
    import os

    from repro.netsim.faults import CANONICAL_SCENARIOS, FaultPlan, canonical_plan

    if spec in CANONICAL_SCENARIOS:
        start = warmup + 0.25 * duration
        stop = warmup + 0.75 * duration
        return canonical_plan(spec, start, stop)
    if os.path.exists(spec):
        with open(spec) as handle:
            return FaultPlan.from_json(handle.read())
    raise ValueError(
        f"--faults expects a scenario name ({', '.join(sorted(CANONICAL_SCENARIOS))}) "
        f"or a JSON file path, got {spec!r}"
    )


#: Spec-builder keyword behind each ``repro sweep``/``repro attack`` option.
_SPEC_OPTIONS = {
    "setup": "setup", "kappa": "kappas", "mu_step": "mu_step", "duration": "duration",
    "warmup": "warmup", "seed": "seed", "quick": "quick", "resilience": "resilience",
    "auth": "auth",
}


def _run_sweep(
    args: argparse.Namespace, name: str, **spec_kwargs
) -> Tuple[List[dict], int]:
    """Run registered sweep ``name`` with the command's options and report it.

    The shared body of ``repro sweep`` and ``repro attack``.  Every option
    the user set goes to the sweep's spec builder, and one that builder
    does not take is an error rather than silently dropped.  The rows are
    printed as a table (failed points on stderr) and ``--out`` gets them
    as sorted-key JSON.  Returns the rows and the failed-point count.
    """
    from repro.experiments import SWEEPS
    from repro.experiments.reporting import rows_to_table
    from repro.sweep import SweepRunner, open_cache

    build, point = SWEEPS[name]
    accepted = inspect.signature(build).parameters
    for option, keyword in _SPEC_OPTIONS.items():
        value = getattr(args, option, None)
        # Unset options are None (flags: False); --seed 0 is a real value.
        if value is None or value is False:
            continue
        if keyword not in accepted:
            raise ValueError(f"--{option.replace('_', '-')} does not apply to {name}")
        spec_kwargs[keyword] = tuple(value) if isinstance(value, list) else value

    runner = SweepRunner(jobs=args.jobs, cache=open_cache(args.resume, args.cache_dir))
    results = runner.run(build(**spec_kwargs), point)

    rows = [result.value for result in results if result.ok]
    if rows:
        # Sorted columns so cold runs and cache-served re-runs print the
        # same table (cached rows round-trip through sorted-key JSON).
        print(rows_to_table(rows, sorted(rows[0].keys()), precision=4))
    for result in results:
        if not result.ok:
            print(
                f"point {result.point.index} {result.point.params} failed:\n"
                f"{result.error}",
                file=sys.stderr,
            )
    print(runner.stats.summary())
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(rows, handle, sort_keys=True, indent=1)
            handle.write("\n")
        print(f"rows           = {len(rows)} -> {args.out}")
    return rows, runner.stats.failures


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run one figure's parameter sweep through the sweep orchestrator.

    ``--jobs N`` fans points out over N worker processes with results
    identical to a serial run (per-point seeds derive from point identity,
    not worker order); ``--resume`` serves already-computed points from
    the content-addressed cache under ``--cache-dir``.  See docs/SWEEPS.md.
    """
    _, failures = _run_sweep(args, args.figure)
    return 1 if failures else 0


def cmd_attack(args: argparse.Namespace) -> int:
    """Run the canonical active-adversary scenarios as a seeded sweep.

    Each selected scenario runs the under-attack harness across the κ grid
    through the same orchestrator as ``repro sweep`` (``--jobs`` fan-out,
    resumable cache, per-point seeds derived from point identity), so two
    same-seed invocations produce byte-identical ``--out`` files.  See
    docs/ADVERSARY.md.
    """
    scenarios = None if args.scenario == "all" else (args.scenario,)
    rows, failures = _run_sweep(args, "attack", scenarios=scenarios)
    silent = sum(row["wrong_payloads"] for row in rows)
    if silent:
        print(f"SILENT CORRUPTION: {silent} wrong payloads delivered", file=sys.stderr)
    return 1 if failures or silent else 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.obs import Observability, write_metrics, write_trace
    from repro.protocol.config import ProtocolConfig
    from repro.workloads.iperf import practical_max_rate, run_iperf

    channels = load_channels(args.channels, args.channel)
    config = ProtocolConfig(kappa=args.kappa, mu=args.mu, share_synthetic=True)
    offered = args.offered_rate
    if offered is None:
        offered = practical_max_rate(channels, args.mu, config.symbol_size)
    fault_plan = load_fault_plan(args.faults, args.duration, args.warmup)
    obs = None
    if args.metrics_out or args.trace_out:
        obs = Observability.create(tracing=bool(args.trace_out))
    result = run_iperf(
        channels,
        config,
        offered_rate=offered,
        duration=args.duration,
        warmup=args.warmup,
        seed=args.seed,
        fault_plan=fault_plan,
        obs=obs,
        resilience=args.resilience,
    )
    optimum = optimal_rate(channels, args.mu)
    print(f"offered rate   = {offered:.4f} symbols/unit")
    print(f"achieved rate  = {result.achieved_rate:.4f} symbols/unit")
    print(f"optimal rate   = {optimum:.4f} symbols/unit (Theorem 4)")
    print(f"achieved/optimal = {result.achieved_rate / optimum:.4f}")
    print(f"loss           = {result.loss_percent:.4f}%")
    print(f"mean delay     = {result.mean_delay_ms:.4f} ms")
    if result.fault_summary is not None:
        print(f"faults applied = {json.dumps(result.fault_summary, sort_keys=True)}")
    if result.resilience_summary is not None:
        summary = result.resilience_summary
        print(
            "resilience     = "
            f"quarantines={summary['quarantines']} "
            f"reinstatements={summary['reinstatements']} "
            f"failovers={summary['failovers']} "
            f"nacks={summary['nacks_received']} "
            f"repair_shares={summary['repair_shares_sent']}"
        )
    if obs is not None:
        snapshot = obs.registry.snapshot()
        if args.metrics_out:
            fmt = write_metrics(args.metrics_out, snapshot)
            print(f"metrics        = {len(snapshot)} series -> {args.metrics_out} ({fmt})")
        if args.trace_out:
            write_trace(args.trace_out, obs.tracer.events)
            dropped = f", {obs.tracer.dropped} dropped" if obs.tracer.dropped else ""
            print(
                f"trace          = {len(obs.tracer.events)} events -> "
                f"{args.trace_out}{dropped}"
            )
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    """Run a fleet-scale multi-tenant workload (see docs/FLEET.md).

    ``--shards J`` executes cells on J worker processes; the merged
    report (every per-flow delivery digest included) is byte-identical
    to a serial run.  ``--parity-check`` proves it by re-running the
    fleet with ``--shards 1`` and comparing the fleet digest, the
    per-flow records (the κ audit included) and the tenant summaries.
    """
    from repro.workloads.fleet import run_fleet

    kwargs = dict(
        flows=args.flows,
        flows_per_cell=args.flows_per_cell,
        symbols_per_flow=args.symbols,
        symbol_size=args.symbol_size,
        channels=args.channels,
        # Authenticated shares need real payloads (a tag over a synthetic
        # share authenticates nothing), so --auth implies --real.
        synthetic=not (args.real or args.auth),
        auth=args.auth,
    )
    report = run_fleet(shards=args.shards, **kwargs)
    print(
        f"fleet: flows={report.flows_total} admitted={report.admitted} "
        f"cells={report.cells} shards={report.shards} "
        f"delivered={report.delivered_total} mux_drops={report.mux_drops_total} "
        f"wall={report.wall_time:.2f}s flows_per_sec={report.flows_per_sec:.1f}"
    )
    for name, summary in report.tenants.items():
        print(
            f"tenant {name}: flows={summary['flows']} "
            f"delivered={summary['delivered']} min_kappa={summary['min_kappa']} "
            f"compliant={summary['compliant']}"
        )
    print(f"fleet digest: {report.fleet_digest}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report.as_dict(), handle, sort_keys=True, indent=1)
            handle.write("\n")
        print(f"report -> {args.out}")
    if args.parity_check:
        serial = run_fleet(shards=1, **kwargs)
        if (serial.fleet_digest, serial.per_flow, serial.tenants) != (
            report.fleet_digest, report.per_flow, report.tenants
        ):
            print(
                f"fleet parity: MISMATCH (serial {serial.fleet_digest})",
                file=sys.stderr,
            )
            return 1
        print("fleet parity: ok")
    if not all(summary["compliant"] for summary in report.tenants.values()):
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_channel_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--channels", help="JSON file describing the channels")
        p.add_argument(
            "--channel",
            action="append",
            type=_parse_inline_channel,
            help="inline channel as 'risk,loss,delay,rate' (repeatable)",
        )

    rate = sub.add_parser("rate", help="rate theorems and global extremes")
    add_channel_args(rate)
    rate.add_argument("--mu", type=float, help="evaluate Theorem 4 at this mu")
    rate.set_defaults(func=cmd_rate)

    optimize = sub.add_parser("optimize", help="LP-optimal share schedule")
    add_channel_args(optimize)
    optimize.add_argument("--kappa", type=float, required=True)
    optimize.add_argument("--mu", type=float, required=True)
    optimize.add_argument(
        "--objective", choices=[o.value for o in Objective], default="privacy"
    )
    optimize.add_argument(
        "--free", action="store_true",
        help="drop the maximum-rate constraint (Sec. IV-B instead of IV-D)",
    )
    optimize.add_argument(
        "--limited", action="store_true",
        help="restrict to the M' schedules of Sec. IV-E",
    )
    optimize.set_defaults(func=cmd_optimize)

    plan = sub.add_parser("plan", help="fastest plan meeting requirements")
    add_channel_args(plan)
    plan.add_argument("--max-risk", type=float)
    plan.add_argument("--max-loss", type=float)
    plan.add_argument("--max-delay", type=float)
    plan.add_argument("--min-rate", type=float)
    plan.set_defaults(func=cmd_plan)

    simulate = sub.add_parser("simulate", help="measure ReMICSS on the simulator")
    add_channel_args(simulate)
    simulate.add_argument("--kappa", type=float, required=True)
    simulate.add_argument("--mu", type=float, required=True)
    simulate.add_argument("--offered-rate", type=float)
    simulate.add_argument("--duration", type=float, default=30.0)
    simulate.add_argument("--warmup", type=float, default=5.0)
    simulate.add_argument("--seed", type=int, default=1)
    simulate.add_argument(
        "--faults",
        help="fault injection: a canonical scenario name (flap, burst, "
        "delay_spike, rate_cut, partition_heal) or a JSON fault-plan file",
    )
    simulate.add_argument(
        "--resilience",
        action="store_true",
        help="enable the resilience layer (quarantine, failover, repair; "
        "see docs/RESILIENCE.md)",
    )
    simulate.add_argument(
        "--metrics-out",
        help="write a metrics dump to this path after the run (Prometheus "
        "text for a .prom/.txt suffix, JSON-lines otherwise; see "
        "docs/OBSERVABILITY.md)",
    )
    simulate.add_argument(
        "--trace-out",
        help="also record a structured event trace and write it to this "
        "path as JSON-lines",
    )
    simulate.set_defaults(func=cmd_simulate)

    def add_sweep_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--kappa",
            action="append",
            type=float,
            metavar="K",
            help="κ value to sweep (repeatable; default: the sweep's grid)",
        )
        p.add_argument("--duration", type=float, help="measurement window per point")
        p.add_argument("--warmup", type=float, help="settling time per point")
        p.add_argument("--seed", type=int, help="root seed (per-point seeds derive from it)")
        p.add_argument("--quick", action="store_true", help="coarse grid and short windows")
        p.add_argument(
            "--jobs",
            type=int,
            default=1,
            metavar="N",
            help="worker processes (default 1 = serial; N>1 gives identical results, faster)",
        )
        p.add_argument(
            "--resume",
            action="store_true",
            help="reuse and extend the on-disk result cache (resume after interrupt)",
        )
        p.add_argument(
            "--cache-dir",
            help="cache location (default results/cache; implies caching when given)",
        )
        p.add_argument("--out", help="also write the result rows to this JSON file")

    sweep = sub.add_parser(
        "sweep",
        help="run a figure sweep in parallel with a resumable result cache",
        description="Run one figure's (κ, µ)/capacity sweep through the "
        "sweep orchestrator (repro.sweep).  --jobs N computes points on N "
        "worker processes with results identical to --jobs 1; --resume "
        "serves finished points from the content-addressed cache so an "
        "interrupted sweep completes incrementally.  An option the "
        "figure's sweep does not take is an error.  See docs/SWEEPS.md.",
    )
    sweep.add_argument(
        "--figure",
        required=True,
        choices=["fig3", "fig4", "fig5", "fig6", "fig7"],
        help="which figure's sweep to run",
    )
    sweep.add_argument(
        "--setup",
        choices=["identical", "diverse"],
        help="channel setup (fig3 only; default identical)",
    )
    sweep.add_argument("--mu-step", type=float, help="µ grid step (fig3, fig4, fig5)")
    add_sweep_args(sweep)
    sweep.set_defaults(func=cmd_sweep)

    attack = sub.add_parser(
        "attack",
        help="run the canonical active-adversary scenarios as a sweep",
        description="Run the under-attack scenario suite (corruption "
        "storm, forged injection, replay flood, targeted corruption, "
        "targeted partition) across a κ grid.  Points run through the "
        "sweep orchestrator, so --jobs fan-out and cache-served re-runs "
        "are byte-identical to a serial cold run.  Exits non-zero if any "
        "point fails or any scenario delivers a silently corrupted "
        "payload.  See docs/ADVERSARY.md.",
    )
    attack.add_argument(
        "--scenario",
        choices=["all", "corruption_storm", "forged_injection", "replay_flood",
                 "targeted_corruption", "targeted_partition"],
        default="all",
        help="which canonical attack to run (default: all)",
    )
    attack.add_argument(
        "--resilience",
        action="store_true",
        help="arm the quarantine/failover/repair layer during the attacks",
    )
    attack.add_argument(
        "--auth",
        action="store_true",
        help="arm authenticated shares (keyed MACs + erasure decoding; "
        "see docs/AUTH.md)",
    )
    add_sweep_args(attack)
    attack.set_defaults(func=cmd_attack)

    fleet = sub.add_parser(
        "fleet",
        help="run a fleet-scale multi-tenant workload with sharded execution",
        description="Synthesize a deterministic multi-tenant fleet and run "
        "it through the flow-sharded executor (repro.fleet).  --shards J "
        "computes cells on J worker processes with a report byte-identical "
        "to --shards 1; --parity-check re-runs serially and compares the "
        "fleet delivery fingerprint.  See docs/FLEET.md.",
    )
    fleet.add_argument("--flows", type=int, default=256, help="fleet size")
    fleet.add_argument(
        "--shards", type=int, default=1, metavar="J",
        help="worker processes (default 1 = serial; any J gives identical results)",
    )
    fleet.add_argument(
        "--flows-per-cell", type=int, default=32,
        help="flows sharing one simulated channel set (default 32)",
    )
    fleet.add_argument(
        "--symbols", type=int, default=4, help="source symbols per flow (default 4)"
    )
    fleet.add_argument(
        "--symbol-size", type=int, default=64, help="payload bytes per symbol"
    )
    fleet.add_argument(
        "--channels", type=int, default=4, help="channels per cell (default 4)"
    )
    fleet.add_argument(
        "--real", action="store_true",
        help="split and reconstruct real secrets (default: synthetic sizes only)",
    )
    fleet.add_argument(
        "--auth", action="store_true",
        help="arm authenticated shares per cell with tenant-isolated flow "
        "keys (implies --real; see docs/AUTH.md)",
    )
    fleet.add_argument(
        "--parity-check", action="store_true",
        help="re-run serially and verify the fleet digest matches",
    )
    fleet.add_argument("--out", help="write the merged report to this JSON file")
    fleet.set_defaults(func=cmd_fleet)

    lint = sub.add_parser(
        "lint",
        help="statically check the tree for reproducibility hazards",
        description="AST-based determinism linter: proves wall-clock reads, "
        "unseeded RNG use, unordered iteration, environment reads, mutable "
        "defaults and exact float comparisons absent from the simulation "
        "tree.  Exits 0 on a clean tree, 1 on findings.  See docs/LINTING.md.",
    )
    from repro.analysis.framework import add_arguments
    from repro.lint.engine import LINT

    add_arguments(lint, LINT)

    taint = sub.add_parser(
        "taint",
        help="statically prove no secret bytes reach logs, metrics or disk",
        description="Secret-flow (source/sink/sanitizer) static analysis: "
        "tracks plaintext payloads, reconstruction outputs and Shamir "
        "coefficients through assignments and call summaries, and reports "
        "any path into traces, metric labels, logging, exception messages, "
        "persistence or repr/f-string formatting.  Exits 0 on a clean "
        "tree, 1 on findings.  See docs/TAINT.md.",
    )
    from repro.analysis.taint.engine import TAINT

    add_arguments(taint, TAINT)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
