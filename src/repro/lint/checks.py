"""The determinism rule catalogue.

Each rule here encodes one way a ``(seed, config)`` pair can stop
producing byte-identical output.  The scoping (``includes`` /
``allowlist``) is this repository's policy, chosen so the live tree
lints clean without weakening the invariant:

* wall-clock reads are banned in ``src/`` and ``tests/`` but not in
  ``benchmarks/`` (benchmarks measure wall time by definition) and not
  in ``src/repro/sweep/runner.py`` (whose wall-time fields are
  reporting-only and excluded from cached results);
* unordered iteration is policed in the three packages whose iteration
  order reaches simulation results (netsim, protocol, sweep);
* exact float comparison is allowed only in ``core/properties.py``,
  whose exact-zero sentinels are documented at the comparison sites.

See docs/LINTING.md for the catalogue with rationale and examples.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.analysis.findings import Finding
from repro.lint.rules import FileContext, Rule

__all__ = ["RULES", "default_rules"]


#: Wall-clock entry points.  ``time.time`` and friends return a value
#: that differs on every call, so any influence on simulation state or
#: output makes two same-seed runs diverge.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "time.clock_gettime_ns",
        "time.localtime",
        "time.gmtime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: ``numpy.random`` attributes that are fine: explicit generator/seeding
#: machinery rather than the hidden global legacy RandomState.
NUMPY_RANDOM_ALLOWED = frozenset(
    {
        "default_rng",
        "Generator",
        "BitGenerator",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: ``random`` attributes that are fine: classes one instantiates with an
#: explicit seed (SystemRandom is for key material, never simulation).
PY_RANDOM_ALLOWED = frozenset({"Random", "SystemRandom"})

#: Environment reads.  ``os.environ`` content varies per machine/shell,
#: so a simulation path consulting it makes results non-portable.
ENV_READS = frozenset({"os.environ", "os.environb", "os.getenv"})

#: Call targets whose result has no defined iteration order.
UNORDERED_PRODUCERS = frozenset({"set", "frozenset", "os.listdir", "os.scandir"})

#: Call targets that build a fresh mutable object -- hazardous as a
#: default argument value exactly like the literal forms.
MUTABLE_FACTORY_CALLS = frozenset(
    {
        "list",
        "dict",
        "set",
        "bytearray",
        "collections.defaultdict",
        "collections.deque",
        "collections.OrderedDict",
        "collections.Counter",
    }
)


class WallClockRule(Rule):
    """No wall-clock reads in simulation or test code."""

    rule_id = "wall-clock"
    description = "bans time.time/perf_counter/datetime.now outside reporting code"
    rationale = (
        "A wall-clock read returns a different value on every run; if it "
        "reaches simulation state, traces or cached results, the same "
        "(seed, config) pair stops producing byte-identical output.  Use "
        "the simulated clock (repro.netsim.engine) instead; wall-time "
        "*reporting* belongs in allowlisted or suppressed sites only."
    )
    node_types = (ast.Call,)
    includes = ("src", "tests")
    # SweepStats wall_time / SweepResult.duration are reporting-only and
    # never enter cached rows or result values (docs/SWEEPS.md).
    allowlist = ("src/repro/sweep/runner.py",)

    def visit(self, node: ast.Call, ctx: FileContext) -> Iterator[Finding]:
        qual = ctx.qualname(node.func)
        if qual in WALL_CLOCK_CALLS:
            yield ctx.finding(
                self,
                node,
                f"wall-clock read {qual}() is nondeterministic; use simulated "
                f"time, or suppress with a justification in reporting-only code",
            )


class UnseededRngRule(Rule):
    """No module-level ``random.*`` / legacy ``numpy.random.*`` calls."""

    rule_id = "unseeded-rng"
    description = "bans the global random module and legacy numpy.random functions"
    rationale = (
        "Module-level random.* and numpy.random.* (legacy RandomState) "
        "calls draw from hidden global state that any import or library "
        "call can perturb, so results depend on execution order rather "
        "than the (seed, config) pair.  Pass an explicit random.Random or "
        "numpy.random.Generator instance derived from the run's seed."
    )
    node_types = (ast.Call,)

    def visit(self, node: ast.Call, ctx: FileContext) -> Iterator[Finding]:
        qual = ctx.qualname(node.func)
        if not qual:
            return
        parts = qual.split(".")
        if parts[0] == "random" and len(parts) == 2 and parts[1] not in PY_RANDOM_ALLOWED:
            yield ctx.finding(
                self,
                node,
                f"{qual}() uses the shared global RNG; pass an explicit "
                f"random.Random/numpy Generator seeded from the run's seed",
            )
        elif (
            len(parts) == 3
            and parts[:2] == ["numpy", "random"]
            and parts[2] not in NUMPY_RANDOM_ALLOWED
        ):
            yield ctx.finding(
                self,
                node,
                f"legacy {qual}() draws from numpy's hidden global RandomState; "
                f"use an explicit numpy.random.Generator (default_rng(seed))",
            )


class UnorderedIterationRule(Rule):
    """No iteration over sets or directory listings without ``sorted``."""

    rule_id = "unordered-iteration"
    description = "bans iterating set/frozenset/os.listdir results unsorted"
    rationale = (
        "set/frozenset iteration order depends on insertion history and "
        "hash randomisation, and os.listdir order on the filesystem; any "
        "of them feeding event scheduling, share placement or cache "
        "enumeration makes runs irreproducible.  Wrap the iterable in "
        "sorted(...) to pin a total order."
    )
    node_types = (ast.For, ast.AsyncFor, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    # The three packages whose iteration order reaches simulation results.
    includes = ("src/repro/netsim", "src/repro/protocol", "src/repro/sweep")

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters: List[ast.AST] = [node.iter]
        else:
            iters = [gen.iter for gen in node.generators]
        for iter_node in iters:
            reason = _unordered_reason(iter_node, ctx)
            if reason is not None:
                yield Finding(
                    file=ctx.relpath,
                    line=iter_node.lineno,
                    column=iter_node.col_offset,
                    rule=self.rule_id,
                    message=f"iteration over {reason} has no deterministic order; "
                    f"wrap it in sorted(...)",
                )


def _unordered_reason(node: ast.AST, ctx: FileContext) -> "str | None":
    """Why ``node`` evaluates to an unordered iterable, or None.

    Deliberately syntactic: set literals, set comprehensions, calls to
    set/frozenset/os.listdir/os.scandir, and set algebra over any of
    those.  Iterating a *variable* that merely holds a set needs type
    inference and is left to the dynamic same-seed tests.
    """
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set literal" if isinstance(node, ast.Set) else "a set comprehension"
    if isinstance(node, ast.Call):
        qual = ctx.qualname(node.func)
        if qual in UNORDERED_PRODUCERS:
            return f"{qual}(...)"
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        for side in (node.left, node.right):
            reason = _unordered_reason(side, ctx)
            if reason is not None:
                return f"set algebra over {reason}"
    return None


class EnvReadRule(Rule):
    """No ``os.environ`` / ``os.getenv`` access in simulation paths."""

    rule_id = "env-read"
    description = "bans os.environ/os.getenv reads inside src/"
    rationale = (
        "Environment content varies per machine, shell and CI runner; a "
        "simulation path that consults it produces results that cannot be "
        "reproduced from the (seed, config) pair alone.  Configuration "
        "must flow through explicit config objects and CLI flags."
    )
    node_types = (ast.Attribute, ast.Name)
    includes = ("src",)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if isinstance(node, ast.Name) and node.id not in ctx.aliases:
            # A bare name only matters if an import actually bound it to
            # os.environ/os.getenv; unimported locals are not env reads.
            return
        # `os.environ.get(...)` contains the `os.environ` attribute node
        # exactly once (the outer `os.environ.get` chain resolves to a
        # different qualified name), so each textual occurrence yields
        # exactly one finding without deduplication bookkeeping.
        qual = ctx.qualname(node)
        if qual in ENV_READS:
            yield ctx.finding(
                self,
                node,
                f"{qual} read makes results depend on the process environment; "
                f"thread configuration through explicit parameters",
            )


class MutableDefaultRule(Rule):
    """No mutable default argument values."""

    rule_id = "mutable-default"
    description = "bans list/dict/set (literal or constructor) default arguments"
    rationale = (
        "A mutable default is created once at definition time and shared "
        "across calls; state then leaks between runs of what should be "
        "independent simulations, an order-dependence bug that seeded RNG "
        "discipline cannot catch.  Default to None and construct inside."
    )
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        args = node.args
        for default in list(args.defaults) + [d for d in args.kw_defaults if d is not None]:
            reason = None
            if isinstance(default, (ast.List, ast.Dict, ast.Set)):
                reason = {ast.List: "list", ast.Dict: "dict", ast.Set: "set"}[type(default)]
                reason = f"a {reason} literal"
            elif isinstance(default, (ast.ListComp, ast.DictComp, ast.SetComp)):
                reason = "a comprehension"
            elif isinstance(default, ast.Call):
                qual = ctx.qualname(default.func)
                if qual in MUTABLE_FACTORY_CALLS:
                    reason = f"{qual}()"
            if reason is not None:
                yield Finding(
                    file=ctx.relpath,
                    line=default.lineno,
                    column=default.col_offset,
                    rule=self.rule_id,
                    message=f"mutable default argument ({reason}) is shared across "
                    f"calls; default to None and construct in the body",
                )


class FloatEqRule(Rule):
    """No ``==`` / ``!=`` against float literals."""

    rule_id = "float-eq"
    description = "bans ==/!= comparisons with float literals outside documented sentinels"
    rationale = (
        "Float equality is representation-sensitive: a result that passes "
        "x == 0.3 on one platform/optimisation level fails on another, so "
        "branches guarded by it make behaviour machine-dependent.  Compare "
        "with a tolerance (math.isclose) -- or, for documented exact-zero/"
        "sentinel checks, suppress with a justification."
    )
    node_types = (ast.Compare,)
    includes = ("src",)
    # core/properties.py documents its exact-zero sentinel comparisons at
    # each site (loss-free channels, zero-weight atoms).
    allowlist = ("src/repro/core/properties.py",)

    def visit(self, node: ast.Compare, ctx: FileContext) -> Iterator[Finding]:
        values = [node.left] + list(node.comparators)
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side in (values[index], values[index + 1]):
                if isinstance(side, ast.Constant) and isinstance(side.value, float):
                    yield ctx.finding(
                        self,
                        node,
                        f"exact float comparison with {side.value!r} is "
                        f"representation-sensitive; use math.isclose or suppress "
                        f"a documented sentinel check",
                    )
                    break


#: The catalogue, in ``--list-rules`` order; a new rule is appended here.
RULES = (
    WallClockRule,
    UnseededRngRule,
    UnorderedIterationRule,
    EnvReadRule,
    MutableDefaultRule,
    FloatEqRule,
)


def default_rules() -> List[Rule]:
    """Fresh instances of the full catalogue."""
    return [cls() for cls in RULES]
