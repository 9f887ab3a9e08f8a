"""The source/sink/sanitizer policy of the secret-taint analysis.

The policy is the threat model made executable (docs/TAINT.md is the
prose form):

* **Sources** introduce secret material: plaintext application payloads
  entering the protocol (``datagram`` in ``protocol.dibs``, ``payload``
  in ``protocol.sender``), ``secret``/``plaintext`` parameters anywhere,
  reconstruction outputs (``scheme.reconstruct*``, ``robust_reconstruct``
  -- the inverse of sharing re-creates the secret), and polynomial
  coefficient draws in the sharing/GF layer (a Shamir coefficient is
  exactly as secret as the secret it masks).
* **Sanitizers** cross the information-theoretic boundary: ``split``/
  ``split_many`` output is share material an individual channel may see
  (the paper's guarantee *is* that it leaks nothing below the
  threshold); lengths, counts, digests and boolean facts are
  declassified aggregate statistics.
* **Sinks** are everywhere bytes escape the process or the abstraction:
  trace events, metric labels, log records, stdout, exception messages,
  persisted files/JSON, and ``repr``/``str``/f-string formatting.

Policy entries are matched syntactically (qualified names through the
import-alias map; method calls by trailing receiver name), mirroring
the determinism linter's deliberate trade: a false positive is one
``# taint:`` directive away, full type inference would dwarf the
subsystem it polices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "Sanitizer",
    "Sink",
    "SourceCall",
    "SourceParam",
    "TaintPolicy",
    "default_policy",
    "STRUCTURAL_RULES",
]

#: Rules emitted by the propagation engine itself rather than a
#: :class:`Sink` entry: ``taint-exception`` (tainted exception message),
#: ``taint-format`` (tainted f-string; also used by the str/repr sink),
#: ``taint-sink`` (``# taint: sink`` annotated line) and ``taint-call``
#: (tainted argument reaching a sink through a summarised callee).
STRUCTURAL_RULES: Dict[str, str] = {
    "taint-exception": "exception message constructed from tainted value",
    "taint-format": "f-string / str() / repr() formatting of tainted value",
    "taint-sink": "tainted value on a '# taint: sink' annotated line",
    "taint-call": "tainted argument flows to a sink inside the callee",
}


def _path_matches(relpath: str, includes: Tuple[str, ...]) -> bool:
    """True when ``relpath`` is inside the include set (empty = everywhere)."""
    if not includes:
        return True
    for prefix in includes:
        if relpath == prefix or relpath.startswith(prefix.rstrip("/") + "/"):
            return True
    return False


@dataclass(frozen=True)
class SourceParam:
    """Function parameters whose *names* declare secret inputs."""

    names: Tuple[str, ...]
    includes: Tuple[str, ...] = ()

    def matches(self, name: str, relpath: str) -> bool:
        return name in self.names and _path_matches(relpath, self.includes)


@dataclass(frozen=True)
class SourceCall:
    """Calls whose return value *is* secret material."""

    label: str
    qualnames: Tuple[str, ...] = ()
    methods: Tuple[str, ...] = ()
    receivers: Tuple[str, ...] = ()
    includes: Tuple[str, ...] = ()

    def matches(
        self, qualname: Optional[str], receiver: Optional[str], method: Optional[str],
        relpath: str,
    ) -> bool:
        if not _path_matches(relpath, self.includes):
            return False
        if qualname is not None and qualname in self.qualnames:
            return True
        if method is not None and method in self.methods:
            return not self.receivers or (receiver is not None and receiver in self.receivers)
        return False


@dataclass(frozen=True)
class Sanitizer:
    """Calls whose return value is declassified regardless of inputs."""

    qualnames: Tuple[str, ...] = ()
    prefixes: Tuple[str, ...] = ()
    methods: Tuple[str, ...] = ()
    receivers: Tuple[str, ...] = ()

    def matches(
        self, qualname: Optional[str], receiver: Optional[str], method: Optional[str]
    ) -> bool:
        if qualname is not None:
            if qualname in self.qualnames:
                return True
            if any(qualname.startswith(p) for p in self.prefixes):
                return True
        if method is not None and method in self.methods:
            return not self.receivers or (receiver is not None and receiver in self.receivers)
        return False


@dataclass(frozen=True)
class Sink:
    """Calls whose arguments must never carry secret taint."""

    rule_id: str
    description: str
    qualnames: Tuple[str, ...] = ()
    methods: Tuple[str, ...] = ()
    receivers: Tuple[str, ...] = ()
    #: check only keyword-argument values (metric *label values* leak;
    #: the positional metric name is policed by its own literal-ness)
    kwargs_only: bool = False

    def matches(
        self, qualname: Optional[str], receiver: Optional[str], method: Optional[str]
    ) -> bool:
        if qualname is not None and qualname in self.qualnames:
            return True
        if method is not None and method in self.methods:
            return not self.receivers or (receiver is not None and receiver in self.receivers)
        return False

    def display(self, qualname: Optional[str], receiver: Optional[str], method: Optional[str]) -> str:
        if method is not None and (qualname is None or qualname not in self.qualnames):
            return f"{receiver or '<expr>'}.{method}()"
        return f"{qualname}()"


@dataclass
class TaintPolicy:
    """The full source/sink/sanitizer catalogue driving one analysis."""

    source_params: List[SourceParam] = field(default_factory=list)
    source_calls: List[SourceCall] = field(default_factory=list)
    sanitizers: List[Sanitizer] = field(default_factory=list)
    sinks: List[Sink] = field(default_factory=list)

    def rule_ids(self) -> List[str]:
        """Every rule id this policy can emit, sorted and de-duplicated."""
        ids = {sink.rule_id for sink in self.sinks}
        ids.update(STRUCTURAL_RULES)
        return sorted(ids)

    def sink_catalogue(self) -> List[Tuple[str, str]]:
        """``(rule_id, description)`` pairs for ``--list-sinks``."""
        seen: Dict[str, str] = {}
        for sink in self.sinks:
            seen.setdefault(sink.rule_id, sink.description)
        for rule_id, description in STRUCTURAL_RULES.items():
            seen.setdefault(rule_id, description)
        return sorted(seen.items())

    # -- matching ---------------------------------------------------------------

    def param_source(self, name: str, relpath: str) -> bool:
        return any(sp.matches(name, relpath) for sp in self.source_params)

    def call_source(
        self, qualname: Optional[str], receiver: Optional[str], method: Optional[str],
        relpath: str,
    ) -> Optional[str]:
        for source in self.source_calls:
            if source.matches(qualname, receiver, method, relpath):
                return source.label
        return None

    def is_sanitizer(
        self, qualname: Optional[str], receiver: Optional[str], method: Optional[str]
    ) -> bool:
        return any(s.matches(qualname, receiver, method) for s in self.sanitizers)

    def matching_sinks(
        self, qualname: Optional[str], receiver: Optional[str], method: Optional[str]
    ) -> List[Sink]:
        return [s for s in self.sinks if s.matches(qualname, receiver, method)]


def default_policy() -> TaintPolicy:
    """The repository's threat model (catalogued in docs/TAINT.md)."""
    return TaintPolicy(
        source_params=[
            # Conventional secret names are secret wherever they appear.
            SourceParam(names=("secret", "secrets", "plaintext", "plaintexts")),
            # MAC key material (docs/AUTH.md): a leaked share-MAC key turns
            # "forgery is detected unconditionally" back into silent
            # acceptance, so keys are secret wherever they flow.
            SourceParam(names=("root_key", "mac_key", "auth_key")),
            # Application payloads are secret exactly where they enter the
            # protocol; downstream `payload` variables (wire datagrams,
            # share buffers) are *share* material and must not be blanket
            # tainted, so the scope is the two ingress modules.  Other
            # ingress points (fleet mux, RE-MICSS facade) declare theirs
            # with `# taint: source=` annotations.
            SourceParam(names=("datagram",), includes=("src/repro/protocol/dibs.py",)),
            SourceParam(
                names=("payload", "payloads"),
                includes=("src/repro/protocol/dibs.py", "src/repro/protocol/sender.py"),
            ),
        ],
        source_calls=[
            # Reconstruction re-creates the secret from shares.
            SourceCall(
                label="reconstructed secret",
                methods=("reconstruct", "reconstruct_many"),
                receivers=("scheme",),
            ),
            SourceCall(
                label="robust reconstruction",
                qualnames=(
                    "repro.sharing.robust.robust_reconstruct",
                    "robust_reconstruct",
                ),
            ),
            # Shamir masking coefficients are one-time pads for the
            # secret; a leaked coefficient voids the threshold.  Scoped
            # to the sharing/GF layer where `rng` draws *are* coefficients.
            SourceCall(
                label="polynomial coefficients",
                methods=("integers", "bytes"),
                receivers=("rng", "_rng"),
                includes=("src/repro/sharing", "src/repro/gf"),
            ),
        ],
        sanitizers=[
            # Aggregate statistics carry no per-byte information we police.
            Sanitizer(qualnames=("len", "hash", "bool", "type", "id", "isinstance")),
            # Digests are the sanctioned way to *name* a buffer in
            # diagnostics (docs/TAINT.md "how to declassify").
            Sanitizer(prefixes=("hashlib.",)),
            Sanitizer(methods=("hexdigest", "digest")),
            # Keyed-MAC outputs cross the authentication boundary: a
            # BLAKE2b/HMAC tag reveals nothing about the key (PRF
            # assumption), and compare_digest returns a boolean fact.
            # Keyed states are built through hashlib (above).
            Sanitizer(prefixes=("hmac.",)),
            Sanitizer(
                qualnames=(
                    "repro.redact.redact_bytes",
                    "redact_bytes",
                    "repro.redact.describe_bytes",
                    "describe_bytes",
                )
            ),
            # The sharing boundary itself: split output is share material,
            # private below the threshold by the paper's Theorem 1.
            Sanitizer(methods=("split", "split_many"), receivers=("scheme",)),
        ],
        sinks=[
            Sink(
                rule_id="taint-trace",
                description="trace span/event fields (obs.tracing exporters persist them)",
                methods=("event", "span", "annotate"),
                receivers=("tracer", "span"),
            ),
            Sink(
                rule_id="taint-metrics",
                description="metric label values (obs.metrics exporters persist them)",
                methods=("counter", "gauge", "histogram"),
                receivers=("registry", "metrics", "_metrics"),
                kwargs_only=True,
            ),
            Sink(
                rule_id="taint-log",
                description="log records / warnings",
                qualnames=(
                    "logging.debug", "logging.info", "logging.warning",
                    "logging.error", "logging.exception", "logging.critical",
                    "logging.log", "warnings.warn",
                ),
                methods=(
                    "debug", "info", "warning", "error", "exception",
                    "critical", "log",
                ),
                receivers=("logger", "log", "_logger", "_log"),
            ),
            Sink(
                rule_id="taint-print",
                description="stdout/stderr",
                qualnames=("print",),
            ),
            Sink(
                rule_id="taint-persist",
                description="file/JSON/pickle persistence",
                qualnames=(
                    "json.dump", "json.dumps",
                    "pickle.dump", "pickle.dumps",
                ),
                methods=("write", "writelines", "writerow", "writerows"),
            ),
            Sink(
                rule_id="taint-persist",
                description="result-cache persistence",
                methods=("put", "set"),
                receivers=("cache", "_cache"),
            ),
            Sink(
                rule_id="taint-format",
                description="str()/repr()/format() of a secret buffer",
                qualnames=("str", "repr", "format", "ascii"),
                methods=("format",),
            ),
        ],
    )
