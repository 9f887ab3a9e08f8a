"""Secret-taint static analysis: no secret bytes reach logs, metrics,
traces, exceptions, or persistence.

The paper's privacy guarantee is information-theoretic -- below the
threshold, shares reveal *nothing* (H(Y) = H(X)) -- but one
``tracer.event(payload=...)`` voids it outside the model.  This package
proves the implementation honours the model: a source/sink/sanitizer
dataflow analysis (policy in :mod:`~repro.analysis.taint.policy`,
propagation in :mod:`~repro.analysis.taint.propagation`) built on the
same framework, report format and suppressions as the determinism
linter.  ``repro-model taint`` is its one command line; docs/TAINT.md
is the threat model in prose.
"""

from repro.analysis.taint.engine import ANNOTATION_KINDS, TaintEngine
from repro.analysis.taint.policy import (
    Sanitizer,
    Sink,
    SourceCall,
    SourceParam,
    TaintPolicy,
    default_policy,
)
from repro.analysis.taint.summaries import FunctionSummary, SummaryTable

__all__ = [
    "ANNOTATION_KINDS",
    "FunctionSummary",
    "Sanitizer",
    "Sink",
    "SourceCall",
    "SourceParam",
    "SummaryTable",
    "TaintEngine",
    "TaintPolicy",
    "default_policy",
]
