"""Metric-snapshot and trace exporters: JSON-lines and Prometheus text.

Both formats render a :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`
(a deterministically ordered list of sample dicts) to text with no
environment-dependent content -- no timestamps, no hostnames, no float
formatting that varies across platforms -- so a seeded run exports
byte-identical dumps.  JSON-lines parses back with :func:`json.loads`, one
line at a time; Prometheus text is write-only (it is a scrape format).
"""

from __future__ import annotations

import json
from typing import Iterable, List, Optional, Sequence

from repro.obs.tracing import TraceEvent

#: Path suffixes :func:`write_metrics` writes as Prometheus text.
_PROMETHEUS_SUFFIXES = (".prom", ".txt")


def _fmt_number(value: float) -> str:
    """Render a number compactly and deterministically (ints without '.0')."""
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


# -- JSON-lines -------------------------------------------------------------------


def metrics_to_jsonl(samples: Sequence[dict]) -> str:
    """One JSON object per line, keys sorted (the canonical dump format)."""
    return "\n".join(json.dumps(sample, sort_keys=True) for sample in samples) + (
        "\n" if samples else ""
    )


# -- Prometheus text format -------------------------------------------------------


def _prom_labels(labels: dict, extra: Optional[dict] = None) -> str:
    merged = dict(sorted(labels.items()))
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in merged.items())
    return "{" + inner + "}"


def _escape_label_value(value) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"')


def metrics_to_prometheus(samples: Sequence[dict]) -> str:
    """Prometheus exposition text (``# TYPE`` headers, cumulative buckets)."""
    lines: List[str] = []
    typed: set = set()
    for sample in samples:
        name, kind, labels = sample["name"], sample["type"], sample["labels"]
        if name not in typed:
            lines.append(f"# TYPE {name} {kind}")
            typed.add(name)
        if kind == "histogram":
            for le, cumulative in sample["buckets"]:
                le_text = le if le == "+Inf" else _fmt_number(float(le))
                lines.append(
                    f"{name}_bucket{_prom_labels(labels, {'le': le_text})} "
                    f"{_fmt_number(cumulative)}"
                )
            lines.append(f"{name}_sum{_prom_labels(labels)} {_fmt_number(sample['sum'])}")
            lines.append(f"{name}_count{_prom_labels(labels)} {_fmt_number(sample['count'])}")
        else:
            lines.append(f"{name}{_prom_labels(labels)} {_fmt_number(sample['value'])}")
    return "\n".join(lines) + ("\n" if lines else "")


# -- traces -----------------------------------------------------------------------


def trace_to_jsonl(events: Iterable[TraceEvent]) -> str:
    """One JSON object per trace event, keys sorted."""
    lines = [json.dumps(event.as_dict(), sort_keys=True) for event in events]
    return "\n".join(lines) + ("\n" if lines else "")


# -- file helpers -----------------------------------------------------------------


def write_metrics(path: str, samples: Sequence[dict]) -> str:
    """Write a snapshot to ``path``, in a format picked by its suffix.

    ``.prom`` and ``.txt`` get Prometheus text, every other path JSON-lines.
    Returns the format name used (``"prometheus"`` or ``"jsonl"``).
    """
    if path.lower().endswith(_PROMETHEUS_SUFFIXES):
        fmt, text = "prometheus", metrics_to_prometheus(samples)
    else:
        fmt, text = "jsonl", metrics_to_jsonl(samples)
    with open(path, "w") as handle:
        handle.write(text)
    return fmt


def write_trace(path: str, events: Iterable[TraceEvent]) -> None:
    """Write trace events to ``path`` as JSON-lines."""
    with open(path, "w") as handle:
        handle.write(trace_to_jsonl(events))

