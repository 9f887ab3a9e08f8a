"""Metric-snapshot and trace exporters: JSON-lines, CSV, Prometheus text.

All three formats render a :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`
(a deterministically ordered list of sample dicts) to text with no
environment-dependent content -- no timestamps, no hostnames, no float
formatting that varies across platforms -- so a seeded run exports
byte-identical dumps.  JSON-lines and CSV have matching parsers
(:func:`metrics_from_jsonl` / :func:`metrics_from_csv`) used by the
round-trip tests; Prometheus text is write-only (it is a scrape format).
"""

from __future__ import annotations

import csv
import io
import json
from typing import Iterable, List, Optional, Sequence

from repro.obs.tracing import TraceEvent

#: File suffix -> format name for :func:`write_metrics`.
_SUFFIX_FORMATS = {
    ".jsonl": "jsonl",
    ".json": "jsonl",
    ".csv": "csv",
    ".prom": "prometheus",
    ".txt": "prometheus",
}

_CSV_HEADER = ("name", "type", "labels", "field", "value")


def _fmt_number(value: float) -> str:
    """Render a number compactly and deterministically (ints without '.0')."""
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _encode_labels(labels: dict) -> str:
    """``k=v`` pairs joined with ';', sorted (CSV cell encoding)."""
    return ";".join(f"{k}={v}" for k, v in sorted(labels.items()))


def _decode_labels(cell: str) -> dict:
    if not cell:
        return {}
    labels = {}
    for pair in cell.split(";"):
        key, _, value = pair.partition("=")
        labels[key] = value
    return labels


# -- JSON-lines -------------------------------------------------------------------


def metrics_to_jsonl(samples: Sequence[dict]) -> str:
    """One JSON object per line, keys sorted (the canonical dump format)."""
    return "\n".join(json.dumps(sample, sort_keys=True) for sample in samples) + (
        "\n" if samples else ""
    )


def metrics_from_jsonl(text: str) -> List[dict]:
    """Parse :func:`metrics_to_jsonl` output back into sample dicts."""
    return [json.loads(line) for line in text.splitlines() if line.strip()]


# -- CSV --------------------------------------------------------------------------


def metrics_to_csv(samples: Sequence[dict]) -> str:
    """Flat CSV: one row per scalar, histograms exploded into field rows.

    Columns are ``name,type,labels,field,value``; counters and gauges use
    field ``value``, histograms emit ``count``/``sum``/``min``/``max``
    plus one ``bucket:<le>`` row per cumulative bucket.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    for sample in samples:
        base = (sample["name"], sample["type"], _encode_labels(sample["labels"]))
        if sample["type"] == "histogram":
            writer.writerow((*base, "count", _fmt_number(sample["count"])))
            writer.writerow((*base, "sum", _fmt_number(sample["sum"])))
            for bound in ("min", "max"):
                value = sample[bound]
                writer.writerow((*base, bound, "" if value is None else _fmt_number(value)))
            for le, cumulative in sample["buckets"]:
                writer.writerow((*base, f"bucket:{le}", _fmt_number(cumulative)))
        else:
            writer.writerow((*base, "value", _fmt_number(sample["value"])))
    return out.getvalue()


def metrics_from_csv(text: str) -> List[dict]:
    """Parse :func:`metrics_to_csv` output back into sample dicts."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is not None and tuple(header) != _CSV_HEADER:
        raise ValueError(f"unexpected CSV header {header!r}; expected {_CSV_HEADER}")
    samples: List[dict] = []
    current: Optional[dict] = None
    for row in reader:
        if not row:
            continue
        name, kind, labels_cell, field_name, value_cell = row
        labels = _decode_labels(labels_cell)
        if kind == "histogram":
            if (
                current is None
                or current["name"] != name
                or current["labels"] != labels
                or current["type"] != "histogram"
            ):
                current = {
                    "name": name, "type": "histogram", "labels": labels,
                    "count": 0, "sum": 0.0, "min": None, "max": None, "buckets": [],
                }
                samples.append(current)
            if field_name == "count":
                current["count"] = int(float(value_cell))
            elif field_name == "sum":
                current["sum"] = float(value_cell)
            elif field_name in ("min", "max"):
                current[field_name] = float(value_cell) if value_cell else None
            elif field_name.startswith("bucket:"):
                bound_text = field_name[len("bucket:"):]
                bound = bound_text if bound_text == "+Inf" else float(bound_text)
                current["buckets"].append([bound, int(float(value_cell))])
            else:
                raise ValueError(f"unknown histogram field {field_name!r}")
        else:
            current = None
            samples.append(
                {"name": name, "type": kind, "labels": labels, "value": float(value_cell)}
            )
    return samples


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


def format_for_path(path: str, fmt: Optional[str] = None) -> str:
    """Resolve an explicit or suffix-inferred metrics format name."""
    if fmt is not None:
        if fmt not in ("jsonl", "csv", "prometheus"):
            raise ValueError(f"unknown metrics format {fmt!r}")
        return fmt
    suffix = path[path.rfind("."):].lower() if "." in path else ""
    return _SUFFIX_FORMATS.get(suffix, "jsonl")


def write_metrics(path: str, samples: Sequence[dict], fmt: Optional[str] = None) -> str:
    """Write a snapshot to ``path`` in ``fmt`` (default: inferred from suffix).

    Returns the format actually used.
    """
    fmt = format_for_path(path, fmt)
    if fmt == "jsonl":
        text = metrics_to_jsonl(samples)
    elif fmt == "csv":
        text = metrics_to_csv(samples)
    else:
        text = metrics_to_prometheus(samples)
    with open(path, "w") as handle:
        handle.write(text)
    return fmt


def write_trace(path: str, events: Iterable[TraceEvent]) -> None:
    """Write trace events to ``path`` as JSON-lines."""
    with open(path, "w") as handle:
        handle.write(trace_to_jsonl(events))

