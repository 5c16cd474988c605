"""Prometheus text exposition (0.0.4): the emitter.

It flattens the registry's samples into the standard text format:
``# HELP`` / ``# TYPE`` headers per metric family, one sample line per
labeled series, histograms expanded to cumulative
``_bucket{le=...}`` / ``_sum`` / ``_count`` series.  Its strict
round-trip reader lives with the tests (``tests/promparse.py``).
"""

from __future__ import annotations

from repro.telemetry.plane import MetricSample
from repro.telemetry.schema import HISTOGRAM

#: the content type a scrape endpoint must declare for this format.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _escape_label(value: str) -> str:
    return (value.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _fmt_value(v: float) -> str:
    if v == float("inf"):
        return "+Inf"
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def _labels_text(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape_label(v)}"' for k, v in labels)
    return "{" + inner + "}"


def to_prometheus(samples: list[MetricSample],
                  helps: dict[str, str] | None = None) -> str:
    """Render samples as one exposition document.

    Samples are grouped per metric family (HELP/TYPE emitted once, on
    first appearance) in sorted order, so the output is deterministic.
    """
    helps = helps or {}
    lines: list[str] = []
    seen: set[str] = set()
    for s in sorted(samples, key=lambda s: (s.name, s.labels)):
        if s.name not in seen:
            seen.add(s.name)
            text = helps.get(s.name) or s.help
            if text:
                lines.append(f"# HELP {s.name} {_escape_label(text)}")
            lines.append(f"# TYPE {s.name} {s.kind}")
        if s.kind == HISTOGRAM and s.hist is not None:
            count, total, per = s.hist
            cum = 0.0
            bounds = list(s.buckets) + [float("inf")]
            for bound, n in zip(bounds, per):
                cum += n
                lab = dict(s.labels)
                lab["le"] = _fmt_value(bound)
                lines.append(f"{s.name}_bucket"
                             f"{_labels_text(tuple(sorted(lab.items())))}"
                             f" {_fmt_value(cum)}")
            lines.append(f"{s.name}_sum{_labels_text(s.labels)}"
                         f" {repr(float(total))}")
            lines.append(f"{s.name}_count{_labels_text(s.labels)}"
                         f" {_fmt_value(count)}")
        else:
            lines.append(f"{s.name}{_labels_text(s.labels)}"
                         f" {_fmt_value(s.value)}")
    return "\n".join(lines) + "\n"
