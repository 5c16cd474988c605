"""Reporting helpers: print and persist paper-style series.

Each figure benchmark produces the same rows/series the paper plots.
Because pytest captures stdout, every report is also written to
``benchmarks/results/<figure>.txt`` so the regenerated series survive a
quiet run; attach the rows to ``benchmark.extra_info`` as well and they
land in pytest-benchmark's JSON when ``--benchmark-json`` is used.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"


class FigureReport:
    """Collects labelled rows for one paper figure and renders a table."""

    def __init__(self, figure: str, title: str,
                 columns: list[str], note: str = "") -> None:
        self.figure = figure
        self.title = title
        self.columns = columns
        self.rows: list[list[object]] = []
        #: printed under the table and kept in the JSON, to read a row by.
        self.note = note

    def add(self, *values: object) -> None:
        if len(values) != len(self.columns):
            raise ValueError(f"expected {len(self.columns)} values")
        self.rows.append(list(values))

    # ------------------------------------------------------------------
    def render(self) -> str:
        widths = [max(len(str(c)), *(len(_fmt(r[i])) for r in self.rows))
                  if self.rows else len(str(c))
                  for i, c in enumerate(self.columns)]
        lines = [f"== {self.figure}: {self.title} =="]
        lines.append("  ".join(str(c).ljust(w)
                               for c, w in zip(self.columns, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for r in self.rows:
            lines.append("  ".join(_fmt(v).ljust(w)
                                   for v, w in zip(r, widths)))
        if self.note:
            lines.append(f"note: {self.note}")
        return "\n".join(lines)

    def emit(self, benchmark=None, json_name: str | None = None,
             extra: dict | None = None, metrics=None) -> None:
        text = self.render()
        print("\n" + text)
        RESULTS_DIR.mkdir(exist_ok=True)
        out = RESULTS_DIR / f"{self.figure.lower().replace(' ', '_')}.txt"
        out.write_text(text + os.linesep)
        if json_name is not None:
            self.emit_json(json_name, extra, metrics=metrics)
        if benchmark is not None:
            benchmark.extra_info["figure"] = self.figure
            benchmark.extra_info["columns"] = self.columns
            benchmark.extra_info["rows"] = [
                [_fmt(v) for v in r] for r in self.rows]

    def emit_json(self, name: str, extra: dict | None = None,
                  metrics=None) -> Path:
        """Write the series machine-readable: ``BENCH_<name>.json``.

        The rows land raw (unformatted values, NaN encoded as ``null``)
        under the same column names the table prints, plus whatever
        headline metrics the benchmark passes in ``extra`` — so a plot
        script or a CI trend tracker never parses the text table.

        ``metrics`` embeds a telemetry snapshot under the ``"metrics"``
        key: pass a :class:`~repro.telemetry.MetricsRegistry` or an
        already-serialized ``registry.snapshot()`` dict.  The embedded
        section uses the same ``repro_<subsystem>_<metric>{rank=,
        backend=,job=}`` naming as the Prometheus exposition and the
        service ``stats`` RPC — one vocabulary across every surface.
        """
        RESULTS_DIR.mkdir(exist_ok=True)
        doc = {
            "name": name,
            "figure": self.figure,
            "title": self.title,
            "columns": self.columns,
            "rows": [[_jsonable(v) for v in r] for r in self.rows],
        }
        if self.note:
            doc["note"] = self.note
        if extra:
            doc["extra"] = {k: _jsonable(v) for k, v in extra.items()}
        if metrics is not None:
            snap = getattr(metrics, "snapshot", None)
            doc["metrics"] = snap() if callable(snap) else metrics
        out = RESULTS_DIR / f"BENCH_{name}.json"
        out.write_text(json.dumps(doc, indent=2) + os.linesep)
        return out


def _fmt(v: object) -> str:
    if isinstance(v, float):
        return f"{v:.4f}"
    return str(v)


def _jsonable(v: object) -> object:
    if isinstance(v, float):
        return v if v == v else None  # NaN -> null
    if isinstance(v, (int, str, bool)) or v is None:
        return v
    return str(v)
