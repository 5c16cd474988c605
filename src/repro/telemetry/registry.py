"""The one metrics surface: every stats shape collapses onto this.

A :class:`MetricsRegistry` aggregates

* **absorbed scrapes** — the per-rank page samples a backend scraped
  from its :class:`~repro.telemetry.plane.TelemetryPlane` at the end of
  a launch (counters and histograms *accumulate* across launches, so a
  restart chain's phases sum; gauges keep the latest value);
* **direct instruments** — parent-side counters/gauges (relaunch
  counts, checkpoint-writer overlap) that never lived on a rank page;
* **callback gauges** — occupancy-style values (arena segments, idle
  workers, queue depth) evaluated lazily at snapshot time, which is
  what replaces the bespoke ``stats()`` attribute bags.

Everything the registry holds is exportable three ways with identical
names and labels: Prometheus text exposition (:meth:`to_prometheus`),
a picklable/JSONable :meth:`snapshot` (the service ``stats`` RPC, the
``RunResult.metrics`` property, ``BENCH_*.json``), and point lookups
(:meth:`value`, :meth:`hist_totals`) for scripts and tests.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable

from repro.telemetry.plane import MetricSample
from repro.telemetry.schema import COUNTER, GAUGE, HISTOGRAM

Key = tuple[str, tuple[tuple[str, str], ...]]


def _key(name: str, labels: dict[str, str] | None) -> Key:
    items = tuple(sorted((str(k), str(v))
                         for k, v in (labels or {}).items()))
    return name, items


class MetricsRegistry:
    """Thread-safe aggregation point for one world's metrics."""

    def __init__(self, const_labels: dict[str, str] | None = None) -> None:
        self.const_labels = {k: str(v)
                             for k, v in (const_labels or {}).items()}
        self._lock = threading.Lock()
        self._scalars: dict[Key, tuple[str, float]] = {}
        self._hists: dict[Key, tuple[float, float, tuple[float, ...],
                                     tuple[float, ...]]] = {}
        self._help: dict[str, str] = {}
        self._gauge_fns: list[tuple[str, tuple[tuple[str, str], ...],
                                    Callable[[], float]]] = []
        #: last-seen cumulative values per (source, series) — what makes
        #: repeated live scrapes of the *same* plane idempotent (only
        #: the delta since the previous absorb is added).
        self._seen: dict[tuple[str, Key], float] = {}
        self._seen_hists: dict[tuple[str, Key],
                               tuple[float, float, tuple[float, ...]]] = {}

    # ------------------------------------------------------------------
    # direct instruments (parent-side)
    # ------------------------------------------------------------------
    def counter_inc(self, name: str, value: float = 1.0,
                    labels: dict[str, str] | None = None,
                    help: str = "") -> None:
        key = _key(name, labels)
        with self._lock:
            if help:
                self._help.setdefault(name, help)
            _, cur = self._scalars.get(key, (COUNTER, 0.0))
            self._scalars[key] = (COUNTER, cur + value)

    def gauge_set(self, name: str, value: float,
                  labels: dict[str, str] | None = None,
                  help: str = "") -> None:
        key = _key(name, labels)
        with self._lock:
            if help:
                self._help.setdefault(name, help)
            self._scalars[key] = (GAUGE, float(value))

    def gauge_fn(self, name: str, fn: Callable[[], float],
                 labels: dict[str, str] | None = None,
                 help: str = "") -> None:
        """Register a lazily evaluated gauge (occupancy-style values)."""
        with self._lock:
            if help:
                self._help.setdefault(name, help)
            self._gauge_fns.append((name, _key(name, labels)[1], fn))

    # ------------------------------------------------------------------
    # absorption (scrapes + serialized snapshots)
    # ------------------------------------------------------------------
    def absorb(self, samples: Iterable[MetricSample],
               extra_labels: dict[str, str] | None = None,
               source: str | None = None) -> None:
        """Fold scraped samples in: counters/histograms add, gauges set.

        Without ``source``, call once per finished launch (each plane
        starts at zero, so adding accumulates correctly across a
        restart/reshape chain).  With ``source`` — a stable identity of
        the plane being scraped — absorption is **idempotent**: the
        registry remembers the last cumulative value it saw from that
        source per series and folds in only the delta, so a live
        ``serve_metrics()`` poll loop can scrape the same running plane
        repeatedly without double-counting.  A cumulative value that
        *shrinks* (the source was reset, e.g. a fresh launch reusing
        the key) restarts the baseline and absorbs the full value.
        """
        extra = extra_labels or {}
        with self._lock:
            for s in samples:
                if extra:
                    s = s.labeled(extra)
                if s.help:
                    self._help.setdefault(s.name, s.help)
                key = (s.name, s.labels)
                if s.kind == HISTOGRAM and s.hist is not None:
                    cnt, tot, per = s.hist
                    if source is not None:
                        skey = (source, key)
                        prev = self._seen_hists.get(skey)
                        self._seen_hists[skey] = (cnt, tot, per)
                        if prev is not None and prev[0] <= cnt:
                            cnt -= prev[0]
                            tot -= prev[1]
                            per = tuple(a - b for a, b in zip(per, prev[2]))
                            if cnt == 0.0:
                                continue
                    old = self._hists.get(key)
                    if old is not None:
                        cnt += old[0]
                        tot += old[1]
                        per = tuple(a + b for a, b in zip(per, old[2]))
                    self._hists[key] = (cnt, tot, per, s.buckets)
                elif s.kind == GAUGE:
                    self._scalars[key] = (GAUGE, s.value)
                else:
                    value = s.value
                    if source is not None:
                        skey = (source, key)
                        prev = self._seen.get(skey, 0.0)
                        self._seen[skey] = value
                        if prev <= value:
                            value -= prev
                        if value == 0.0:
                            continue
                    _, cur = self._scalars.get(key, (COUNTER, 0.0))
                    self._scalars[key] = (COUNTER, cur + value)

    def absorb_snapshot(self, snap: dict,
                        extra_labels: dict[str, str] | None = None,
                        source: str | None = None) -> None:
        """Fold a serialized :meth:`snapshot` in (service job results)."""
        self.absorb(snapshot_samples(snap), extra_labels=extra_labels,
                    source=source)

    # ------------------------------------------------------------------
    # point lookups
    # ------------------------------------------------------------------
    def _live_scalars(self) -> dict[Key, tuple[str, float]]:
        out = dict(self._scalars)
        for name, labels, fn in self._gauge_fns:
            try:
                out[(name, labels)] = (GAUGE, float(fn()))
            except Exception:  # noqa: BLE001 - a dead gauge, not a crash
                continue
        return out

    def value(self, name: str, labels: dict[str, str] | None = None,
              default: float = 0.0) -> float:
        """One scalar series, or — with no/partial labels — the sum of
        every counter series (gauges: the max) matching them."""
        want = dict(labels or {})
        with self._lock:
            scalars = self._live_scalars()
        exact = scalars.get(_key(name, labels))
        if exact is not None:
            return exact[1]
        hits = [(kind, v) for (n, lab), (kind, v) in scalars.items()
                if n == name and all(dict(lab).get(k) == str(vv)
                                     for k, vv in want.items())]
        if not hits:
            return default
        if hits[0][0] == GAUGE:
            return max(v for _, v in hits)
        return sum(v for _, v in hits)

    def hist_totals(self, name: str,
                    labels: dict[str, str] | None = None
                    ) -> tuple[float, float]:
        """Aggregate ``(count, sum)`` over every matching histogram
        series (``sum / count`` is the series' mean)."""
        want = dict(labels or {})
        count = total = 0.0
        with self._lock:
            for (n, lab), (cnt, tot, _per, _b) in self._hists.items():
                if n != name:
                    continue
                if not all(dict(lab).get(k) == str(v)
                           for k, v in want.items()):
                    continue
                count += cnt
                total += tot
        return count, total

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def samples(self) -> list[MetricSample]:
        """Every series as labeled samples (const labels applied)."""
        with self._lock:
            scalars = self._live_scalars()
            hists = dict(self._hists)
            helps = dict(self._help)
        out = []
        for (name, labels), (kind, v) in sorted(scalars.items()):
            out.append(MetricSample(name, kind, labels, value=v,
                                    help=helps.get(name, "")))
        for (name, labels), (cnt, tot, per, buckets) in sorted(
                hists.items()):
            out.append(MetricSample(name, HISTOGRAM, labels,
                                    hist=(cnt, tot, per), buckets=buckets,
                                    help=helps.get(name, "")))
        if self.const_labels:
            out = [s.labeled(self.const_labels) for s in out]
        return out

    def snapshot(self) -> dict:
        """A picklable/JSONable dump of every series.

        The shared wire shape of the unified metrics API: the service
        ``stats`` RPC returns it, ``RunResult.metrics`` holds it, and
        ``FigureReport.emit_json`` embeds it in ``BENCH_*.json``.
        """
        series = []
        for s in self.samples():
            doc = {"name": s.name, "kind": s.kind,
                   "labels": {k: v for k, v in s.labels}}
            if s.kind == HISTOGRAM and s.hist is not None:
                doc["count"], doc["sum"] = s.hist[0], s.hist[1]
                doc["buckets"] = list(s.buckets)
                doc["bucket_counts"] = list(s.hist[2])
            else:
                doc["value"] = s.value
            series.append(doc)
        return {"version": 1, "series": series,
                "help": dict(self._help)}

    def to_prometheus(self) -> str:
        from repro.telemetry.prom import to_prometheus

        return to_prometheus(self.samples(), self._help)


def snapshot_samples(snap: dict) -> list[MetricSample]:
    """Rehydrate :meth:`MetricsRegistry.snapshot` output into samples."""
    helps = snap.get("help", {})
    out = []
    for doc in snap.get("series", []):
        labels = tuple(sorted((str(k), str(v))
                              for k, v in doc.get("labels", {}).items()))
        name, kind = doc["name"], doc["kind"]
        if kind == HISTOGRAM:
            out.append(MetricSample(
                name, kind, labels,
                hist=(float(doc["count"]), float(doc["sum"]),
                      tuple(float(v) for v in doc["bucket_counts"])),
                buckets=tuple(float(b) for b in doc["buckets"]),
                help=helps.get(name, "")))
        else:
            out.append(MetricSample(name, kind, labels,
                                    value=float(doc["value"]),
                                    help=helps.get(name, "")))
    return out
