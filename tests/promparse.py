"""A strict reader of Prometheus text exposition (0.0.4).

The round-trip conformance check of the telemetry tests and of CI's
exposition gate: it reads the subset ``repro.telemetry.prom`` emits,
and what a stock Prometheus scraper would accept, with no dependency.
"""

from __future__ import annotations


class PromParseError(ValueError):
    """The document is not valid 0.0.4 text exposition."""


def _parse_labels(text: str, line: str) -> dict[str, str]:
    labels: dict[str, str] = {}
    i = 0
    while i < len(text):
        j = text.index("=", i)
        key = text[i:j].strip()
        if not key or not key.replace("_", "a").isalnum():
            raise PromParseError(f"bad label name in: {line}")
        if text[j + 1] != '"':
            raise PromParseError(f"unquoted label value in: {line}")
        k = j + 2
        value = []
        while True:
            if k >= len(text):
                raise PromParseError(f"unterminated label value in: {line}")
            ch = text[k]
            if ch == "\\":
                esc = text[k + 1]
                value.append({"n": "\n", "\\": "\\", '"': '"'}[esc])
                k += 2
                continue
            if ch == '"':
                break
            value.append(ch)
            k += 1
        labels[key] = "".join(value)
        i = k + 1
        if i < len(text) and text[i] == ",":
            i += 1
    return labels


def parse_prometheus(doc: str) -> list[tuple[str, dict[str, str], float]]:
    """Parse a text-exposition document into (name, labels, value) rows.

    Validates the structural rules a Prometheus scraper enforces:
    TYPE lines declare known types, sample lines reference a declared
    family (allowing the histogram suffixes), label syntax is sound,
    values parse as floats, and histogram ``_bucket`` series are
    cumulative and consistent with their ``_count``.
    """
    types: dict[str, str] = {}
    rows: list[tuple[str, dict[str, str], float]] = []
    for raw in doc.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) != 4:
                raise PromParseError(f"malformed TYPE line: {line}")
            _, _, name, kind = parts
            if kind not in ("counter", "gauge", "histogram",
                            "summary", "untyped"):
                raise PromParseError(f"unknown type {kind!r}: {line}")
            types[name] = kind
            continue
        if line.startswith("#"):
            continue
        # sample line: name[{labels}] value
        brace = line.find("{")
        if brace >= 0:
            end = line.rindex("}")
            name = line[:brace]
            labels = _parse_labels(line[brace + 1:end], line)
            rest = line[end + 1:].split()
        else:
            fields = line.split()
            if len(fields) < 2:
                raise PromParseError(f"malformed sample line: {line}")
            name, rest = fields[0], fields[1:]
            labels = {}
        if not rest:
            raise PromParseError(f"sample line missing value: {line}")
        try:
            value = float(rest[0].replace("+Inf", "inf"))
        except ValueError as exc:
            raise PromParseError(f"bad value in: {line}") from exc
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            base = name[:-len(suffix)] if name.endswith(suffix) else None
            if base is not None and types.get(base) == "histogram":
                family = base
                break
        if family not in types:
            raise PromParseError(f"sample for undeclared family: {line}")
        if (types[family] == "histogram" and name.endswith("_bucket")
                and "le" not in labels):
            raise PromParseError(f"histogram bucket without le: {line}")
        rows.append((name, labels, value))
    _check_histograms(types, rows)
    return rows


def _check_histograms(types: dict[str, str],
                      rows: list[tuple[str, dict[str, str], float]]) -> None:
    """Buckets cumulative + +Inf bucket equals _count, per series."""
    buckets: dict[tuple, list[tuple[float, float]]] = {}
    counts: dict[tuple, float] = {}
    for name, labels, value in rows:
        for base, kind in types.items():
            if kind != "histogram":
                continue
            if name == base + "_bucket":
                key = (base, tuple(sorted((k, v) for k, v in labels.items()
                                          if k != "le")))
                le = float(labels["le"].replace("+Inf", "inf"))
                buckets.setdefault(key, []).append((le, value))
            elif name == base + "_count":
                counts[(base, tuple(sorted(labels.items())))] = value
    for key, series in buckets.items():
        series.sort()
        vals = [v for _, v in series]
        if vals != sorted(vals):
            raise PromParseError(f"non-cumulative buckets for {key[0]}")
        if series[-1][0] != float("inf"):
            raise PromParseError(f"histogram {key[0]} missing +Inf bucket")
        total = counts.get(key)
        if total is not None and series[-1][1] != total:
            raise PromParseError(
                f"histogram {key[0]}: +Inf bucket != _count")
