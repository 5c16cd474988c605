"""PlugSet: a composable module of templates.

"The key of this work is the concept of pluggable parallelisation, which
localises parallelisation issues into multiple modules that can be
(un)plugged" — a :class:`PlugSet` is one such module (typically one per
concern: shared-memory parallelisation, distributed parallelisation,
checkpointing).  Sets compose with ``+`` ("the modules can also be
composed to attain complex forms of parallelisation").
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.core.errors import WeaveError
from repro.core.templates import (
    Partitioned,
    SafeData,
    Template,
)


class PlugSet:
    """An ordered, immutable collection of templates."""

    def __init__(self, *templates: Template | Iterable[Template],
                 name: str = "") -> None:
        flat: list[Template] = []
        for t in templates:
            if isinstance(t, Template):
                flat.append(t)
            else:
                flat.extend(t)
        for t in flat:
            if not isinstance(t, Template):
                raise WeaveError(f"not a template: {t!r}")
        self._templates = tuple(flat)
        self.name = name

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Template]:
        return iter(self._templates)

    def __len__(self) -> int:
        return len(self._templates)

    def __add__(self, other: "PlugSet") -> "PlugSet":
        if not isinstance(other, PlugSet):
            return NotImplemented
        name = "+".join(n for n in (self.name, other.name) if n)
        return PlugSet(*self._templates, *other._templates, name=name)

    def __repr__(self) -> str:
        inner = ", ".join(type(t).__name__ for t in self._templates)
        label = f" {self.name!r}" if self.name else ""
        return f"PlugSet{label}({inner})"

    # ------------------------------------------------------------------
    def of_type(self, kind: type) -> list[Template]:
        return [t for t in self._templates if isinstance(t, kind)]

    def for_method(self, method: str) -> list[Template]:
        """Templates whose join point is ``method``, in weaving order."""
        hits = [t for t in self._templates if method in t.join_points()]
        return sorted(hits, key=lambda t: t.order)

    def methods(self) -> list[str]:
        """All join-point method names, deduplicated, declaration order."""
        seen: dict[str, None] = {}
        for t in self._templates:
            for m in t.join_points():
                seen.setdefault(m)
        return list(seen)

    # -- concern summaries used by the weaver / context -----------------
    def safedata_fields(self) -> list[str]:
        out: list[str] = []
        for t in self.of_type(SafeData):
            for f in t.fields:
                if f not in out:
                    out.append(f)
        return out

    def partitioned_fields(self) -> dict[str, Partitioned]:
        out: dict[str, Partitioned] = {}
        for t in self.of_type(Partitioned):
            if t.field in out:
                raise WeaveError(f"field {t.field!r} partitioned twice")
            out[t.field] = t
        return out
