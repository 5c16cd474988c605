"""Template declarations — the paper's pluggable programming abstractions.

A *template* names a join point in the domain-specific class (a method
execution or a field) and a parallelisation / checkpointing behaviour to
weave there.  Templates are pure declarations: the weaver
(:mod:`repro.core.rewriter`) turns them into method wrappers on a
generated subclass, leaving the base class untouched.  A template exists
only while some plug set outside the tests declares it.

Shared-memory templates (Section III.B) mirror OpenMP:
``ParallelMethod``, ``ForMethod`` (work sharing), ``SingleMethod``,
``BarrierBefore/After``.

Distributed-memory templates (Section III.C) mirror the aggregate model:
``Replicate``, ``Partitioned``, ``Replicated``, ``ScatterBefore``,
``GatherAfter``, ``AllGatherAfter``, ``HaloExchangeBefore``.

Checkpoint templates (Section IV.A): ``SafeData``, ``SafePointAfter``,
``IgnorableMethod``.

A method template's join point is its ``method`` field
(:meth:`Template.join_points`).  Seven of them are plain *advice* — one
:class:`~repro.core.context.ExecutionContext` hook run before or after
the method: ``BarrierBefore/After`` (``barrier``), ``ScatterBefore``,
``GatherAfter``, ``AllGatherAfter``, ``HaloExchangeBefore`` (the field
movements) and ``SafePointAfter`` (``on_safepoint``).  The weaver's
advice table holds that mapping.  When several templates share a
method, ``order`` fixes their nesting: ascending = innermost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.dsm.partition import Layout
from repro.smp.sched import Schedule


class Template:
    """Base marker for all templates."""

    #: weaving priority: lower wraps closer to the original method.
    order: int = 50

    def join_points(self) -> list[str]:
        """Method names this template wraps: its ``method`` field, if it
        has one (empty for field and class templates)."""
        method = getattr(self, "method", None)
        return [] if method is None else [method]


# ---------------------------------------------------------------------------
# shared-memory templates
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ParallelMethod(Template):
    """Execute ``method`` as a parallel region (a team runs the body)."""

    method: str
    order = 90  # outermost: the region owns everything inside


@dataclass(frozen=True)
class ForMethod(Template):
    """Work-share ``method``'s iteration range among workers/ranks.

    The method's first two positional parameters (after ``self``) must be
    the half-open iteration bounds ``lo, hi``.  In shared memory the range
    is split among team threads per ``schedule``; in distributed memory it
    is restricted to the rank's partition of the layout of field
    ``align`` (or block-split over ranks when ``align`` is None); hybrid
    composes both.  Each chunk is charged to virtual time as its work
    units times the kernel's rate (:func:`repro.vtime.machine.kernel_cost`).
    """

    method: str
    schedule: Schedule = Schedule.STATIC
    chunk: int = 1
    align: str | None = None  # name of a Partitioned field to align with
    #: optional work metric: units(lo, hi) -> work units in the chunk.
    #: Defaults to ``hi - lo``.  Declare it when per-index cost varies
    #: (e.g. triangular loops, skewed workloads) so the virtual-time model
    #: sees the imbalance the schedule is supposed to handle.
    units: Callable[[int, int], int] | None = None
    order = 40


@dataclass(frozen=True)
class SingleMethod(Template):
    """Exactly one team thread executes each occurrence of ``method``."""

    method: str
    order = 30


@dataclass(frozen=True)
class BarrierBefore(Template):
    """Insert a barrier before ``method`` executes."""

    method: str
    order = 60


@dataclass(frozen=True)
class BarrierAfter(Template):
    """Insert a barrier after ``method`` executes."""

    method: str
    order = 60


# ---------------------------------------------------------------------------
# distributed-memory templates
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Replicate(Template):
    """Class-level marker: instances become object aggregates.

    Under distributed execution each rank holds one member; member 0
    transparently plays the original instance.
    """


@dataclass(frozen=True)
class Partitioned(Template):
    """Field ``field`` is partitioned among aggregate members by ``layout``.

    Also consulted by run-time adaptation (Section IV.B): partitioned
    fields are scattered/gathered when the aggregate is created/merged,
    other fields are copied.

    ``whole_at_safepoints`` declares that by the time any safe point is
    reached the field has been re-assembled on every member (e.g. an
    AllGatherAfter runs before the step ends) — checkpoints then skip the
    gather and restores broadcast instead of scattering.
    """

    field: str
    layout: Layout
    whole_at_safepoints: bool = False


@dataclass(frozen=True)
class Replicated(Template):
    """Field ``field`` holds the same value on every aggregate member."""

    field: str


@dataclass(frozen=True)
class ScatterBefore(Template):
    """Update each member's partition of ``field`` before ``method`` runs.

    Data flows from member 0 (which holds the authoritative full array),
    per the field's ``Partitioned`` layout — the paper's Figure 1 example.
    """

    method: str
    field: str
    order = 70


@dataclass(frozen=True)
class GatherAfter(Template):
    """Collect every member's partition of ``field`` after ``method``."""

    method: str
    field: str
    order = 70


@dataclass(frozen=True)
class AllGatherAfter(Template):
    """Make every member's copy of partitioned ``field`` whole after
    ``method`` (gather at member 0, then broadcast).

    Needed when the next phase reads the entire field on every member —
    e.g. an iterated mat-vec whose output vector feeds back as input.
    """

    method: str
    field: str
    order = 70


@dataclass(frozen=True)
class HaloExchangeBefore(Template):
    """Swap ghost planes of block-partitioned ``field`` before ``method``.

    The stencil-code companion of ``Partitioned(..., BlockLayout(halo=h))``.
    """

    method: str
    field: str
    order = 35


# ---------------------------------------------------------------------------
# checkpoint templates
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SafeData(Template):
    """Object fields to include in checkpoints (the SafeData template)."""

    fields: tuple[str, ...]

    def __init__(self, *fields: str) -> None:
        object.__setattr__(self, "fields", tuple(fields))
        if not self.fields:
            raise ValueError("SafeData needs at least one field")


@dataclass(frozen=True)
class SafePointAfter(Template):
    """A safe point occurs after each execution of ``method``."""

    method: str
    order = 80


@dataclass(frozen=True)
class IgnorableMethod(Template):
    """``method`` may be skipped while replaying (restart / adaptation)."""

    method: str
    order = 95  # outermost of all: replay skips everything beneath
