"""Object aggregates — the paper's ``Replicate`` abstraction.

"An object aggregate is a class of objects that have a single instance on
each node and transparently replaces a single object instance in the
domain specific code" (Section III.C).  Under SPMD execution each rank
constructs its own member; this module supplies the call-dispatch
primitives the paper lists:

* calls executed **by all** members in parallel, with the same or
  per-member arguments;
* calls **delegated** to a specific member (member 0 plays the original
  instance);
* a **combine** function reducing per-member return values to one value.

The field-role vocabulary of Section IV.B (Replicated / Partitioned /
Local) is declared here too, as :class:`FieldSpec`.  Nothing in the
runtime reads it: the adaptation protocol takes a field's role from the
plug set (``PlugSet.partitioned_fields``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.dsm.comm import Communicator, RankContext, TAG_COLL, current_rank
from repro.dsm.partition import Layout

_TAG_AGG = TAG_COLL + 20


class FieldRole(enum.Enum):
    """How an object field behaves across an aggregate (Section IV.B)."""

    REPLICATED = "replicated"  # same value on every member
    PARTITIONED = "partitioned"  # split per a Layout
    LOCAL = "local"  # private to each member (default)


@dataclass(frozen=True)
class FieldSpec:
    """Role (and layout, if partitioned) of one field."""

    name: str
    role: FieldRole
    layout: Layout | None = None

    def __post_init__(self) -> None:
        if self.role is FieldRole.PARTITIONED and self.layout is None:
            raise ValueError(f"partitioned field {self.name!r} needs a layout")


class AggregateMember:
    """This rank's member of an aggregate: local instance + identity."""

    def __init__(self, instance: Any, ctx: RankContext) -> None:
        self.instance = instance
        self.ctx = ctx

    @property
    def member_id(self) -> int:
        return self.ctx.rank

    @property
    def is_representative(self) -> bool:
        """Member 0 transparently replaces the original instance."""
        return self.ctx.rank == 0


class ObjectAggregate:
    """SPMD façade over one member per rank.

    All dispatch methods are *collective*: every rank must call them in
    the same order (the usual SPMD discipline).
    """

    def __init__(self, member: AggregateMember, comm: Communicator) -> None:
        self.member = member
        self.comm = comm

    @property
    def size(self) -> int:
        return self.comm.nranks

    # ------------------------------------------------------------------
    def invoke_all(self, method: str, *args: Any, **kwargs: Any) -> Any:
        """Every member executes ``method`` with the same arguments."""
        return getattr(self.member.instance, method)(*args, **kwargs)

    def invoke_scattered(self, method: str, per_member_args: Sequence[tuple],
                         root: int = 0) -> Any:
        """Every member executes ``method`` with member-specific arguments.

        ``per_member_args`` need only be valid at ``root``; it is scattered.
        """
        ctx = current_rank()
        assert ctx is not None
        if ctx.rank == root:
            if len(per_member_args) != self.size:
                raise ValueError(f"need {self.size} argument tuples")
            args = self.comm.scatter(list(per_member_args), root=root)
        else:
            args = self.comm.scatter(None, root=root)
        return getattr(self.member.instance, method)(*args)

    def invoke_on(self, member_id: int, method: str, *args: Any,
                  broadcast_result: bool = False, **kwargs: Any) -> Any:
        """Delegate the call to one member; others idle (or get the result).

        Returns the result on ``member_id`` (and everywhere if
        ``broadcast_result``), ``None`` elsewhere.
        """
        ctx = current_rank()
        assert ctx is not None
        result = None
        if ctx.rank == member_id:
            result = getattr(self.member.instance, method)(*args, **kwargs)
        if broadcast_result:
            result = self.comm.bcast(result, root=member_id)
        return result

    def invoke_reduce(self, method: str, *args: Any,
                      combine: Callable[[Any, Any], Any] | None = None,
                      **kwargs: Any) -> Any:
        """All members execute; return values folded with ``combine``.

        The combined value is available on every member (allreduce), which
        matches the paper's "special function ... to combine the return
        result of each method execution to a single value".
        """
        local = getattr(self.member.instance, method)(*args, **kwargs)
        return self.comm.allreduce(local, op=combine)
