"""The weaver: plug/unplug templates onto domain classes.

``plug(cls, plugset)`` returns a generated subclass of ``cls`` whose
join-point methods are wrapped according to the plug set — the Python
equivalent of the paper's compile/load-time rewriting (AspectJ weaving in
the original system; here decorator stacking on a subclass, which the
reproduction brief explicitly sanctions as the aspect substitute).

Properties the paper requires and tests verify:

* the base class is never mutated — ``unplug`` gives it back unchanged;
* a woven instance with **no execution context** behaves exactly like the
  base class (templates all no-op), so woven code still runs "strictly
  sequentially" when nothing is plugged at run time;
* wrappers dispatch on the context's *current* mode at call time, which
  is what allows the same woven object to be reshaped while running.

Eight templates are plain advice, and one factory, ``_wrap_advice``,
weaves them all from one table (``_ADVICE``):

=====================  ======  ===================================
template               runs    ``ExecutionContext`` hook
=====================  ======  ===================================
``BarrierBefore``      before  ``barrier()``
``BarrierAfter``       after   ``barrier()``
``ScatterBefore``      before  ``scatter_field(field)``
``GatherAfter``        after   ``gather_field(field)``
``AllGatherAfter``     after   ``allgather_field(field)``
``HaloExchangeBefore`` before  ``halo_field(field)``
``SafePointBefore``    before  ``on_safepoint()``
``SafePointAfter``     after   ``on_safepoint()``
=====================  ======  ===================================

The other eight (parallel region, for, synchronized, master, single,
reduce, on-master, ignorable) change the method's control flow and keep
a factory each.

Wrapper nesting order follows ``Template.order`` (ascending = innermost):
synchronized < master/single < halo < for < reduce < barrier < scatter/
gather < safe point < parallel region < ignorable.
"""

from __future__ import annotations

import functools
import operator
from typing import Any, Callable

from repro.core.context import ExecutionContext
from repro.core.errors import WeaveError
from repro.core.plugs import PlugSet
from repro.core.templates import (
    AllGatherAfter,
    BarrierAfter,
    BarrierBefore,
    ForMethod,
    GatherAfter,
    HaloExchangeBefore,
    IgnorableMethod,
    MasterMethod,
    OnMaster,
    ParallelMethod,
    ReduceResult,
    SafePointAfter,
    SafePointBefore,
    ScatterBefore,
    SingleMethod,
    SynchronizedMethod,
    Template,
    ThreadLocal,
)
from repro.smp.team import current_worker
from repro.smp.tls import ThreadLocalField
from repro.util.timing import WallTimer
from repro.vtime.calibrate import GLOBAL_CALIBRATOR


def _ctx_of(instance: Any) -> ExecutionContext | None:
    return getattr(instance, "__pp_ctx__", None)


def _tid_getter():
    w = current_worker()
    return w.tid if w is not None else None


# ---------------------------------------------------------------------------
# wrapper factories: one per template with its own control flow, and one
# for every advice template
# ---------------------------------------------------------------------------
def _wrap_parallel(tmpl: ParallelMethod, inner: Callable) -> Callable:
    @functools.wraps(inner)
    def wrapper(self, *args, **kwargs):
        ctx = _ctx_of(self)
        if ctx is None or ctx.team is None or ctx.team.in_region():
            return inner(self, *args, **kwargs)

        def region_body():
            # hybrid: every team thread needs the rank identity for the
            # collectives funnelled through the team master.
            if ctx.rankctx is not None:
                from repro.dsm.comm import _bind

                _bind(ctx.rankctx)
            return inner(self, *args, **kwargs)

        return ctx.team.run_region(region_body)

    return wrapper


def _wrap_for(tmpl: ForMethod, inner: Callable) -> Callable:
    @functools.wraps(inner)
    def wrapper(self, lo, hi, *args, **kwargs):
        ctx = _ctx_of(self)
        if ctx is None:
            return inner(self, lo, hi, *args, **kwargs)
        base = getattr(type(self), "__pp_base__", type(self))
        key = f"{base.__name__}.{tmpl.method}"
        result = None
        for s, e in ctx.for_ranges(int(lo), int(hi), tmpl):
            with WallTimer() as t:
                result = inner(self, s, e, *args, **kwargs)
            units = tmpl.units(s, e) if tmpl.units is not None else e - s
            ctx.clock().charge_compute(
                GLOBAL_CALIBRATOR.charge_for(key, units, t.elapsed))
        return result

    return wrapper


def _wrap_synchronized(tmpl: SynchronizedMethod, inner: Callable) -> Callable:
    lock_name = tmpl.lock or tmpl.method

    @functools.wraps(inner)
    def wrapper(self, *args, **kwargs):
        ctx = _ctx_of(self)
        if ctx is None:
            return inner(self, *args, **kwargs)
        with ctx.lock(lock_name):
            return inner(self, *args, **kwargs)

    return wrapper


def _wrap_master(tmpl: MasterMethod, inner: Callable) -> Callable:
    @functools.wraps(inner)
    def wrapper(self, *args, **kwargs):
        ctx = _ctx_of(self)
        if ctx is None or ctx.is_master_thread():
            return inner(self, *args, **kwargs)
        return None

    return wrapper


def _wrap_single(tmpl: SingleMethod, inner: Callable) -> Callable:
    @functools.wraps(inner)
    def wrapper(self, *args, **kwargs):
        ctx = _ctx_of(self)
        if ctx is None or ctx.team is None:
            return inner(self, *args, **kwargs)
        if ctx.team.single_claim(tmpl.method):
            return inner(self, *args, **kwargs)
        return None

    return wrapper


def _wrap_reduce(tmpl: ReduceResult, inner: Callable) -> Callable:
    @functools.wraps(inner)
    def wrapper(self, *args, **kwargs):
        result = inner(self, *args, **kwargs)
        ctx = _ctx_of(self)
        if ctx is None:
            return result
        return ctx.reduce_result(result, tmpl.combine)

    return wrapper


def _wrap_on_master(tmpl: OnMaster, inner: Callable) -> Callable:
    @functools.wraps(inner)
    def wrapper(self, *args, **kwargs):
        ctx = _ctx_of(self)
        if ctx is None:
            return inner(self, *args, **kwargs)
        result = None
        if ctx.is_master_rank() and ctx.is_master_thread():
            result = inner(self, *args, **kwargs)
        if tmpl.broadcast and ctx.rankctx is not None \
                and not ctx.replay_active() and not ctx.in_region():
            result = ctx.rankctx.comm.bcast(result, root=0)
        return result

    return wrapper


def _wrap_ignorable(tmpl: IgnorableMethod, inner: Callable) -> Callable:
    @functools.wraps(inner)
    def wrapper(self, *args, **kwargs):
        ctx = _ctx_of(self)
        if ctx is not None and ctx.replay_active():
            return None
        return inner(self, *args, **kwargs)

    return wrapper


#: advice templates: (runs "before" or "after" the method, the
#: ExecutionContext hook it calls).  A template with a ``field`` passes
#: it to the hook.
_ADVICE: dict[type, tuple[str, str]] = {
    BarrierBefore: ("before", "barrier"),
    BarrierAfter: ("after", "barrier"),
    ScatterBefore: ("before", "scatter_field"),
    GatherAfter: ("after", "gather_field"),
    AllGatherAfter: ("after", "allgather_field"),
    HaloExchangeBefore: ("before", "halo_field"),
    SafePointBefore: ("before", "on_safepoint"),
    SafePointAfter: ("after", "on_safepoint"),
}


def _wrap_advice(tmpl: Template, inner: Callable) -> Callable:
    """One context hook before or after ``inner``, per :data:`_ADVICE`.

    After-advice reads the context only once the method has returned
    (the method may bind or unbind it); with no context the method runs
    alone.
    """
    when, hook = _ADVICE[type(tmpl)]
    field = getattr(tmpl, "field", None)
    advise = operator.methodcaller(hook, *(() if field is None else (field,)))

    if when == "before":
        @functools.wraps(inner)
        def before(self, *args, **kwargs):
            ctx = _ctx_of(self)
            if ctx is not None:
                advise(ctx)
            return inner(self, *args, **kwargs)

        return before

    @functools.wraps(inner)
    def after(self, *args, **kwargs):
        result = inner(self, *args, **kwargs)
        ctx = _ctx_of(self)
        if ctx is not None:
            advise(ctx)
        return result

    return after


_FACTORIES: dict[type, Callable[[Any, Callable], Callable]] = {
    ParallelMethod: _wrap_parallel,
    ForMethod: _wrap_for,
    SynchronizedMethod: _wrap_synchronized,
    MasterMethod: _wrap_master,
    SingleMethod: _wrap_single,
    ReduceResult: _wrap_reduce,
    OnMaster: _wrap_on_master,
    IgnorableMethod: _wrap_ignorable,
    **dict.fromkeys(_ADVICE, _wrap_advice),
}


# ---------------------------------------------------------------------------
# plug / unplug
# ---------------------------------------------------------------------------
def plug(cls: type, plugset: PlugSet) -> type:
    """Weave ``plugset`` onto ``cls``; returns the woven subclass."""
    if getattr(cls, "__pp_base__", None) is not None:
        raise WeaveError(
            f"{cls.__name__} is already woven; unplug first or compose "
            f"plug sets with '+' before weaving")
    namespace: dict[str, Any] = {}
    for method in plugset.methods():
        orig = getattr(cls, method, None)
        if orig is None or not callable(orig):
            raise WeaveError(
                f"join point {cls.__name__}.{method} does not exist")
        tmpls = plugset.for_method(method)
        # exactly-once templates: stacking two work-sharing or two region
        # declarations on one method silently mis-schedules work.
        for kind in (ForMethod, ParallelMethod):
            if sum(1 for t in tmpls if isinstance(t, kind)) > 1:
                raise WeaveError(
                    f"{kind.__name__} declared more than once for "
                    f"{cls.__name__}.{method}")
        wrapped: Callable = orig
        for tmpl in tmpls:
            factory = _FACTORIES.get(type(tmpl))
            if factory is None:
                raise WeaveError(f"no wrapper for template {tmpl!r}")
            wrapped = factory(tmpl, wrapped)
        namespace[method] = wrapped
    for tls in plugset.of_type(ThreadLocal):
        namespace[tls.field] = ThreadLocalField(tls.field, _tid_getter)
    woven = type(f"{cls.__name__}_PP", (cls,), namespace)
    woven.__pp_base__ = cls
    woven.__pp_plugs__ = plugset
    woven.__module__ = cls.__module__
    return woven


def unplug(woven: type) -> type:
    """Recover the untouched base class of a woven class."""
    base = getattr(woven, "__pp_base__", None)
    if base is None:
        raise WeaveError(f"{woven.__name__} is not a woven class")
    return base


def is_woven(cls: type) -> bool:
    return getattr(cls, "__pp_base__", None) is not None


def make_context(woven: type, config, **kwargs) -> ExecutionContext:
    """Build an :class:`ExecutionContext` pre-loaded with the woven class's
    checkpoint/partition declarations."""
    plugset: PlugSet = getattr(woven, "__pp_plugs__", PlugSet())
    kwargs.setdefault("safedata", plugset.safedata_fields())
    kwargs.setdefault("partitioned", plugset.partitioned_fields())
    return ExecutionContext(config, **kwargs)
