"""Thread-local object fields.

The paper (Section III.B) added *thread local fields* so each thread in a
team sees a private copy of an object field, avoiding synchronisation.  On
expansion, "thread local variables are updated with the value of the main
thread" (Section IV.B) — :meth:`ThreadLocalField.seed_from_master`
implements exactly that; on contraction the master's copy survives.

Storage lives in the instance's ``__dict__`` under a mangled name, keyed by
team thread id (``None`` outside any team = the sequential value), so the
base class stays untouched and unplugging restores plain attribute access.
"""

from __future__ import annotations

from typing import Any

_MISSING = object()


class ThreadLocalField:
    """Descriptor replacing a plain attribute with per-thread storage."""

    def __init__(self, name: str, tid_getter) -> None:
        self.name = name
        self.slot = f"_tls__{name}"
        self._tid = tid_getter  # () -> int | None

    # -- descriptor protocol -------------------------------------------
    def __get__(self, obj: Any, objtype=None):
        if obj is None:
            return self
        store = obj.__dict__.setdefault(self.slot, {})
        tid = self._tid()
        val = store.get(tid, _MISSING)
        if val is _MISSING:
            # Fall back to the master thread's value, then the sequential
            # value: a newly grown thread's first read sees the main
            # thread's copy (Section IV.B: "thread local variables are
            # updated with the value of the main thread").
            val = store.get(0, _MISSING)
            if val is _MISSING:
                val = store.get(None, _MISSING)
            if val is _MISSING:
                raise AttributeError(
                    f"thread-local field {self.name!r} read before any write")
        return val

    def __set__(self, obj: Any, value: Any) -> None:
        store = obj.__dict__.setdefault(self.slot, {})
        store[self._tid()] = value

    def __delete__(self, obj: Any) -> None:
        store = obj.__dict__.setdefault(self.slot, {})
        store.pop(self._tid(), None)

    # -- team protocol --------------------------------------------------
    def seed_from_master(self, obj: Any, tids: list[int]) -> None:
        """Copy the master thread's value to each tid in ``tids``."""
        store = obj.__dict__.setdefault(self.slot, {})
        master = store.get(0, store.get(None, _MISSING))
        if master is _MISSING:
            return
        for tid in tids:
            store.setdefault(tid, master)

