"""Backend registry: how an :class:`ExecConfig` finds its launcher.

Resolution order for a configuration:

1. ``config.backend`` — an explicit registry *name* pins the launch to a
   specific backend (an adaptation step can therefore reshape onto a
   different backend, not just a different shape);
2. otherwise the configuration's :class:`~repro.core.modes.Mode` selects
   the backend registered as that mode's default.

The process-wide :func:`default_registry` comes pre-populated with the
six stock backends, with a default for each of the four modes.
Registering a new backend is one call and touches nothing in ``core/``::

    from repro.exec import default_registry
    default_registry().register(MyMultiprocessBackend())   # by name only
    default_registry().register(MyMpiBackend(), mode=Mode.DISTRIBUTED,
                                replace=True)              # new default

Advisors and resource managers consult ``supports(mode)`` (the mode has
a default) so adaptation ladders and Grid mapping policies only ever
propose configurations that can actually be launched.
"""

from __future__ import annotations

from repro.core.errors import WeaveError
from repro.core.modes import ExecConfig, Mode
from repro.exec.base import ExecutionBackend


class BackendRegistry:
    """Named execution backends plus per-mode defaults."""

    def __init__(self) -> None:
        self._by_name: dict[str, ExecutionBackend] = {}
        self._by_mode: dict[Mode, ExecutionBackend] = {}

    # ------------------------------------------------------------------
    def register(self, backend: ExecutionBackend, mode: Mode | None = None,
                 replace: bool = False) -> ExecutionBackend:
        """Add ``backend`` under its ``name``; optionally as a mode default.

        Returns the backend (handy for chaining in tests).
        """
        name = backend.name
        if not name or name == "abstract":
            raise WeaveError("execution backends must define a name")
        previous = self._by_name.get(name)
        if previous is not None and not replace:
            raise WeaveError(f"backend {name!r} is already registered "
                             "(pass replace=True to override)")
        self._by_name[name] = backend
        if previous is not None:
            # replacing a name must also replace any mode defaults bound
            # to the old instance, or mode-based resolution would keep
            # silently launching the replaced backend.
            for m, b in list(self._by_mode.items()):
                if b is previous:
                    self._by_mode[m] = backend
        if mode is not None:
            if mode in self._by_mode and not replace:
                raise WeaveError(f"mode {mode.value!r} already has a default "
                                 "backend (pass replace=True to override)")
            self._by_mode[mode] = backend
        return backend

    # ------------------------------------------------------------------
    def resolve(self, config: ExecConfig) -> ExecutionBackend:
        """The backend that launches ``config`` (name beats mode)."""
        if config.backend is not None:
            try:
                return self._by_name[config.backend]
            except KeyError:
                raise WeaveError(
                    f"no execution backend named {config.backend!r}; "
                    f"registered: {sorted(self._by_name)}") from None
        backend = self._by_mode.get(config.mode)
        if backend is None:
            raise WeaveError(
                f"no execution backend registered for mode "
                f"{config.mode.value!r}")
        return backend

    def supports(self, mode: Mode) -> bool:
        """Does ``mode`` have a default backend to launch it?"""
        return mode in self._by_mode


# ---------------------------------------------------------------------------
# the process-wide default registry
# ---------------------------------------------------------------------------
def build_default_registry() -> BackendRegistry:
    """A fresh registry holding the six stock backends.

    The simulated cluster stays the DISTRIBUTED default (virtual-time
    fidelity); the real multiprocessing and sockets backends are
    registered by name — ``ExecConfig.distributed(n)
    .with_backend("multiproc")`` / ``.with_backend("sockets")``.
    """
    from repro.exec.cluster import SimClusterBackend
    from repro.exec.hybrid import HybridBackend
    from repro.exec.multiproc import MultiprocessBackend
    from repro.exec.sequential import SequentialBackend
    from repro.exec.sockets import SocketsBackend
    from repro.exec.threads import ThreadTeamBackend

    reg = BackendRegistry()
    reg.register(SequentialBackend(), mode=Mode.SEQUENTIAL)
    reg.register(ThreadTeamBackend(), mode=Mode.SHARED)
    reg.register(SimClusterBackend(), mode=Mode.DISTRIBUTED)
    reg.register(HybridBackend(), mode=Mode.HYBRID)
    reg.register(MultiprocessBackend())
    reg.register(SocketsBackend())
    return reg


_default: BackendRegistry | None = None


def default_registry() -> BackendRegistry:
    """The process-wide registry every :class:`Runtime` uses by default."""
    global _default
    if _default is None:
        _default = build_default_registry()
    return _default
