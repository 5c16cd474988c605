"""Client API for the runtime service: submit / status / result / cancel.

One request-reply frame pair per call over a fresh loopback connection
— the protocol is stateless on purpose, so a client object is just an
address and can outlive service restarts.  Woven classes ship portable
(base class + plug set, re-woven daemon-side), the same convention the
spawn start method uses, so anything submittable is anything picklable.
"""

from __future__ import annotations

import socket
import time

from repro.dsm.socketmail import recv_framed, send_framed
from repro.exec.worker import portable_woven


class ServiceError(RuntimeError):
    """The daemon rejected or failed a request."""


class ServiceClient:
    """Talk to a :class:`~repro.service.daemon.RuntimeService`."""

    def __init__(self, address: tuple[str, int],
                 timeout: float = 30.0) -> None:
        self.address = address
        self.timeout = timeout

    # ------------------------------------------------------------------
    def _call(self, req: dict, timeout: float | None = None) -> dict:
        with socket.create_connection(self.address,
                                      timeout=timeout or self.timeout) as c:
            c.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            send_framed(c, req)
            reply = recv_framed(c)
        if reply is None:
            raise ServiceError("service closed the connection")
        if not reply.get("ok"):
            raise ServiceError(reply.get("error", "request failed"))
        return reply

    # ------------------------------------------------------------------
    def submit(self, woven: type, ctor_args: tuple = (),
               ctor_kwargs: dict | None = None, entry: str = "run",
               entry_args: tuple = (), nranks: int = 2,
               min_ranks: int | None = None, max_ranks: int | None = None,
               priority: int = 0, policy=None,
               ckpt_strategy: str = "master",
               telemetry: bool = True,
               trace: bool | str = False) -> int:
        """Enqueue a job; returns its id (raises on a full queue).

        ``telemetry=False`` runs the job without a metrics plane: its
        result carries ``metrics: None`` and nothing is folded into
        the service-wide registry.  ``trace=True`` (or ``"flight"`` for
        small flight-recorder rings) records the job's timeline; fetch
        the assembled Chrome trace document with :meth:`trace`.
        """
        base, plugs = portable_woven(woven)
        request = {
            "woven": base, "plugs": plugs, "ctor_args": tuple(ctor_args),
            "ctor_kwargs": ctor_kwargs or {}, "entry": entry,
            "entry_args": tuple(entry_args), "nranks": nranks,
            "min_ranks": min_ranks, "max_ranks": max_ranks,
            "policy": policy, "ckpt_strategy": ckpt_strategy,
            "telemetry": telemetry, "trace": trace,
        }
        reply = self._call({"op": "submit", "request": request,
                            "priority": priority})
        return reply["job"]

    def status(self, job: int) -> dict:
        return self._call({"op": "status", "job": job})

    def result(self, job: int, timeout: float | None = None) -> dict:
        """Block until the job reaches a terminal state (or ``timeout``);
        returns the status view (``status``/``value``/``vtime``/...)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            wait = 5.0
            if deadline is not None:
                wait = min(wait, deadline - time.monotonic())
                if wait <= 0:
                    return self.status(job)
            reply = self._call({"op": "result", "job": job, "wait": wait},
                               timeout=wait + self.timeout)
            if reply.get("ready"):
                return reply

    def cancel(self, job: int) -> dict:
        return self._call({"op": "cancel", "job": job})

    def stats(self) -> dict:
        return self._call({"op": "stats"})

    def trace(self, job: int) -> dict:
        """A finished job's Chrome trace-event document (Perfetto-
        loadable); the job must have been submitted with ``trace=``."""
        return self._call({"op": "trace", "job": job})["trace"]

    def shutdown(self) -> None:
        self._call({"op": "shutdown"})
