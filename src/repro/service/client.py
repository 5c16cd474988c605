"""Client API for the runtime service: submit / status / result / cancel.

One request-reply frame pair per call over a fresh loopback
:class:`~multiprocessing.connection.Connection` (the one wire format of
:mod:`repro.dsm.links`, served by the daemon's front-door loop) — the
protocol is stateless on purpose, so a client object is just an
address and can outlive service restarts.  Woven classes ship portable
(base class + plug set, re-woven daemon-side), the same convention the
spawn start method uses, so anything submittable is anything picklable.
"""

from __future__ import annotations

from repro.dsm.links import dial
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
        timeout = timeout or self.timeout
        try:
            with dial(self.address, timeout) as conn:
                conn.send(req)
                if not conn.poll(timeout):
                    raise TimeoutError(
                        f"service at {self.address}: no reply to "
                        f"{req.get('op')!r} within {timeout:.1f}s")
                reply = conn.recv()
        except EOFError:
            raise ServiceError("service closed the connection") from None
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
        returns the status view (``status``/``value``/``vtime``/...).
        The daemon parks the call until the job finishes, so waiting
        costs one idle connection and no daemon thread."""
        while True:
            wait = 3600.0 if timeout is None else max(timeout, 0.0)
            reply = self._call({"op": "result", "job": job, "wait": wait},
                               timeout=wait + self.timeout)
            if reply["ready"] or timeout is not None:
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
