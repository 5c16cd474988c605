"""Parent-side trace assembly: rings -> Chrome trace-event JSON.

The binary rings hold fixed-width records with integer name codes; this
module re-attaches names and emits the Chrome trace-event format that
Perfetto (https://ui.perfetto.dev) and ``chrome://tracing`` load
directly:

* one **track per rank** (``pid`` = rank + 1; the driver loop gets its
  own ``pid`` 0 track), named via ``process_name`` metadata events;
* **spans** as matched ``B``/``E`` duration events.  Rings store one
  record per *finished* span (written at span end, so a wrapped ring
  never strands an unmatched ``B``), and the assembler reconstructs the
  nesting from the intervals — exact containment is guaranteed because
  spans on one rank come from one call stack;
* **instants** (``ph: "i"``) for point events, including every
  :class:`~repro.util.events.Event` of the run's log (satellite of the
  one-source-timeline unification);
* **flow arrows** for cross-rank messages: a ``send`` record opens flow
  ``src.seq`` on the sender's track, the matching ``recv`` record —
  whose slice duration is the receiver's wait — closes it with a
  ``bp: "e"`` bind.  Arrows are emitted only when both ends survived
  their rings, so every flow in the document is well-formed;
* **vtime in args**: every span carries the virtual clock alongside the
  wall interval, which is how wall timelines stay anchored to the
  deterministic results.

``validate_chrome_trace`` is the schema gate CI and the tests run over
every emitted document.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.trace import schema as _sc
from repro.trace.plane import TracePlane

#: arg names for the first payload words of each span/instant code
#: (fallback: generic "a"/"b").
_ARG_NAMES: dict[int, tuple[str, ...]] = {
    _sc.PHASE: ("vtime", "attempt"),
    _sc.SAFEPOINT: ("vtime", "count"),
    _sc.CHECKPOINT: ("vtime", "count"),
    _sc.CHECKPOINT_LOCAL: ("vtime", "count"),
    _sc.CAPTURE: ("vtime", "count"),
    _sc.CKPT_WRITE: ("nbytes",),
    _sc.CKPT_FLUSH: ("pending",),
    _sc.CKPT_FUNNEL: ("nbytes",),
    _sc.RESTORE: ("vtime", "count"),
    _sc.ADAPT_EXIT: ("vtime", "count"),
    _sc.TEAM_RESIZE: ("vtime", "workers"),
    _sc.MOVES: ("vtime", "count"),
    _sc.RENDEZVOUS: ("vtime", "count"),
    _sc.SWITCH: ("vtime", "nranks"),
    _sc.TCP_FRAME: ("dst", "nbytes"),
    _sc.CKPT_FETCH: ("chunks", "count"),
    _sc.CKPT_READ: ("nbytes", "count"),
    _sc.CKPT_ASSEMBLE: ("nranks", "count"),
}

_KIND_NAMES = {_sc.KIND_SPAN: "span", _sc.KIND_INSTANT: "instant",
               _sc.KIND_SEND: "send", _sc.KIND_RECV: "recv"}


def _track(rank: int) -> tuple[int, str]:
    """(pid, display name) of one rank's track (-1 is the driver)."""
    if rank < 0:
        return 0, "driver"
    return rank + 1, f"rank {rank}"


def _span_args(code: int, a: float, b: float) -> dict:
    names = _ARG_NAMES.get(code, ("a", "b"))
    args = {names[0]: a}
    if len(names) > 1:
        args[names[1]] = b
    return args


class TraceAssembler:
    """Accumulates per-rank records; emits one Chrome trace document."""

    def __init__(self) -> None:
        self.by_rank: dict[int, list[tuple]] = {}

    def add(self, rank: int, records: list[tuple]) -> None:
        self.by_rank.setdefault(rank, []).extend(records)

    # ------------------------------------------------------------------
    def emit(self, events=None, extra: dict | None = None) -> dict:
        """The Chrome trace-event document (``json.dump``-ready)."""
        spans: dict[int, list[tuple]] = {}     # pid -> (t0, end, name, args)
        instants: list[tuple] = []             # (pid, t, name, args)
        # (src, tag, epoch, seq) -> [(pid, t0, dst), ...].  A list, not
        # a single slot: a restarted launch re-counts seq from zero, so
        # the full id can legitimately repeat within one run's records.
        sends: dict[tuple, list[tuple]] = {}
        recvs: list[tuple] = []
        times: list[float] = []
        for rank, records in self.by_rank.items():
            pid, _ = _track(rank)
            for rec in records:
                _g, kind, code, t0, dur, a, b, c, d = rec
                code = int(code)
                times.append(t0)
                if kind == _sc.KIND_SPAN:
                    spans.setdefault(pid, []).append(
                        (t0, t0 + dur, _sc.name_of(code),
                         _span_args(code, a, b)))
                elif kind == _sc.KIND_INSTANT:
                    instants.append((pid, t0, _sc.name_of(code),
                                     _span_args(code, a, b)))
                elif kind == _sc.KIND_SEND:
                    sends.setdefault(
                        (rank, int(b), int(c), int(d)), []).append(
                        (pid, t0, int(a)))
                elif kind == _sc.KIND_RECV:
                    recvs.append((pid, t0, t0 + dur,
                                  int(a), int(b), int(c), int(d)))
        ev_list = list(events) if events is not None else []
        for ev in ev_list:
            wall = getattr(ev, "wall", 0.0)
            if wall > 0.0:
                times.append(wall)
        if not times:
            return {"traceEvents": [],
                    "displayTimeUnit": "ms",
                    "otherData": dict(extra or {})}
        tmin = min(times)

        def us(t: float) -> float:
            return round((t - tmin) * 1e6, 3)

        out: list[dict] = []
        pids = sorted({_track(r)[0] for r in self.by_rank})
        for rank in sorted(self.by_rank):
            pid, label = _track(rank)
            out.append({"name": "process_name", "ph": "M", "pid": pid,
                        "tid": 0, "args": {"name": label}})
        # -- spans: reconstruct B/E nesting from intervals -------------
        for pid, intervals in spans.items():
            out.extend(self._nested(pid, intervals, us))
        # -- instants --------------------------------------------------
        for pid, t, name, args in instants:
            out.append({"name": name, "ph": "i", "ts": us(t), "pid": pid,
                        "tid": 0, "s": "t", "args": args})
        # -- event-log instants (the unified Figure-6 timeline) --------
        for ev in ev_list:
            wall = getattr(ev, "wall", 0.0)
            if wall <= 0.0:
                continue
            pid, _ = _track(ev.rank)
            args = {"vtime": ev.vtime, "seq": getattr(ev, "seq", 0)}
            for k, v in ev.data.items():
                args[k] = v if isinstance(v, (int, float, str, bool)) \
                    else str(v)
            out.append({"name": ev.kind, "ph": "i", "ts": us(wall),
                        "pid": pid, "tid": 0, "s": "t", "args": args,
                        "cat": "event"})
        # -- message slices + flow arrows ------------------------------
        # each recv pairs with the closest preceding send of its full
        # message id (the true pair always satisfies send.t0 < recv
        # end); a send whose record was lapped out of its ring leaves
        # its recv without an arrow rather than mis-paired.
        fid_used: dict[str, int] = {}
        for pid, t0, t1, src, tag, epoch, seq in recvs:
            args = {"src": src, "tag": tag, "epoch": epoch, "seq": seq}
            out.append({"name": "recv", "ph": "X", "ts": us(t0),
                        "dur": max(us(t1) - us(t0), 0.001), "pid": pid,
                        "tid": 0, "cat": "msg", "args": args})
            candidates = sends.get((src, tag, epoch, seq), [])
            best = None
            for cand in candidates:
                if cand[1] < t1 and (best is None or cand[1] > best[1]):
                    best = cand
            if best is None:
                continue
            candidates.remove(best)
            spid, st, dst = best
            fid = f"{src}.{epoch}.{seq}"
            n = fid_used.get(fid, 0)
            fid_used[fid] = n + 1
            if n:
                fid = f"{fid}#{n}"
            out.append({"name": "send", "ph": "X", "ts": us(st),
                        "dur": 0.001, "pid": spid, "tid": 0, "cat": "msg",
                        "args": {"dst": dst, "tag": tag, "epoch": epoch,
                                 "seq": seq}})
            out.append({"name": "msg", "ph": "s", "cat": "flow", "id": fid,
                        "ts": us(st), "pid": spid, "tid": 0})
            out.append({"name": "msg", "ph": "f", "cat": "flow", "id": fid,
                        "bp": "e", "ts": us(t1), "pid": pid, "tid": 0})
        for (src, tag, epoch, seq), rest in sends.items():
            for spid, st, dst in rest:  # never matched by a recv
                out.append({"name": "send", "ph": "X", "ts": us(st),
                            "dur": 0.001, "pid": spid, "tid": 0,
                            "cat": "msg",
                            "args": {"dst": dst, "tag": tag,
                                     "epoch": epoch, "seq": seq}})
        out.sort(key=lambda e: (e.get("ts", -1.0), e["pid"]))
        other = {"tracks": len(pids)}
        other.update(extra or {})
        return {"traceEvents": out, "displayTimeUnit": "ms",
                "otherData": other}

    @staticmethod
    def _nested(pid: int, intervals: list[tuple], us) -> list[dict]:
        """Emit properly nested B/E pairs for one track's intervals.

        Spans on one rank come from one call stack, so the intervals
        are exactly nested (a child starts after and ends before its
        parent); sorting by (start, -length) and sweeping with a stack
        reproduces that nesting as balanced B/E events.
        """
        out: list[dict] = []
        stack: list[tuple] = []  # (end, name)
        for t0, t1, name, args in sorted(
                intervals, key=lambda iv: (iv[0], iv[0] - iv[1])):
            while stack and stack[-1][0] <= t0:
                end, ename = stack.pop()
                out.append({"name": ename, "ph": "E", "ts": us(end),
                            "pid": pid, "tid": 0})
            out.append({"name": name, "ph": "B", "ts": us(t0),
                        "pid": pid, "tid": 0, "args": args})
            stack.append((t1, name))
        while stack:
            end, ename = stack.pop()
            out.append({"name": ename, "ph": "E", "ts": us(end),
                        "pid": pid, "tid": 0})
        return out


class TraceCollector:
    """One run's trace state: ring capacity, scraped records, assembly.

    This is the object :class:`~repro.exec.base.PhaseServices` carries
    (``services.trace``): backends size their planes from
    ``capacity``, feed drain-time scrapes into :meth:`absorb`, and the
    driver loop writes its own phase spans through the dedicated
    ``driver`` writer (a process-local ring — the driver is not a rank,
    so it never competes with a rank's thread-local binding).

    ``flight=True`` is the flight-recorder mode: rings shrink to
    :data:`~repro.trace.schema.FLIGHT_CAPACITY` records so each rank's
    ring is a rolling black box, and :meth:`flight_snapshot` decodes
    the last moments of every rank for the failure report.
    """

    def __init__(self, flight: bool = False,
                 capacity: int | None = None) -> None:
        self.flight = bool(flight)
        self.capacity = int(capacity) if capacity else (
            _sc.FLIGHT_CAPACITY if flight else _sc.DEFAULT_CAPACITY)
        self._lock = threading.Lock()
        self.by_rank: dict[int, list[tuple]] = {}
        self.backends: list[str] = []
        #: flight-recorder black boxes the driver snapshotted at each
        #: failure of the run (one dict per failure, newest last).
        self.flights: list[dict] = []
        self._driver_plane = TracePlane.local(1)
        self.driver = self._driver_plane.writer(0)

    # ------------------------------------------------------------------
    def absorb(self, scraped: dict[int, list[tuple]],
               backend: str = "") -> None:
        """Fold one plane's drain-time scrape into the run's record."""
        with self._lock:
            for rank, records in scraped.items():
                self.by_rank.setdefault(rank, []).extend(records)
            if backend and backend not in self.backends:
                self.backends.append(backend)

    def _all_ranks(self) -> dict[int, list[tuple]]:
        """Accumulated rank records plus the driver's ring (rank -1).

        The driver ring is re-scraped (not accumulated): its records
        live in this process for the collector's whole life, so the
        scrape is always the complete, current picture.
        """
        with self._lock:
            out = {r: list(v) for r, v in self.by_rank.items()}
        drv = self._driver_plane.scrape(include_frozen=True).get(0)
        if drv:
            out[-1] = drv
        return out

    # ------------------------------------------------------------------
    def assemble(self, events=None) -> dict:
        """The run's Chrome trace-event document."""
        asm = TraceAssembler()
        for rank, records in self._all_ranks().items():
            asm.add(rank, records)
        extra: dict[str, Any] = {"backends": list(self.backends),
                                 "flight": self.flight}
        if self.flights:
            extra["flight_snapshots"] = list(self.flights)
        return asm.emit(events=events, extra=extra)

    def flight_snapshot(self, last_n: int = _sc.FLIGHT_LAST_N
                        ) -> dict[str, list[dict]]:
        """The black box: the last ``last_n`` decoded records per rank.

        Keys are rank numbers as strings (``"driver"`` for the parent
        loop — string keys keep the box JSON-embeddable); every rank
        that ever bound a writer appears — including a rank that died,
        whose ring survived it in the launch's segment.
        """
        out: dict[str, list[dict]] = {}
        for rank, records in self._all_ranks().items():
            decoded = [self._decode(rec) for rec in records[-last_n:]]
            out["driver" if rank < 0 else str(rank)] = decoded
        return out

    @staticmethod
    def _decode(rec: tuple) -> dict:
        g, kind, code, t0, dur, a, b, c, d = rec
        return {"gen": int(g), "kind": _KIND_NAMES.get(kind, "?"),
                "name": _sc.name_of(code), "t0": t0, "dur": dur,
                "args": (a, b, c, d)}


def validate_chrome_trace(doc: dict) -> dict:
    """Strict structural check of one Chrome trace-event document.

    Verifies the container shape, per-event required keys, balanced and
    properly nested ``B``/``E`` pairs per track, and well-formed flow
    bind points (every ``f`` closes a seen ``s`` of the same id, with
    ``bp: "e"``).  Raises :class:`ValueError` on the first violation;
    returns summary counts for assertions.
    """
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError("not a trace document: no traceEvents")
    evs = doc["traceEvents"]
    if not isinstance(evs, list):
        raise ValueError("traceEvents must be a list")
    stacks: dict[tuple, list[str]] = {}
    flows_open: dict[str, int] = {}
    counts = {"events": len(evs), "spans": 0, "instants": 0, "flows": 0,
              "tracks": set()}
    for i, ev in enumerate(evs):
        for key in ("ph", "pid"):
            if key not in ev:
                raise ValueError(f"event {i}: missing {key!r}: {ev}")
        ph = ev["ph"]
        if ph != "E" and "name" not in ev:
            raise ValueError(f"event {i}: missing name: {ev}")
        if ph != "M":
            if "ts" not in ev:
                raise ValueError(f"event {i}: missing ts: {ev}")
            counts["tracks"].add((ev["pid"], ev.get("tid", 0)))
        track = (ev["pid"], ev.get("tid", 0))
        if ph == "B":
            stacks.setdefault(track, []).append(ev["name"])
            counts["spans"] += 1
        elif ph == "E":
            stack = stacks.get(track)
            if not stack:
                raise ValueError(f"event {i}: E without open B on {track}")
            stack.pop()
        elif ph == "i":
            counts["instants"] += 1
        elif ph == "X":
            if "dur" not in ev:
                raise ValueError(f"event {i}: X without dur: {ev}")
        elif ph == "s":
            if "id" not in ev:
                raise ValueError(f"event {i}: flow start without id")
            flows_open[ev["id"]] = i
        elif ph == "f":
            if "id" not in ev:
                raise ValueError(f"event {i}: flow finish without id")
            if ev["id"] not in flows_open:
                raise ValueError(
                    f"event {i}: flow finish {ev['id']!r} without start")
            if ev.get("bp") != "e":
                raise ValueError(
                    f"event {i}: flow finish must bind enclosing (bp='e')")
            del flows_open[ev["id"]]
            counts["flows"] += 1
        elif ph not in ("M", "t"):
            raise ValueError(f"event {i}: unknown phase {ph!r}")
    dangling = [t for t, stack in stacks.items() if stack]
    if dangling:
        raise ValueError(f"unbalanced B/E on tracks {dangling}")
    counts["tracks"] = len(counts["tracks"])
    return counts
