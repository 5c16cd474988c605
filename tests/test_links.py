"""The one serving loop behind every socket server (``repro.dsm.links``).

The loop itself: frames are dispatched whole however the bytes arrive,
the large-frame header is understood, a bogus size header allocates
nothing up front, a link torn mid-frame is dropped alone, held work
runs on its condition or its deadline, and ``stop`` returns at once.

Its three users, each the way a stalled or slow peer would hit it:

* a sockets rank's progress thread — one thread whatever the number of
  inbound peers, a peer stalled mid-frame holds up no other peer, and a
  one-sided put that arrives before ``attach`` holds up no later frame
  and lands when the rank exposes its window and fences;
* the service daemon's front door — one thread for the RPC and metrics
  ports and any number of parked ``result`` long-polls, a client
  stalled mid-frame holds up no other client, and an idle service
  stops at once.

(The funnel's stalled-link cases live with its other link tests in
``tests/test_funnel_idle.py``.)
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import queue
import socket
import struct
import threading
import time
from multiprocessing.connection import Connection
from urllib.request import urlopen

import numpy as np
import pytest

from repro.apps.plugs.sor_plugs import SOR_ADAPTIVE
from repro.apps.sor import SOR
from repro.core import plug
from repro.dsm.comm import TAG_PUT, RankContext, _bind
from repro.dsm.links import LinkLoop, dial
from repro.dsm.mailbox import Message
from repro.dsm.socketmail import HierarchicalCommunicator, SocketTransport
from repro.service import RuntimeService, ServiceClient
from repro.vtime import MachineModel
from repro.vtime.clock import VClock

#: how long any other link may wait behind a stalled one.
SERVED_WITHIN = 2.0
MACHINE = MachineModel(nodes=2, cores_per_node=4)
needs_fork = pytest.mark.skipif("fork" not in mp.get_all_start_methods(),
                                reason="the service pre-forks its fleet")


def _echo_loop():
    """A started loop that replies to every frame with ``("got", obj)``,
    and the list of objects it dispatched."""
    seen: list = []

    def serve(_conn, obj):
        seen.append(obj)
        return ("got", obj)

    loop = LinkLoop("test-links")
    address = loop.bind("127.0.0.1", serve)
    loop.start()
    return loop, address, seen


def _half_frame() -> bytes:
    """A header promising 100 bytes, and 3 of them."""
    return struct.pack("!i", 100) + b"abc"


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------
class TestLoop:
    def test_frames_dispatch_whole_however_the_bytes_arrive(self):
        loop, address, seen = _echo_loop()
        try:
            blobs = [pickle.dumps(x) for x in ("a", list(range(30000)), "b")]
            wire = b"".join(struct.pack("!i", len(b)) + b for b in blobs)
            with dial(address) as conn:
                # byte by byte through the first header and body, then
                # the rest in one write holding two whole frames
                for i in range(40):
                    _write(conn, wire[i:i + 1])
                    time.sleep(0.001)
                _write(conn, wire[40:])
                got = [conn.recv() for _ in blobs]
            assert got == [("got", pickle.loads(b)) for b in blobs]
            assert seen == [pickle.loads(b) for b in blobs]
        finally:
            loop.stop(5.0)

    def test_the_large_frame_header_is_understood(self):
        """``-1`` then a u64 size: the header of frames of 2 GiB and
        more, which a reader must accept at any size."""
        loop, address, seen = _echo_loop()
        try:
            blob = pickle.dumps(np.arange(10))
            with dial(address) as conn:
                _write(conn, struct.pack("!i", -1)
                       + struct.pack("!Q", len(blob)) + blob)
                assert conn.recv()[0] == "got"
            np.testing.assert_array_equal(seen[0], np.arange(10))
        finally:
            loop.stop(5.0)

    def test_connection_clients_round_trip(self):
        loop, address, _ = _echo_loop()
        try:
            with dial(address) as conn:
                # the 3 MB frame outgrows a body buffer's first size
                for x in (1, b"x" * 3_000_000, {"k": [1, 2]}):
                    conn.send(x)
                    assert conn.recv() == ("got", x)
        finally:
            loop.stop(5.0)

    def test_a_torn_link_is_dropped_alone(self):
        loop, address, _ = _echo_loop()
        try:
            healthy = dial(address)
            with socket.create_connection(address) as torn:
                torn.sendall(_half_frame())
                healthy.send("x")
                assert healthy.recv() == ("got", "x")
            deadline = time.monotonic() + 5.0
            while len(loop.links) > 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(loop.links) == 1
            healthy.send("y")
            assert healthy.recv() == ("got", "y")
            healthy.close()
        finally:
            loop.stop(5.0)

    def test_a_bogus_size_costs_only_what_was_sent(self):
        """An HTTP request sent to a frame port reads as a 1.1 GB size
        header: the body buffer grows with what arrives instead of
        being allocated up front, and other links are still served."""
        loop, address, _ = _echo_loop()
        try:
            with socket.create_connection(address) as stray, \
                    dial(address) as healthy:
                stray.sendall(b"GET /metrics HTTP/1.0\r\n\r\n")
                healthy.send("x")
                assert healthy.recv() == ("got", "x")
                deadline = time.monotonic() + SERVED_WITHIN
                while time.monotonic() < deadline:
                    keys = list(loop._sel.get_map().values())
                    bodies = [k.data for k in keys
                              if k.data is not None and k.data.stage == 2]
                    if bodies:
                        break
                    time.sleep(0.01)
                assert [b.size for b in bodies] == [0x47455420]  # "GET "
                assert len(bodies[0].buf) <= 1 << 20
        finally:
            loop.stop(5.0)

    def test_held_work_runs_on_its_condition_or_its_deadline(self):
        flag = threading.Event()
        parked = {}

        def serve(conn, obj):
            if obj == "park":  # answered when the flag is set
                loop.hold(flag.is_set, lambda: "flagged",
                          time.monotonic() + 60.0, conn)
            else:              # answered when 0.1 s have passed
                loop.hold(lambda: False, lambda: "late",
                          time.monotonic() + 0.1, conn)
            parked[obj] = time.monotonic()

        loop = LinkLoop("test-hold")
        address = loop.bind("127.0.0.1", serve)
        loop.start()
        try:
            a, b = dial(address), dial(address)
            a.send("park")
            b.send("deadline")
            assert b.poll(SERVED_WITHIN) and b.recv() == "late"
            assert time.monotonic() - parked["deadline"] >= 0.09
            assert not a.poll(0.05)
            flag.set()
            loop.wake()
            assert a.poll(SERVED_WITHIN) and a.recv() == "flagged"
            a.close()
            b.close()
        finally:
            loop.stop(5.0)

    def test_a_client_that_never_reads_its_reply_holds_up_no_other(self):
        """A 64 MiB reply to a client that never reads it waits on that
        client's link; the loop answers the next client at once and
        still stops."""
        big = bytes(64 << 20)

        def serve(_conn, obj):
            return big if obj == "big" else ("got", obj)

        loop = LinkLoop("test-no-reader")
        address = loop.bind("127.0.0.1", serve)
        loop.start()
        stopped = False
        try:
            a, b = dial(address), dial(address)
            a.send("big")  # and never read
            time.sleep(0.2)  # the loop is part-way through the reply
            t0 = time.monotonic()
            b.send("small")
            assert b.poll(1.0), "the small reply waited behind the big one"
            assert b.recv() == ("got", "small")
            assert time.monotonic() - t0 < 1.0
            stopped = loop.stop(5.0)
            assert stopped
            a.close()
            b.close()
        finally:
            if not stopped:
                loop.stop(5.0)

    def test_a_reply_larger_than_the_socket_buffer_arrives_whole(self):
        big = np.arange(4 << 20, dtype=np.float64)  # 32 MiB

        loop = LinkLoop("test-big-reply")
        address = loop.bind("127.0.0.1", lambda _conn, obj: big[obj:])
        loop.start()
        try:
            conn = dial(address)
            for start in (0, 1):  # a second reply on the same link
                conn.send(start)
                assert np.array_equal(conn.recv(), big[start:])
            conn.close()
        finally:
            loop.stop(5.0)

    def test_stop_returns_at_once_and_closes_every_link(self):
        for _ in range(10):
            loop, address, _ = _echo_loop()
            conn = dial(address)
            conn.send(1)
            assert conn.recv() == ("got", 1)
            thread = loop.thread
            t0 = time.perf_counter()
            assert loop.stop(5.0)
            assert time.perf_counter() - t0 < 0.05
            assert not thread.is_alive() and loop.links == []
            with pytest.raises(EOFError):
                conn.recv()
            conn.close()
            assert loop.stop(5.0)  # idempotent


def _write(conn: Connection, data: bytes) -> None:
    """Raw bytes onto a link, whatever frames they make."""
    view = memoryview(data)
    while view:
        view = view[os.write(conn.fileno(), view):]


# ---------------------------------------------------------------------------
# the sockets rank's progress thread
# ---------------------------------------------------------------------------
def _fabric(n: int):
    """``n`` ranks, each on its own physical node (every peer remote)."""
    channels = [queue.Queue() for _ in range(n)]
    ts = [SocketTransport(r, channels, lambda r: r) for r in range(n)]
    addresses = {t.rank: t.address for t in ts}
    for t in ts:
        t.set_addresses(addresses)
    return channels, ts


def _msg(src: int, tag: int, payload=None, dst: int = 0) -> Message:
    return Message(src=src, dst=dst, tag=tag, payload=payload, nbytes=8,
                   arrival=0.0)


class TestProgressThread:
    def test_one_serving_thread_whatever_the_number_of_peers(self):
        before = set(threading.enumerate())
        channels, ts = _fabric(6)
        try:
            for t in ts[1:]:
                t.send_frame(0, _msg(t.rank, 3, t.rank))
            got = sorted(channels[0].get(timeout=5.0).payload
                         for _ in ts[1:])
            assert got == [1, 2, 3, 4, 5]
            new = [t for t in threading.enumerate() if t not in before]
            assert sorted(t.name for t in new) == [
                f"sk-progress-{r}" for r in range(6)]
        finally:
            for t in ts:
                t.close()

    def test_a_peer_stalled_mid_frame_holds_up_no_other(self):
        channels, (t0, t1) = _fabric(2)
        try:
            with socket.create_connection(t0.address) as stalled:
                stalled.sendall(_half_frame())
                time.sleep(0.1)  # the half frame is in rank 0's buffer
                t1.send_frame(0, _msg(1, 4, "through"))
                assert channels[0].get(
                    timeout=SERVED_WITHIN).payload == "through"
        finally:
            t0.close()
            t1.close()

    def test_a_put_before_attach_lands_on_the_fence(self):
        """Rank 1 puts into rank 0's window before rank 0 built its
        communicator, then sends a plain frame: neither is held up, the
        put is passed on unapplied, and once rank 0 attaches and exposes
        the window its fence writes the values."""
        channels, (t0, t1) = _fabric(2)
        vals = np.array([7.0, 8.0])
        try:
            t1.send_frame(0, Message(
                src=1, dst=0, tag=TAG_PUT, payload=("W", 0, (1, 3), vals),
                nbytes=vals.nbytes, arrival=0.0))
            t1.send_frame(0, _msg(1, 5, "after"))
            deadline = time.monotonic() + SERVED_WITHIN
            while channels[0].qsize() < 2:
                assert time.monotonic() < deadline, "a frame was held"
                time.sleep(0.01)
            comm = HierarchicalCommunicator(0, 2, MACHINE, t0)
            _bind(RankContext(rank=0, nranks=2, clock=VClock(), comm=comm))
            try:
                assert comm.recv(source=1, tag=5) == "after"
                win = comm.win_expose("W", np.zeros(4))
                comm.fence([1])
            finally:
                _bind(None)
            np.testing.assert_array_equal(win, [0, 7, 8, 0])
        finally:
            t0.close()
            t1.close()


# ---------------------------------------------------------------------------
# the service daemon's front door
# ---------------------------------------------------------------------------
WOVEN = plug(SOR, SOR_ADAPTIVE)
KW = {"n": 40, "iterations": 12}


def _service(tmp_path, workers: int = 2) -> RuntimeService:
    return RuntimeService(workers=workers, lanes=1,
                          machine=MACHINE,
                          ckpt_dir=str(tmp_path / "svc"))


@needs_fork
class TestFrontDoor:
    def test_a_client_stalled_mid_frame_holds_up_no_other(self, tmp_path):
        with _service(tmp_path) as svc:
            client = ServiceClient(svc.address)
            with socket.create_connection(svc.address) as stalled:
                stalled.sendall(_half_frame())
                time.sleep(0.1)
                t0 = time.monotonic()
                job = client.submit(WOVEN, ctor_kwargs=KW, entry="execute",
                                    nranks=2)
                out = client.result(job, timeout=SERVED_WITHIN)
                assert time.monotonic() - t0 < SERVED_WITHIN
                assert out["status"] == "done"
                assert out["value"] == SOR(**KW).execute()

    def test_one_front_door_thread_for_metrics_and_parked_polls(
            self, tmp_path):
        with _service(tmp_path, workers=1) as svc:
            host, port = svc.serve_metrics()
            client = ServiceClient(svc.address)
            # two ranks on a one-worker fleet: queued until cancelled
            job = client.submit(WOVEN, ctor_kwargs=KW, entry="execute",
                                nranks=2, min_ranks=2)
            outs: list = []
            polls = [threading.Thread(
                target=lambda: outs.append(client.result(job, timeout=30.0)))
                for _ in range(4)]
            for t in polls:
                t.start()
            time.sleep(0.3)  # every poll is parked in the loop
            assert outs == []
            body = urlopen(f"http://{host}:{port}/metrics",
                           timeout=SERVED_WITHIN).read().decode()
            assert "repro_service_jobs_queued 1" in body
            names = sorted(t.name for t in threading.enumerate()
                           if t.name.startswith("svc-"))
            assert names == ["svc-front", "svc-sched"]
            t0 = time.monotonic()
            client.cancel(job)
            for t in polls:
                t.join(SERVED_WITHIN)
            assert time.monotonic() - t0 < SERVED_WITHIN
            assert [o["status"] for o in outs] == ["cancelled"] * 4

    def test_an_idle_service_stops_at_once(self, tmp_path):
        for _ in range(10):
            svc = _service(tmp_path, workers=1).start()
            svc.serve_metrics()
            time.sleep(0.01)
            t0 = time.perf_counter()
            svc.stop()
            assert time.perf_counter() - t0 < 0.05
