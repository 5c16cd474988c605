"""One serving loop for every socket server: listeners, links, a wake.

The checkpoint funnel, each sockets rank's progress thread and the
service daemon's front door each own one :class:`LinkLoop`, a thread in
one selector over listeners, ``Connection`` links (pipe ends, accepted
TCP sockets) and a wake socket; nothing else accepts, listens or
frames.  Frames are ``multiprocessing.connection``'s (a ``!i`` size, or
``-1`` and a ``!Q`` size from 2 GiB, then a pickle); a listener bound
``http`` reads an HTTP request head instead.  A ready link gets one
read into its buffer, sized from the frame header, and only whole
frames are served, so a peer that stalls or dies mid-frame costs only
its own link.  ``serve(link, obj)`` returns the reply (or None) and
must not block: what has to wait is :meth:`LinkLoop.hold`-ed.
"""

from __future__ import annotations

import io
import os
import pickle
import selectors
import socket
import struct
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable

_SIZE = struct.Struct("!i")
_BIG_SIZE = struct.Struct("!Q")
#: the longest HTTP request head a link may send.
_HTTP_HEAD = 1 << 16
#: a frame body's buffer starts at most this big and doubles as bytes
#: arrive, so a bogus size header costs no more than what was sent.
_FIRST = 1 << 20


def frame(obj) -> memoryview | bytes:
    """``obj`` pickled behind its size header, built in one buffer."""
    buf = io.BytesIO()
    buf.write(bytes(_SIZE.size))
    ForkingPickler(buf).dump(obj)
    view = buf.getbuffer()
    size = len(view) - _SIZE.size
    if size <= 0x7FFFFFFF:
        _SIZE.pack_into(view, 0, size)
        return view
    view.release()
    return (_SIZE.pack(-1) + _BIG_SIZE.pack(size)
            + buf.getvalue()[_SIZE.size:])


def dial(address: tuple[str, int], timeout: float = 30.0) -> Connection:
    """A blocking ``Connection`` to a listener; ``timeout`` bounds the
    connect.  The socket leaves timeout mode before it is detached, or
    the ``Connection`` would get a non-blocking fd."""
    sock = socket.create_connection(address, timeout=timeout)
    sock.setblocking(True)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return Connection(sock.detach())


@dataclass(eq=False)
class _Link:
    """A listener, or a connection and the frame it is part-way through:
    ``buf`` holds the size header, the large size, or the body (stage
    0, 1, 2) of ``size`` bytes, ``got`` of them read so far."""

    conn: Any  # a listening socket, or a Connection
    serve: Callable
    http: bool = False
    buf: bytearray = field(default_factory=lambda: bytearray(_SIZE.size))
    stage: int = 0
    size: int = _SIZE.size
    got: int = 0


def _expect(link: _Link, stage: int, size: int) -> None:
    link.stage, link.size, link.got = stage, size, 0
    link.buf = bytearray(min(size, _FIRST))


class LinkLoop:
    """One thread serving listeners and links.  :meth:`bind` and
    :meth:`add` may be called from any thread, :meth:`hold` only from a
    handler."""

    def __init__(self, name: str) -> None:
        self.name = name
        #: every live link (the loop thread adds and drops them).
        self.links: list[Connection] = []
        self.thread: threading.Thread | None = None
        self._sel = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._sel.register(self._wake_r, selectors.EVENT_READ)
        self._adds: deque[_Link] = deque()
        self._held: list[tuple] = []
        self._stopping = self._closed = False

    def bind(self, host: str, serve: Callable,
             http: bool = False) -> tuple[str, int]:
        """Accept links on an ephemeral port of ``host``; returns the
        ``(host, port)`` to dial.  An ``http`` link carries one request
        head; ``serve`` returns the raw response, then the link closes."""
        sock = socket.create_server((host, 0))
        sock.setblocking(False)  # a client that gave up must not block
        self._adds.append(_Link(sock, serve, http))
        self.wake()
        return sock.getsockname()[:2]

    def add(self, conn: Connection, serve: Callable) -> None:
        """Serve the frames arriving on ``conn`` with ``serve``."""
        self._adds.append(_Link(conn, serve))
        self.wake()

    def hold(self, ready: Callable[[], bool], then: Callable[[], Any],
             deadline: float, link=None) -> None:
        """Call ``then()`` once ``ready()`` or the monotonic ``deadline``
        passes, and answer ``link`` (the one a handler was given) with
        its result.  Whoever makes ``ready`` true calls :meth:`wake`."""
        self._held.append((ready, then, deadline, link))

    def wake(self) -> None:
        try:
            self._wake_w.send(b"\0")
        except OSError:
            pass  # a wake is already pending, or the loop is closed

    def start(self) -> None:
        """Begin serving (after any fork: no child inherits the thread)."""
        self.thread = threading.Thread(target=self._run, daemon=True,
                                       name=self.name)
        self.thread.start()

    def stop(self, timeout: float) -> bool:
        """Wake the loop at once, join it and close every listener and
        link; idempotent.  False, with nothing closed, if the thread is
        still in a handler after ``timeout`` seconds."""
        self._stopping = True
        if self.thread is not None:
            self.wake()
            self.thread.join(timeout)
            if self.thread.is_alive():
                return False
            self.thread = None
        if not self._closed:
            self._closed = True
            for obj in ([k.fileobj for k in self._sel.get_map().values()]
                        + [link.conn for link in self._adds]):
                obj.close()
            self._sel.close()
            self._wake_w.close()
            self.links = []
        return True

    # ------------------------------------------------------------------
    def _run(self) -> None:
        while not self._stopping:
            while self._adds:
                link = self._adds.popleft()
                self._sel.register(link.conn, selectors.EVENT_READ, link)
                if isinstance(link.conn, Connection):
                    self.links.append(link.conn)
            timeout = (max(0.0, min(h[2] for h in self._held)
                           - time.monotonic()) if self._held else None)
            for key, _ in self._sel.select(timeout):
                link = key.data
                if link is None:
                    self._wake_r.recv(4096)
                elif isinstance(link.conn, socket.socket):
                    self._accept(link)
                else:
                    self._read(link)
            self._release()

    def _accept(self, listener: _Link) -> None:
        try:
            sock, _ = listener.conn.accept()
        except OSError:  # already gone
            return
        sock.setblocking(True)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        link = _Link(Connection(sock.detach()), listener.serve, listener.http)
        if link.http:
            link.buf = bytearray(_HTTP_HEAD)
        self._adds.append(link)

    def _drop(self, link: _Link) -> None:
        if not link.conn.closed:
            self._sel.unregister(link.conn)
            self.links.remove(link.conn)
            link.conn.close()

    def _read(self, link: _Link) -> None:
        """One read into the link's buffer; act on it once it is full."""
        try:
            n = os.readv(link.conn.fileno(),
                         [memoryview(link.buf)[link.got:]])
        except OSError:
            n = 0
        if n == 0:  # EOF, maybe mid-frame: the peer is gone
            self._drop(link)
            return
        link.got += n
        if link.http:
            head = bytes(link.buf[:link.got])
            if b"\r\n\r\n" in head or link.got == len(link.buf):
                self._answer(link, lambda: link.serve(link, head))
            return
        if link.got < len(link.buf):
            return
        if link.got < link.size:  # a long body: grow as it arrives
            link.buf += bytes(min(link.got, link.size - link.got))
            return
        buf = link.buf
        if link.stage == 2:  # a whole frame
            _expect(link, 0, _SIZE.size)
            self._answer(link, lambda: link.serve(link, pickle.loads(buf)))
            return
        size = (_SIZE if link.stage == 0 else _BIG_SIZE).unpack(buf)[0]
        if size == -1 and link.stage == 0:
            _expect(link, 1, _BIG_SIZE.size)
        elif size < 0:
            self._drop(link)
        else:
            _expect(link, 2, size)

    def _release(self) -> None:
        """Answer each held request whose condition or deadline came."""
        now, held, self._held = time.monotonic(), self._held, []
        for h in held:
            ready, then, deadline, link = h
            if ready() or now >= deadline:
                self._answer(link, then)
            else:
                self._held.append(h)

    def _answer(self, link: _Link | None, work: Callable[[], Any]) -> None:
        """Send what ``work()`` returns on ``link`` (a whole HTTP
        response, then close); a dead peer or a bad frame costs that
        link only."""
        try:
            reply = work()
            if link is None or reply is None:
                return
            if not link.http:
                link.conn.send(reply)
                return
            out = memoryview(reply)
            while out:
                out = out[os.write(link.conn.fileno(), out):]
            self._drop(link)
        except Exception as exc:  # noqa: BLE001 - the loop keeps serving
            if not isinstance(exc, (OSError, EOFError)):
                traceback.print_exc()  # a bug, not a peer that left
            if link is not None:
                self._drop(link)
