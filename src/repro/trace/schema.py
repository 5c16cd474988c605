"""The fixed trace-record schema: ring layout and the span name table.

Like :mod:`repro.telemetry.schema`, the layout is *static*: every rank
(and the scraping parent) computes identical word offsets from this
module alone, so the shared-memory trace plane needs no negotiation.

A rank's **ring** is a flat ``float64`` region::

    [header : HEADER_WORDS] [record 0] [record 1] ... [record C-1]

* header word 0 — the region's lifecycle state (``EMPTY`` / ``ACTIVE``
  / ``FROZEN`` of :mod:`repro.dsm.shmplane`; park freezes, un-park
  thaws, exactly like a telemetry page);
* header word 1 — the **write cursor**: total records ever appended.
  Record ``g`` lives in slot ``g % capacity`` — overwrite-oldest
  wraparound by construction;
* header word 2 — the rank's message **sequence counter** (survives
  writer re-binding across park / un-park cycles).

A **record** is ``RECORD_WORDS`` words.  Word 0 is the seqlock commit
word: the writer stores ``2g + 1`` (odd: in progress), fills the
payload, then stores ``2g + 2`` (even: committed, generation-stamped).
A scraper that finds any other value knows the slot is torn or lapped
and drops it — it can never yield a half-written record.

``float64`` holds every value: integers stay exact to 2**53 and one
dtype keeps the layout trivial (the same trick the telemetry pages
play).
"""

from __future__ import annotations

from repro.dsm.shmplane import HEADER_WORDS

#: words per record: commit, gidx, kind, code, t0, dur, a, b, c, d.
RECORD_WORDS = 10
#: payload word meanings (offsets within a record).
W_COMMIT, W_GIDX, W_KIND, W_CODE, W_T0, W_DUR, W_A, W_B, W_C, W_D = range(10)

#: record kinds (word 2).
KIND_SPAN, KIND_INSTANT, KIND_SEND, KIND_RECV = 1.0, 2.0, 3.0, 4.0

#: header word offsets (word 0 is the region's lifecycle state).
RING_CURSOR, RING_SEQ = 1, 2

#: default ring capacity (records per rank) — full-timeline tracing.
DEFAULT_CAPACITY = 2048
#: flight-recorder capacity: small on purpose; the ring is a black box
#: holding only the last moments before a failure.
FLIGHT_CAPACITY = 128
#: records a flight snapshot keeps per rank.
FLIGHT_LAST_N = 64


def ring_words(capacity: int) -> int:
    """Words one rank's ring occupies."""
    return HEADER_WORDS + capacity * RECORD_WORDS


#: the span/instant name table — codes are indexes into this tuple, so
#: only small integers cross the binary ring; names are re-attached by
#: the parent-side assembler.  Appending here is all it takes to add an
#: instrumentation site.
NAMES: tuple[str, ...] = (
    "phase",              # PHASE — one driver-loop phase attempt
    "safepoint",          # SAFEPOINT — one safe-point protocol pass
    "checkpoint",         # CHECKPOINT — master-funnelled checkpoint
    "checkpoint_local",   # CHECKPOINT_LOCAL — per-rank shard checkpoint
    "snapshot_capture",   # CAPTURE — gather + master-format capture
    "ckpt_write",         # CKPT_WRITE — one atomic file write / submit
    "ckpt_flush",         # CKPT_FLUSH — async-writer durability barrier
    "ckpt_funnel",        # CKPT_FUNNEL — rank->parent snapshot RPC
    "restore",            # RESTORE — checkpoint data back into ranks
    "adapt_exit",         # ADAPT_EXIT — unwind toward a relaunch
    "team_resize",        # TEAM_RESIZE — in-place thread-dim reshape
    "elastic_moves",      # MOVES — field-region movement of a reshape
    "join_rendezvous",    # RENDEZVOUS — joiners meet the membership
    "membership_switch",  # SWITCH — new rank identity applied
    "send",               # SEND — message stamped at the transport
    "recv",               # RECV — matched receive (dur = wait)
    "tcp_frame",          # TCP_FRAME — one framed wire send
    "event",              # EVENT — an EventLog entry as an instant
    "ckpt_chunk",         # CKPT_CHUNK — chunk + hash a snapshot's fields
    "ckpt_pack",          # CKPT_PACK — CAS handshake + missing-chunk ship
    "ckpt_gc",            # CKPT_GC — CAS mark-and-sweep pass
    "ckpt_fetch",         # CKPT_FETCH — chunk fetch of one recipe restore
    "ckpt_read",          # CKPT_READ — copy-once read of one container file
    "ckpt_assemble",      # CKPT_ASSEMBLE — shard set reassembled
)

(PHASE, SAFEPOINT, CHECKPOINT, CHECKPOINT_LOCAL, CAPTURE, CKPT_WRITE,
 CKPT_FLUSH, CKPT_FUNNEL, RESTORE, ADAPT_EXIT, TEAM_RESIZE, MOVES,
 RENDEZVOUS, SWITCH, SEND, RECV, TCP_FRAME, EVENT, CKPT_CHUNK,
 CKPT_PACK, CKPT_GC, CKPT_FETCH, CKPT_READ,
 CKPT_ASSEMBLE) = range(len(NAMES))


def name_of(code: float | int) -> str:
    """Human name for a record's code word (defensive on bad codes)."""
    i = int(code)
    return NAMES[i] if 0 <= i < len(NAMES) else f"code{i}"
