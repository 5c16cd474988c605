"""The fixed telemetry schema: every slot of a rank's metrics page.

The schema is *static* — registered once here, never at runtime — which
is what makes the shared-memory plane negotiation-free: every rank (and
the scraping parent) computes identical word offsets from this module
alone, with no metadata exchange.  A page is a flat ``float64`` array;
each metric occupies a fixed slot guarded by its own sequence word (see
:mod:`repro.telemetry.plane` for the seqlock discipline).

Metric names follow one scheme end-to-end — Prometheus text, the
service ``stats`` RPC and ``BENCH_*.json`` series all carry the same
identifiers::

    repro_<subsystem>_<metric>{rank="0", backend="multiproc", job="7"}

* ``repro_`` — the project namespace;
* ``<subsystem>`` — ``exec``, ``dsm``, ``ckpt``, ``elastic``,
  ``runtime``, ``service``;
* counters end in ``_total``, time series in ``_seconds``;
* fixed dimension labels (``tier=...``) live here in the schema, while
  ``rank=`` is stamped by the scraper from the page index and
  ``backend=`` / ``job=`` by whoever absorbs the scrape.

``float64`` words hold every value: counters stay exact to 2**53 and
one dtype keeps the page layout trivial.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from repro.dsm.shmplane import HEADER_WORDS

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

#: default latency buckets (seconds) for the histogram slots.
LATENCY_BUCKETS = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)


@dataclass(frozen=True)
class MetricSpec:
    """One slot of the page: identity, kind and word layout."""

    name: str
    kind: str
    help: str
    labels: tuple[tuple[str, str], ...] = ()
    buckets: tuple[float, ...] = ()
    #: word offset of this slot's sequence word within a page (filled
    #: in by the module-level layout pass below).
    offset: int = field(default=0, compare=False)

    @property
    def words(self) -> int:
        """Slot width in words: 1 seq word + the payload words."""
        if self.kind == HISTOGRAM:
            # seq, count, sum, one word per finite bucket + overflow
            return 3 + len(self.buckets) + 1
        return 2  # seq, value

    def bucket_index(self, value: float) -> int:
        """Payload word (relative to count) the observation lands in."""
        return bisect_left(self.buckets, value)


def _c(name: str, help: str, **labels: str) -> MetricSpec:
    return MetricSpec(name, COUNTER, help,
                      labels=tuple(sorted(labels.items())))


def _g(name: str, help: str, **labels: str) -> MetricSpec:
    return MetricSpec(name, GAUGE, help, labels=tuple(sorted(labels.items())))


#: the full page schema, in slot order.  Appending here is all it takes
#: to add a metric; reordering or removing entries changes the page
#: layout for *every* world, which is safe because planes never outlive
#: one launch.
SCHEMA: tuple[MetricSpec, ...] = (
    # -- exec: the safe-point protocol ---------------------------------
    _c("repro_exec_safepoints_total",
       "Safe points this rank has passed."),
    _c("repro_exec_safepoint_seconds_total",
       "Wall seconds this rank spent inside the safe-point protocol."),
    MetricSpec("repro_exec_safepoint_latency_seconds", HISTOGRAM,
               "Wall latency of one safe-point protocol pass.",
               buckets=LATENCY_BUCKETS),
    _g("repro_exec_vtime_seconds",
       "This rank's virtual clock at its last safe point."),
    _g("repro_exec_wall_seconds",
       "Wall seconds since this rank's writer was bound (vtime-vs-wall "
       "skew is this minus repro_exec_vtime_seconds)."),
    # -- dsm: data-plane tiers, mailboxes, pool occupancy --------------
    _c("repro_dsm_send_bytes_total",
       "Payload bytes sent through the inline (pickled queue) tier.",
       tier="inline"),
    _c("repro_dsm_send_bytes_total",
       "Payload bytes copied through pooled shared-memory slabs.",
       tier="slab"),
    _c("repro_dsm_send_bytes_total",
       "Payload bytes shipped as zero-copy borrowed segment regions.",
       tier="borrow"),
    _c("repro_dsm_send_bytes_total",
       "Payload bytes framed onto TCP connections.", tier="tcp"),
    _c("repro_dsm_send_msgs_total",
       "Messages sent through the inline tier.", tier="inline"),
    _c("repro_dsm_send_msgs_total",
       "Messages sent through the slab tier.", tier="slab"),
    _c("repro_dsm_send_msgs_total",
       "Messages sent through the borrow tier.", tier="borrow"),
    _c("repro_dsm_send_msgs_total",
       "Frames sent over TCP connections.", tier="tcp"),
    _c("repro_dsm_mailbox_wait_seconds_total",
       "Wall seconds this rank spent blocked in mailbox receives."),
    _c("repro_dsm_mailbox_recvs_total",
       "Envelopes this rank's mailbox delivered."),
    _c("repro_dsm_pool_leases_total",
       "Slab leases taken from this rank's buffer pool."),
    _c("repro_dsm_pool_fallbacks_total",
       "Pool exhaustions that degraded a payload to the inline tier."),
    _g("repro_dsm_pool_slabs_in_flight",
       "Slabs of this rank's pool currently leased out."),
    # -- ckpt ----------------------------------------------------------
    _c("repro_ckpt_bytes_total",
       "Checkpoint bytes this rank submitted for writing."),
    _c("repro_ckpt_writes_total",
       "Checkpoints this rank submitted."),
    # -- elastic -------------------------------------------------------
    _c("repro_elastic_move_bytes_total",
       "Field-region bytes this rank pushed during membership reshapes."),
    _c("repro_elastic_reshapes_total",
       "In-place membership reshapes this rank completed."),
    # -- ckpt: the content-addressed chunk store (appended: the page
    # layout is positional) ---------------------------------------------
    _c("repro_ckpt_chunks_written_total",
       "New chunks this rank's checkpoints added to the CAS."),
    _c("repro_ckpt_chunks_deduped_total",
       "Chunk references this rank's checkpoints satisfied from chunks "
       "already stored."),
    _c("repro_ckpt_dedup_bytes_saved_total",
       "Payload bytes this rank's checkpoints never wrote because the "
       "CAS already held them."),
    _c("repro_ckpt_restore_fetches_total",
       "Chunk fetches performed restoring state into this rank."),
)

# layout pass: assign word offsets (the region header — state flag +
# padding — first, then slots in order).
def _layout() -> tuple[tuple[MetricSpec, ...], int]:
    off = HEADER_WORDS
    out = []
    for spec in SCHEMA:
        out.append(MetricSpec(spec.name, spec.kind, spec.help,
                              labels=spec.labels, buckets=spec.buckets,
                              offset=off))
        off += out[-1].words
    return tuple(out), off


SCHEMA, PAGE_WORDS = _layout()

#: slot handles (indexes into SCHEMA) for the hot-path writers — an int
#: per instrumented site, resolved once at import.
def _slot(name: str, **labels: str) -> int:
    key = (name, tuple(sorted(labels.items())))
    for i, spec in enumerate(SCHEMA):
        if (spec.name, spec.labels) == key:
            return i
    raise KeyError(f"no schema slot {key!r}")


SAFEPOINTS = _slot("repro_exec_safepoints_total")
SAFEPOINT_SECONDS = _slot("repro_exec_safepoint_seconds_total")
SAFEPOINT_LATENCY = _slot("repro_exec_safepoint_latency_seconds")
VTIME_SECONDS = _slot("repro_exec_vtime_seconds")
WALL_SECONDS = _slot("repro_exec_wall_seconds")
SEND_BYTES_INLINE = _slot("repro_dsm_send_bytes_total", tier="inline")
SEND_BYTES_SLAB = _slot("repro_dsm_send_bytes_total", tier="slab")
SEND_BYTES_BORROW = _slot("repro_dsm_send_bytes_total", tier="borrow")
SEND_BYTES_TCP = _slot("repro_dsm_send_bytes_total", tier="tcp")
SEND_MSGS_INLINE = _slot("repro_dsm_send_msgs_total", tier="inline")
SEND_MSGS_SLAB = _slot("repro_dsm_send_msgs_total", tier="slab")
SEND_MSGS_BORROW = _slot("repro_dsm_send_msgs_total", tier="borrow")
SEND_MSGS_TCP = _slot("repro_dsm_send_msgs_total", tier="tcp")
MAILBOX_WAIT_SECONDS = _slot("repro_dsm_mailbox_wait_seconds_total")
MAILBOX_RECVS = _slot("repro_dsm_mailbox_recvs_total")
POOL_LEASES = _slot("repro_dsm_pool_leases_total")
POOL_FALLBACKS = _slot("repro_dsm_pool_fallbacks_total")
POOL_IN_FLIGHT = _slot("repro_dsm_pool_slabs_in_flight")
CKPT_BYTES = _slot("repro_ckpt_bytes_total")
CKPT_WRITES = _slot("repro_ckpt_writes_total")
MOVE_BYTES = _slot("repro_elastic_move_bytes_total")
RESHAPES = _slot("repro_elastic_reshapes_total")
CKPT_CHUNKS_NEW = _slot("repro_ckpt_chunks_written_total")
CKPT_CHUNKS_DEDUP = _slot("repro_ckpt_chunks_deduped_total")
CKPT_DEDUP_SAVED = _slot("repro_ckpt_dedup_bytes_saved_total")
CKPT_FETCHES = _slot("repro_ckpt_restore_fetches_total")
