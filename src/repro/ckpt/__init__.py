"""Application-level checkpointing substrate.

Implements the paper's Section IV.A machinery:

* :class:`Snapshot` / :class:`CheckpointStore` — portable, checksummed,
  atomically-written checkpoint files containing the ``SafeData`` fields
  and the number of executed safe points.  The *master* checkpoint format
  is mode-independent: the same file restarts a sequential, shared-memory
  or distributed run (the key enabler of restart-based adaptation).
* :class:`RunLedger` — the paper's ``pcr`` module: marks a run as started /
  completed so the next start-up can detect that "the last execution was
  [not] concluded without failures" and enter replay mode.
* :class:`SafePointCounter` and :class:`ReplayState` — safe-point counting
  and the replay protocol: skip ignorable methods, count safe points, load
  the snapshot when the saved count is reached.
* :class:`CheckpointPolicy` family — "a checkpoint might be taken only
  after a set of safe points" (every-N, explicit counts, never).
* :class:`FailureInjector` — synthetic failures at a chosen safe point,
  standing in for the machine crashes the paper's cluster suffered.
* :class:`AsyncCheckpointWriter` — double-buffered background writer so
  the safe point pays only an in-memory copy; ``flush()`` is the
  durability barrier at adaptation/failure boundaries.
* :class:`CasCheckpointStore` + :class:`ChunkStore` — the incremental
  checkpoint store: each field cut into a header chunk and fixed 4 KiB data
  blocks, hashed straight from its memory, into a dedup CAS shared
  across shards, namespaces and jobs, with recipe checkpoints, pack
  files, disk-ordered chunk-fetch restores and mark-and-sweep GC.
* :mod:`repro.ckpt.restore` — copy-once restores: every store's ``open``
  returns a record whose array fields are read straight into the
  restored arrays and verified there, and shard sets reassemble with
  each shard reading only the rows its rank owned.
"""

from repro.ckpt.cas import CasCheckpointStore, ChunkCorrupt, ChunkStore
from repro.ckpt.failure import FailureInjector, InjectedFailure
from repro.ckpt.policy import (
    AtCounts,
    CheckpointPolicy,
    EveryN,
    Never,
)
from repro.ckpt.replay import ReplayState, SafePointCounter
from repro.ckpt.snapshot import Snapshot
from repro.ckpt.store import CheckpointStore, RunLedger
from repro.ckpt.writer import AsyncCheckpointWriter, AsyncWriteFailed

# old name of the CAS store, kept only because bench/adapters.py imports it
IncrementalCheckpointStore = CasCheckpointStore

__all__ = [
    "AsyncCheckpointWriter",
    "AsyncWriteFailed",
    "AtCounts",
    "CasCheckpointStore",
    "CheckpointPolicy",
    "CheckpointStore",
    "ChunkCorrupt",
    "ChunkStore",
    "EveryN",
    "FailureInjector",
    "IncrementalCheckpointStore",
    "InjectedFailure",
    "Never",
    "ReplayState",
    "RunLedger",
    "SafePointCounter",
    "Snapshot",
]
