"""Shared utilities: deterministic RNG, event logging, serialization.

These helpers are intentionally dependency-free (numpy only) so that every
other subpackage can import them without cycles.
"""

from repro.util.events import Event, EventLog
from repro.util.rng import seeded_rng, spawn_rngs
from repro.util.serialization import (
    crc32_of,
    dumps_portable,
    loads_portable,
    nbytes_of,
)

__all__ = [
    "Event",
    "EventLog",
    "crc32_of",
    "dumps_portable",
    "loads_portable",
    "nbytes_of",
    "seeded_rng",
    "spawn_rngs",
]
