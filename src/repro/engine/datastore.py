"""Simulated external datastore (the S3/HDFS stand-in).

An in-memory object store with a simple performance model: reads and
writes of ``n`` bytes by ``p`` machines in parallel take
``latency + n / (p * bandwidth)`` simulated seconds (the store itself is
assumed not to be the bottleneck, matching S3's scalability).  The store
keeps transfer counters so tests and experiments can assert on data
movement.

All *simulated* durations are returned to the caller; nothing here
sleeps.  Wall-clock cost is just the in-memory copy.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

from repro.utils.units import MiB
from repro.utils.validation import check_non_negative


@dataclass(frozen=True)
class TransferStats:
    """Cumulative datastore traffic."""

    bytes_read: int
    bytes_written: int
    objects_read: int
    objects_written: int


#: Per-machine sustained external-store throughput (bytes/s): a typical
#: S3 single-stream figure.  The one store bandwidth: checkpoint writes
#: and reads here, both performance models' ``save_time`` and the
#: loaders' read time all move bytes at this rate.
STORE_BANDWIDTH = 100 * MiB
#: Per-operation setup latency of the store (seconds).
STORE_LATENCY = 0.05


class DataStore:
    """In-memory object store with a bandwidth/latency timing model
    (:data:`STORE_BANDWIDTH`, :data:`STORE_LATENCY`)."""

    def __init__(self):
        self._objects: dict[str, bytes] = {}
        self._bytes_read = 0
        self._bytes_written = 0
        self._objects_read = 0
        self._objects_written = 0

    # ------------------------------------------------------------------
    # Object operations
    # ------------------------------------------------------------------
    def put(self, key: str, data: bytes) -> float:
        """Store *data* under *key*; returns the simulated write time."""
        if not isinstance(data, (bytes, bytearray)):
            raise TypeError(f"data must be bytes, got {type(data).__name__}")
        self._objects[key] = bytes(data)
        self._bytes_written += len(data)
        self._objects_written += 1
        return self.transfer_time(len(data))

    def get(self, key: str) -> bytes:
        """Fetch the object stored under *key* (KeyError when missing)."""
        data = self._objects[key]
        self._bytes_read += len(data)
        self._objects_read += 1
        return data

    def get_timed(self, key: str) -> tuple[bytes, float]:
        """Fetch an object plus its simulated read time."""
        data = self.get(key)
        return data, self.transfer_time(len(data))

    def delete(self, key: str) -> None:
        """Remove an object; missing keys are ignored (idempotent)."""
        self._objects.pop(key, None)

    def exists(self, key: str) -> bool:
        """Whether *key* is stored."""
        return key in self._objects

    def list_keys(self, prefix: str = "") -> list[str]:
        """All stored keys with the given prefix, sorted."""
        return sorted(k for k in self._objects if k.startswith(prefix))

    def size_of(self, key: str) -> int:
        """Stored size of *key* in bytes."""
        return len(self._objects[key])

    # ------------------------------------------------------------------
    # Structured payloads (checkpoints and similar array-heavy state)
    # ------------------------------------------------------------------
    def put_object(self, key: str, obj) -> float:
        """Serialize and store *obj*; returns the simulated write time.

        Uses the highest pickle protocol, which writes numpy arrays as
        raw buffers — checkpoint state arrays go to the store directly
        instead of being exploded into per-vertex containers.
        """
        self.put(key, pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
        return self.transfer_time(len(self._objects[key]))

    def get_object_timed(self, key: str) -> tuple[object, float]:
        """Fetch and deserialize an object plus its simulated read time."""
        payload, read_time = self.get_timed(key)
        return pickle.loads(payload), read_time

    # ------------------------------------------------------------------
    # Timing model
    # ------------------------------------------------------------------
    def transfer_time(self, nbytes: int, parallel_machines: int = 1) -> float:
        """Simulated seconds to move *nbytes* using *parallel_machines*."""
        check_non_negative("nbytes", nbytes)
        if parallel_machines < 1:
            raise ValueError("parallel_machines must be >= 1")
        return STORE_LATENCY + nbytes / (parallel_machines * STORE_BANDWIDTH)

    @property
    def stats(self) -> TransferStats:
        """Cumulative transfer counters."""
        return TransferStats(
            bytes_read=self._bytes_read,
            bytes_written=self._bytes_written,
            objects_read=self._objects_read,
            objects_written=self._objects_written,
        )

    def total_stored_bytes(self) -> int:
        """Sum of all stored object sizes."""
        return sum(len(v) for v in self._objects.values())
