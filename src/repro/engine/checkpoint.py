"""Checkpointing engine state to the external datastore.

Mirrors the paper's modified Giraph, which writes checkpoints to S3 (not
the cluster filesystem) so a *full* deployment loss — the normal case
when a whole spot configuration is evicted — can still be recovered
(§7).  Checkpoints carry the superstep counter, all vertex values and
halted flags, the pending (combined) inbox and the per-superstep stats.

One format is written and one is restorable: a **format-3** envelope
whose ``codec`` is ``"planes"`` — the payload's arrays go through the
plane-wise codec of :mod:`repro.engine.codec` (compress only the byte
planes that compress) and the result is pickled and checksummed.  A
``full`` envelope carries the whole engine state
(:meth:`PregelEngine.capture_state`); a ``delta`` envelope carries only
the vertices whose value changed since the last *full* snapshot (a
packed changed-vertex mask plus the changed values), the packed halted
flags, and the pending messages — restore composes ``full + delta``.
Long-running jobs with shrinking frontiers (SSSP, WCC) checkpoint
sublinearly in supersteps: the datastore byte counters track the
frontier, not the graph.

Restore trusts nothing it reads: an object that is not a well-formed
envelope (format, kind, codec, bytes payload, int CRC), a payload that
fails its CRC or does not decode, a delta whose base is not the full
snapshot it was written against, and a state whose keys or lengths do
not hang together are all a :class:`CheckpointCorruptionError`, raised
before the engine is touched.  :meth:`CheckpointManager.load_into` then
falls back to the most recent restorable snapshot (ultimately the last
full one) instead of failing the recovery.
"""

from __future__ import annotations

import pickle
import zlib
from dataclasses import dataclass

import numpy as np

from repro.engine import codec
from repro.engine.datastore import DataStore
from repro.engine.engine import PregelEngine

#: The checkpoint envelope format: a compressed (and optionally
#: delta-encoded) envelope around the engine's dense state arrays.
CHECKPOINT_FORMAT = 3


class CheckpointCorruptionError(RuntimeError):
    """A stored checkpoint failed its integrity check or cannot be read."""


def _check_envelope(key: str, envelope) -> None:
    """Refuse anything but a well-formed format-3 ``planes`` envelope."""
    if not isinstance(envelope, dict) or envelope.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointCorruptionError(
            f"checkpoint {key} is not a format-{CHECKPOINT_FORMAT} envelope"
        )
    if envelope.get("codec") != "planes":
        raise CheckpointCorruptionError(
            f"checkpoint {key} names unknown codec {envelope.get('codec')!r}"
        )
    if (
        envelope.get("kind") not in ("full", "delta")
        or not isinstance(envelope.get("payload"), bytes)
        or not isinstance(envelope.get("crc32"), int)
    ):
        raise CheckpointCorruptionError(f"checkpoint {key} has a malformed envelope")


def _check_state(key: str, state) -> None:
    """Refuse a decoded or composed state whose keys or lengths do not
    hang together (whether it fits the engine's graph is
    :meth:`PregelEngine.restore_state`'s ``ValueError``)."""
    try:
        n = len(state["values"])
        pending = state["pending_messages"]
        dense = pending["dense_values"]
        consistent = (
            len(state["halted"]) == n
            and pending["num_vertices"] == n
            and (dense is None or len(dense) == len(pending["dense_mask"]) == n)
            and 0 <= state["superstep"] <= len(state["stats"])
        )
    except (KeyError, TypeError) as exc:
        raise CheckpointCorruptionError(
            f"checkpoint {key} holds a malformed state: missing or bad {exc}"
        ) from exc
    if not consistent:
        raise CheckpointCorruptionError(f"checkpoint {key} holds an inconsistent state")


@dataclass(frozen=True)
class CheckpointInfo:
    """Metadata about one stored checkpoint."""

    key: str
    superstep: int
    nbytes: int
    simulated_write_seconds: float
    kind: str = "full"  # "full" | "delta"
    base_key: str | None = None  # the full snapshot a delta composes with


class CheckpointManager:
    """Writes/reads engine checkpoints to/from a :class:`DataStore`.

    Args:
        datastore: the external store.
        job_id: namespace for this job's checkpoints.
        keep_last: older checkpoints beyond this count are deleted
            (full snapshots that retained deltas compose with are kept
            regardless).
        delta: write delta checkpoints between full snapshots (changed
            vertices only, against the last full snapshot).
        full_interval: with ``delta``, force a full snapshot after this
            many consecutive deltas.
    """

    def __init__(
        self,
        datastore: DataStore,
        job_id: str,
        keep_last: int = 2,
        *,
        delta: bool = False,
        full_interval: int = 4,
    ):
        if keep_last < 1:
            raise ValueError("keep_last must be >= 1")
        if full_interval < 1:
            raise ValueError("full_interval must be >= 1")
        self.datastore = datastore
        self.job_id = job_id
        self.keep_last = keep_last
        self.delta = bool(delta)
        self.full_interval = full_interval
        self._history: list[CheckpointInfo] = []
        self._full_state: dict | None = None  # values/halted of last full save
        self._full_info: CheckpointInfo | None = None
        self._deltas_since_full = 0

    def _key(self, superstep: int) -> str:
        return f"checkpoints/{self.job_id}/superstep-{superstep:08d}"

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def save(self, engine: PregelEngine, num_writers: int = 1) -> CheckpointInfo:
        """Persist the engine's state; returns checkpoint metadata.

        ``num_writers`` models the workers writing partitions of the
        state in parallel (affects the simulated write time only).
        """
        state = engine.capture_state()
        key = self._key(engine.superstep)
        kind, base_key, payload = "full", None, state
        if self._delta_possible(state):
            kind = "delta"
            base_key = self._full_info.key
            payload = self._delta_payload(state)
        stored = pickle.dumps(codec.pack(payload), protocol=pickle.HIGHEST_PROTOCOL)
        envelope = {
            "format": CHECKPOINT_FORMAT,
            "kind": kind,
            "codec": "planes",
            "base_key": base_key,
            "superstep": state["superstep"],
            "crc32": zlib.crc32(stored),
            "payload": stored,
        }
        self.datastore.put_object(key, envelope)
        nbytes = self.datastore.size_of(key)
        write_time = self.datastore.transfer_time(nbytes, num_writers)
        info = CheckpointInfo(
            key=key,
            superstep=engine.superstep,
            nbytes=nbytes,
            simulated_write_seconds=write_time,
            kind=kind,
            base_key=base_key,
        )
        if kind == "full":
            self._full_state = {"values": state["values"], "halted": state["halted"]}
            self._full_info = info
            self._deltas_since_full = 0
        else:
            self._deltas_since_full += 1
        # A save at an already-checkpointed superstep replaced that object.
        self._history = [old for old in self._history if old.key != key]
        self._history.append(info)
        self._prune()
        return info

    def _delta_possible(self, state: dict) -> bool:
        return (
            self.delta
            and self._full_state is not None
            and self._full_info is not None
            and self._deltas_since_full < self.full_interval
            and len(self._full_state["values"]) == len(state["values"])
            # Same key as the base (or an earlier one after a rollback):
            # a delta there would overwrite, or predate, what it composes with.
            and state["superstep"] > self._full_info.superstep
        )

    def _delta_payload(self, state: dict) -> dict:
        """Changed vertices against the last full snapshot, packed."""
        base = self._full_state
        values = state["values"]
        # NaN compares unequal to itself -> conservatively "changed".
        changed = values != base["values"]
        base_superstep = self._full_info.superstep
        return {
            "num_vertices": len(values),
            "superstep": int(state["superstep"]),
            "base_superstep": int(base_superstep),
            "changed_bits": np.packbits(changed),
            "changed_values": values[changed],
            "halted_bits": np.packbits(state["halted"]),
            "pending_messages": state["pending_messages"],
            "stats_tail": state["stats"][base_superstep:],
        }

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def latest(self) -> CheckpointInfo | None:
        """Most recent checkpoint, or None when none exist."""
        return self._history[-1] if self._history else None

    def load_into(self, engine: PregelEngine, info: CheckpointInfo | None = None) -> float:
        """Restore *engine* from a checkpoint; returns simulated read time.

        The engine may have a different worker layout than the one that
        wrote the checkpoint (reconfiguration after eviction) — state is
        re-scattered to the new owners.  With ``info=None`` the newest
        restorable checkpoint wins: a corrupted delta (bad CRC, missing
        base, undecodable payload) makes the restore fall back through
        the history to the most recent intact snapshot.
        """
        if info is not None:
            return self._restore_one(engine, info)
        if not self._history:
            raise LookupError(f"no checkpoints stored for job {self.job_id!r}")
        failure: CheckpointCorruptionError | None = None
        for candidate in reversed(self._history):
            try:
                read_time = self._restore_one(engine, candidate)
            except CheckpointCorruptionError as exc:
                failure = exc
                continue
            return read_time
        raise CheckpointCorruptionError(
            f"no restorable checkpoint for job {self.job_id!r}: {failure}"
        )

    def _restore_one(self, engine: PregelEngine, info: CheckpointInfo) -> float:
        envelope, state, read_time = self._read(info.key)
        if envelope["kind"] == "delta":
            _, base, base_read = self._read(envelope.get("base_key"), base_of=info.key)
            read_time += base_read
            state = self._compose(info.key, base, state)
        _check_state(info.key, state)
        engine.restore_state(state)
        return read_time

    def _read(self, key: str, base_of: str | None = None) -> tuple[dict, object, float]:
        """``(envelope, decoded payload, simulated read seconds)`` of the
        checkpoint stored under *key*, or a corruption error.

        With *base_of* the checkpoint is the base of that delta: it must
        be a full snapshot, and only the fields a delta composes with
        (superstep, values, stats) are decoded; its halted flags and
        inbox are the delta's own.  The CRC still covers the whole payload.
        """
        try:
            envelope, read_time = self.datastore.get_object_timed(key)
        except KeyError as exc:
            raise CheckpointCorruptionError(f"checkpoint {key} is missing") from exc
        except Exception as exc:  # undecodable pickle, truncated blob, ...
            raise CheckpointCorruptionError(f"checkpoint {key} unreadable: {exc}") from exc
        _check_envelope(key, envelope)
        if base_of is not None and envelope["kind"] != "full":
            raise CheckpointCorruptionError(
                f"delta checkpoint {base_of} does not compose with its base "
                f"snapshot: {key} is a {envelope['kind']} checkpoint"
            )
        stored = envelope["payload"]
        if zlib.crc32(stored) != envelope["crc32"]:
            raise CheckpointCorruptionError(f"checkpoint {key} failed its CRC check")
        try:
            payload = pickle.loads(stored)
            if base_of is not None:
                payload = {field: payload[field] for field in ("superstep", "values", "stats")}
            return envelope, codec.unpack(payload), read_time
        except Exception as exc:
            raise CheckpointCorruptionError(f"checkpoint {key} undecodable: {exc}") from exc

    @staticmethod
    def _compose(key: str, base: dict, delta: dict) -> dict:
        """Apply a delta payload on top of its full base state."""
        try:
            n = delta["num_vertices"]
            base_superstep = delta["base_superstep"]
            if base["superstep"] != base_superstep or len(base["values"]) != n:
                raise CheckpointCorruptionError(
                    f"delta checkpoint {key} (superstep {base_superstep}, {n} "
                    f"vertices) does not compose with its base snapshot"
                )
            values = np.array(base["values"], copy=True)
            changed = np.unpackbits(delta["changed_bits"], count=n).astype(bool)
            values[changed] = delta["changed_values"]
            return {
                "superstep": delta["superstep"],
                "values": values,
                "halted": np.unpackbits(delta["halted_bits"], count=n).astype(bool),
                "pending_messages": delta["pending_messages"],
                "stats": list(base["stats"])[:base_superstep] + list(delta["stats_tail"]),
            }
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise CheckpointCorruptionError(
                f"delta checkpoint {key} undecodable: {exc!r}"
            ) from exc

    def _prune(self) -> None:
        """Delete checkpoints beyond ``keep_last``, chain-aware.

        A full snapshot referenced by a retained delta stays until every
        delta composing with it has itself rotated out.
        """
        if len(self._history) <= self.keep_last:
            return
        retained = self._history[-self.keep_last :]
        needed = {info.key for info in retained}
        needed.update(info.base_key for info in retained if info.base_key)
        kept = []
        for info in self._history[: -self.keep_last]:
            if info.key in needed:
                kept.append(info)
            else:
                self.datastore.delete(info.key)
        self._history = kept + retained
