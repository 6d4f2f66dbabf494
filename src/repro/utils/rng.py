"""Deterministic random-number plumbing.

Every stochastic component in the library (trace generators, graph
generators, the execution simulator) accepts either an integer seed or a
:class:`numpy.random.Generator`.  These helpers normalise that input and
derive statistically independent child streams so that, e.g., two
instance-type price traces built from the same master seed do not share a
stream.
"""

from __future__ import annotations

import numpy as np

SeedLike = "int | np.random.Generator | np.random.SeedSequence | None"


def derive_rng(seed, *keys) -> np.random.Generator:
    """Return a Generator derived from *seed* and an optional key path.

    ``seed`` may be ``None`` (fresh entropy), an ``int``, a
    ``SeedSequence`` or an existing ``Generator`` (returned as-is when no
    keys are given).  String keys are hashed into the seed sequence so the
    same ``(seed, keys)`` pair always yields the same stream.
    """
    if isinstance(seed, np.random.Generator):
        if not keys:
            return seed
        # Derive a child stream deterministically from the parent state.
        child_seed = int(seed.integers(0, 2**63 - 1))
        return derive_rng(child_seed, *keys)
    if isinstance(seed, np.random.SeedSequence):
        ss = seed
    else:
        ss = np.random.SeedSequence(seed)
    if keys:
        key_ints = [_key_to_int(k) for k in keys]
        ss = np.random.SeedSequence(
            entropy=ss.entropy, spawn_key=tuple(ss.spawn_key) + tuple(key_ints)
        )
    return np.random.default_rng(ss)


def _key_to_int(key) -> int:
    """Map a mixed str/int key to a stable non-negative integer."""
    if isinstance(key, (int, np.integer)):
        return int(key) & 0xFFFFFFFF
    if isinstance(key, str):
        # FNV-1a over the UTF-8 bytes: stable across processes (unlike hash()).
        acc = 0x811C9DC5
        for byte in key.encode("utf-8"):
            acc ^= byte
            acc = (acc * 0x01000193) & 0xFFFFFFFF
        return acc
    raise TypeError(f"rng key must be str or int, got {type(key).__name__}")
