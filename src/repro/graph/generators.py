"""Synthetic graph generators.

The paper evaluates on five real-world graphs (Twitter, Orkut, Wiki,
Hollywood, Human-Gene) plus the synthetic RMAT-N family (Table 2).  The
real datasets are not redistributable at full scale, so this module
provides:

* :func:`rmat` — the recursive-matrix generator of Chakrabarti et al.
  (the paper's RMAT-N: ``2^N`` vertices, ``2^(N+4)`` edges, i.e. an
  average out-degree of 16).
* :func:`power_law_social` — a Chung-Lu style generator with a power-law
  degree distribution, used as the stand-in for Twitter/Orkut-like social
  graphs.
* :func:`community_graph` — a planted-partition generator producing
  modular graphs, the stand-in for collaboration/biological networks
  (Hollywood, Human-Gene) whose strong community structure is what makes
  good partitioners shine in Fig 8.

All generators take a ``seed`` and are fully deterministic given it.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph, from_edges
from repro.utils.rng import derive_rng


def rmat(
    scale: int,
    edge_factor: int = 16,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed=None,
    name: str | None = None,
) -> Graph:
    """Generate an RMAT graph with ``2**scale`` vertices.

    Uses the classic (a, b, c, d) recursive quadrant probabilities with
    per-level noise.  The default parameters follow the Graph500
    convention and yield heavy-tailed degree distributions similar to the
    paper's RMAT-24/25/26 datasets (at a laptop-friendly scale).
    """
    if scale < 1 or scale > 30:
        raise ValueError(f"scale must be in [1, 30], got {scale}")
    d = 1.0 - a - b - c
    if d < 0 or min(a, b, c) < 0:
        raise ValueError("quadrant probabilities must be non-negative and sum <= 1")
    rng = derive_rng(seed, "rmat", scale)
    n = 1 << scale
    m = n * edge_factor
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    probs = np.array([a, b, c, d])
    for level in range(scale):
        # Small multiplicative noise per level avoids degenerate staircases.
        noise = 1.0 + 0.1 * (rng.random(4) - 0.5)
        p = probs * noise
        p = p / p.sum()
        quadrant = rng.choice(4, size=m, p=p)
        src += (quadrant >> 1).astype(np.int64) << level
        dst += (quadrant & 1).astype(np.int64) << level
    # Permute vertex ids so locality is not an artifact of generation order.
    perm = rng.permutation(n)
    src, dst = perm[src], perm[dst]
    keep = src != dst
    return from_edges(
        src[keep],
        dst[keep],
        num_vertices=n,
        name=name or f"rmat-{scale}",
        dedup=True,
    )


def rmat_edge_batches(
    scale: int,
    edge_factor: int = 16,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed=None,
    batch_edges: int = 1 << 20,
):
    """Yield RMAT edges as ``(src, dst)`` batches of ``<= batch_edges``.

    The streaming counterpart of :func:`rmat` for graphs beyond RAM:
    peak memory is O(batch_edges) regardless of scale, and each batch is
    generated from its own seed stream (``derive_rng(seed, "rmat-stream",
    scale, batch_index)``), so a second iteration reproduces the exact
    same batches — which is what lets the two-pass on-disk CSR builder
    (:func:`repro.graph.io.build_csr_on_disk`) consume the stream twice.

    Differences from :func:`rmat`, both inherent to streaming: vertex
    ids are not globally permuted and duplicate edges are not removed
    (self-loops are still dropped per batch).  The per-level quadrant
    noise is drawn once for the whole graph so every batch samples the
    same distribution.
    """
    if scale < 1 or scale > 30:
        raise ValueError(f"scale must be in [1, 30], got {scale}")
    if batch_edges < 1:
        raise ValueError(f"batch_edges must be >= 1, got {batch_edges}")
    d = 1.0 - a - b - c
    if d < 0 or min(a, b, c) < 0:
        raise ValueError("quadrant probabilities must be non-negative and sum <= 1")
    n = 1 << scale
    total = n * edge_factor
    noise_rng = derive_rng(seed, "rmat-stream-noise", scale)
    probs = np.array([a, b, c, d])
    level_probs = []
    for _ in range(scale):
        noise = 1.0 + 0.1 * (noise_rng.random(4) - 0.5)
        p = probs * noise
        level_probs.append(p / p.sum())
    produced = 0
    batch_index = 0
    while produced < total:
        count = min(batch_edges, total - produced)
        rng = derive_rng(seed, "rmat-stream", scale, batch_index)
        src = np.zeros(count, dtype=np.int64)
        dst = np.zeros(count, dtype=np.int64)
        for level, p in enumerate(level_probs):
            quadrant = rng.choice(4, size=count, p=p)
            src += (quadrant >> 1).astype(np.int64) << level
            dst += (quadrant & 1).astype(np.int64) << level
        keep = src != dst
        yield src[keep], dst[keep]
        produced += count
        batch_index += 1


def power_law_social(
    num_vertices: int,
    avg_degree: float = 20.0,
    exponent: float = 2.1,
    seed=None,
    name: str = "power-law",
) -> Graph:
    """Chung-Lu style graph with power-law expected degrees.

    A stand-in for scale-free social graphs (Twitter, Orkut): a few hub
    vertices with very large degree, many low-degree vertices.
    """
    if num_vertices < 2:
        raise ValueError("num_vertices must be >= 2")
    rng = derive_rng(seed, "power-law", num_vertices)
    # Expected degree sequence w_i ~ i^{-1/(exponent-1)} scaled to avg_degree.
    ranks = np.arange(1, num_vertices + 1, dtype=np.float64)
    w = ranks ** (-1.0 / (exponent - 1.0))
    w *= avg_degree * num_vertices / w.sum()
    total = w.sum()
    m = int(round(avg_degree * num_vertices / 2))
    p = w / total
    src = rng.choice(num_vertices, size=m, p=p)
    dst = rng.choice(num_vertices, size=m, p=p)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    both_src = np.concatenate([src, dst])
    both_dst = np.concatenate([dst, src])
    perm = rng.permutation(num_vertices)
    return from_edges(
        perm[both_src], perm[both_dst], num_vertices=num_vertices, name=name, dedup=True
    )


def community_graph(
    num_vertices: int,
    num_communities: int = 32,
    avg_degree: float = 20.0,
    mixing: float = 0.05,
    seed=None,
    name: str = "community",
) -> Graph:
    """Planted-partition graph: dense communities, sparse cross edges.

    ``mixing`` is the fraction of edges whose endpoints fall in different
    communities.  With low mixing, a good partitioner can achieve a tiny
    edge cut while random placement cuts ``1 - 1/k`` of the edges — the
    regime demonstrated by the paper's Fig 8.
    """
    if not 0.0 <= mixing <= 1.0:
        raise ValueError(f"mixing must be in [0, 1], got {mixing}")
    if num_communities < 1 or num_communities > num_vertices:
        raise ValueError("num_communities must be in [1, num_vertices]")
    rng = derive_rng(seed, "community", num_vertices, num_communities)
    membership = rng.integers(0, num_communities, size=num_vertices)
    m = int(round(avg_degree * num_vertices / 2))
    cross = rng.random(m) < mixing
    src = np.empty(m, dtype=np.int64)
    dst = np.empty(m, dtype=np.int64)
    # Intra-community edges: pick a community, then two members.
    members_by_comm = [np.flatnonzero(membership == c) for c in range(num_communities)]
    sizes = np.array([len(mem) for mem in members_by_comm], dtype=np.float64)
    weights = sizes / sizes.sum() if sizes.sum() else None
    comm_choice = rng.choice(num_communities, size=m, p=weights)
    for c in range(num_communities):
        rows = np.flatnonzero((comm_choice == c) & ~cross)
        members = members_by_comm[c]
        if len(members) < 2 or len(rows) == 0:
            cross[rows] = True
            continue
        src[rows] = rng.choice(members, size=len(rows))
        dst[rows] = rng.choice(members, size=len(rows))
    n_cross = int(np.count_nonzero(cross))
    src[cross] = rng.integers(0, num_vertices, size=n_cross)
    dst[cross] = rng.integers(0, num_vertices, size=n_cross)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    both_src = np.concatenate([src, dst])
    both_dst = np.concatenate([dst, src])
    return from_edges(both_src, both_dst, num_vertices=num_vertices, name=name, dedup=True)
