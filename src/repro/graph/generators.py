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

import math

import numpy as np

from repro.graph.graph import Graph, _both_ways, _unique_edges, empty_graph
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
    return _unique_edges(src[keep] * n + dst[keep], n, name or f"rmat-{scale}")


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
    _check_avg_degree(avg_degree)
    if not 1.0 < exponent < math.inf:  # also rejects NaN
        raise ValueError(f"exponent must be finite and > 1, got {exponent}")
    m = int(round(avg_degree * num_vertices / 2))
    if m == 0:  # no edge to draw (and zero degrees have no distribution)
        return empty_graph(num_vertices, name)
    rng = derive_rng(seed, "power-law", num_vertices)
    # Expected degree sequence w_i ~ i^{-1/(exponent-1)} scaled to avg_degree.
    ranks = np.arange(1, num_vertices + 1, dtype=np.float64)
    w = ranks ** (-1.0 / (exponent - 1.0))
    w *= avg_degree * num_vertices / w.sum()
    total = w.sum()
    p = w / total
    src = rng.choice(num_vertices, size=m, p=p)
    dst = rng.choice(num_vertices, size=m, p=p)
    keep = src != dst
    perm = rng.permutation(num_vertices)
    return _unique_edges(
        _both_ways(perm[src[keep]], perm[dst[keep]], num_vertices), num_vertices, name
    )


def _check_avg_degree(avg_degree: float) -> None:
    """Refuse a negative, infinite or NaN mean degree, by name."""
    if not 0.0 <= avg_degree < math.inf:  # also rejects NaN
        raise ValueError(f"avg_degree must be finite and >= 0, got {avg_degree}")


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
    _check_avg_degree(avg_degree)
    # Each array is built inside the call that consumes it, so none
    # outlives its use: the drawn endpoints go once the keys are filled.
    return _unique_edges(
        _both_ways(
            *_planted_edges(num_vertices, num_communities, avg_degree, mixing, seed),
            num_vertices,
        ),
        num_vertices,
        name,
    )


def _planted_edges(
    num_vertices: int, num_communities: int, avg_degree: float, mixing: float, seed
) -> tuple[np.ndarray, np.ndarray]:
    """``community_graph``'s edge draws, self-loops dropped: ``(src, dst)``."""
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
    del comm_choice
    n_cross = int(np.count_nonzero(cross))
    src[cross] = rng.integers(0, num_vertices, size=n_cross)
    dst[cross] = rng.integers(0, num_vertices, size=n_cross)
    keep = src != dst
    return src[keep], dst[keep]
