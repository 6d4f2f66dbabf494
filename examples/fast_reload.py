#!/usr/bin/env python
"""Fast reload end-to-end: micro-partition, evict, recover, keep computing.

Demonstrates the §6 machinery on a real (repro-scale) graph:

1. offline: micro-partition the graph into 64 shards and build the
   quotient graph;
2. run PageRank on 8 workers, checkpointing to the simulated datastore;
3. simulate an eviction mid-run;
4. online: cluster the same micro-partitions for a *different* worker
   count (4), reload in parallel with zero shuffling, restore the
   checkpoint and finish the computation;
5. verify the result matches an undisturbed run, and compare the
   simulated reload time against a conventional shuffle reload.

Run:  python examples/fast_reload.py
"""

from __future__ import annotations

from repro import MicroPartitioner, get_dataset
from repro.partitioning import micro_partition_count
from repro.engine import (
    CheckpointManager,
    DataStore,
    HashLoader,
    MicroLoader,
    PregelEngine,
)
from repro.engine.algorithms import PageRank
from repro.utils.units import format_duration


def main() -> None:
    graph = get_dataset("hollywood").generate(seed=3)
    print(f"graph: {graph}")

    # --- offline phase: micro-partition once --------------------------
    # A multiple of every worker count the job deploys on (8, then 4),
    # over-sharded to the 64 micro-partitions of the paper's Fig 8.
    num_micro_parts = micro_partition_count((8, 4), minimum=64)
    artefact = MicroPartitioner(num_micro_parts=num_micro_parts).build(graph, seed=1)
    print(f"micro-partitions: {artefact.num_micro_parts}, "
          f"quotient graph {artefact.quotient.num_vertices} vertices / "
          f"{artefact.quotient.num_edges} edges")

    loader = MicroLoader(artefact)
    program = PageRank(iterations=12)

    # --- first deployment: 8 workers ---------------------------------
    first = loader.load(graph, num_workers=8, seed=1)
    engine = PregelEngine(graph, program, first.partitioning)
    datastore = DataStore()
    checkpoints = CheckpointManager(datastore, job_id="pagerank-demo")

    for _ in range(6):
        engine.step()
    info = checkpoints.save(engine, num_writers=8)
    print(f"\nran to superstep {engine.superstep} on 8 workers; "
          f"checkpoint {info.nbytes / 1024:.0f} KiB "
          f"(simulated write {info.simulated_write_seconds:.1f}s)")

    # --- eviction! re-deploy on 4 workers -----------------------------
    print("eviction: all 8 workers lost; re-deploying on 4 workers")
    second = loader.load(graph, num_workers=4, seed=2)
    conventional = HashLoader().load(
        graph, 4, size_override=(graph.num_edges * 10_000, graph.num_vertices * 10_000)
    )
    fast = loader.load(
        graph, 4, seed=2,
        size_override=(graph.num_edges * 10_000, graph.num_vertices * 10_000),
    )
    print(f"reload time at paper scale: micro "
          f"{format_duration(fast.simulated_seconds)} vs shuffle "
          f"{format_duration(conventional.simulated_seconds)}")

    engine2 = PregelEngine(graph, program, second.partitioning)
    read_time = checkpoints.load_into(engine2)
    print(f"checkpoint restored onto the new layout "
          f"(simulated read {read_time:.1f}s); resuming at superstep "
          f"{engine2.superstep}")
    recovered = engine2.run()

    # --- verify against an undisturbed run ----------------------------
    undisturbed = PregelEngine(graph, program, first.partitioning).run()
    worst = max(
        abs(recovered.values[v] - undisturbed.values[v])
        for v in undisturbed.values
    )
    print(f"\nfinished; max PageRank deviation vs undisturbed run: {worst:.2e}")
    assert worst < 1e-12, "recovery must be exact"
    top = sorted(recovered.values, key=recovered.values.get, reverse=True)[:5]
    print(f"top-5 vertices by rank: {top}")


if __name__ == "__main__":
    main()
