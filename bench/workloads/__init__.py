"""The four workloads, by name (order = the order a full set runs them)."""

from bench.workloads.graph_job_evicted import GraphJobEvicted
from bench.workloads.prepare_recover import PrepareRecover
from bench.workloads.serve_burst_dup import ServeBurstDup
from bench.workloads.serve_mixed import ServeMixed

WORKLOADS = {
    cls.name: cls for cls in (ServeMixed, ServeBurstDup, GraphJobEvicted, PrepareRecover)
}
