"""Open-loop timing: latency runs from when a request was *due*."""

import asyncio
import time

from bench.spans import NullRecorder
from bench.workloads import serve_burst_dup as sbd


def test_latency_is_measured_from_the_due_time():
    assert sbd.due_latencies(10.0, [10.5, 11.0]) == [0.5, 1.0]


def test_a_stall_is_charged_to_the_requests_behind_it(monkeypatch):
    """Block the event loop past the second burst's due time: the second
    burst fires late, and every one of its requests must be charged the
    wait (a closed-loop clock would have hidden it)."""
    monkeypatch.setattr(sbd, "BURST_INTERVAL_S", 0.10)
    stall_s = 0.30
    workload = sbd.ServeBurstDup(seed=1, seconds=2, recorder=NullRecorder())
    fired = []

    async def fake_fire(index, due):
        fired.append(index)
        if index == 0:
            time.sleep(stall_s)  # a stall that holds the loop, not an await
        now = time.perf_counter()
        return {"index": index, "due": due, "late_s": now - due, "drain_s": now - due,
                "resolved": [now], "outcomes": [None]}

    workload._fire = fake_fire
    bursts = asyncio.run(workload._open_loop(0, 2))
    assert fired == [0, 1]
    second = bursts[1]
    # Due at +0.10 s, could only start after the 0.30 s stall.
    assert second["late_s"] > stall_s - sbd.BURST_INTERVAL_S - 0.05
    assert sbd.due_latencies(second["due"], second["resolved"])[0] >= second["late_s"]
    assert second["late_s"] > 0.1
