"""``serve_burst_dup`` — the same ``service`` layer used the opposite way.

Open loop: bursts of K duplicate-heavy plan requests fire on a schedule
(one every :data:`BURST_INTERVAL_S`) through ``PlanFrontend`` over one
``PlanningService`` and a 1:2 planner pool, whether or not the previous
burst has drained.  Requests are Zipf draws over 90 (app, scale,
slack-decile) templates with pinned grids, so ~95 % of them coalesce
onto an in-flight twin or read warm memo: the frontend, the pool and
asyncio do the work of a median burst.  Decision time advances 60
simulated seconds per burst, so now and then a burst crosses a price
epoch: the memo is cleared, ``core`` re-evaluates cold, and that burst —
and the p99 — belongs to the DP.

Latency is timed from the moment a burst was *due*, so a stall charges
every later request the wait; how late the generator itself ran is
reported next to it.
"""

from __future__ import annotations

import asyncio
import hashlib
import time

import numpy as np

from bench.layers import DecisionCollector, service_layer_metrics
from bench.stats import percentile
from bench.workloads.base import MARKET_DAYS, MARKET_SEED, Workload

BURST_SIZE = 2000  # K requests per burst
BURST_INTERVAL_S = 0.75  # longer than the slowest storm burst drains
BURSTS_PER_SECOND = 1.3  # timed bursts per second of ``--seconds``
WARMUP_BURSTS = 3
SIM_SECONDS_PER_BURST = 60.0
#: Where on the fixed market trace the first burst decides.  The market
#: is either calm or stormy for hours on end (9 % of minutes cross a
#: price epoch, in clusters); from here, 68 h 8 min in, a calm stretch
#: is crossed by a price epoch about once in eight bursts — occasional
#: storms, as in production, instead of a backlog that never drains.
SIM_START_S = 4088 * 60.0
SLACK_DECILES = 10
ZIPF_EXPONENT = 1.1
POOL_WORKERS = (1, 2)  # nproc is 2
MAX_BATCH = 64
VERIFY_SHARE = 0.01  # requests re-planned synchronously on a fresh service
#: The DP memoises on slack *buckets*, so a decision's expected cost
#: depends on which request filled the bucket first — on evaluation
#: order, which differs between the pool and a fresh synchronous service
#: (up to 5.1 % observed over 30 runs, never a different configuration).
#: Bit-equality holds between replicas of one burst, not across services;
#: across services the gate catches a decision for the wrong request or
#: the wrong price epoch, which is off by far more than this.
COST_TOLERANCE = 0.15


def due_latencies(due: float, resolved) -> list[float]:
    """Open-loop latency: from when the burst was due, not when the
    generator got round to sending it."""
    return [t - due for t in resolved]


class ServeBurstDup(Workload):
    name = "serve_burst_dup"

    def __init__(self, seed, seconds, recorder):
        super().__init__(seed, seconds, recorder)
        self.num_bursts = max(1, int(seconds * BURSTS_PER_SECOND))
        self.loop = None
        self.frontend = None
        self.collector = None
        self.bursts: list[dict] = []  # one record per timed burst

    # ------------------------------------------------------------------
    # Input generation
    # ------------------------------------------------------------------
    def _build_requests(self) -> None:
        from repro.core.job import PAPER_PROFILES
        from repro.core.slack import SlackModel
        from repro.load.trace import LoadTraceConfig
        from repro.service import PlanRequest

        cfg = LoadTraceConfig()
        lo, hi = cfg.slack_range
        setup, market = self.setup_, self.setup_.market
        cells = []  # (perf, lrc, grids, slack fraction) per template
        for app, _ in cfg.app_mix:
            for scale in cfg.scales:
                perf = setup.perf_model(PAPER_PROFILES[app].scaled(scale))
                lrc = setup.lrc(perf)
                fixed, execute = perf.fixed_time(lrc), perf.exec_time(lrc)
                # Grids pinned per (app, scale) at the median slack, the
                # way a tenant session pins them: every slack decile of
                # the cell then lands in one estimator key.
                anchor = SlackModel(
                    perf=perf, lrc=lrc, deadline=fixed + execute * (1.0 + 0.5 * (lo + hi))
                )
                grids = self.service.resolved_grids(anchor, 0.0, 1.0)
                for decile in range(SLACK_DECILES):
                    slack = lo + (hi - lo) * (decile + 0.5) / SLACK_DECILES
                    cells.append((perf, lrc, grids, fixed + execute * (1.0 + slack)))
        self.num_templates = len(cells)

        rng = np.random.default_rng([self.seed, self.num_bursts])
        rank = rng.permutation(self.num_templates)  # which template is popular
        weights = 1.0 / np.arange(1, self.num_templates + 1) ** ZIPF_EXPONENT
        popularity = np.empty(self.num_templates)
        popularity[rank] = weights / weights.sum()

        digest = hashlib.sha256()
        self.schedule = []  # per burst: (decision time, draws, requests per template)
        for b in range(WARMUP_BURSTS + self.num_bursts):
            t = market.start + SIM_START_S + SIM_SECONDS_PER_BURST * (b + 1)
            templates = [
                PlanRequest(
                    slack_model=SlackModel(perf=perf, lrc=lrc, deadline=t + span),
                    catalog=setup.catalog,
                    t=t,
                    slack_grid=grids[0],
                    work_grid=grids[1],
                )
                for perf, lrc, grids, span in cells
            ]
            draws = rng.choice(self.num_templates, size=BURST_SIZE, p=popularity)
            digest.update(repr((t, [r.slack_model.deadline for r in templates])).encode())
            digest.update(draws.astype(np.int64).tobytes())
            self.schedule.append((t, draws, templates))
        self.inputs = {
            "request_template_hash": digest.hexdigest(),
            "bursts": self.num_bursts,
            "burst_size": BURST_SIZE,
        }

    # ------------------------------------------------------------------
    # Driving the frontend
    # ------------------------------------------------------------------
    async def _fire(self, index: int, due: float) -> dict:
        """Send burst *index* now and wait for every request to resolve."""
        _t, draws, templates = self.schedule[index]
        fired = time.perf_counter()
        root = None
        if self.rec.enabled:
            # Pool-worker spans opened while this burst drains are its children.
            root = self.rec.ambient = self.rec.add(
                "service.frontend", "service", due, due, burst=index
            )
            before = self.service.cache_stats().invalidations
        resolved = [0.0] * BURST_SIZE
        outcomes: list = [None] * BURST_SIZE
        frontend = self.frontend

        async def one(i: int, request) -> None:
            try:
                outcomes[i] = await frontend.plan(request)
            except Exception as exc:  # PlanError, overload: a failed op
                outcomes[i] = exc
            resolved[i] = time.perf_counter()

        await asyncio.gather(
            *(one(i, templates[int(k)]) for i, k in enumerate(draws))
        )
        drained = time.perf_counter()
        if root is not None:
            root.end = drained
            root.attrs["invalidations"] = (
                self.service.cache_stats().invalidations - before
            )
            self.rec.ambient = None
        record = {
            "index": index,
            "due": due,
            "late_s": fired - due,
            "drain_s": drained - due,
            "latencies": due_latencies(due, resolved),
        }
        # Judged now, in the idle gap before the next burst, and dropped:
        # 40 000 retained results would make every later garbage
        # collection (and so every later burst) slower.
        record.update(self._judge(index, draws, templates, outcomes))
        return record

    def _judge(self, index, draws, templates, outcomes) -> dict:
        """Failures and replica mismatches of one burst, plus the 1 %
        sample that :meth:`verify` re-plans synchronously."""
        from repro.service import PlanResult

        failed = 0
        mismatched = []
        first: dict[int, object] = {}
        for k, outcome in zip(draws, outcomes):
            if not isinstance(outcome, PlanResult):
                failed += 1
                continue
            seen = first.setdefault(int(k), outcome.decision)
            if outcome.decision != seen:
                failed += 1
                mismatched.append(int(k))
        picks = self.sample_rng.choice(
            BURST_SIZE, size=max(1, int(BURST_SIZE * VERIFY_SHARE)), replace=False
        )
        sample = [
            (templates[int(draws[i])], outcomes[i].decision)
            for i in picks
            if isinstance(outcomes[i], PlanResult)
        ]
        return {"failed": failed, "mismatched": mismatched, "sample": sample}

    async def _open_loop(self, first: int, count: int) -> list[dict]:
        """Fire *count* bursts on schedule, never waiting for a drain."""
        t0 = time.perf_counter() + 0.05
        tasks = []
        for b in range(count):
            due = t0 + BURST_INTERVAL_S * b
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.ensure_future(self._fire(first + b, due)))
        return list(await asyncio.gather(*tasks))

    async def _start(self) -> None:
        await self.frontend.start()
        # Warm-up is part of set-up: cold estimators, pool threads,
        # asyncio machinery all paid before the timed bursts.
        for b in range(WARMUP_BURSTS):
            await self._fire(b, time.perf_counter())

    def setup(self) -> None:
        from repro.experiments.common import ExperimentSetup
        from repro.obs.metrics import MetricsRegistry
        from repro.service import (
            FrontendConfig,
            PlanFrontend,
            PlanningService,
            PoolConfig,
        )

        with self.rec.span("cloud.market_build", "cloud"):
            self.setup_ = ExperimentSetup(seed=MARKET_SEED, trace_days=MARKET_DAYS)
        metrics = MetricsRegistry()
        self.service = PlanningService(self.setup_.market, metrics=metrics)
        if self.rec.enabled:
            self.collector = DecisionCollector()
            self.service.add_decision_hook(self.collector)
        self._build_requests()
        self.frontend = PlanFrontend(
            self.service,
            FrontendConfig(
                max_inflight=BURST_SIZE + MAX_BATCH,
                max_batch=MAX_BATCH,
                pool=PoolConfig(min_workers=POOL_WORKERS[0], max_workers=POOL_WORKERS[1]),
            ),
            metrics=metrics,
        )
        self.sample_rng = np.random.default_rng([self.seed, 1])
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self._start())

    def run(self) -> None:
        self.bursts = self.loop.run_until_complete(
            self._open_loop(WARMUP_BURSTS, self.num_bursts)
        )
        self.stats = self.frontend.stats()  # every burst has drained

    def teardown(self) -> None:
        if self.loop is not None:
            self.loop.run_until_complete(self.frontend.aclose())
            self.loop.close()
            self.loop = None

    # ------------------------------------------------------------------
    # Outputs
    # ------------------------------------------------------------------
    def verify(self) -> list[str]:
        from repro.service import PlanningService

        problems = []
        failed = sum(burst["failed"] for burst in self.bursts)
        for burst in self.bursts:
            for k in burst["mismatched"]:
                problems.append(
                    f"burst {burst['index']}: replicas of template {k} "
                    "received different decisions"
                )
        fresh = PlanningService(self.setup_.market)
        cache: dict[int, object] = {}  # one synchronous plan per distinct request
        checked = 0
        for burst in self.bursts:
            for request, decision in burst["sample"]:
                checked += 1
                expected = cache.get(id(request))
                if expected is None:
                    expected = cache[id(request)] = fresh.plan(request).decision
                gap = abs(decision.expected_cost - expected.expected_cost)
                if gap > COST_TOLERANCE * abs(expected.expected_cost):
                    failed += 1
                    problems.append(
                        f"frontend decision at t={request.t:.0f} ({decision.config.name}, "
                        f"{decision.expected_cost:.4f}) is not the synchronous plan's "
                        f"({expected.config.name}, {expected.expected_cost:.4f})"
                    )
        s = self.stats
        if s.submitted != s.planned + s.coalesced + s.rejected + s.overflowed:
            problems.append(f"frontend accounting identity broken: {s}")
        expected_submitted = BURST_SIZE * (WARMUP_BURSTS + self.num_bursts)
        if s.submitted != expected_submitted:
            problems.append(f"submitted {s.submitted} of {expected_submitted}")
        self.attempted = BURST_SIZE * self.num_bursts
        self.failed = failed
        self.inputs["verified_sample"] = checked
        return problems[:20]

    def _latencies(self) -> list[float]:
        return [lat for burst in self.bursts for lat in burst["latencies"]]

    def results(self, wall_s: float) -> dict[str, float]:
        latencies = self._latencies()
        drains = [burst["drain_s"] for burst in self.bursts]
        return {
            "plans_per_s": BURST_SIZE / percentile(drains, 50),
            "plan_p50_ms": 1000.0 * percentile(latencies, 50),
            # The p99 of a *typical* burst.  The pooled p99 is the tail of
            # the one or two storm bursts a run contains: an extreme of two
            # events, +-20 % between runs of one commit, which no bound can
            # tell from a regression.  It is kept as the per-layer
            # ``service.storm_p99_ms``.
            "plan_p99_ms": 1000.0
            * percentile([percentile(b["latencies"], 99) for b in self.bursts], 50),
        }

    def samples(self) -> dict[str, int]:
        return {
            "plans_per_s": self.num_bursts,
            "plan_p50_ms": BURST_SIZE * self.num_bursts,
            "plan_p99_ms": BURST_SIZE,  # per burst; the median is over the bursts
        }

    def layers(self, view) -> dict[str, float]:
        out = service_layer_metrics(self.service, self.collector)
        s = self.stats
        out["service.coalesced_share"] = s.coalesced / s.submitted if s.submitted else 0.0
        out["service.batch_mean"] = (
            s.planned / s.pool.batches if s.pool.batches else 0.0
        )
        out["service.pool_size_peak"] = s.pool.size_peak
        out["service.overflowed"] = s.overflowed
        out["service.storm_p99_ms"] = 1000.0 * percentile(self._latencies(), 99)
        out["bench.gen_late_max_ms"] = 1000.0 * max(b["late_s"] for b in self.bursts)
        return out

    def layer_split(self, view) -> dict[str, dict[str, float]]:
        """Bursts that crossed a price epoch (an invalidation storm)
        apart from bursts that did not."""
        roots = view.named("service.frontend", timed_only=True)
        storm = {s.trace for s in roots if s.attrs.get("invalidations", 0) > 0}
        calm = {s.trace for s in roots} - storm
        return {
            "with_invalidation": view.layer_seconds(storm),
            "without_invalidation": view.layer_seconds(calm),
        }
