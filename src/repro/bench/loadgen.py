"""Load generators for the compile/simulate service (and fleet).

Two campaign shapes, both speaking real sockets:

* **Closed-loop** (:func:`run_load`): ``clients`` threads each own a
  :class:`~repro.service.client.ServiceClient` connection, walk their
  share of the job list ``rounds`` times, and measure submit-to-result
  latency from the caller's side of the wire.  ``burst > 1`` pipelines
  that many submits per connection before collecting.
* **Open-loop** (:func:`run_open_loop`): arrivals are scheduled at
  fixed offsets drawn from a target *offered rate*, independent of
  completions — the shape that reveals saturation and tail latency
  honestly (a closed loop self-throttles when the server slows down).
  :func:`saturation_sweep` steps the rate over a grid and reports the
  saturation throughput and its p99 — the fleet-vs-single comparison
  recorded in ``BENCH_service.json``.

Both shapes take a ``seed``: the per-connection job sequence (and the
open-loop arrival schedule) is drawn from ``random.Random(seed)``, so
two runs of one campaign offer a byte-identical workload.

Runnable directly: ``python -m repro.bench.loadgen --socket PATH
--rate 200 --duration 5 --seed 7 [--zipf 1.1] [--sweep 50,100,200,400]
[--json]``.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass

from ..engine.batch import BatchJob
from ..engine.latency import LatencySummary
from ..service.client import AsyncServiceClient, JobRejected, ServiceClient


@dataclass
class LoadReport:
    """Aggregate outcome of one load-generation run."""

    clients: int
    offered: int  # jobs submitted (or attempted) across all clients
    completed: int  # results received with ok == True
    job_errors: int  # results received with a captured job error
    rejected: int  # transport rejections (queue_full, deadline, ...)
    cache_hits: int
    wall_s: float
    latency_ms: LatencySummary  # submit->result, completed jobs only
    #: server-side metrics-registry snapshot taken after the run (with
    #: ``fetch_metrics=True``); pairs the client-observed latencies
    #: above with the server's own queue/compile/sim histograms
    server_metrics: dict | None = None
    #: open-loop campaigns: the target arrival rate (jobs/s) the
    #: schedule was drawn for; None for closed-loop runs
    offered_rate: float | None = None

    @property
    def throughput(self) -> float:
        """Completed jobs per second of wall time."""
        return self.completed / self.wall_s if self.wall_s > 0 else 0.0

    def summary(self) -> str:
        rate = (
            f" @ {self.offered_rate:.0f}/s offered"
            if self.offered_rate is not None else ""
        )
        return (
            f"{self.clients} clients{rate}: {self.completed}/{self.offered} "
            f"completed, {self.rejected} rejected, {self.job_errors} job "
            f"errors in {self.wall_s:.2f}s ({self.throughput:.1f} jobs/s); "
            f"latency {self.latency_ms.brief('ms')}"
        )

    def to_json(self) -> dict:
        return {
            "clients": self.clients,
            "offered": self.offered,
            "completed": self.completed,
            "job_errors": self.job_errors,
            "rejected": self.rejected,
            "cache_hits": self.cache_hits,
            "wall_s": self.wall_s,
            "throughput": self.throughput,
            "offered_rate": self.offered_rate,
            "latency_ms": self.latency_ms.to_json(),
        }


def run_load(
    endpoint: dict,
    jobs: list[BatchJob],
    clients: int = 8,
    rounds: int = 1,
    burst: int = 1,
    deadline_ms: float | None = None,
    timeout: float = 120.0,
    fetch_metrics: bool = False,
    seed: int | None = None,
) -> LoadReport:
    """Drive a running service from ``clients`` concurrent connections.

    ``endpoint`` is the kwargs dict a :class:`ServiceClient` takes
    (``{"path": ...}`` or ``{"host": ..., "port": ...}``), e.g. straight
    from :meth:`~repro.service.server.ServiceServer.endpoint`.

    With ``seed`` set, each thread's job walk is an independent draw
    from a per-thread ``random.Random`` derived from ``(seed, idx)``
    over the whole job list (same
    length as the round-robin share) — reproducible run to run, and a
    realistic mix instead of a fixed stride.  ``seed=None`` keeps the
    legacy deterministic round-robin split.
    """
    if clients < 1 or rounds < 1 or burst < 1:
        raise ValueError("clients, rounds, and burst must all be >= 1")
    per_thread: list[dict | None] = [None] * clients
    errors: list[BaseException] = []

    def worker(idx: int) -> None:
        if seed is not None:
            rng = random.Random((seed << 16) ^ idx)
            share = len(jobs[idx::clients]) * rounds
            mine = [jobs[rng.randrange(len(jobs))] for _ in range(share)]
        else:
            mine = [job for job in jobs[idx::clients]] * rounds
        acc = {"offered": len(mine), "completed": 0, "job_errors": 0,
               "rejected": 0, "cache_hits": 0, "lat": []}
        try:
            with ServiceClient(**endpoint, timeout=timeout) as client:
                for k in range(0, len(mine), burst):
                    chunk = mine[k:k + burst]
                    started = []
                    for job in chunk:
                        started.append(
                            (time.perf_counter(),
                             client.start(job, deadline_ms))
                        )
                    for t0, req_id in started:
                        try:
                            br = client.result(req_id)
                        except JobRejected:
                            acc["rejected"] += 1
                            continue
                        if br.ok:
                            acc["completed"] += 1
                            acc["cache_hits"] += bool(br.cache_hit)
                            acc["lat"].append(
                                (time.perf_counter() - t0) * 1e3
                            )
                        else:
                            acc["job_errors"] += 1
        except BaseException as exc:  # surface thread failures to caller
            errors.append(exc)
            return
        per_thread[idx] = acc

    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(clients)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    if errors:
        raise errors[0]
    done = [acc for acc in per_thread if acc is not None]
    all_lat = [ms for acc in done for ms in acc["lat"]]
    server_metrics = None
    if fetch_metrics:
        with ServiceClient(**endpoint, timeout=timeout) as client:
            server_metrics = client.metrics()
    return LoadReport(
        clients=clients,
        offered=sum(acc["offered"] for acc in done),
        completed=sum(acc["completed"] for acc in done),
        job_errors=sum(acc["job_errors"] for acc in done),
        rejected=sum(acc["rejected"] for acc in done),
        cache_hits=sum(acc["cache_hits"] for acc in done),
        wall_s=wall,
        latency_ms=LatencySummary.from_samples(all_lat),
        server_metrics=server_metrics,
    )


# -- open-loop campaigns ----------------------------------------------------


def zipf_weights(n: int, s: float = 1.1) -> list[float]:
    """Zipf popularity over ``n`` items: weight of rank ``i`` (0-based)
    is ``(i + 1) ** -s``, normalized to sum to 1.

    The skewed-traffic shape the Labyrinth workload motivates: a few
    graphs dominate resubmissions while a long tail stays cold — the
    distribution the graph cache and the fleet's hot replication are
    designed for.
    """
    if n < 1:
        raise ValueError("need at least one item")
    if s < 0:
        raise ValueError("skew must be >= 0")
    raw = [(i + 1) ** -s for i in range(n)]
    total = sum(raw)
    return [w / total for w in raw]


def plan_campaign(
    jobs: list[BatchJob],
    rate: float,
    duration_s: float,
    seed: int = 0,
    connections: int = 4,
    weights: list[float] | None = None,
) -> list[list[tuple[float, int]]]:
    """A deterministic open-loop schedule: per connection, a list of
    ``(arrival_offset_s, job_index)`` pairs.

    Inter-arrival gaps are exponential (Poisson arrivals) at the target
    aggregate ``rate``, split evenly across ``connections``; job indices
    are uniform draws, or weighted draws when ``weights`` gives one
    weight per job (e.g. :func:`zipf_weights` for skewed graph
    popularity).  Everything comes from ``random.Random(seed)``,
    so the same (jobs, rate, duration, seed, connections, weights)
    tuple yields a byte-identical campaign — the reproducibility
    contract the bench results depend on.
    """
    if rate <= 0 or duration_s <= 0 or connections < 1:
        raise ValueError("rate, duration_s, and connections must be positive")
    if not jobs:
        raise ValueError("need at least one job to schedule")
    if weights is not None and len(weights) != len(jobs):
        raise ValueError("weights must give one weight per job")
    rng = random.Random(seed)
    cum: list[float] | None = None
    if weights is not None:
        cum = []
        acc = 0.0
        for w in weights:
            acc += w
            cum.append(acc)
    per_conn_rate = rate / connections
    schedules: list[list[tuple[float, int]]] = []
    for _ in range(connections):
        t = 0.0
        sched: list[tuple[float, int]] = []
        while True:
            t += rng.expovariate(per_conn_rate)
            if t >= duration_s:
                break
            if cum is None:
                idx = rng.randrange(len(jobs))
            else:
                idx = rng.choices(range(len(jobs)), cum_weights=cum, k=1)[0]
            sched.append((t, idx))
        schedules.append(sched)
    return schedules


def run_open_loop(
    endpoint: dict,
    jobs: list[BatchJob],
    rate: float,
    duration_s: float,
    connections: int = 4,
    seed: int = 0,
    deadline_ms: float | None = None,
    drain_timeout_s: float = 60.0,
    fetch_metrics: bool = False,
    weights: list[float] | None = None,
) -> LoadReport:
    """Offer ``rate`` jobs/s for ``duration_s`` regardless of how fast
    results come back, then collect everything in flight.

    Each connection is one :class:`AsyncServiceClient` on a shared event
    loop; an arrival whose scheduled time has passed is submitted
    immediately (late arrivals are not dropped — the offered load is
    exactly the planned campaign).  Latency is measured submit→result
    per job; rejections (``queue_full``, ``deadline_expired``,
    ``shard_failed``, ...) count separately from job errors.
    """
    import asyncio

    schedules = plan_campaign(
        jobs, rate, duration_s, seed, connections, weights=weights
    )

    async def drive_conn(sched: list[tuple[float, int]], acc: dict) -> None:
        client = AsyncServiceClient(**endpoint, retries=20, backoff_s=0.05)
        pending: set = set()

        async def one(job: BatchJob) -> None:
            t0 = time.perf_counter()
            try:
                br = await client.submit(job, deadline_ms)
            except JobRejected:
                acc["rejected"] += 1
                return
            except Exception:
                acc["rejected"] += 1  # torn connection mid-flight
                return
            if br.ok:
                acc["completed"] += 1
                acc["cache_hits"] += bool(br.cache_hit)
                acc["lat"].append((time.perf_counter() - t0) * 1e3)
            else:
                acc["job_errors"] += 1

        async with client:
            start = time.perf_counter()
            for offset, job_idx in sched:
                delay = offset - (time.perf_counter() - start)
                if delay > 0:
                    await asyncio.sleep(delay)
                acc["offered"] += 1
                task = asyncio.create_task(one(jobs[job_idx]))
                pending.add(task)
                task.add_done_callback(pending.discard)
            if pending:
                await asyncio.wait_for(
                    asyncio.gather(*list(pending), return_exceptions=True),
                    drain_timeout_s,
                )

    async def campaign() -> tuple[list[dict], float]:
        accs = [
            {"offered": 0, "completed": 0, "job_errors": 0,
             "rejected": 0, "cache_hits": 0, "lat": []}
            for _ in schedules
        ]
        t0 = time.perf_counter()
        await asyncio.gather(*[
            drive_conn(sched, acc) for sched, acc in zip(schedules, accs)
        ])
        return accs, time.perf_counter() - t0

    accs, wall = asyncio.run(campaign())
    server_metrics = None
    if fetch_metrics:
        with ServiceClient(**endpoint, timeout=30.0, retries=5) as client:
            server_metrics = client.metrics()
    all_lat = [ms for acc in accs for ms in acc["lat"]]
    return LoadReport(
        clients=len(schedules),
        offered=sum(acc["offered"] for acc in accs),
        completed=sum(acc["completed"] for acc in accs),
        job_errors=sum(acc["job_errors"] for acc in accs),
        rejected=sum(acc["rejected"] for acc in accs),
        cache_hits=sum(acc["cache_hits"] for acc in accs),
        wall_s=wall,
        latency_ms=LatencySummary.from_samples(all_lat),
        server_metrics=server_metrics,
        offered_rate=rate,
    )


def saturation_sweep(
    endpoint: dict,
    jobs: list[BatchJob],
    rates: list[float],
    duration_s: float = 3.0,
    connections: int = 4,
    seed: int = 0,
    deadline_ms: float | None = None,
    weights: list[float] | None = None,
) -> dict:
    """Step the offered rate over ``rates`` and find saturation: the
    highest *achieved* throughput across the grid, with its p99.

    Returns ``{"points": [LoadReport.to_json()...], "saturation":
    {"offered_rate", "throughput", "p99_ms"}}`` — the comparison unit
    ``BENCH_service.json`` records for single-server vs fleet.
    """
    points = [
        run_open_loop(
            endpoint, jobs, rate, duration_s,
            connections=connections, seed=seed, deadline_ms=deadline_ms,
            weights=weights,
        )
        for rate in sorted(rates)
    ]
    best = max(points, key=lambda r: r.throughput)
    return {
        "points": [r.to_json() for r in points],
        "saturation": {
            "offered_rate": best.offered_rate,
            "throughput": best.throughput,
            "p50_ms": best.latency_ms.p50,
            "p99_ms": best.latency_ms.p99,
        },
    }


# -- CLI --------------------------------------------------------------------


def _default_jobs(n_programs: int = 8, iters: int = 400) -> list[BatchJob]:
    """A small mixed workload: ``n_programs`` distinct accumulation
    loops (distinct graph keys — so fleet routing has keys to spread)
    with per-program iteration counts around ``iters``."""
    from ..translate.pipeline import CompileOptions

    jobs = []
    for p in range(n_programs):
        source = (
            f"acc := {p};\n"
            f"i := 0;\n"
            f"while i < n do {{\n"
            f"  acc := acc + i * {p + 1};\n"
            f"  i := i + 1;\n"
            f"}}\n"
            f"r := acc;\n"
        )
        jobs.append(BatchJob(
            source=source,
            options=CompileOptions(),
            inputs={"n": iters + 10 * p},
            name=f"bench{p}",
        ))
    return jobs


def main(argv: list[str] | None = None) -> int:
    import argparse
    import json as _json

    ap = argparse.ArgumentParser(
        prog="python -m repro.bench.loadgen",
        description="Open-loop load campaign against a service or fleet.",
    )
    ap.add_argument("--socket", help="UNIX socket path of the server/router")
    ap.add_argument("--host", default="127.0.0.1")
    ap.add_argument("--port", type=int)
    ap.add_argument("--rate", type=float, default=100.0,
                    help="offered jobs/s (single run)")
    ap.add_argument("--duration", type=float, default=3.0,
                    help="seconds per campaign")
    ap.add_argument("--connections", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0,
                    help="campaign seed (same seed = same workload)")
    ap.add_argument("--deadline-ms", type=float, default=None)
    ap.add_argument("--programs", type=int, default=8,
                    help="distinct programs in the workload mix")
    ap.add_argument("--iters", type=int, default=400,
                    help="loop iterations per program (job weight)")
    ap.add_argument("--zipf", type=float, default=None, metavar="S",
                    help="skew job popularity by a Zipf(S) distribution "
                    "(e.g. 1.1) instead of uniform draws")
    ap.add_argument("--sweep", default=None,
                    help="comma-separated rates; run a saturation sweep")
    ap.add_argument("--json", action="store_true", dest="as_json",
                    help="emit the report as JSON on stdout")
    args = ap.parse_args(argv)

    if args.socket is None and args.port is None:
        ap.error("need --socket or --port")
    endpoint = (
        {"path": args.socket} if args.socket is not None
        else {"host": args.host, "port": args.port}
    )
    jobs = _default_jobs(args.programs, args.iters)
    weights = (
        zipf_weights(len(jobs), args.zipf) if args.zipf is not None else None
    )
    if args.sweep:
        rates = [float(r) for r in args.sweep.split(",") if r.strip()]
        out = saturation_sweep(
            endpoint, jobs, rates, args.duration,
            connections=args.connections, seed=args.seed,
            deadline_ms=args.deadline_ms, weights=weights,
        )
        if args.as_json:
            print(_json.dumps(out, indent=2))
        else:
            for pt in out["points"]:
                print(
                    f"rate {pt['offered_rate']:.0f}/s -> "
                    f"{pt['throughput']:.1f} done/s, "
                    f"p99 {pt['latency_ms']['p99']:.1f}ms, "
                    f"{pt['rejected']} rejected"
                )
            sat = out["saturation"]
            print(
                f"saturation: {sat['throughput']:.1f} jobs/s "
                f"(offered {sat['offered_rate']:.0f}/s, "
                f"p99 {sat['p99_ms']:.1f}ms)"
            )
    else:
        report = run_open_loop(
            endpoint, jobs, args.rate, args.duration,
            connections=args.connections, seed=args.seed,
            deadline_ms=args.deadline_ms, weights=weights,
        )
        if args.as_json:
            print(_json.dumps(report.to_json(), indent=2))
        else:
            print(report.summary())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
