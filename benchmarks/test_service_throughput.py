"""Service throughput under concurrent load — the evidence that the
always-on server beats one-shot invocation and that backpressure engages
instead of collapse.

Three measurements over the full bench corpus:

* **cold one-shot** — a fresh ``python -m repro bench`` subprocess
  (interpreter start, imports, cold cache), the per-job cost every
  pre-service caller paid;
* **warm service** — 8 closed-loop socket clients against one resident
  server with a warm cache: sustained jobs/s and client-observed
  submit->result latency percentiles;
* **overload** — 8 pipelining clients against ``max_queue=4`` while a
  slow job holds the engine: ``queue_full`` rejections are counted,
  every accepted job still completes, and the server stays live.
"""

import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.bench.harness import corpus_jobs
from repro.bench.loadgen import run_load
from repro.engine import BatchJob
from repro.service import ServiceClient, running_server

REPO = Path(__file__).resolve().parents[1]

SLOW_SRC = "i := 0;\nl: i := i + 1;\n   if i < 4000 then goto l;\n"


def _cold_bench_seconds(*extra_args: str) -> float:
    """Wall time of a fresh ``python -m repro bench`` subprocess: the
    cost every pre-service caller paid (interpreter, imports, cold
    cache) for whatever job subset the args select."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "bench", *extra_args],
        cwd=REPO,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=600,
    )
    wall = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr[-2000:]
    return wall


@pytest.mark.benchmark(group="service")
def test_service_throughput(tmp_path, save_result):
    jobs = corpus_jobs()
    # cold baselines: (a) one process per job — what invoking the CLI
    # for a single program costs; (b) one process for the whole corpus —
    # the best case a one-shot caller can amortize to
    single_shot_ms = _cold_bench_seconds(
        "--programs", "gcd", "--schemas", "schema2_opt"
    ) * 1e3
    cold_s = _cold_bench_seconds()
    cold_per_job_ms = cold_s / len(jobs) * 1e3

    # -- warm service: unloaded latency, then 8-client sustained load ---
    rounds = 3
    with running_server(max_queue=256, max_batch=16) as (ep, _server):
        with ServiceClient(**ep) as warmup:
            warm = warmup.submit_many(jobs)
            assert all(r.ok for r in warm)
        unloaded = run_load(ep, jobs, clients=1, rounds=1)
        report = run_load(ep, jobs, clients=8, rounds=rounds)
        with ServiceClient(**ep) as probe:
            live_stats = probe.stats()

    assert report.rejected == 0
    assert report.completed == report.offered == len(jobs) * rounds
    assert report.cache_hits == report.completed  # fully warm
    # warm submit->result must be well under cold one-shot cost: the
    # unloaded p50 beats even the fully-amortized cold per-job cost, and
    # under 8-client saturation (latency is then mostly queueing behind
    # the other clients' jobs) it still beats a per-job cold invocation
    # by a wide margin — asserted at 2x for noisy CI runners.
    assert unloaded.latency_ms.p50 < cold_per_job_ms
    assert report.latency_ms.p50 < single_shot_ms / 2

    # -- overload: tiny queue, pipelined bursts, engine held busy -------
    fast = [BatchJob(jobs[0].source, jobs[0].options, jobs[0].inputs,
                     name=f"burst{i}") for i in range(48)]
    with running_server(max_queue=4, max_batch=1) as (ep2, server2):
        with ServiceClient(**ep2) as holder:
            anchor = holder.start(BatchJob(SLOW_SRC, name="anchor"))
            deadline = time.monotonic() + 10
            while not (server2.batcher.in_flight == 1
                       and server2.batcher.depth == 0):
                assert time.monotonic() < deadline
                time.sleep(0.01)
            overload = run_load(ep2, fast, clients=8, rounds=1, burst=6)
            assert holder.result(anchor).ok
            # the server survived the overload and still serves
            with ServiceClient(**ep2) as probe:
                assert probe.submit(fast[0]).ok
                tiny_stats = probe.stats()

    assert overload.rejected > 0, "queue_full backpressure never engaged"
    assert overload.completed + overload.rejected == overload.offered
    assert tiny_stats["rejected"] == overload.rejected

    lat = live_stats["latency_ms"]
    lines = [
        f"bench corpus: {len(jobs)} (program, schema) jobs",
        "",
        "cold one-shot baselines (fresh `python -m repro bench` process):",
        f"  single job:   {single_shot_ms:.0f}ms "
        "(interpreter + imports + compile + sim)",
        f"  full corpus:  {cold_s:.2f}s wall = {cold_per_job_ms:.2f}ms "
        "per job fully amortized",
        "",
        "warm service, 1 client (unloaded submit->result latency):",
        f"  {unloaded.summary()}",
        f"  p50 is {cold_per_job_ms / unloaded.latency_ms.p50:.1f}x under "
        "even the fully-amortized cold per-job cost",
        "",
        f"warm service, 8 concurrent clients x {rounds} rounds "
        "(max_queue=256 max_batch=16):",
        f"  {report.summary()}",
        f"  p50 vs cold single-job one-shot: "
        f"{single_shot_ms / report.latency_ms.p50:.1f}x faster",
        "  server-side stage latencies (ms):",
        *[
            f"    {stage:8s} p50={lat[stage]['p50']:.2f} "
            f"p95={lat[stage]['p95']:.2f} p99={lat[stage]['p99']:.2f}"
            for stage in ("queue", "compile", "sim", "total")
        ],
        f"  server cache hit rate: "
        f"{live_stats['cache']['hit_rate'] * 100:.1f}%",
        "",
        "overload (max_queue=4 max_batch=1, engine held by a slow job, "
        "8 clients pipelining 6 submits each):",
        f"  {overload.summary()}",
        f"  server counters: {tiny_stats['rejected']} rejected, "
        f"{tiny_stats['completed']} completed, server stayed live",
        "",
        "backpressure contract: overflow is rejected immediately with "
        "queue_full; every accepted job completed (zero lost).",
    ]
    save_result("service_throughput", "\n".join(lines))
