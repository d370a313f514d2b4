"""Fleet router suite: round trips and cache affinity, the differential
bit-identity guarantee through the router, backpressure and deadline
propagation, hot-graph replication, and cross-shard stats/metrics
aggregation."""

import time

import pytest

from repro.bench.harness import corpus_jobs
from repro.engine import BatchJob, GraphCache, run_batch
from repro.engine.cache import graph_key
from repro.fleet import running_fleet
from repro.service import JobRejected, ServiceClient

SRC = """
x := 0;
l: y := x + 1;
   x := x + 1;
   if x < 5 then goto l;
"""


def _slow_src(n: int = 20000) -> str:
    """~18us per iteration on the packed backend: n=20000 is ~0.4s."""
    return f"i := 0;\nl: i := i + 1;\n   if i < {n} then goto l;\n"


def _wait(cond, timeout=20.0, interval=0.01):
    t0 = time.monotonic()
    while not cond():
        if time.monotonic() - t0 > timeout:
            raise TimeoutError("condition not reached")
        time.sleep(interval)


def test_round_trip_affinity_and_aggregation():
    """One fleet exercise end to end: submits route by graph key onto a
    warm shard (second submit is a cache hit), ping reports the fleet,
    and stats/metrics aggregate across shards with per-shard breakdowns.
    """
    with running_fleet(shards=2) as (ep, router):
        with ServiceClient(**ep, timeout=60.0, retries=20) as client:
            ping = client.ping()
            assert ping["ok"] and ping["fleet"]["shards"] == 2

            first = client.submit(BatchJob(SRC, name="a"))
            assert first.ok, first.error
            again = client.submit(BatchJob(SRC, name="b"))
            assert again.ok and again.cache_hit  # same shard, warm cache
            assert again.result.memory == first.result.memory

            # a different graph may land on the other shard; either way
            # the fleet serves it
            other = client.submit(BatchJob(_slow_src(50), name="c"))
            assert other.ok

            st = client.stats()
            assert st["submitted"] == 3 and st["completed"] == 3
            assert st["fleet"]["shards"] == 2 and st["fleet"]["live"] == 2
            assert set(st["shards"]) == {"0", "1"}
            assert all(sh["up"] for sh in st["shards"].values())
            # per-shard submitted sums to the fleet total
            assert sum(
                sh["submitted"] for sh in st["shards"].values()
            ) == 3
            # the single-server stats surface is preserved (CLI contract)
            for key in ("uptime_s", "queue_depth", "in_flight", "cache",
                        "latency_ms", "jobs_per_s", "batches"):
                assert key in st
            assert st["cache"]["jobs_hit"] == 1

            m = client.metrics()
            assert set(m["shards"]) == {"0", "1"}
            # shard counters aggregate bucket-wise into the fleet view
            assert m["counters"]["service.jobs.completed"] == 3
            assert m["counters"]["fleet.jobs.completed"] == 3
            agg = m["histograms"]["service.latency_ms.total"]
            assert agg["count"] == 3
            assert sum(b[1] for b in agg["buckets"]) == 3


@pytest.mark.parametrize("shards,max_batch", [(1, 4), (2, 1), (3, 8)])
def test_differential_bit_identical_through_fleet(shards, max_batch):
    """For any shard count and max_batch, fleet results equal a direct
    run_batch() of the same jobs — the service's differential guarantee
    extended through consistent-hash routing."""
    jobs = corpus_jobs(programs=["gcd", "fib"])
    direct = run_batch(jobs, cache=GraphCache())
    with running_fleet(shards=shards, max_batch=max_batch) as (
        ep, _router,
    ):
        with ServiceClient(**ep, timeout=120.0, retries=20) as client:
            via_fleet = client.submit_many(jobs)
    assert len(via_fleet) == len(direct)
    for d, s in zip(direct, via_fleet):
        assert s.ok, s.error
        assert s.name == d.name
        assert s.result.memory == d.result.memory
        assert s.result.end_values == d.result.end_values
        assert s.result.metrics == d.result.metrics  # ops/cycles/profile
        assert s.result.backend == d.result.backend
        assert s.stats == d.stats


def test_router_max_pending_queue_full():
    """The router's own backpressure: once a shard has max_pending jobs
    outstanding, further submits bound for it are rejected immediately
    with queue_full — the shard never sees them."""
    with running_fleet(shards=1, max_pending=1, max_batch=1) as (
        ep, router,
    ):
        with ServiceClient(**ep, timeout=60.0, retries=20) as client:
            slow = client.start(BatchJob(_slow_src(), name="slow"))
            _wait(lambda: router.links[0].outstanding >= 1)
            with pytest.raises(JobRejected) as exc:
                client.submit(BatchJob(SRC, name="bounced"))
            assert exc.value.code == "queue_full"
            assert client.result(slow).ok  # the slow job is unharmed
        st = router.registry.counter("fleet.jobs.rejected")
        assert st.value == 1


def test_shard_queue_full_passes_through():
    """A shard's queue_full travels back verbatim: tiny shard queue,
    generous router bound, pipelined same-graph burst."""
    with running_fleet(
        shards=1, max_pending=64, max_queue=1, max_batch=1
    ) as (ep, _router):
        with ServiceClient(**ep, timeout=60.0, retries=20) as client:
            src = _slow_src()
            reqs = [
                client.start(BatchJob(src, name=f"s{i}")) for i in range(6)
            ]
            outcomes = []
            for r in reqs:
                try:
                    outcomes.append(client.result(r).ok)
                except JobRejected as exc:
                    outcomes.append(exc.code)
            assert "queue_full" in outcomes  # shard-origin backpressure
            assert True in outcomes  # and accepted work still completes


def test_deadline_propagates_to_shard():
    """A deadline on a forwarded job expires at the shard on time."""
    with running_fleet(shards=1) as (ep, _router):
        with ServiceClient(**ep, timeout=60.0, retries=20) as client:
            t0 = time.monotonic()
            with pytest.raises(JobRejected) as exc:
                client.submit(BatchJob(_slow_src(200000), name="dl"),
                              deadline_ms=150.0)
            assert exc.value.code == "deadline_expired"
            assert time.monotonic() - t0 < 10.0


def test_hot_graph_replication_load_aware():
    """Past hot_threshold routings, a key may be served by any of its
    replication ring successors, chosen by least outstanding load — a
    pipelined burst of one hot graph spills onto the replica."""
    with running_fleet(
        shards=2, replication=2, hot_threshold=2, max_batch=1,
    ) as (ep, router):
        with ServiceClient(**ep, timeout=120.0, retries=20) as client:
            src = _slow_src(2000)  # ~40ms: keeps outstanding > 0
            job = BatchJob(src, name="hot")
            key = graph_key(job.source, job.options)
            reps = router.ring.lookup(key, 2)
            assert len(reps) == 2
            reqs = [client.start(BatchJob(src, name=f"h{i}"))
                    for i in range(10)]
            for r in reqs:
                assert client.result(r).ok
            # both shards executed the hot graph...
            st = client.stats()
            per_shard = [st["shards"][str(i)]["submitted"] for i in reps]
            assert all(n > 0 for n in per_shard), per_shard
            # ...and the router recorded load-aware replica choices
            assert st["fleet"]["replicated_routes"] > 0
            assert st["fleet"]["hot_graphs"] >= 1


def test_duplicate_and_malformed_requests():
    with running_fleet(shards=1) as (ep, _router):
        with ServiceClient(**ep, timeout=60.0, retries=20) as client:
            # malformed job: bad_request, connection stays usable
            client._send({"op": "submit", "id": "bad", "job": {"nope": 1}})
            with pytest.raises(JobRejected) as exc:
                client.result("bad")
            assert exc.value.code == "bad_request"
            assert client.submit(BatchJob(SRC, name="after")).ok


def test_merge_latency_pools_shard_samples():
    """Regression: the fleet stats merge used a count-weighted average
    of per-shard p50/p95/p99, which under-reports tail latency whenever
    one shard is slower than the rest — the slow shard's p99 gets
    diluted by the fast shards' counts.  The merge must compute
    percentiles over the pooled sample rings instead."""
    from repro.engine.latency import LatencySummary, percentile
    from repro.fleet.router import _merge_latency

    def summary(samples, ship_samples=True):
        d = LatencySummary.from_samples(samples).to_json()
        if ship_samples:
            d["samples"] = list(samples)
        return d

    fast = [1.0] * 900    # healthy shard
    slow = [100.0] * 100  # shard stuck behind a slow disk

    merged = _merge_latency([summary(fast), summary(slow)])
    pooled = sorted(fast + slow)
    assert merged["count"] == 1000
    assert merged["p99"] == percentile(pooled, 99) == 100.0
    assert merged["p95"] == percentile(pooled, 95) == 100.0
    assert merged["p50"] == percentile(pooled, 50) == 1.0
    assert merged["max"] == 100.0
    assert merged["mean"] == pytest.approx(10.9)

    # the old weighted average (kept only as the fallback for shards
    # that predate the `samples` stats flag) visibly under-reports:
    # (900 * 1.0 + 100 * 100.0) / 1000 = 10.9ms claimed p99 vs 100ms real
    legacy = _merge_latency([summary(fast, ship_samples=False),
                             summary(slow)])
    assert legacy["p99"] == pytest.approx(10.9)
    assert legacy["p99"] < merged["p99"] / 5
    # count/mean/max compose exactly under either merge
    assert legacy["count"] == merged["count"]
    assert legacy["mean"] == merged["mean"]
    assert legacy["max"] == merged["max"]


def test_fleet_stats_latency_merge_is_sample_based():
    """The router asks shards for raw rings (stats op, samples=True),
    merges percentiles over the pooled samples, and strips the rings
    from the client-facing reply."""
    with running_fleet(shards=2) as (ep, _router):
        with ServiceClient(**ep, timeout=60.0, retries=20) as client:
            for i in range(4):
                assert client.submit(BatchJob(SRC, name=f"j{i}")).ok
            st = client.stats()
            for stage in ("compile", "sim"):
                merged = st["latency_ms"][stage]
                assert merged["count"] >= 1
                assert merged["p99"] <= merged["max"]
                assert "samples" not in merged
            # rings never leak into the per-shard breakdown
            for sh in st["shards"].values():
                for stage_summary in sh["latency_ms"].values():
                    assert "samples" not in stage_summary
