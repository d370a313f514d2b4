"""Fleet failure paths: kill -9 of a shard mid-batch, router drain with
zero lost results, deadline expiry while queued at the router, a write
into a torn shard connection, and a shard crash in the middle of an
open-loop campaign."""

import asyncio
import contextlib
import threading
import time
from types import SimpleNamespace

import pytest

from repro.bench.loadgen import _default_jobs, run_open_loop
from repro.engine import BatchJob
from repro.engine.cache import graph_key
from repro.fleet import running_fleet
from repro.fleet.router import QUEUED, SENT, ShardLink, _FleetEntry
from repro.service import JobRejected, ServiceClient


def _slow_src(n: int = 60000) -> str:
    return f"i := 0;\nl: i := i + 1;\n   if i < {n} then goto l;\n"


def _wait(cond, timeout=30.0, interval=0.01):
    t0 = time.monotonic()
    while not cond():
        if time.monotonic() - t0 > timeout:
            raise TimeoutError("condition not reached")
        time.sleep(interval)


def test_kill_nine_fails_inflight_then_respawns():
    """kill -9 mid-run: the in-flight job fails with shard_failed (a
    per-job error, not a torn client connection), the supervisor
    respawns the shard on the same ring slot, and the same graph then
    completes there."""
    with running_fleet(shards=2, max_batch=1) as (ep, router):
        with ServiceClient(**ep, timeout=120.0, retries=20) as client:
            job = BatchJob(_slow_src(), name="victim")  # ~1.2s
            key = graph_key(job.source, job.options)
            victim = router.ring.lookup(key, 1)[0]
            link = router.links[victim]

            rid = client.start(job)
            _wait(lambda: len(link.inflight) == 1)  # it reached the shard
            router.shards[victim].kill()

            with pytest.raises(JobRejected) as exc:
                client.result(rid)
            assert exc.value.code == "shard_failed"

            # subsequent jobs with the same key reroute to the respawn
            br = client.submit(BatchJob(job.source, name="retry"))
            assert br.ok, br.error
            assert router.shards[victim].spawns == 2
            st = client.stats()
            assert st["fleet"]["respawns"] == 1
            assert st["fleet"]["shard_failed"] == 1


def test_drain_delivers_every_accepted_result():
    """shutdown mid-burst: every accepted job's result reaches the
    client before the fleet exits — zero lost results."""
    with running_fleet(shards=2) as (ep, router):
        with ServiceClient(**ep, timeout=120.0, retries=20) as client:
            src = _slow_src(2000)
            reqs = [client.start(BatchJob(src, name=f"d{i}"))
                    for i in range(8)]
            draining = client.shutdown()
            assert draining >= 0
            # intake is closed the moment the drain starts...
            with pytest.raises(JobRejected) as exc:
                client.submit(BatchJob(src, name="late"))
            assert exc.value.code == "shutting_down"
            # ...but every already-accepted job still delivers
            for r in reqs:
                assert client.result(r).ok  # all 8 delivered


def test_deadline_expiry_while_queued_at_router():
    """A job bound for a dead shard (respawn disabled) waits in the
    router's outbox; its deadline fires there and the client gets
    deadline_expired on time — not a hang, not a torn connection."""
    with running_fleet(shards=1, respawn=False) as (ep, router):
        with ServiceClient(**ep, timeout=60.0, retries=20) as client:
            assert client.submit(BatchJob("x := 1;", name="up")).ok
            router.shards[0].kill()
            _wait(lambda: router.links[0].down)
            t0 = time.monotonic()
            with pytest.raises(JobRejected) as exc:
                client.submit(BatchJob("y := 2;", name="stuck"),
                              deadline_ms=300.0)
            assert exc.value.code == "deadline_expired"
            assert 0.2 < time.monotonic() - t0 < 10.0
            st = client.stats()
            assert st["expired"] == 1
            assert st["fleet"]["live"] == 0


def test_failed_write_parks_the_pump_until_reconnect():
    """A write into a torn shard connection puts the job back at the
    head of the outbox and parks the pump until the link reconnects.
    Once a stream holds an error its drain() raises without yielding to
    the event loop, so a pump that rewrote at once would spin, starve
    the reader that tears the connection down, and never stop."""
    writes = []

    class TornWriter:
        closed = False

        def write(self, data):
            writes.append(data)

        async def drain(self):
            if len(writes) > 50:
                raise AssertionError("the pump kept writing a torn stream")
            raise BrokenPipeError("shard connection torn")

        def close(self):
            self.closed = True

    class Writer:
        def __init__(self):
            self.frames = []

        def write(self, data):
            self.frames.append(data)

        async def drain(self):
            pass

    async def scenario():
        link = ShardLink(SimpleNamespace(), SimpleNamespace(index=0))
        link._writer = torn = TornWriter()
        link.connected.set()
        entry = _FleetEntry(None, "c1", "r1", {"source": "x := 1;"}, "k", None)
        link.enqueue(entry)
        pump = asyncio.create_task(link._pump())
        await asyncio.sleep(0.05)
        assert not pump.done()  # parked, not dead
        assert len(writes) == 1 and torn.closed
        assert not link.connected.is_set()
        assert list(link.outbox) == [entry] and entry.state is QUEUED
        assert not link.inflight

        # the reconnect delivers the job that was put back
        link._writer = fresh = Writer()
        link.connected.set()
        await asyncio.sleep(0.05)
        assert len(fresh.frames) == 1 and entry.state is SENT
        assert link.inflight == {"r1": entry} and not link.outbox
        pump.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await pump

    asyncio.run(scenario())


def test_kill_nine_during_open_loop_campaign():
    """The acceptance scenario: kill -9 one shard during a seeded
    open-loop campaign.  Only that shard's in-flight jobs are lost (as
    per-job errors), the campaign runs to completion, and the shard is
    back by the end."""
    jobs = _default_jobs(6, 800)
    with running_fleet(shards=2, max_batch=4) as (ep, router):
        report_box = {}

        def campaign():
            report_box["report"] = run_open_loop(
                ep, jobs, rate=60.0, duration_s=3.0,
                connections=2, seed=11,
            )

        t = threading.Thread(target=campaign)
        t.start()
        _wait(lambda: sum(lk.outstanding for lk in router.links) > 0
              or not t.is_alive())
        time.sleep(0.5)  # let load build on both shards
        router.shards[0].kill()
        t.join(120.0)
        assert not t.is_alive()
        report = report_box["report"]

        # every offered job got an answer: completed, a per-job
        # rejection (shard_failed / queue_full), or a captured error
        assert report.offered > 0
        assert (report.completed + report.rejected + report.job_errors
                == report.offered)
        # the fleet kept serving: most of the campaign completed
        assert report.completed > report.offered * 0.5
        # and the crash was contained: every client-side rejection is a
        # per-job wire error the router accounted for (shard_failed for
        # the in-flight casualties, queue_full for backpressure during
        # the outage), never a torn client connection
        assert router.shards[0].spawns == 2  # respawned
        accounted = sum(
            router.registry.counter(f"fleet.jobs.{name}").value
            for name in ("shard_failed", "rejected", "expired",
                         "forwarded_rejects")
        )
        assert report.rejected <= accounted
