"""Warm respawn: every shard shares one content-addressed disk cache,
so a respawned shard resumes from the fleet's accumulated compile work
instead of starting cold."""

import time

from repro.engine import BatchJob
from repro.engine.cache import graph_key
from repro.fleet import running_fleet
from repro.service import ServiceClient

SRC = """
x := 0;
l: y := x + 1;
   x := x + 1;
   if x < 5 then goto l;
"""


def _wait(cond, timeout=30.0, interval=0.01):
    t0 = time.monotonic()
    while not cond():
        if time.monotonic() - t0 > timeout:
            raise TimeoutError("condition not reached")
        time.sleep(interval)


def _engine_stats(client, shard: int) -> dict:
    return client.stats()["shards"][str(shard)]["cache"]["engine"]


def test_respawned_shard_first_job_is_disk_hit_not_recompile(tmp_path):
    """kill -9 a shard after it compiled a graph; the supervisor
    respawns it over the same shared --cache-dir, and the first
    resubmission of that graph is a *disk hit* — zero recompiles."""
    with running_fleet(
        shards=2, max_batch=1, cache_dir=str(tmp_path)
    ) as (ep, router):
        with ServiceClient(**ep, timeout=120.0, retries=20) as client:
            job = BatchJob(SRC, name="seed")
            key = graph_key(job.source, job.options)
            owner = router.ring.lookup(key, 1)[0]

            br = client.submit(job)
            assert br.ok, br.error
            eng = _engine_stats(client, owner)
            assert eng["compiles"] == 1 and eng["disk_hits"] == 0

            router.shards[owner].kill()
            _wait(lambda: router.shards[owner].spawns == 2)
            _wait(lambda: not router.links[owner].down)

            br2 = client.submit(BatchJob(SRC, name="after-respawn"))
            assert br2.ok, br2.error
            assert br2.cache_hit  # served from cache, not recompiled
            eng2 = _engine_stats(client, owner)
            # the respawned process never compiled: its only cache
            # traffic is the disk read of the pre-crash entry
            assert eng2["compiles"] == 0
            assert eng2["disk_hits"] == 1


def test_shards_share_one_disk_cache(tmp_path):
    """The fleet passes one cache directory to every shard (not
    per-shard subdirectories): a graph compiled anywhere in the fleet is
    readable by any other shard process."""
    with running_fleet(
        shards=2, max_batch=1, cache_dir=str(tmp_path)
    ) as (ep, router):
        assert all(
            sh.cache_dir == str(tmp_path) for sh in router.shards
        )
        with ServiceClient(**ep, timeout=120.0, retries=20) as client:
            assert client.submit(BatchJob(SRC, name="warmup")).ok
        # exactly one shard compiled it, and the entry landed in the
        # single shared directory
        blobs = list(tmp_path.rglob("*"))
        assert any(p.is_file() for p in blobs)
