"""Fleet snapshot crash tests: a ``kill -9``'d shard respawns over its
per-shard snapshot directory and comes up warm — compiled graphs
restored from the last committed manifest — with no shared disk cache
in play."""

import json
import os
import time

from repro.engine import BatchJob
from repro.engine.cache import SNAPSHOT_MANIFEST, graph_key
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


def _manifest_lists(path: str, key: str) -> bool:
    """Whether the committed manifest at ``path`` names ``key``.  A
    periodic snapshot can commit before the entry is cached, so the
    manifest existing is not enough."""
    try:
        with open(path, encoding="utf-8") as f:
            return key in json.load(f)["keys"]
    except (OSError, ValueError, KeyError):
        return False


def test_killed_shard_restores_from_its_snapshot(tmp_path):
    """No shared --cache-dir: the snapshot is the only persistence.
    After the owner shard is kill -9'd mid-life, the respawn restores
    the last periodic snapshot and the first resubmission is a memory
    hit with zero recompiles."""
    snap_root = str(tmp_path / "snap")
    with running_fleet(
        shards=2, max_batch=1,
        snapshot_dir=snap_root, snapshot_interval_s=0.05,
    ) as (ep, router):
        assert all(
            sh.snapshot_dir == os.path.join(snap_root, f"shard-{sh.index}")
            for sh in router.shards
        )
        with ServiceClient(**ep, timeout=120.0, retries=20) as client:
            job = BatchJob(SRC, name="seed")
            key = graph_key(job.source, job.options)
            owner = router.ring.lookup(key, 1)[0]

            br = client.submit(job)
            assert br.ok, br.error
            assert _engine_stats(client, owner)["compiles"] == 1

            # wait for a periodic snapshot that includes the entry
            manifest = os.path.join(
                snap_root, f"shard-{owner}", SNAPSHOT_MANIFEST
            )
            _wait(lambda: _manifest_lists(manifest, key))

            router.shards[owner].kill()
            _wait(lambda: router.shards[owner].spawns == 2)
            _wait(lambda: not router.links[owner].down)

            br2 = client.submit(BatchJob(SRC, name="after-kill"))
            assert br2.ok, br2.error
            assert br2.cache_hit  # restored entry, not a recompile
            eng = _engine_stats(client, owner)
            assert eng["compiles"] == 0
            assert eng["memory_hits"] >= 1


def test_respawn_with_junk_in_snapshot_dir_is_cold_not_crashed(tmp_path):
    """Torn snapshot artifacts — orphaned ``*.tmp`` files and a corrupt
    manifest — must leave the respawned shard serving (cold), never
    crash-looping."""
    snap_root = tmp_path / "snap"
    shard_dir = snap_root / "shard-0"
    shard_dir.mkdir(parents=True)
    (shard_dir / SNAPSHOT_MANIFEST).write_text("{torn mid-write")
    (shard_dir / (SNAPSHOT_MANIFEST + "abc123.tmp")).write_text("{half")
    with running_fleet(
        shards=1, max_batch=1,
        snapshot_dir=str(snap_root), snapshot_interval_s=0.0,
    ) as (ep, _router):
        with ServiceClient(**ep, timeout=120.0, retries=20) as client:
            br = client.submit(BatchJob(SRC, name="cold"))
            assert br.ok, br.error
