"""Service-level warm-restart tests: the on-drain snapshot, the periodic
snapshot, the restart that makes the first resubmission a cache hit,
and the degraded paths (corrupt manifest, a snapshot from an older cache
format) that must come up cold rather than crash.

The module also covered the retired adaptive tiering, whose hotness
state rode in the same snapshots; tiering is gone, the snapshot half
stays, and so does a server's answer to an old client's ``tiers`` op."""

import json
import os
import time

from repro.engine import BatchJob
from repro.engine.cache import SNAPSHOT_MANIFEST
from repro.interp import run_ast
from repro.lang import parse
from repro.service import ServiceClient, running_server

SRC = """
x := 0;
l: y := x + 1;
   x := x + 1;
   if x < 5 then goto l;
"""


def _kwargs(**extra):
    kw = dict(max_batch=1)
    kw.update(extra)
    return kw


def test_tiers_rpc_on_non_tiering_server():
    """The retired ``tiers`` op gets a ``bad_request`` error frame on a
    live connection, which then serves ``stats`` — where the snapshot
    status that op used to report now lives."""
    with running_server(**_kwargs()) as (ep, _server):
        with ServiceClient(**ep) as client:
            client._send({"op": "tiers"})
            frame = client._wait_control("tiers")
            assert frame["ok"] is False
            assert frame["error"] == "bad_request"
            assert "tiers" in frame["detail"]
            snap = client.stats()["snapshot"]
            assert snap["dir"] is None
            assert snap["writes"] == 0 and snap["restored"] == 0


def test_drain_snapshot_then_warm_restart(tmp_path):
    snap_dir = str(tmp_path / "snap")
    kw = _kwargs(snapshot_dir=snap_dir)

    with running_server(**kw) as (ep, _server):
        with ServiceClient(**ep) as client:
            for i in range(3):
                assert client.submit(BatchJob(SRC, name=f"w{i}")).ok
            assert client.stats()["snapshot"]["restored"] == 0
    # graceful drain wrote the snapshot
    assert os.path.exists(os.path.join(snap_dir, SNAPSHOT_MANIFEST))

    with running_server(**kw) as (ep, _server):
        with ServiceClient(**ep) as client:
            assert client.stats()["snapshot"]["restored"] >= 1
            br = client.submit(BatchJob(SRC, name="after-restart"))
            assert br.ok
            assert br.cache_hit  # warm: no recompile on first contact
            assert br.result.memory == run_ast(parse(SRC))
            assert br.result.backend == "packed"
            assert client.stats()["cache"]["engine"]["compiles"] == 0


def test_snapshot_interval_writes_without_drain(tmp_path):
    snap_dir = str(tmp_path / "snap")
    kw = _kwargs(snapshot_dir=snap_dir, snapshot_interval_s=0.05)

    with running_server(**kw) as (ep, _server):
        with ServiceClient(**ep) as client:
            assert client.submit(BatchJob(SRC, name="a")).ok
            manifest = os.path.join(snap_dir, SNAPSHOT_MANIFEST)
            deadline = time.monotonic() + 10.0
            while not os.path.exists(manifest):
                assert time.monotonic() < deadline, "no periodic snapshot"
                time.sleep(0.02)
            assert client.stats()["snapshot"]["writes"] >= 1
    # and the drain still writes a final one on top
    assert os.path.exists(os.path.join(snap_dir, SNAPSHOT_MANIFEST))


def test_corrupt_snapshot_is_a_cold_start_not_a_crash(tmp_path):
    snap_dir = tmp_path / "snap"
    snap_dir.mkdir()
    (snap_dir / SNAPSHOT_MANIFEST).write_text("{definitely not json")
    with running_server(**_kwargs(snapshot_dir=str(snap_dir))) as (ep, _s):
        with ServiceClient(**ep) as client:
            assert client.stats()["snapshot"]["restored"] == 0
            br = client.submit(BatchJob(SRC, name="cold"))
            assert br.ok  # cold start, but the server still serves


def test_older_format_snapshot_with_tier_state_is_a_cold_start(tmp_path):
    """A snapshot written by an older release — v3 cache format, with
    the retired adaptive-tiering state in its manifest — is ignored: the
    server comes up cold and compiles on first contact."""
    snap_dir = tmp_path / "snap"
    snap_dir.mkdir()
    key = "ab" * 32
    (snap_dir / "ab").mkdir()
    (snap_dir / "ab" / f"{key}.pkl").write_bytes(b"not a v4 entry")
    (snap_dir / SNAPSHOT_MANIFEST).write_text(json.dumps({
        "format": "repro-graph-cache-v3",
        "keys": [key],
        "state": {"tiers": {"v": 1, "graphs": {
            key: {"tier": "vectorized", "hits": 70, "hotness": 9.5},
        }}},
    }))
    with running_server(**_kwargs(snapshot_dir=str(snap_dir))) as (ep, _s):
        with ServiceClient(**ep) as client:
            assert client.stats()["snapshot"]["restored"] == 0
            br = client.submit(BatchJob(SRC, name="cold"))
            assert br.ok and not br.cache_hit
            assert br.result.memory == run_ast(parse(SRC))
