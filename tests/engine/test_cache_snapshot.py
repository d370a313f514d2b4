"""Snapshot/restore tests for the compiled-graph cache.

The snapshot is what makes a restarted (or ``kill -9``'d) server come up
warm: entry files in the disk tier's layout plus a manifest written
atomically last as the commit point.  These tests pin the crash
contract — an interrupted snapshot leaves the previous one loadable, a
corrupt or truncated snapshot, or one from an older cache format,
degrades to a cold start, never a crash.
"""

import dataclasses
import json
import os

import repro.engine.cache as cache_mod
from repro.engine import GraphCache
from repro.engine.cache import SNAPSHOT_MANIFEST, graph_key
from repro.machine.packed import PackedGraph
from repro.interp import run_ast
from repro.lang import parse
from repro.translate import CompileOptions, simulate

SRC_A = """
x := 0;
l: y := x + 1;
   x := x + 1;
   if x < 5 then goto l;
"""
SRC_B = "a := 2;\nb := a * 21;\n"


def _warm_cache():
    cache = GraphCache()
    cache.get_or_compile(SRC_A, schema="schema2_opt")
    cache.get_or_compile(SRC_B, schema="schema1")
    return cache


def test_snapshot_restore_round_trip(tmp_path):
    cache = _warm_cache()
    state = {"owner": {"v": 1, "graphs": {"k" * 64: {"hits": 9,
                                                     "weight": 4.5}}}}
    n = cache.snapshot(tmp_path, state=state)
    assert n == 2
    manifest = json.loads((tmp_path / SNAPSHOT_MANIFEST).read_text())
    assert len(manifest["keys"]) == 2

    fresh = GraphCache()
    loaded, got_state = fresh.restore(tmp_path)
    assert loaded == 2
    assert got_state == state
    # restored entries are memory hits and run-ready (packed blob baked)
    cp, hit = fresh.lookup(SRC_A, schema="schema2_opt")
    assert hit
    assert cp.packed is not None
    assert simulate(cp).memory == run_ast(parse(SRC_A))


def test_snapshot_without_state_restores_empty_state(tmp_path):
    cache = _warm_cache()
    cache.snapshot(tmp_path)
    _, state = GraphCache().restore(tmp_path)
    assert state == {}


def test_restore_missing_or_corrupt_manifest_is_cold_start(tmp_path):
    assert GraphCache().restore(tmp_path / "nowhere") == (0, {})
    (tmp_path / SNAPSHOT_MANIFEST).write_text("{not json")
    assert GraphCache().restore(tmp_path) == (0, {})
    (tmp_path / SNAPSHOT_MANIFEST).write_text('["a", "list"]')
    assert GraphCache().restore(tmp_path) == (0, {})


def test_restore_wrong_format_is_cold_start(tmp_path):
    cache = _warm_cache()
    cache.snapshot(tmp_path)
    path = tmp_path / SNAPSHOT_MANIFEST
    manifest = json.loads(path.read_text())
    manifest["format"] = "v0-from-the-future"
    path.write_text(json.dumps(manifest))
    assert GraphCache().restore(tmp_path) == (0, {})


def test_restore_skips_truncated_entry_loads_the_rest(tmp_path):
    cache = _warm_cache()
    cache.snapshot(tmp_path)
    key = graph_key(SRC_A, CompileOptions(schema="schema2_opt"))
    entry = tmp_path / key[:2] / f"{key}.pkl"
    entry.write_bytes(entry.read_bytes()[:20])

    fresh = GraphCache()
    loaded, _ = fresh.restore(tmp_path)
    assert loaded == 1  # the good entry
    _, hit = fresh.lookup(SRC_B, schema="schema1")
    assert hit
    _, hit = fresh.lookup(SRC_A, schema="schema2_opt")
    assert not hit  # truncated entry was skipped, not crashed on


def test_restore_tolerates_bogus_manifest_keys(tmp_path):
    cache = _warm_cache()
    cache.snapshot(tmp_path)
    path = tmp_path / SNAPSHOT_MANIFEST
    manifest = json.loads(path.read_text())
    manifest["keys"] += ["", 42, "f" * 64]  # empty, non-str, missing file
    path.write_text(json.dumps(manifest))
    loaded, _ = GraphCache().restore(tmp_path)
    assert loaded == 2


def test_interrupted_snapshot_keeps_previous_manifest(tmp_path, monkeypatch):
    """A crash mid-snapshot — simulated by the manifest rename failing —
    must leave the previous snapshot fully loadable: entry files are
    content-addressed and never deleted, and the manifest is only
    replaced atomically at the very end."""
    cache = GraphCache()
    cache.get_or_compile(SRC_A, schema="schema2_opt")
    assert cache.snapshot(tmp_path, state={"gen": 1}) == 1
    before = (tmp_path / SNAPSHOT_MANIFEST).read_bytes()

    cache.get_or_compile(SRC_B, schema="schema1")
    real_replace = os.replace

    def failing_replace(src, dst, *a, **kw):
        if os.path.basename(str(dst)) == SNAPSHOT_MANIFEST:
            raise OSError("disk full at the commit point")
        return real_replace(src, dst, *a, **kw)

    monkeypatch.setattr(os, "replace", failing_replace)
    assert cache.snapshot(tmp_path, state={"gen": 2}) == 0
    monkeypatch.undo()

    # previous manifest untouched, previous snapshot loads
    assert (tmp_path / SNAPSHOT_MANIFEST).read_bytes() == before
    loaded, state = GraphCache().restore(tmp_path)
    assert loaded == 1
    assert state == {"gen": 1}
    # no half-written manifest temp files left behind
    assert not list(tmp_path.glob(f"{SNAPSHOT_MANIFEST}*.tmp"))

    # the next attempt commits generation 2
    assert cache.snapshot(tmp_path, state={"gen": 2}) == 2
    loaded, state = GraphCache().restore(tmp_path)
    assert loaded == 2
    assert state == {"gen": 2}


def test_snapshot_skips_existing_entry_files(tmp_path):
    """Entries are content-addressed and immutable: a second snapshot
    re-lists existing files without rewriting them."""
    cache = _warm_cache()
    cache.snapshot(tmp_path)
    key = graph_key(SRC_A, CompileOptions(schema="schema2_opt"))
    entry = tmp_path / key[:2] / f"{key}.pkl"
    mtime = entry.stat().st_mtime_ns
    assert cache.snapshot(tmp_path) == 2
    assert entry.stat().st_mtime_ns == mtime


def test_snapshot_dir_doubles_as_disk_cache_layout(tmp_path):
    """The snapshot uses the disk tier's entry layout, so a snapshot
    directory is a valid ``cache_dir``: disk lookups hit the snapshotted
    entries."""
    cache = _warm_cache()
    cache.snapshot(tmp_path)
    disk = GraphCache(cache_dir=tmp_path)
    _, hit = disk.lookup(SRC_A, schema="schema2_opt")
    assert hit
    assert disk.stats.disk_hits == 1


# -- entries from an older cache format ---------------------------------------

V3 = "repro-graph-cache-v3"


def _as_v3_layout(cp):
    """Rewrite ``cp``'s lowering into the v3 pickled layout: CSR fan-out
    arrays (``arc_index``/``port_ptr``/``arc_dst``/``arc_port``) where v4
    stores per-port tuples."""
    pg = cp.ensure_packed()
    arc_index, port_ptr, arc_dst, arc_port = [], [], [], []
    for ports in pg.outs:
        arc_index.append(len(port_ptr))
        for arcs in ports:
            port_ptr.append(len(arc_dst))
            for d, dp in arcs:
                arc_dst.append(d)
                arc_port.append(dp)
    port_ptr.append(len(arc_dst))
    state = {f.name: getattr(pg, f.name)
             for f in dataclasses.fields(pg) if f.name != "outs"}
    state.update(arc_index=tuple(arc_index), port_ptr=tuple(port_ptr),
                 arc_dst=tuple(arc_dst), arc_port=tuple(arc_port))
    old = object.__new__(PackedGraph)
    old.__dict__.update(state)
    cp.packed = old
    cp._payload = cp._payload_blob = None
    return cp


def _v3_cache(monkeypatch, cache_dir=None):
    """A cache whose entries are keyed and laid out as v3 wrote them."""
    monkeypatch.setattr(cache_mod, "CACHE_FORMAT", V3)
    cache = GraphCache(cache_dir=cache_dir)
    for src, schema in ((SRC_A, "schema2_opt"), (SRC_B, "schema1")):
        cp, _ = cache.lookup(src, schema=schema)
        _as_v3_layout(cp)
        if cache_dir is not None:
            key = graph_key(src, CompileOptions(schema=schema))
            assert GraphCache._write_entry(cache._disk_path(key), cp)
    return cache


def test_v3_cache_dir_is_a_cold_start(tmp_path, monkeypatch):
    _v3_cache(monkeypatch, cache_dir=tmp_path)
    monkeypatch.undo()
    assert len(list(tmp_path.rglob("*.pkl"))) == 2

    disk = GraphCache(cache_dir=tmp_path)
    cp, hit = disk.lookup(SRC_A, schema="schema2_opt")
    assert not hit and disk.stats.misses == 1  # compiled, not unpickled
    assert simulate(cp).memory == run_ast(parse(SRC_A))


def test_v3_snapshot_with_tier_state_is_a_cold_start(tmp_path, monkeypatch):
    """A v3 snapshot — whose manifest still carries the retired tiering
    controller's state — restores nothing and raises nothing; lookups
    then compile."""
    cache = _v3_cache(monkeypatch)
    tiers = {"tiers": {"v": 1, "graphs": {"k" * 64: {
        "tier": "vectorized", "hits": 70, "hotness": 9.5}}}}
    assert cache.snapshot(tmp_path, state=tiers) == 2
    monkeypatch.undo()
    manifest = json.loads((tmp_path / SNAPSHOT_MANIFEST).read_text())
    assert manifest["format"] == V3 and "tiers" in manifest["state"]

    fresh = GraphCache()
    assert fresh.restore(tmp_path) == (0, {})
    assert len(fresh) == 0
    cp, hit = fresh.lookup(SRC_A, schema="schema2_opt")
    assert not hit and fresh.stats.misses == 1
    assert simulate(cp).memory == run_ast(parse(SRC_A))


def test_v4_snapshot_restores_warm(tmp_path):
    assert cache_mod.CACHE_FORMAT == "repro-graph-cache-v4"
    _warm_cache().snapshot(tmp_path)
    fresh = GraphCache()
    assert fresh.restore(tmp_path) == (2, {})
    cp, hit = fresh.lookup(SRC_B, schema="schema1")
    assert hit and fresh.stats.misses == 0
    assert simulate(cp).memory == run_ast(parse(SRC_B))
