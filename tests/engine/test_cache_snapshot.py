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
    n = cache.snapshot(tmp_path)
    assert n == 2
    manifest = json.loads((tmp_path / SNAPSHOT_MANIFEST).read_text())
    assert len(manifest["keys"]) == 2

    fresh = GraphCache()
    assert fresh.restore(tmp_path) == 2
    # restored entries are memory hits and run-ready (lowering baked in)
    cp, hit = fresh.lookup(SRC_A, schema="schema2_opt")
    assert hit
    assert cp.executable is not None
    assert simulate(cp).memory == run_ast(parse(SRC_A))


def test_snapshot_without_state_restores_empty_state(tmp_path):
    """The manifest holds the cache format and the entry keys, nothing
    else, and a restore hands back only the entry count."""
    cache = _warm_cache()
    cache.snapshot(tmp_path)
    manifest = json.loads((tmp_path / SNAPSHOT_MANIFEST).read_text())
    assert sorted(manifest) == ["format", "keys"]
    assert GraphCache().restore(tmp_path) == 2


def test_restore_missing_or_corrupt_manifest_is_cold_start(tmp_path):
    assert GraphCache().restore(tmp_path / "nowhere") == 0
    (tmp_path / SNAPSHOT_MANIFEST).write_text("{not json")
    assert GraphCache().restore(tmp_path) == 0
    (tmp_path / SNAPSHOT_MANIFEST).write_text('["a", "list"]')
    assert GraphCache().restore(tmp_path) == 0


def test_restore_wrong_format_is_cold_start(tmp_path):
    cache = _warm_cache()
    cache.snapshot(tmp_path)
    path = tmp_path / SNAPSHOT_MANIFEST
    manifest = json.loads(path.read_text())
    manifest["format"] = "v0-from-the-future"
    path.write_text(json.dumps(manifest))
    assert GraphCache().restore(tmp_path) == 0


def test_restore_skips_truncated_entry_loads_the_rest(tmp_path):
    cache = _warm_cache()
    cache.snapshot(tmp_path)
    key = graph_key(SRC_A, CompileOptions(schema="schema2_opt"))
    entry = tmp_path / key[:2] / f"{key}.pkl"
    entry.write_bytes(entry.read_bytes()[:20])

    fresh = GraphCache()
    assert fresh.restore(tmp_path) == 1  # the good entry
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
    assert GraphCache().restore(tmp_path) == 2


def test_interrupted_snapshot_keeps_previous_manifest(tmp_path, monkeypatch):
    """A crash mid-snapshot — simulated by the manifest rename failing —
    must leave the previous snapshot fully loadable: entry files are
    content-addressed and never deleted, and the manifest is only
    replaced atomically at the very end."""
    cache = GraphCache()
    cache.get_or_compile(SRC_A, schema="schema2_opt")
    assert cache.snapshot(tmp_path) == 1
    before = (tmp_path / SNAPSHOT_MANIFEST).read_bytes()

    cache.get_or_compile(SRC_B, schema="schema1")
    real_replace = os.replace

    def failing_replace(src, dst, *a, **kw):
        if os.path.basename(str(dst)) == SNAPSHOT_MANIFEST:
            raise OSError("disk full at the commit point")
        return real_replace(src, dst, *a, **kw)

    monkeypatch.setattr(os, "replace", failing_replace)
    assert cache.snapshot(tmp_path) == 0
    monkeypatch.undo()

    # previous manifest untouched, previous snapshot loads
    assert (tmp_path / SNAPSHOT_MANIFEST).read_bytes() == before
    assert GraphCache().restore(tmp_path) == 1
    # no half-written manifest temp files left behind
    assert not list(tmp_path.glob(f"{SNAPSHOT_MANIFEST}*.tmp"))

    # the next attempt commits the second generation
    assert cache.snapshot(tmp_path) == 2
    assert GraphCache().restore(tmp_path) == 2


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
V4 = "repro-graph-cache-v4"
V5 = "repro-graph-cache-v5"


def _as_old_layout(cp, fmt):
    """Rewrite ``cp`` in place into the pickled layout ``fmt`` wrote.
    v5's executable memo holds a lowering with a per-node ``describe``
    tuple where v6's holds ``loop_ids``.  v3 and v4 wrote a bare
    ``packed`` lowering next to the ``_payload``/``_payload_blob``
    memos, with no memory spec or executable; v3's lowering holds CSR
    fan-out arrays (``arc_index``/``port_ptr``/``arc_dst``/``arc_port``)
    where v4's holds per-port tuples."""
    pg = cp.ensure_packed().graph
    if fmt == V5:
        state = {f.name: getattr(pg, f.name)
                 for f in dataclasses.fields(pg) if f.name != "loop_ids"}
        state["describe"] = tuple(pg.describe(i) for i in range(pg.n))
        old = object.__new__(PackedGraph)
        old.__dict__.update(state)
        cp.__dict__["executable"] = dataclasses.replace(
            cp.executable, graph=old
        )
        return cp
    if fmt == V3:
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
        pg = object.__new__(PackedGraph)
        pg.__dict__.update(state)
    del cp.__dict__["executable"], cp.__dict__["memory_spec"]
    cp.__dict__.update(packed=pg, _payload=None, _payload_blob=None)
    return cp


def _old_cache(monkeypatch, fmt, cache_dir=None):
    """A cache whose entries are keyed and laid out as ``fmt`` wrote
    them."""
    monkeypatch.setattr(cache_mod, "CACHE_FORMAT", fmt)
    cache = GraphCache(cache_dir=cache_dir)
    for src, schema in ((SRC_A, "schema2_opt"), (SRC_B, "schema1")):
        cp, _ = cache.lookup(src, schema=schema)
        _as_old_layout(cp, fmt)
        if cache_dir is not None:
            key = graph_key(src, CompileOptions(schema=schema))
            assert GraphCache._write_entry(cache._disk_path(key), cp)
    return cache


def _assert_old_cache_dir_is_cold(tmp_path, monkeypatch, fmt):
    _old_cache(monkeypatch, fmt, cache_dir=tmp_path)
    monkeypatch.undo()
    assert len(list(tmp_path.rglob("*.pkl"))) == 2

    disk = GraphCache(cache_dir=tmp_path)
    cp, hit = disk.lookup(SRC_A, schema="schema2_opt")
    assert not hit and disk.stats.misses == 1  # compiled, not unpickled
    assert simulate(cp).memory == run_ast(parse(SRC_A))


def _assert_old_snapshot_is_cold(tmp_path, monkeypatch, fmt, state=None):
    """An older-format snapshot, its manifest carrying ``state`` (if
    given) as that format's manifests did, restores nothing and raises
    nothing; lookups then compile."""
    cache = _old_cache(monkeypatch, fmt)
    assert cache.snapshot(tmp_path) == 2
    monkeypatch.undo()
    path = tmp_path / SNAPSHOT_MANIFEST
    manifest = json.loads(path.read_text())
    assert manifest["format"] == fmt
    if state is not None:
        manifest["state"] = state
        path.write_text(json.dumps(manifest))

    fresh = GraphCache()
    assert fresh.restore(tmp_path) == 0
    assert len(fresh) == 0
    cp, hit = fresh.lookup(SRC_A, schema="schema2_opt")
    assert not hit and fresh.stats.misses == 1
    assert simulate(cp).memory == run_ast(parse(SRC_A))


def test_v3_cache_dir_is_a_cold_start(tmp_path, monkeypatch):
    _assert_old_cache_dir_is_cold(tmp_path, monkeypatch, V3)


def test_v3_snapshot_with_tier_state_is_a_cold_start(tmp_path, monkeypatch):
    """A v3 manifest still carries the retired tiering controller's
    state."""
    tiers = {"tiers": {"v": 1, "graphs": {"k" * 64: {
        "tier": "vectorized", "hits": 70, "hotness": 9.5}}}}
    _assert_old_snapshot_is_cold(tmp_path, monkeypatch, V3, tiers)


def test_v4_cache_dir_is_a_cold_start(tmp_path, monkeypatch):
    _assert_old_cache_dir_is_cold(tmp_path, monkeypatch, V4)


def test_v4_snapshot_is_a_cold_start(tmp_path, monkeypatch):
    """A v4 manifest carries an empty ``state`` next to its keys."""
    _assert_old_snapshot_is_cold(tmp_path, monkeypatch, V4, {})


def test_v5_cache_dir_is_a_cold_start(tmp_path, monkeypatch):
    _assert_old_cache_dir_is_cold(tmp_path, monkeypatch, V5)


def test_v5_snapshot_is_a_cold_start(tmp_path, monkeypatch):
    """A v5 manifest holds its format and keys only, as v6's does."""
    _assert_old_snapshot_is_cold(tmp_path, monkeypatch, V5)


def test_v6_snapshot_restores_warm(tmp_path):
    assert cache_mod.CACHE_FORMAT == "repro-graph-cache-v6"
    _warm_cache().snapshot(tmp_path)
    fresh = GraphCache()
    assert fresh.restore(tmp_path) == 2
    cp, hit = fresh.lookup(SRC_B, schema="schema1")
    assert hit and fresh.stats.misses == 0
    assert simulate(cp).memory == run_ast(parse(SRC_B))
