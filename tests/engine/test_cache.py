"""Tests for the content-addressed compiled-graph cache."""

import pickle
import threading
import time

import pytest

from repro.dfg.stats import graph_stats
from repro.engine import GraphCache, graph_key
from repro.interp import run_ast
from repro.lang import parse
from repro.translate import CompileOptions, compile_program, simulate

SRC = """
x := 0;
l: y := x + 1;
   x := x + 1;
   if x < 5 then goto l;
"""


def test_key_is_stable_and_content_addressed():
    o = CompileOptions(schema="schema2_opt")
    assert graph_key(SRC, o) == graph_key(SRC, o)
    assert graph_key(SRC, o) != graph_key(SRC + " ", o)
    assert graph_key(SRC, o) != graph_key(SRC, CompileOptions(schema="schema1"))
    # every option knob participates in the key
    assert graph_key(SRC, o) != graph_key(
        SRC, CompileOptions(schema="schema2_opt", parallel_reads=True)
    )


def test_fingerprint_covers_every_field():
    import dataclasses

    fp = CompileOptions().fingerprint()
    for f in dataclasses.fields(CompileOptions):
        assert f.name in fp


def test_memory_hit_returns_same_object():
    cache = GraphCache()
    cp1, hit1 = cache.lookup(SRC, schema="schema1")
    cp2, hit2 = cache.lookup(SRC, schema="schema1")
    assert not hit1 and hit2
    assert cp1 is cp2
    assert cache.stats.hits == 1 and cache.stats.misses == 1


def test_cached_graph_is_reusable_across_simulations():
    """Simulating must not mutate the cached CompiledProgram: repeated
    runs from one cache entry stay identical to a fresh compile."""
    cache = GraphCache()
    cp = cache.get_or_compile(SRC, schema="schema2_opt")
    a = simulate(cp)
    b = simulate(cp)
    fresh = simulate(compile_program(SRC, schema="schema2_opt"))
    assert a.memory == b.memory == fresh.memory
    assert a.metrics.cycles == b.metrics.cycles == fresh.metrics.cycles
    assert a.metrics.operations == b.metrics.operations == fresh.metrics.operations


def test_lru_eviction():
    cache = GraphCache(capacity=2)
    cache.get_or_compile(SRC, schema="schema1")
    cache.get_or_compile(SRC, schema="schema2")
    cache.get_or_compile(SRC, schema="schema1")  # refresh schema1
    cache.get_or_compile(SRC, schema="schema3")  # evicts schema2
    assert len(cache) == 2
    assert cache.stats.evictions == 1
    _, hit = cache.lookup(SRC, schema="schema1")
    assert hit
    _, hit = cache.lookup(SRC, schema="schema2")
    assert not hit  # was evicted


def test_disk_store_round_trip(tmp_path):
    c1 = GraphCache(cache_dir=tmp_path)
    cp1, hit = c1.lookup(SRC, schema="memory_elim")
    assert not hit and c1.stats.disk_writes == 1
    # a different cache instance (fresh memory tier) hits the disk tier
    c2 = GraphCache(cache_dir=tmp_path)
    cp2, hit = c2.lookup(SRC, schema="memory_elim")
    assert hit and c2.stats.disk_hits == 1
    s1, s2 = graph_stats(cp1.graph), graph_stats(cp2.graph)
    assert s1 == s2
    assert simulate(cp1).memory == simulate(cp2).memory == run_ast(parse(SRC))


def test_corrupt_disk_entry_is_a_miss(tmp_path):
    c1 = GraphCache(cache_dir=tmp_path)
    c1.get_or_compile(SRC, schema="schema1")
    key = graph_key(SRC, CompileOptions(schema="schema1"))
    path = tmp_path / key[:2] / f"{key}.pkl"
    assert path.exists()
    path.write_bytes(b"not a pickle")
    c2 = GraphCache(cache_dir=tmp_path)
    cp, hit = c2.lookup(SRC, schema="schema1")
    assert not hit  # corrupt entry ignored and recompiled
    assert pickle.loads(path.read_bytes())  # and overwritten with a good one
    assert simulate(cp).memory == run_ast(parse(SRC))


def test_truncated_disk_entry_is_unlinked_then_rewritten(tmp_path):
    """A partially-written pickle (e.g. a crash mid-copy) must read as a
    miss, be unlinked, and be replaced by the recompile's fresh write."""
    c1 = GraphCache(cache_dir=tmp_path)
    c1.get_or_compile(SRC, schema="schema2_opt")
    key = graph_key(SRC, CompileOptions(schema="schema2_opt"))
    path = tmp_path / key[:2] / f"{key}.pkl"
    good = path.read_bytes()
    path.write_bytes(good[: len(good) // 2])  # truncate

    c2 = GraphCache(cache_dir=tmp_path)
    # the raw read drops the bad file entirely (no exception, no entry)
    assert c2._disk_read(key) is None
    assert not path.exists()
    # ... and a full lookup recompiles and restores a loadable entry
    cp, hit = c2.lookup(SRC, schema="schema2_opt")
    assert not hit
    assert pickle.loads(path.read_bytes())
    assert simulate(cp).memory == run_ast(parse(SRC))


def test_wrong_type_disk_entry_is_unlinked(tmp_path):
    c = GraphCache(cache_dir=tmp_path)
    key = graph_key(SRC, CompileOptions(schema="schema1"))
    path = tmp_path / key[:2] / f"{key}.pkl"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(pickle.dumps({"not": "a CompiledProgram"}))
    assert c._disk_read(key) is None
    assert not path.exists()


def test_clear_disk(tmp_path):
    c = GraphCache(cache_dir=tmp_path)
    c.get_or_compile(SRC, schema="schema1")
    c.clear(disk=True)
    assert len(c) == 0
    c2 = GraphCache(cache_dir=tmp_path)
    _, hit = c2.lookup(SRC, schema="schema1")
    assert not hit


def test_clear_disk_sweeps_orphaned_tmp_files(tmp_path):
    """An interrupted atomic write leaves a ``*.tmp`` alongside the
    entries; ``clear(disk=True)`` must sweep those orphans too."""
    c = GraphCache(cache_dir=tmp_path)
    c.get_or_compile(SRC, schema="schema1")
    key = graph_key(SRC, CompileOptions(schema="schema1"))
    orphan = tmp_path / key[:2] / f"{key}.pklstale123.tmp"
    orphan.write_bytes(b"half-written entry")
    c.clear(disk=True)
    leftovers = [p for p in tmp_path.rglob("*") if p.is_file()]
    assert leftovers == []  # no pickles, no tmp orphans


def test_single_flight_coalesces_concurrent_misses(monkeypatch):
    """8 threads missing on the same key must trigger exactly one
    compile — the others wait for the leader and take memory hits."""
    from repro.engine import cache as cache_mod

    real_compile = cache_mod.compile_program
    calls = []
    call_lock = threading.Lock()

    def slow_compile(source, options=None, **kwargs):
        with call_lock:
            calls.append(threading.get_ident())
        time.sleep(0.05)  # hold the miss window open for every thread
        return real_compile(source, options=options, **kwargs)

    monkeypatch.setattr(cache_mod, "compile_program", slow_compile)
    cache = GraphCache()
    barrier = threading.Barrier(8)
    results = []
    errors = []

    def work():
        try:
            barrier.wait()
            results.append(cache.lookup(SRC, schema="schema2_opt"))
        except BaseException as exc:  # pragma: no cover - debug aid
            errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(calls) == 1, f"expected one compile, got {len(calls)}"
    assert cache.stats.misses == 1 and cache.stats.hits == 7
    assert cache.stats.lookups == 8
    compiled = {id(cp) for cp, _ in results}
    assert len(compiled) == 1  # everyone got the leader's object


def test_single_flight_leader_failure_releases_waiters(monkeypatch):
    """If the leading compile raises, waiters must not hang — one of
    them retries (and the retry can succeed)."""
    from repro.engine import cache as cache_mod

    real_compile = cache_mod.compile_program
    attempts = []
    lock = threading.Lock()

    def flaky_compile(source, options=None, **kwargs):
        with lock:
            attempts.append(None)
            first = len(attempts) == 1
        time.sleep(0.02)
        if first:
            raise RuntimeError("transient leader failure")
        return real_compile(source, options=options, **kwargs)

    monkeypatch.setattr(cache_mod, "compile_program", flaky_compile)
    cache = GraphCache()
    barrier = threading.Barrier(3)
    outcomes = []

    def work():
        barrier.wait()
        try:
            outcomes.append(cache.lookup(SRC, schema="schema1"))
        except RuntimeError:
            outcomes.append(None)

    threads = [threading.Thread(target=work) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads), "waiter hung"
    good = [o for o in outcomes if o is not None]
    assert good, "no lookup recovered after the leader failed"
    assert all(cp.graph is good[0][0].graph for cp, _ in good)


def test_options_and_kwargs_are_exclusive():
    cache = GraphCache()
    with pytest.raises(TypeError):
        cache.lookup(SRC, CompileOptions(), schema="schema1")
    with pytest.raises(TypeError):
        compile_program(SRC, options=CompileOptions(), parallel_reads=True)


def test_compile_program_options_object_matches_kwargs():
    a = compile_program(SRC, options=CompileOptions(schema="schema1"))
    b = compile_program(SRC, schema="schema1")
    assert graph_stats(a.graph) == graph_stats(b.graph)


@pytest.mark.parametrize("disk", [False, True], ids=["memory", "disk"])
def test_lookup_returns_the_slim_stored_entry(tmp_path, disk):
    """Every entry is stored without the CFG, the pass context and the
    CFG-optimization report, on a miss and on a hit; a disk-bound entry
    is lowered before it is written."""
    opts = CompileOptions(schema="schema2_opt", optimize=True)
    fresh = compile_program(SRC, options=opts)
    assert fresh.cfg is not None and fresh.pass_ctx is not None
    assert fresh.opt_report is not None

    cache = GraphCache(cache_dir=tmp_path if disk else None)
    cp, hit = cache.lookup(SRC, opts)
    assert not hit
    assert (cp.cfg, cp.pass_ctx, cp.opt_report) == (None, None, None)
    assert (cp.executable is not None) == disk
    again, hit = cache.lookup(SRC, opts)
    assert hit and again is cp
    assert cache.lookup(SRC, opts)[0] is cp
    assert simulate(cp).memory == run_ast(parse(SRC))

    if disk:
        other = GraphCache(cache_dir=tmp_path)
        read, hit = other.lookup(SRC, opts)
        assert hit and other.stats.disk_hits == 1
        assert (read.cfg, read.pass_ctx, read.opt_report) == (None, None, None)
        assert read.executable is not None
        assert other.lookup(SRC, opts)[0] is read
