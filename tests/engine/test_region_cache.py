"""Region memoization through the graph cache: incremental
invalidation, the count-bounded LRU, the peek/insert surface, and the
pooled cold-region fan-out."""

import dataclasses

from repro.dfg.stats import graph_stats
from repro.engine import GraphCache, make_pool
from repro.lang import parse
from repro.lang.ast_nodes import IntLit
from repro.lang.pretty import pretty
from repro.translate import CompileOptions, compile_program
from repro.translate.regions import _region_options, plan_regions
from repro.validate.progen import GenKnobs, generate

SRC = """
x := 0;
l: y := x + 1;
   x := x + 1;
   if x < 5 then goto l;
"""


def _opts(**kw):
    kw.setdefault("schema", "schema2_opt")
    kw.setdefault("region_compile", "on")
    kw.setdefault("region_target_stmts", 4)
    return CompileOptions(**kw)


def _normalized_giant(seed=0, n_stmts=60):
    """A progen program re-rendered by ``pretty`` with an explicit
    ``var`` line, so textual edits below reproduce exactly what the
    region planner slices and cannot reorder interface headers (an
    undeclared program's variable order is body-first-appearance, which
    an expression edit can shift — see ``Program.with_declared_variables``)."""
    gp = generate(seed, GenKnobs.giant(n_stmts=n_stmts))
    return pretty(parse(gp.source).with_declared_variables())


# --------------------------------------------------------------------------
# memoization


def test_whole_program_and_regions_both_cached():
    cache = GraphCache()
    src = _normalized_giant()
    opts = _opts()
    cp, hit = cache.lookup(src, opts)
    assert not hit
    n_regions = cp.pass_log[0].metrics["regions"]
    assert n_regions >= 2
    # one entry per region + the stitched whole-program entry
    assert len(cache) == n_regions + 1
    # the second lookup is a single whole-key memory hit
    before = cache.stats.hits
    cp2, hit2 = cache.lookup(src, opts)
    assert hit2 and cp2 is cp
    assert cache.stats.hits == before + 1


def test_incremental_edit_recompiles_one_region():
    """A 1-line edit must hit every untouched region's cache entry and
    recompile exactly the region whose slice contains the edit."""
    cache = GraphCache()
    src = _normalized_giant()
    opts = _opts()
    cp, _ = cache.lookup(src, opts)
    n_regions = cp.pass_log[0].metrics["regions"]
    assert cp.pass_log[0].metrics["region_cache_hits"] == 0

    prog = parse(src)
    plan = plan_regions(prog, opts)
    assert plan is not None and len(plan.spans) == n_regions

    # edit one top-level statement per region: rewrite an unlabelled
    # assignment's expression to a constant (keeps variables/labels, so
    # the header — the interface signature — is unchanged)
    editable = [
        (lo, hi, i)
        for lo, hi in plan.spans
        for i in range(lo, hi)
        if prog.body[i].label is None
        and getattr(prog.body[i], "expr", None) is not None
    ]
    # one edit site per region, at most 4 regions
    seen_spans = set()
    sites = []
    for lo, hi, i in editable:
        if (lo, hi) not in seen_spans:
            seen_spans.add((lo, hi))
            sites.append((lo, hi, i))
    assert len(sites) >= 2
    for lo, hi, idx in sites[:4]:
        prog.body[idx] = dataclasses.replace(
            prog.body[idx], expr=IntLit(value=idx + 40)
        )
        edited = pretty(prog)
        plan2 = plan_regions(parse(edited), opts)
        assert plan2 is not None
        assert plan2.spans == plan.spans  # the partition is stable
        # exactly one region source changed, the one holding stmt idx
        changed = [
            j for j, (a, b) in enumerate(zip(plan.sources, plan2.sources))
            if a != b
        ]
        assert changed == [next(
            j for j, (a, b) in enumerate(plan.spans) if a <= idx < b
        )]

        ecp, hit = cache.lookup(edited, opts)
        assert not hit  # the whole-program key is new
        assert ecp.pass_log[0].metrics["region_cache_hits"] == n_regions - 1
        fresh = compile_program(edited, options=_opts(region_compile="off"))
        assert graph_stats(ecp.graph) == graph_stats(fresh.graph)
        plan = plan2  # subsequent edits stack on the edited program


def test_declared_header_order_survives_first_reference_edits():
    """Rewriting the statement holding a variable's *first* reference
    must not reorder region interface headers.  Headers follow
    ``Program.variables()`` order (bit-identity with the monolithic
    compile demands it); on an undeclared program that order is
    body-first-appearance, so such an edit would shift it and
    conservatively invalidate every region key.  The explicit ``var``
    line pins the order, keeping the invalidation region-local."""
    opts = _opts()
    src = _normalized_giant(n_stmts=200)
    prog = parse(src)
    assert prog.scalars  # the normalization declared everything
    plan = plan_regions(parse(src), opts)

    # stmt 0 references several variables for the first time; collapse
    # its expression to a constant
    assert prog.body[0].label is None
    prog.body[0] = dataclasses.replace(prog.body[0], expr=IntLit(value=7))
    plan2 = plan_regions(parse(pretty(prog)), opts)
    assert plan2.spans == plan.spans
    changed = [
        i for i, (a, b) in enumerate(zip(plan.sources, plan2.sources))
        if a != b
    ]
    assert changed == [0]

    # the undeclared rendering of the same program is order-fragile:
    # the same edit reorders headers of untouched regions
    bare = dataclasses.replace(parse(src), scalars=[])
    bplan = plan_regions(parse(pretty(bare)), opts)
    bare.body[0] = dataclasses.replace(bare.body[0], expr=IntLit(value=7))
    bplan2 = plan_regions(parse(pretty(bare)), opts)
    bchanged = [
        i for i, (a, b) in enumerate(zip(bplan.sources, bplan2.sources))
        if a != b
    ]
    assert len(bchanged) > 1


def test_region_entries_shared_across_schemas_only_by_key():
    """Region entries are keyed on the full options fingerprint: a
    different schema shares nothing."""
    cache = GraphCache()
    src = _normalized_giant()
    cache.lookup(src, _opts(schema="schema2_opt"))
    entries = len(cache)
    cp, _ = cache.lookup(src, _opts(schema="schema1"))
    assert cp.pass_log[0].metrics["region_cache_hits"] == 0
    # every region (and the whole program) recompiled under its own key
    assert len(cache) > entries


def test_pooled_fanout_matches_serial(monkeypatch):
    # force the fan-out even on single-core hosts (where the cost gate
    # would otherwise keep region compiles serial)
    from repro.translate import regions

    monkeypatch.setattr(regions, "POOL_MIN_CORES", 1)
    cache_pooled = GraphCache()
    pool = make_pool(2)
    try:
        cache_pooled.region_pool = pool
        src = _normalized_giant(seed=1, n_stmts=40)
        cp_pooled, _ = cache_pooled.lookup(src, _opts())
        cp_serial, _ = GraphCache().lookup(src, _opts())
        assert cp_pooled.pass_log[0].metrics["regions"] >= 2
        assert graph_stats(cp_pooled.graph) == graph_stats(cp_serial.graph)
    finally:
        pool.terminate()
        pool.join()


def test_disk_tier_warms_a_fresh_cache(tmp_path):
    """A second cache over the same directory — a respawned worker —
    resolves both the whole program and every region from disk."""
    src = _normalized_giant()
    opts = _opts()
    c1 = GraphCache(cache_dir=tmp_path)
    cp1, _ = c1.lookup(src, opts)

    c2 = GraphCache(cache_dir=tmp_path)
    cp2, hit = c2.lookup(src, opts)
    assert hit
    assert c2.stats.disk_hits == 1 and c2.stats.misses == 0
    assert graph_stats(cp2.graph) == graph_stats(cp1.graph)

    # region entries are individually warm too
    ropts = _region_options(opts)
    plan = plan_regions(parse(src), opts)
    c3 = GraphCache(cache_dir=tmp_path)
    for rsrc in plan.sources:
        assert c3.peek(rsrc, ropts) is not None
    assert c3.stats.disk_hits == len(plan.sources)


# --------------------------------------------------------------------------
# peek / insert


def test_peek_never_compiles():
    cache = GraphCache()
    opts = CompileOptions(schema="schema1")
    assert cache.peek(SRC, opts) is None
    assert cache.stats.misses == 0 and cache.stats.hits == 0
    cp, _ = cache.lookup(SRC, opts)
    assert cache.peek(SRC, opts) is cp
    assert cache.stats.hits == 1


def test_insert_round_trip(tmp_path):
    cache = GraphCache(cache_dir=tmp_path)
    opts = CompileOptions(schema="schema1")
    cp = compile_program(SRC, options=opts)
    stored = cache.insert(SRC, opts, cp)
    assert stored.cfg is None and stored.graph is cp.graph  # slimmed
    assert cache.peek(SRC, opts) is stored
    # and the disk tier got it: a cold cache reads it back
    other = GraphCache(cache_dir=tmp_path)
    assert other.peek(SRC, opts) is not None
    assert other.stats.disk_hits == 1


# --------------------------------------------------------------------------
# LRU bound


def test_count_capacity_still_applies():
    cache = GraphCache(capacity=2)
    opts = CompileOptions(schema="schema1")
    cp = compile_program(SRC, options=opts)
    for name in ("a", "b", "c"):
        cache.insert(name, opts, cp)
    assert len(cache) == 2
    assert cache.peek("a", opts) is None
    assert cache.stats.evictions == 1
