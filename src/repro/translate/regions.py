"""Multiresolution region compiler: parallel, memoized, near-linear.

The monolithic pipeline recompiles the whole program on every edit and
its cost grows superlinearly with program size (switch placement and
source-vector propagation are quadratic in the worst case).  This module
compiles *regions* instead:

1. **Partition** the top-level statement list at *legal cuts* — points no
   label/goto reference crosses — grouped greedily to
   ``CompileOptions.region_target_stmts`` statements per region.  Because
   every backward or forward goto stays inside its region, control enters
   each region only by textual fall-through: regions are single-entry,
   single-exit, exactly the interval-style coarsening of the flow graph.
2. **Compile** each region independently through the ordinary
   :func:`~repro.translate.pipeline.compile_program` pipeline (so every
   schema, pass, and certificate applies per region unchanged).  Each
   region source carries a *header* declaring the names the region
   references — closed over alias groups, in the monolithic declaration
   order — which pins the region's stream interface to a by-name subset
   of the monolithic one.  (Schemas whose constructions wire *every*
   stream through every control construct — the all-paths schema 2/3
   builds, or schema 3 under the ``whole`` cover — instead redeclare
   the full program so the subgraphs stay bit-identical; see
   :func:`_reduced_header`.)  Keeping each region's header to its own
   working set is what makes total compile cost near-linear: a region's
   cost depends on its slice, not on the whole program's variable count.
3. **Stitch** the region subgraphs by splicing out each region's
   START/END and threading every stream's source vector from one
   region's producers into the next region's consumers, matched by
   stream *name*; streams a region never declares flow straight across
   it.  With single-source crossings this reproduces the monolithic
   graph node-for-node (the N-way oracle checks it).
4. **Memoize**: region compiles route through the content-addressed
   :class:`~repro.engine.cache.GraphCache` when one is supplied, keyed
   on (region source slice, options fingerprint) — the interface
   signature is the header, which is part of the region source.  An
   edit therefore recompiles only the region whose slice changed (plus
   the cheap stitch).  A worker pool fans cold region compiles out
   across processes.

Programs whose goto structure admits no cut (fully-goto, flat) fall
back to the monolithic pipeline; so do option sets that enable
whole-graph post passes (``optimize``, istructures, …), which are not
region-local.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace

from ..obs.trace import tracer

from ..lang.ast_nodes import (
    Assign,
    CondGoto,
    Goto,
    If,
    Program,
    Stmt,
    While,
    expr_vars,
)
from ..lang.parser import parse
from ..lang.pretty import pretty
from ..lang.subroutines import expand_subroutines
from ..analysis.alias import AliasStructure
from ..dfg.graph import DFGraph, Port
from ..dfg.nodes import OpKind, Seed
from .allpaths import Translation
from .passes import Certificate
from .streams import Stream, cover_streams, streams_for
from .verify import CertificateError

#: option knobs the region path cannot honor: they run global analyses or
#: whole-graph rewrites after translation, which are not region-local.
#: Engaging any of them silently falls back to the monolithic pipeline.
INCOMPATIBLE_KNOBS = (
    "optimize",
    "parallel_reads",
    "forward_stores",
    "parallelize_arrays",
    "use_istructures",
    "redundant_elim",
)


def region_eligible(options) -> bool:
    """True when the option set is compatible with region compilation
    (the partition itself may still collapse to a single region)."""
    if not options.insert_loops:
        return False
    return not any(getattr(options, k) for k in INCOMPATIBLE_KNOBS)


# --------------------------------------------------------------------------
# partitioning


def _labels(s: Stmt):
    """Yield every label defined anywhere within statement ``s``."""
    if s.label:
        yield s.label
    if isinstance(s, If):
        for t in s.then_body:
            yield from _labels(t)
        for t in s.else_body:
            yield from _labels(t)
    elif isinstance(s, While):
        for t in s.body:
            yield from _labels(t)


def _targets(s: Stmt):
    """Yield every goto target referenced anywhere within ``s``."""
    if isinstance(s, Goto):
        yield s.target
    elif isinstance(s, CondGoto):
        yield s.then_target
        if s.else_target is not None:
            yield s.else_target
    elif isinstance(s, If):
        for t in s.then_body:
            yield from _targets(t)
        for t in s.else_body:
            yield from _targets(t)
    elif isinstance(s, While):
        for t in s.body:
            yield from _targets(t)


def _weight(s: Stmt) -> int:
    """Statement count including nested bodies — the unit the region
    target budget is expressed in."""
    if isinstance(s, If):
        return 1 + sum(map(_weight, s.then_body)) + sum(map(_weight, s.else_body))
    if isinstance(s, While):
        return 1 + sum(map(_weight, s.body))
    return 1


def legal_cuts(body: list[Stmt]) -> list[int]:
    """Cut positions ``c`` (between statements ``c-1`` and ``c``) that no
    label/goto reference crosses.  A goto at top-level index ``q`` whose
    target label lives at top-level index ``p`` blocks every cut with
    ``min(p, q) < c <= max(p, q)``; unknown targets block everything
    (the compile error surfaces in the monolithic path)."""
    label_at: dict[str, int] = {}
    for i, s in enumerate(body):
        for lab in _labels(s):
            label_at[lab] = i
    blocked = [False] * (len(body) + 1)
    for q, s in enumerate(body):
        for tgt in _targets(s):
            p = label_at.get(tgt)
            if p is None:
                return []
            lo, hi = min(p, q), max(p, q)
            for c in range(lo + 1, hi + 1):
                blocked[c] = True
    return [c for c in range(1, len(body)) if not blocked[c]]


def partition_spans(
    body: list[Stmt], target_stmts: int
) -> list[tuple[int, int]]:
    """Greedy partition of ``body`` into half-open index spans, cutting at
    the first legal position once a region's statement weight reaches
    ``target_stmts``.  Always returns at least one span covering the
    whole body."""
    cuts = set(legal_cuts(body))
    spans: list[tuple[int, int]] = []
    start = 0
    acc = 0
    for i, s in enumerate(body):
        acc += _weight(s)
        nxt = i + 1
        if acc >= target_stmts and nxt < len(body) and nxt in cuts:
            spans.append((start, nxt))
            start = nxt
            acc = 0
    spans.append((start, len(body)))
    return spans


# --------------------------------------------------------------------------
# region sources


def region_header(prog: Program) -> str:
    """Full declaration header: *all* of the monolithic program's
    variables (in ``Program.variables()`` order — the parser accepts
    array names in ``var`` declarations), arrays, and alias groups.
    Used for the schemas that need the whole interface (see
    :func:`_reduced_header`).  The header *is* a region's interface
    signature: it is part of the region source text, so the
    content-addressed cache key covers it."""
    lines = []
    names = prog.variables()
    if names:
        lines.append(f"var {', '.join(names)};")
    if prog.arrays:
        decl = ", ".join(f"{n}[{sz}]" for n, sz in prog.arrays.items())
        lines.append(f"array {decl};")
    for group in prog.alias_groups:
        lines.append(f"alias ({', '.join(group)});")
    return "\n".join(lines) + ("\n" if lines else "")


def _reduced_header(options) -> bool:
    """True when region sources may declare only the names they touch.

    Safe exactly for the constructions that emit nodes (switches, loop
    controls, memory ops) only for streams a statement references —
    then a region's subgraph is independent of how many *other*
    variables the program has, and per-region compile cost stops
    scaling with whole-program size.  The all-paths schema 2/3 builds
    thread every declared stream through every control construct, and
    the ``whole`` cover fuses all variables into one stream whose name
    depends on the full variable set — those keep the full header."""
    if options.schema in ("schema1", "schema2_opt", "memory_elim"):
        return True
    return options.schema == "schema3_opt" and options.cover != "whole"


def _stmt_names(s: Stmt, out: set[str]) -> None:
    if isinstance(s, Assign):
        out.update(expr_vars(s.target))
        out.update(expr_vars(s.expr))
    elif isinstance(s, CondGoto):
        out.update(expr_vars(s.pred))
    elif isinstance(s, If):
        out.update(expr_vars(s.cond))
        for t in s.then_body:
            _stmt_names(t, out)
        for t in s.else_body:
            _stmt_names(t, out)
    elif isinstance(s, While):
        out.update(expr_vars(s.cond))
        for t in s.body:
            _stmt_names(t, out)


def _span_names(prog: Program, lo: int, hi: int) -> set[str]:
    """Names referenced by ``prog.body[lo:hi]``, closed over alias
    groups: declaring any member of a group drags in the whole group
    (transitively), so the region's alias classes — and therefore its
    stream set and memory-elimination decisions — match the monolithic
    program's for every declared name."""
    used: set[str] = set()
    for s in prog.body[lo:hi]:
        _stmt_names(s, used)
    groups = [set(g) for g in prog.alias_groups]
    changed = True
    while changed:
        changed = False
        for g in groups:
            if used & g and not g <= used:
                used |= g
                changed = True
    return used


def region_programs(
    prog: Program, spans: list[tuple[int, int]], options=None
) -> list[Program]:
    """Each span as a standalone sub-program: header declarations +
    statement slice.  With ``options`` asking for a reduced header, each
    region declares only its own working set; otherwise every region
    carries the full program interface.

    Header names keep the monolithic ``Program.variables()`` order —
    bit-identity demands it (stream construction order follows
    declaration order, so a region compiled under any other order
    stitches into a graph that diverges from the monolithic one under
    the cycle-level oracle).  The flip side: for programs with no
    explicit ``var`` line that order is body-first-appearance, so an
    edit that moves a variable's first reference reorders every header
    and conservatively invalidates every region key.  Pin the order with
    :meth:`Program.with_declared_variables` before rendering sources to
    make headers — and therefore region cache keys — edit-stable."""
    reduced = options is not None and _reduced_header(options)
    out = []
    names = prog.variables()
    for lo, hi in spans:
        if reduced:
            used = _span_names(prog, lo, hi)
            scalars = [v for v in names if v in used]
            arrays = {n: sz for n, sz in prog.arrays.items() if n in used}
            groups = [list(g) for g in prog.alias_groups if used & set(g)]
        else:
            scalars = names
            arrays = dict(prog.arrays)
            groups = list(prog.alias_groups)
        out.append(
            Program(
                body=prog.body[lo:hi],
                arrays=arrays,
                scalars=scalars,
                alias_groups=groups,
            )
        )
    return out


def region_sources(
    prog: Program, spans: list[tuple[int, int]], options=None
) -> list[str]:
    """:func:`region_programs` rendered by :func:`pretty` — the region
    *source slices* the content-addressed cache is keyed on."""
    return [pretty(sub) for sub in region_programs(prog, spans, options)]


# --------------------------------------------------------------------------
# stitching


def stitch(
    region_cps: list, streams: list[Stream]
) -> Translation:
    """Splice region subgraphs into one whole-program graph.

    Each region graph's START/END pair is removed; arcs out of a
    region's START are rewired to the *current* producer port of that
    stream (the previous region's END input, or the global START for the
    first region), and arcs into a region's END update the current
    producer.  Region streams are matched to global streams by *name*
    — a region's interface may be any subset of the global one, and
    streams a region never declares (or declares but never touches:
    START->END pass-through arcs) flow straight across it with no
    extra nodes."""
    g = DFGraph()
    out = Translation(graph=g, streams=list(streams))

    def seed_for(s: Stream) -> Seed:
        if s.carries_value:
            return Seed("value", next(iter(s.members)))
        return Seed("access", s.name)

    start = g.add(OpKind.START, seeds=tuple(seed_for(s) for s in streams))
    end = g.add(
        OpKind.END,
        returns=tuple(
            next(iter(s.members)) if s.carries_value else None
            for s in streams
        ),
    )
    current: dict[str, Port] = {
        s.name: Port(start.id, i) for i, s in enumerate(streams)
    }

    global_names = {s.name for s in streams}
    for cp in region_cps:
        rg = cp.graph
        rstreams = cp.streams
        missing = [s.name for s in rstreams if s.name not in global_names]
        if missing:
            raise CertificateError(
                "region_stitch",
                f"region streams {missing} not in the global interface "
                f"{sorted(global_names)}",
            )
        sname_at = [s.name for s in rstreams]
        rstart, rend = rg.start, rg.end
        # interior nodes and arcs go over in one bulk splice; only the
        # boundary arcs (out of the region's START, into its END) need
        # the per-arc rewiring below
        idmap = g.splice_from(rg, rstart, rend)
        # the region's END inputs become the new current producers.
        # A START->END arc resolves through `current`: same-stream ones
        # are pass-throughs (streams the region never touches), but
        # cross-stream ones are real — value-carrying copies like
        # ``z := x`` forward the x seed straight to z's return
        nxt = dict(current)
        for arc in rg.in_arcs(rend):
            if arc.src == rstart:
                nxt[sname_at[arc.dst_port]] = current[sname_at[arc.src_port]]
            else:
                nxt[sname_at[arc.dst_port]] = Port(idmap[arc.src], arc.src_port)
        for arc in rg.out_arcs(rstart):
            if arc.dst == rend:
                continue
            src, src_port = current[sname_at[arc.src_port]]
            g.connect_unchecked(
                src, src_port, idmap[arc.dst], arc.dst_port, arc.is_access
            )
        current = nxt

    for i, s in enumerate(streams):
        g.connect(current[s.name], end.id, i, is_access=not s.carries_value)
    g.validate(allow_dangling_outputs=True)
    return out


# --------------------------------------------------------------------------
# driver


@dataclass(frozen=True)
class RegionPlan:
    """A partition decision: spans over the expanded top-level body, the
    rendered per-region sources (the cache keys), and the matching
    sub-program ASTs (what actually gets compiled — skipping the
    re-parse of every region source)."""

    spans: tuple[tuple[int, int], ...]
    sources: tuple[str, ...]
    progs: tuple[Program, ...]
    total_stmts: int


def plan_regions(prog: Program, options) -> RegionPlan | None:
    """Partition ``prog`` (already subroutine-expanded) or return None
    when region compilation should fall back to monolithic: ineligible
    options, too small under ``auto``, or a single-region partition
    (fully-goto programs with no legal cut)."""
    if options.region_compile == "off" or not region_eligible(options):
        return None
    total = sum(map(_weight, prog.body))
    if options.region_compile == "auto" and total < options.region_min_stmts:
        return None
    target = max(1, options.region_target_stmts)
    spans = partition_spans(prog.body, target)
    if len(spans) < 2:
        return None
    progs = region_programs(prog, spans, options)
    return RegionPlan(
        spans=tuple(spans),
        sources=tuple(pretty(sub) for sub in progs),
        progs=tuple(progs),
        total_stmts=total,
    )


def _region_options(options):
    """Options a region is compiled under: identical knobs with the
    region machinery switched off (a region compile is a plain
    monolithic compile of a small program)."""
    return replace(
        options,
        region_compile="off",
        region_min_stmts=type(options)().region_min_stmts,
        region_target_stmts=type(options)().region_target_stmts,
    )


def _annotate(exc: CertificateError, plan: RegionPlan, i: int):
    if exc.region:
        return exc
    lo, hi = plan.spans[i]
    return CertificateError(
        exc.pass_name, exc.diff, region=f"region {i} [stmts {lo}:{hi})"
    )


#: minimum host cores before cold regions fan out on a process pool.
#: With one core there is no parallelism to buy, only pickle/IPC cost —
#: a pool compiles every region in a worker and ships the subgraph back,
#: which measures *slower* than the serial loop.  Tests drop this to 1
#: to exercise the worker path regardless of host shape.
POOL_MIN_CORES = 2


def _use_pool(pool) -> bool:
    import os

    return pool is not None and (os.cpu_count() or 1) >= POOL_MIN_CORES


def _compile_regions(
    plan: RegionPlan, options, cache, pool
) -> tuple[list, int]:
    """Compile every region, via the cache / worker pool when available.
    Returns (compiled regions in order, cache hits).  Region compiles
    start from the plan's sub-program ASTs — the source text is only
    the cache key — so nothing re-parses the region sources.
    CertificateErrors are re-raised annotated with the guilty region."""
    from .pipeline import compile_program

    sources = list(plan.sources)
    ropts = _region_options(options)
    cps: list = [None] * len(sources)
    hits = 0
    misses = list(range(len(sources)))
    if cache is not None:
        misses = []
        for i, src in enumerate(sources):
            cached = cache.peek(src, ropts)
            if cached is not None:
                cps[i] = cached
                hits += 1
            else:
                misses.append(i)
    if misses and _use_pool(pool):
        from ..engine.batch import compile_sources_pooled

        try:
            compiled = compile_sources_pooled(
                pool,
                [(sources[i], ropts, plan.progs[i]) for i in misses],
            )
        except CertificateError as exc:
            # pool.map loses the item index; recompile serially on
            # the error path to name the guilty region
            raise _annotate(exc, plan, _blame_region(plan, options)) from exc
        for i, cp in zip(misses, compiled):
            cps[i] = cp
    for i in misses:
        if cps[i] is None:
            try:
                cps[i] = compile_program(plan.progs[i], options=ropts)
            except CertificateError as exc:
                raise _annotate(exc, plan, i) from exc
        if cache is not None:
            cps[i] = cache.insert(sources[i], ropts, cps[i])
    return cps, hits


def _stitch_certificate(
    plan: RegionPlan, streams, translation, per_region, hits
) -> Certificate:
    keys = [
        hashlib.sha256(src.encode()).hexdigest()[:16] for src in plan.sources
    ]
    return Certificate(
        pass_name="region_stitch",
        kind="construct",
        witness={
            "spans": [list(sp) for sp in plan.spans],
            "n_regions": len(plan.spans),
            "total_stmts": plan.total_stmts,
            "region_keys": keys,
            "streams": [s.name for s in streams],
            "nodes": len(translation.graph.nodes),
            "arcs": translation.graph.num_arcs(),
            "per_region": per_region,
        },
        metrics={
            "regions": len(plan.spans),
            "region_cache_hits": hits,
            "stitched_nodes": len(translation.graph.nodes),
        },
    )


def compile_with_regions(source, options, *, cache=None, pool=None):
    """Region-partitioned compile of ``source`` under ``options``.

    Falls back to the monolithic pipeline (returning an ordinary
    :class:`CompiledProgram`) when no multi-region plan exists.  When a
    :class:`~repro.engine.cache.GraphCache` is supplied, region
    subgraphs are memoized in it; when a worker pool is supplied too,
    cold regions compile in parallel."""
    from .passes import PassContext
    from .pipeline import CompiledProgram, compile_program

    mono_opts = replace(options, region_compile="off")
    if isinstance(source, Program):
        prog, text = source, pretty(source)
    else:
        text = source
        prog = parse(source)
    expansion = None
    if prog.subs:
        prog, expansion = expand_subroutines(prog)

    plan = plan_regions(prog, options)
    if plan is None:
        cp = compile_program(text, options=mono_opts)
        cp.options = options  # reflect the requested options verbatim
        return cp

    with tracer.span(
        "compile.regions", regions=len(plan.spans), schema=options.schema
    ):
        region_cps, hits = _compile_regions(plan, options, cache, pool)

    from .pipeline import _pick_cover

    alias = AliasStructure.from_program(prog)
    if options.schema in ("schema3", "schema3_opt"):
        streams = cover_streams(_pick_cover(alias, options.cover))
    else:
        schema = "schema2" if options.schema == "schema2_opt" else options.schema
        streams = streams_for(prog, schema, alias=alias)

    t0 = time.perf_counter()
    with tracer.span("compile.stitch"):
        translation = stitch(region_cps, streams)
    per_region = [
        {
            "span": list(sp),
            "nodes": len(cp.graph.nodes),
            "arcs": cp.graph.num_arcs(),
            "passes": [c.pass_name for c in cp.pass_log],
        }
        for sp, cp in zip(plan.spans, region_cps)
    ]
    cert = _stitch_certificate(plan, streams, translation, per_region, hits)
    cert.elapsed_ms = (time.perf_counter() - t0) * 1000.0

    ctx = PassContext(options=options, prog=prog, alias=alias)
    ctx.streams = streams
    ctx.translation = translation
    if options.verify_passes != "off":
        from .verify import VERIFIERS

        # raises CertificateError("region_stitch", ...) on failure,
        # mirroring PassManager's verify-immediately discipline
        t1 = time.perf_counter()
        VERIFIERS["region_stitch"](ctx, cert.witness, options.verify_passes)
        cert.verified = options.verify_passes
        cert.verify_ms = (time.perf_counter() - t1) * 1000.0

    return CompiledProgram(
        source=text,
        prog=prog,
        options=options,
        cfg=None,
        loops=[],
        streams=streams,
        translation=translation,
        alias=alias,
        pass_log=[cert],
        pass_ctx=ctx,
        expansion=expansion,
    )


def _blame_region(plan: RegionPlan, options) -> int:
    """Recompile regions serially to find which one raised — only used
    on the error path, so the extra compile cost is acceptable."""
    from .pipeline import compile_program

    ropts = _region_options(options)
    for i, src in enumerate(plan.sources):
        try:
            compile_program(src, options=ropts)
        except CertificateError:
            return i
    return 0
