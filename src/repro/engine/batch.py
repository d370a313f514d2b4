"""Batch compile/simulate: fan (program, schema, config) jobs across a
process pool with deterministic result ordering.

Each job is compiled through a :class:`~repro.engine.cache.GraphCache`
and simulated on the ETS machine.  Results come back in job order
regardless of worker scheduling, so a batch sweep is a drop-in
replacement for a serial loop.

Pooled runs split the work at the compile/simulate boundary: the
*parent* compiles (or fetches) every packed-backend job through its own
cache — so one warm cache serves the whole batch — and ships workers
only the compact :class:`~repro.machine.packed.PackedProgram` payload
(flat tuples; no AST, CFG, or node objects).  That payload is a fraction
of the full :class:`CompiledProgram` pickle, which is what previously
made ``--jobs 4`` slower than serial.  Jobs whose config needs the
per-cycle stepper (finite PEs, k-bounded loops) still ship whole and
compile worker-side against the per-process worker cache.

``pool_size=None``/``0``/``1`` runs serially in-process — same code path,
no pool — which is what tests use when they only want the caching.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import time
import traceback as _traceback
from dataclasses import dataclass, field, replace

from ..dfg.stats import GraphStats
from ..machine.config import MachineConfig
from ..machine.packed import PackedProgram
from ..machine.simulator import SimResult
from ..obs.trace import activate, deactivate, new_trace_id, tracer
from ..translate.pipeline import CompileOptions, simulate
from .cache import GraphCache

_DEFAULT_CONFIG = MachineConfig()


@dataclass(frozen=True)
class BatchJob:
    """One (program, options, inputs, machine config) work item.

    ``trace_id`` makes the job followable end to end: the worker that
    runs it activates the id, records compile/cache/simulate spans, and
    ships them back on the :class:`BatchResult` (the service propagates
    the same id from client frame → queue → batch → reply).  Empty means
    untraced — the zero-overhead default.
    """

    source: str
    options: CompileOptions = field(default_factory=CompileOptions)
    inputs: dict | None = None
    config: MachineConfig | None = None
    name: str = ""
    trace_id: str = ""


@dataclass
class BatchResult:
    """Outcome of one job: the simulation result plus engine accounting.

    A job that raises during compile or simulate does **not** poison its
    batch: the exception is captured here (``error`` holds the one-line
    ``Type: message`` form, ``traceback`` the full text) and ``result`` /
    ``stats`` are ``None``.  Only :class:`Exception` subclasses are
    captured — ``KeyboardInterrupt`` and friends still abort the batch.
    """

    name: str
    index: int
    result: SimResult | None
    stats: GraphStats | None
    compile_time: float  # seconds in lookup-or-compile
    sim_time: float  # seconds in simulate()
    cache_hit: bool
    error: str | None = None
    traceback: str | None = None
    #: the job's trace id ("" when untraced) and its recorded spans in
    #: wire form — spans survive the pickle back from pool workers
    trace_id: str = ""
    spans: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None


# -- worker state -----------------------------------------------------------

_WORKER_CACHE: GraphCache | None = None


def _worker_init(cache_dir, capacity: int) -> None:
    global _WORKER_CACHE
    _WORKER_CACHE = GraphCache(capacity=capacity, cache_dir=cache_dir)


def _worker_compile(item: tuple):
    """Pool entry point for the region compiler's cold-region fan-out:
    ``(source, options, program_ast)`` in, a slim
    :class:`CompiledProgram` out — the parent only stitches the
    subgraph, and the full compile context would dominate the return
    pickle.  The worker compiles straight from the already-parsed
    sub-program AST (no re-parse), checking/filling the worker cache
    under the source key when the pool was built by :func:`make_pool`
    (sharing the disk tier)."""
    from ..translate.pipeline import compile_program

    source, options, prog = item
    if _WORKER_CACHE is None:
        return compile_program(prog, options=options).slim()
    cp = _WORKER_CACHE.peek(source, options)
    if cp is None:
        cp = _WORKER_CACHE.insert(
            source, options, compile_program(prog, options=options)
        )
    return cp


def compile_sources_pooled(
    pool: multiprocessing.pool.Pool, items: list[tuple]
) -> list:
    """Map ``(source, options, program_ast)`` tuples over ``pool``,
    preserving order.  Used by :mod:`repro.translate.regions` to compile
    cold regions in parallel; compile errors (including
    ``CertificateError``) propagate to the caller."""
    workers = getattr(pool, "_processes", None) or 1
    return pool.map(
        _worker_compile, items, chunksize=max(1, len(items) // (workers * 2))
    )


def _run_one(cache: GraphCache, index: int, job: BatchJob) -> BatchResult:
    # a traced job activates its id so every span below lands in its
    # trace, even with the global tracer switch off
    token = activate(job.trace_id) if job.trace_id else None
    try:
        return _run_one_inner(cache, index, job)
    finally:
        if token is not None:
            deactivate(token)


def _take_spans(job: BatchJob) -> list:
    """Pop the job's recorded spans as wire dicts (picklable, and the
    worker-side buffer never accumulates)."""
    if not job.trace_id:
        return []
    return [s.to_wire() for s in tracer.take(job.trace_id)]


def _run_one_inner(cache: GraphCache, index: int, job: BatchJob) -> BatchResult:
    name = job.name or f"job{index}"
    t0 = time.perf_counter()
    hit = False
    err = tb = None
    with tracer.span("engine.job", job=name):
        try:
            with tracer.span("engine.compile") as sp:
                cp, hit = cache.lookup(job.source, job.options)
                if sp is not None:
                    sp.attrs["cache_hit"] = hit
            t1 = time.perf_counter()
            with tracer.span("engine.simulate"):
                res = simulate(cp, job.inputs, job.config)
            t2 = time.perf_counter()
        except Exception as exc:
            t1 = time.perf_counter()
            err = f"{type(exc).__name__}: {exc}"
            tb = _traceback.format_exc()
    if err is not None:
        return BatchResult(
            name=name,
            index=index,
            result=None,
            stats=None,
            compile_time=t1 - t0,
            sim_time=0.0,
            cache_hit=hit,
            error=err,
            traceback=tb,
            trace_id=job.trace_id,
            spans=_take_spans(job),
        )
    res.cache_hit = hit
    return BatchResult(
        name=name,
        index=index,
        result=res,
        stats=cp.ensure_stats(),
        compile_time=t1 - t0,
        sim_time=t2 - t1,
        cache_hit=hit,
        trace_id=job.trace_id,
        spans=_take_spans(job),
    )


# executables arrive as pickled bytes keyed by content: the same graph
# blob decodes once per worker and then serves every later job — and,
# with a persistent pool, every later sweep — for free
_DECODED: dict[bytes, PackedProgram] = {}


def _decode(blob: bytes) -> PackedProgram:
    exe = _DECODED.get(blob)
    if exe is None:
        if len(_DECODED) >= 512:
            _DECODED.clear()
        exe = _DECODED[blob] = pickle.loads(blob)
    return exe


def _worker_run(item: tuple):
    """Pool entry point.  Two item shapes:

    * ``("job", index, BatchJob)`` — compile + simulate worker-side (the
      stepper path; needs the full job and the worker cache);
    * ``("packed", index, blob, inputs, config, trace_id)`` — the parent
      already compiled; decode the shipped PackedProgram pickle, run it,
      and return the raw pieces for the parent to merge into a
      BatchResult.
    """
    if item[0] == "job":
        assert _WORKER_CACHE is not None, "pool worker not initialized"
        _, index, job = item
        return _run_one(_WORKER_CACHE, index, job)
    _, index, blob, inputs, config, trace_id = item
    exe = _decode(blob)
    token = activate(trace_id) if trace_id else None
    try:
        err = tb = None
        res = None
        t1 = time.perf_counter()
        try:
            backend = (config or _DEFAULT_CONFIG).backend()
            with tracer.span("engine.simulate", backend=backend):
                res = exe.run(inputs, config)
        except Exception as exc:
            err = f"{type(exc).__name__}: {exc}"
            tb = _traceback.format_exc()
        sim_time = time.perf_counter() - t1
        spans = (
            [s.to_wire() for s in tracer.take(trace_id)] if trace_id else []
        )
        return ("packed", index, res, sim_time, err, tb, spans)
    finally:
        if token is not None:
            deactivate(token)


# -- driver -----------------------------------------------------------------

# serial runs that name a cache_dir share one cache per (dir, capacity):
# building a fresh GraphCache per run_batch call would discard the memory
# LRU and hit/miss stats between back-to-back batches
_SHARED_CACHES: dict[tuple[str, int], GraphCache] = {}
_SHARED_LOCK = threading.Lock()


def shared_cache(cache_dir, capacity: int = 256) -> GraphCache:
    """The process-wide :class:`GraphCache` for ``(cache_dir, capacity)``
    — repeated serial ``run_batch(..., cache_dir=...)`` calls reuse its
    memory tier and keep one coherent set of stats."""
    key = (os.fspath(cache_dir), capacity)
    with _SHARED_LOCK:
        cache = _SHARED_CACHES.get(key)
        if cache is None:
            cache = _SHARED_CACHES[key] = GraphCache(
                capacity=capacity, cache_dir=cache_dir
            )
        return cache


def make_pool(
    pool_size: int, cache_dir=None, capacity: int = 256
) -> multiprocessing.pool.Pool:
    """A persistent worker pool for repeated :func:`run_batch` calls.

    ``run_batch(jobs, pool=p)`` re-enters this pool without paying the
    per-call spawn cost — the shape a long-running server wants.  Workers
    keep their in-memory cache tier between batches (and share the disk
    tier when ``cache_dir`` is given).  Close with ``p.terminate()`` /
    ``p.close(); p.join()`` when done.
    """
    if pool_size < 1:
        raise ValueError("pool_size must be >= 1")
    return multiprocessing.Pool(
        processes=pool_size,
        initializer=_worker_init,
        initargs=(cache_dir, capacity),
    )


def _chunksize(n_items: int, workers: int) -> int:
    """Tasks per pool dispatch.  Packed payloads simulate in well under a
    millisecond each, so one-item chunks drown in queue round-trips; four
    chunks per worker keeps dispatch overhead amortized while leaving
    enough slack for load balancing across uneven job costs.  When the
    pool is oversubscribed (more workers than cores) the OS time-slices
    anyway, so balance is free and fewer, larger dispatches win."""
    workers = max(1, workers)
    cores = os.cpu_count() or workers
    if cores < workers:
        return max(1, -(-n_items // (2 * max(1, cores))))
    return max(1, n_items // (workers * 4))


def run_batch(
    jobs: list[BatchJob],
    pool_size: int | None = None,
    cache: GraphCache | None = None,
    cache_dir=None,
    capacity: int = 256,
    pool: multiprocessing.pool.Pool | None = None,
) -> list[BatchResult]:
    """Run every job; results are returned in job order.

    * ``pool_size`` — worker processes; ``None``/``0``/``1`` = serial.
    * ``cache`` — the graph cache compiles go through: the serial loop's,
      and in pooled runs the *parent's*, which compiles every
      packed-backend job once and ships workers the flat payload.
      Defaults to the engine's process-wide
      :data:`~repro.engine.default_cache`, or the shared
      per-``(cache_dir, capacity)`` cache from :func:`shared_cache` when a
      ``cache_dir`` is given, so back-to-back batches keep their memory
      tier and stats.
    * ``cache_dir`` — disk tier shared with workers (and future runs).
    * ``pool`` — a persistent pool from :func:`make_pool`; overrides
      ``pool_size`` and is left open for the caller to reuse.

    Per-job exceptions are captured on :class:`BatchResult` (``error`` /
    ``traceback``), so one bad program never kills its batch siblings.
    """
    jobs = list(jobs)
    if not jobs:
        return []
    if tracer.enabled:
        # stamp untraced jobs so every result carries a followable trace
        jobs = [
            job if job.trace_id else replace(job, trace_id=new_trace_id())
            for job in jobs
        ]
    if cache is None:
        if cache_dir is not None:
            cache = shared_cache(cache_dir, capacity)
        else:
            from . import default_cache

            cache = default_cache
    if pool is None and (pool_size is None or pool_size <= 1):
        return [_run_one(cache, i, job) for i, job in enumerate(jobs)]

    # pooled: the pool is created (or borrowed) up front so parent-side
    # compiles can fan region subcompiles out on it, then compile packed
    # jobs in the parent (one warm cache serves the whole batch) and
    # ship only the flat payload; stepper jobs go whole, compiling
    # against the worker's own cache
    owned: multiprocessing.pool.Pool | None = None
    if pool is None:
        owned = multiprocessing.Pool(
            processes=pool_size,
            initializer=_worker_init,
            initargs=(cache_dir, capacity),
        )
    pool_obj = pool if pool is not None else owned
    workers = (
        pool_size
        if owned is not None
        else (getattr(pool, "_processes", None) or 1)
    )
    prev_region_pool = getattr(cache, "region_pool", None)
    cache.region_pool = pool_obj
    try:
        return _run_pooled(jobs, cache, pool_obj, workers)
    finally:
        cache.region_pool = prev_region_pool
        if owned is not None:
            owned.terminate()
            owned.join()


def _run_pooled(
    jobs: list[BatchJob],
    cache: GraphCache,
    pool: multiprocessing.pool.Pool,
    workers: int,
) -> list[BatchResult]:
    items: list[tuple] = []
    premade: dict[int, BatchResult] = {}
    meta: dict[int, tuple] = {}
    # each distinct executable is pickled once per batch
    blobs: dict[PackedProgram, bytes] = {}
    for i, job in enumerate(jobs):
        if (job.config or _DEFAULT_CONFIG).backend() != "packed":
            items.append(("job", i, job))
            continue
        name = job.name or f"job{i}"
        token = activate(job.trace_id) if job.trace_id else None
        try:
            t0 = time.perf_counter()
            hit = False
            try:
                with tracer.span("engine.job", job=name):
                    with tracer.span("engine.compile") as sp:
                        cp, hit = cache.lookup(job.source, job.options)
                        if sp is not None:
                            sp.attrs["cache_hit"] = hit
                    exe = cp.ensure_packed()
                    blob = blobs.get(exe)
                    if blob is None:
                        blob = blobs[exe] = pickle.dumps(
                            exe, pickle.HIGHEST_PROTOCOL
                        )
            except Exception as exc:
                premade[i] = BatchResult(
                    name=name,
                    index=i,
                    result=None,
                    stats=None,
                    compile_time=time.perf_counter() - t0,
                    sim_time=0.0,
                    cache_hit=hit,
                    error=f"{type(exc).__name__}: {exc}",
                    traceback=_traceback.format_exc(),
                    trace_id=job.trace_id,
                    spans=_take_spans(job),
                )
                continue
            meta[i] = (
                name,
                cp.ensure_stats(),
                time.perf_counter() - t0,
                hit,
                job.trace_id,
                _take_spans(job),
            )
            items.append(
                ("packed", i, blob, job.inputs, job.config, job.trace_id)
            )
        finally:
            if token is not None:
                deactivate(token)

    raw: list = []
    if items:
        raw = pool.map(
            _worker_run, items, chunksize=_chunksize(len(items), workers)
        )

    results: list[BatchResult | None] = [None] * len(jobs)
    for i, br in premade.items():
        results[i] = br
    for out in raw:
        if isinstance(out, BatchResult):
            results[out.index] = out
            continue
        _, i, res, sim_time, err, tb, wspans = out
        name, stats, compile_time, hit, trace_id, pspans = meta[i]
        if err is not None:
            results[i] = BatchResult(
                name=name,
                index=i,
                result=None,
                stats=None,
                compile_time=compile_time,
                sim_time=0.0,
                cache_hit=hit,
                error=err,
                traceback=tb,
                trace_id=trace_id,
                spans=pspans + wspans,
            )
            continue
        res.cache_hit = hit
        results[i] = BatchResult(
            name=name,
            index=i,
            result=res,
            stats=stats,
            compile_time=compile_time,
            sim_time=sim_time,
            cache_hit=hit,
            trace_id=trace_id,
            spans=pspans + wspans,
        )
    # every slot filled, in job order; assert rather than trust
    for i, r in enumerate(results):
        assert r is not None and r.index == i, (
            "batch results arrived out of order"
        )
    return results  # type: ignore[return-value]
