"""The always-on compile/simulate server.

Architecture (DESIGN.md §7): asyncio connection handlers parse JSON-lines
frames and feed a bounded :class:`~repro.service.batcher.MicroBatcher`;
its flush loop hands coalesced batches to the persistent engine — a
long-lived :class:`~repro.engine.cache.GraphCache` (serial mode) or a
:func:`~repro.engine.batch.make_pool` worker pool — via a single-thread
executor so the event loop never blocks on compilation or simulation.

Contracts:

* **Backpressure** — at most ``max_queue`` jobs wait; a submit beyond
  that is rejected *immediately* with ``queue_full`` (never buffered,
  never dropped silently) and counted in stats.  The server stays live.
* **Deadlines** — ``deadline_ms`` is submit→result: a job still queued
  when it expires is removed and rejected; one already running has its
  result discarded and the client gets ``deadline_expired`` on time.
* **Cancellation** — a queued job can be cancelled by request id; a
  running one cannot (the engine is mid-flight) and reports as such.
* **Graceful shutdown** — new submits are rejected (``shutting_down``),
  every accepted job is drained and its result delivered, then
  connections close.  Zero accepted results are lost.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

from ..engine import GraphCache, LatencySummary, make_pool, run_batch
from ..engine.batch import BatchJob
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Span, new_span_id, new_trace_id, tracer
from .batcher import MicroBatcher
from .protocol import (
    MAX_LINE,
    PROTOCOL_VERSION,
    decode,
    encode,
    job_from_wire,
    result_to_wire,
)

# entry lifecycle
PENDING = "pending"
RUNNING = "running"
DONE = "done"
EXPIRED = "expired"
CANCELLED = "cancelled"

#: per-stage latency histograms exposed by the ``metrics`` op (and
#: summarized by ``stats``); the job-outcome counters next to them
JOB_COUNTERS = (
    "submitted", "completed", "failed", "rejected", "expired",
    "cancelled", "cache_hit",
)
LATENCY_STAGES = ("queue", "compile", "sim", "total")


@dataclass
class ServiceConfig:
    """Listen address + queueing/engine knobs for one server."""

    path: str | None = None  # UNIX socket path (wins over host/port)
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral, see ServiceServer.endpoint
    max_queue: int = 64
    max_batch: int = 8
    pool_size: int = 1  # 1 = serial in-process engine
    cache_dir: str | None = None
    capacity: int = 256
    max_line: int = MAX_LINE  # per-frame byte ceiling on the wire
    #: warm-restart directory: restored on start, snapshotted on drain
    #: (and every ``snapshot_interval_s`` seconds when > 0)
    snapshot_dir: str | None = None
    snapshot_interval_s: float = 0.0

    def __post_init__(self) -> None:
        if self.path is None and self.host is None:
            raise ValueError("need a UNIX socket path or a TCP host")


class _Conn:
    """Per-connection state: serialized writes + live submit entries."""

    __slots__ = ("writer", "lock", "entries", "alive")

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.lock = asyncio.Lock()
        self.entries: dict[str, _Entry] = {}
        self.alive = True

    async def send(self, frame: dict) -> None:
        if not self.alive:
            return
        try:
            async with self.lock:
                self.writer.write(encode(frame))
                await self.writer.drain()
        except (ConnectionError, RuntimeError, OSError):
            self.alive = False


class _Entry:
    """One accepted submit: the job plus routing and lifecycle state."""

    __slots__ = (
        "conn", "req_id", "job", "state", "deadline_handle", "t_submit"
    )

    def __init__(self, conn: _Conn, req_id: str, job: BatchJob):
        self.conn = conn
        self.req_id = req_id
        self.job = job
        self.state = PENDING
        self.deadline_handle: asyncio.TimerHandle | None = None
        self.t_submit = time.monotonic()

    def settle(self) -> None:
        """Leave the lifecycle: drop the deadline timer and the conn's
        id->entry routing slot."""
        if self.deadline_handle is not None:
            self.deadline_handle.cancel()
            self.deadline_handle = None
        if self.conn.entries.get(self.req_id) is self:
            del self.conn.entries[self.req_id]


class ServiceServer:
    """One server instance; see the module docstring for the contracts."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.batcher = MicroBatcher(
            self._run_entries,
            max_batch=config.max_batch,
            max_queue=config.max_queue,
        )
        # persistent engine state — this is the point of the service.
        # The cache exists even with a worker pool: the pooled run_batch
        # compiles in the parent and ships packed payloads, so the
        # server's cache (and its stats) serves both execution modes.
        self.pool = None
        self.cache: GraphCache = GraphCache(
            capacity=config.capacity, cache_dir=config.cache_dir
        )
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-engine"
        )
        self._server: asyncio.AbstractServer | None = None
        self._batcher_task: asyncio.Task | None = None
        self._bg_tasks: list[asyncio.Task] = []
        self._conns: set[_Conn] = set()
        self._replies: set[asyncio.Task] = set()
        self._draining = False
        self._t0 = time.monotonic()
        # every counter and latency sample lives in one registry so the
        # metrics op, the stats op, and in-process readers agree by
        # construction (no parallel bookkeeping to drift)
        self.registry = MetricsRegistry()
        self._c = {
            name: self.registry.counter(f"service.jobs.{name}")
            for name in JOB_COUNTERS
        }
        self._h = {
            stage: self.registry.histogram(f"service.latency_ms.{stage}")
            for stage in LATENCY_STAGES
        }

    # read-only views of the job-outcome counters (handy in tests/tools)
    @property
    def submitted(self) -> int:
        return self._c["submitted"].value

    @property
    def completed(self) -> int:
        return self._c["completed"].value

    @property
    def failed(self) -> int:
        return self._c["failed"].value

    @property
    def rejected(self) -> int:
        return self._c["rejected"].value

    @property
    def expired(self) -> int:
        return self._c["expired"].value

    @property
    def cancelled(self) -> int:
        return self._c["cancelled"].value

    @property
    def jobs_cache_hit(self) -> int:
        return self._c["cache_hit"].value

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        cfg = self.config
        if cfg.snapshot_dir is not None:
            # come up warm *before* accepting connections: the first
            # resubmission of any snapshotted graph is a cache hit
            loaded = self.cache.restore(cfg.snapshot_dir)
            self.registry.gauge("service.snapshot.restored").set(loaded)
        if cfg.pool_size > 1:
            self.pool = make_pool(
                cfg.pool_size, cache_dir=cfg.cache_dir, capacity=cfg.capacity
            )
        if cfg.path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_conn, path=cfg.path, limit=cfg.max_line
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_conn, host=cfg.host, port=cfg.port,
                limit=cfg.max_line,
            )
        self._t0 = time.monotonic()
        self._batcher_task = asyncio.create_task(self.batcher.run())
        if cfg.snapshot_dir is not None and cfg.snapshot_interval_s > 0:
            self._bg_tasks.append(
                asyncio.create_task(
                    self._snapshot_loop(cfg.snapshot_interval_s)
                )
            )

    async def _snapshot_loop(self, interval_s: float) -> None:
        while True:
            await asyncio.sleep(interval_s)
            # snapshotting pickles entries — off the event loop
            await asyncio.get_running_loop().run_in_executor(
                None, self.write_snapshot
            )

    def write_snapshot(self) -> int:
        """Blocking: persist cache entries to the configured snapshot
        dir.  Returns entries committed."""
        if self.config.snapshot_dir is None:
            return 0
        n = self.cache.snapshot(self.config.snapshot_dir)
        self.registry.counter("service.snapshot.writes").inc()
        self.registry.gauge("service.snapshot.entries").set(n)
        return n

    @property
    def endpoint(self) -> dict:
        """Where the server actually listens (resolves ephemeral ports)."""
        if self.config.path is not None:
            return {"path": self.config.path}
        assert self._server is not None and self._server.sockets
        host, port = self._server.sockets[0].getsockname()[:2]
        return {"host": host, "port": port}

    def begin_shutdown(self) -> None:
        """Start the graceful drain; idempotent, safe from signal handlers
        running on the event loop."""
        if self._draining:
            return
        self._draining = True
        self.batcher.close()

    async def serve_forever(self) -> None:
        """Serve until :meth:`begin_shutdown` (or a client ``shutdown``
        op), then drain all accepted jobs and tear down."""
        assert self._batcher_task is not None, "call start() first"
        await self._batcher_task  # returns once closed AND drained
        # every accepted job has a reply task by now; deliver them all
        # before tearing connections down (the zero-lost-results contract)
        while self._replies:
            await asyncio.gather(*list(self._replies),
                                 return_exceptions=True)
        for task in self._bg_tasks:
            task.cancel()
        if self._bg_tasks:
            await asyncio.gather(*self._bg_tasks, return_exceptions=True)
        if self.config.snapshot_dir is not None:
            # on-drain snapshot: the restart comes up exactly as warm
            # as this process was when it stopped accepting work
            await asyncio.get_running_loop().run_in_executor(
                None, self.write_snapshot
            )
        await self._teardown()

    async def _teardown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for conn in list(self._conns):
            conn.alive = False
            with contextlib.suppress(Exception):
                conn.writer.close()
        if self.config.path is not None:
            with contextlib.suppress(OSError):
                os.unlink(self.config.path)
        if self.pool is not None:
            self.pool.terminate()
            self.pool.join()
        self._executor.shutdown(wait=False)

    def _post(self, conn: _Conn, frame: dict) -> None:
        """Deliver ``frame`` without awaiting the socket: result frames
        can exceed the transport's high-water mark, and a client that is
        slow to read must stall only its own connection (``conn.lock``
        serializes its frames), never the flush loop.  Tasks are tracked
        so a graceful drain can flush them all before teardown."""
        task = asyncio.get_running_loop().create_task(conn.send(frame))
        self._replies.add(task)
        task.add_done_callback(self._replies.discard)

    # -- engine bridge ----------------------------------------------------

    def _run_jobs(self, jobs: list[BatchJob]):
        """Blocking engine call; runs on the executor thread."""
        if self.pool is not None:
            return run_batch(jobs, pool=self.pool, cache=self.cache)
        return run_batch(jobs, pool_size=1, cache=self.cache)

    async def _run_entries(self, entries: list[_Entry]) -> None:
        """MicroBatcher runner: execute one coalesced batch, reply per
        entry.  Entries that expired or were cancelled while queued never
        reach here (the batcher discards them)."""
        loop = asyncio.get_running_loop()
        now = time.monotonic()
        live = []
        for e in entries:
            if e.state != PENDING:
                continue  # expired in the popleft window
            e.state = RUNNING
            self._h["queue"].observe((now - e.t_submit) * 1e3)
            live.append(e)
        if not live:
            return
        try:
            results = await loop.run_in_executor(
                self._executor, self._run_jobs, [e.job for e in live]
            )
        except Exception as exc:  # engine-level failure (e.g. pool died)
            for e in live:
                if e.state is RUNNING:
                    e.settle()
                    e.state = DONE
                    self._c["failed"].inc()
                    self._post(e.conn, _submit_error(
                        e.req_id, "internal_error", f"{type(exc).__name__}: {exc}"
                    ))
            return
        t_done = time.monotonic()
        for e, br in zip(live, results):
            if e.state is not RUNNING:  # deadline fired mid-run
                continue
            e.settle()
            e.state = DONE
            self._h["compile"].observe(br.compile_time * 1e3)
            self._h["sim"].observe(br.sim_time * 1e3)
            self._h["total"].observe((t_done - e.t_submit) * 1e3)
            if br.ok:
                self._c["completed"].inc()
                if br.cache_hit:
                    self._c["cache_hit"].inc()
            else:
                self._c["failed"].inc()
            if br.trace_id:
                # service-side spans bracket the worker's: time queued
                # before the batch, then the batch the job rode in
                br.spans = br.spans + [
                    Span(br.trace_id, new_span_id(), "", "service.queue",
                         e.t_submit, now).to_wire(),
                    Span(br.trace_id, new_span_id(), "", "service.batch",
                         now, t_done,
                         attrs={"batch_size": len(live)}).to_wire(),
                ]
                tracer.ingest(br.spans)
            frame = {
                "ok": True,
                "op": "submit",
                "id": e.req_id,
                "result": result_to_wire(br),
            }
            if br.trace_id:
                frame["trace_id"] = br.trace_id
            self._post(e.conn, frame)

    # -- connection handling ----------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Conn(writer)
        self._conns.add(conn)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # over-long frame: the stream can't be resynced
                    # mid-line, so tell this client why and close only
                    # its connection — every other connection (and the
                    # batcher) keeps running
                    await conn.send(_error_frame(
                        None, None, "bad_request",
                        f"frame exceeds max_line="
                        f"{self.config.max_line} bytes",
                    ))
                    break
                except ConnectionError:
                    break  # torn connection
                except asyncio.CancelledError:
                    break  # server teardown with the connection open
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    msg = decode(line)
                except ValueError as exc:
                    await conn.send(_error_frame(
                        None, None, "bad_request", f"unparseable frame: {exc}"
                    ))
                    continue
                try:
                    await self._dispatch(conn, msg)
                except Exception as exc:
                    # one hostile/malformed frame must never take down
                    # the connection loop, let alone the server
                    await conn.send(_error_frame(
                        msg.get("op"), msg.get("id"), "internal_error",
                        f"{type(exc).__name__}: {exc}",
                    ))
        finally:
            conn.alive = False
            self._conns.discard(conn)
            # orphaned queued jobs: nobody is left to read the results
            for entry in list(conn.entries.values()):
                if entry.state == PENDING and self.batcher.discard(entry):
                    entry.settle()
                    entry.state = CANCELLED
                    self._c["cancelled"].inc()
            with contextlib.suppress(Exception):
                writer.close()

    async def _dispatch(self, conn: _Conn, msg: dict) -> None:
        op = msg.get("op")
        if op == "submit":
            await self._op_submit(conn, msg)
        elif op == "cancel":
            await self._op_cancel(conn, msg)
        elif op == "stats":
            await conn.send({
                "ok": True,
                "op": "stats",
                "stats": self.stats_snapshot(
                    samples=bool(msg.get("samples"))
                ),
            })
        elif op == "metrics":
            await conn.send({"ok": True, "op": "metrics",
                             "metrics": self.metrics_snapshot()})
        elif op == "trace":
            tid = msg.get("trace_id")
            if not isinstance(tid, str) or not tid:
                await conn.send(_error_frame(
                    "trace", msg.get("id"), "bad_request",
                    "trace needs a trace_id string",
                ))
                return
            await conn.send({
                "ok": True,
                "op": "trace",
                "trace_id": tid,
                "spans": [s.to_wire() for s in tracer.spans(tid)],
            })
        elif op == "ping":
            await conn.send({"ok": True, "op": "ping",
                             "version": PROTOCOL_VERSION})
        elif op == "shutdown":
            await conn.send({
                "ok": True,
                "op": "shutdown",
                "draining": self.batcher.depth + self.batcher.in_flight,
            })
            self.begin_shutdown()
        else:
            await conn.send(_error_frame(
                op, msg.get("id"), "bad_request", f"unknown op {op!r}"
            ))

    async def _op_submit(self, conn: _Conn, msg: dict) -> None:
        req_id = msg.get("id")
        if not isinstance(req_id, str) or "job" not in msg:
            await conn.send(_error_frame(
                "submit", req_id, "bad_request",
                "submit needs a string id and a job object",
            ))
            return
        if req_id in conn.entries:
            await conn.send(_submit_error(
                req_id, "bad_request", "duplicate in-flight request id"
            ))
            return
        try:
            job = job_from_wire(msg["job"])
        except Exception as exc:
            await conn.send(_submit_error(
                req_id, "bad_request", f"malformed job: {exc}"
            ))
            return
        if self._draining:
            await conn.send(_submit_error(
                req_id, "shutting_down", "server is draining"
            ))
            return
        # every accepted job gets a trace id: frame-level wins (lets a
        # client correlate across services), then the job's own, else a
        # fresh one — the reply frame echoes whichever was used
        trace_id = msg.get("trace_id") or job.trace_id or new_trace_id()
        if job.trace_id != trace_id:
            job = replace(job, trace_id=trace_id)
        entry = _Entry(conn, req_id, job)
        if not self.batcher.offer(entry):
            self._c["rejected"].inc()
            await conn.send(_submit_error(
                req_id, "queue_full",
                f"queue at max_queue={self.config.max_queue}",
                queue_depth=self.batcher.depth,
            ))
            return
        self._c["submitted"].inc()
        conn.entries[req_id] = entry
        deadline_ms = msg.get("deadline_ms")
        if deadline_ms is not None:
            loop = asyncio.get_running_loop()
            entry.deadline_handle = loop.call_later(
                max(0.0, float(deadline_ms)) / 1000.0, self._expire, entry
            )

    def _expire(self, entry: _Entry) -> None:
        if entry.state == PENDING:
            self.batcher.discard(entry)
        elif entry.state != RUNNING:
            return
        entry.settle()
        entry.state = EXPIRED
        self._c["expired"].inc()
        self._post(entry.conn, _submit_error(
            entry.req_id, "deadline_expired",
            "deadline passed before a result was ready",
        ))

    async def _op_cancel(self, conn: _Conn, msg: dict) -> None:
        req_id = msg.get("id")
        entry = conn.entries.get(req_id) if isinstance(req_id, str) else None
        found = entry is not None and entry.state == PENDING \
            and self.batcher.discard(entry)
        if found:
            entry.settle()
            entry.state = CANCELLED
            self._c["cancelled"].inc()
            await conn.send(_submit_error(
                req_id, "cancelled", "cancelled by client"
            ))
        await conn.send({
            "ok": True, "op": "cancel", "id": req_id, "found": bool(found),
        })

    # -- stats / metrics ---------------------------------------------------

    def stats_snapshot(self, samples: bool = False) -> dict:
        """Service stats.  With ``samples=True`` each ``latency_ms``
        stage additionally carries its raw sample ring (the metrics
        registry's bounded window) so an aggregator — the fleet router —
        can compute *exact* percentiles over pooled samples instead of
        averaging per-shard percentiles."""
        uptime = time.monotonic() - self._t0
        done = self.completed + self.failed
        cache: dict = {
            "jobs_hit": self.jobs_cache_hit,
            "jobs_done": done,
            "hit_rate": self.jobs_cache_hit / done if done else 0.0,
        }
        if self.cache is not None:
            cs = self.cache.stats
            cache["engine"] = {
                "memory_hits": cs.hits,
                "disk_hits": cs.disk_hits,
                "compiles": cs.misses,
                "entries": len(self.cache),
            }
        return {
            "uptime_s": uptime,
            "draining": self._draining,
            "queue_depth": self.batcher.depth,
            "in_flight": self.batcher.in_flight,
            "max_queue": self.config.max_queue,
            "max_batch": self.config.max_batch,
            "pool_size": self.config.pool_size,
            "batches": self.batcher.batches,
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "rejected": self.rejected,
            "expired": self.expired,
            "cancelled": self.cancelled,
            "jobs_per_s": done / uptime if uptime > 0 else 0.0,
            "cache": cache,
            "snapshot": {
                "dir": self.config.snapshot_dir,
                "interval_s": self.config.snapshot_interval_s,
                "writes": int(
                    self.registry.counter("service.snapshot.writes").value
                ),
                "restored": int(
                    self.registry.gauge("service.snapshot.restored").value
                ),
            },
            "latency_ms": {
                stage: self._stage_summary(h, samples)
                for stage, h in self._h.items()
            },
        }

    @staticmethod
    def _stage_summary(h, with_samples: bool) -> dict:
        ring = h.samples()
        out = LatencySummary.from_samples(ring).to_json()
        if with_samples:
            out["samples"] = [float(x) for x in ring]
        return out

    def metrics_snapshot(self) -> dict:
        """Full registry dump for the ``metrics`` op.  Point-in-time
        gauges (queue depth, engine cache state) are refreshed here so
        the snapshot is self-consistent."""
        self.registry.gauge("service.queue_depth").set(self.batcher.depth)
        self.registry.gauge("service.in_flight").set(self.batcher.in_flight)
        self.registry.gauge("service.batches").set(self.batcher.batches)
        self.registry.gauge("service.uptime_s").set(
            time.monotonic() - self._t0
        )
        if self.cache is not None:
            cs = self.cache.stats
            self.registry.gauge("engine.cache.memory_hits").set(cs.hits)
            self.registry.gauge("engine.cache.disk_hits").set(cs.disk_hits)
            self.registry.gauge("engine.cache.compiles").set(cs.misses)
            self.registry.gauge("engine.cache.disk_writes").set(
                cs.disk_writes
            )
            self.registry.gauge("engine.cache.entries").set(len(self.cache))
        return self.registry.snapshot()


# -- frame helpers ----------------------------------------------------------


def _error_frame(op, req_id, code: str, detail: str) -> dict:
    frame = {"ok": False, "op": op, "error": code, "detail": detail}
    if req_id is not None:
        frame["id"] = req_id
    return frame


def _submit_error(req_id, code: str, detail: str, **extra) -> dict:
    frame = _error_frame("submit", req_id, code, detail)
    frame.update(extra)
    return frame


async def serve(config: ServiceConfig) -> ServiceServer:
    """Start a server on the current event loop; caller awaits
    :meth:`ServiceServer.serve_forever`."""
    server = ServiceServer(config)
    await server.start()
    return server
