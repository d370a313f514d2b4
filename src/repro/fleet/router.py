"""The fleet front end: a consistent-hash router over N backend shards.

Clients speak the *unchanged* JSON-lines protocol of
:mod:`repro.service.protocol` to the router; the router speaks the same
protocol to its shards, so the wire format is also the inter-node
format and every existing client (``ServiceClient``, ``repro submit``,
the load generator) works against a fleet by pointing at the router's
socket.

Contracts (DESIGN.md §12):

* **Graph affinity** — each ``submit`` is hashed by its graph-cache key
  (:func:`repro.engine.cache.graph_key`) onto the ring, so repeated
  submissions of one (source, options) pair hit one shard's warm cache.
* **Hot replication** — once a key has been routed ``hot_threshold``
  times (hotness read from the router's metrics registry), it becomes
  eligible for ``replication`` ring successors, chosen load-aware
  (least outstanding first); each replica warms its own cache on first
  contact.
* **Backpressure end-to-end** — a shard's ``queue_full`` passes through
  verbatim, and the router itself rejects with ``queue_full`` once a
  shard has ``max_pending`` jobs outstanding (queued here + in flight
  there), so a dead or slow shard cannot buffer unboundedly.
* **Deadlines end-to-end** — ``deadline_ms`` is armed at the router on
  accept; time spent queued here is subtracted before forwarding, and a
  job whose deadline lapses while queued at the router (e.g. its shard
  is respawning) is rejected on time with ``deadline_expired``.
* **Failure model** — a shard crash is detected as a torn connection:
  jobs *in flight on that shard* fail individually with
  ``shard_failed``; jobs queued at the router survive and are delivered
  after the supervisor respawns the shard on the same ring position.
  Nothing else is affected.
* **Drain** — ``shutdown`` stops intake, delivers every accepted job's
  result, then gracefully drains each shard.  Zero accepted results are
  lost.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import time
from collections import deque
from dataclasses import dataclass, field

from ..engine.cache import graph_key
from ..obs.metrics import MetricsRegistry
from ..service.protocol import (
    MAX_LINE,
    PROTOCOL_VERSION,
    decode,
    encode,
    job_from_wire,
)
from .ring import HashRing
from .shards import ShardProcess

# entry lifecycle at the router
QUEUED = "queued"  # in a shard link's outbox
SENT = "sent"  # forwarded; the shard owns it now
DONE = "done"  # replied (result, rejection, expiry, or failure)

ROUTER_COUNTERS = (
    "submitted", "completed", "failed", "rejected", "expired", "cancelled",
    "shard_failed", "forwarded_rejects", "replicated", "respawns",
)

#: how long one control RPC to a shard may take before it is skipped
CONTROL_TIMEOUT_S = 10.0


@dataclass
class FleetConfig:
    """Router listen address, fleet shape, and per-shard server knobs."""

    path: str | None = None  # router UNIX socket (wins over host/port)
    host: str = "127.0.0.1"
    port: int = 0
    shards: int = 2
    replication: int = 2  # ring successors a hot graph may use
    hot_threshold: int = 4  # routings of one key before it counts as hot
    vnodes: int = 64
    max_pending: int = 128  # per-shard cap: queued here + in flight there
    respawn: bool = True
    socket_dir: str | None = None  # shard sockets + logs (required)
    connect_backoff_s: float = 0.05
    connect_retries: int = 60
    # per-shard server knobs, passed straight to ``repro serve``
    max_queue: int = 64
    max_batch: int = 8
    pool_size: int = 1
    # one disk cache shared by every shard: graph pickles are written
    # atomically and content-addressed, so concurrent shards are safe,
    # and a respawned shard comes back up with a warm disk tier
    cache_dir: str | None = None
    # warm restart: each shard snapshots its memory tier to
    # ``<snapshot_dir>/shard-<i>`` (per-shard subdirectories — shard
    # identity is its ring index, so a respawn restores its own entries)
    snapshot_dir: str | None = None
    snapshot_interval_s: float = 0.0

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("a fleet needs at least one shard")
        if self.replication < 1:
            raise ValueError("replication must be >= 1")
        if self.path is None and self.host is None:
            raise ValueError("need a UNIX socket path or a TCP host")


class _ClientConn:
    """Per-client-connection state: serialized writes + live entries."""

    __slots__ = ("writer", "lock", "entries", "alive")

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.lock = asyncio.Lock()
        self.entries: dict[str, _FleetEntry] = {}
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


class _FleetEntry:
    """One accepted submit travelling router → shard → router → client."""

    __slots__ = (
        "conn", "client_id", "rid", "job_wire", "key", "link", "state",
        "deadline_ms", "deadline_handle", "trace_id", "t_submit", "t_sent",
    )

    def __init__(self, conn: _ClientConn, client_id: str, rid: str,
                 job_wire: dict, key: str, trace_id):
        self.conn = conn
        self.client_id = client_id
        self.rid = rid
        self.job_wire = job_wire
        self.key = key
        self.link: ShardLink | None = None
        self.state = QUEUED
        self.deadline_ms: float | None = None
        self.deadline_handle: asyncio.TimerHandle | None = None
        self.trace_id = trace_id
        self.t_submit = time.monotonic()
        self.t_sent: float | None = None

    def settle(self) -> None:
        self.state = DONE
        if self.deadline_handle is not None:
            self.deadline_handle.cancel()
            self.deadline_handle = None
        if self.conn.entries.get(self.client_id) is self:
            del self.conn.entries[self.client_id]


class ShardLink:
    """The router's connection to one shard: outbox, in-flight map, and
    the reader that routes shard replies back to client entries."""

    def __init__(self, router: FleetRouter, shard: ShardProcess):
        self.router = router
        self.shard = shard
        self.outbox: deque[_FleetEntry] = deque()
        self.inflight: dict[str, _FleetEntry] = {}
        self.connected = asyncio.Event()
        self.down = False  # permanently down (no respawn); outbox only
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._wlock = asyncio.Lock()
        self._have_work = asyncio.Event()
        self._control: dict[str, deque[asyncio.Future]] = {}
        self._cancels: dict[str, asyncio.Future] = {}
        self._tasks: list[asyncio.Task] = []

    @property
    def outstanding(self) -> int:
        """Jobs this shard is responsible for right now (router outbox +
        shard in-flight) — the load-aware routing signal and the
        ``max_pending`` backpressure measure."""
        return len(self.outbox) + len(self.inflight)

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._tasks = [
            loop.create_task(self._run()),
            loop.create_task(self._pump()),
        ]

    async def stop(self) -> None:
        for t in self._tasks:
            t.cancel()
        for t in self._tasks:
            with contextlib.suppress(asyncio.CancelledError):
                await t
        self._tasks = []
        await self._close_transport()

    async def _close_transport(self) -> None:
        self.connected.clear()
        if self._writer is not None:
            with contextlib.suppress(Exception):
                self._writer.close()
            self._writer = None
        self._reader = None

    async def _connect(self) -> bool:
        """Dial the shard with capped exponential backoff (it may still
        be binding its socket).  False once retries are exhausted."""
        cfg = self.router.config
        delay = cfg.connect_backoff_s
        for _ in range(cfg.connect_retries):
            if self.router.closing:
                return False
            try:
                self._reader, self._writer = await asyncio.open_unix_connection(
                    self.shard.socket_path, limit=MAX_LINE
                )
                return True
            except (ConnectionError, FileNotFoundError, OSError):
                await asyncio.sleep(delay)
                delay = min(delay * 2, 1.0)
        return False

    async def _run(self) -> None:
        """Supervision loop: connect, pump replies until the connection
        tears, fail what was in flight, respawn, repeat."""
        saw_eof = False
        while not self.router.closing:
            if saw_eof and self.shard.alive:
                # an EOF almost always means the shard died, but poll()
                # can lag a SIGKILL by a few ms — settle the process
                # state before deciding, or we would reconnect to the
                # dead server's stale socket instead of respawning
                for _ in range(200):
                    if not self.shard.alive or self.router.closing:
                        break
                    await asyncio.sleep(0.01)
            saw_eof = False
            if not self.shard.alive and not self.router.closing:
                if not self.router.config.respawn and self.shard.spawns > 0:
                    # crashed with respawn disabled: queued entries stay
                    # queued for their deadlines; nothing to supervise
                    self.down = True
                    return
                if self.shard.spawns > 0:
                    self.router.count("respawns")
                self.shard.spawn()
            if not await self._connect():
                if self.router.closing:
                    return
                continue
            self.connected.set()
            self.router.refresh_live_gauge()
            try:
                await self._read_loop()
            except (ConnectionError, ValueError, OSError):
                pass  # torn mid-frame: same as EOF
            finally:
                saw_eof = True
                await self._close_transport()
                self.router.refresh_live_gauge()
                if not self.router.closing:
                    self._fail_inflight(
                        "shard_failed",
                        f"shard {self.shard.index} connection lost",
                    )
                self._fail_controls()

    async def _read_loop(self) -> None:
        while True:
            line = await self._reader.readline()
            if not line:
                return  # EOF: shard died or drained away
            try:
                frame = decode(line)
            except ValueError:
                continue  # a torn frame; the link will EOF right after
            op = frame.get("op")
            if op == "submit" and "id" in frame:
                entry = self.inflight.pop(frame["id"], None)
                if entry is not None and entry.state is SENT:
                    self.router.finish(entry, frame)
            elif op == "cancel":
                fut = self._cancels.pop(frame.get("id"), None)
                if fut is not None and not fut.done():
                    fut.set_result(frame)
            else:
                waiters = self._control.get(op)
                if waiters:
                    fut = waiters.popleft()
                    if not fut.done():
                        fut.set_result(frame)

    # -- forwarding -------------------------------------------------------

    def enqueue(self, entry: _FleetEntry) -> None:
        entry.link = self
        self.outbox.append(entry)
        self._have_work.set()

    async def _pump(self) -> None:
        """Single writer: drain the outbox into the shard connection.
        Runs only while connected; a down link leaves entries queued
        (their deadline timers still fire)."""
        while True:
            if not self.outbox:
                self._have_work.clear()
                await self._have_work.wait()
                continue
            await self.connected.wait()
            if not self.outbox:
                continue
            entry = self.outbox.popleft()
            if entry.state is not QUEUED:
                continue  # expired or cancelled while queued
            frame = {"op": "submit", "id": entry.rid, "job": entry.job_wire}
            if entry.trace_id:
                frame["trace_id"] = entry.trace_id
            if entry.deadline_ms is not None:
                remaining = entry.deadline_ms - (
                    (time.monotonic() - entry.t_submit) * 1e3
                )
                if remaining <= 0:
                    self.router.expire(entry)
                    continue
                frame["deadline_ms"] = remaining
            entry.state = SENT
            entry.t_sent = time.monotonic()
            self.inflight[entry.rid] = entry
            sent = False
            writer = None
            try:
                async with self._wlock:
                    writer = self._writer
                    if writer is not None:
                        writer.write(encode(frame))
                        await writer.drain()
                        sent = True
            except (ConnectionError, RuntimeError, OSError):
                pass
            if sent:
                # the shard's timer owns expiry from here on
                if entry.deadline_handle is not None:
                    entry.deadline_handle.cancel()
                    entry.deadline_handle = None
                continue
            if (
                self.inflight.pop(entry.rid, None) is not None
                and entry.state is SENT
            ):
                # the write raced a torn connection and the reader has
                # not failed this entry: put it back for the reconnect
                entry.state = QUEUED
                self.outbox.appendleft(entry)
            if writer is not None and writer is self._writer:
                # The reader has not torn this connection down yet.  Wait
                # for _run to reconnect instead of writing into it again:
                # once the stream holds an error, drain() raises without
                # yielding, so retrying here would spin the event loop
                # and starve the reader that ends the connection.
                self.connected.clear()
                writer.close()

    def _fail_inflight(self, code: str, detail: str) -> None:
        entries = list(self.inflight.values())
        self.inflight.clear()
        for entry in entries:
            if entry.state is SENT:
                self.router.fail(entry, code, detail)

    def _fail_controls(self) -> None:
        for waiters in self._control.values():
            while waiters:
                fut = waiters.popleft()
                if not fut.done():
                    fut.set_result(None)
        for fut in self._cancels.values():
            if not fut.done():
                fut.set_result({"found": False})
        self._cancels.clear()

    def fail_queued(self, code: str, detail: str) -> None:
        """Reject everything still in the outbox (terminal drain of a
        permanently-down shard)."""
        while self.outbox:
            entry = self.outbox.popleft()
            if entry.state is QUEUED:
                self.router.fail(entry, code, detail)

    # -- control RPCs -----------------------------------------------------

    async def request(self, op: str, timeout: float = CONTROL_TIMEOUT_S,
                      **fields) -> dict | None:
        """One control round trip (stats/metrics/trace/shutdown); None
        when the shard is unreachable or slow."""
        if not self.connected.is_set():
            return None
        fut = asyncio.get_running_loop().create_future()
        self._control.setdefault(op, deque()).append(fut)
        try:
            async with self._wlock:
                self._writer.write(encode({"op": op, **fields}))
                await self._writer.drain()
            return await asyncio.wait_for(fut, timeout)
        except (ConnectionError, RuntimeError, OSError, asyncio.TimeoutError,
                TimeoutError):
            return None

    async def forward_cancel(self, rid: str,
                             timeout: float = CONTROL_TIMEOUT_S) -> bool:
        if not self.connected.is_set():
            return False
        fut = asyncio.get_running_loop().create_future()
        self._cancels[rid] = fut
        try:
            async with self._wlock:
                self._writer.write(encode({"op": "cancel", "id": rid}))
                await self._writer.drain()
            frame = await asyncio.wait_for(fut, timeout)
            return bool(frame and frame.get("found"))
        except (ConnectionError, RuntimeError, OSError, asyncio.TimeoutError,
                TimeoutError):
            return False
        finally:
            self._cancels.pop(rid, None)


class FleetRouter:
    """The front-end process: client listener, hash ring, shard links,
    and the fleet-level metrics registry."""

    def __init__(self, config: FleetConfig):
        if config.socket_dir is None:
            raise ValueError("FleetConfig.socket_dir is required")
        self.config = config
        os.makedirs(config.socket_dir, exist_ok=True)
        self.shards = [
            ShardProcess(
                i,
                os.path.join(config.socket_dir, f"shard-{i}.sock"),
                max_queue=config.max_queue,
                max_batch=config.max_batch,
                pool_size=config.pool_size,
                cache_dir=config.cache_dir,
                log_path=os.path.join(config.socket_dir, f"shard-{i}.log"),
                snapshot_dir=(
                    os.path.join(config.snapshot_dir, f"shard-{i}")
                    if config.snapshot_dir is not None
                    else None
                ),
                snapshot_interval_s=config.snapshot_interval_s,
            )
            for i in range(config.shards)
        ]
        self.links = [ShardLink(self, sp) for sp in self.shards]
        self.ring = HashRing(range(config.shards), vnodes=config.vnodes)
        self.closing = False
        self._draining = False
        self._server: asyncio.AbstractServer | None = None
        self._conns: set[_ClientConn] = set()
        self._replies: set[asyncio.Task] = set()
        self._shutdown_ev: asyncio.Event | None = None
        self._rid_counter = 0
        self._t0 = time.monotonic()
        self.registry = MetricsRegistry()
        self._c = {
            name: self.registry.counter(f"fleet.jobs.{name}")
            for name in ROUTER_COUNTERS
        }
        self._h = {
            "route": self.registry.histogram("fleet.latency_ms.route"),
            "total": self.registry.histogram("fleet.latency_ms.total"),
        }
        self._hot_gauge = self.registry.gauge("fleet.graphs.hot")

    def count(self, name: str, n: int = 1) -> None:
        self._c[name].inc(n)

    def refresh_live_gauge(self) -> None:
        self.registry.gauge("fleet.shards.live").set(
            sum(1 for link in self.links if link.connected.is_set())
        )

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        cfg = self.config
        self._shutdown_ev = asyncio.Event()
        for sp in self.shards:
            sp.spawn()
        for link in self.links:
            link.start()
        if cfg.path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_conn, path=cfg.path, limit=MAX_LINE
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_conn, host=cfg.host, port=cfg.port,
                limit=MAX_LINE,
            )
        self._t0 = time.monotonic()

    @property
    def endpoint(self) -> dict:
        if self.config.path is not None:
            return {"path": self.config.path}
        assert self._server is not None and self._server.sockets
        host, port = self._server.sockets[0].getsockname()[:2]
        return {"host": host, "port": port}

    def begin_shutdown(self) -> None:
        """Start the drain; idempotent, callable from signal handlers."""
        if self._draining:
            return
        self._draining = True
        if self._shutdown_ev is not None:
            self._shutdown_ev.set()

    @property
    def pending(self) -> int:
        """Accepted jobs not yet replied to (queued here + on shards)."""
        return sum(link.outstanding for link in self.links)

    async def serve_forever(self) -> None:
        assert self._shutdown_ev is not None, "call start() first"
        await self._shutdown_ev.wait()
        # 1. every accepted job must settle: shard links keep pumping
        #    and replying; permanently-down links fail their queue now
        while True:
            for link in self.links:
                if link.down or (
                    not link.shard.alive and not self.config.respawn
                ):
                    link.fail_queued(
                        "shard_failed",
                        f"shard {link.shard.index} is down at drain",
                    )
            if self.pending == 0:
                break
            await asyncio.sleep(0.02)
        # 2. flush every reply task to the client sockets
        while self._replies:
            await asyncio.gather(*list(self._replies), return_exceptions=True)
        # 3. now the shards can go: graceful drain via their own protocol
        self.closing = True
        await asyncio.gather(
            *[self._stop_shard(link) for link in self.links],
            return_exceptions=True,
        )
        for link in self.links:
            await link.stop()
        await self._teardown()

    async def _stop_shard(self, link: ShardLink) -> None:
        if link.connected.is_set():
            await link.request("shutdown", timeout=5.0)
        elif link.shard.alive:
            link.shard.terminate()
        exited = await asyncio.to_thread(link.shard.wait, 15.0)
        if exited is None:
            link.shard.kill()
            await asyncio.to_thread(link.shard.wait, 5.0)

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

    def _post(self, conn: _ClientConn, frame: dict) -> None:
        task = asyncio.get_running_loop().create_task(conn.send(frame))
        self._replies.add(task)
        task.add_done_callback(self._replies.discard)

    # -- entry settlement --------------------------------------------------

    def finish(self, entry: _FleetEntry, frame: dict) -> None:
        """A shard replied for ``entry``: account, re-address the frame
        to the client's request id, and deliver."""
        entry.settle()
        now = time.monotonic()
        self._h["total"].observe((now - entry.t_submit) * 1e3)
        if entry.t_sent is not None:
            self._h["route"].observe((entry.t_sent - entry.t_submit) * 1e3)
        if frame.get("ok"):
            result = frame.get("result") or {}
            if result.get("error") is None:
                self.count("completed")
            else:
                self.count("failed")
        else:
            self.count("forwarded_rejects")
        frame["id"] = entry.client_id
        self._post(entry.conn, frame)

    def fail(self, entry: _FleetEntry, code: str, detail: str) -> None:
        entry.settle()
        if code == "shard_failed":
            self.count("shard_failed")
        self._post(entry.conn, _submit_error(entry.client_id, code, detail))

    def expire(self, entry: _FleetEntry) -> None:
        if entry.state is not QUEUED:
            return
        if entry.link is not None:
            with contextlib.suppress(ValueError):
                entry.link.outbox.remove(entry)
        entry.settle()
        self.count("expired")
        self._post(entry.conn, _submit_error(
            entry.client_id, "deadline_expired",
            "deadline passed while queued at the router",
        ))

    # -- routing ----------------------------------------------------------

    def route(self, key: str) -> ShardLink:
        """Pick the shard for ``key``: the ring primary while cold; once
        hot, the least-loaded of the key's ``replication`` ring
        successors (preferring connected links)."""
        hits = self.registry.counter(f"fleet.graph_hits.{key[:16]}")
        hits.inc()
        if hits.value == self.config.hot_threshold:
            self._hot_gauge.inc()
        n = 1
        if hits.value >= self.config.hot_threshold:
            n = self.config.replication
        candidates = [self.links[i] for i in self.ring.lookup(key, n)]
        if len(candidates) == 1:
            return candidates[0]
        best = min(
            candidates,
            key=lambda lk: (not lk.connected.is_set(), lk.outstanding),
        )
        if best is not candidates[0]:
            self.count("replicated")
        return best

    # -- client connections ------------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _ClientConn(writer)
        self._conns.add(conn)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, ConnectionError):
                    break
                except asyncio.CancelledError:
                    break
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
                except Exception as exc:  # a bad frame never kills the loop
                    await conn.send(_error_frame(
                        msg.get("op"), msg.get("id"), "internal_error",
                        f"{type(exc).__name__}: {exc}",
                    ))
        finally:
            conn.alive = False
            self._conns.discard(conn)
            # orphaned queued entries: nobody is left to read the result
            for entry in list(conn.entries.values()):
                if entry.state is QUEUED and entry.link is not None:
                    with contextlib.suppress(ValueError):
                        entry.link.outbox.remove(entry)
                    entry.settle()
                    self.count("cancelled")
            with contextlib.suppress(Exception):
                writer.close()

    async def _dispatch(self, conn: _ClientConn, msg: dict) -> None:
        op = msg.get("op")
        if op == "submit":
            await self._op_submit(conn, msg)
        elif op == "cancel":
            await self._op_cancel(conn, msg)
        elif op == "stats":
            await conn.send({"ok": True, "op": "stats",
                             "stats": await self.stats_snapshot()})
        elif op == "metrics":
            await conn.send({"ok": True, "op": "metrics",
                             "metrics": await self.metrics_snapshot()})
        elif op == "trace":
            tid = msg.get("trace_id")
            if not isinstance(tid, str) or not tid:
                await conn.send(_error_frame(
                    "trace", msg.get("id"), "bad_request",
                    "trace needs a trace_id string",
                ))
                return
            spans: list = []
            for reply in await asyncio.gather(
                *[lk.request("trace", trace_id=tid) for lk in self.links]
            ):
                if reply and reply.get("ok"):
                    spans.extend(reply.get("spans", []))
            await conn.send({"ok": True, "op": "trace", "trace_id": tid,
                             "spans": spans})
        elif op == "ping":
            await conn.send({
                "ok": True, "op": "ping", "version": PROTOCOL_VERSION,
                "fleet": {
                    "shards": len(self.links),
                    "live": sum(
                        1 for lk in self.links if lk.connected.is_set()
                    ),
                },
            })
        elif op == "shutdown":
            await conn.send({"ok": True, "op": "shutdown",
                             "draining": self.pending})
            self.begin_shutdown()
        else:
            await conn.send(_error_frame(
                op, msg.get("id"), "bad_request", f"unknown op {op!r}"
            ))

    async def _op_submit(self, conn: _ClientConn, msg: dict) -> None:
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
                req_id, "shutting_down", "fleet is draining"
            ))
            return
        key = graph_key(job.source, job.options)
        link = self.route(key)
        if link.outstanding >= self.config.max_pending:
            self.count("rejected")
            await conn.send(_submit_error(
                req_id, "queue_full",
                f"shard {link.shard.index} at max_pending="
                f"{self.config.max_pending}",
                queue_depth=link.outstanding,
            ))
            return
        self._rid_counter += 1
        entry = _FleetEntry(
            conn, req_id, f"f{self._rid_counter}", msg["job"], key,
            msg.get("trace_id") or job.trace_id or None,
        )
        conn.entries[req_id] = entry
        self.count("submitted")
        deadline_ms = msg.get("deadline_ms")
        if deadline_ms is not None:
            entry.deadline_ms = max(0.0, float(deadline_ms))
            entry.deadline_handle = asyncio.get_running_loop().call_later(
                entry.deadline_ms / 1000.0, self.expire, entry
            )
        link.enqueue(entry)

    async def _op_cancel(self, conn: _ClientConn, msg: dict) -> None:
        req_id = msg.get("id")
        entry = conn.entries.get(req_id) if isinstance(req_id, str) else None
        found = False
        if entry is not None and entry.state is QUEUED:
            if entry.link is not None:
                with contextlib.suppress(ValueError):
                    entry.link.outbox.remove(entry)
            entry.settle()
            self.count("cancelled")
            found = True
            await conn.send(_submit_error(
                req_id, "cancelled", "cancelled by client"
            ))
        elif entry is not None and entry.state is SENT:
            # the shard owns it; forward and relay its verdict (a found
            # cancel also produces a submit-error frame, which flows back
            # through the normal in-flight path)
            found = await entry.link.forward_cancel(entry.rid)
        await conn.send({
            "ok": True, "op": "cancel", "id": req_id, "found": bool(found),
        })

    # -- stats / metrics ---------------------------------------------------

    async def _shard_replies(self, op: str, **fields) -> list[dict | None]:
        return list(await asyncio.gather(
            *[link.request(op, **fields) for link in self.links]
        ))

    async def stats_snapshot(self) -> dict:
        """Fleet-wide stats: aggregated counters, router-observed
        latencies, and a per-shard breakdown.

        Top-level ``latency_ms.queue``/``latency_ms.total`` are measured
        at the router (time queued here; submit→reply).  ``compile`` and
        ``sim`` percentiles are computed over the shards' *pooled* raw
        sample rings (requested with ``samples=True``) — per-shard
        percentiles do not compose, and a count-weighted average of them
        systematically under-reports tail latency when shards are
        skewed.  ``count``/``mean``/``max`` compose exactly either way.
        """
        from ..engine.latency import LatencySummary

        replies = await self._shard_replies("stats", samples=True)
        shards: dict[str, dict] = {}
        for link, reply in zip(self.links, replies):
            idx = str(link.shard.index)
            if reply is None or not reply.get("ok"):
                shards[idx] = {
                    "up": False,
                    "alive_process": link.shard.alive,
                    "outstanding_at_router": link.outstanding,
                }
            else:
                st = reply["stats"]
                st["up"] = True
                st["outstanding_at_router"] = link.outstanding
                shards[idx] = st
        up = [st for st in shards.values() if st.get("up")]

        def total(field: str) -> float:
            return sum(st.get(field, 0) for st in up)

        uptime = time.monotonic() - self._t0
        done = self._c["completed"].value + self._c["failed"].value
        cache = {
            "jobs_hit": sum(st["cache"]["jobs_hit"] for st in up),
            "jobs_done": sum(st["cache"]["jobs_done"] for st in up),
        }
        cache["hit_rate"] = (
            cache["jobs_hit"] / cache["jobs_done"] if cache["jobs_done"] else 0.0
        )
        engines = [st["cache"].get("engine") for st in up]
        engines = [e for e in engines if e]
        if engines:
            cache["engine"] = {
                k: sum(e[k] for e in engines)
                for k in ("memory_hits", "disk_hits", "compiles", "entries")
            }
        latency = {
            "queue": LatencySummary.from_samples(
                self._h["route"].samples()
            ).to_json(),
            "total": LatencySummary.from_samples(
                self._h["total"].samples()
            ).to_json(),
        }
        for stage in ("compile", "sim"):
            latency[stage] = _merge_latency(
                [st["latency_ms"][stage] for st in up]
            )
        # the rings served their purpose; keep the per-shard breakdown
        # (and the client-facing reply) summary-sized
        for st in up:
            for stage_summary in st.get("latency_ms", {}).values():
                stage_summary.pop("samples", None)
        return {
            "uptime_s": uptime,
            "draining": self._draining,
            "queue_depth": sum(len(lk.outbox) for lk in self.links)
            + int(total("queue_depth")),
            "in_flight": int(total("in_flight")),
            "max_queue": self.config.max_queue,
            "max_batch": self.config.max_batch,
            "pool_size": self.config.pool_size,
            "batches": int(total("batches")),
            "submitted": self._c["submitted"].value,
            "completed": self._c["completed"].value,
            "failed": self._c["failed"].value,
            "rejected": self._c["rejected"].value + int(total("rejected")),
            "expired": self._c["expired"].value + int(total("expired")),
            "cancelled": self._c["cancelled"].value + int(total("cancelled")),
            "jobs_per_s": done / uptime if uptime > 0 else 0.0,
            "cache": cache,
            "latency_ms": latency,
            "fleet": {
                "shards": len(self.links),
                "live": sum(
                    1 for lk in self.links if lk.connected.is_set()
                ),
                "replication": self.config.replication,
                "hot_threshold": self.config.hot_threshold,
                "hot_graphs": int(self._hot_gauge.value),
                "replicated_routes": self._c["replicated"].value,
                "respawns": self._c["respawns"].value,
                "shard_failed": self._c["shard_failed"].value,
                "rejected_at_router": self._c["rejected"].value,
                "forwarded_rejects": self._c["forwarded_rejects"].value,
                "max_pending": self.config.max_pending,
            },
            "shards": shards,
        }

    async def metrics_snapshot(self) -> dict:
        """Registry dump: the router's own instruments, shard counters
        and histograms aggregated in (sums; bucket-wise for histograms),
        and each shard's full snapshot under ``shards``."""
        self.registry.gauge("fleet.uptime_s").set(
            time.monotonic() - self._t0
        )
        self.registry.gauge("fleet.pending").set(self.pending)
        self.refresh_live_gauge()
        snap = self.registry.snapshot()
        replies = await self._shard_replies("metrics")
        shards: dict[str, dict] = {}
        for link, reply in zip(self.links, replies):
            idx = str(link.shard.index)
            if reply is None or not reply.get("ok"):
                shards[idx] = {"up": False}
                continue
            m = reply["metrics"]
            m["up"] = True
            shards[idx] = m
            for name, value in m.get("counters", {}).items():
                snap["counters"][name] = (
                    snap["counters"].get(name, 0) + value
                )
            for name, h in m.get("histograms", {}).items():
                agg = snap["histograms"].get(name)
                if agg is None:
                    snap["histograms"][name] = {
                        "count": h["count"], "sum": h["sum"],
                        "buckets": [list(b) for b in h["buckets"]],
                    }
                elif [b[0] for b in agg["buckets"]] == [
                    b[0] for b in h["buckets"]
                ]:
                    agg["count"] += h["count"]
                    agg["sum"] += h["sum"]
                    for mine, theirs in zip(agg["buckets"], h["buckets"]):
                        mine[1] += theirs[1]
        snap["shards"] = shards
        return snap


def _merge_latency(summaries: list[dict]) -> dict:
    """Merge per-shard :class:`LatencySummary` dicts into fleet totals.

    ``count``/``mean``/``max`` compose exactly from the summaries.
    Percentiles do not: a count-weighted average of per-shard p99s
    under-reports the fleet tail whenever one shard is slower than the
    rest (the slow shard's p99 gets diluted by the fast shards' counts
    even though the pooled p99 sits inside the slow shard's
    distribution).  When every shard shipped its raw sample ring we
    pool the rings and compute the percentiles directly; the weighted
    average survives only as a fallback for shards that predate the
    ``samples`` stats flag.
    """
    from ..engine.latency import percentile

    summaries = [s for s in summaries if s and s.get("count")]
    count = sum(s["count"] for s in summaries)
    if not count:
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0,
                "p99": 0.0, "max": 0.0}
    out = {"count": count, "max": max(s["max"] for s in summaries),
           "mean": sum(s["mean"] * s["count"] for s in summaries) / count}
    if all(s.get("samples") for s in summaries):
        pooled = sorted(x for s in summaries for x in s["samples"])
        for field_, q in (("p50", 50), ("p95", 95), ("p99", 99)):
            out[field_] = percentile(pooled, q)
    else:
        for field_ in ("p50", "p95", "p99"):
            out[field_] = sum(s[field_] * s["count"] for s in summaries) / count
    return out


def _error_frame(op, req_id, code: str, detail: str) -> dict:
    frame = {"ok": False, "op": op, "error": code, "detail": detail}
    if req_id is not None:
        frame["id"] = req_id
    return frame


def _submit_error(req_id, code: str, detail: str, **extra) -> dict:
    frame = _error_frame("submit", req_id, code, detail)
    frame.update(extra)
    return frame


async def serve_fleet(config: FleetConfig) -> FleetRouter:
    """Start a router (and its shards) on the current event loop; the
    caller awaits :meth:`FleetRouter.serve_forever`."""
    router = FleetRouter(config)
    await router.start()
    return router
