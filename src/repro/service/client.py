"""Clients for the compile/simulate service.

:class:`ServiceClient` is synchronous (plain sockets — usable from
threads, the CLI, and load generators); :class:`AsyncServiceClient` is
its asyncio twin.  Both speak the JSON-lines protocol of
:mod:`repro.service.protocol` and decode results back into real
:class:`~repro.engine.batch.BatchResult` objects, so code written
against ``engine.run_batch()`` ports to the service by swapping the
call.

Transport-level rejections (``queue_full``, ``deadline_expired``,
``cancelled``, ``shutting_down``) raise :class:`JobRejected` from
``submit``/``result``; :meth:`ServiceClient.submit_many` instead embeds
them as error-carrying results so a burst can count rejections without
losing its accepted siblings.  A job that *ran* and raised comes back as
a normal ``BatchResult`` with ``.ok == False`` — exactly like
``run_batch`` reports it.
"""

from __future__ import annotations

import itertools
import random
import socket
import time

from ..engine.batch import BatchJob, BatchResult
from .protocol import decode, encode, job_to_wire, result_from_wire

#: ceiling for one retry sleep, however many doublings have happened
_BACKOFF_CAP_S = 1.0

#: connect() failures worth retrying: the server is not there *yet*
#: (still binding its socket, or the router is respawning it)
_RETRYABLE = (ConnectionError, FileNotFoundError)


def _backoff_delays(retries: int, backoff_s: float, rng: random.Random):
    """Capped exponential backoff with jitter: one delay per retry.
    Jitter (0.5x-1.5x) keeps a burst of clients from reconnecting in
    lockstep against a server that just came up."""
    for attempt in range(retries):
        delay = min(backoff_s * (2 ** attempt), _BACKOFF_CAP_S)
        yield delay * (0.5 + rng.random())


class ServiceError(Exception):
    """Protocol or server-side error; ``code`` is the wire error code."""

    def __init__(self, code: str, detail: str = ""):
        super().__init__(f"{code}: {detail}" if detail else code)
        self.code = code
        self.detail = detail


class JobRejected(ServiceError):
    """The server refused or abandoned the job before producing a result
    (backpressure, deadline, cancellation, or drain)."""


def _rejection_result(job: BatchJob, index: int, code: str, detail: str
                      ) -> BatchResult:
    return BatchResult(
        name=job.name or f"job{index}",
        index=index,
        result=None,
        stats=None,
        compile_time=0.0,
        sim_time=0.0,
        cache_hit=False,
        error=code,
        traceback=detail or None,
    )


def _frame_to_result(frame: dict) -> BatchResult:
    if not frame.get("ok"):
        raise JobRejected(frame.get("error", "unknown"),
                          frame.get("detail", ""))
    return result_from_wire(frame["result"])


class ServiceClient:
    """Blocking client over a UNIX socket (``path=``) or TCP
    (``host=``/``port=``).  Connects lazily; usable as a context
    manager.  Not thread-safe — use one client per thread."""

    def __init__(
        self,
        path: str | None = None,
        host: str = "127.0.0.1",
        port: int | None = None,
        timeout: float | None = None,
        retries: int = 0,
        backoff_s: float = 0.05,
    ):
        if path is None and port is None:
            raise ValueError("need path= (UNIX socket) or port= (TCP)")
        if retries < 0 or backoff_s < 0:
            raise ValueError("retries and backoff_s must be >= 0")
        self._path, self._host, self._port = path, host, port
        self._timeout = timeout
        self._retries = retries
        self._backoff_s = backoff_s
        self._sock: socket.socket | None = None
        self._rfile = None
        self._ids = itertools.count()
        self._responses: dict[str, dict] = {}  # submit frames read early

    # -- transport --------------------------------------------------------

    def _connect_once(self) -> socket.socket:
        if self._path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.connect(self._path)
            except BaseException:
                sock.close()
                raise
            return sock
        return socket.create_connection((self._host, self._port))

    def connect(self) -> ServiceClient:
        if self._sock is not None:
            return self
        delays = _backoff_delays(self._retries, self._backoff_s,
                                 random.Random())
        while True:
            try:
                sock = self._connect_once()
                break
            except _RETRYABLE:
                delay = next(delays, None)
                if delay is None:
                    raise
                time.sleep(delay)
        sock.settimeout(self._timeout)
        self._sock = sock
        self._rfile = sock.makefile("rb")
        return self

    def close(self) -> None:
        if self._rfile is not None:
            self._rfile.close()
            self._rfile = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def __enter__(self) -> ServiceClient:
        return self.connect()

    def __exit__(self, *exc) -> None:
        self.close()

    def _send(self, frame: dict) -> None:
        self.connect()
        self._sock.sendall(encode(frame))

    def _read_frame(self) -> dict:
        line = self._rfile.readline()
        if not line:
            raise ServiceError("connection_closed",
                               "server closed the connection")
        return decode(line)

    def _wait_submit(self, req_id: str) -> dict:
        frame = self._responses.pop(req_id, None)
        while frame is None:
            got = self._read_frame()
            if got.get("op") == "submit" and "id" in got:
                if got["id"] == req_id:
                    frame = got
                else:
                    self._responses[got["id"]] = got
        return frame

    def _wait_control(self, op: str) -> dict:
        while True:
            got = self._read_frame()
            if got.get("op") == op:
                return got
            if got.get("op") == "submit" and "id" in got:
                self._responses[got["id"]] = got

    # -- job API ----------------------------------------------------------

    def start(self, job: BatchJob, deadline_ms: float | None = None) -> str:
        """Pipeline a submit; returns the request id for :meth:`result`."""
        req_id = f"r{next(self._ids)}"
        frame = {"op": "submit", "id": req_id, "job": job_to_wire(job)}
        if deadline_ms is not None:
            frame["deadline_ms"] = deadline_ms
        self._send(frame)
        return req_id

    def result(self, req_id: str) -> BatchResult:
        """Block for one pipelined submit's result.  Raises
        :class:`JobRejected` on transport-level rejection."""
        return _frame_to_result(self._wait_submit(req_id))

    def submit(
        self, job: BatchJob, deadline_ms: float | None = None
    ) -> BatchResult:
        return self.result(self.start(job, deadline_ms))

    def submit_many(
        self, jobs: list[BatchJob], deadline_ms: float | None = None
    ) -> list[BatchResult]:
        """Pipeline every job, collect in submission order.  Rejections
        come back as error-carrying results (``error`` set to the wire
        code), and indices are renumbered to the caller's job order."""
        ids = [self.start(job, deadline_ms) for job in jobs]
        out = []
        for i, (job, req_id) in enumerate(zip(jobs, ids)):
            try:
                br = self.result(req_id)
                br.index = i
            except JobRejected as exc:
                br = _rejection_result(job, i, exc.code, exc.detail)
            out.append(br)
        return out

    def cancel(self, req_id: str) -> bool:
        """Cancel a pipelined submit; True if it was still queued (its
        :meth:`result` will then raise ``cancelled``)."""
        self._send({"op": "cancel", "id": req_id})
        return bool(self._wait_control("cancel").get("found"))

    # -- control API -------------------------------------------------------

    def stats(self) -> dict:
        self._send({"op": "stats"})
        frame = self._wait_control("stats")
        if not frame.get("ok"):
            raise ServiceError(frame.get("error", "unknown"),
                               frame.get("detail", ""))
        return frame["stats"]

    def metrics(self) -> dict:
        """The server's full metrics-registry snapshot (counters,
        gauges, histograms)."""
        self._send({"op": "metrics"})
        frame = self._wait_control("metrics")
        if not frame.get("ok"):
            raise ServiceError(frame.get("error", "unknown"),
                               frame.get("detail", ""))
        return frame["metrics"]

    def trace(self, trace_id: str) -> list[dict]:
        """Spans the server holds for one trace id, as wire dicts
        (render with :func:`repro.obs.trace.render_tree`)."""
        self._send({"op": "trace", "trace_id": trace_id})
        frame = self._wait_control("trace")
        if not frame.get("ok"):
            raise ServiceError(frame.get("error", "unknown"),
                               frame.get("detail", ""))
        return frame["spans"]

    def ping(self) -> dict:
        self._send({"op": "ping"})
        return self._wait_control("ping")

    def shutdown(self) -> int:
        """Ask the server to drain and exit; returns the number of jobs
        it still had in the system when the drain started."""
        self._send({"op": "shutdown"})
        return int(self._wait_control("shutdown").get("draining", 0))


class AsyncServiceClient:
    """Asyncio client with the same surface as :class:`ServiceClient`
    (methods are coroutines).  Concurrent submits multiplex over one
    connection; a background reader routes frames to their futures."""

    def __init__(
        self,
        path: str | None = None,
        host: str = "127.0.0.1",
        port: int | None = None,
        retries: int = 0,
        backoff_s: float = 0.05,
    ):
        if path is None and port is None:
            raise ValueError("need path= (UNIX socket) or port= (TCP)")
        if retries < 0 or backoff_s < 0:
            raise ValueError("retries and backoff_s must be >= 0")
        self._path, self._host, self._port = path, host, port
        self._retries = retries
        self._backoff_s = backoff_s
        self._reader = None
        self._writer = None
        self._reader_task = None
        self._ids = itertools.count()
        self._submit_futs: dict[str, object] = {}
        self._control_futs: dict[str, list] = {}

    async def _connect_once(self) -> None:
        import asyncio

        from .protocol import MAX_LINE

        if self._path is not None:
            self._reader, self._writer = await asyncio.open_unix_connection(
                self._path, limit=MAX_LINE
            )
        else:
            self._reader, self._writer = await asyncio.open_connection(
                self._host, self._port, limit=MAX_LINE
            )

    async def connect(self) -> AsyncServiceClient:
        import asyncio

        if self._writer is not None:
            return self
        delays = _backoff_delays(self._retries, self._backoff_s,
                                 random.Random())
        while True:
            try:
                await self._connect_once()
                break
            except _RETRYABLE:
                delay = next(delays, None)
                if delay is None:
                    raise
                await asyncio.sleep(delay)
        self._reader_task = asyncio.create_task(self._read_loop())
        return self

    async def close(self) -> None:
        if self._reader_task is not None:
            self._reader_task.cancel()
            self._reader_task = None
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    async def __aenter__(self) -> AsyncServiceClient:
        return await self.connect()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def _read_loop(self) -> None:
        import asyncio

        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                frame = decode(line)
                op = frame.get("op")
                if op == "submit" and "id" in frame:
                    fut = self._submit_futs.get(frame["id"])
                    if fut is not None and not fut.done():
                        fut.set_result(frame)
                elif op in self._control_futs and self._control_futs[op]:
                    fut = self._control_futs[op].pop(0)
                    if not fut.done():
                        fut.set_result(frame)
        except asyncio.CancelledError:
            raise
        except Exception:
            pass
        finally:
            err = ServiceError("connection_closed",
                               "server closed the connection")
            for fut in self._submit_futs.values():
                if not fut.done():
                    fut.set_exception(err)
            for futs in self._control_futs.values():
                for fut in futs:
                    if not fut.done():
                        fut.set_exception(err)

    async def _send(self, frame: dict) -> None:
        await self.connect()
        self._writer.write(encode(frame))
        await self._writer.drain()

    async def _control(self, op: str, **fields) -> dict:
        import asyncio

        await self.connect()
        fut = asyncio.get_running_loop().create_future()
        self._control_futs.setdefault(op, []).append(fut)
        await self._send({"op": op, **fields})
        return await fut

    # -- job API ----------------------------------------------------------

    async def start(
        self, job: BatchJob, deadline_ms: float | None = None
    ) -> str:
        import asyncio

        await self.connect()
        req_id = f"a{next(self._ids)}"
        self._submit_futs[req_id] = asyncio.get_running_loop().create_future()
        frame = {"op": "submit", "id": req_id, "job": job_to_wire(job)}
        if deadline_ms is not None:
            frame["deadline_ms"] = deadline_ms
        await self._send(frame)
        return req_id

    async def result(self, req_id: str) -> BatchResult:
        fut = self._submit_futs.get(req_id)
        if fut is None:
            raise ServiceError("unknown_id", req_id)
        try:
            frame = await fut
        finally:
            self._submit_futs.pop(req_id, None)
        return _frame_to_result(frame)

    async def submit(
        self, job: BatchJob, deadline_ms: float | None = None
    ) -> BatchResult:
        return await self.result(await self.start(job, deadline_ms))

    async def cancel(self, req_id: str) -> bool:
        return bool((await self._control("cancel", id=req_id)).get("found"))

    # -- control API -------------------------------------------------------

    async def stats(self) -> dict:
        frame = await self._control("stats")
        if not frame.get("ok"):
            raise ServiceError(frame.get("error", "unknown"),
                               frame.get("detail", ""))
        return frame["stats"]

    async def metrics(self) -> dict:
        frame = await self._control("metrics")
        if not frame.get("ok"):
            raise ServiceError(frame.get("error", "unknown"),
                               frame.get("detail", ""))
        return frame["metrics"]

    async def trace(self, trace_id: str) -> list[dict]:
        frame = await self._control("trace", trace_id=trace_id)
        if not frame.get("ok"):
            raise ServiceError(frame.get("error", "unknown"),
                               frame.get("detail", ""))
        return frame["spans"]

    async def ping(self) -> dict:
        return await self._control("ping")

    async def shutdown(self) -> int:
        return int((await self._control("shutdown")).get("draining", 0))
