"""Service lifecycle suite: round trips, backpressure, deadlines,
cancellation, graceful drain, stats, and the differential guarantee that
the service is bit-identical to a direct ``engine.run_batch()``."""

import math
import socket
import time

import pytest

from repro.bench.harness import corpus_jobs
from repro.engine import BatchJob, GraphCache, run_batch
from repro.interp import run_ast
from repro.lang import parse
from repro.machine import MachineConfig
from repro.service import (
    JobRejected,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    running_server,
)
from repro.translate import CompileOptions

SRC = """
x := 0;
l: y := x + 1;
   x := x + 1;
   if x < 5 then goto l;
"""


def _slow_src(n: int = 20000) -> str:
    """~18us per iteration on the packed backend: n=20000 is ~0.4s."""
    return f"i := 0;\nl: i := i + 1;\n   if i < {n} then goto l;\n"


def _wait(cond, timeout=10.0, interval=0.01):
    t0 = time.monotonic()
    while not cond():
        if time.monotonic() - t0 > timeout:
            raise TimeoutError("condition not reached")
        time.sleep(interval)


def test_submit_result_round_trip():
    with running_server() as (ep, _server):
        with ServiceClient(**ep) as client:
            br = client.submit(BatchJob(SRC, name="rt"))
            assert br.ok
            assert br.result.memory == run_ast(parse(SRC))
            again = client.submit(BatchJob(SRC, name="rt2"))
            assert again.cache_hit  # the server-resident cache persists
            assert again.result.memory == br.result.memory


def test_tcp_endpoint():
    with running_server(host="127.0.0.1", port=0) as (ep, _server):
        assert ep["port"] > 0
        with ServiceClient(**ep) as client:
            assert client.ping()["ok"]
            assert client.submit(BatchJob(SRC)).ok


@pytest.mark.parametrize("max_batch", [1, 4, 32])
def test_differential_bit_identical(tmp_path, max_batch):
    """For any max_batch, service results equal a direct run_batch() of
    the same jobs: memory, op counts, cycles, profiles.  A slow anchor
    runs first, so the jobs queue behind it and ride in shared batches."""
    jobs = corpus_jobs(programs=["gcd", "fib"])
    jobs.append(BatchJob(SRC, config=MachineConfig(num_pes=2, seed=11),
                         name="finite_pes"))
    direct = run_batch(jobs, cache=GraphCache())
    with running_server(max_batch=max_batch) as (ep, server):
        with ServiceClient(**ep) as client:
            anchor = client.start(BatchJob(_slow_src(), name="anchor"))
            _wait(lambda: server.batcher.in_flight == 1)
            via_service = client.submit_many(jobs)
            assert client.result(anchor).ok
            batches = client.stats()["batches"]
    # the anchor ran alone; the jobs queued behind it left the queue
    # max_batch at a time
    assert batches == 1 + math.ceil(len(jobs) / max_batch)
    assert len(via_service) == len(direct)
    for d, s in zip(direct, via_service):
        assert s.ok, s.error
        assert s.name == d.name
        assert s.result.memory == d.result.memory
        assert s.result.end_values == d.result.end_values
        assert s.result.metrics == d.result.metrics  # ops/cycles/profile
        assert s.result.backend == d.result.backend
        assert s.stats == d.stats


def test_queue_full_backpressure():
    with running_server(max_queue=1, max_batch=1) as (ep, server):
        with ServiceClient(**ep) as client:
            slow = client.start(BatchJob(_slow_src(), name="slow"))
            # wait until the slow job is in flight and the queue is empty
            _wait(lambda: server.batcher.in_flight == 1
                  and server.batcher.depth == 0)
            queued = client.start(BatchJob(SRC, name="queued"))
            overflow = client.start(BatchJob(SRC, name="overflow"))
            with pytest.raises(JobRejected) as exc:
                client.result(overflow)
            assert exc.value.code == "queue_full"
            # the server stays live: accepted jobs still complete
            assert client.result(slow).ok
            assert client.result(queued).ok
            st = client.stats()
            assert st["rejected"] == 1
            assert st["completed"] == 2


def test_deadline_expires_in_queue():
    with running_server(max_batch=1) as (ep, server):
        with ServiceClient(**ep) as client:
            slow = client.start(BatchJob(_slow_src(), name="slow"))
            _wait(lambda: server.batcher.in_flight == 1)
            doomed = client.start(BatchJob(SRC, name="doomed"),
                                  deadline_ms=80.0)
            with pytest.raises(JobRejected) as exc:
                client.result(doomed)
            assert exc.value.code == "deadline_expired"
            assert client.result(slow).ok
            assert client.stats()["expired"] == 1


def test_deadline_expires_mid_run():
    with running_server(max_batch=1) as (ep, _server):
        with ServiceClient(**ep) as client:
            req = client.start(BatchJob(_slow_src(), name="slow"),
                               deadline_ms=80.0)
            t0 = time.monotonic()
            with pytest.raises(JobRejected) as exc:
                client.result(req)
            assert exc.value.code == "deadline_expired"
            # the rejection arrives at the deadline, not after the job
            assert time.monotonic() - t0 < 0.3


def test_client_cancellation():
    with running_server(max_batch=1) as (ep, server):
        with ServiceClient(**ep) as client:
            slow = client.start(BatchJob(_slow_src(), name="slow"))
            _wait(lambda: server.batcher.in_flight == 1)
            victim = client.start(BatchJob(SRC, name="victim"))
            assert client.cancel(victim) is True
            with pytest.raises(JobRejected) as exc:
                client.result(victim)
            assert exc.value.code == "cancelled"
            # a running job cannot be cancelled; an unknown id is not found
            assert client.cancel(slow) is False
            assert client.cancel("no-such-id") is False
            assert client.result(slow).ok
            assert client.stats()["cancelled"] == 1


def test_graceful_shutdown_drains_everything():
    """Shutdown mid-stream: every accepted job still gets its result
    (zero lost), new submits are refused, then the listener goes away."""
    jobs = [BatchJob(SRC, name=f"j{i}") for i in range(6)]
    with running_server(max_batch=2) as (ep, _server):
        path = ep["path"]
        with ServiceClient(**ep) as client:
            anchor = client.start(BatchJob(_slow_src(), name="anchor"))
            ids = [client.start(j) for j in jobs]
            client.shutdown()
            with pytest.raises(JobRejected) as exc:
                client.submit(BatchJob(SRC, name="late"))
            assert exc.value.code == "shutting_down"
            assert client.result(anchor).ok
            results = [client.result(i) for i in ids]
            assert [r.name for r in results] == [j.name for j in jobs]
            assert all(r.ok for r in results)
            for r in results:
                assert r.result.memory == run_ast(parse(SRC))
    # after the drain the socket is gone
    with pytest.raises((ConnectionRefusedError, FileNotFoundError)):
        socket.socket(socket.AF_UNIX, socket.SOCK_STREAM).connect(path)


def test_job_error_is_isolated():
    """A job that fails to compile shares a batch with good ones and
    fails alone: the slow anchor holds the engine while all three queue."""
    with running_server(max_batch=8) as (ep, server):
        with ServiceClient(**ep) as client:
            anchor = client.start(BatchJob(_slow_src(), name="anchor"))
            _wait(lambda: server.batcher.in_flight == 1)
            results = client.submit_many([
                BatchJob(SRC, name="good0"),
                BatchJob("x := ;;;; nope", name="bad"),
                BatchJob(SRC, name="good1"),
            ])
            assert client.result(anchor).ok
            good0, bad, good1 = results
            assert good0.ok and good1.ok
            assert not bad.ok
            assert "Error" in bad.error and "Traceback" in bad.traceback
            st = client.stats()
            assert st["batches"] == 2  # the anchor, then all three together
            assert st["completed"] == 3 and st["failed"] == 1


def test_stats_reports_live_state():
    with running_server() as (ep, _server):
        with ServiceClient(**ep) as client:
            client.submit_many([BatchJob(SRC, name=f"s{i}")
                                for i in range(4)])
            st = client.stats()
            assert st["queue_depth"] == 0 and st["in_flight"] == 0
            assert st["submitted"] == st["completed"] == 4
            assert 0.0 <= st["cache"]["hit_rate"] <= 1.0
            assert st["cache"]["jobs_hit"] == 3  # same source, warm cache
            assert st["jobs_per_s"] > 0
            for stage in ("queue", "compile", "sim", "total"):
                lat = st["latency_ms"][stage]
                assert lat["count"] == 4
                assert 0 <= lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]


def test_malformed_frames_do_not_kill_connection():
    with running_server() as (ep, _server):
        with ServiceClient(**ep) as client:
            client.connect()
            client._sock.sendall(b"this is not json\n")
            frame = client._read_frame()
            assert frame["ok"] is False and frame["error"] == "bad_request"
            client._sock.sendall(b'{"op": "frobnicate"}\n')
            frame = client._read_frame()
            assert frame["ok"] is False and frame["error"] == "bad_request"
            client._sock.sendall(b'{"op": "submit"}\n')  # missing id/job
            frame = client._read_frame()
            assert frame["ok"] is False and frame["error"] == "bad_request"
            # the connection is still perfectly usable
            assert client.ping()["ok"]
            assert client.submit(BatchJob(SRC)).ok


def test_duplicate_request_id_rejected():
    with running_server(max_batch=1) as (ep, server):
        with ServiceClient(**ep) as client:
            slow = client.start(BatchJob(_slow_src(), name="slow"))
            _wait(lambda: server.batcher.in_flight == 1)
            queued = client.start(BatchJob(SRC, name="q"))
            from repro.service.protocol import encode, job_to_wire

            client._sock.sendall(encode({
                "op": "submit", "id": queued,
                "job": job_to_wire(BatchJob(SRC)),
            }))
            frame = client._read_frame()
            assert frame["error"] == "bad_request"
            assert client.result(slow).ok and client.result(queued).ok


def test_pool_mode_matches_direct(tmp_path):
    jobs = corpus_jobs(programs=["gcd"], schemas=["schema1", "schema2_opt"])
    direct = run_batch(jobs, cache=GraphCache())
    with running_server(
        pool_size=2, cache_dir=str(tmp_path / "cache")
    ) as (ep, _server):
        with ServiceClient(**ep) as client:
            via_service = client.submit_many(jobs)
    for d, s in zip(direct, via_service):
        assert s.ok
        assert s.result.memory == d.result.memory
        assert s.result.metrics == d.result.metrics
        assert s.stats == d.stats


def test_async_client():
    import asyncio

    from repro.service import AsyncServiceClient

    with running_server() as (ep, _server):
        async def body():
            async with AsyncServiceClient(**ep) as client:
                results = await asyncio.gather(*[
                    client.submit(BatchJob(SRC, name=f"a{i}"))
                    for i in range(5)
                ])
                st = await client.stats()
                assert (await client.ping())["ok"]
                assert await client.cancel("nope") is False
                return results, st

        results, st = asyncio.run(body())
    assert all(r.ok for r in results)
    assert {r.name for r in results} == {f"a{i}" for i in range(5)}
    assert st["completed"] >= 1


def test_per_job_options_and_inputs_respected():
    gcd = corpus_jobs(programs=["gcd"], schemas=["schema1"])[0]
    with running_server() as (ep, _server):
        with ServiceClient(**ep) as client:
            br = client.submit(gcd)
            assert br.ok
            assert br.result.memory == run_ast(parse(gcd.source), gcd.inputs)
            narrow = client.submit(BatchJob(
                SRC, options=CompileOptions(schema="memory_elim"),
                config=MachineConfig(num_pes=1, seed=1), name="narrow",
            ))
            assert narrow.ok and narrow.result.backend == "step"


def test_ephemeral_socket_fallback_allocates_private_dir(monkeypatch):
    """running_server removes dirname(path) on teardown, so the
    long-TMPDIR fallback must hand back a path inside a fresh dedicated
    directory — never a bare file in the shared system temp dir."""
    import os
    import shutil
    import tempfile

    from repro.service import testing as svc_testing

    monkeypatch.setattr(svc_testing, "_SUN_PATH_MAX", 1)  # force fallback
    path = svc_testing.ephemeral_socket_path()
    d = os.path.dirname(path)
    try:
        assert d not in ("/", "/tmp", tempfile.gettempdir())
        assert os.path.isdir(d)
        assert len(path.encode()) < 100  # fallback path is still bindable
    finally:
        shutil.rmtree(d, ignore_errors=True)


def test_oversized_frame_isolated_to_its_connection():
    """A frame over max_line gets that client an error reply and a
    closed connection; the server loop and other connections are
    untouched."""
    with running_server(max_line=1024) as (ep, _server):
        with ServiceClient(**ep) as good:
            assert good.submit(BatchJob(SRC, name="before")).ok
            with ServiceClient(**ep) as bad:
                bad.connect()
                bad._sock.sendall(b'{"op": "ping", "pad": "' +
                                  b"x" * 4096 + b'"}\n')
                frame = bad._read_frame()
                assert frame["ok"] is False
                assert frame["error"] == "bad_request"
                assert "max_line" in frame["detail"]
                # the offender's connection is then closed...
                with pytest.raises(ServiceError):
                    bad._read_frame()
            # ...while the rest of the server keeps working
            assert good.submit(BatchJob(SRC, name="after")).ok
            assert good.ping()["ok"]


def test_dispatch_error_does_not_kill_connection():
    """A frame that explodes inside dispatch (here: a non-numeric
    deadline) gets an error reply, not a dead server or connection."""
    with running_server() as (ep, _server):
        with ServiceClient(**ep) as client:
            client._send({"op": "submit", "id": "boom",
                          "job": {"source": SRC, "options": {}},
                          "deadline_ms": "not-a-number"})
            frame = client._wait_submit("boom")
            assert frame["ok"] is False
            assert frame["error"] == "internal_error"
            assert client.submit(BatchJob(SRC, name="after")).ok


def test_client_connect_retry_backoff():
    """A client with retries tolerates a server that is still binding
    its socket; with retries=0 the first refusal is fatal (legacy)."""
    import threading

    from repro.service.testing import ephemeral_socket_path

    path = ephemeral_socket_path("retry")
    with pytest.raises((FileNotFoundError, ConnectionError)):
        ServiceClient(path=path).connect()  # nothing listening yet

    host = None

    def late_start():
        nonlocal host
        from repro.service.testing import ServerThread

        time.sleep(0.3)
        host = ServerThread(ServiceConfig(path=path))
        host.start()

    t = threading.Thread(target=late_start)
    t.start()
    try:
        with ServiceClient(path=path, retries=30, backoff_s=0.05) as client:
            assert client.ping()["ok"]
    finally:
        t.join()
        if host is not None:
            host.stop()


def test_async_client_connect_retry():
    import asyncio
    import threading

    from repro.service import AsyncServiceClient
    from repro.service.testing import ServerThread, ephemeral_socket_path

    path = ephemeral_socket_path("aretry")
    host = None

    def late_start():
        nonlocal host
        time.sleep(0.3)
        host = ServerThread(ServiceConfig(path=path))
        host.start()

    t = threading.Thread(target=late_start)
    t.start()

    async def go():
        async with AsyncServiceClient(
            path=path, retries=30, backoff_s=0.05
        ) as client:
            return await client.submit(BatchJob(SRC, name="a"))

    try:
        assert asyncio.run(go()).ok
    finally:
        t.join()
        if host is not None:
            host.stop()
