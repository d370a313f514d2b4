"""The four workloads.  Each is a closed loop driven from this process.

A workload run has three phases, and only the second is timed:

1. set-up, repeated :data:`SETUP_REPEATS` times (the median is
   reported; the last set-up's state serves the timed phase);
2. the timed phase: ops replay the seeded sequence from op 0 until
   ``seconds`` have passed, each op timed from submit to a result ready
   to check;
3. untimed: the rest of the fixed op prefix and any census job the timed
   phase did not reach are run, so the count metrics cover a fixed set.
   ``run.py`` then compares every result with ``run_ast``.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen
import hostspeed
from repro.bench.programs import RUNNING_EXAMPLE
from repro.engine import BatchJob, GraphCache
from repro.machine import MachineConfig
from repro.service import AsyncServiceClient, ServiceError
from repro.service.protocol import MAX_LINE, decode, encode
from repro.translate import CompileOptions, compile_program, simulate

SETUP_REPEATS = 3
#: ops at the head of each sequence over which the engine's cache counts
#: (``engine.compiles``, ``engine.hit_ratio``) are taken, so they repeat
#: exactly for a seed
PREFIX_OPS = 400
#: in-process peak RSS is read when this op completes (run untimed if the
#: timed phase ends first), so it does not grow with the host's speed
RSS_AT_OP = 60
#: an op slower than this counts as failed (in process it cannot be
#: interrupted; through the socket it is abandoned)
OP_TIMEOUT_S = 60.0
SERVE_CONNECTIONS = 2


@dataclass
class Outcome:
    """One executed op, timed or not."""

    op: int
    ref_key: tuple
    memory: dict | None
    start: float = 0.0  # perf_counter at submit
    latency_s: float = 0.0
    error: str | None = None
    wide: bool = False
    census: str | None = None
    cycles: int = 0
    nodes: int = 0
    firings: int = 0
    extra: dict = field(default_factory=dict)


@dataclass
class Run:
    """What a workload hands back to ``run.py``."""

    timed: list[Outcome]
    #: perf_counter bounds of the timed phase
    t_start: float
    t_end: float
    #: perf_counter bounds of each set-up
    setups: list[tuple[float, float]]
    peak_rss_mb: float
    host: dict
    untimed: list[Outcome] = field(default_factory=list)
    #: per-layer metrics the workload reads itself (not from spans)
    layer: dict = field(default_factory=dict)
    #: counts that repeat exactly for a given seed
    seeded_exact: dict = field(default_factory=dict)
    #: counts that repeat exactly for every seed (besides the census sums)
    census_exact: dict = field(default_factory=dict)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100)."""
    s = sorted(values)
    if not s:
        return 0.0
    k = (len(s) - 1) * q / 100.0
    lo = int(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def cpu_ticks() -> dict:
    """Aggregate CPU ticks from ``/proc/stat`` (empty off Linux)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return {}
    names = ("user", "nice", "system", "idle", "iowait", "irq", "softirq",
             "steal")
    return {n: int(v) for n, v in zip(names, fields[1:])}


class HostNoise:
    """CPU steal and idle ticks over the timed phase, plus load."""

    def __enter__(self):
        self.t0 = cpu_ticks()
        return self

    def __exit__(self, *exc):
        t1 = cpu_ticks()
        self.record = {
            "steal_ticks": t1.get("steal", 0) - self.t0.get("steal", 0),
            "idle_ticks": t1.get("idle", 0) - self.t0.get("idle", 0),
            "loadavg": list(os.getloadavg()),
            "cpu_count": os.cpu_count(),
        }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def bracket(speed) -> None:
    """Host-speed samples on each side of a set-up or timed phase."""
    for _ in range(3):
        speed.sample()


def run_job(spans, i: int, job: gen.Job, cp) -> Outcome:
    """Simulate a compiled job with the default machine (``auto``)."""
    with spans.span("machine.sim"):
        res = simulate(cp, job.inputs, MachineConfig())
    return Outcome(
        i, job.ref_key, res.memory, wide=job.wide, census=job.census,
        cycles=res.metrics.cycles, nodes=len(cp.graph.nodes),
        firings=res.metrics.operations,
    )


# -- in-process workloads ----------------------------------------------------


class InProcess:
    """The closed loop shared by the three in-process workloads."""

    def __init__(self, plan, spans, speed, smoke: bool):
        self.plan = plan
        self.spans = spans
        self.speed = speed
        self.smoke = smoke
        self.rss_at_op = 20 if smoke else RSS_AT_OP

    def max_ops(self) -> int:
        return 1 << 30

    def build(self):
        """Set-up; returns the state the ops run against."""
        raise NotImplementedError

    def op(self, state, i: int) -> Outcome:
        raise NotImplementedError

    def untimed(self, state, timed: list[Outcome]) -> list[Outcome]:
        """Set-up results to check, plus census jobs not yet run."""
        return []

    def read_layers(self, state, run: Run) -> None:
        """Fill the per-layer metrics the workload reads itself."""

    def timed_op(self, state, i: int) -> Outcome:
        """Op ``i``, timed from submit to a result ready to check; an
        exception or a timeout makes it a failed op."""
        t0 = time.perf_counter()
        try:
            out = self.op(state, i)
        except Exception as exc:
            out = Outcome(i, (), None, error=f"{type(exc).__name__}: {exc}")
        out.start = t0
        out.latency_s = time.perf_counter() - t0
        if out.latency_s > OP_TIMEOUT_S and out.error is None:
            out.error = f"timeout: {out.latency_s:.1f} s"
        return out

    def run(self, seconds: float, min_ops: int = 0) -> Run:
        setups, state = [], None
        for _ in range(1 if self.smoke else SETUP_REPEATS):
            state = None
            gc.collect()
            bracket(self.speed)
            t0 = time.perf_counter()
            state = self.build()
            setups.append((t0, time.perf_counter()))
        bracket(self.speed)
        timed: list[Outcome] = []
        self.spans.install()
        with HostNoise() as noise:
            t_start = time.perf_counter()
            deadline = t_start + seconds
            for i in range(self.max_ops()):
                with self.spans.op(i):
                    out = self.timed_op(state, i)
                timed.append(out)
                if len(timed) == self.rss_at_op:
                    rss = peak_rss_mb()
                if out.start + out.latency_s >= deadline \
                        and len(timed) >= min_ops:
                    break
                self.speed.maybe_sample()
            t_end = time.perf_counter()
        self.spans.uninstall()
        bracket(self.speed)
        untimed = [self.timed_op(state, i)
                   for i in range(len(timed), self.rss_at_op)]
        if len(timed) < self.rss_at_op:
            rss = peak_rss_mb()
        run = Run(timed, t_start, t_end, setups, rss, noise.record,
                  untimed=untimed + self.untimed(state, timed + untimed))
        self.read_layers(state, run)
        return run


class CompileCold(InProcess):
    """Each op compiles one program from scratch and simulates it once."""

    def build(self):
        # warm the compile and simulate paths on the paper's running
        # example, which is not in the population
        for schema in gen.OPTIMIZED:
            job = gen.Job(RUNNING_EXAMPLE.source, schema)
            self.compile_job(-1, job)

    def compile_job(self, i: int, job: gen.Job) -> Outcome:
        cp = compile_program(job.source,
                             options=CompileOptions(schema=job.schema))
        return run_job(self.spans, i, job, cp)

    def op(self, state, i: int) -> Outcome:
        return self.compile_job(i, self.plan.job(i))

    def untimed(self, state, timed):
        seen = {o.census for o in timed}
        return [self.compile_job(-1, j) for j in self.plan.census()
                if j.census not in seen]


class SimWarm(InProcess):
    """Each op is a warm cache lookup plus one simulation."""

    def build(self):
        cache = GraphCache()
        results = []
        for job in self.plan.narrow + self.plan.wide:
            cp, _ = cache.lookup(job.source, CompileOptions(schema=job.schema))
            results.append(run_job(self.spans, -1, job, cp))
        return cache, results

    def op(self, state, i: int) -> Outcome:
        job = self.plan.job(i)
        cp, hit = state[0].lookup(job.source,
                                  CompileOptions(schema=job.schema))
        out = run_job(self.spans, i, job, cp)
        out.extra["hit"] = hit
        return out

    def untimed(self, state, timed):
        return state[1]

    def read_layers(self, state, run):
        prefix = run.timed[:PREFIX_OPS]
        hits = sum(1 for o in prefix if o.extra.get("hit"))
        run.seeded_exact = {"engine.compiles": len(prefix) - hits,
                            "engine.hit_ratio": hits / len(prefix)}
        run.layer = {"engine.evictions": state[0].stats.evictions}


class EditRecompile(InProcess):
    """Each op applies the next 1-line edit, recompiles through a
    region-compiling cache that persists across ops, and simulates."""

    options = CompileOptions(schema=gen.EDIT_SCHEMA, region_compile="auto")

    def max_ops(self) -> int:
        return len(self.plan.edits)

    def build(self):
        cache = GraphCache()
        job = gen.Job(self.plan.base, gen.EDIT_SCHEMA, self.plan.inputs,
                      census="base")
        cp, _ = cache.lookup(job.source, self.options)
        return {"cache": cache, "lines": job.source.split("\n"),
                "base": run_job(self.spans, -1, job, cp)}

    def op(self, state, i: int) -> Outcome:
        site, text, wide = self.plan.edits[i]
        state["lines"][site] = text
        source = "\n".join(state["lines"])
        cp, hit = state["cache"].lookup(source, self.options)
        job = gen.Job(source, gen.EDIT_SCHEMA, self.plan.inputs,
                      census=f"e{i}" if i < gen.EDIT_CENSUS else None,
                      wide=wide)
        out = run_job(self.spans, i, job, cp)
        out.extra["hit"] = hit
        cert = cp.pass_log[0] if cp.pass_log else None
        if cert is not None and cert.pass_name == "region_stitch":
            out.extra.update(regions=cert.metrics["regions"],
                             region_hits=cert.metrics["region_cache_hits"],
                             stitch_ms=cert.elapsed_ms)
        return out

    def untimed(self, state, timed):
        # the census is the head of the edit sequence, which every run
        # reaches (RSS_AT_OP > EDIT_CENSUS)
        return [state["base"]]

    def read_layers(self, state, run):
        census = [o for o in run.timed + run.untimed
                  if o.census and o.census != "base"]
        hits = sum(1 for o in census if o.extra.get("hit"))
        regions = sum(o.extra.get("regions", 0) for o in census)
        run.seeded_exact = {"engine.compiles": len(census) - hits,
                            "engine.hit_ratio": hits / len(census)}
        run.census_exact = {"regions.hit_ratio": sum(
            o.extra.get("region_hits", 0) for o in census) / max(1, regions)}
        run.layer = {
            "regions.stitch_ms": sum(o.extra.get("stitch_ms", 0.0)
                                     for o in run.timed) / len(run.timed),
            "engine.evictions": state["cache"].stats.evictions,
        }


# -- serving -----------------------------------------------------------------


class Server:
    """One ``python -m repro serve`` subprocess with default flags, on a
    UNIX socket in the state directory (a relative path keeps it short)."""

    def __init__(self, root: Path, state_dir: Path, tag: str):
        self.path = os.path.relpath(state_dir / f"{tag}.sock", root)
        self.log_path = state_dir / f"{tag}.log"
        self.log = open(self.log_path, "w")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )
        with contextlib.suppress(FileNotFoundError):
            os.unlink(root / self.path)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", self.path],
            cwd=root, env=env, stdout=self.log, stderr=subprocess.STDOUT,
        )

    async def wait_ready(self, timeout: float = 60.0) -> None:
        t_end = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with "
                                   f"{self.proc.returncode}; see {self.log_path}")
            try:
                async with AsyncServiceClient(path=self.path) as c:
                    await c.ping()
                return
            except OSError:
                if time.monotonic() > t_end:
                    raise
                await asyncio.sleep(0.02)

    async def stats(self) -> dict:
        """The ``stats`` op, asking for the raw per-stage sample rings."""
        reader, writer = await asyncio.open_unix_connection(
            self.path, limit=MAX_LINE)
        try:
            writer.write(encode({"op": "stats", "samples": True}))
            await writer.drain()
            return decode(await reader.readline())["stats"]
        finally:
            writer.close()
            await writer.wait_closed()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in the server's /proc status")

    def stop(self) -> None:
        """Graceful drain (SIGTERM), then a kill if it does not end; the
        log is kept only when the server did not exit cleanly."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if not self.log.closed:
            self.log.close()
            if self.proc.returncode == 0:
                self.log_path.unlink()


class ServeZipf:
    """Two connections from one asyncio process, in a closed loop, to a
    server subprocess with default flags."""

    def __init__(self, plan: gen.Plan, spans, speed, smoke: bool,
                 root: Path, state_dir: Path):
        self.plan, self.spans, self.speed = plan, spans, speed
        self.smoke = smoke
        self.root, self.state_dir = root, state_dir
        self.prefix = 20 if smoke else PREFIX_OPS
        self.servers: list[Server] = []
        self.next_op = 0

    def run(self, seconds: float, min_ops: int = 0) -> Run:
        try:
            return asyncio.run(self._run(seconds, min_ops))
        finally:
            for s in self.servers:
                s.stop()

    async def _submit(self, client, i: int, job: gen.Job) -> Outcome:
        t0 = time.perf_counter()
        try:
            br = await asyncio.wait_for(
                client.submit(BatchJob(job.source,
                                       CompileOptions(schema=job.schema),
                                       job.inputs)),
                OP_TIMEOUT_S,
            )
        except (ServiceError, asyncio.TimeoutError) as exc:
            return Outcome(i, job.ref_key, None, t0,
                           time.perf_counter() - t0,
                           error=f"{type(exc).__name__}: {exc}",
                           wide=job.wide, census=job.census)
        t1 = time.perf_counter()
        self.spans.record(i, "service.submit", t0, t1)
        if not br.ok:
            return Outcome(i, job.ref_key, None, t0, t1 - t0,
                           error=br.error, wide=job.wide, census=job.census)
        return Outcome(
            i, job.ref_key, br.result.memory, t0, t1 - t0,
            wide=job.wide, census=job.census,
            cycles=br.result.metrics.cycles, nodes=br.stats.nodes,
            firings=br.result.metrics.operations,
            extra={"hit": br.cache_hit, "compile_s": br.compile_time,
                   "sim_s": br.sim_time},
        )

    async def _loop(self, clients, keep_going) -> list[Outcome]:
        """Closed loop: each connection takes the next op index only
        after its previous reply, so ops reach the server in order."""
        outs: list[Outcome] = []

        async def worker(client):
            while keep_going(self.next_op):
                i = self.next_op
                self.next_op += 1
                outs.append(await self._submit(client, i, self.plan.job(i)))

        await asyncio.gather(*(worker(c) for c in clients))
        return outs

    async def _sample_speed(self) -> None:
        """Host-speed samples while the closed loop runs; each blocks the
        client's event loop for a few milliseconds."""
        while True:
            self.speed.sample()
            await asyncio.sleep(hostspeed.SAMPLE_EVERY_S)

    async def _build(self, k: int) -> Server:
        """Spawn a server, wait until it answers, warm it up on the
        paper's running example (not in the population)."""
        server = Server(self.root, self.state_dir, f"srv{os.getpid()}-{k}")
        self.servers.append(server)
        await server.wait_ready()
        async with AsyncServiceClient(path=server.path) as c:
            for schema in gen.OPTIMIZED:
                out = await self._submit(
                    c, -1, gen.Job(RUNNING_EXAMPLE.source, schema))
                if out.error:
                    raise RuntimeError(f"warm-up failed: {out.error}")
        return server

    async def _run(self, seconds: float, min_ops: int) -> Run:
        setups = []
        for k in range(1 if self.smoke else SETUP_REPEATS):
            if self.servers:
                self.servers[-1].stop()
            bracket(self.speed)
            t0 = time.perf_counter()
            server = await self._build(k)
            setups.append((t0, time.perf_counter()))
        bracket(self.speed)

        clients = [AsyncServiceClient(path=server.path)
                   for _ in range(SERVE_CONNECTIONS)]
        try:
            for c in clients:
                await c.connect()
            before = await server.stats()
            with HostNoise() as noise:
                t_start = time.perf_counter()
                deadline = t_start + seconds
                sampler = asyncio.create_task(self._sample_speed())
                timed = await self._loop(
                    clients,
                    lambda i: time.perf_counter() < deadline or i < min_ops)
                t_end = time.perf_counter()
                sampler.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await sampler
            bracket(self.speed)
            after = await server.stats()
            # untimed: finish the fixed prefix, then the census; the peak
            # RSS is read at the prefix's end, a point every run reaches
            untimed = await self._loop(clients, lambda i: i < self.prefix)
            rss = server.peak_rss_mb()
            seen = {o.census for o in timed + untimed}
            for job in self.plan.census():
                if job.census not in seen:
                    untimed.append(await self._submit(clients[0], -1, job))
        finally:
            for c in clients:
                await c.close()
        prefix = [o for o in timed + untimed if 0 <= o.op < self.prefix]
        hits = sum(1 for o in prefix if o.extra.get("hit"))
        return Run(
            timed, t_start, t_end, setups, rss, noise.record,
            untimed=untimed,
            layer=self.layer(before, after, timed),
            seeded_exact={"engine.compiles": len(prefix) - hits,
                          "engine.hit_ratio": hits / len(prefix)},
        )

    @staticmethod
    def layer(before: dict, after: dict, timed: list[Outcome]) -> dict:
        """Server layers from ``stats`` deltas over the timed phase, and
        the engine times each reply carries."""

        def delta(key):
            return after[key] - before[key]

        done = delta("completed") + delta("failed")

        def stage(name):
            ring = after["latency_ms"][name].get("samples", [])
            return ring[max(0, len(ring) - done):]

        ok = [o for o in timed if o.error is None]
        eng0, eng1 = before["cache"]["engine"], after["cache"]["engine"]
        total_p50 = percentile(stage("total"), 50)

        def ns_per_firing(outs):
            firings = sum(o.firings for o in outs)
            return sum(o.extra["sim_s"] for o in outs) / firings * 1e9 \
                if firings else 0.0

        return {
            "service.queue_ms.p50": percentile(stage("queue"), 50),
            "service.sim_ms.p50": percentile(stage("sim"), 50),
            "service.compile_ms.p90": percentile(stage("compile"), 90),
            "service.total_ms.p50": total_p50,
            "service.batch_size": done / max(1, delta("batches")),
            "service.reply_ms.p50": percentile(
                [o.latency_s * 1e3 for o in timed], 50) - total_p50,
            "service.rejected": delta("rejected"),
            "engine.lookup_ms": statistics.fmean(
                o.extra["compile_s"] for o in ok) * 1e3,
            # every compile inserts one entry; the ones gone were evicted
            "engine.evictions": (eng1["compiles"] - eng0["compiles"])
            - (eng1["entries"] - eng0["entries"]),
            "machine.sim_ms": statistics.fmean(
                o.extra["sim_s"] for o in ok) * 1e3,
            "machine.ns_per_firing": ns_per_firing(ok),
            "wide.machine.ns_per_firing": ns_per_firing(
                [o for o in ok if o.wide]),
        }
