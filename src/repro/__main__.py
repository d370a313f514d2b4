"""Command-line front end: compile, run, inspect.

Usage::

    python -m repro run PROG.df [--schema schema2_opt] [--input x=3 ...]
                               [--mem-latency N] [--pes N] [--seed N]
                               [--parallel-reads] [--forward-stores]
                               [--parallelize-arrays] [--istructures]
                               [--verify-passes off|cheap|full]
    python -m repro compile PROG.df [--verify-passes ...] [--json]
                                                       # certificate log
    python -m repro stats PROG.df [--schema ...]       # graph inventory
    python -m repro dot PROG.df [--stage cfg|dfg] [--schema ...]
    python -m repro trace PROG.df [--schema ...] [...run options]
    python -m repro trace PROG.df --spans              # pipeline span tree
    python -m repro schemas                            # list schemas
    python -m repro bench [--jobs N] [--cache-dir DIR] [--repeat N]
                          [--schemas s1,s2] [--programs p1,p2] [--verify]
                          [--sim-mode auto|step|packed]
    python -m repro fuzz [--seed N] [--count N] [--budget-s F]
                         [--knob k=v ...] [--minimize] [--out DIR]
                         [--no-pool] [--replay FILE] [--blame]
                         [--verify-passes off|cheap|full]  # diff oracle

Service mode (always-on compile/simulate server, JSON-lines protocol)::

    python -m repro serve --socket /tmp/repro.sock [--max-queue N]
                          [--max-batch N] [--jobs N]
                          [--cache-dir DIR] [--snapshot-dir DIR]
                          [--snapshot-interval S]
    python -m repro fleet --socket /tmp/repro.sock --shards N
                          [--replication R] [--hot-threshold N]
                          [--max-pending N] [--socket-dir DIR]
                          [--no-respawn] [...serve knobs per shard]
    python -m repro submit PROG.df --socket /tmp/repro.sock [...run options]
    python -m repro stats --socket /tmp/repro.sock     # live server stats
    python -m repro metrics --socket /tmp/repro.sock [--json]
    python -m repro trace PROG.df --socket /tmp/repro.sock  # traced submit
    python -m repro trace --trace-id ID --socket ...   # server-held spans
    python -m repro shutdown --socket /tmp/repro.sock  # graceful drain
"""

from __future__ import annotations

import argparse
import os
import sys

from .cfg.dot import cfg_to_dot
from .dfg.dot import dfg_to_dot
from .dfg.stats import graph_stats
from .machine.config import SIM_MODES, MachineConfig
from .translate.pipeline import SCHEMAS, compile_program, simulate


def _add_compile_args(
    p: argparse.ArgumentParser, optional_file: bool = False
) -> None:
    if optional_file:
        p.add_argument("file", nargs="?", default=None,
                       help="source file (use - for stdin)")
    else:
        p.add_argument("file", help="source file (use - for stdin)")
    p.add_argument("--schema", default="schema2_opt", choices=SCHEMAS)
    p.add_argument(
        "--cover",
        default="singletons",
        choices=("singletons", "whole", "alias_classes"),
    )
    p.add_argument("--optimize", action="store_true",
                   help="classic CFG optimizations first")
    p.add_argument("--parallel-reads", action="store_true")
    p.add_argument("--forward-stores", action="store_true")
    p.add_argument("--parallelize-arrays", action="store_true")
    p.add_argument("--istructures", action="store_true")
    p.add_argument("--redundant-elim", action="store_true",
                   help="iterative redundant-switch elimination pass")
    p.add_argument(
        "--verify-passes", default="off",
        choices=("off", "cheap", "full"),
        help="check each pass's certificate as it runs",
    )
    p.add_argument(
        "--region-compile", default="off",
        choices=("off", "auto", "on"),
        help="multiresolution region compilation: partition at legal "
             "cuts, compile regions independently, stitch (auto = only "
             "for large programs)",
    )
    p.add_argument(
        "--region-target", type=int, default=64, metavar="N",
        help="statements per region before the next legal cut closes it",
    )


def _add_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--input",
        action="append",
        default=[],
        metavar="VAR=INT",
        help="initial scalar value (repeatable)",
    )
    p.add_argument("--mem-latency", type=int, default=2)
    p.add_argument("--pes", type=int, default=0, help="0 = unlimited")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--loop-bound", type=int, default=0, help="0 = unbounded")
    p.add_argument(
        "--net-latency", type=int, default=0,
        help="token hop cost between PEs (needs --pes)",
    )
    p.add_argument(
        "--partition", default="round_robin",
        choices=("round_robin", "block", "random"),
    )


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as f:
        return f.read()


def _options(args):
    from .translate.pipeline import CompileOptions

    return CompileOptions(
        schema=args.schema,
        cover=args.cover,
        optimize=args.optimize,
        parallel_reads=args.parallel_reads,
        forward_stores=args.forward_stores,
        parallelize_arrays=args.parallelize_arrays,
        use_istructures=args.istructures,
        redundant_elim=args.redundant_elim,
        verify_passes=args.verify_passes,
        region_compile=args.region_compile,
        region_target_stmts=args.region_target,
    )


def _compile(args) -> object:
    return compile_program(_read_source(args.file), options=_options(args))


def _config(args, trace: bool = False) -> MachineConfig:
    return MachineConfig(
        num_pes=args.pes or None,
        memory_latency=args.mem_latency,
        seed=args.seed,
        trace=trace,
        loop_bound=args.loop_bound or None,
        network_latency=args.net_latency,
        partition=args.partition,
    )


def _inputs(args) -> dict[str, int]:
    out = {}
    for item in args.input:
        var, _, value = item.partition("=")
        if not value.lstrip("-").isdigit():
            raise SystemExit(f"bad --input {item!r}: expected VAR=INT")
        out[var] = int(value)
    return out


def _bench(args) -> int:
    import time

    from .bench.harness import (
        HEADER,
        corpus_jobs,
        format_table,
        sweep_latency_line,
    )
    from .engine import run_batch

    schemas = args.schemas.split(",") if args.schemas else None
    programs = args.programs.split(",") if args.programs else None
    if schemas:
        bad = [s for s in schemas if s not in SCHEMAS]
        if bad:
            raise SystemExit(f"unknown schemas {bad}; pick from {list(SCHEMAS)}")
    config = (
        None if args.sim_mode == "auto"
        else MachineConfig(sim_mode=args.sim_mode)
    )
    jobs = corpus_jobs(programs=programs, schemas=schemas, config=config)
    if not jobs:
        raise SystemExit("no jobs selected (check --programs/--schemas)")

    # one persistent pool across repeats: repeated sweeps measure the
    # engine warm, not pool spawn + per-repeat worker re-priming
    pool = None
    if args.jobs and args.jobs > 1:
        from .engine import make_pool

        pool = make_pool(args.jobs, cache_dir=args.cache_dir)
    sweeps = []
    try:
        for rep in range(max(1, args.repeat)):
            t0 = time.perf_counter()
            results = run_batch(
                jobs, pool_size=args.jobs, cache_dir=args.cache_dir,
                pool=pool,
            )
            sweeps.append((time.perf_counter() - t0, results))
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()

    failures = [br for br in sweeps[-1][1] if not br.ok]
    for br in failures:
        print(f"# FAILED {br.name}: {br.error}", file=sys.stderr)

    if args.verify:
        from .interp.ast_interp import run_ast
        from .lang.parser import parse

        for job, br in zip(jobs, sweeps[-1][1]):
            if not br.ok:
                continue
            ref = run_ast(parse(job.source), job.inputs)
            if br.result.memory != ref:
                raise SystemExit(
                    f"{br.name}: dataflow result {br.result.memory} != "
                    f"reference {ref}"
                )

    rows = []
    for br in sweeps[-1][1]:
        if not br.ok:
            continue
        name, _, schema = br.name.partition("/")
        st, m = br.stats, br.result.metrics
        rows.append(
            [
                name,
                schema,
                st.nodes,
                st.arcs,
                st.switches,
                st.merges,
                st.synchs,
                st.memory_ops,
                m.cycles,
                m.operations,
                f"{m.avg_parallelism:.2f}",
                m.peak_parallelism,
            ]
        )
    print(format_table(HEADER, rows))
    for rep, (wall, results) in enumerate(sweeps):
        hits = sum(r.cache_hit for r in results)
        compile_s = sum(r.compile_time for r in results)
        sim_s = sum(r.sim_time for r in results)
        print(
            f"# sweep {rep}: {len(results)} jobs in {wall:.3f}s wall "
            f"(jobs={args.jobs}); compile {compile_s:.3f}s, sim {sim_s:.3f}s, "
            f"cache hits {hits}/{len(results)}",
            file=sys.stderr,
        )
        print(f"# sweep {rep}: {sweep_latency_line(results)}", file=sys.stderr)
        # which scheduler loop each job actually ran, with its sim time
        by_mode: dict[str, list[float]] = {}
        for r in results:
            if r.ok:
                by_mode.setdefault(r.result.backend, []).append(r.sim_time)
        breakdown = ", ".join(
            f"{mode}: {len(times)} jobs {sum(times):.3f}s"
            for mode, times in sorted(by_mode.items())
        )
        print(f"# sweep {rep}: sim backends — {breakdown}", file=sys.stderr)
    if args.verify:
        print("# all results match the reference interpreter", file=sys.stderr)
    return 1 if failures else 0


def _compile_cmd(args) -> int:
    """``repro compile``: compile once and print the per-pass
    certificate log (timings, verification level, metrics)."""
    from .translate.verify import CertificateError

    source = _read_source(args.file)
    options = _options(args)
    pool = None
    try:
        if options.region_compile != "off" and (
            args.jobs > 1 or args.cache_dir
        ):
            from .engine.batch import make_pool
            from .engine.cache import GraphCache

            cache = GraphCache(cache_dir=args.cache_dir)
            if args.jobs > 1:
                pool = make_pool(args.jobs, cache_dir=args.cache_dir)
                cache.region_pool = pool
            cp, _ = cache.lookup(source, options)
        else:
            cp = compile_program(source, options=options)
    except CertificateError as exc:
        where = f" [{exc.region}]" if exc.region else ""
        print(f"# certificate rejected — guilty pass: "
              f"{exc.pass_name}{where}", file=sys.stderr)
        print(f"# {exc.diff}", file=sys.stderr)
        return 1
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()
    if args.json:
        import json
        from dataclasses import asdict

        print(json.dumps([asdict(c) for c in cp.pass_log], indent=2))
        return 0
    print(f"{'pass':18s} {'ms':>8s} {'verified':>8s} {'verify ms':>10s}  metrics")
    for c in cp.pass_log:
        metrics = " ".join(f"{k}={v}" for k, v in c.metrics.items())
        print(f"{c.pass_name:18s} {c.elapsed_ms:8.2f} {c.verified:>8s} "
              f"{c.verify_ms:10.2f}  {metrics}")
    st = graph_stats(cp.graph)
    print(f"# {st.summary()}", file=sys.stderr)
    return 0


def _fuzz(args) -> int:
    from .validate import GenKnobs, RegressionFormatError, run_fuzz
    from .validate.fuzz import replay

    if args.replay:
        try:
            report = replay(args.replay)
        except RegressionFormatError as exc:
            print(f"fuzz: bad regression file: {exc}", file=sys.stderr)
            return 2
        if report.ok:
            print(f"# {args.replay}: no divergence "
                  f"({report.routes_run} routes agree)", file=sys.stderr)
            return 0
        for d in report.divergences:
            print(f"{d.kind}  {d.route} vs {d.baseline}: {d.detail}")
        return 1

    try:
        knobs = GenKnobs.from_items(args.knob)
    except ValueError as exc:
        raise SystemExit(f"fuzz: {exc}") from None

    def progress(i: int, oracle_report) -> None:
        if not oracle_report.ok:
            print(f"# seed {args.seed + i}: {oracle_report.summary()}",
                  file=sys.stderr, flush=True)
        elif (i + 1) % 25 == 0:
            print(f"# {i + 1}/{args.count} programs checked",
                  file=sys.stderr, flush=True)

    report = run_fuzz(
        seed=args.seed,
        count=args.count,
        budget_s=args.budget_s,
        knobs=knobs,
        minimize_findings=args.minimize,
        out_dir=args.out,
        pooled=not args.no_pool,
        cache_dir=args.cache_dir,
        progress=progress,
        verify_passes=args.verify_passes,
        blame=args.blame,
    )
    print(f"# fuzz: {report.summary()}", file=sys.stderr)
    hist = report.metrics.get("histograms", {}).get("fuzz.check_ms")
    if hist and hist["count"]:
        print(
            f"# check latency: n={hist['count']} "
            f"mean={hist['sum'] / hist['count']:.1f}ms",
            file=sys.stderr,
        )
    for f in report.findings:
        d = f.divergence
        blame = f"  [guilty pass: {d.guilty_pass}]" if d.guilty_pass else ""
        print(f"{f.program.name}  {d.kind}  {d.route} vs {d.baseline}: "
              f"{d.detail}{blame}")
        if f.regression_path is not None:
            via = f" via {f.minimized_via}" if f.minimized_via else ""
            print(f"  minimized to {f.minimized_lines} lines{via}: "
                  f"{f.regression_path}")
    for d in report.batch_divergences:
        print(f"batch  {d.kind}  {d.route} vs {d.baseline}: {d.detail}")
    return 0 if report.ok else 1


# -- service front ends -----------------------------------------------------


def _add_endpoint_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--socket", default=None, metavar="PATH",
                   help="UNIX socket path of the service")
    p.add_argument("--host", default="127.0.0.1",
                   help="TCP host (with --port)")
    p.add_argument("--port", type=int, default=None, help="TCP port")


def _require_endpoint(args) -> None:
    if args.socket is None and args.port is None:
        raise SystemExit(
            f"{args.command}: need --socket PATH or --port N "
            "(optionally --host)"
        )


def _client(args):
    from .service import ServiceClient

    _require_endpoint(args)
    return ServiceClient(
        path=args.socket, host=args.host, port=args.port,
        timeout=getattr(args, "timeout", None),
    )


def _add_snapshot_args(p) -> None:
    """Warm-restart flags shared by serve and fleet."""
    p.add_argument(
        "--snapshot-dir", default=None,
        help="warm-restart directory: cache entries are restored on "
        "start and snapshotted on drain",
    )
    p.add_argument(
        "--snapshot-interval", type=float, default=0.0, metavar="S",
        help="also snapshot every S seconds (0 = on drain only)",
    )


def _serve(args) -> int:
    import asyncio
    import signal

    from .service import ServiceConfig, ServiceServer

    _require_endpoint(args)
    config = ServiceConfig(
        path=args.socket,
        host=args.host,
        port=args.port or 0,
        max_queue=args.max_queue,
        max_batch=args.max_batch,
        pool_size=args.jobs,
        cache_dir=args.cache_dir,
        snapshot_dir=args.snapshot_dir,
        snapshot_interval_s=args.snapshot_interval,
    )

    async def run() -> None:
        server = ServiceServer(config)
        await server.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, server.begin_shutdown)
        print(
            f"# repro service listening on {server.endpoint} "
            f"(max_queue={config.max_queue} max_batch={config.max_batch} "
            f"jobs={config.pool_size})",
            file=sys.stderr,
            flush=True,
        )
        await server.serve_forever()
        print("# repro service drained and stopped", file=sys.stderr)

    asyncio.run(run())
    return 0


def _fleet(args) -> int:
    import asyncio
    import signal
    import tempfile

    from .fleet import FleetConfig, FleetRouter

    _require_endpoint(args)
    socket_dir = args.socket_dir or tempfile.mkdtemp(prefix="repro-fleet-")
    config = FleetConfig(
        path=args.socket,
        host=args.host,
        port=args.port or 0,
        shards=args.shards,
        replication=args.replication,
        hot_threshold=args.hot_threshold,
        max_pending=args.max_pending,
        respawn=not args.no_respawn,
        socket_dir=socket_dir,
        max_queue=args.max_queue,
        max_batch=args.max_batch,
        pool_size=args.jobs,
        cache_dir=args.cache_dir,
        snapshot_dir=args.snapshot_dir,
        snapshot_interval_s=args.snapshot_interval,
    )

    async def run() -> None:
        router = FleetRouter(config)
        await router.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, router.begin_shutdown)
        print(
            f"# repro fleet listening on {router.endpoint}: "
            f"{config.shards} shards in {socket_dir} "
            f"(replication={config.replication} "
            f"hot_threshold={config.hot_threshold} "
            f"max_pending={config.max_pending})",
            file=sys.stderr,
            flush=True,
        )
        await router.serve_forever()
        print("# repro fleet drained and stopped", file=sys.stderr)

    asyncio.run(run())
    return 0


def _submit(args) -> int:
    from .engine import BatchJob
    from .service import JobRejected

    job = BatchJob(
        source=_read_source(args.file),
        options=_options(args),
        inputs=_inputs(args),
        config=_config(args),
        name=args.file,
    )
    with _client(args) as client:
        try:
            br = client.submit(job, deadline_ms=args.deadline_ms)
        except JobRejected as exc:
            print(f"# rejected: {exc}", file=sys.stderr)
            return 2
    if not br.ok:
        if br.traceback:
            print(br.traceback, file=sys.stderr, end="")
        print(f"# job failed: {br.error}", file=sys.stderr)
        return 1
    for var, value in sorted(br.result.memory.items()):
        print(f"{var} = {value}")
    print(f"# {br.result.metrics.summary()}", file=sys.stderr)
    print(
        f"# cache_hit={br.cache_hit} compile={br.compile_time * 1e3:.1f}ms "
        f"sim={br.sim_time * 1e3:.1f}ms",
        file=sys.stderr,
    )
    return 0


def _service_stats(args) -> int:
    with _client(args) as client:
        st = client.stats()
    if args.json:
        import json

        print(json.dumps(st, indent=2, sort_keys=True))
        return 0
    pool = "serial" if st["pool_size"] <= 1 else f"{st['pool_size']} workers"
    print(
        f"uptime {st['uptime_s']:.1f}s  queue {st['queue_depth']}"
        f"/{st['max_queue']}  in-flight {st['in_flight']}  pool {pool}  "
        f"draining {'yes' if st['draining'] else 'no'}"
    )
    print(
        f"jobs: {st['submitted']} submitted, {st['completed']} completed, "
        f"{st['failed']} failed, {st['rejected']} rejected, "
        f"{st['expired']} expired, {st['cancelled']} cancelled "
        f"({st['jobs_per_s']:.1f} jobs/s over {st['batches']} batches)"
    )
    cache = st["cache"]
    line = (
        f"cache: {cache['hit_rate'] * 100:.1f}% job hit rate "
        f"({cache['jobs_hit']}/{cache['jobs_done']})"
    )
    if "engine" in cache:
        e = cache["engine"]
        line += (
            f"; memory {e['memory_hits']} hits, {e['disk_hits']} disk, "
            f"{e['compiles']} compiles, {e['entries']} entries"
        )
    print(line)
    snap = st.get("snapshot") or {}
    if snap.get("dir"):
        print(
            f"snapshot: dir={snap['dir']} interval={snap['interval_s']}s "
            f"writes={snap['writes']} restored={snap['restored']}"
        )
    for stage in ("queue", "compile", "sim", "total"):
        s = st["latency_ms"][stage]
        print(
            f"latency {stage:8s} n={s['count']:<6d} "
            f"p50={s['p50']:.2f}ms p95={s['p95']:.2f}ms "
            f"p99={s['p99']:.2f}ms max={s['max']:.2f}ms"
        )
    return 0


def _trace_spans(args) -> int:
    """Span-tree tracing: locally (--spans) or through a service."""
    from .obs.trace import render_tree

    if args.socket or args.port:
        if args.trace_id:
            with _client(args) as client:
                spans = client.trace(args.trace_id)
            if not spans:
                print(f"# no spans held for trace {args.trace_id}",
                      file=sys.stderr)
                return 1
            print(render_tree(spans))
            return 0
        if args.file is None:
            raise SystemExit(
                "trace: give a source file to submit, or --trace-id for "
                "a past trace"
            )
        from .engine import BatchJob
        from .obs.trace import new_trace_id
        from .service import JobRejected

        tid = new_trace_id()
        job = BatchJob(
            source=_read_source(args.file),
            options=_options(args),
            inputs=_inputs(args),
            config=_config(args),
            name=args.file,
            trace_id=tid,
        )
        with _client(args) as client:
            try:
                br = client.submit(job)
            except JobRejected as exc:
                print(f"# rejected: {exc}", file=sys.stderr)
                return 2
        if not br.ok:
            print(f"# job failed: {br.error}", file=sys.stderr)
            return 1
        print(render_tree(br.spans))
        print(f"# trace {tid}: {len(br.spans)} spans", file=sys.stderr)
        return 0

    # local: activate a fresh trace around compile + simulate so every
    # pipeline stage span lands in one renderable tree
    from .obs.trace import activate, deactivate, new_trace_id, tracer

    if args.file is None:
        raise SystemExit("trace: need a source file")
    tid = new_trace_id()
    token = activate(tid)
    try:
        with tracer.span("cli.compile"):
            cp = _compile(args)
        with tracer.span("cli.simulate"):
            res = simulate(cp, _inputs(args), _config(args))
    finally:
        deactivate(token)
    print(render_tree(tracer.take(tid)))
    for var, value in sorted(res.memory.items()):
        print(f"# {var} = {value}", file=sys.stderr)
    print(f"# {res.metrics.summary()}", file=sys.stderr)
    return 0


def _service_metrics(args) -> int:
    with _client(args) as client:
        m = client.metrics()
    if args.json:
        import json

        print(json.dumps(m, indent=2, sort_keys=True))
        return 0
    for name, value in sorted(m["counters"].items()):
        print(f"counter    {name:32s} {value}")
    for name, value in sorted(m["gauges"].items()):
        print(f"gauge      {name:32s} {value:g}")
    for name, h in sorted(m["histograms"].items()):
        mean = h["sum"] / h["count"] if h["count"] else 0.0
        print(
            f"histogram  {name:32s} count={h['count']} "
            f"mean={mean:.3f} sum={h['sum']:.3f}"
        )
    return 0


def _shutdown(args) -> int:
    with _client(args) as client:
        draining = client.shutdown()
    print(f"# shutdown acknowledged, {draining} jobs draining",
          file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Imperative-to-dataflow compiler and ETS machine "
        "(Beck/Johnson/Pingali, ICPP 1990)",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="compile and execute")
    _add_compile_args(p_run)
    _add_run_args(p_run)

    p_compile = subs.add_parser(
        "compile",
        help="compile only and print the per-pass certificate log",
    )
    _add_compile_args(p_compile)
    p_compile.add_argument("--json", action="store_true",
                           help="certificate log as raw JSON")
    p_compile.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for region-compile fan-out "
             "(with --region-compile auto|on)",
    )
    p_compile.add_argument(
        "--cache-dir", default=None,
        help="disk tier for memoized region/whole-program graphs",
    )

    p_stats = subs.add_parser(
        "stats",
        help="graph inventory for a source file, or live service stats "
        "with --socket/--port",
    )
    _add_compile_args(p_stats, optional_file=True)
    _add_endpoint_args(p_stats)
    p_stats.add_argument("--json", action="store_true",
                         help="service stats as raw JSON")
    p_stats.add_argument("--timeout", type=float, default=10.0,
                         help="service RPC timeout (seconds)")

    p_dot = subs.add_parser("dot", help="emit graphviz")
    _add_compile_args(p_dot)
    p_dot.add_argument("--stage", default="dfg", choices=("cfg", "dfg"))

    p_trace = subs.add_parser(
        "trace",
        help="execute and dump firings; --spans renders the pipeline "
        "span tree instead, --socket/--port traces through a service",
    )
    _add_compile_args(p_trace, optional_file=True)
    _add_run_args(p_trace)
    _add_endpoint_args(p_trace)
    p_trace.add_argument("--spans", action="store_true",
                         help="render compile/simulate spans as a tree")
    p_trace.add_argument("--trace-id", default=None, metavar="ID",
                         help="fetch a past trace from the service")
    p_trace.add_argument("--timeout", type=float, default=60.0,
                         help="socket timeout (seconds)")

    subs.add_parser("schemas", help="list translation schemas")

    p_bench = subs.add_parser(
        "bench",
        help="batch corpus sweep through the engine (cache + process pool)",
    )
    p_bench.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (1 = serial in-process)",
    )
    p_bench.add_argument(
        "--cache-dir", default=None,
        help="on-disk compiled-graph cache shared across runs and workers",
    )
    p_bench.add_argument(
        "--repeat", type=int, default=1,
        help="sweep repetitions (2+ shows warm-cache speedup)",
    )
    p_bench.add_argument(
        "--schemas", default=None, metavar="S1,S2",
        help="comma-separated schema subset (default: all legal per program)",
    )
    p_bench.add_argument(
        "--programs", default=None, metavar="P1,P2",
        help="comma-separated corpus program subset",
    )
    p_bench.add_argument(
        "--verify", action="store_true",
        help="check every result against the reference interpreter",
    )
    p_bench.add_argument(
        "--sim-mode", default="auto",
        choices=SIM_MODES,
        help="scheduler loop for every job (auto = packed where exact)",
    )

    p_fuzz = subs.add_parser(
        "fuzz",
        help="differential fuzzing: generated programs through every "
        "semantic route, divergences minimized into regression repros",
    )
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="base seed; program i uses seed+i")
    p_fuzz.add_argument("--count", type=int, default=100,
                        help="programs to generate and check")
    p_fuzz.add_argument("--budget-s", type=float, default=None,
                        help="wall-clock budget; stop generating past it")
    p_fuzz.add_argument(
        "--knob", action="append", default=[], metavar="K=V",
        help="generator knob override, e.g. --knob n_stmts=20 "
        "--knob irreducible=0.5 (repeatable)",
    )
    p_fuzz.add_argument("--minimize", action="store_true",
                        help="ddmin-shrink each divergence and persist it")
    p_fuzz.add_argument("--out", default=None, metavar="DIR",
                        help="where minimized repros land "
                        "(default tests/corpus/regressions/)")
    p_fuzz.add_argument("--no-pool", action="store_true",
                        help="skip the serial-vs-pooled batch route")
    p_fuzz.add_argument("--cache-dir", default=None,
                        help="disk tier for the cached-route check")
    p_fuzz.add_argument("--replay", default=None, metavar="FILE",
                        help="re-run the oracle on one regression file")
    p_fuzz.add_argument(
        "--verify-passes", default="off",
        choices=("off", "cheap", "full"),
        help="per-pass certificate checking during the oracle's compiles",
    )
    p_fuzz.add_argument(
        "--blame", action="store_true",
        help="recompile findings with full pass verification to label "
        "the guilty pass; minimize against that pass's verifier",
    )

    p_serve = subs.add_parser(
        "serve",
        help="run the always-on compile/simulate service "
        "(UNIX socket or TCP, JSON-lines protocol)",
    )
    _add_endpoint_args(p_serve)
    p_serve.add_argument(
        "--max-queue", type=int, default=64,
        help="waiting-job bound; beyond it submits get queue_full",
    )
    p_serve.add_argument(
        "--max-batch", type=int, default=8,
        help="most jobs one micro-batch takes; a batch runs as soon as "
        "the engine is idle, and jobs that arrive meanwhile form the next",
    )
    p_serve.add_argument(
        "--jobs", type=int, default=1,
        help="persistent engine workers (1 = serial in-process)",
    )
    p_serve.add_argument(
        "--cache-dir", default=None,
        help="on-disk compiled-graph cache shared with other runs",
    )
    _add_snapshot_args(p_serve)

    p_fleet = subs.add_parser(
        "fleet",
        help="run a consistent-hash router over N backend shard servers "
        "(same wire protocol as serve; existing clients work unchanged)",
    )
    _add_endpoint_args(p_fleet)
    p_fleet.add_argument(
        "--shards", type=int, default=2,
        help="backend server processes to spawn and route over",
    )
    p_fleet.add_argument(
        "--replication", type=int, default=2,
        help="ring successors a hot graph may be served from",
    )
    p_fleet.add_argument(
        "--hot-threshold", type=int, default=4,
        help="routings of one graph key before it counts as hot",
    )
    p_fleet.add_argument(
        "--max-pending", type=int, default=128,
        help="per-shard outstanding-job bound at the router; beyond it "
        "submits get queue_full",
    )
    p_fleet.add_argument(
        "--socket-dir", default=None,
        help="directory for shard sockets and logs (default: a fresh "
        "temp dir)",
    )
    p_fleet.add_argument(
        "--no-respawn", action="store_true",
        help="do not restart a crashed shard (default is to respawn)",
    )
    p_fleet.add_argument(
        "--max-queue", type=int, default=64,
        help="per-shard waiting-job bound (passed to each shard)",
    )
    p_fleet.add_argument(
        "--max-batch", type=int, default=8,
        help="per-shard micro-batch size cap",
    )
    p_fleet.add_argument(
        "--jobs", type=int, default=1,
        help="engine workers per shard (1 = serial in-process)",
    )
    p_fleet.add_argument(
        "--cache-dir", default=None,
        help="disk cache shared by all shards (atomic content-addressed "
             "writes); respawned shards come back warm",
    )
    _add_snapshot_args(p_fleet)

    p_submit = subs.add_parser(
        "submit", help="compile and run one program on a running service"
    )
    _add_compile_args(p_submit)
    _add_run_args(p_submit)
    _add_endpoint_args(p_submit)
    p_submit.add_argument(
        "--deadline-ms", type=float, default=None,
        help="submit-to-result deadline; expiry returns an error",
    )
    p_submit.add_argument("--timeout", type=float, default=60.0,
                          help="socket timeout (seconds)")

    p_metrics = subs.add_parser(
        "metrics",
        help="metrics-registry snapshot from a running service "
        "(counters, gauges, histograms)",
    )
    _add_endpoint_args(p_metrics)
    p_metrics.add_argument("--json", action="store_true",
                           help="raw JSON snapshot")
    p_metrics.add_argument("--timeout", type=float, default=10.0,
                           help="socket timeout (seconds)")

    p_shutdown = subs.add_parser(
        "shutdown", help="gracefully drain and stop a running service"
    )
    _add_endpoint_args(p_shutdown)
    p_shutdown.add_argument("--timeout", type=float, default=10.0,
                            help="socket timeout (seconds)")

    args = parser.parse_args(argv)

    if args.command == "schemas":
        for s in SCHEMAS:
            print(s)
        return 0

    if args.command == "bench":
        return _bench(args)
    if args.command == "compile":
        return _compile_cmd(args)
    if args.command == "fuzz":
        return _fuzz(args)
    if args.command == "serve":
        return _serve(args)
    if args.command == "fleet":
        return _fleet(args)
    if args.command == "submit":
        return _submit(args)
    if args.command == "shutdown":
        return _shutdown(args)
    if args.command == "metrics":
        return _service_metrics(args)
    if args.command == "stats" and (args.socket or args.port):
        return _service_stats(args)
    if args.command == "stats" and args.file is None:
        raise SystemExit(
            "stats: give a source file for a graph inventory, or "
            "--socket/--port for live service stats"
        )
    if args.command == "trace" and (
        args.spans or args.socket or args.port
    ):
        return _trace_spans(args)
    if args.command == "trace" and args.file is None:
        raise SystemExit("trace: need a source file")

    cp = _compile(args)

    if args.command == "stats":
        st = graph_stats(cp.graph)
        print(st.summary())
        for kind, count in sorted(st.by_kind.items()):
            print(f"  {kind:12s} {count}")
        if cp.loops:
            print(f"  loops: {len(cp.loops)}")
        if cp.array_report:
            print(f"  fig14: {cp.array_report}")
        return 0

    if args.command == "dot":
        if args.stage == "cfg":
            print(cfg_to_dot(cp.cfg), end="")
        else:
            print(dfg_to_dot(cp.graph), end="")
        return 0

    res = simulate(cp, _inputs(args), _config(args, trace=args.command == "trace"))
    if args.command == "trace":
        for cyc, nid, desc, ctx in res.trace:
            print(f"{cyc:6d}  n{nid:<4d} {desc:24s} {ctx}")
    for var, value in sorted(res.memory.items()):
        print(f"{var} = {value}")
    print(f"# {res.metrics.summary()}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    try:
        code = main()
    except BrokenPipeError:
        # downstream pager/head closed the pipe; exit quietly like a
        # well-behaved filter (devnull swallows the flush at shutdown)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    raise SystemExit(code)
