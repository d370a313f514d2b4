"""End-to-end benchmark: source text to a checked simulated result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload compile_cold --seed 1 \\
        --seconds 22 --trace 0
    python3 perfbench/run.py --workload sim_warm --seed 1 --seconds 22 \\
        --trace 1
    python3 perfbench/run.py --smoke --workload serve_zipf --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` runs the same
seed and op sequence with spans around each layer's public calls and
prints every per-layer metric.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 only when every op's final memory equals ``run_ast`` on
the same program and inputs and every exact count repeats; see
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = HERE / ".state"

WORKLOADS = ("compile_cold", "sim_warm", "serve_zipf", "edit_recompile")

#: default seed, and the seed held out for confirming later claims
DEFAULT_SEED = 1
HELD_OUT_SEED = 2

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "wide.op_ms.p50": "ms",
    "ok_share": "ratio",
    "peak_rss_mb": "MiB",
    "sim_cycles": "count",
    "graph_nodes": "count",
}

#: per-layer metric -> unit; ``_ms`` metrics are mean self time per op
PER_LAYER = {
    "lang.lex_ms": "ms",
    "lang.parse_ms": "ms",
    "lang.tokens": "count",
    "cfg.build_ms": "ms",
    "cfg.intervals_ms": "ms",
    "cfg.nodes": "count",
    "translate.switch_placement_ms": "ms",
    "translate.source_vectors_ms": "ms",
    "translate.construct_ms": "ms",
    "translate.streams": "count",
    "translate.sv_entries": "count",
    "regions.lookup_ms": "ms",
    "regions.plan_ms": "ms",
    "regions.stitch_ms": "ms",
    "regions.hit_ratio": "ratio",
    "machine.pack_ms": "ms",
    "machine.sim_ms": "ms",
    "machine.firings": "count",
    "machine.ns_per_firing": "ns",
    "wide.machine.ns_per_firing": "ns",
    "engine.lookup_ms": "ms",
    "engine.hit_ratio": "ratio",
    "engine.compiles": "count",
    "engine.evictions": "count",
    "service.queue_ms.p50": "ms",
    "service.sim_ms.p50": "ms",
    "service.compile_ms.p90": "ms",
    "service.total_ms.p50": "ms",
    "service.batch_size": "count",
    "service.reply_ms.p50": "ms",
    "service.rejected": "count",
    "traced.op_ms.p50": "ms",
}

#: per-layer mean self time per op <- span name
SELF_TIME = {
    "lang.lex_ms": "lang.lex",
    "lang.parse_ms": "lang.parse",
    "cfg.build_ms": "cfg.build",
    "cfg.intervals_ms": "cfg.intervals",
    "translate.switch_placement_ms": "translate.switch_placement",
    "translate.source_vectors_ms": "translate.source_vectors",
    "translate.construct_ms": "translate.construct",
    "regions.lookup_ms": "regions.lookup",
    "regions.plan_ms": "regions.plan",
    "machine.pack_ms": "machine.pack",
    "machine.sim_ms": "machine.sim",
    "engine.lookup_ms": "engine.lookup",
}

#: per-layer mean count per op <- counter name
PER_OP_COUNT = ("lang.tokens", "cfg.nodes", "translate.streams",
                "translate.sv_entries")

#: smoke runs reach the first wide op
SMOKE_OPS = 20

#: length of the edit sequence; no run on a 2-core host comes near it
MAX_EDITS = 2000

#: a run that overruns this is abandoned, so a hung op cannot hang the
#: caller for longer
WATCHDOG_S = 170


class Overrun(Exception):
    pass


def code_fingerprint() -> str:
    """Hash of the program and benchmark sources: exact counts are only
    compared between runs of the same code."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


#: fresh interpreters per run that time the layers' imports; ``setup_s``
#: counts their median
IMPORT_PROBES = 3


def import_probe(workload: str) -> float:
    """Seconds a fresh interpreter takes to import the layers the
    workload drives."""
    modules = ("repro.service",) if workload == "serve_zipf" else (
        "repro.engine", "repro.translate", "repro.translate.regions")
    code = "import time; t = time.perf_counter(); " + "; ".join(
        f"import {m}" for m in modules) + "; print(time.perf_counter() - t)"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=True,
                         timeout=60)
    return float(out.stdout)


def make_workload(name: str, seed: int, smoke: bool, spans, speed):
    import gen
    import workloads as wl

    if name == "compile_cold":
        plan = gen.plan_compile_cold(seed, smoke)
        return wl.CompileCold(plan, spans, speed, smoke)
    if name == "sim_warm":
        return wl.SimWarm(gen.plan_sim_warm(seed, smoke), spans, speed, smoke)
    if name == "serve_zipf":
        return wl.ServeZipf(gen.plan_serve_zipf(seed, smoke), spans, speed,
                            smoke, ROOT, STATE)
    plan = gen.plan_edit_recompile(
        seed, smoke, SMOKE_OPS * 2 if smoke else MAX_EDITS)
    return wl.EditRecompile(plan, spans, speed, smoke)


def check(run) -> list[str]:
    """Compare every op's final memory with ``run_ast``; return one line
    per failed op."""
    from repro.interp.ast_interp import run_ast
    from repro.lang import parse

    refs: dict = {}
    failures = []
    for o in run.timed + run.untimed:
        if o.error is not None:
            failures.append(f"op {o.op}: {o.error}")
            continue
        if o.ref_key not in refs:
            source, inputs = o.ref_key
            refs[o.ref_key] = run_ast(parse(source), dict(inputs))
        if o.memory != refs[o.ref_key]:
            failures.append(f"op {o.op}: final memory differs from run_ast")
    return failures


def census_sums(run) -> dict:
    """Count metrics summed over the census (first result per job)."""
    seen: dict = {}
    for o in run.timed + run.untimed:
        if o.census and o.error is None and o.census not in seen:
            seen[o.census] = o
    return {
        "sim_cycles": sum(o.cycles for o in seen.values()),
        "graph_nodes": sum(o.nodes for o in seen.values()),
        "machine.firings": sum(o.firings for o in seen.values()),
        "census_jobs": len(seen),
    }


class Scaled:
    """A run's times scaled to the reference host (see ``hostspeed``)."""

    def __init__(self, run, speed, imports: list[tuple[float, float]]):
        self.run, self.speed = run, speed
        self.slowdown = speed.slowdown_between(run.t_start, run.t_end)
        self.import_s = statistics.median(
            s / speed.slowdown_at(t) for t, s in imports)

    def op_ms(self, o) -> float:
        return o.latency_s * 1e3 / self.speed.slowdown_at(
            o.start + o.latency_s / 2)

    def ops_per_s(self) -> float:
        return len(self.run.timed) / self.speed.scaled_seconds(
            self.run.t_start, self.run.t_end)

    def setup_s(self) -> float:
        return self.import_s + statistics.median(
            (t1 - t0) / self.speed.slowdown_at((t0 + t1) / 2)
            for t0, t1 in self.run.setups)


def end_to_end(run, sums: dict, scaled: Scaled,
               failed: int, attempted: int) -> dict:
    from workloads import percentile

    ms = [scaled.op_ms(o) for o in run.timed]
    wide = [scaled.op_ms(o) for o in run.timed if o.wide]
    return {
        "setup_s": scaled.setup_s(),
        "ops_per_s": scaled.ops_per_s(),
        "op_ms.p50": percentile(ms, 50),
        "op_ms.p90": percentile(ms, 90),
        "wide.op_ms.p50": percentile(wide, 50),
        "ok_share": (attempted - failed) / attempted,
        "peak_rss_mb": run.peak_rss_mb,
        "sim_cycles": sums["sim_cycles"],
        "graph_nodes": sums["graph_nodes"],
    }


def per_layer(run, sums: dict, spans, scaled: Scaled) -> dict:
    """Per-layer metrics; times are scaled by the run's median slowdown."""
    from workloads import percentile

    n = len(run.timed)
    out = {name: 0.0 for name in PER_LAYER}
    for metric, span in SELF_TIME.items():
        out[metric] = spans.self_s.get(span, 0.0) * 1e3 / n
    for metric in PER_OP_COUNT:
        out[metric] = spans.totals.get(metric, 0.0) / n
    sim = {}  # op -> machine.sim self seconds
    for op, name, _, _, _, self_s in spans.records:
        if name == "machine.sim":
            sim[op] = sim.get(op, 0.0) + self_s
    for metric, outs in (("machine.ns_per_firing", run.timed),
                         ("wide.machine.ns_per_firing",
                          [o for o in run.timed if o.wide])):
        firings = sum(o.firings for o in outs)
        if firings:
            out[metric] = sum(sim.get(o.op, 0.0) for o in outs) \
                / firings * 1e9
    out.update(run.layer)
    for metric, unit in PER_LAYER.items():
        if unit in ("ms", "ns"):
            out[metric] /= scaled.slowdown
    out["machine.firings"] = sums["machine.firings"]
    out.update(run.seeded_exact)
    out.update(run.census_exact)
    out["traced.op_ms.p50"] = percentile(
        [scaled.op_ms(o) for o in run.timed], 50)
    return out


def read_ledger() -> list[dict]:
    """Earlier runs' records in this checkout (unreadable lines skipped)."""
    path = STATE / "ledger.jsonl"
    records = []
    if path.exists():
        for line in path.read_text().splitlines():
            try:
                records.append(json.loads(line))
            except ValueError:
                continue
    return records


def repeat_problems(record: dict, earlier: list[dict]) -> list[str]:
    """Compare this run's exact counts with earlier runs of the same code:
    census counts across every seed, seeded counts across runs of the
    same seed.  One line per disagreement, naming the metric and runs."""
    problems = []
    for old in earlier:
        if (old.get("workload"), old.get("code")) != (
                record["workload"], record["code"]):
            continue
        groups = ["census"]
        if old.get("seed") == record["seed"]:
            groups.append("seeded")
        for group in groups:
            for k, v in record[group].items():
                if k in old.get(group, {}) and old[group][k] != v:
                    problems.append(
                        f"{k} = {v} in run {record['run']} but "
                        f"{old[group][k]} in run {old['run']}")
    return problems


def shares(run) -> dict:
    """The measured share of each workload's key property."""
    n = len(run.timed)
    out = {
        "wide_ops": sum(1 for o in run.timed if o.wide) / n,
        "wide_time": sum(o.latency_s for o in run.timed if o.wide)
        / sum(o.latency_s for o in run.timed),
    }
    looked_up = [o for o in run.timed if "hit" in o.extra]
    if looked_up:
        out["cache_hits"] = sum(o.extra["hit"] for o in looked_up) \
            / len(looked_up)
    edits = [o for o in run.timed if o.extra.get("regions")]
    if edits:
        out["region_hits_per_edit"] = statistics.fmean(
            o.extra["region_hits"] / o.extra["regions"] for o in edits)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"input seed (default {DEFAULT_SEED}; keep "
                    f"{HELD_OUT_SEED} held out for confirming claims)")
    ap.add_argument("--seconds", type=float, default=22.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny populations and a few ops, for self-tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    def overrun(signum, frame):
        raise Overrun(f"run exceeded {WATCHDOG_S} s")

    signal.signal(signal.SIGALRM, overrun)
    signal.alarm(WATCHDOG_S)
    try:
        return run_workload(args)
    except Overrun as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 4
    finally:
        signal.alarm(0)


def run_workload(args) -> int:
    STATE.mkdir(exist_ok=True)
    from hostspeed import HostSpeed
    from spans import NullSpans, Spans
    from workloads import bracket, percentile

    speed = HostSpeed()
    imports = []  # (when, seconds) per import probe
    for _ in range(1 if args.smoke else IMPORT_PROBES):
        bracket(speed)
        t0 = time.perf_counter()
        secs = import_probe(args.workload)
        imports.append(((t0 + time.perf_counter()) / 2, secs))
    bracket(speed)
    spans = Spans() if args.trace else NullSpans()
    workload = make_workload(args.workload, args.seed, args.smoke, spans,
                             speed)
    try:
        if args.smoke:
            run = workload.run(min(args.seconds, 1.0), min_ops=SMOKE_OPS)
        else:
            run = workload.run(args.seconds)
    finally:
        spans.uninstall()

    failures = check(run)
    attempted = len(run.timed) + len(run.untimed)
    sums = census_sums(run)
    scaled = Scaled(run, speed, imports)
    if args.trace:
        metrics = per_layer(run, sums, spans, scaled)
        units = PER_LAYER
    else:
        metrics = end_to_end(run, sums, scaled, len(failures), attempted)
        units = END_TO_END

    run_id = f"{args.workload}/seed={args.seed}/trace={args.trace}/" \
        f"{time.strftime('%Y%m%dT%H%M%S')}/{os.getpid()}"
    raw_ms = [o.latency_s * 1e3 for o in run.timed]
    op_p50 = percentile([scaled.op_ms(o) for o in run.timed], 50)
    record = {
        "run": run_id, "workload": args.workload, "seed": args.seed,
        "trace": args.trace, "code": code_fingerprint(),
        "census": {k: sums[k] for k in ("sim_cycles", "graph_nodes",
                                        "machine.firings", "census_jobs")}
        | run.census_exact,
        "seeded": run.seeded_exact,
        "op_ms.p50": op_p50, "ops": len(run.timed), "shares": shares(run),
        "raw": {
            "slowdown": scaled.slowdown,
            "op_ms.p50": percentile(raw_ms, 50),
            "op_ms.p90": percentile(raw_ms, 90),
            "ops_per_s": len(run.timed) / (run.t_end - run.t_start),
            "setup_s": [t1 - t0 for t0, t1 in run.setups],
            "import_s": [s for _, s in imports],
        },
        "host": run.host,
    }
    earlier = [] if args.smoke else read_ledger()
    problems = repeat_problems(record, earlier)
    if args.trace:
        spans.dump(STATE / f"spans-{args.workload}-{args.seed}.jsonl")
        untraced = [old for old in earlier if old.get("trace") == 0 and
                    (old["workload"], old["seed"], old["code"]) ==
                    (args.workload, args.seed, record["code"])]
        if untraced:
            base = untraced[-1]["op_ms.p50"]
            print(f"# tracing overhead: op_ms.p50 {op_p50:.3f} ms traced, "
                  f"{base:.3f} ms in run {untraced[-1]['run']} "
                  f"({(op_p50 / base - 1) * 100:+.1f}%)")
    if not args.smoke and not failures:
        with open(STATE / "ledger.jsonl", "a") as f:
            f.write(json.dumps(record) + "\n")

    for line in failures[:20]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    for line in problems:
        print(f"perfbench: exact-repeat check failed: {line}",
              file=sys.stderr)
    print("# run " + json.dumps(record))
    for name, value in metrics.items():
        print(f"# {name:32s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if not failures and not problems else 1


if __name__ == "__main__":
    sys.exit(main())
