"""Fleet vs single-server saturation — the evidence for the sharded
router: the same seeded open-loop campaign swept over offered rates
against one PR-2 server and against a 2-shard fleet, recorded as
``BENCH_service.json`` so the perf trajectory survives re-anchors.

On a multi-core runner the fleet must reach >= 1.5x the single-server
saturation throughput at equal-or-better p99.  On starved runners (the
1-CPU container this repo grows in) both configurations share one core
— every shard is time-sliced against the router and the loadgen — so
the ratio is meaningless there; the JSON is still written, and the
ratio assertion is gated on ``os.cpu_count() >= 4``.
"""

import json
import os
import pathlib

import pytest

from repro.bench.loadgen import _default_jobs, saturation_sweep
from repro.fleet import running_fleet
from repro.service import running_server

RESULTS = pathlib.Path(__file__).parent / "results"

SHARDS = 2
RATES = [50.0, 100.0, 200.0, 400.0]
DURATION_S = 3.0
CONNECTIONS = 4
SEED = 7


@pytest.mark.benchmark(group="service")
def test_fleet_vs_single_saturation(save_result):
    jobs = _default_jobs(n_programs=8, iters=400)

    with running_server(max_queue=256, max_batch=8) as (ep, _server):
        single = saturation_sweep(
            ep, jobs, RATES, duration_s=DURATION_S,
            connections=CONNECTIONS, seed=SEED,
        )

    with running_fleet(
        shards=SHARDS, max_queue=256, max_batch=8, max_pending=512,
    ) as (ep, _router):
        fleet = saturation_sweep(
            ep, jobs, RATES, duration_s=DURATION_S,
            connections=CONNECTIONS, seed=SEED,
        )

    s_sat, f_sat = single["saturation"], fleet["saturation"]
    ratio = (
        f_sat["throughput"] / s_sat["throughput"]
        if s_sat["throughput"] > 0 else 0.0
    )
    record = {
        "campaign": {
            "jobs": len(jobs),
            "rates": RATES,
            "duration_s": DURATION_S,
            "connections": CONNECTIONS,
            "seed": SEED,
        },
        "cpu_count": os.cpu_count(),
        "single": single,
        "fleet": {"shards": SHARDS, **fleet},
        "comparison": {
            "throughput_ratio": ratio,
            "single_p99_ms": s_sat["p99_ms"],
            "fleet_p99_ms": f_sat["p99_ms"],
        },
    }
    RESULTS.mkdir(exist_ok=True)
    # read-modify-write: keys other benches write into the same file
    # survive
    path = RESULTS / "BENCH_service.json"
    try:
        merged = json.loads(path.read_text())
    except (OSError, ValueError):
        merged = {}
    merged.update(record)
    path.write_text(json.dumps(merged, indent=2) + "\n")

    # both configurations actually served the campaign
    assert s_sat["throughput"] > 0
    assert f_sat["throughput"] > 0

    lines = [
        f"seeded open-loop sweep, rates {RATES} jobs/s, "
        f"{DURATION_S:.0f}s x {CONNECTIONS} connections, seed {SEED}",
        f"runner: {os.cpu_count()} CPU(s)",
        "",
        f"single server saturation: {s_sat['throughput']:.1f} jobs/s "
        f"(offered {s_sat['offered_rate']:.0f}/s, p99 "
        f"{s_sat['p99_ms']:.1f}ms)",
        f"fleet ({SHARDS} shards)  saturation: {f_sat['throughput']:.1f} "
        f"jobs/s (offered {f_sat['offered_rate']:.0f}/s, p99 "
        f"{f_sat['p99_ms']:.1f}ms)",
        f"fleet/single throughput ratio: {ratio:.2f}x",
        "",
        "full per-rate points recorded in BENCH_service.json",
    ]
    if os.cpu_count() and os.cpu_count() >= 4:
        # the acceptance bar, only meaningful when shards get real cores
        assert ratio >= 1.5, record["comparison"]
        assert f_sat["p99_ms"] <= s_sat["p99_ms"] * 1.05, (
            record["comparison"]
        )
        lines.append("acceptance: fleet >= 1.5x at equal-or-better p99 — "
                     "PASS")
    else:
        lines.append("acceptance ratio not asserted: runner has "
                     f"{os.cpu_count()} CPU(s) (< 4); shards are "
                     "time-sliced on one core so the ratio is noise")
    save_result("fleet_throughput", "\n".join(lines))
