"""Engine speedup — the batch engine versus the seed-style workflow.

Three ways to run the identical full corpus × schema sweep:

* **baseline** — what every bench did before the engine existed: compile
  each job from source, simulate with the per-cycle reference loop
  (``sim_mode="step"``), serially;
* **engine serial** — warm `GraphCache` + the packed interpreter's fast
  path (``sim_mode="auto"``), still one process;
* **engine pool** — the same warm-cache sweep fanned across
  ``run_batch(..., pool_size=4)`` workers sharing a disk cache tier.

All three must produce identical final memories (they are the same jobs);
the engine configurations must be measurably faster than the baseline.
"""

import time

import pytest

from repro.bench import corpus_jobs, format_table
from repro.engine import GraphCache, run_batch
from repro.machine import MachineConfig
from repro.translate import compile_program, simulate


def _baseline(jobs):
    """The pre-engine workflow: fresh compiles + per-cycle stepping."""
    out = []
    for job in jobs:
        cp = compile_program(job.source, options=job.options)
        out.append(simulate(cp, job.inputs, MachineConfig(sim_mode="step")))
    return out


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


@pytest.mark.benchmark(group="engine")
def test_engine_speedup(tmp_path, save_result):
    jobs = corpus_jobs()
    cache = GraphCache()
    disk_dir = tmp_path / "graphs"

    base_s, base = _timed(lambda: _baseline(jobs))

    # warm both cache tiers, then measure the steady state the experiment
    # suite actually runs in (every sweep after the first)
    run_batch(jobs, pool_size=1, cache=cache)
    serial_s, serial = _timed(lambda: run_batch(jobs, pool_size=1, cache=cache))

    run_batch(jobs, pool_size=4, cache_dir=disk_dir)
    pool_s, pooled = _timed(lambda: run_batch(jobs, pool_size=4, cache_dir=disk_dir))

    for ref, br_s, br_p in zip(base, serial, pooled):
        assert ref.memory == br_s.result.memory == br_p.result.memory
        assert ref.metrics.operations == br_s.result.metrics.operations
        assert br_s.result.metrics.cycles == br_p.result.metrics.cycles
    assert all(r.cache_hit for r in serial)
    assert all(r.cache_hit for r in pooled)

    rows = [
        ["baseline (fresh compile, per-cycle, serial)", f"{base_s:.3f}", "1.00x"],
        [
            "engine (warm cache, fast path, serial)",
            f"{serial_s:.3f}",
            f"{base_s / serial_s:.2f}x",
        ],
        [
            "engine (warm disk cache, fast path, --jobs 4)",
            f"{pool_s:.3f}",
            f"{base_s / pool_s:.2f}x",
        ],
    ]
    save_result(
        "engine_speedup",
        f"full corpus sweep, {len(jobs)} (program, schema) jobs\n"
        + format_table(["configuration", "wall s", "speedup"], rows)
        + "\npool timing includes spawning 4 worker processes; the pool wins"
        "\ngrow with job cost (repro bench --repeat N amortizes the spawn)",
    )
    # the engine must beat the seed workflow; the margin is asserted loosely
    # because CI runners vary, but locally it is >2x serial and more pooled
    assert serial_s < base_s
