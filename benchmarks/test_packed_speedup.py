"""Packed-backend speedup — the flat-array interpreter versus the object
graph reference loop, and payload shipping versus whole-program shipping.

Two acceptance claims, measured on the full corpus × schema sweep (the
114-job workload every experiment suite revolves around):

* **serial**: with a warm graph cache, the packed interpreter's summed
  simulation time is ≥3x faster than the per-cycle reference loop
  (``sim_mode="step"``);
* **pooled**: ``--jobs 4`` beats the serial sweep outright.  Workers
  receive the compact :class:`~repro.machine.packed.PackedProgram`
  payload (parent-compiled, chunk-dispatched), which is what turned the
  pool from a regression into a win.

Every configuration must agree bit-for-bit on results — the differential
suite (tests/engine/test_packed_differential.py) enforces that per field;
here we spot-check memory and cycle counts across configurations.
"""

import time

import pytest

from repro.bench import corpus_jobs, format_table
from repro.engine import GraphCache, make_pool, run_batch
from repro.machine import MachineConfig


def _sweep(jobs, cache, pool=None, repeats=3):
    """Best-of-N warm sweep: (wall seconds, summed sim seconds, results)."""
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        results = run_batch(jobs, cache=cache, pool=pool)
        wall = time.perf_counter() - t0
        if best is None or wall < best[0]:
            best = (wall, sum(r.sim_time for r in results), results)
    return best


def _median(xs):
    xs = sorted(xs)
    return xs[len(xs) // 2]


def _interleaved_walls(jobs, cache, pool, repeats=11):
    """Alternate serial and pooled sweeps and report median walls.

    Interleaving cancels environmental drift (frequency scaling, noisy
    neighbours) that would otherwise dominate a back-to-back comparison;
    the median is robust to the stray slow sweep either side takes."""
    serial, pooled = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        run_batch(jobs, cache=cache)
        serial.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        run_batch(jobs, cache=cache, pool=pool)
        pooled.append(time.perf_counter() - t0)
    return _median(serial), _median(pooled)


@pytest.mark.benchmark(group="engine")
def test_packed_speedup(tmp_path, save_result):
    modes = {
        mode: corpus_jobs(config=MachineConfig(sim_mode=mode))
        for mode in ("step", "packed")
    }
    auto_jobs = corpus_jobs()
    cache = GraphCache()
    run_batch(auto_jobs, cache=cache)  # warm the cache once for all modes

    serial = {
        mode: _sweep(jobs, cache) for mode, jobs in modes.items()
    }

    pool = make_pool(4, cache_dir=tmp_path)
    try:
        pooled_results = run_batch(auto_jobs, cache=cache, pool=pool)
        serial_wall, pooled_wall = _interleaved_walls(
            auto_jobs, cache, pool
        )
    finally:
        pool.terminate()
        pool.join()
    serial_results = run_batch(auto_jobs, cache=cache)

    # identical observables across every configuration
    for ref, br in zip(serial["step"][2], serial["packed"][2]):
        assert ref.ok and br.ok, (ref.error, br.error)
        assert ref.result.memory == br.result.memory
        assert ref.result.metrics.cycles == br.result.metrics.cycles
        assert ref.result.metrics.operations == br.result.metrics.operations
    for ref, br in zip(serial_results, pooled_results):
        assert ref.ok and br.ok, (ref.error, br.error)
        assert br.result.backend == "packed"  # auto on idealized config
        assert ref.result.memory == br.result.memory
        assert ref.result.metrics.cycles == br.result.metrics.cycles

    step_sim, packed_sim = serial["step"][1], serial["packed"][1]
    n = len(auto_jobs)
    rows = [
        ["serial, sim_mode=step (reference loop)", f"{step_sim:.3f}", "1.00x"],
        [
            "serial, sim_mode=packed (flat-array interpreter)",
            f"{packed_sim:.3f}",
            f"{step_sim / packed_sim:.2f}x",
        ],
    ]
    pool_rows = [
        ["serial sweep (auto -> packed)", f"{serial_wall:.3f}"],
        ["--jobs 4 sweep (packed payload shipping)", f"{pooled_wall:.3f}"],
    ]
    save_result(
        "packed_speedup",
        f"full corpus sweep, {n} (program, schema) jobs, warm graph cache\n\n"
        "simulation-loop time (sum over jobs, best of 3 sweeps):\n"
        + format_table(["configuration", "sim s", "speedup"], rows)
        + "\n\nwall time per sweep (median of 11 interleaved runs,"
        " persistent 4-worker pool):\n"
        + format_table(["configuration", "wall s"], pool_rows)
        + f"\n\npool speedup: {serial_wall / pooled_wall:.2f}x — workers"
        "\nskip graph validation/frame-store setup and receive flat"
        "\nPackedProgram payloads in chunked dispatches, so the pool wins"
        "\neven where cores are scarce; the margin grows with core count",
    )

    # the tentpole's acceptance bar
    assert packed_sim * 3 <= step_sim, (
        f"packed {packed_sim:.3f}s not >=3x faster than step {step_sim:.3f}s"
    )
    assert pooled_wall < serial_wall, (
        f"pooled sweep median {pooled_wall:.3f}s not faster than serial "
        f"median {serial_wall:.3f}s"
    )
