"""The differential-testing layer (WaveCert-style translation validation,
applied to the engine's own shortcuts).

Two families of equivalences, over every corpus program × every legal
schema:

* **cached-compile ≡ fresh-compile** — a graph served from the engine
  cache (memory or disk tier) is structurally identical to one compiled
  from source, and simulates identically;
* **auto ≡ per-cycle** — ``auto`` runs the packed interpreter exactly
  when the machine is idealized, and every config agrees on final memory
  with the per-cycle scheduler (the seed implementation's loop).  The
  full packed-vs-step bit-identity sweep lives in
  ``test_packed_differential.py``.
"""

import pytest

from repro.bench.harness import schemas_for
from repro.bench.programs import CORPUS
from repro.dfg.stats import graph_stats
from repro.engine import GraphCache
from repro.machine import MachineConfig
from repro.translate import compile_program, simulate

_CACHE = GraphCache()


def _assert_same_run(a, b, tag):
    assert a.memory == b.memory, tag
    assert a.end_values == b.end_values, tag
    assert a.metrics.operations == b.metrics.operations, tag
    assert a.metrics.cycles == b.metrics.cycles, tag
    assert a.metrics.by_kind == b.metrics.by_kind, tag
    assert a.metrics.memory_ops == b.metrics.memory_ops, tag
    assert a.metrics.clashes == b.metrics.clashes, tag


@pytest.mark.parametrize("wl", CORPUS, ids=[w.name for w in CORPUS])
def test_cached_compile_equals_fresh_compile(wl, tmp_path):
    disk = GraphCache(cache_dir=tmp_path)
    for schema in schemas_for(wl):
        fresh = compile_program(wl.source, schema=schema)
        cached = _CACHE.get_or_compile(wl.source, schema=schema)
        from_disk_cold = disk.get_or_compile(wl.source, schema=schema)
        disk._mem.clear()  # force the next lookup through the disk tier
        from_disk, hit = disk.lookup(wl.source, schema=schema)
        assert hit
        want = graph_stats(fresh.graph)
        for other in (cached, from_disk_cold, from_disk):
            assert graph_stats(other.graph) == want, (wl.name, schema)
        inputs = wl.inputs[0]
        _assert_same_run(
            simulate(fresh, inputs),
            simulate(from_disk, inputs),
            (wl.name, schema, "cached-vs-fresh"),
        )


@pytest.mark.parametrize("wl", CORPUS, ids=[w.name for w in CORPUS])
def test_auto_mode_picks_fast_only_when_exact(wl):
    cp = _CACHE.get_or_compile(wl.source, schema="memory_elim")
    inputs = wl.inputs[0]
    auto = simulate(cp, inputs)
    assert auto.backend == "packed"  # idealized machine
    finite = simulate(cp, inputs, MachineConfig(num_pes=2))
    assert finite.backend == "step"  # PE arbitration forces stepping
    bounded = simulate(cp, inputs, MachineConfig(loop_bound=1))
    assert bounded.backend == "step"  # k-bounding forces stepping
    ref = simulate(cp, inputs, MachineConfig(sim_mode="step"))
    assert finite.memory == bounded.memory == ref.memory


def test_fast_mode_rejects_stateful_configs():
    with pytest.raises(ValueError):
        MachineConfig(sim_mode="fast", num_pes=2)
    with pytest.raises(ValueError):
        MachineConfig(sim_mode="fast", loop_bound=1)
    with pytest.raises(ValueError):
        MachineConfig(sim_mode="bogus")
