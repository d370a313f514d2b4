"""Differential suite for the packed interpreter.

The flat-array interpreter (:class:`~repro.machine.packed.PackedSimulator`)
claims *bit-identical observables* with the reference per-cycle
simulator: final memory, ``end_values``, every deterministic
:class:`~repro.machine.metrics.Metrics` field including the parallelism
profile and the in-flight and enabled peaks, and the recorded clash list
(contents *and* order).  This suite holds it to that across the full
corpus × every legal schema × every input set, in clash-record mode, on
the raise path, and through the pooled engine.  The sampled occupancy
timeline is pinned separately, in
``tests/machine/test_occupancy_digests.py``.
"""

import pytest

from repro.bench.harness import corpus_jobs, schemas_for

pytestmark = pytest.mark.slow  # full corpus × schemas × inputs sweep
from repro.bench.programs import CORPUS, RUNNING_EXAMPLE
from repro.dfg.nodes import OpKind
from repro.engine import GraphCache, run_batch
from repro.machine import MachineConfig, TokenClashError
from repro.translate import compile_program, simulate

_CACHE = GraphCache()


def _assert_identical(a, b, tag):
    """a = packed run, b = reference run."""
    assert a.memory == b.memory, tag
    assert a.end_values == b.end_values, tag
    ma, mb = a.metrics, b.metrics
    assert ma.cycles == mb.cycles, tag
    assert ma.operations == mb.operations, tag
    assert ma.by_kind == mb.by_kind, tag
    assert ma.memory_ops == mb.memory_ops, tag
    assert ma.switch_ops == mb.switch_ops, tag
    assert ma.merge_ops == mb.merge_ops, tag
    assert ma.synch_ops == mb.synch_ops, tag
    assert ma.clashes == mb.clashes, tag
    assert a.clashes == b.clashes, tag
    assert ma.profile == mb.profile, tag
    assert ma.peak_tokens_in_flight == mb.peak_tokens_in_flight, tag
    assert ma.peak_enabled == mb.peak_enabled, tag


@pytest.mark.parametrize("wl", CORPUS, ids=[w.name for w in CORPUS])
def test_packed_equals_step_full_corpus(wl):
    for schema in schemas_for(wl):
        cp = _CACHE.get_or_compile(wl.source, schema=schema)
        for inputs in wl.inputs:
            packed = simulate(cp, inputs, MachineConfig(sim_mode="packed"))
            assert packed.backend == "packed"
            step = simulate(cp, inputs, MachineConfig(sim_mode="step"))
            assert step.backend == "step"
            _assert_identical(packed, step, (wl.name, schema))


@pytest.mark.parametrize("wl", CORPUS, ids=[w.name for w in CORPUS])
def test_packed_clash_record_mode_full_corpus(wl):
    """on_clash="record" is exact on the packed backend too (valid graphs
    record zero clashes, but the mode must not perturb anything)."""
    for schema in schemas_for(wl):
        cp = _CACHE.get_or_compile(wl.source, schema=schema)
        inputs = wl.inputs[0]
        packed = simulate(
            cp, inputs, MachineConfig(sim_mode="packed", on_clash="record")
        )
        step = simulate(
            cp, inputs, MachineConfig(sim_mode="step", on_clash="record")
        )
        _assert_identical(packed, step, (wl.name, schema))


def _fig08_clashing_program():
    """Schema 2 without loop control and a slow y-store: x's chain races
    into the next iteration while y still holds its tokens — real
    same-tag clashes (the Section 3 demonstration)."""
    cp = compile_program(
        RUNNING_EXAMPLE.source, schema="schema2", insert_loops=False
    )
    for node in cp.graph.nodes.values():
        if node.kind is OpKind.STORE and node.var == "y":
            node.latency = 60
    return cp


def test_clash_record_ordering_matches_step():
    """Real clashes: the packed overflow deques must replay the
    reference per-port deques exactly — same clash count, same (node,
    port, context) reports, same order, same final state."""
    cp = _fig08_clashing_program()
    flat = simulate(
        cp,
        None,
        MachineConfig(sim_mode="packed", on_clash="record",
                      memory_latency=8),
    )
    step = simulate(
        cp,
        None,
        MachineConfig(sim_mode="step", on_clash="record", memory_latency=8),
    )
    assert flat.metrics.clashes >= 2  # deques hold more than one extra
    _assert_identical(flat, step, "fig08-record")


def test_clash_raise_matches_step():
    cp = _fig08_clashing_program()
    with pytest.raises(TokenClashError) as flat_err:
        simulate(cp, None, MachineConfig(sim_mode="packed",
                                         memory_latency=8))
    with pytest.raises(TokenClashError) as step_err:
        simulate(cp, None, MachineConfig(sim_mode="step", memory_latency=8))
    assert str(flat_err.value) == str(step_err.value)


def test_auto_prefers_flat_only_when_exact():
    cp = _CACHE.get_or_compile(RUNNING_EXAMPLE.source, schema="schema2_opt")
    auto = simulate(cp, None)
    assert auto.backend == "packed"
    finite = simulate(cp, None, MachineConfig(num_pes=2))
    assert finite.backend == "step"
    bounded = simulate(cp, None, MachineConfig(loop_bound=1))
    assert bounded.backend == "step"
    forced = simulate(cp, None, MachineConfig(sim_mode="step"))
    assert forced.backend == "step"
    assert (auto.memory == finite.memory == bounded.memory
            == forced.memory)


def test_pooled_packed_equals_serial(tmp_path):
    """run_batch through a real pool (parent-compiled, payload-shipped)
    returns exactly what the serial loop returns, in job order."""
    jobs = corpus_jobs(programs=["running_example", "gcd", "array_loop"])
    assert jobs
    serial = run_batch(jobs, cache=GraphCache())
    pooled = run_batch(
        jobs, pool_size=2, cache=GraphCache(), cache_dir=tmp_path
    )
    assert len(serial) == len(pooled) == len(jobs)
    for i, (s, p) in enumerate(zip(serial, pooled)):
        assert s.ok and p.ok, (s.error, p.error)
        assert s.index == p.index == i
        assert p.result.backend == "packed"  # auto on idealized config
        _assert_identical(p.result, s.result, jobs[i].name)
