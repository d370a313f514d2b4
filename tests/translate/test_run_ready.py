"""The run-ready form of a compiled program.

A compiled graph may be changed only until its first run: the first
idealized run lowers it (``CompiledProgram.ensure_packed``), the
lowering is the one place the graph is validated, and every later run
executes that memoized executable.  ``step`` runs read the object graph
and the memory spec, and never lower.
"""

import dataclasses
import pickle
import types

import pytest

import repro.engine.batch as batch_mod
import repro.translate.pipeline as pipeline_mod
from repro.bench.programs import RUNNING_EXAMPLE, workload
from repro.dfg.graph import DFGError, DFGraph
from repro.dfg.nodes import OpKind, Seed
from repro.dfg.stats import graph_stats
from repro.engine import BatchJob, GraphCache, run_batch
from repro.engine.cache import graph_key
from repro.lang.ast_nodes import Program
from repro.machine import MachineConfig, simulate_graph
from repro.translate import CompileOptions, compile_program, simulate

STEP = MachineConfig(sim_mode="step")


def _dangling_graph() -> DFGraph:
    """START -> BINOP -> END with the BINOP's second input unwired."""
    g = DFGraph()
    start = g.add(OpKind.START, seeds=(Seed("access", "a"),))
    end = g.add(OpKind.END, returns=(None,))
    add = g.add(OpKind.BINOP, op="+")
    g.connect((start.id, 0), add.id, 0)
    g.connect((add.id, 0), end.id, 0)
    return g


def test_idealized_runs_validate_once_in_the_lowering(monkeypatch):
    """Five idealized runs lower the graph once.  The lowering checks the
    graph as it walks it, so a valid graph never reaches
    ``DFGraph.validate``; the unconnected-port test below shows that the
    check still runs on a first run."""
    cp = compile_program(RUNNING_EXAMPLE.source, schema="schema2_opt")
    lowered, validated = [], []
    real_pack = pipeline_mod.pack_graph
    real_validate = DFGraph.validate

    def counting_pack(graph):
        lowered.append(graph)
        return real_pack(graph)

    def counting_validate(self, *args, **kwargs):
        validated.append(self)
        return real_validate(self, *args, **kwargs)

    monkeypatch.setattr(pipeline_mod, "pack_graph", counting_pack)
    monkeypatch.setattr(DFGraph, "validate", counting_validate)
    runs = [simulate(cp) for _ in range(5)]
    assert len(lowered) == 1 and lowered[0] is cp.graph
    assert validated == []
    assert {r.backend for r in runs} == {"packed"}
    assert len({repr(r.memory) for r in runs}) == 1


def test_unconnected_input_port_raises_on_first_run():
    with pytest.raises(DFGError) as via_graph:
        simulate_graph(_dangling_graph())
    assert "input port 1 of node 2" in str(via_graph.value)
    with pytest.raises(DFGError) as via_step_graph:
        simulate_graph(_dangling_graph(), config=STEP)
    assert str(via_step_graph.value) == str(via_graph.value)

    cp = compile_program("a := 1;", schema="schema2_opt")
    cp = dataclasses.replace(
        cp, translation=dataclasses.replace(
            cp.translation, graph=_dangling_graph()
        ),
    )
    for config in (None, None, STEP):  # a failed lowering is not memoized
        with pytest.raises(DFGError) as via_program:
            simulate(cp, None, config)
        assert str(via_program.value) == str(via_graph.value)
    assert cp.executable is None


def test_step_runs_leave_the_executable_memo_empty(monkeypatch):
    wl = workload("matmul")
    cp = compile_program(wl.source, schema="memory_elim")
    inputs = dict(wl.inputs[0])

    def no_ast_walk(self):
        raise AssertionError("a run walked the AST's variable list")

    monkeypatch.setattr(Program, "variables", no_ast_walk)
    step = simulate(cp, inputs, STEP)
    assert step.backend == "step"
    assert cp.executable is None
    packed = simulate(cp, inputs)
    assert packed.memory == step.memory
    # the executable carries the compiled program's own memory spec
    assert cp.executable.memory is cp.memory_spec


def test_pooled_batch_pickles_each_executable_once(monkeypatch):
    dumped = []

    def dumps(obj, protocol):
        dumped.append(obj)
        return pickle.dumps(obj, protocol)

    monkeypatch.setattr(batch_mod, "pickle", types.SimpleNamespace(
        dumps=dumps, loads=pickle.loads,
        HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL,
    ))
    sources = ("x := 1;\ny := x + 2;\n", "x := 3;\ny := x * x;\n")
    jobs = [
        BatchJob(src, CompileOptions(schema="schema2_opt"), {"x": i})
        for i in range(3) for src in sources
    ]
    cache = GraphCache()
    results = run_batch(jobs, pool_size=2, cache=cache)
    assert all(r.ok for r in results), [r.error for r in results]
    assert len(dumped) == 2
    assert {id(exe) for exe in dumped} == {
        id(cache.get_or_compile(src, schema="schema2_opt").executable)
        for src in sources
    }


def test_served_hits_count_a_graph_once(monkeypatch):
    """Every run of a cached program, serial or pooled, serves the one
    GraphStats counted on the first request, and it equals a fresh
    count of the graph."""
    counted = []

    def counting(graph):
        counted.append(graph)
        return graph_stats(graph)

    monkeypatch.setattr(pipeline_mod, "graph_stats", counting)
    options = CompileOptions(schema="schema2_opt")
    jobs = [
        BatchJob(RUNNING_EXAMPLE.source, options, name=f"j{i}")
        for i in range(3)
    ]
    cache = GraphCache()
    results = run_batch(jobs, cache=cache)
    results += run_batch(jobs, pool_size=2, cache=cache)
    cp = cache.get_or_compile(RUNNING_EXAMPLE.source, options)
    assert all(r.ok for r in results), [r.error for r in results]
    assert counted == [cp.graph]
    assert all(r.stats is cp.stats for r in results)
    assert cp.stats == graph_stats(cp.graph)


def test_entry_pickled_without_the_stats_memo_serves_stats(tmp_path):
    """A cache entry written before ``CompiledProgram.stats`` existed
    loads with the class-level ``None`` and counts its stats when first
    asked, so the memo needs no cache-format bump."""
    src, options = RUNNING_EXAMPLE.source, CompileOptions(schema="schema2_opt")
    cp = GraphCache(cache_dir=tmp_path).get_or_compile(src, options)
    del cp.__dict__["stats"]  # the entry's state as older code pickled it
    key = graph_key(src, options)
    (tmp_path / key[:2] / f"{key}.pkl").write_bytes(
        pickle.dumps(cp, pickle.HIGHEST_PROTOCOL)
    )

    cache = GraphCache(cache_dir=tmp_path)
    loaded = cache.peek(src, options)
    assert "stats" not in vars(loaded) and loaded.stats is None
    [br] = run_batch([BatchJob(src, options, name="old")], cache=cache)
    assert br.ok and br.cache_hit
    assert br.stats == graph_stats(loaded.graph)
    assert loaded.stats is br.stats
