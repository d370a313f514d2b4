"""Unit tests for the packed-graph lowering (:mod:`repro.machine.packed`):
array-layout invariants, fan-out fidelity, the lowering's validation
contract, pickle shipping, the stray-port delivery guard, the token
queue's delivery order, and the config rejections.  Degenerate graph
shapes live in ``tests/machine/test_vectorized.py``; behavioral
equivalence with the reference simulator over the whole corpus lives in
``tests/engine/test_packed_differential.py``.
"""

import pickle
import random

import pytest

from repro.bench.harness import schemas_for
from repro.bench.programs import CORPUS, RUNNING_EXAMPLE, workload
from repro.dfg.graph import Arc, DFGError, DFGraph
from repro.dfg.nodes import (
    DC_END,
    DC_NONSTRICT,
    DC_SINGLE,
    DC_STRICT,
    OpKind,
    Seed,
    num_inputs,
    num_outputs,
)
from repro.machine import (
    MachineConfig,
    MachineError,
    PackedSimulator,
    pack_graph,
)
from repro.machine.packed import OPCODE_KIND_VALUE
from repro.translate import compile_program, simulate
from tests.engine.test_packed_differential import (
    _assert_identical,
    _fig08_clashing_program,
)


def _packed_cases():
    for wl in CORPUS:
        for schema in schemas_for(wl):
            yield pytest.param(wl, schema, id=f"{wl.name}-{schema}")


@pytest.mark.parametrize("wl,schema", _packed_cases())
def test_lowering_invariants(wl, schema):
    """Every array of the packed form agrees with the object graph it was
    lowered from, node by node and arc by arc."""
    g = compile_program(wl.source, schema=schema).graph
    pg = pack_graph(g)

    order = sorted(g.nodes)
    assert pg.n == len(order)
    assert pg.node_ids == tuple(order)
    assert pg.node_ids[pg.start] == g.start
    assert pg.node_ids[pg.end] == g.end
    assert pg.num_arcs() == g.num_arcs()

    index_of = {nid: i for i, nid in enumerate(order)}
    for i, nid in enumerate(order):
        node = g.nodes[nid]
        assert OPCODE_KIND_VALUE[pg.opcodes[i]] == node.kind.value
        assert pg.nin[i] == num_inputs(node)
        assert pg.nout[i] == num_outputs(node)
        assert pg.extra_lat[i] == node.latency
        assert pg.describe(i) == node.describe()
        if node.kind is OpKind.END:
            assert pg.dcls[i] == DC_END
        elif node.kind in (OpKind.MERGE, OpKind.LOOP_ENTRY, OpKind.LOOP_EXIT):
            assert pg.dcls[i] == DC_NONSTRICT
        elif num_inputs(node) == 1:
            assert pg.dcls[i] == DC_SINGLE
        else:
            assert pg.dcls[i] == DC_STRICT
        # the fan-out tuples replay consumers() exactly, port by port, in
        # arc insertion order (delivery order is observable)
        for p in range(num_outputs(node)):
            want = [
                (index_of[a.dst], a.dst_port) for a in g.consumers(nid, p)
            ]
            assert pg.out_arcs(i, p) == want, (wl.name, schema, nid, p)


# -- the lowering's validation contract ---------------------------------------


def _graph(*kinds_payloads):
    """START (one access seed) and END (no returns) plus the given
    nodes, unwired."""
    g = DFGraph()
    g.add(OpKind.START, seeds=(Seed("access", "a"),))
    g.add(OpKind.END, returns=())
    for kind, payload in kinds_payloads:
        g.add(kind, **payload)
    return g


def _no_start():
    g = DFGraph()
    g.add(OpKind.END, returns=())
    return g


def _no_end():
    g = DFGraph()
    g.add(OpKind.START, seeds=())
    return g


def _unconnected_port():
    g = _graph((OpKind.BINOP, {"op": "+"}))
    g.connect((0, 0), 2, 0)
    return g


def _nonexistent_port():
    g = _graph((OpKind.BINOP, {"op": "+"}))
    g.connect((0, 0), 2, 0)
    g.connect((0, 0), 2, 1)
    g.connect_unchecked(0, 0, 2, 2, False)
    return g


def _negative_port():
    g = _graph((OpKind.BINOP, {"op": "+"}))
    g.connect((0, 0), 2, 0)
    g.connect((0, 0), 2, 1)
    # connect() rejects port -1, so write the input-side index directly
    g._in[2][-1] = Arc(0, 0, 2, -1, False)
    return g


_INVALID = {
    "missing-start": _no_start,
    "missing-end": _no_end,
    "unconnected-port": _unconnected_port,
    "nonexistent-port": _nonexistent_port,
    "negative-port": _negative_port,
    "merge-no-ports": lambda: _graph((OpKind.MERGE, {"nports": 0})),
    "synch-no-ports": lambda: _graph((OpKind.SYNCH, {"nports": 0})),
    "loop-entry-no-channels": lambda: _graph(
        (OpKind.LOOP_ENTRY, {"loop_id": 0, "nchannels": 0})
    ),
    "loop-exit-no-channels": lambda: _graph(
        (OpKind.LOOP_EXIT, {"loop_id": 0, "nchannels": 0})
    ),
}


@pytest.mark.parametrize("build", _INVALID.values(), ids=_INVALID.keys())
def test_lowering_raises_validates_message(build):
    """Every DFGError DFGraph.validate raises, the lowering raises with
    the identical message."""
    with pytest.raises(DFGError) as want:
        build().validate(allow_dangling_outputs=True)
    with pytest.raises(DFGError) as got:
        pack_graph(build())
    assert str(got.value) == str(want.value)


def test_payload_pickles_smaller_than_compiled_program():
    """The shipping payload must be a fraction of the CompiledProgram
    pickle — that differential is what makes pooled runs cheap."""
    wl = workload("matmul")
    cp = compile_program(wl.source, schema="schema3_opt")
    full = pickle.dumps(cp, protocol=pickle.HIGHEST_PROTOCOL)
    payload = cp.ensure_packed()
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    assert len(blob) < len(full) / 2

    back = pickle.loads(blob)
    inputs = dict(wl.inputs[0])
    res = back.run(inputs)
    ref = simulate(cp, inputs, MachineConfig(sim_mode="step"))
    assert res.memory == ref.memory
    assert res.metrics.cycles == ref.metrics.cycles
    assert res.metrics.operations == ref.metrics.operations


def test_stray_port_delivery_raises_on_both_backends():
    """A token delivered to a port the node does not have must raise
    MachineError — same message — on the step loop and the packed loop,
    instead of silently widening a frame."""
    cp = compile_program(RUNNING_EXAMPLE.source, schema="schema2_opt")
    g = cp.graph
    dst = next(n.id for n in g.nodes.values() if n.kind is OpKind.BINOP)
    # tamper with the fan-out list only (the input-side index stays clean,
    # so validate() cannot see it): the START seed now also lands on a
    # port the BINOP does not have
    g._out[g.start][0].append(Arc(g.start, 0, dst, 99, False))

    with pytest.raises(MachineError) as step_err:
        simulate(cp, None, MachineConfig(sim_mode="step"))
    with pytest.raises(MachineError) as packed_err:
        simulate(cp, None, MachineConfig(sim_mode="packed"))
    assert "nonexistent input port 99" in str(step_err.value)
    assert str(step_err.value) == str(packed_err.value)


def test_stray_port_boundary_port_equal_to_nin():
    """port == num_inputs is already out of range (ports are 0-based)."""
    cp = compile_program(RUNNING_EXAMPLE.source, schema="schema2_opt")
    g = cp.graph
    dst_node = next(n for n in g.nodes.values() if n.kind is OpKind.BINOP)
    g._out[g.start][0].append(
        Arc(g.start, 0, dst_node.id, num_inputs(dst_node), False)
    )
    with pytest.raises(MachineError, match="nonexistent input port 2"):
        simulate(cp, None, MachineConfig(sim_mode="packed"))
    with pytest.raises(MachineError, match="nonexistent input port 2"):
        simulate(cp, None, MachineConfig(sim_mode="step"))


def test_packed_simulator_rejects_stateful_configs():
    cp = compile_program(RUNNING_EXAMPLE.source, schema="memory_elim")
    pg = pack_graph(cp.graph)
    mem, ist = cp.memory_spec.image({})
    with pytest.raises(ValueError, match="num_pes"):
        PackedSimulator(pg, mem, ist, MachineConfig(num_pes=2))
    with pytest.raises(ValueError, match="loop_bound"):
        PackedSimulator(pg, mem, ist, MachineConfig(loop_bound=1))
    with pytest.raises(ValueError):
        MachineConfig(sim_mode="packed", num_pes=2)
    with pytest.raises(ValueError):
        MachineConfig(sim_mode="packed", loop_bound=1)


def test_backend_resolution():
    assert MachineConfig().backend() == "packed"
    assert MachineConfig(num_pes=2).backend() == "step"
    assert MachineConfig(loop_bound=1).backend() == "step"
    assert MachineConfig(sim_mode="step").backend() == "step"
    assert MachineConfig(sim_mode="packed").backend() == "packed"


@pytest.mark.parametrize("mode", ["fast", "warp"])
def test_unknown_sim_modes_name_the_legal_ones(mode):
    with pytest.raises(ValueError) as err:
        MachineConfig(sim_mode=mode)
    for legal in ("auto", "step", "packed"):
        assert legal in str(err.value)



# -- the token queue ------------------------------------------------------------

#: corpus programs whose graphs merge, loop, and load and store memory
_QUEUE_PROGRAMS = (
    "running_example", "gcd", "nested_loops", "multi_exit_loop",
    "bubble_sort", "fortran_alias",
)


def _skew(cp, seed):
    """Seeded extra latencies of 0-3 cycles on every node, set before the
    first run, so tokens pushed by firings of different cycles fall due
    in one cycle (a memory op fired at cycle c with latency 2 and an ALU
    op fired at c+1 with latency 1 land in one bucket)."""
    rng = random.Random(seed)
    for nid in sorted(cp.graph.nodes):
        cp.graph.nodes[nid].latency += rng.randrange(4)
    return cp


def _assert_packed_equals_step(cp, inputs, tag):
    """Every observable, and the trace, whose rows within a cycle are in
    firing order, which is delivery order."""
    for mem_lat in (1, 2, 5):
        packed, step = (
            simulate(cp, inputs, MachineConfig(
                sim_mode=mode, on_clash="record", memory_latency=mem_lat,
                trace=True,
            ))
            for mode in ("packed", "step")
        )
        _assert_identical(packed, step, (*tag, mem_lat))
        assert packed.trace == step.trace, (*tag, mem_lat)


@pytest.mark.parametrize("name", _QUEUE_PROGRAMS)
def test_tokens_due_together_keep_push_order(name):
    """Tokens due in one cycle are delivered in push order whichever
    cycle pushed them; MERGE firing order and the clash list would show
    any other order."""
    wl = workload(name)
    for schema in schemas_for(wl):
        cp = _skew(compile_program(wl.source, schema=schema),
                   f"{name}/{schema}")
        for inputs in wl.inputs:
            _assert_packed_equals_step(cp, inputs, (name, schema))


def test_tokens_due_together_keep_clash_order():
    """Same-tag clashes, whose list and overflow order follow delivery
    order, under ten latency skews."""
    for seed in range(10):
        cp = _skew(_fig08_clashing_program(), f"fig08/{seed}")
        _assert_packed_equals_step(cp, None, ("fig08", seed))
        clashing = simulate(cp, None, MachineConfig(on_clash="record"))
        assert clashing.metrics.clashes >= 2, seed
