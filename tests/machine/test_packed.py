"""Unit tests for the packed-graph lowering (:mod:`repro.machine.packed`):
array-layout invariants, fan-out fidelity, pickle shipping, the
stray-port delivery guard, and the config rejections.  Degenerate graph
shapes live in ``tests/machine/test_vectorized.py``; behavioral
equivalence with the reference simulator lives in
``tests/engine/test_packed_differential.py``.
"""

import pickle

import pytest

from repro.bench.harness import schemas_for
from repro.bench.programs import CORPUS, RUNNING_EXAMPLE, workload
from repro.dfg.graph import Arc
from repro.dfg.nodes import OpKind, num_inputs, num_outputs
from repro.machine import (
    MachineConfig,
    MachineError,
    PackedSimulator,
    pack_graph,
)
from repro.machine.packed import (
    DC_END,
    DC_NONSTRICT,
    DC_SINGLE,
    DC_STRICT,
    OPCODE_KIND_VALUE,
)
from repro.translate import compile_program, simulate


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
        assert pg.describe[i] == node.describe()
        if node.kind is OpKind.END:
            assert pg.dcls[i] == DC_END
        elif node.kind in (OpKind.MERGE, OpKind.LOOP_ENTRY, OpKind.LOOP_EXIT):
            assert pg.dcls[i] == DC_NONSTRICT
        elif num_inputs(node) == 1:
            assert pg.dcls[i] == DC_SINGLE
        else:
            assert pg.dcls[i] == DC_STRICT
        # the fan-out tuples replay consumers() exactly, port by port, in
        # arc insertion order (delivery order is observable via seq numbers)
        for p in range(num_outputs(node)):
            want = [
                (index_of[a.dst], a.dst_port) for a in g.consumers(nid, p)
            ]
            assert pg.out_arcs(i, p) == want, (wl.name, schema, nid, p)


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

