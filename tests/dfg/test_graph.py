"""Unit tests for the dataflow-graph IR."""

import pytest

from repro.dfg import DFGError, DFGraph, DFNode, OpKind, Seed, graph_stats
from repro.dfg.dot import dfg_to_dot
from repro.dfg.nodes import MEMORY_KINDS, PORTS, num_inputs, num_outputs


def tiny_graph():
    """start -(access)-> load x -> store y wiring exercise."""
    g = DFGraph()
    start = g.add(OpKind.START, seeds=(Seed("access", "x"),))
    end = g.add(OpKind.END, returns=(None,))
    load = g.add(OpKind.LOAD, var="x")
    store = g.add(OpKind.STORE, var="y")
    g.connect((start.id, 0), load.id, 0, is_access=True)
    g.connect((load.id, 0), store.id, 0)
    g.connect((load.id, 1), store.id, 1, is_access=True)
    g.connect((store.id, 0), end.id, 0, is_access=True)
    return g


def test_port_counts():
    g = DFGraph()
    assert num_inputs(g.add(OpKind.BINOP, op="+")) == 2
    assert num_outputs(g.add(OpKind.LOAD, var="x")) == 2
    assert num_inputs(g.add(OpKind.ASTORE, var="a")) == 3
    assert num_inputs(g.add(OpKind.MERGE, nports=3)) == 3
    assert num_outputs(g.add(OpKind.SWITCH)) == 2
    le = g.add(OpKind.LOOP_ENTRY, loop_id=0, nchannels=2)
    assert num_inputs(le) == 4
    assert num_outputs(le) == 2


#: (payload, input ports, output ports) per kind, read off the port
#: conventions in repro/dfg/nodes.py
PORT_CONVENTIONS = {
    OpKind.START: ({"seeds": (Seed("access", "a"), Seed("value", "x"))}, 0, 2),
    OpKind.END: ({"returns": ("x", None, "y")}, 3, 0),
    OpKind.CONST: ({"value": 1}, 1, 1),
    OpKind.BINOP: ({"op": "+"}, 2, 1),
    OpKind.UNOP: ({"op": "-"}, 1, 1),
    OpKind.LOAD: ({"var": "x"}, 1, 2),
    OpKind.STORE: ({"var": "x"}, 2, 1),
    OpKind.ALOAD: ({"var": "a"}, 2, 2),
    OpKind.ASTORE: ({"var": "a"}, 3, 1),
    OpKind.ILOAD: ({"var": "a"}, 1, 1),
    OpKind.ISTORE: ({"var": "a"}, 2, 1),
    OpKind.SWITCH: ({}, 2, 2),
    OpKind.MERGE: ({"nports": 3}, 3, 1),
    OpKind.SYNCH: ({"nports": 4}, 4, 1),
    OpKind.LOOP_ENTRY: ({"loop_id": 0, "nchannels": 3}, 6, 3),
    OpKind.LOOP_EXIT: ({"loop_id": 0, "nchannels": 3}, 3, 3),
}


@pytest.mark.parametrize("kind", list(OpKind), ids=lambda k: k.value)
def test_port_table_matches_the_conventions(kind):
    payload, nin, nout = PORT_CONVENTIONS[kind]
    node = DFNode(0, kind, **payload)
    assert (num_inputs(node), num_outputs(node)) == (nin, nout)
    row = PORTS[kind]
    assert row.opcode == list(OpKind).index(kind)
    assert row.memory == (kind in MEMORY_KINDS) == (
        kind.value in ("load", "store", "aload", "astore", "iload", "istore")
    )


def test_valid_tiny_graph():
    tiny_graph().validate()


def test_duplicate_input_port_rejected():
    g = tiny_graph()
    extra = g.add(OpKind.CONST, value=1)
    store = next(n for n in g.nodes.values() if n.kind is OpKind.STORE)
    with pytest.raises(DFGError):
        g.connect((extra.id, 0), store.id, 0)


def test_unconnected_input_detected():
    g = DFGraph()
    g.add(OpKind.START, seeds=())
    g.add(OpKind.END, returns=())
    b = g.add(OpKind.BINOP, op="+")
    with pytest.raises(DFGError):
        g.validate()


def test_dangling_output_detected():
    g = tiny_graph()
    c = g.add(OpKind.CONST, value=5)
    u = g.add(OpKind.UNOP, op="-")
    start = g.node(g.start)
    g.connect((start.id, 0), c.id, 0, is_access=True)
    g.connect((c.id, 0), u.id, 0)
    with pytest.raises(DFGError):
        g.validate()  # u's output dangles
    g.validate(allow_dangling_outputs=True)


def test_connect_to_bad_port_rejected():
    g = DFGraph()
    c = g.add(OpKind.CONST, value=1)
    u = g.add(OpKind.UNOP, op="-")
    with pytest.raises(DFGError):
        g.connect((c.id, 1), u.id, 0)
    with pytest.raises(DFGError):
        g.connect((c.id, 0), u.id, 5)


def test_connect_to_negative_port_rejected():
    """Ports are 0-based: -1 names no port on either side, and the
    rejection wires nothing."""
    g = DFGraph()
    c = g.add(OpKind.CONST, value=1)
    u = g.add(OpKind.UNOP, op="-")
    with pytest.raises(DFGError, match="no output port -1"):
        g.connect((c.id, -1), u.id, 0)
    with pytest.raises(DFGError, match="no input port -1"):
        g.connect((c.id, 0), u.id, -1)
    assert g.num_arcs() == 0


def test_fan_out_allowed():
    g = DFGraph()
    c = g.add(OpKind.CONST, value=1)
    u1 = g.add(OpKind.UNOP, op="-")
    u2 = g.add(OpKind.UNOP, op="-")
    g.connect((c.id, 0), u1.id, 0)
    g.connect((c.id, 0), u2.id, 0)
    assert len(g.consumers(c.id, 0)) == 2


def test_remove_node_cleans_arcs():
    g = tiny_graph()
    load = next(n for n in g.nodes.values() if n.kind is OpKind.LOAD)
    g.remove_node(load.id)
    assert all(a.src != load.id and a.dst != load.id for a in g.arcs())


def test_copy_independent():
    g = tiny_graph()
    g2 = g.copy()
    g2.add(OpKind.CONST, value=9)
    assert len(g2.nodes) == len(g.nodes) + 1
    assert g.num_arcs() == g2.num_arcs()


def test_stats():
    g = tiny_graph()
    s = graph_stats(g)
    assert s.nodes == 4
    assert s.arcs == 4
    assert s.access_arcs == 3
    assert s.value_arcs == 1
    assert s.loads == 1
    assert s.stores == 1
    assert s.memory_ops == 2
    assert "4 nodes" in s.summary()


def test_dot_export_mentions_all_nodes():
    g = tiny_graph()
    dot = dfg_to_dot(g)
    for nid in g.nodes:
        assert f"n{nid}" in dot
    assert "style=dotted" in dot


def test_two_starts_rejected():
    g = DFGraph()
    g.add(OpKind.START, seeds=())
    with pytest.raises(DFGError):
        g.add(OpKind.START, seeds=())


def test_seed_kind_validated():
    with pytest.raises(DFGError):
        Seed("bogus", "x")
