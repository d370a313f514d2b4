"""The dataflow graph container and builder API."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from .nodes import DFGError, DFNode, OpKind, num_inputs, num_outputs


class Arc(NamedTuple):
    """A directed arc from (src node, src output port) to (dst node, dst
    input port).  ``is_access`` marks dummy sequencing tokens — the paper's
    dotted arcs."""

    src: int
    src_port: int
    dst: int
    dst_port: int
    is_access: bool


class Port(NamedTuple):
    """A (node, output port) pair — the producer end of future arcs."""

    node: int
    port: int


@dataclass
class DFGraph:
    """A mutable dataflow graph.

    Invariants checked by :meth:`validate`:

    * exactly one START and one END node;
    * every input port of every node has exactly one incoming arc (fan-in is
      expressed through explicit MERGE operators);
    * output ports may fan out to any number of consumers (token
      replication) but must not dangle unless ``allow_dangling`` names them.
    """

    nodes: dict[int, DFNode] = field(default_factory=dict)
    start: int = -1
    end: int = -1
    _out: dict[int, dict[int, list[Arc]]] = field(default_factory=dict)
    _in: dict[int, dict[int, Arc]] = field(default_factory=dict)
    _next_id: int = 0

    # -- construction ----------------------------------------------------

    def add(self, kind: OpKind, **payload) -> DFNode:
        node = DFNode(self._next_id, kind, **payload)
        self.nodes[node.id] = node
        self._out[node.id] = {}
        self._in[node.id] = {}
        self._next_id += 1
        if kind is OpKind.START:
            if self.start != -1:
                raise DFGError("multiple START nodes")
            self.start = node.id
        elif kind is OpKind.END:
            if self.end != -1:
                raise DFGError("multiple END nodes")
            self.end = node.id
        return node

    def connect(
        self,
        src: Port | tuple[int, int],
        dst: int,
        dst_port: int,
        *,
        is_access: bool = False,
    ) -> Arc:
        """Wire an arc.  The destination port must be free."""
        s, sp = src
        if dst_port in self._in[dst]:
            raise DFGError(
                f"input port {dst_port} of node {dst} "
                f"({self.nodes[dst].describe()}) already connected"
            )
        if not 0 <= sp < num_outputs(self.nodes[s]):
            raise DFGError(
                f"node {s} ({self.nodes[s].describe()}) has no output port {sp}"
            )
        if not 0 <= dst_port < num_inputs(self.nodes[dst]):
            raise DFGError(
                f"node {dst} ({self.nodes[dst].describe()}) has no input port "
                f"{dst_port}"
            )
        arc = Arc(s, sp, dst, dst_port, is_access)
        self._out[s].setdefault(sp, []).append(arc)
        self._in[dst][dst_port] = arc
        return arc

    def adopt(self, node: DFNode) -> DFNode:
        """Copy ``node`` (payload shared — payload fields are immutable)
        from another graph under a fresh id here.  The bulk path the
        region stitcher uses to splice thousands of already-validated
        nodes without re-running per-field construction; START/END must
        go through :meth:`add` so their uniqueness stays enforced."""
        if node.kind in (OpKind.START, OpKind.END):
            raise DFGError("adopt() cannot take START/END nodes")
        # field-by-field construction: copy.copy on a slots dataclass goes
        # through __reduce_ex__ and is ~4x slower on this bulk path
        n2 = DFNode(
            self._next_id,
            node.kind,
            op=node.op,
            value=node.value,
            var=node.var,
            nports=node.nports,
            loop_id=node.loop_id,
            nchannels=node.nchannels,
            channel_labels=node.channel_labels,
            seeds=node.seeds,
            returns=node.returns,
            latency=node.latency,
            tag=node.tag,
        )
        self.nodes[n2.id] = n2
        self._out[n2.id] = {}
        self._in[n2.id] = {}
        self._next_id += 1
        return n2

    def splice_from(
        self, other: "DFGraph", skip_a: int, skip_b: int
    ) -> dict[int, int]:
        """Bulk-adopt every node of ``other`` except ``skip_a``/``skip_b``
        (its START/END), plus every arc whose two endpoints were adopted,
        renumbered into this graph.  Returns the old->new id map; arcs
        touching the skipped nodes are left for the caller to rewire.
        One tight loop instead of per-node :meth:`adopt` + per-arc
        :meth:`connect_unchecked` calls — the region stitcher splices
        hundreds of thousands of already-validated nodes this way."""
        idmap: dict[int, int] = {}
        nodes = self.nodes
        _out = self._out
        _in = self._in
        nid = self._next_id
        for onid in sorted(other.nodes):
            if onid == skip_a or onid == skip_b:
                continue
            n = other.nodes[onid]
            nodes[nid] = DFNode(
                nid, n.kind, n.op, n.value, n.var, n.nports, n.loop_id,
                n.nchannels, n.channel_labels, n.seeds, n.returns,
                n.latency, n.tag,
            )
            _out[nid] = {}
            _in[nid] = {}
            idmap[onid] = nid
            nid += 1
        self._next_id = nid
        get = idmap.get
        for src, ports in other._out.items():
            ns = get(src)
            if ns is None:
                continue
            o = _out[ns]
            for arcs in ports.values():
                for a in arcs:
                    nd = get(a.dst)
                    if nd is None:
                        continue
                    arc = Arc(ns, a.src_port, nd, a.dst_port, a.is_access)
                    lst = o.get(a.src_port)
                    if lst is None:
                        o[a.src_port] = [arc]
                    else:
                        lst.append(arc)
                    _in[nd][a.dst_port] = arc
        return idmap

    def connect_unchecked(
        self, s: int, sp: int, dst: int, dst_port: int, is_access: bool
    ) -> Arc:
        """:meth:`connect` minus the port checks — for splicing arcs
        between nodes copied from graphs that already validated them.
        The final :meth:`validate` still covers the stitched result."""
        arc = Arc(s, sp, dst, dst_port, is_access)
        out = self._out[s]
        lst = out.get(sp)
        if lst is None:
            out[sp] = [arc]
        else:
            lst.append(arc)
        self._in[dst][dst_port] = arc
        return arc

    def disconnect(self, arc: Arc) -> None:
        self._out[arc.src][arc.src_port].remove(arc)
        del self._in[arc.dst][arc.dst_port]

    def remove_node(self, nid: int) -> None:
        for arcs in list(self._out[nid].values()):
            for a in list(arcs):
                self.disconnect(a)
        for a in list(self._in[nid].values()):
            self.disconnect(a)
        del self._out[nid]
        del self._in[nid]
        del self.nodes[nid]
        if nid == self.start:
            self.start = -1
        if nid == self.end:
            self.end = -1

    # -- queries --------------------------------------------------------

    def node(self, nid: int) -> DFNode:
        return self.nodes[nid]

    def arcs(self) -> Iterator[Arc]:
        for ports in self._out.values():
            for arcs in ports.values():
                yield from arcs

    def num_arcs(self) -> int:
        return sum(len(a) for ports in self._out.values() for a in ports.values())

    def consumers(self, nid: int, port: int) -> list[Arc]:
        return list(self._out[nid].get(port, []))

    def producer(self, nid: int, port: int) -> Arc | None:
        return self._in[nid].get(port)

    def in_arcs(self, nid: int) -> list[Arc]:
        return list(self._in[nid].values())

    def out_arcs(self, nid: int) -> list[Arc]:
        return [a for arcs in self._out[nid].values() for a in arcs]

    def count(self, kind: OpKind) -> int:
        return sum(1 for n in self.nodes.values() if n.kind is kind)

    def of_kind(self, kind: OpKind) -> list[DFNode]:
        return [n for n in self.nodes.values() if n.kind is kind]

    # -- validation -------------------------------------------------------

    def validate(self, allow_dangling_outputs: bool = False) -> None:
        if self.start == -1 or self.end == -1:
            raise DFGError("missing START or END node")
        for nid, node in self.nodes.items():
            nin = num_inputs(node)
            for p in range(nin):
                if p not in self._in[nid]:
                    raise DFGError(
                        f"input port {p} of node {nid} ({node.describe()}, "
                        f"tag={node.tag!r}) is unconnected"
                    )
            for p in self._in[nid]:
                if not 0 <= p < nin:
                    raise DFGError(
                        f"arc into nonexistent port {p} of node {nid}"
                    )
            if not allow_dangling_outputs:
                nout = num_outputs(node)
                for p in range(nout):
                    if not self._out[nid].get(p):
                        raise DFGError(
                            f"output port {p} of node {nid} ({node.describe()},"
                            f" tag={node.tag!r}) has no consumers"
                        )
            if node.kind is OpKind.START and len(node.seeds) == 0 and self.nodes:
                # a START with no seeds is legal only for the empty program
                pass
            if node.kind in (OpKind.MERGE, OpKind.SYNCH) and node.nports < 1:
                raise DFGError(f"{node.kind.value} node {nid} with no ports")
            if (
                node.kind in (OpKind.LOOP_ENTRY, OpKind.LOOP_EXIT)
                and node.nchannels < 1
            ):
                raise DFGError(f"{node.kind.value} node {nid} with no channels")

    def copy(self) -> "DFGraph":
        g = DFGraph()
        g.nodes = {
            nid: DFNode(
                n.id,
                n.kind,
                op=n.op,
                value=n.value,
                var=n.var,
                nports=n.nports,
                loop_id=n.loop_id,
                nchannels=n.nchannels,
                channel_labels=n.channel_labels,
                seeds=n.seeds,
                returns=n.returns,
                latency=n.latency,
                tag=n.tag,
            )
            for nid, n in self.nodes.items()
        }
        g.start = self.start
        g.end = self.end
        g._out = {
            nid: {p: list(arcs) for p, arcs in ports.items()}
            for nid, ports in self._out.items()
        }
        g._in = {nid: dict(ports) for nid, ports in self._in.items()}
        g._next_id = self._next_id
        return g
