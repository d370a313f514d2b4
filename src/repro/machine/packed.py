"""Packed-graph execution backend: the flat-array ETS interpreter.

The reference :class:`~repro.machine.simulator.Simulator` walks the
object-graph :class:`~repro.dfg.graph.DFGraph` — per-token ``dict``
lookups, ``OpKind`` enum chains, and tuple-of-dataclass ``Context`` tags
whose hashes are recomputed on every frame probe.  This module compiles a
validated graph **once** into a :class:`PackedGraph` — struct-of-arrays
form (integer opcodes, arity and latency tables, per-port fan-out tuples)
— and executes it with :class:`PackedSimulator`, whose inner loop:

* addresses waiting-matching frame slots by a single integer key
  ``ctx_id * n_nodes + node_index`` into one flat dict (the paper's O(1)
  ETS frame-slot discipline, §2.2);
* replaces tuple ``Context`` allocation with *interned integer tag
  contexts* — ``next_iteration`` and activation entry are dict lookups
  over ``(parent_id, activation, iteration)`` triples, so the hot path
  never hashes a context chain;
* inlines delivery, matching, and firing into one dispatch loop with
  pre-resolved operator callables, folding per-firing metric updates into
  per-batch counters.

The loop is event-driven: every enabled activity fires the cycle it
becomes enabled and the clock jumps straight between event times.  Its
memory, ``end_values``, deterministic :class:`Metrics` fields, and
recorded clash list are bit-identical to the per-cycle reference loop
(``Simulator`` with ``sim_mode="step"``); the differential suite in
``tests/engine/test_packed_differential.py`` holds it to that across the
full corpus × schemas × clash-record mode.

:class:`PackedProgram` bundles the packed graph with the
:class:`~repro.machine.memory.MemorySpec` needed to run it.  It is the
executable every idealized run of a compiled program goes through —
:func:`~repro.translate.pipeline.simulate`, serial and pooled
:func:`~repro.engine.batch.run_batch`, and the service — and it pickles
to a few flat tuples (no AST, no CFG, no node objects), which is what
pool workers receive.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from dataclasses import dataclass

from ..dfg.graph import DFGraph
from ..dfg.nodes import MEMORY_KINDS, OpKind, num_inputs, num_outputs
from ..semantics import BINOP_FUNCS, UNOP_FUNCS
from .config import MachineConfig
from .context import ACCESS, ROOT, Context
from .errors import (
    DeadlockError,
    MachineError,
    SimulationLimitError,
    TokenClashError,
)
from .istructure import IStructureMemory
from .memory import DataMemory, MemorySpec
from .metrics import Metrics
from .simulator import SimResult

# integer opcodes — dense, so per-opcode counters are plain list cells
OP_START = 0
OP_END = 1
OP_CONST = 2
OP_BINOP = 3
OP_UNOP = 4
OP_LOAD = 5
OP_STORE = 6
OP_ALOAD = 7
OP_ASTORE = 8
OP_ILOAD = 9
OP_ISTORE = 10
OP_SWITCH = 11
OP_MERGE = 12
OP_SYNCH = 13
OP_LOOP_ENTRY = 14
OP_LOOP_EXIT = 15
N_OPCODES = 16

_OPCODE_OF = {
    OpKind.START: OP_START,
    OpKind.END: OP_END,
    OpKind.CONST: OP_CONST,
    OpKind.BINOP: OP_BINOP,
    OpKind.UNOP: OP_UNOP,
    OpKind.LOAD: OP_LOAD,
    OpKind.STORE: OP_STORE,
    OpKind.ALOAD: OP_ALOAD,
    OpKind.ASTORE: OP_ASTORE,
    OpKind.ILOAD: OP_ILOAD,
    OpKind.ISTORE: OP_ISTORE,
    OpKind.SWITCH: OP_SWITCH,
    OpKind.MERGE: OP_MERGE,
    OpKind.SYNCH: OP_SYNCH,
    OpKind.LOOP_ENTRY: OP_LOOP_ENTRY,
    OpKind.LOOP_EXIT: OP_LOOP_EXIT,
}

#: opcode -> OpKind.value, for folding per-opcode counters into by_kind
OPCODE_KIND_VALUE = tuple(
    kind.value
    for kind, _ in sorted(_OPCODE_OF.items(), key=lambda kv: kv[1])
)

_MEM_OPCODES = frozenset(_OPCODE_OF[k] for k in MEMORY_KINDS)

# delivery classes, checked in the reference simulator's priority order
DC_END = 0
DC_NONSTRICT = 1  # MERGE / LOOP_ENTRY / LOOP_EXIT: fire per token
DC_SINGLE = 2  # one input port: fire per token, no frame
DC_STRICT = 3  # match all inputs at a frame slot

#: sentinel for an empty frame slot (None is not usable: ACCESS/ints only,
#: but a distinct object keeps the check a fast identity test)
_EMPTY = object()


@dataclass(frozen=True)
class PackedGraph:
    """A :class:`~repro.dfg.graph.DFGraph` lowered to flat arrays.

    Node indices are ``0..n-1`` in ascending original-node-id order;
    ``node_ids[i]`` maps back for error messages, traces, and clash
    reports (which must match the reference simulator byte for byte).

    Fan-out is stored the way the interpreter reads it: ``outs[i][p]``
    is the tuple of ``(dst index, dst port)`` consumers of node ``i``'s
    output port ``p``, in arc insertion order, so a run's dispatch table
    is one ``zip`` over these arrays.
    """

    n: int
    node_ids: tuple[int, ...]
    opcodes: tuple[int, ...]
    nin: tuple[int, ...]
    nout: tuple[int, ...]
    dcls: tuple[int, ...]
    extra_lat: tuple[int, ...]
    is_mem: tuple[bool, ...]
    #: per-node payload: CONST value, BINOP/UNOP op string, memory-op
    #: variable name, LOOP_* channel count, or None
    aux: tuple
    describe: tuple[str, ...]
    #: per node, per output port: ((dst index, dst port), ...)
    outs: tuple[tuple[tuple[tuple[int, int], ...], ...], ...]
    # endpoints
    start: int
    end: int
    seeds: tuple[tuple[str, str], ...]
    returns: tuple[str | None, ...]

    def out_arcs(self, idx: int, port: int) -> list[tuple[int, int]]:
        """(dst index, dst port) consumers of one output port."""
        return list(self.outs[idx][port])

    def num_arcs(self) -> int:
        return sum(len(arcs) for ports in self.outs for arcs in ports)


def pack_graph(graph: DFGraph) -> PackedGraph:
    """The lowering pass: validate, then flatten to struct-of-arrays.

    This is the one check a graph gets before it first runs on the
    packed loop: the lowering is what runs from then on."""
    graph.validate(allow_dangling_outputs=True)
    order = sorted(graph.nodes)
    index_of = {nid: i for i, nid in enumerate(order)}

    opcodes, nins, nouts, dcls, extra_lat, is_mem = [], [], [], [], [], []
    aux, describe, outs = [], [], []

    for nid in order:
        node = graph.nodes[nid]
        kind = node.kind
        opcodes.append(_OPCODE_OF[kind])
        nin = num_inputs(node)
        nout = num_outputs(node)
        nins.append(nin)
        nouts.append(nout)
        if kind is OpKind.END:
            dcls.append(DC_END)
        elif kind in (OpKind.MERGE, OpKind.LOOP_ENTRY, OpKind.LOOP_EXIT):
            dcls.append(DC_NONSTRICT)
        elif nin == 1:
            dcls.append(DC_SINGLE)
        else:
            dcls.append(DC_STRICT)
        extra_lat.append(node.latency)
        is_mem.append(kind in MEMORY_KINDS)
        if kind is OpKind.CONST:
            aux.append(node.value)
        elif kind in (OpKind.BINOP, OpKind.UNOP):
            aux.append(node.op)
        elif kind in MEMORY_KINDS:
            aux.append(node.var)
        elif kind in (OpKind.LOOP_ENTRY, OpKind.LOOP_EXIT):
            aux.append(node.nchannels)
        else:
            aux.append(None)
        describe.append(node.describe())
        by_port = graph._out[nid]
        outs.append(tuple(
            tuple((index_of[a.dst], a.dst_port) for a in by_port.get(p, ()))
            for p in range(nout)
        ))

    start_node = graph.node(graph.start)
    end_node = graph.node(graph.end)
    return PackedGraph(
        n=len(order),
        node_ids=tuple(order),
        opcodes=tuple(opcodes),
        nin=tuple(nins),
        nout=tuple(nouts),
        dcls=tuple(dcls),
        extra_lat=tuple(extra_lat),
        is_mem=tuple(is_mem),
        aux=tuple(aux),
        describe=tuple(describe),
        outs=tuple(outs),
        start=index_of[graph.start],
        end=index_of[graph.end],
        seeds=tuple((s.kind, s.label) for s in start_node.seeds),
        returns=tuple(end_node.returns),
    )


@dataclass(frozen=True, eq=False)
class PackedProgram:
    """The run-ready form of a compiled program and its shipping unit: the
    validated lowering plus the memory spec — everything a run needs, and
    nothing else (no AST, CFG, streams, or translation state).  Compared
    and hashed by identity: each compiled program memoizes one."""

    graph: PackedGraph
    memory: MemorySpec

    def run(
        self,
        inputs: dict[str, int] | None = None,
        config: MachineConfig | None = None,
    ) -> SimResult:
        mem, ist = self.memory.image(inputs)
        return PackedSimulator(self.graph, mem, ist, config).run()


class PackedSimulator:
    """The flat-array ETS interpreter over one :class:`PackedGraph`.

    Exact observable twin of the reference :class:`Simulator` on the
    idealized machine; requires ``num_pes`` and ``loop_bound`` unset.
    """

    def __init__(
        self,
        packed: PackedGraph,
        memory: DataMemory | None = None,
        istructs: IStructureMemory | None = None,
        config: MachineConfig | None = None,
    ):
        self.pg = packed
        self.memory = memory if memory is not None else DataMemory()
        self.istructs = istructs if istructs is not None else IStructureMemory()
        self.config = config or MachineConfig()
        if self.config.num_pes is not None or self.config.loop_bound is not None:
            raise ValueError(
                "PackedSimulator requires num_pes=None and loop_bound=None "
                "(PE arbitration and k-bounding need the per-cycle stepper)"
            )

        cfg = self.config
        # per-node dispatch records: (opcode, total latency, per-port arc
        # tuples, resolved payload) — one index, one unpack per firing
        pg = packed
        mem_lat, alu_lat = cfg.memory_latency, cfg.alu_latency
        lats = [
            (mem_lat if m else alu_lat) + x
            for m, x in zip(pg.is_mem, pg.extra_lat)
        ]
        payload = [
            BINOP_FUNCS[a] if op == OP_BINOP
            else UNOP_FUNCS[a] if op == OP_UNOP
            else a
            for op, a in zip(pg.opcodes, pg.aux)
        ]
        self._rt = list(zip(pg.opcodes, lats, pg.outs, payload))

        # interned integer tag contexts: id 0 is ROOT; parents/activations/
        # iterations are parallel arrays, (parent, act, iter) -> id interns
        self._ctx_parent = [-1]
        self._ctx_act = [0]
        self._ctx_iter = [0]
        self._ctx_intern: dict[tuple[int, int, int], int] = {(-1, 0, 0): 0}

        self._heap: list = []
        self._seq = 0
        self._frames: dict[int, list] = {}
        self._extras: dict[tuple[int, int], deque] = {}
        self._enabled: list = []
        self._activations: dict[int, int] = {}
        self._next_activation = 1
        self._end_arrivals: dict[int, object] = {}
        self._cycle = 0
        self._kind_counts = [0] * N_OPCODES
        self._profile: dict[int, int] = {}
        self._m_ops = 0
        self._m_clashes = 0
        self._peak_tokens = 0
        self._peak_frames = 0
        self._peak_enabled = 0

        self.metrics = Metrics()
        self.clashes: list[tuple[int, int, str]] = []
        self.trace: list[tuple[int, int, str, str]] = []
        self._occupancy: list = []
        self.profile_hook = None

    # -- context plumbing (cold paths) -----------------------------------

    def _ctx_repr(self, c: int) -> str:
        """Exactly :meth:`Context.__repr__` for the interned id."""
        parts = []
        act, it, par = self._ctx_act, self._ctx_iter, self._ctx_parent
        while c >= 0:
            parts.append(f"{act[c]}.{it[c]}")
            c = par[c]
        return "<" + "/".join(reversed(parts)) + ">"

    def _ctx_obj(self, c: int) -> Context:
        """Materialize a real :class:`Context` (error paths only)."""
        if c == 0:
            return ROOT
        parent = self._ctx_parent[c]
        return Context(
            self._ctx_obj(parent) if parent >= 0 else None,
            self._ctx_act[c],
            self._ctx_iter[c],
        )

    # -- error paths ------------------------------------------------------

    def _bad_port(self, idx: int, port: int) -> None:
        pg = self.pg
        raise MachineError(
            f"token delivered to nonexistent input port {port} of node "
            f"{pg.node_ids[idx]} ({pg.describe[idx]}): node has "
            f"{pg.nin[idx]} input port(s)"
        )

    def _bad_value(self, idx: int, v) -> None:
        pg = self.pg
        raise MachineError(
            f"operator {pg.node_ids[idx]} ({pg.describe[idx]}) received a "
            f"non-value token {v!r} on a value port"
        )

    # -- main loop ---------------------------------------------------------

    def run(self) -> SimResult:
        t0 = time.perf_counter()
        pg = self.pg
        heap = self._heap
        # seed the START outputs, mirroring Simulator.run exactly
        seq = 0
        start_outs = self._rt[pg.start][2]
        for port, (skind, slabel) in enumerate(pg.seeds):
            value = ACCESS if skind == "access" else self.memory.read(slabel)
            if port < len(start_outs):
                for d, dp in start_outs[port]:
                    seq += 1
                    heapq.heappush(heap, (0, seq, d, dp, value, 0))
        self._seq = seq

        try:
            self._loop()
        finally:
            self._fold_metrics()

        self.metrics.cycles = self._cycle
        self._check_completion()

        end_values: dict[str, int] = {}
        for port, var in enumerate(pg.returns):
            if var is not None:
                end_values[var] = self._end_arrivals[port]  # type: ignore[assignment]

        snapshot = self.memory.snapshot()
        snapshot.update(self.istructs.snapshot())
        snapshot.update(end_values)
        return SimResult(
            memory=snapshot,
            metrics=self.metrics,
            end_values=end_values,
            clashes=self.clashes,
            trace=self.trace,
            wall_time=time.perf_counter() - t0,
            occupancy=self._occupancy,
            backend="packed",
        )

    def _loop(self) -> None:
        """The inlined deliver/match/fire loop: deliver every token due
        this cycle, then fire every enabled activity, then jump the clock
        to the next event time."""
        cfg = self.config
        pg = self.pg
        N = pg.n
        nin_a = pg.nin
        dcls = pg.dcls
        node_ids = pg.node_ids
        describe = pg.describe
        rt = self._rt
        heap = self._heap
        push = heapq.heappush
        pop = heapq.heappop
        frames = self._frames
        extras = self._extras
        enabled = self._enabled
        cpar = self._ctx_parent
        cact = self._ctx_act
        cit = self._ctx_iter
        cintern = self._ctx_intern
        activations = self._activations
        end_arrivals = self._end_arrivals
        n_returns = len(pg.returns)
        memory = self.memory
        istructs = self.istructs
        clashes_list = self.clashes
        trace_list = self.trace
        occ = self._occupancy
        kc = self._kind_counts
        profile = self._profile
        record_clash = cfg.on_clash == "record"
        trace_on = cfg.trace
        max_cycles = cfg.max_cycles
        max_ops = cfg.max_ops
        mem_lat = cfg.memory_latency
        hook = self.profile_hook
        isinst = isinstance

        seq = self._seq
        cyc = self._cycle
        m_ops = self._m_ops
        peak_tok = self._peak_tokens
        peak_frames = self._peak_frames
        peak_en = self._peak_enabled
        EMPTY = _EMPTY

        try:
            while True:
                if not heap:
                    # quiescent: deferred I-structure reads of elements no
                    # write can ever fill now read the default (0)
                    released = istructs.release_pending_with_default()
                    if not released:
                        break
                    for (widx, wctx), value in released:
                        arcs = rt[widx][2][0]
                        if arcs:
                            at = cyc + mem_lat
                            for d, dp in arcs:
                                seq += 1
                                push(heap, (at, seq, d, dp, value, wctx))
                    continue
                t = heap[0][0]
                if t > cyc:
                    cyc = t
                n_tok = len(heap)
                if n_tok > peak_tok:
                    peak_tok = n_tok
                    occ.append([cyc, n_tok, len(frames), len(enabled)])
                    if hook is not None:
                        hook(cyc, n_tok, len(frames), len(enabled))
                while heap and heap[0][0] <= cyc:
                    _, _, idx, port, value, ctx = pop(heap)
                    cls = dcls[idx]
                    if cls == 3:  # strict: match at the frame slot
                        nin = nin_a[idx]
                        if port >= nin:
                            self._bad_port(idx, port)
                        fk = ctx * N + idx
                        frame = frames.get(fk)
                        if frame is None:
                            frame = frames[fk] = [0] + [EMPTY] * nin
                        if frame[port + 1] is EMPTY:
                            frame[port + 1] = value
                            frame[0] += 1
                        else:
                            self._m_clashes += 1
                            if not record_clash:
                                raise TokenClashError(
                                    node_ids[idx], port, self._ctx_obj(ctx),
                                    describe[idx],
                                )
                            clashes_list.append(
                                (node_ids[idx], port, self._ctx_repr(ctx))
                            )
                            q = extras.get((fk, port))
                            if q is None:
                                q = extras[(fk, port)] = deque()
                            q.append(value)
                        if frame[0] == nin:
                            inputs = frame[1:]
                            if extras:
                                cnt = 0
                                for p in range(nin):
                                    q = extras.get((fk, p))
                                    if q:
                                        frame[p + 1] = q.popleft()
                                        if not q:
                                            del extras[(fk, p)]
                                        cnt += 1
                                    else:
                                        frame[p + 1] = EMPTY
                                frame[0] = cnt
                                if cnt == 0:
                                    del frames[fk]
                            else:
                                del frames[fk]
                            enabled.append((idx, ctx, inputs))
                    elif cls == 2:  # single input: fire per token
                        if port:
                            self._bad_port(idx, port)
                        enabled.append((idx, ctx, (value,)))
                    elif cls == 1:  # nonstrict: merge / loop entry / exit
                        if port >= nin_a[idx]:
                            self._bad_port(idx, port)
                        enabled.append((idx, ctx, port, value))
                    else:  # END
                        if port >= n_returns:
                            self._bad_port(idx, port)
                        if ctx != 0:
                            raise MachineError(
                                "token reached END in non-root context "
                                f"{self._ctx_repr(ctx)}"
                            )
                        if port in end_arrivals:
                            raise TokenClashError(
                                node_ids[idx], port, self._ctx_obj(ctx), "end"
                            )
                        end_arrivals[port] = value
                nf = len(frames)
                if nf > peak_frames:
                    peak_frames = nf
                ne = len(enabled)
                if ne > peak_en:
                    peak_en = ne
                if not enabled:
                    continue
                for act in enabled:
                    idx = act[0]
                    ctx = act[1]
                    op, lat, outs, aux = rt[idx]
                    kc[op] += 1
                    if trace_on:
                        trace_list.append(
                            (cyc, node_ids[idx], describe[idx],
                             self._ctx_repr(ctx))
                        )
                    if op == 11:  # SWITCH
                        ins = act[2]
                        c = ins[1]
                        if c is ACCESS or not isinst(c, int):
                            self._bad_value(idx, c)
                        arcs = outs[0 if c != 0 else 1]
                        if arcs:
                            v = ins[0]
                            at = cyc + lat
                            for d, dp in arcs:
                                seq += 1
                                push(heap, (at, seq, d, dp, v, ctx))
                    elif op == 12:  # MERGE
                        arcs = outs[0]
                        if arcs:
                            v = act[3]
                            at = cyc + lat
                            for d, dp in arcs:
                                seq += 1
                                push(heap, (at, seq, d, dp, v, ctx))
                    elif op == 3:  # BINOP
                        ins = act[2]
                        a = ins[0]
                        b = ins[1]
                        if a is ACCESS or not isinst(a, int):
                            self._bad_value(idx, a)
                        if b is ACCESS or not isinst(b, int):
                            self._bad_value(idx, b)
                        v = aux(a, b)
                        arcs = outs[0]
                        if arcs:
                            at = cyc + lat
                            for d, dp in arcs:
                                seq += 1
                                push(heap, (at, seq, d, dp, v, ctx))
                    elif op == 13:  # SYNCH
                        arcs = outs[0]
                        if arcs:
                            at = cyc + lat
                            for d, dp in arcs:
                                seq += 1
                                push(heap, (at, seq, d, dp, ACCESS, ctx))
                    elif op == 2:  # CONST
                        arcs = outs[0]
                        if arcs:
                            at = cyc + lat
                            for d, dp in arcs:
                                seq += 1
                                push(heap, (at, seq, d, dp, aux, ctx))
                    elif op == 14:  # LOOP_ENTRY
                        port = act[2]
                        value = act[3]
                        if port < aux:  # external entry: join the activation
                            akey = ctx * N + idx
                            base = activations.get(akey)
                            if base is None:
                                na = self._next_activation
                                self._next_activation = na + 1
                                base = len(cpar)
                                cintern[(ctx, na, 0)] = base
                                cpar.append(ctx)
                                cact.append(na)
                                cit.append(0)
                                activations[akey] = base
                            arcs = outs[port]
                            if arcs:
                                at = cyc + lat
                                for d, dp in arcs:
                                    seq += 1
                                    push(heap, (at, seq, d, dp, value, base))
                        else:  # backedge: advance the iteration tag
                            key = (cpar[ctx], cact[ctx], cit[ctx] + 1)
                            nc = cintern.get(key)
                            if nc is None:
                                nc = len(cpar)
                                cintern[key] = nc
                                cpar.append(key[0])
                                cact.append(key[1])
                                cit.append(key[2])
                            arcs = outs[port - aux]
                            if arcs:
                                at = cyc + lat
                                for d, dp in arcs:
                                    seq += 1
                                    push(heap, (at, seq, d, dp, value, nc))
                    elif op == 15:  # LOOP_EXIT
                        port = act[2]
                        value = act[3]
                        parent = cpar[ctx]
                        if parent < 0:
                            raise MachineError(
                                f"LOOP_EXIT {node_ids[idx]} fired in root "
                                "context"
                            )
                        arcs = outs[port]
                        if arcs:
                            at = cyc + lat
                            for d, dp in arcs:
                                seq += 1
                                push(heap, (at, seq, d, dp, value, parent))
                    elif op == 5:  # LOAD
                        v = memory.read(aux)
                        at = cyc + lat
                        for d, dp in outs[0]:
                            seq += 1
                            push(heap, (at, seq, d, dp, v, ctx))
                        for d, dp in outs[1]:
                            seq += 1
                            push(heap, (at, seq, d, dp, ACCESS, ctx))
                    elif op == 6:  # STORE
                        v = act[2][0]
                        if v is ACCESS or not isinst(v, int):
                            self._bad_value(idx, v)
                        memory.write(aux, v)
                        at = cyc + lat
                        for d, dp in outs[0]:
                            seq += 1
                            push(heap, (at, seq, d, dp, ACCESS, ctx))
                    elif op == 7:  # ALOAD
                        i0 = act[2][0]
                        if i0 is ACCESS or not isinst(i0, int):
                            self._bad_value(idx, i0)
                        v = memory.aread(aux, i0)
                        at = cyc + lat
                        for d, dp in outs[0]:
                            seq += 1
                            push(heap, (at, seq, d, dp, v, ctx))
                        for d, dp in outs[1]:
                            seq += 1
                            push(heap, (at, seq, d, dp, ACCESS, ctx))
                    elif op == 8:  # ASTORE
                        ins = act[2]
                        i0 = ins[0]
                        v = ins[1]
                        if i0 is ACCESS or not isinst(i0, int):
                            self._bad_value(idx, i0)
                        if v is ACCESS or not isinst(v, int):
                            self._bad_value(idx, v)
                        memory.awrite(aux, i0, v)
                        at = cyc + lat
                        for d, dp in outs[0]:
                            seq += 1
                            push(heap, (at, seq, d, dp, ACCESS, ctx))
                    elif op == 9:  # ILOAD
                        i0 = act[2][0]
                        if i0 is ACCESS or not isinst(i0, int):
                            self._bad_value(idx, i0)
                        ok, v = istructs.read(aux, i0, (idx, ctx))
                        if ok:
                            at = cyc + lat
                            for d, dp in outs[0]:
                                seq += 1
                                push(heap, (at, seq, d, dp, v, ctx))
                        # else deferred: the matching ISTORE emits for us
                    elif op == 10:  # ISTORE
                        ins = act[2]
                        i0 = ins[0]
                        v = ins[1]
                        if i0 is ACCESS or not isinst(i0, int):
                            self._bad_value(idx, i0)
                        if v is ACCESS or not isinst(v, int):
                            self._bad_value(idx, v)
                        waiters = istructs.write(aux, i0, v)
                        at = cyc + lat
                        for d, dp in outs[0]:
                            seq += 1
                            push(heap, (at, seq, d, dp, ACCESS, ctx))
                        for widx, wctx in waiters:
                            for d, dp in rt[widx][2][0]:
                                seq += 1
                                push(heap, (at, seq, d, dp, v, wctx))
                    elif op == 4:  # UNOP
                        a = act[2][0]
                        if a is ACCESS or not isinst(a, int):
                            self._bad_value(idx, a)
                        v = aux(a)
                        arcs = outs[0]
                        if arcs:
                            at = cyc + lat
                            for d, dp in arcs:
                                seq += 1
                                push(heap, (at, seq, d, dp, v, ctx))
                    else:
                        raise MachineError(
                            f"cannot execute kind {OPCODE_KIND_VALUE[op]}"
                        )
                n_fired = len(enabled)
                m_ops += n_fired
                profile[cyc] = profile.get(cyc, 0) + n_fired
                del enabled[:]
                cyc += 1
                if cyc > max_cycles:
                    raise SimulationLimitError(f"exceeded {max_cycles} cycles")
                if m_ops > max_ops:
                    raise SimulationLimitError(
                        f"exceeded {max_ops} operations"
                    )
        finally:
            self._seq = seq
            self._cycle = cyc
            self._m_ops = m_ops
            self._peak_tokens = peak_tok
            self._peak_frames = peak_frames
            self._peak_enabled = peak_en

    # -- bookkeeping -------------------------------------------------------

    def _fold_metrics(self) -> None:
        """Fold the per-opcode/batch counters into the :class:`Metrics`
        layout the reference simulator fills per firing."""
        m = self.metrics
        kc = self._kind_counts
        # the reference counts operations once per firing, so the total is
        # exactly the sum of the per-opcode counters — exact even when a
        # firing raised mid-batch
        m.operations = sum(kc)
        m.by_kind = {
            OPCODE_KIND_VALUE[op]: kc[op]
            for op in range(N_OPCODES)
            if kc[op]
        }
        m.profile = self._profile
        m.memory_ops = sum(kc[op] for op in _MEM_OPCODES)
        m.switch_ops = kc[OP_SWITCH]
        m.merge_ops = kc[OP_MERGE]
        m.synch_ops = kc[OP_SYNCH]
        m.clashes = self._m_clashes
        m.peak_tokens_in_flight = self._peak_tokens
        m.peak_waiting_frames = self._peak_frames
        m.peak_enabled = self._peak_enabled

    def _check_completion(self) -> None:
        pg = self.pg
        missing = [
            p for p in range(len(pg.returns)) if p not in self._end_arrivals
        ]
        pending_is = self.istructs.pending_reads()
        if not missing and not pending_is:
            return
        waiting = []
        N = pg.n
        for fk, frame in self._frames.items():
            idx = fk % N
            filled = sorted(
                p
                for p in range(pg.nin[idx])
                if frame[p + 1] is not _EMPTY
            )
            if filled:
                waiting.append(
                    f"node {pg.node_ids[idx]} ({pg.describe[idx]}) ctx "
                    f"{self._ctx_repr(fk // N)} has ports {filled} filled"
                )
        for arr, idx in pending_is:
            waiting.append(f"I-structure read of never-written {arr}[{idx}]")
        raise DeadlockError(
            f"machine quiesced with END ports {missing} missing "
            f"({len(waiting)} stuck frames)",
            waiting,
        )
