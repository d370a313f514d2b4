"""Packed-graph execution backend: the flat-array ETS interpreter.

The reference :class:`~repro.machine.simulator.Simulator` walks the
object-graph :class:`~repro.dfg.graph.DFGraph` — per-token ``dict``
lookups, ``OpKind`` enum chains, and tuple-of-dataclass ``Context`` tags
whose hashes are recomputed on every frame probe.  This module lowers a
graph **once**, checking it in the same pass, into a :class:`PackedGraph`
— struct-of-arrays form (integer opcodes, arity and latency tables,
per-port fan-out tuples) — and executes it with :class:`PackedSimulator`,
whose inner loop:

* addresses waiting-matching frame slots by a single integer key
  ``ctx_id * n_nodes + node_index`` into one flat dict (the paper's O(1)
  ETS frame-slot discipline, §2.2);
* replaces tuple ``Context`` allocation with *interned integer tag
  contexts* — ``next_iteration`` and activation entry are dict lookups
  over ``(parent_id, activation, iteration)`` triples, so the hot path
  never hashes a context chain;
* inlines delivery, matching, and firing into one dispatch loop with
  pre-resolved operator callables, folding per-firing metric updates into
  per-batch counters;
* queues tokens as per-cycle fronts: one bucket per due time holding one
  ``(arcs, value, ctx)`` record per fired output port, so a firing costs
  one append however wide its fan-out.

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
from ..dfg.nodes import DC_SINGLE, DC_STRICT, PORTS
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

# integer opcodes (``PORTS[kind].opcode``) — dense, so per-opcode counters
# are plain list cells
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

#: opcode -> OpKind.value, for folding per-opcode counters into by_kind
#: and for rebuilding describe text
OPCODE_KIND_VALUE = tuple(
    kind.value
    for kind, _ in sorted(PORTS.items(), key=lambda kv: kv[1].opcode)
)

_MEM_OPCODES = frozenset(row.opcode for row in PORTS.values() if row.memory)

#: sentinel for an empty frame slot (None is not usable: ACCESS/ints only,
#: but a distinct object keeps the check a fast identity test)
_EMPTY = object()


@dataclass(frozen=True)
class PackedGraph:
    """A :class:`~repro.dfg.graph.DFGraph` lowered to flat arrays.

    Node indices are ``0..n-1`` in ascending original-node-id order;
    ``node_ids[i]`` maps back for error messages, traces, and clash
    reports (which must match the reference simulator byte for byte).
    A node's describe text is not stored: :meth:`describe` rebuilds it
    from the opcode, payload and arity, plus ``loop_ids`` for the one
    piece those lack.

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
    #: (index, loop id) of every LOOP_ENTRY/LOOP_EXIT node
    loop_ids: tuple[tuple[int, int | None], ...]
    #: per node, per output port: ((dst index, dst port), ...)
    outs: tuple[tuple[tuple[tuple[int, int], ...], ...], ...]
    # endpoints
    start: int
    end: int
    seeds: tuple[tuple[str, str], ...]
    returns: tuple[str | None, ...]

    def describe(self, idx: int) -> str:
        """Exactly :meth:`DFNode.describe` of node ``idx``."""
        op = self.opcodes[idx]
        kind = OPCODE_KIND_VALUE[op]
        if op == OP_CONST:
            return f"const {self.aux[idx]}"
        if op == OP_BINOP or op == OP_UNOP:
            return f"{self.aux[idx]}"
        if self.is_mem[idx]:
            return f"{kind} {self.aux[idx]}"
        if op == OP_MERGE or op == OP_SYNCH:
            return f"{kind}{self.nin[idx]}"
        if op == OP_LOOP_ENTRY or op == OP_LOOP_EXIT:
            return f"{kind} L{dict(self.loop_ids)[idx]}"
        return kind

    def out_arcs(self, idx: int, port: int) -> list[tuple[int, int]]:
        """(dst index, dst port) consumers of one output port."""
        return list(self.outs[idx][port])

    def num_arcs(self) -> int:
        return sum(len(arcs) for ports in self.outs for arcs in ports)


def pack_graph(graph: DFGraph) -> PackedGraph:
    """The lowering pass: one walk over the nodes that flattens the graph
    to struct-of-arrays and checks it on the way.

    This is the one check a graph gets before it first runs on the
    packed loop.  It is :meth:`DFGraph.validate`'s (dangling outputs
    allowed), made cheap: START and END exist, each node's input ports
    are exactly ``0..nin-1``, and only START and END may have no input
    port (a MERGE/SYNCH needs a port, a LOOP node a channel).  When a
    check fails, ``validate`` itself runs, so the error is its own."""
    nodes = graph.nodes
    if graph.start == -1 or graph.end == -1:
        graph.validate(allow_dangling_outputs=True)
    order = sorted(nodes)
    index_of = {nid: i for i, nid in enumerate(order)}
    ins_of = graph._in
    outs_of = graph._out

    opcodes, nins, nouts, dcls, extra_lat, is_mem = [], [], [], [], [], []
    aux, loop_ids, outs = [], [], []
    port_sets: dict[int, frozenset] = {}

    for i, nid in enumerate(order):
        node = nodes[nid]
        op, nin, nout, dcl, mem = PORTS[node.kind]
        if type(nin) is not int:
            nin = nin(node)
        if type(nout) is not int:
            nout = nout(node)
        want = port_sets.get(nin)
        if want is None:
            want = port_sets[nin] = frozenset(range(nin))
        if ins_of[nid].keys() != want or (nin < 1 and op > OP_END):
            graph.validate(allow_dangling_outputs=True)
        opcodes.append(op)
        nins.append(nin)
        nouts.append(nout)
        dcls.append(DC_SINGLE if dcl == DC_STRICT and nin == 1 else dcl)
        extra_lat.append(node.latency)
        is_mem.append(mem)
        if op == OP_CONST:
            aux.append(node.value)
        elif op == OP_BINOP or op == OP_UNOP:
            aux.append(node.op)
        elif mem:
            aux.append(node.var)
        elif op == OP_LOOP_ENTRY or op == OP_LOOP_EXIT:
            aux.append(node.nchannels)
            loop_ids.append((i, node.loop_id))
        else:
            aux.append(None)
        by_port = outs_of[nid]
        row = []
        for p in range(nout):
            arcs = by_port.get(p)
            row.append(
                tuple([(index_of[d], dp) for _, _, d, dp, _ in arcs])
                if arcs else ()
            )
        outs.append(tuple(row))

    start_node = nodes[graph.start]
    end_node = nodes[graph.end]
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
        loop_ids=tuple(loop_ids),
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

    Its token queue is the reference heap's ``(time, seq)`` order kept as
    per-time buckets: ``_buckets`` maps a due time to the records of the
    output ports that fire into it, in push order (arcs in arc order
    within a record), ``_times`` is a heap of the distinct due times, and
    ``_n_tok`` counts the tokens in flight, which is what the in-flight
    peak and the occupancy rows read.  Each firing looks up the bucket of
    ``cycle + latency`` once; a bucket that received nothing is popped
    and skipped without moving the clock.
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

        self._buckets: dict[int, list] = {}
        self._times: list[int] = []
        self._n_tok = 0
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
            f"{pg.node_ids[idx]} ({pg.describe(idx)}): node has "
            f"{pg.nin[idx]} input port(s)"
        )

    def _bad_value(self, idx: int, v) -> None:
        pg = self.pg
        raise MachineError(
            f"operator {pg.node_ids[idx]} ({pg.describe(idx)}) received a "
            f"non-value token {v!r} on a value port"
        )

    # -- main loop ---------------------------------------------------------

    def run(self) -> SimResult:
        t0 = time.perf_counter()
        pg = self.pg
        # seed the START outputs at time 0, mirroring Simulator.run exactly
        seeded = []
        for (skind, slabel), arcs in zip(pg.seeds, pg.outs[pg.start]):
            value = ACCESS if skind == "access" else self.memory.read(slabel)
            if arcs:
                seeded.append((arcs, value, 0))
                self._n_tok += len(arcs)
        self._buckets[0] = seeded
        self._times.append(0)

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
        """The inlined deliver/match/fire loop: pop the next due time,
        deliver its bucket, then fire every enabled activity, each
        firing appending its output records to the bucket of
        ``cycle + latency``."""
        cfg = self.config
        pg = self.pg
        N = pg.n
        nin_a = pg.nin
        dcls = pg.dcls
        node_ids = pg.node_ids
        describe = pg.describe
        rt = self._rt
        buckets = self._buckets
        times = self._times
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

        n_tok = self._n_tok
        cyc = self._cycle
        m_ops = self._m_ops
        peak_tok = self._peak_tokens
        peak_frames = self._peak_frames
        peak_en = self._peak_enabled
        EMPTY = _EMPTY

        try:
            while True:
                if not times:
                    # quiescent: deferred I-structure reads of elements no
                    # write can ever fill now read the default (0)
                    released = istructs.release_pending_with_default()
                    if not released:
                        break
                    at = cyc + mem_lat
                    bucket = buckets[at] = []
                    push(times, at)
                    for (widx, wctx), value in released:
                        arcs = rt[widx][2][0]
                        if arcs:
                            bucket.append((arcs, value, wctx))
                            n_tok += len(arcs)
                t = pop(times)
                bucket = buckets.pop(t)
                if not bucket:
                    # every firing that looked this bucket up pushed
                    # nothing: no token is due, so the clock stays put
                    continue
                if t > cyc:
                    cyc = t
                if n_tok > peak_tok:
                    peak_tok = n_tok
                    occ.append([cyc, n_tok, len(frames), len(enabled)])
                    if hook is not None:
                        hook(cyc, n_tok, len(frames), len(enabled))
                while times and times[0] <= cyc:
                    # only a total latency below 1 leaves an earlier
                    # time due
                    bucket += buckets.pop(pop(times))
                for arcs, value, ctx in bucket:
                    n_tok -= len(arcs)
                    for idx, port in arcs:
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
                                        node_ids[idx], port,
                                        self._ctx_obj(ctx), describe(idx),
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
                                    node_ids[idx], port, self._ctx_obj(ctx),
                                    "end",
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
                            (cyc, node_ids[idx], describe(idx),
                             self._ctx_repr(ctx))
                        )
                    at = cyc + lat
                    bucket = buckets.get(at)
                    if bucket is None:
                        bucket = buckets[at] = []
                        push(times, at)
                    if op == 11:  # SWITCH
                        ins = act[2]
                        c = ins[1]
                        if c is ACCESS or not isinst(c, int):
                            self._bad_value(idx, c)
                        arcs = outs[0 if c != 0 else 1]
                        if arcs:
                            bucket.append((arcs, ins[0], ctx))
                            n_tok += len(arcs)
                    elif op == 12:  # MERGE
                        arcs = outs[0]
                        if arcs:
                            bucket.append((arcs, act[3], ctx))
                            n_tok += len(arcs)
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
                            bucket.append((arcs, v, ctx))
                            n_tok += len(arcs)
                    elif op == 13:  # SYNCH
                        arcs = outs[0]
                        if arcs:
                            bucket.append((arcs, ACCESS, ctx))
                            n_tok += len(arcs)
                    elif op == 2:  # CONST
                        arcs = outs[0]
                        if arcs:
                            bucket.append((arcs, aux, ctx))
                            n_tok += len(arcs)
                    elif op == 14:  # LOOP_ENTRY
                        port = act[2]
                        if port < aux:  # external entry: join the activation
                            akey = ctx * N + idx
                            nc = activations.get(akey)
                            if nc is None:
                                na = self._next_activation
                                self._next_activation = na + 1
                                nc = len(cpar)
                                cintern[(ctx, na, 0)] = nc
                                cpar.append(ctx)
                                cact.append(na)
                                cit.append(0)
                                activations[akey] = nc
                            arcs = outs[port]
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
                            bucket.append((arcs, act[3], nc))
                            n_tok += len(arcs)
                    elif op == 15:  # LOOP_EXIT
                        parent = cpar[ctx]
                        if parent < 0:
                            raise MachineError(
                                f"LOOP_EXIT {node_ids[idx]} fired in root "
                                "context"
                            )
                        arcs = outs[act[2]]
                        if arcs:
                            bucket.append((arcs, act[3], parent))
                            n_tok += len(arcs)
                    elif op == 5:  # LOAD
                        v = memory.read(aux)
                        for arcs in outs:  # o0 value, o1 access
                            if arcs:
                                bucket.append((arcs, v, ctx))
                                n_tok += len(arcs)
                            v = ACCESS
                    elif op == 6:  # STORE
                        v = act[2][0]
                        if v is ACCESS or not isinst(v, int):
                            self._bad_value(idx, v)
                        memory.write(aux, v)
                        arcs = outs[0]
                        if arcs:
                            bucket.append((arcs, ACCESS, ctx))
                            n_tok += len(arcs)
                    elif op == 7:  # ALOAD
                        i0 = act[2][0]
                        if i0 is ACCESS or not isinst(i0, int):
                            self._bad_value(idx, i0)
                        v = memory.aread(aux, i0)
                        for arcs in outs:  # o0 value, o1 access
                            if arcs:
                                bucket.append((arcs, v, ctx))
                                n_tok += len(arcs)
                            v = ACCESS
                    elif op == 8:  # ASTORE
                        ins = act[2]
                        i0 = ins[0]
                        v = ins[1]
                        if i0 is ACCESS or not isinst(i0, int):
                            self._bad_value(idx, i0)
                        if v is ACCESS or not isinst(v, int):
                            self._bad_value(idx, v)
                        memory.awrite(aux, i0, v)
                        arcs = outs[0]
                        if arcs:
                            bucket.append((arcs, ACCESS, ctx))
                            n_tok += len(arcs)
                    elif op == 9:  # ILOAD
                        i0 = act[2][0]
                        if i0 is ACCESS or not isinst(i0, int):
                            self._bad_value(idx, i0)
                        ok, v = istructs.read(aux, i0, (idx, ctx))
                        arcs = outs[0]
                        if ok and arcs:
                            bucket.append((arcs, v, ctx))
                            n_tok += len(arcs)
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
                        arcs = outs[0]
                        if arcs:
                            bucket.append((arcs, ACCESS, ctx))
                            n_tok += len(arcs)
                        for widx, wctx in waiters:
                            arcs = rt[widx][2][0]
                            if arcs:
                                bucket.append((arcs, v, wctx))
                                n_tok += len(arcs)
                    elif op == 4:  # UNOP
                        a = act[2][0]
                        if a is ACCESS or not isinst(a, int):
                            self._bad_value(idx, a)
                        v = aux(a)
                        arcs = outs[0]
                        if arcs:
                            bucket.append((arcs, v, ctx))
                            n_tok += len(arcs)
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
            self._n_tok = n_tok
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
                    f"node {pg.node_ids[idx]} ({pg.describe(idx)}) ctx "
                    f"{self._ctx_repr(fk // N)} has ports {filled} filled"
                )
        for arr, idx in pending_is:
            waiting.append(f"I-structure read of never-written {arr}[{idx}]")
        raise DeadlockError(
            f"machine quiesced with END ports {missing} missing "
            f"({len(waiting)} stuck frames)",
            waiting,
        )
