"""The explicit-token-store simulator core.

Cycle-driven: tokens are delivered from an event heap; operators whose
firing rule is met become *enabled activities*; each cycle up to ``num_pes``
activities fire (all of them on the idealized machine), producing output
tokens that are delivered after the operator's latency.  Matching for
strict operators happens at frame slots keyed by (operator, tag context),
exactly the explicit-token-store discipline: a second token arriving at an
occupied slot is a token clash.
"""

from __future__ import annotations

import heapq
import random
import time
from collections import deque
from dataclasses import dataclass, field

from ..dfg.graph import DFGraph
from ..dfg.nodes import MEMORY_KINDS, DFNode, OpKind, num_inputs
from ..semantics import apply_binop, apply_unop, truthy
from .config import MachineConfig
from .context import ACCESS, ROOT, Context, Token
from .errors import (
    DeadlockError,
    MachineError,
    SimulationLimitError,
    TokenClashError,
)
from .istructure import IStructureMemory
from .memory import DataMemory
from .metrics import Metrics


@dataclass
class SimResult:
    """Outcome of one run: final memory (scalars, arrays, I-structures, and
    any final values carried to END on tokens, merged into one snapshot),
    metrics, recorded clashes, and the optional trace."""

    memory: dict[str, int | list[int]]
    metrics: Metrics
    end_values: dict[str, int] = field(default_factory=dict)
    clashes: list[tuple[int, int, str]] = field(default_factory=list)
    trace: list[tuple[int, int, str, str]] = field(default_factory=list)
    #: host seconds spent inside :meth:`Simulator.run` (wall clock, not
    #: simulated cycles) — the denominator of engine speedup claims
    wall_time: float = 0.0
    #: set by the engine layer: the compiled graph came from the cache
    cache_hit: bool = False
    #: token-occupancy high-water samples: one ``[cycle, tokens_in_flight,
    #: waiting_frames, enabled]`` row each time tokens-in-flight reaches a
    #: new peak.  Bounded (peaks are monotone) and loop-dependent: the
    #: sampling points of the packed and step loops may differ even when
    #: their metrics are identical.
    occupancy: list = field(default_factory=list)
    #: which scheduler loop ran: "step" or "packed"
    backend: str = ""


class _Frames:
    """The waiting-matching frame store: per (node, context), a deque of
    tokens per input port.  Deques only grow beyond one entry in
    clash-record mode."""

    __slots__ = ("slots",)

    def __init__(self):
        self.slots: dict[tuple[int, Context], dict[int, deque]] = {}

    def put(self, node: int, ctx: Context, port: int, value) -> bool:
        """Store a token.  Returns True if the slot was already occupied
        (a clash)."""
        frame = self.slots.setdefault((node, ctx), {})
        q = frame.setdefault(port, deque())
        q.append(value)
        return len(q) > 1

    def try_take(self, node: int, ctx: Context, nports: int):
        """If every port has a token, pop one from each and return the
        input list; else None."""
        frame = self.slots.get((node, ctx))
        if frame is None or len(frame) < nports:
            return None
        if any(not frame.get(p) for p in range(nports)):
            return None
        inputs = [frame[p].popleft() for p in range(nports)]
        if all(not q for q in frame.values()):
            del self.slots[(node, ctx)]
        return inputs

    def pending(self):
        """(node, ctx, filled-ports) for every partially-filled frame."""
        out = []
        for (node, ctx), frame in self.slots.items():
            filled = sorted(p for p, q in frame.items() if q)
            if filled:
                out.append((node, ctx, filled))
        return out


class Simulator:
    """One program graph + memory + config = one runnable machine: the
    per-cycle reference loop, whatever the config's ``sim_mode``.
    :func:`simulate_graph` and :func:`~repro.translate.pipeline.simulate`
    pick between it and the packed loop."""

    def __init__(
        self,
        graph: DFGraph,
        memory: DataMemory | None = None,
        istructs: IStructureMemory | None = None,
        config: MachineConfig | None = None,
    ):
        graph.validate(allow_dangling_outputs=True)
        self.graph = graph
        self.memory = memory if memory is not None else DataMemory()
        self.istructs = istructs if istructs is not None else IStructureMemory()
        self.config = config or MachineConfig()
        self._rng = (
            random.Random(self.config.seed)
            if self.config.seed is not None
            else None
        )

        self._heap: list[tuple[int, int, Token]] = []
        self._seq = 0
        self._frames = _Frames()
        self._enabled: deque = deque()
        self._activations: dict[tuple[int, Context], Context] = {}
        self._next_activation = 1
        # k-bounded loop throttling state, per (loop entry node, activation)
        self._throttle: dict[tuple[int, int], dict] = {}
        # static instruction partitioning across PEs (locality model)
        self._pe_of: dict[int, int] = {}
        cfgc = self.config
        if cfgc.num_pes is not None and cfgc.network_latency:
            ordered = sorted(graph.nodes)
            p = cfgc.num_pes
            if cfgc.partition == "round_robin":
                self._pe_of = {n: i % p for i, n in enumerate(ordered)}
            elif cfgc.partition == "block":
                chunk = max(1, -(-len(ordered) // p))
                self._pe_of = {
                    n: min(i // chunk, p - 1) for i, n in enumerate(ordered)
                }
            else:  # random
                rng = random.Random(cfgc.seed or 0)
                assignment = [i % p for i in range(len(ordered))]
                rng.shuffle(assignment)
                self._pe_of = dict(zip(ordered, assignment))
        self._end_arrivals: dict[int, object] = {}
        self._cycle = 0
        # hot-path tables: per-node total latency and the graph's fan-out
        # adjacency, resolved once so neither is recomputed per firing
        self._lat: dict[int, int] = {
            nid: (
                cfgc.memory_latency
                if n.kind in MEMORY_KINDS
                else cfgc.alu_latency
            )
            + n.latency
            for nid, n in graph.nodes.items()
        }
        self._out: dict[int, dict[int, list]] = graph._out

        self.metrics = Metrics()
        self.clashes: list[tuple[int, int, str]] = []
        self.trace: list[tuple[int, int, str, str]] = []
        # profiling: occupancy rows sampled at token high-water marks,
        # folded into SimResult; profile_hook (if set) is called with the
        # same (cycle, tokens, frames, enabled) at each sample — the
        # observability layer's window into a live run
        self._occupancy: list = []
        self.profile_hook = None

    def _sample_occupancy(self, tokens: int, frames: int, enabled: int) -> None:
        self._occupancy.append([self._cycle, tokens, frames, enabled])
        if self.profile_hook is not None:
            self.profile_hook(self._cycle, tokens, frames, enabled)

    # -- plumbing -----------------------------------------------------------

    def _schedule(self, token: Token, at: int) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (at, self._seq, token))

    def _emit(self, node: DFNode, port: int, value, ctx: Context, lat: int) -> None:
        arcs = self._out[node.id].get(port)
        if not arcs:
            return
        at = self._cycle + lat
        pe_of = self._pe_of
        if pe_of:
            net = self.config.network_latency
            src_pe = pe_of.get(node.id)
            for arc in arcs:
                hop = (
                    net
                    if src_pe is not None and pe_of.get(arc.dst) != src_pe
                    else 0
                )
                self._schedule(
                    Token(arc.dst, arc.dst_port, value, ctx), at + hop
                )
        else:
            heap = self._heap
            seq = self._seq
            for arc in arcs:
                seq += 1
                heapq.heappush(
                    heap, (at, seq, Token(arc.dst, arc.dst_port, value, ctx))
                )
            self._seq = seq

    # -- delivery ------------------------------------------------------------

    def _deliver(self, token: Token) -> None:
        node = self.graph.node(token.node)
        kind = node.kind
        nin = num_inputs(node)
        if token.port >= nin:
            # without this a stray token would wedge the frame silently:
            # try_take only probes ports < nin, so the frame never fills
            raise MachineError(
                f"token delivered to nonexistent input port {token.port} of "
                f"node {node.id} ({node.describe()}): node has {nin} input "
                f"port(s)"
            )
        if kind is OpKind.END:
            if token.ctx != ROOT:
                raise MachineError(
                    f"token reached END in non-root context {token.ctx}"
                )
            if token.port in self._end_arrivals:
                raise TokenClashError(node.id, token.port, token.ctx, "end")
            self._end_arrivals[token.port] = token.value
            return
        if kind in (OpKind.MERGE, OpKind.LOOP_ENTRY, OpKind.LOOP_EXIT):
            # nonstrict: fire per token
            self._enabled.append((token.node, token.ctx, ((token.port, token.value),)))
            return
        if nin == 1:
            self._enabled.append((token.node, token.ctx, ((token.port, token.value),)))
            return
        clashed = self._frames.put(token.node, token.ctx, token.port, token.value)
        if clashed:
            self.metrics.clashes += 1
            if self.config.on_clash == "raise":
                raise TokenClashError(
                    node.id, token.port, token.ctx, node.describe()
                )
            self.clashes.append((node.id, token.port, repr(token.ctx)))
        inputs = self._frames.try_take(token.node, token.ctx, nin)
        if inputs is not None:
            self._enabled.append(
                (token.node, token.ctx, tuple(enumerate(inputs)))
            )

    # -- execution -------------------------------------------------------------

    def _fire(self, activity) -> None:
        nid, ctx, inputs = activity
        node = self.graph.node(nid)
        kind = node.kind
        lat = self._lat[nid]
        m = self.metrics
        m.operations += 1
        m.by_kind[kind.value] = m.by_kind.get(kind.value, 0) + 1
        m.profile[self._cycle] = m.profile.get(self._cycle, 0) + 1
        if kind in MEMORY_KINDS:
            m.memory_ops += 1
        elif kind is OpKind.SWITCH:
            m.switch_ops += 1
        elif kind is OpKind.MERGE:
            m.merge_ops += 1
        elif kind is OpKind.SYNCH:
            m.synch_ops += 1
        if self.config.trace:
            self.trace.append((self._cycle, nid, node.describe(), repr(ctx)))

        vals = dict(inputs)

        if kind is OpKind.CONST:
            self._emit(node, 0, node.value, ctx, lat)
        elif kind is OpKind.BINOP:
            self._emit(
                node, 0, apply_binop(node.op, _int(vals[0], node), _int(vals[1], node)), ctx, lat
            )
        elif kind is OpKind.UNOP:
            self._emit(node, 0, apply_unop(node.op, _int(vals[0], node)), ctx, lat)
        elif kind is OpKind.LOAD:
            self._emit(node, 0, self.memory.read(node.var), ctx, lat)
            self._emit(node, 1, ACCESS, ctx, lat)
        elif kind is OpKind.STORE:
            self.memory.write(node.var, _int(vals[0], node))
            self._emit(node, 0, ACCESS, ctx, lat)
        elif kind is OpKind.ALOAD:
            self._emit(node, 0, self.memory.aread(node.var, _int(vals[0], node)), ctx, lat)
            self._emit(node, 1, ACCESS, ctx, lat)
        elif kind is OpKind.ASTORE:
            self.memory.awrite(node.var, _int(vals[0], node), _int(vals[1], node))
            self._emit(node, 0, ACCESS, ctx, lat)
        elif kind is OpKind.ILOAD:
            ok, value = self.istructs.read(
                node.var, _int(vals[0], node), (nid, ctx)
            )
            if ok:
                self._emit(node, 0, value, ctx, lat)
            # else deferred: the matching ISTORE will emit for us
        elif kind is OpKind.ISTORE:
            waiters = self.istructs.write(
                node.var, _int(vals[0], node), _int(vals[1], node)
            )
            self._emit(node, 0, ACCESS, ctx, lat)
            value = _int(vals[1], node)
            for wnid, wctx in waiters:
                wnode = self.graph.node(wnid)
                self._emit(wnode, 0, value, wctx, lat)
        elif kind is OpKind.SWITCH:
            out = 0 if truthy(_int(vals[1], node)) else 1
            self._emit(node, out, vals[0], ctx, lat)
        elif kind is OpKind.MERGE:
            ((_, value),) = inputs
            self._emit(node, 0, value, ctx, lat)
        elif kind is OpKind.SYNCH:
            self._emit(node, 0, ACCESS, ctx, lat)
        elif kind is OpKind.LOOP_ENTRY:
            ((port, value),) = inputs
            n = node.nchannels
            if port < n:
                # external entry: allocate (or join) this loop activation
                key = (nid, ctx)
                base = self._activations.get(key)
                if base is None:
                    base = Context(ctx, self._next_activation, 0)
                    self._next_activation += 1
                    self._activations[key] = base
                self._emit(node, port, value, base, lat)
            else:
                # backedge: advance the iteration tag (throttled when the
                # machine runs k-bounded loops)
                k = self.config.loop_bound
                new_ctx = ctx.next_iteration()
                if k is None:
                    self._emit(node, port - n, value, new_ctx, lat)
                else:
                    self._throttle_backedge(
                        node, port - n, value, new_ctx, lat, k
                    )
        elif kind is OpKind.LOOP_EXIT:
            ((port, value),) = inputs
            if ctx.parent is None:
                raise MachineError(
                    f"LOOP_EXIT {nid} fired in root context"
                )
            self._emit(node, port, value, ctx.parent, lat)
        elif kind is OpKind.START:
            raise MachineError("START must not fire; it is seeded")
        else:
            raise MachineError(f"cannot execute kind {kind}")

    def _throttle_backedge(
        self, node: DFNode, out_port: int, value, new_ctx: Context, lat: int, k: int
    ) -> None:
        """k-bounded loops: a token for iteration t may start circulating
        only when t <= C + k - 1, where C is the number of fully completed
        laps (all channels arrived back at the loop entry).  k=1 is
        lockstep; larger k trades token-store occupancy for
        cross-iteration parallelism."""
        key = (node.id, new_ctx.activation)
        st = self._throttle.setdefault(
            key, {"arrivals": {}, "buffered": [], "completed": 0}
        )
        t = new_ctx.iteration
        st["arrivals"][t] = st["arrivals"].get(t, 0) + 1
        # advance the completed-lap prefix
        n = node.nchannels
        while st["arrivals"].get(st["completed"] + 1, 0) >= n:
            st["completed"] += 1
        limit = st["completed"] + k - 1
        if t <= limit:
            self._emit(node, out_port, value, new_ctx, lat)
        else:
            st["buffered"].append((t, out_port, value, new_ctx))
        if st["buffered"]:
            still = []
            for bt, bp, bv, bc in st["buffered"]:
                if bt <= limit:
                    self._emit(node, bp, bv, bc, lat)
                else:
                    still.append((bt, bp, bv, bc))
            st["buffered"] = still

    # -- main loop ----------------------------------------------------------

    def run(self) -> SimResult:
        t0 = time.perf_counter()
        start = self.graph.node(self.graph.start)
        for port, seed in enumerate(start.seeds):
            value = (
                ACCESS
                if seed.kind == "access"
                else self.memory.read(seed.label)
            )
            for arc in self.graph.consumers(start.id, port):
                self._schedule(Token(arc.dst, arc.dst_port, value, ROOT), 0)

        self._loop_step()

        self.metrics.cycles = self._cycle
        self._check_completion()

        end = self.graph.node(self.graph.end)
        end_values: dict[str, int] = {}
        for port, var in enumerate(end.returns):
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
            backend="step",
        )

    def _loop_step(self) -> None:
        """The general per-cycle scheduler: steps the clock a cycle at a
        time whenever work is backlogged, which is what finite-PE
        arbitration and k-bounded throttling need.  This is the seed
        implementation's loop, unchanged — it doubles as the reference
        the packed interpreter is differentially tested against."""
        cfg = self.config
        heap = self._heap
        enabled = self._enabled
        while True:
            if not enabled:
                if not heap:
                    # quiescent: deferred I-structure reads of elements no
                    # write can ever fill now read the default (0), matching
                    # zero-initialized updatable arrays
                    released = self.istructs.release_pending_with_default()
                    if not released:
                        break
                    for (wnid, wctx), value in released:
                        self._emit(
                            self.graph.node(wnid), 0, value, wctx,
                            self.config.memory_latency,
                        )
                    continue
                self._cycle = max(self._cycle, heap[0][0])
            if len(heap) > self.metrics.peak_tokens_in_flight:
                self.metrics.peak_tokens_in_flight = len(heap)
                self._sample_occupancy(
                    len(heap), len(self._frames.slots), len(enabled)
                )
            while heap and heap[0][0] <= self._cycle:
                _, _, token = heapq.heappop(heap)
                self._deliver(token)
            frames = len(self._frames.slots)
            if frames > self.metrics.peak_waiting_frames:
                self.metrics.peak_waiting_frames = frames
            if len(enabled) > self.metrics.peak_enabled:
                self.metrics.peak_enabled = len(enabled)
            if not enabled:
                continue
            if cfg.num_pes is None:
                batch = list(enabled)
                enabled.clear()
            elif self._pe_of:
                # locality model: each PE issues at most one operation per
                # cycle, from the activities mapped to it
                busy: set[int] = set()
                batch = []
                rest = []
                while enabled:
                    act = enabled.popleft()
                    pe = self._pe_of.get(act[0], 0)
                    if pe in busy:
                        rest.append(act)
                    else:
                        busy.add(pe)
                        batch.append(act)
                enabled.extend(rest)
            else:
                if self._rng is not None and len(enabled) > cfg.num_pes:
                    pool = list(enabled)
                    enabled.clear()
                    self._rng.shuffle(pool)
                    batch = pool[: cfg.num_pes]
                    enabled.extend(pool[cfg.num_pes :])
                else:
                    batch = [
                        enabled.popleft()
                        for _ in range(min(cfg.num_pes, len(enabled)))
                    ]
            for act in batch:
                self._fire(act)
            self._cycle += 1
            if self._cycle > cfg.max_cycles:
                raise SimulationLimitError(
                    f"exceeded {cfg.max_cycles} cycles"
                )
            if self.metrics.operations > cfg.max_ops:
                raise SimulationLimitError(f"exceeded {cfg.max_ops} operations")

    def _check_completion(self) -> None:
        end = self.graph.node(self.graph.end)
        missing = [
            p for p in range(len(end.returns)) if p not in self._end_arrivals
        ]
        pending_is = self.istructs.pending_reads()
        if not missing and not pending_is:
            return
        waiting = []
        for node, ctx, filled in self._frames.pending():
            waiting.append(
                f"node {node} ({self.graph.node(node).describe()}) ctx {ctx} "
                f"has ports {filled} filled"
            )
        for arr, idx in pending_is:
            waiting.append(f"I-structure read of never-written {arr}[{idx}]")
        raise DeadlockError(
            f"machine quiesced with END ports {missing} missing "
            f"({len(waiting)} stuck frames)",
            waiting,
        )


def _int(v, node: DFNode) -> int:
    if v is ACCESS or not isinstance(v, int):
        raise MachineError(
            f"operator {node.id} ({node.describe()}) received a non-value "
            f"token {v!r} on a value port"
        )
    return v


def simulate_graph(
    graph: DFGraph,
    memory: DataMemory | None = None,
    istructs: IStructureMemory | None = None,
    config: MachineConfig | None = None,
) -> SimResult:
    """Convenience one-shot runner over a bare graph: idealized configs
    lower it and run the packed loop, the rest run the per-cycle
    reference loop.  Either way the graph is validated first."""
    config = config or MachineConfig()
    if config.backend() == "packed":
        from .packed import PackedSimulator, pack_graph  # circular-safe

        return PackedSimulator(
            pack_graph(graph), memory, istructs, config
        ).run()
    return Simulator(graph, memory, istructs, config).run()
