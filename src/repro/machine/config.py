"""Machine configuration."""

from __future__ import annotations

from dataclasses import dataclass

#: accepted ``sim_mode`` values
SIM_MODES = ("auto", "step", "packed")


@dataclass(frozen=True)
class MachineConfig:
    """Knobs for one simulation run.

    * ``num_pes`` — processing elements.  ``None`` = idealized machine: every
      enabled operator fires each cycle, so total cycles = the dataflow
      critical path.  A finite value models a machine of that width.
    * ``alu_latency`` / ``memory_latency`` — cycles from firing to output
      delivery for ordinary operators / split-phase memory operations.
      A node's own ``latency`` field adds on top.
    * ``on_clash`` — ``"raise"`` aborts on a same-tag token clash (a correct
      ETS machine rejects such graphs); ``"record"`` queues the extra token
      and keeps going, collecting clash reports (used to *demonstrate* the
      Section 3 problem without crashing the run).
    * ``seed`` — shuffles the firing order of enabled operators under a
      finite PE count; results of a *valid* graph must not depend on it
      (the determinism property tests exercise this).
    """

    num_pes: int | None = None
    alu_latency: int = 1
    memory_latency: int = 2
    on_clash: str = "raise"
    max_cycles: int = 1_000_000
    max_ops: int = 50_000_000
    seed: int | None = None
    trace: bool = False
    #: k-bounded loops (Monsoon-style throttling): at most k iterations of
    #: any loop activation may be in flight at once.  ``None`` = unbounded.
    #: ``1`` makes loop entries behave like the strict reading of Section 3
    #: ("takes the complete set of access tokens as input"): lockstep
    #: iterations.  Bounds resource usage at the cost of cross-iteration
    #: parallelism — see the ablation bench.
    loop_bound: int | None = None
    #: Multi-PE locality model: with a finite ``num_pes``, instructions are
    #: statically partitioned across PEs and a token crossing PE boundaries
    #: pays ``network_latency`` extra cycles (the interconnection-network
    #: hop the paper's abstract machine hides).  0 = uniform machine.
    network_latency: int = 0
    #: How instructions map to PEs: "round_robin" (node id modulo PE count,
    #: interleaved — poor locality), "block" (contiguous node-id ranges —
    #: good locality for graphs built in program order), or "random"
    #: (seeded by ``seed``).
    partition: str = "round_robin"
    #: Scheduler loop selection.  ``"auto"`` runs the flat-array packed
    #: interpreter whenever it is exact — unlimited PEs and no k-bounded
    #: throttling — and the general per-cycle scheduler otherwise.
    #: ``"step"`` forces the per-cycle scheduler (the differential-testing
    #: reference); ``"packed"`` demands the packed interpreter over the
    #: lowered :class:`~repro.machine.packed.PackedGraph` and is rejected
    #: when a finite ``num_pes`` or a ``loop_bound`` makes arbitration
    #: stateful.
    sim_mode: str = "auto"

    def __post_init__(self) -> None:
        if self.on_clash not in ("raise", "record"):
            raise ValueError(f"bad on_clash {self.on_clash!r}")
        if self.num_pes is not None and self.num_pes < 1:
            raise ValueError("num_pes must be >= 1 or None")
        if self.alu_latency < 1 or self.memory_latency < 1:
            raise ValueError("latencies must be >= 1")
        if self.loop_bound is not None and self.loop_bound < 1:
            raise ValueError("loop_bound must be >= 1 or None")
        if self.network_latency < 0:
            raise ValueError("network_latency must be >= 0")
        if self.partition not in ("round_robin", "block", "random"):
            raise ValueError(f"bad partition {self.partition!r}")
        if self.network_latency and self.num_pes is None:
            raise ValueError(
                "network_latency needs a finite num_pes (tokens must have "
                "PEs to travel between)"
            )
        if self.sim_mode not in SIM_MODES:
            raise ValueError(
                f"bad sim_mode {self.sim_mode!r}; pick from "
                + ", ".join(SIM_MODES)
            )
        if self.sim_mode == "packed" and (
            self.num_pes is not None or self.loop_bound is not None
        ):
            raise ValueError(
                "sim_mode='packed' requires num_pes=None and "
                "loop_bound=None (PE arbitration and k-bounding need "
                "per-cycle stepping)"
            )

    def backend(self) -> str:
        """Resolve ``sim_mode`` to the loop that will actually run:
        ``"packed"`` or ``"step"``.  ``auto`` picks ``packed`` on the
        idealized machine with no k-bounding."""
        if self.sim_mode != "auto":
            return self.sim_mode
        if self.num_pes is None and self.loop_bound is None:
            return "packed"
        return "step"
