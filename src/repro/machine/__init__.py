"""Explicit-token-store dataflow machine simulator (the paper's execution
model, Section 2.2 — "a conventional explicit token store dataflow machine"
like Monsoon).

Key modeling decisions, all taken from the paper:

* **Tagged contexts.**  Each trip around a loop gets a fresh iteration
  context (the paper: "each invocation of a procedure and each loop
  iteration gets an activation context").  Tokens match at a fixed frame
  slot keyed by (operator, context) — two tokens with the same tag arriving
  at an occupied slot is a *token clash*, the failure mode Section 3 uses to
  motivate loop control.
* **Updatable memory.**  Unlike I-structure-only dataflow models, locations
  can be written many times; correct ordering is the program graph's job
  (the access tokens).  Loads/stores are split-phase: the operation issues
  at fire time and its output tokens appear ``memory_latency`` cycles later.
* **I-structures** (Section 6.3): write-once element memory with deferred
  reads, for the write-once array optimization.
* **Idealized or finite parallelism.**  ``num_pes=None`` fires every enabled
  operator each cycle (giving the critical path / parallelism profile);
  a finite count models a machine of that width.
"""

from .context import ACCESS, ROOT, Context, Token
from .config import MachineConfig
from .errors import (
    DeadlockError,
    IStructureError,
    MachineError,
    MemoryFault,
    SimulationLimitError,
    TokenClashError,
)
from .memory import DataMemory, MemorySpec
from .istructure import IStructureMemory
from .metrics import Metrics
from .simulator import SimResult, Simulator, simulate_graph
from .packed import PackedGraph, PackedProgram, PackedSimulator, pack_graph

__all__ = [
    "ACCESS",
    "Context",
    "DataMemory",
    "DeadlockError",
    "IStructureError",
    "IStructureMemory",
    "MachineConfig",
    "MachineError",
    "MemoryFault",
    "MemorySpec",
    "Metrics",
    "PackedGraph",
    "PackedProgram",
    "PackedSimulator",
    "ROOT",
    "SimResult",
    "SimulationLimitError",
    "Simulator",
    "Token",
    "TokenClashError",
    "pack_graph",
    "simulate_graph",
]
