"""Dataflow operator kinds and port conventions."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, NamedTuple


class DFGError(Exception):
    """Raised on malformed dataflow graphs."""


class OpKind(enum.Enum):
    START = "start"
    END = "end"
    CONST = "const"
    BINOP = "binop"
    UNOP = "unop"
    LOAD = "load"
    STORE = "store"
    ALOAD = "aload"
    ASTORE = "astore"
    ILOAD = "iload"
    ISTORE = "istore"
    SWITCH = "switch"
    MERGE = "merge"
    SYNCH = "synch"
    LOOP_ENTRY = "loop_entry"
    LOOP_EXIT = "loop_exit"


# Port conventions, by kind (i = input port, o = output port):
#
#   CONST       i0 trigger                         o0 value
#   BINOP       i0 left, i1 right                  o0 result
#   UNOP        i0 operand                         o0 result
#   LOAD v      i0 access                          o0 value, o1 access
#   STORE v     i0 value, i1 access                o0 access
#   ALOAD a     i0 index, i1 access                o0 value, o1 access
#   ASTORE a    i0 index, i1 value, i2 access      o0 access
#   ILOAD a     i0 index                           o0 value
#   ISTORE a    i0 index, i1 value                 o0 done-signal
#   SWITCH      i0 data, i1 control (bool)         o0 true-out, o1 false-out
#   MERGE       i0..i(n-1)                         o0
#   SYNCH       i0..i(n-1)                         o0 (dummy)
#   LOOP_ENTRY  i0..i(n-1) initial entries,        o0..o(n-1) channels
#               i(n)..i(2n-1) backedges
#   LOOP_EXIT   i0..i(n-1) channels                o0..o(n-1) channels
#   START       (none)                             o0..o(n-1), seeded
#   END         i0..i(n-1), per `returns`          (none)


class Ports(NamedTuple):
    """One kind's row of :data:`PORTS`."""

    #: dense integer opcode: the kind's position in :class:`OpKind`
    opcode: int
    #: input and output port counts: an int, or a function of the node
    #: for the kinds whose arity is a payload field
    nin: int | Callable[[DFNode], int]
    nout: int | Callable[[DFNode], int]
    #: firing rule; a strict node with exactly one input port fires per
    #: token, so the machine matches it without a frame (DC_SINGLE)
    delivery: int
    #: touches the updatable store (split-phase)
    memory: bool


# firing rules (delivery classes), in the reference simulator's priority
# order
DC_END = 0  # END: record the arriving value
DC_NONSTRICT = 1  # fire per token
DC_SINGLE = 2  # one input port: fire per token, no frame
DC_STRICT = 3  # match all inputs at a frame slot


_nports = attrgetter("nports")
_channels = attrgetter("nchannels")

#: The port conventions above as one table: every reader of a kind's
#: arity, firing rule or memory flag (num_inputs/num_outputs, and through
#: them DFGraph.connect and validate; the machine's lowering) reads it.
PORTS: dict[OpKind, Ports] = {
    OpKind.START: Ports(0, 0, lambda n: len(n.seeds), DC_STRICT, False),
    OpKind.END: Ports(1, lambda n: len(n.returns), 0, DC_END, False),
    OpKind.CONST: Ports(2, 1, 1, DC_STRICT, False),
    OpKind.BINOP: Ports(3, 2, 1, DC_STRICT, False),
    OpKind.UNOP: Ports(4, 1, 1, DC_STRICT, False),
    OpKind.LOAD: Ports(5, 1, 2, DC_STRICT, True),
    OpKind.STORE: Ports(6, 2, 1, DC_STRICT, True),
    OpKind.ALOAD: Ports(7, 2, 2, DC_STRICT, True),
    OpKind.ASTORE: Ports(8, 3, 1, DC_STRICT, True),
    OpKind.ILOAD: Ports(9, 1, 1, DC_STRICT, True),
    OpKind.ISTORE: Ports(10, 2, 1, DC_STRICT, True),
    OpKind.SWITCH: Ports(11, 2, 2, DC_STRICT, False),
    OpKind.MERGE: Ports(12, _nports, 1, DC_NONSTRICT, False),
    OpKind.SYNCH: Ports(13, _nports, 1, DC_STRICT, False),
    OpKind.LOOP_ENTRY: Ports(
        14, lambda n: 2 * n.nchannels, _channels, DC_NONSTRICT, False
    ),
    OpKind.LOOP_EXIT: Ports(15, _channels, _channels, DC_NONSTRICT, False),
}


@dataclass(frozen=True, slots=True)
class Seed:
    """What the machine places on a START output port at time zero.

    * ``kind == "access"`` — a dummy access token (``label`` names the
      variable/cover element, for traces only).
    * ``kind == "value"`` — the initial value of variable ``label`` from the
      initial store (the memory-elimination schema carries values on
      tokens from the very start).
    """

    kind: str  # "access" | "value"
    label: str

    def __post_init__(self) -> None:
        if self.kind not in ("access", "value"):
            raise DFGError(f"bad seed kind {self.kind!r}")


@dataclass(slots=True)
class DFNode:
    """One dataflow operator.

    Payload fields by kind:

    * CONST: ``value``
    * BINOP/UNOP: ``op``
    * LOAD/STORE/ALOAD/ASTORE/ILOAD/ISTORE: ``var`` (the location name)
    * MERGE/SYNCH: ``nports``
    * LOOP_ENTRY/LOOP_EXIT: ``loop_id``, ``nchannels``, ``channel_labels``
    * START: ``seeds`` (list of :class:`Seed`, one per output port)
    * END: ``returns`` (one entry per input port: a variable name whose
      final value the arriving token carries, or None for dummy tokens)
    * ``latency``: extra cycles this operator takes beyond the kind default
      (0 normally; benches use it to model slow units)
    * ``tag``: free-form provenance note ("stmt 4 read block", etc.)
    """

    id: int
    kind: OpKind
    op: str | None = None
    value: int | None = None
    var: str | None = None
    nports: int = 0
    loop_id: int | None = None
    nchannels: int = 0
    channel_labels: tuple[str, ...] = ()
    seeds: tuple[Seed, ...] = ()
    returns: tuple[str | None, ...] = ()
    latency: int = 0
    tag: str = ""

    def describe(self) -> str:
        k = self.kind
        if k is OpKind.CONST:
            return f"const {self.value}"
        if k in (OpKind.BINOP, OpKind.UNOP):
            return f"{self.op}"
        if k in (
            OpKind.LOAD,
            OpKind.STORE,
            OpKind.ALOAD,
            OpKind.ASTORE,
            OpKind.ILOAD,
            OpKind.ISTORE,
        ):
            return f"{k.value} {self.var}"
        if k in (OpKind.MERGE, OpKind.SYNCH):
            return f"{k.value}{self.nports}"
        if k in (OpKind.LOOP_ENTRY, OpKind.LOOP_EXIT):
            return f"{k.value} L{self.loop_id}"
        return k.value


def num_inputs(node: DFNode) -> int:
    n = PORTS[node.kind].nin
    return n if type(n) is int else n(node)


def num_outputs(node: DFNode) -> int:
    n = PORTS[node.kind].nout
    return n if type(n) is int else n(node)


#: Kinds that touch the updatable store (split-phase).
MEMORY_KINDS = frozenset(k for k, row in PORTS.items() if row.memory)
