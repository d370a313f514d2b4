"""Control-flow graph data structure."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from ..lang.ast_nodes import ArrayRef, Expr, Var, expr_vars


class CFGError(Exception):
    """Raised when a CFG violates the structural rules of Section 2.1."""


class NodeKind(enum.Enum):
    START = "start"
    END = "end"
    ASSIGN = "assign"
    FORK = "fork"
    JOIN = "join"
    LOOP_ENTRY = "loop_entry"
    LOOP_EXIT = "loop_exit"


class Edge(NamedTuple):
    """A CFG edge.  ``direction`` is the fork out-direction (True/False) for
    edges leaving a fork (or start), else None."""

    src: int
    dst: int
    direction: bool | None


@dataclass(slots=True)
class CFGNode:
    """One statement-level CFG node.

    Payload by kind:

    * ``ASSIGN``: ``target`` (Var or ArrayRef) and ``expr``.
    * ``FORK``: ``pred`` (the branch predicate expression).
    * ``JOIN``: ``label`` (source label, or a generated name).
    * ``LOOP_ENTRY``/``LOOP_EXIT``: ``loop_id``; ``carried_refs`` is filled in
      by interval analysis with the set of variables referenced anywhere in
      the loop body (these nodes must pass those access tokens through the
      loop's tag-management machinery, see Section 3/4).
    """

    id: int
    kind: NodeKind
    target: Var | ArrayRef | None = None
    expr: Expr | None = None
    pred: Expr | None = None
    label: str | None = None
    loop_id: int | None = None
    carried_refs: frozenset[str] = frozenset()
    # Loop-control nodes may instead name the exact *streams* they carry
    # (set by the optimized construction's carried-set closure); when None,
    # stream membership falls back to carried_refs.
    carried_streams: frozenset[str] | None = None
    # memoized refs(); anything that mutates target/expr/pred must call
    # invalidate_refs() (see cfg/optimize.py)
    _refs_cache: frozenset[str] | None = field(
        default=None, repr=False, compare=False
    )

    # -- variable reference sets -------------------------------------------

    def loads(self) -> frozenset[str]:
        """Variables this node reads (memory loads)."""
        if self.kind is NodeKind.ASSIGN:
            names = list(expr_vars(self.expr))
            if isinstance(self.target, ArrayRef):
                # the subscript is read; the array itself is read-modified
                # (storing one element of `a` is treated as a reference to
                # all of `a`, Section 6.3 first paragraph)
                names.extend(expr_vars(self.target.index))
            return frozenset(names)
        if self.kind is NodeKind.FORK:
            return frozenset(expr_vars(self.pred))
        return frozenset()

    def stores(self) -> frozenset[str]:
        """Variables this node writes (memory stores)."""
        if self.kind is NodeKind.ASSIGN:
            return frozenset({self.target.name})
        return frozenset()

    def refs(self) -> frozenset[str]:
        """All variables referenced by this node.

        For loop-control nodes this is ``carried_refs``: Section 4 treats a
        loop's entry/exit as referencing every variable used in the loop so
        that unused access tokens may bypass the loop entirely.
        """
        if self.kind in (NodeKind.LOOP_ENTRY, NodeKind.LOOP_EXIT):
            return self.carried_refs
        cached = self._refs_cache
        if cached is None:
            cached = self._refs_cache = self.loads() | self.stores()
        return cached

    def invalidate_refs(self) -> None:
        """Drop the memoized :meth:`refs` set after mutating this node's
        ``target``/``expr``/``pred`` in place."""
        self._refs_cache = None

    def describe(self) -> str:
        from ..lang.pretty import pretty_expr

        k = self.kind
        if k is NodeKind.ASSIGN:
            if isinstance(self.target, ArrayRef):
                tgt = f"{self.target.name}[{pretty_expr(self.target.index)}]"
            else:
                tgt = self.target.name
            return f"{tgt} := {pretty_expr(self.expr)}"
        if k is NodeKind.FORK:
            return f"if {pretty_expr(self.pred)}"
        if k is NodeKind.JOIN:
            return f"join {self.label or ''}".rstrip()
        if k in (NodeKind.LOOP_ENTRY, NodeKind.LOOP_EXIT):
            return f"{k.value} L{self.loop_id}"
        return k.value


@dataclass
class CFG:
    """Mutable control-flow graph with direction-labeled edges."""

    nodes: dict[int, CFGNode] = field(default_factory=dict)
    entry: int = -1
    exit: int = -1
    _succ: dict[int, list[Edge]] = field(default_factory=dict)
    _pred: dict[int, list[Edge]] = field(default_factory=dict)
    _next_id: int = 0

    # -- construction --------------------------------------------------------

    def add_node(self, kind: NodeKind, **payload) -> CFGNode:
        node = CFGNode(self._next_id, kind, **payload)
        self.nodes[node.id] = node
        self._succ[node.id] = []
        self._pred[node.id] = []
        self._next_id += 1
        if kind is NodeKind.START:
            if self.entry != -1:
                raise CFGError("multiple START nodes")
            self.entry = node.id
        elif kind is NodeKind.END:
            if self.exit != -1:
                raise CFGError("multiple END nodes")
            self.exit = node.id
        return node

    def add_edge(self, src: int, dst: int, direction: bool | None = None) -> Edge:
        edge = Edge(src, dst, direction)
        self._succ[src].append(edge)
        self._pred[dst].append(edge)
        return edge

    def remove_edge(self, edge: Edge) -> None:
        self._succ[edge.src].remove(edge)
        self._pred[edge.dst].remove(edge)

    def redirect_edge(self, edge: Edge, new_dst: int) -> Edge:
        """Replace ``edge`` with one of the same source/direction targeting
        ``new_dst``."""
        self.remove_edge(edge)
        return self.add_edge(edge.src, new_dst, edge.direction)

    def split_edge(self, edge: Edge, kind: NodeKind, **payload) -> CFGNode:
        """Insert a new node of ``kind`` on ``edge`` (src -> new -> dst)."""
        node = self.add_node(kind, **payload)
        self.remove_edge(edge)
        self.add_edge(edge.src, node.id, edge.direction)
        self.add_edge(node.id, edge.dst, None)
        return node

    def remove_node(self, nid: int) -> None:
        for e in list(self._succ[nid]):
            self.remove_edge(e)
        for e in list(self._pred[nid]):
            self.remove_edge(e)
        del self._succ[nid]
        del self._pred[nid]
        del self.nodes[nid]

    # -- queries --------------------------------------------------------------

    def node(self, nid: int) -> CFGNode:
        return self.nodes[nid]

    def out_edges(self, nid: int) -> list[Edge]:
        return list(self._succ[nid])

    def in_edges(self, nid: int) -> list[Edge]:
        return list(self._pred[nid])

    def succ_ids(self, nid: int) -> list[int]:
        return [e.dst for e in self._succ[nid]]

    def pred_ids(self, nid: int) -> list[int]:
        return [e.src for e in self._pred[nid]]

    def edges(self) -> Iterator[Edge]:
        for es in self._succ.values():
            yield from es

    def num_edges(self) -> int:
        return sum(len(es) for es in self._succ.values())

    def is_fork(self, nid: int) -> bool:
        """Forks *and* start (the paper's convention makes start a fork)."""
        return self.nodes[nid].kind in (NodeKind.FORK, NodeKind.START)

    def variables(self) -> list[str]:
        """All variables referenced by any node, deterministic order."""
        seen: dict[str, None] = {}
        for nid in sorted(self.nodes):
            for v in sorted(self.nodes[nid].refs()):
                seen.setdefault(v, None)
        return list(seen)

    # -- traversals -------------------------------------------------------------

    def reachable_from_entry(self) -> set[int]:
        seen = {self.entry}
        stack = [self.entry]
        while stack:
            n = stack.pop()
            for s in self.succ_ids(n):
                if s not in seen:
                    seen.add(s)
                    stack.append(s)
        return seen

    def reaches_exit(self) -> set[int]:
        seen = {self.exit}
        stack = [self.exit]
        while stack:
            n = stack.pop()
            for p in self.pred_ids(n):
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
        return seen

    def reverse_postorder(self) -> list[int]:
        """Reverse postorder from the entry (a topological order ignoring
        backedges)."""
        order: list[int] = []
        seen: set[int] = set()

        def dfs(root: int) -> None:
            stack: list[tuple[int, int]] = [(root, 0)]
            seen.add(root)
            while stack:
                nid, idx = stack[-1]
                succs = self.succ_ids(nid)
                if idx < len(succs):
                    stack[-1] = (nid, idx + 1)
                    s = succs[idx]
                    if s not in seen:
                        seen.add(s)
                        stack.append((s, 0))
                else:
                    order.append(nid)
                    stack.pop()

        dfs(self.entry)
        order.reverse()
        return order

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        """Check the structural rules of Section 2.1 (plus loop-control
        conventions).  Raises :class:`CFGError` on violation."""
        if self.entry == -1 or self.exit == -1:
            raise CFGError("missing START or END node")
        for nid, node in self.nodes.items():
            out = self._succ[nid]
            if node.kind in (NodeKind.FORK, NodeKind.START):
                dirs = sorted((e.direction for e in out), key=bool)
                if dirs != [False, True]:
                    raise CFGError(
                        f"fork node {nid} must have exactly True/False "
                        f"out-edges, has {dirs}"
                    )
            elif node.kind is NodeKind.END:
                if out:
                    raise CFGError("END node has outgoing edges")
            else:
                if len(out) != 1:
                    raise CFGError(
                        f"{node.kind.value} node {nid} must have exactly one "
                        f"successor, has {len(out)}"
                    )
                if out[0].direction is not None:
                    raise CFGError(f"non-fork node {nid} has a directed out-edge")
            if len(self._pred[nid]) > 1 and node.kind not in (
                NodeKind.JOIN,
                NodeKind.LOOP_ENTRY,
                NodeKind.END,  # end is the program's final merge point
            ):
                raise CFGError(
                    f"{node.kind.value} node {nid} has multiple predecessors "
                    "(only joins, loop entries, and end may merge control)"
                )
            if node.kind is NodeKind.START and self._pred[nid]:
                raise CFGError("START node has incoming edges")
        reachable = self.reachable_from_entry()
        if reachable != set(self.nodes):
            dead = sorted(set(self.nodes) - reachable)
            raise CFGError(f"unreachable nodes: {dead}")
        reaching = self.reaches_exit()
        if reaching != set(self.nodes):
            stuck = sorted(set(self.nodes) - reaching)
            raise CFGError(
                f"nodes with no path to end (nonterminating region): {stuck}"
            )

    # -- utilities -------------------------------------------------------------

    def copy(self) -> "CFG":
        new = CFG()
        new.nodes = {
            nid: CFGNode(
                n.id,
                n.kind,
                target=n.target,
                expr=n.expr,
                pred=n.pred,
                label=n.label,
                loop_id=n.loop_id,
                carried_refs=n.carried_refs,
                carried_streams=n.carried_streams,
            )
            for nid, n in self.nodes.items()
        }
        new.entry = self.entry
        new.exit = self.exit
        new._succ = {nid: list(es) for nid, es in self._succ.items()}
        new._pred = {nid: list(es) for nid, es in self._pred.items()}
        new._next_id = self._next_id
        return new
