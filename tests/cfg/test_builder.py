"""Tests for AST -> CFG construction (paper Section 2.1, Figure 1)."""

import pytest

from repro.cfg import CFG, CFGError, NodeKind, build_cfg
from repro.lang import parse

RUNNING_EXAMPLE = """
x := 0;
l: y := x + 1;
   x := x + 1;
   if x < 5 then goto l;
"""


def kinds_count(cfg: CFG) -> dict:
    out: dict = {}
    for n in cfg.nodes.values():
        out[n.kind] = out.get(n.kind, 0) + 1
    return out


def node_of_kind(cfg, kind):
    return [n for n in cfg.nodes.values() if n.kind is kind]


def test_running_example_matches_figure_1():
    """Figure 1: start, join l, y:=x+1, x:=x+1, fork (x<5), end."""
    cfg = build_cfg(parse(RUNNING_EXAMPLE))
    counts = kinds_count(cfg)
    assert counts[NodeKind.START] == 1
    assert counts[NodeKind.END] == 1
    assert counts[NodeKind.ASSIGN] == 3
    assert counts[NodeKind.FORK] == 1  # the if; start is a fork by convention
    assert counts[NodeKind.START] == 1
    assert counts[NodeKind.JOIN] == 1


def test_running_example_join_has_two_predecessors():
    cfg = build_cfg(parse(RUNNING_EXAMPLE))
    (join,) = node_of_kind(cfg, NodeKind.JOIN)
    assert join.label == "l"
    assert len(cfg.pred_ids(join.id)) == 2


def test_start_is_a_fork_with_convention_edge_to_end():
    cfg = build_cfg(parse("x := 1;"))
    out = cfg.out_edges(cfg.entry)
    dirs = {e.direction: e.dst for e in out}
    assert set(dirs) == {True, False}
    assert dirs[False] == cfg.exit
    assert cfg.is_fork(cfg.entry)


def test_fork_out_directions():
    cfg = build_cfg(parse("l: if x < 5 then goto l;"))
    forks = [
        n for n in node_of_kind(cfg, NodeKind.FORK) if n.id != cfg.entry
    ]
    (fork,) = forks
    dirs = {e.direction for e in cfg.out_edges(fork.id)}
    assert dirs == {True, False}
    # True edge loops back to the join, False edge exits
    tdst = next(e.dst for e in cfg.out_edges(fork.id) if e.direction)
    assert cfg.node(tdst).kind is NodeKind.JOIN


def test_empty_program():
    cfg = build_cfg(parse(""))
    assert set(cfg.nodes) == {cfg.entry, cfg.exit}
    assert len(cfg.in_edges(cfg.exit)) == 2


def test_assign_node_loads_and_stores():
    cfg = build_cfg(parse("x := x + y;"))
    (a,) = node_of_kind(cfg, NodeKind.ASSIGN)
    assert a.loads() == {"x", "y"}
    assert a.stores() == {"x"}
    assert a.refs() == {"x", "y"}


def test_array_assign_references_array_and_subscript():
    cfg = build_cfg(parse("array a[4]; a[i] := x;"))
    (a,) = node_of_kind(cfg, NodeKind.ASSIGN)
    assert a.loads() == {"i", "x"}
    assert a.stores() == {"a"}


def test_fork_loads_predicate_variables():
    cfg = build_cfg(parse("l: if x + y < z then goto l;"))
    fork = next(
        n for n in node_of_kind(cfg, NodeKind.FORK) if n.id != cfg.entry
    )
    assert fork.loads() == {"x", "y", "z"}
    assert fork.stores() == set()


def test_structured_if_lowering():
    cfg = build_cfg(parse("if x == 0 then { y := 1; } else { y := 2; }"))
    counts = kinds_count(cfg)
    assert counts[NodeKind.ASSIGN] == 2
    assert counts[NodeKind.FORK] == 1
    # one merge point after the if
    assert counts.get(NodeKind.JOIN, 0) == 1


def test_structured_if_without_else():
    cfg = build_cfg(parse("if x == 0 then { y := 1; } y := 3;"))
    counts = kinds_count(cfg)
    assert counts[NodeKind.ASSIGN] == 2
    assert counts.get(NodeKind.JOIN, 0) == 1


def test_structured_while_lowering():
    cfg = build_cfg(parse("while i < 10 do { i := i + 1; }"))
    counts = kinds_count(cfg)
    assert counts[NodeKind.ASSIGN] == 1
    assert counts[NodeKind.FORK] == 1
    assert counts[NodeKind.JOIN] == 1  # loop head


def test_while_head_join_has_two_preds():
    cfg = build_cfg(parse("while i < 10 do { i := i + 1; }"))
    (join,) = node_of_kind(cfg, NodeKind.JOIN)
    assert len(cfg.pred_ids(join.id)) == 2


def test_dead_code_is_pruned():
    cfg = build_cfg(parse("goto l; x := 99; l: y := 1;"))
    assigns = node_of_kind(cfg, NodeKind.ASSIGN)
    assert len(assigns) == 1
    assert assigns[0].stores() == {"y"}


def test_dead_code_with_targeted_label_stays():
    src = "goto m; l: x := 1; m: if p < 1 then goto l;"
    cfg = build_cfg(parse(src))
    assigns = node_of_kind(cfg, NodeKind.ASSIGN)
    assert len(assigns) == 1  # x := 1 reachable via the fork


def test_nonterminating_program_rejected():
    with pytest.raises(CFGError):
        build_cfg(parse("l: x := 1; goto l;"))


def test_constant_true_while_is_structurally_fine():
    # the CFG only checks *structural* reachability of end; a constant-true
    # predicate still has a False out-edge
    build_cfg(parse("while 1 > 0 do { x := 1; }")).validate()


def test_single_pred_joins_spliced_by_default():
    cfg = build_cfg(parse("if x == 0 then { y := 1; } else { y := 2; }"))
    for j in node_of_kind(cfg, NodeKind.JOIN):
        assert len(cfg.pred_ids(j.id)) > 1


def test_single_pred_joins_kept_when_not_simplifying():
    cfg = build_cfg(
        parse("if x == 0 then { y := 1; } else { y := 2; }"), simplify=False
    )
    joins = node_of_kind(cfg, NodeKind.JOIN)
    assert any(len(cfg.pred_ids(j.id)) == 1 for j in joins)
    cfg.validate()


def test_multiway_merge_via_gotos():
    src = """
    if a < 1 then goto m;
    if b < 1 then goto m;
    c := 1;
    m: d := 2;
    """
    cfg = build_cfg(parse(src))
    (join,) = node_of_kind(cfg, NodeKind.JOIN)
    assert len(cfg.pred_ids(join.id)) == 3


def test_validate_rejects_hand_built_bad_fork():
    cfg = CFG()
    s = cfg.add_node(NodeKind.START)
    e = cfg.add_node(NodeKind.END)
    cfg.add_edge(s.id, e.id, True)  # missing False edge
    with pytest.raises(CFGError):
        cfg.validate()


def test_copy_is_independent():
    cfg = build_cfg(parse(RUNNING_EXAMPLE))
    cp = cfg.copy()
    nid = cp.add_node(NodeKind.JOIN, label="zz").id
    assert nid not in cfg.nodes
    assert cfg.num_edges() == cp.num_edges() - 0  # edges untouched


def test_variables_listing():
    cfg = build_cfg(parse(RUNNING_EXAMPLE))
    assert set(cfg.variables()) == {"x", "y"}


def test_reverse_postorder_starts_at_entry():
    cfg = build_cfg(parse(RUNNING_EXAMPLE))
    rpo = cfg.reverse_postorder()
    assert rpo[0] == cfg.entry
    assert set(rpo) == set(cfg.nodes)


def test_figure_9_program_shape():
    """Figure 9(a): x unused inside the conditional."""
    src = """
    x := x + 1;
    if w == 0 then { y := 1; } else { y := 2; }
    x := 0;
    """
    cfg = build_cfg(parse(src))
    counts = kinds_count(cfg)
    assert counts[NodeKind.ASSIGN] == 4
    assert counts[NodeKind.FORK] == 1
    assert counts[NodeKind.JOIN] == 1
