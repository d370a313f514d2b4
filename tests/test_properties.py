"""Hypothesis property tests over randomly generated programs and CFGs.

The central properties:

* every translation schema executes every generated program to the same
  final memory as the sequential reference interpreter;
* execution is confluent: scheduling order and machine width never change
  results;
* Theorem 1 holds on random graphs;
* analysis invariants (dominance, intervals, covers) hold on random inputs.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import (
    AliasStructure,
    Cover,
    between_brute_force,
    cd_plus,
)
from repro.analysis.dominance import dominator_tree, postdominator_tree
from repro.bench.generators import random_program, random_structured_program
from repro.cfg import NodeKind, build_cfg, decompose, find_loops
from repro.engine import GraphCache
from repro.interp import run_ast, run_cfg
from repro.lang import parse, pretty
from repro.machine import MachineConfig
from repro.translate import CompileOptions, SCHEMAS, compile_program, simulate

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
MED = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

seeds = st.integers(min_value=0, max_value=10**6)


def gen(seed: int, unstructured: bool, arrays: bool):
    if unstructured:
        return random_program(seed, arrays=arrays)
    return random_structured_program(seed, arrays=arrays)


# joint randomization of the compile-option and machine-config spaces:
# the equivalence property must hold at every point of the cross product,
# not just at the defaults


compile_options = st.builds(
    CompileOptions,
    schema=st.sampled_from(SCHEMAS),
    cover=st.sampled_from(("singletons", "whole", "alias_classes")),
    optimize=st.booleans(),
    parallel_reads=st.booleans(),
    forward_stores=st.booleans(),
    parallelize_arrays=st.booleans(),
    use_istructures=st.booleans(),
)


@st.composite
def machine_configs(draw):
    """A random valid MachineConfig: PE count, latencies, k-bound,
    locality model, and scheduler mode drawn jointly (respecting the
    config's own validity rules: network latency needs finite PEs, the
    forced packed interpreter excludes arbitration state)."""
    num_pes = draw(st.one_of(st.none(), st.integers(1, 4)))
    loop_bound = draw(st.one_of(st.none(), st.integers(1, 3)))
    modes = ["auto", "step"]
    if num_pes is None and loop_bound is None:
        modes.append("packed")
    return MachineConfig(
        num_pes=num_pes,
        alu_latency=draw(st.integers(1, 3)),
        memory_latency=draw(st.integers(1, 6)),
        loop_bound=loop_bound,
        seed=draw(st.one_of(st.none(), st.integers(0, 10**6))),
        network_latency=draw(st.integers(0, 4)) if num_pes is not None else 0,
        partition=draw(st.sampled_from(("round_robin", "block", "random"))),
        sim_mode=draw(st.sampled_from(modes)),
    )


# ---------------------------------------------------------------------------
# front end
# ---------------------------------------------------------------------------


@MED
@given(seeds, st.booleans(), st.booleans())
def test_pretty_print_round_trip(seed, unstructured, arrays):
    prog = gen(seed, unstructured, arrays)
    reparsed = parse(pretty(prog))
    assert run_ast(prog) == run_ast(reparsed)


@MED
@given(seeds, st.booleans(), st.booleans())
def test_cfg_interpreter_agrees_with_ast(seed, unstructured, arrays):
    prog = gen(seed, unstructured, arrays)
    cfg = build_cfg(prog)
    assert run_cfg(cfg, prog) == run_ast(prog)


# ---------------------------------------------------------------------------
# analyses
# ---------------------------------------------------------------------------


@MED
@given(seeds, st.booleans())
def test_dominance_invariants(seed, unstructured):
    prog = gen(seed, unstructured, False)
    cfg = build_cfg(prog)
    dom = dominator_tree(cfg)
    pdom = postdominator_tree(cfg)
    for n in cfg.nodes:
        if n != cfg.entry:
            assert dom.dominates(dom.idom[n], n)
            assert dom.idom[n] != n
        if n != cfg.exit:
            assert pdom.dominates(pdom.idom[n], n)
    # entry dominates everything; exit postdominates everything
    for n in cfg.nodes:
        assert dom.dominates(cfg.entry, n)
        assert pdom.dominates(cfg.exit, n)


@SLOW
@given(seeds, st.booleans())
def test_theorem_1_on_random_graphs(seed, unstructured):
    prog = gen(seed, unstructured, False)
    cfg = build_cfg(prog)
    pdom = postdominator_tree(cfg)
    plus = cd_plus(cfg)
    nodes = sorted(cfg.nodes)
    for f in nodes:
        for n in nodes:
            assert (f in plus[n]) == between_brute_force(cfg, f, n, pdom)


@MED
@given(seeds, st.booleans())
def test_interval_decomposition_invariants(seed, unstructured):
    prog = gen(seed, unstructured, False)
    cfg = build_cfg(prog)
    g, loops = decompose(cfg)
    g.validate()
    for lp in loops:
        # after insertion, the header's only predecessor is the loop entry
        assert g.pred_ids(lp.header) == [lp.entry_node]
        # loop entry collects at least one external entry and one backedge
        assert len(g.pred_ids(lp.entry_node)) >= 2
        # exit nodes sit on edges leaving the cyclic region
        for lx in lp.exit_nodes:
            (succ,) = g.succ_ids(lx)
            assert succ not in lp.body
        # nesting: child's body (plus its controls) is inside the parent's
        if lp.parent is not None:
            parent = loops[lp.parent]
            assert lp.body <= parent.body
            assert lp.entry_node in parent.body


@MED
@given(seeds, st.booleans())
def test_loop_refs_cover_body_refs(seed, unstructured):
    prog = gen(seed, unstructured, False)
    cfg = build_cfg(prog)
    try:
        loops = find_loops(cfg)
    except Exception:
        from repro.cfg import split_irreducible
        cfg = split_irreducible(cfg)
        loops = find_loops(cfg)
    for lp in loops:
        union = set()
        for n in lp.body:
            union |= cfg.node(n).refs()
        assert lp.refs == union


@given(
    st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=7, unique=True),
    st.lists(
        st.tuples(st.sampled_from("abcdefg"), st.sampled_from("abcdefg")),
        max_size=10,
    ),
)
def test_cover_invariants(variables, raw_pairs):
    pairs = frozenset(
        p
        for a, b in raw_pairs
        if a in variables and b in variables and a != b
        for p in [(a, b), (b, a)]
    )
    alias = AliasStructure(tuple(variables), pairs)
    alias.validate()
    for cover in (
        Cover.singletons(alias),
        Cover.whole(alias),
        Cover.alias_classes(alias),
    ):
        covered = set()
        for el in cover.elements:
            covered |= el
        assert covered == set(variables)
        for x in variables:
            acc = cover.access_set(x)
            assert acc, "every variable's access set is nonempty"
            # the access set covers the alias class
            union = set()
            for el in acc:
                union |= el
            assert set(alias.alias_class(x)) <= union | set(
                alias.alias_class(x)
            )
            assert 1 <= cover.synch_cost(x) <= len(cover.elements)


# ---------------------------------------------------------------------------
# translation schemas: the central equivalence property
# ---------------------------------------------------------------------------


@SLOW
@given(seeds, st.booleans(), st.booleans())
def test_all_schemas_match_reference(seed, unstructured, arrays):
    prog = gen(seed, unstructured, arrays)
    ref = run_ast(prog)
    for schema in (
        "schema1",
        "schema2",
        "schema2_opt",
        "schema3",
        "schema3_opt",
        "memory_elim",
    ):
        cp = compile_program(prog, schema=schema)
        res = simulate(cp)
        assert res.memory == ref, schema


@SLOW
@given(seeds)
def test_subroutine_programs_match_reference(seed):
    """Random programs with by-reference subroutines (sometimes-repeated
    actuals induce aliasing) agree with the reference under every
    aliasing-capable schema."""
    prog = random_structured_program(seed, subroutines=True)
    ref = run_ast(prog)
    for schema in ("schema1", "schema3", "schema3_opt", "memory_elim"):
        res = simulate(compile_program(prog, schema=schema))
        assert res.memory == ref, schema


@SLOW
@given(seeds, st.booleans())
def test_transforms_match_reference(seed, unstructured):
    prog = gen(seed, unstructured, True)
    ref = run_ast(prog)
    cp = compile_program(
        prog,
        schema="memory_elim",
        parallel_reads=True,
        forward_stores=True,
        parallelize_arrays=True,
        use_istructures=True,
    )
    assert simulate(cp).memory == ref


@SLOW
@given(seeds, st.integers(min_value=1, max_value=4), seeds)
def test_confluence_under_scheduling(seed, pes, sched_seed):
    prog = gen(seed, False, False)
    ref = run_ast(prog)
    cp = compile_program(prog, schema="schema2_opt")
    res = simulate(
        cp, None, MachineConfig(num_pes=pes, seed=sched_seed)
    )
    assert res.memory == ref


@SLOW
@given(seeds, st.integers(min_value=1, max_value=30))
def test_latency_insensitivity(seed, lat):
    prog = gen(seed, True, False)
    ref = run_ast(prog)
    cp = compile_program(prog, schema="schema2")
    res = simulate(cp, None, MachineConfig(memory_latency=lat))
    assert res.memory == ref


@SLOW
@given(seeds, st.booleans())
def test_conventional_optimizations_preserve_semantics(seed, unstructured):
    prog = gen(seed, unstructured, True)
    ref = run_ast(prog)
    cp = compile_program(prog, schema="memory_elim", optimize=True)
    assert simulate(cp).memory == ref


@SLOW
@given(seeds, st.integers(min_value=1, max_value=3))
def test_loop_bound_preserves_semantics(seed, k):
    prog = gen(seed, True, False)
    ref = run_ast(prog)
    cp = compile_program(prog, schema="schema2_opt")
    res = simulate(cp, None, MachineConfig(loop_bound=k))
    assert res.memory == ref


@SLOW
@given(
    seeds,
    st.integers(min_value=1, max_value=4),
    st.sampled_from(["round_robin", "block", "random"]),
    st.integers(min_value=0, max_value=6),
)
def test_locality_model_preserves_semantics(seed, pes, partition, net):
    prog = gen(seed, False, False)
    ref = run_ast(prog)
    cp = compile_program(prog, schema="memory_elim")
    res = simulate(
        cp,
        None,
        MachineConfig(
            num_pes=pes,
            network_latency=net,
            partition=partition,
            seed=seed,
        ),
    )
    assert res.memory == ref


@SLOW
@given(seeds, st.booleans())
def test_optimize_composes_with_transforms(seed, unstructured):
    prog = gen(seed, unstructured, True)
    ref = run_ast(prog)
    cp = compile_program(
        prog,
        schema="memory_elim",
        optimize=True,
        parallel_reads=True,
        forward_stores=True,
        parallelize_arrays=True,
        use_istructures=True,
    )
    assert simulate(cp).memory == ref


@SLOW
@given(seeds, st.booleans(), compile_options, machine_configs())
def test_equivalence_across_joint_config_space(seed, unstructured, opts, config):
    """The central equivalence holds at random points of the
    CompileOptions × MachineConfig cross product, not just at the
    defaults: any schema + any transform stack + any machine shape
    (PE count, latencies, k-bound, locality, scheduler mode) reproduces
    the reference interpreter."""
    prog = gen(seed, unstructured, True)
    ref = run_ast(prog)
    cp = compile_program(prog, options=opts)
    res = simulate(cp, None, config)
    assert res.memory == ref, (opts, config)


@pytest.mark.slow
@SLOW
@given(seeds, compile_options, machine_configs())
def test_engine_cache_equivalence_across_joint_config_space(seed, opts, config):
    """Differential fuzzing of the engine layer: a cache-served graph
    simulated under a random machine config matches both the reference
    interpreter and a fresh compile's per-cycle run."""
    prog = gen(seed, False, False)
    source = pretty(prog)
    ref = run_ast(prog)
    cache = GraphCache()
    cp = cache.get_or_compile(source, opts)
    cp2, hit = cache.lookup(source, opts)
    assert hit and cp2 is cp
    res = simulate(cp, None, config)
    assert res.memory == ref, (opts, config)
    # step-mode twin of the same machine on a fresh compile: the cache and
    # the packed interpreter must not change work, makespan, or final memory
    import dataclasses

    step = simulate(
        compile_program(source, options=opts),
        None,
        dataclasses.replace(config, sim_mode="step"),
    )
    assert res.memory == step.memory
    assert res.metrics.operations == step.metrics.operations
    assert res.metrics.cycles == step.metrics.cycles


@SLOW
@given(seeds)
def test_no_clashes_on_valid_graphs(seed):
    """Loop-controlled graphs are valid ETS computations: no same-tag
    clashes ever (on_clash='raise' would abort the run)."""
    prog = gen(seed, True, False)
    cp = compile_program(prog, schema="schema2_opt")
    res = simulate(cp)
    assert res.metrics.clashes == 0
