"""Wide-graph and degenerate-shape checks of the packed interpreter.

This module began as the test suite of the graph-as-matrices
``vectorized`` backend.  That backend is gone — ``auto`` runs the packed
interpreter — but the checks that do not depend on its internals still
apply to what replaced it: the per-run dispatch rows must replay the
lowered arc rows exactly, degenerate graph shapes and wide fan-out rows
must agree across every ``sim_mode``, the machine must run without
numpy, and the retired mode name must be refused.  Full behavioral
equivalence lives in ``tests/engine/test_packed_differential.py``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.harness import schemas_for
from repro.bench.programs import CORPUS
from repro.machine import MachineConfig, PackedSimulator, pack_graph
from repro.machine.config import SIM_MODES
from repro.machine.packed import OP_BINOP, OP_UNOP
from repro.semantics import BINOP_FUNCS, UNOP_FUNCS
from repro.translate import compile_program, simulate

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

#: wide enough that the retired backend took its bulk path on this row
FAN_OUT = 24


def _fan_out_src(n: int = FAN_OUT) -> str:
    """``x`` and ``y`` each feed ``n`` two-input adds: two wide rows, each
    ending in the trailing END arc."""
    return "x := 7;\ny := 5;\n" + "\n".join(
        f"v{i} := x + y;" for i in range(n)
    )


# -- dispatch rows replay the lowering ----------------------------------------


def _plan_cases():
    for wl in CORPUS:
        for schema in schemas_for(wl):
            yield pytest.param(wl, schema, id=f"{wl.name}-{schema}")


@pytest.mark.parametrize("wl,schema", _plan_cases())
def test_plans_replay_csr_rows_exactly(wl, schema):
    """Every dispatch record a run builds must carry its node's lowered
    fan-out rows themselves (shared, not re-derived per run), and each
    row must cover the graph's arcs for that port, arc for arc, in arc
    order, onto real input ports."""
    cp = compile_program(wl.source, schema=schema)
    g = cp.graph
    pg = pack_graph(g)
    cfg = MachineConfig(alu_latency=2, memory_latency=5)
    mem, ist = cp.memory_spec.image({})
    sim = PackedSimulator(pg, mem, ist, cfg)

    index_of = {nid: i for i, nid in enumerate(pg.node_ids)}
    assert len(sim._rt) == pg.n
    for i, nid in enumerate(pg.node_ids):
        opcode, lat, outs, payload = sim._rt[i]
        assert opcode == pg.opcodes[i]
        base = cfg.memory_latency if pg.is_mem[i] else cfg.alu_latency
        assert lat == base + pg.extra_lat[i]
        if opcode == OP_BINOP:
            assert payload is BINOP_FUNCS[pg.aux[i]]
        elif opcode == OP_UNOP:
            assert payload is UNOP_FUNCS[pg.aux[i]]
        else:
            assert payload == pg.aux[i]

        assert outs is pg.outs[i]
        assert len(outs) == pg.nout[i]
        for p, row in enumerate(outs):
            want = [(index_of[a.dst], a.dst_port) for a in g.consumers(nid, p)]
            assert list(row) == want, (nid, p)
            for d, dp in row:
                assert 0 <= d < pg.n and 0 <= dp < pg.nin[d]


# -- degenerate graph shapes through every sim_mode ---------------------------


def _run_all_modes(src, inputs=None, schema=None):
    kwargs = {"schema": schema} if schema else {}
    cp = compile_program(src, **kwargs)
    return {
        mode: simulate(cp, dict(inputs or {}), MachineConfig(sim_mode=mode))
        for mode in SIM_MODES
    }


def _assert_agree(results):
    ref = results["step"]
    for mode, res in results.items():
        assert res.backend == MachineConfig(sim_mode=mode).backend()
        assert res.memory == ref.memory, mode
        assert res.end_values == ref.end_values, mode
        assert res.metrics.cycles == ref.metrics.cycles, mode
        assert res.metrics.operations == ref.metrics.operations, mode
        assert res.metrics.by_kind == ref.metrics.by_kind, mode
    assert results["auto"].backend == "packed"


def test_empty_program_zero_arc_graph():
    """The empty program lowers to a two-node, zero-arc graph (START and
    END with no returns): every mode must terminate immediately with
    empty observables rather than deadlock."""
    cp = compile_program("")
    assert len(cp.graph.nodes) == 2 and cp.graph.num_arcs() == 0
    results = _run_all_modes("")
    _assert_agree(results)
    got = results["packed"]
    assert got.memory == {} and got.end_values == {}
    assert got.metrics.cycles == 0 and got.metrics.operations == 0


def test_single_statement_program():
    results = _run_all_modes("x := 1;")
    _assert_agree(results)
    assert results["packed"].memory == {"x": 1}


def test_unconsumed_seed_ports():
    """A variable that is written and never read seeds a START port with
    no consumers (an empty row): the token must be dropped, not leaked
    into the in-flight count (which would stall quiescence)."""
    results = _run_all_modes("x := 1;\ny := 2;\n", schema="schema1")
    _assert_agree(results)
    assert results["packed"].memory["y"] == 2


def test_max_fan_out_node_all_backends():
    """One value consumed by many two-input nodes (a wide fan-out row)
    behaves identically in every mode."""
    for schema in ("schema1", "memory_elim"):
        results = _run_all_modes(_fan_out_src(), schema=schema)
        _assert_agree(results)
        assert all(
            results["packed"].memory[f"v{i}"] == 12 for i in range(FAN_OUT)
        )


NO_NUMPY_SCRIPT = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from repro.machine import MachineConfig
from repro.translate import compile_program, simulate

cp = compile_program(sys.argv[1], schema="memory_elim")
step = simulate(cp, {}, MachineConfig(sim_mode="step"))
auto = simulate(cp, {}, MachineConfig())
assert auto.backend == "packed", auto.backend
assert auto.memory == step.memory
assert auto.metrics == step.metrics
print("ok", auto.metrics.cycles)
"""


def test_max_fan_out_without_numpy():
    """The machine needs no numpy: a fresh interpreter that cannot import
    it compiles and runs the wide fan-out program, and ``auto`` agrees
    with the step reference."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_SCRIPT, _fan_out_src()],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.startswith("ok ")


# -- config wiring -----------------------------------------------------------


def test_vectorized_rejects_stateful_configs():
    """The retired mode name is refused with or without the stateful
    knobs, and the message names the modes that remain."""
    for extra in ({}, {"num_pes": 2}, {"loop_bound": 1}):
        with pytest.raises(ValueError, match="auto, step, packed"):
            MachineConfig(sim_mode="vectorized", **extra)
