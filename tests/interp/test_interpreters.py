"""Tests for the reference interpreters, including AST-vs-CFG agreement."""

import pytest

from repro.cfg import build_cfg, insert_loop_controls
from repro.interp import run_ast, run_cfg
from repro.interp.ast_interp import StepLimitExceeded
from repro.lang import parse
from repro.machine import MachineConfig, MemoryFault
from repro.translate import compile_program, simulate

PROGRAMS = [
    ("x := 1 + 2 * 3;", {}, {"x": 7}),
    ("x := 10 / 3; y := 10 % 3;", {}, {"x": 3, "y": 1}),
    ("x := 5 / 0; y := 5 % 0;", {}, {"x": 0, "y": 0}),  # total division
    ("x := -7 / 2;", {}, {"x": -4}),  # floor division
    ("x := 1 < 2; y := 2 < 1;", {}, {"x": 1, "y": 0}),
    ("x := 3 and 0; y := 3 or 0; z := not 3;", {}, {"x": 0, "y": 1, "z": 0}),
    ("y := x + 1;", {"x": 41}, {"x": 41, "y": 42}),
    ("if x < 5 then { y := 1; } else { y := 2; }", {"x": 3}, {"x": 3, "y": 1}),
    ("if x < 5 then { y := 1; } else { y := 2; }", {"x": 9}, {"x": 9, "y": 2}),
    (
        """
        x := 0;
        l: y := x + 1;
           x := x + 1;
           if x < 5 then goto l;
        """,
        {},
        {"x": 5, "y": 5},
    ),
    (
        "s := 0; i := 0; while i < 10 do { s := s + i; i := i + 1; }",
        {},
        {"s": 45, "i": 10},
    ),
    (
        "array a[4]; a[0] := 5; a[1] := a[0] + 1; q := a[1];",
        {},
        {"a": [5, 6, 0, 0], "q": 6},
    ),
    # unstructured: jump into a loop body region
    (
        """
        goto mid;
        top: x := x + 10;
        mid: x := x + 1;
        if x < 25 then goto top;
        """,
        {},
        {"x": 34},
    ),
]


@pytest.mark.parametrize("src,inputs,expected", PROGRAMS)
def test_ast_interpreter(src, inputs, expected):
    result = run_ast(parse(src), inputs)
    for k, v in expected.items():
        assert result[k] == v, k


@pytest.mark.parametrize("src,inputs,expected", PROGRAMS)
def test_cfg_interpreter_agrees(src, inputs, expected):
    prog = parse(src)
    cfg = build_cfg(prog)
    assert run_cfg(cfg, prog, inputs) == run_ast(prog, inputs)


@pytest.mark.parametrize("src,inputs,expected", PROGRAMS)
def test_cfg_interpreter_with_loop_controls_agrees(src, inputs, expected):
    prog = parse(src)
    g, _ = insert_loop_controls(build_cfg(prog))
    assert run_cfg(g, prog, inputs) == run_ast(prog, inputs)


def test_uninitialized_scalars_read_zero():
    assert run_ast(parse("y := x;"))["y"] == 0


def test_array_out_of_bounds_faults():
    with pytest.raises(MemoryFault):
        run_ast(parse("array a[4]; a[9] := 1;"))
    with pytest.raises(MemoryFault):
        run_ast(parse("array a[4]; x := a[0 - 1];"))


ARRAY_INPUT_SRC = "array a[2]; a[0] := 1; x := a[0];"


def test_array_named_input_faults_on_every_route():
    """An input naming an array is refused with one MemoryFault by both
    reference interpreters and both machine loops."""
    prog = parse(ARRAY_INPUT_SRC)
    cp = compile_program(ARRAY_INPUT_SRC)
    routes = {
        "ast": lambda: run_ast(prog, {"a": 5}),
        "cfg": lambda: run_cfg(build_cfg(prog), prog, {"a": 5}),
        "packed": lambda: simulate(cp, {"a": 5}),
        "step": lambda: simulate(
            cp, {"a": 5}, MachineConfig(sim_mode="step")
        ),
    }
    for route, run in routes.items():
        with pytest.raises(MemoryFault) as err:
            run()
        assert str(err.value) == "'a' is an array, not a scalar input", route
    assert simulate(cp, {"x": 5}).memory == run_ast(prog, {"x": 5})


def test_step_limit():
    src = "l: x := x + 1; if x > 0 then goto l else goto l;"
    with pytest.raises(StepLimitExceeded):
        run_ast(parse(src), max_steps=1000)


def test_inputs_do_not_leak_between_runs():
    prog = parse("x := x + 1;")
    assert run_ast(prog, {"x": 1})["x"] == 2
    assert run_ast(prog, {"x": 5})["x"] == 6
    assert run_ast(prog)["x"] == 1
