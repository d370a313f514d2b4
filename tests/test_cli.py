"""Tests for the command-line front end."""

import pytest

from repro.__main__ import main

SRC = """
x := 0;
l: y := x + 1;
   x := x + 1;
   if x < 5 then goto l;
"""


@pytest.fixture
def srcfile(tmp_path):
    p = tmp_path / "prog.df"
    p.write_text(SRC)
    return str(p)


def test_run_prints_final_memory(srcfile, capsys):
    assert main(["run", srcfile]) == 0
    out = capsys.readouterr().out
    assert "x = 5" in out and "y = 5" in out


def test_run_with_inputs(tmp_path, capsys):
    p = tmp_path / "p.df"
    p.write_text("y := x * 2;")
    main(["run", str(p), "--input", "x=21"])
    assert "y = 42" in capsys.readouterr().out


def test_run_schema_choice(srcfile, capsys):
    main(["run", srcfile, "--schema", "memory_elim"])
    assert "x = 5" in capsys.readouterr().out


def test_run_machine_options(srcfile, capsys):
    main(["run", srcfile, "--pes", "2", "--mem-latency", "7", "--seed", "3"])
    assert "x = 5" in capsys.readouterr().out


def test_bad_input_format(srcfile):
    with pytest.raises(SystemExit):
        main(["run", srcfile, "--input", "x=abc"])


def test_stats(srcfile, capsys):
    assert main(["stats", srcfile]) == 0
    out = capsys.readouterr().out
    assert "nodes" in out and "switch" in out
    assert "loops: 1" in out


def test_dot_dfg(srcfile, capsys):
    main(["dot", srcfile])
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert "style=dotted" in out


def test_dot_cfg(srcfile, capsys):
    main(["dot", srcfile, "--stage", "cfg"])
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert "join" in out


def test_trace(srcfile, capsys):
    main(["trace", srcfile])
    out = capsys.readouterr().out
    assert "store x" in out or "loop_entry" in out


def test_schemas_listing(capsys):
    main(["schemas"])
    out = capsys.readouterr().out
    assert "schema2_opt" in out and "memory_elim" in out


def test_stdin(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("z := 7;"))
    main(["run", "-"])
    assert "z = 7" in capsys.readouterr().out


def test_transforms_flags(tmp_path, capsys):
    p = tmp_path / "arr.df"
    p.write_text(
        """
        array a[16];
        i := 0;
        s: i := i + 1;
           a[i] := i;
           if i < 10 then goto s;
        """
    )
    main(
        [
            "run",
            str(p),
            "--schema",
            "memory_elim",
            "--parallelize-arrays",
            "--istructures",
        ]
    )
    out = capsys.readouterr().out
    assert "i = 10" in out


def test_bench_sweep_table(capsys, tmp_path):
    assert (
        main(
            [
                "bench",
                "--programs",
                "gcd,fib",
                "--schemas",
                "schema1,memory_elim",
                "--jobs",
                "2",
                "--cache-dir",
                str(tmp_path),
                "--repeat",
                "2",
                "--verify",
            ]
        )
        == 0
    )
    captured = capsys.readouterr()
    out = captured.out
    assert "gcd" in out and "fib" in out
    assert "schema1" in out and "memory_elim" in out
    # the second sweep reuses every graph from the shared disk cache
    assert "cache hits 4/4" in captured.err


def test_bench_rejects_unknown_schema():
    with pytest.raises(SystemExit):
        main(["bench", "--schemas", "nope"])


def test_bench_rejects_empty_selection():
    # an aliased program cannot compile under schema2: zero legal jobs
    with pytest.raises(SystemExit):
        main(["bench", "--programs", "fortran_alias", "--schemas", "schema2"])


def test_trace_spans_renders_pipeline_tree(srcfile, capsys):
    assert main(["trace", srcfile, "--spans"]) == 0
    out = capsys.readouterr().out
    assert "cli.compile" in out and "cli.simulate" in out
    for stage in ("compile.lex", "compile.parse", "compile.cfg",
                  "compile.translate"):
        assert stage in out
    assert "ms" in out
    # stage spans are indented under cli.compile
    assert "\n  compile.parse" in out


def test_trace_spans_through_service(srcfile, tmp_path, capsys):
    import uuid

    from repro.service import running_server

    sock = f"/tmp/repro-cli-{uuid.uuid4().hex[:8]}.sock"
    with running_server(path=sock):
        assert main(["trace", srcfile, "--socket", sock]) == 0
        out = capsys.readouterr().out
        assert "service.batch" in out and "engine.job" in out
        assert "compile.parse" in out  # worker pipeline spans made it back

        assert main(["metrics", "--socket", sock]) == 0
        out = capsys.readouterr().out
        assert "service.jobs.submitted" in out
        assert "service.latency_ms.total" in out

        assert main(["metrics", "--socket", sock, "--json"]) == 0
        import json

        m = json.loads(capsys.readouterr().out)
        assert m["counters"]["service.jobs.submitted"] == 1


def test_trace_requires_file_or_trace_id():
    with pytest.raises(SystemExit):
        main(["trace"])


def test_bench_sim_mode_selects_backend(capsys, tmp_path):
    assert (
        main(
            [
                "bench",
                "--programs",
                "gcd",
                "--schemas",
                "schema1",
                "--sim-mode",
                "step",
                "--cache-dir",
                str(tmp_path),
            ]
        )
        == 0
    )
    err = capsys.readouterr().err
    assert "sim backends — step: 1 jobs" in err

    assert (
        main(
            [
                "bench",
                "--programs",
                "gcd",
                "--schemas",
                "schema1",
                "--cache-dir",
                str(tmp_path),
            ]
        )
        == 0
    )
    err = capsys.readouterr().err
    # auto resolves to the packed interpreter on the idealized machine
    assert "sim backends — packed: 1 jobs" in err

    assert (
        main(
            [
                "bench",
                "--programs",
                "gcd",
                "--schemas",
                "schema1",
                "--sim-mode",
                "step",
                "--cache-dir",
                str(tmp_path),
            ]
        )
        == 0
    )
    err = capsys.readouterr().err
    assert "sim backends — step: 1 jobs" in err


def test_bench_rejects_bad_sim_mode():
    with pytest.raises(SystemExit):
        main(["bench", "--programs", "gcd", "--sim-mode", "warp"])
