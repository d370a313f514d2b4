"""Exact-repeat guard: two processes with different hash seeds must do
exactly the same work.

The end-to-end benchmark fails any run whose cycle, node or firing counts
differ from an earlier process of the same code, so nothing between
source text and ``Metrics`` may depend on set or dict iteration order
that varies with ``PYTHONHASHSEED``.  This runs a few corpus programs ×
every legal schema under the default machine (``auto``) in two fresh
interpreters and compares graph node counts, every ``Metrics`` field,
end values, and final memory.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

PROGRAMS = ("running_example", "gcd", "matmul", "fortran_alias", "sieve")

SCRIPT = """
import dataclasses, json, sys
from repro.bench.programs import workload
from repro.translate import compile_program, simulate
from repro.validate.oracle import legal_schemas

out = {}
for name in sys.argv[1:]:
    wl = workload(name)
    for schema in legal_schemas(wl.source):
        cp = compile_program(wl.source, schema=schema)
        for k, inputs in enumerate(wl.inputs):
            res = simulate(cp, dict(inputs))
            metrics = dataclasses.asdict(res.metrics)
            metrics["profile"] = sorted(metrics["profile"].items())
            metrics["by_kind"] = sorted(metrics["by_kind"].items())
            out[f"{name}/{schema}/{k}"] = {
                "backend": res.backend,
                "nodes": len(cp.graph.nodes),
                "metrics": metrics,
                "end_values": sorted(res.end_values.items()),
                "memory": sorted(res.memory.items()),
            }
print(json.dumps(out, sort_keys=True))
"""


def _run(hash_seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, *PROGRAMS],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


@pytest.mark.tier1
def test_counts_metrics_and_memory_repeat_across_hash_seeds():
    first, second = _run("0"), _run("1")
    assert first.keys() == second.keys()
    assert len(first) >= len(PROGRAMS) * 4
    for job, got in first.items():
        assert got["backend"] == "packed", job
        assert got == second[job], job
