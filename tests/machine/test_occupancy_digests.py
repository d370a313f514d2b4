"""The occupancy cross-check.

``SimResult.occupancy`` (one ``[cycle, tokens, frames, enabled]`` row per
new in-flight peak) and ``peak_waiting_frames`` are sampled at loop
checkpoints, so the oracle cannot compare them against the per-cycle
``step`` loop.  They are pinned here instead: ``occupancy_digests.json``
holds their digests, recorded from the event-driven object-graph loop
that the packed interpreter mirrored checkpoint for checkpoint, for every
bench-corpus program × legal schema × input set.  The packed interpreter
must reproduce every digest.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.bench.programs import CORPUS
from repro.machine import MachineConfig
from repro.translate import compile_program, simulate
from repro.validate.oracle import legal_schemas

FIXTURE = Path(__file__).with_name("occupancy_digests.json")


def occupancy_digest(res) -> str:
    blob = json.dumps(
        {
            "occupancy": [list(row) for row in res.occupancy],
            "peak_waiting_frames": res.metrics.peak_waiting_frames,
        },
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _jobs():
    return {
        f"{wl.name}/{schema}/{k}": (wl, schema, inputs)
        for wl in CORPUS
        for schema in legal_schemas(wl.source)
        for k, inputs in enumerate(wl.inputs)
    }


@pytest.mark.tier1
def test_fixture_covers_corpus_schemas_and_inputs():
    recorded = json.loads(FIXTURE.read_text())["jobs"]
    assert set(recorded) == set(_jobs())


@pytest.mark.tier1
@pytest.mark.parametrize("wl", CORPUS, ids=[w.name for w in CORPUS])
def test_packed_reproduces_recorded_occupancy(wl):
    recorded = json.loads(FIXTURE.read_text())["jobs"]
    for schema in legal_schemas(wl.source):
        cp = compile_program(wl.source, schema=schema)
        for k, inputs in enumerate(wl.inputs):
            job = f"{wl.name}/{schema}/{k}"
            res = simulate(cp, dict(inputs), MachineConfig())
            assert res.backend == "packed"
            want = recorded[job]
            assert len(res.occupancy) == want["rows"], job
            assert occupancy_digest(res) == want["sha256"], job
