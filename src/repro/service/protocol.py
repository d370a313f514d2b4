"""JSON-lines wire protocol for the compile/simulate service.

One JSON object per ``\\n``-terminated line, both directions.  Requests
carry an ``op`` plus op-specific fields; every response carries ``ok``
and echoes the request's ``op`` (and ``id`` for job-scoped ops).

Requests::

    {"op": "submit", "id": "c1-0", "job": {...}, "deadline_ms": 250.0}
    {"op": "cancel", "id": "c1-0"}
    {"op": "stats"}
    {"op": "metrics"}
    {"op": "trace", "trace_id": "deadbeef01020304"}
    {"op": "ping"}
    {"op": "shutdown"}

Responses::

    {"ok": true,  "op": "submit", "id": ..., "result": {...BatchResult...}}
    {"ok": false, "op": "submit", "id": ..., "error": "queue_full", ...}
    {"ok": true,  "op": "stats", "stats": {...}}

Transport-level rejections use the ``error`` codes in :data:`REJECTIONS`;
a job that *ran* but raised comes back ``ok: true`` with the captured
``error``/``traceback`` inside the result object (mirroring
:class:`~repro.engine.batch.BatchResult`).

The codec round-trips every field the differential guarantee covers:
final memory, metric counters, the parallelism profile (integer cycle
keys — JSON stringifies them; decoding restores ints), clash and trace
tuples, and graph stats.  ``job_from_wire(job_to_wire(j)) == j`` and the
decoded result compares equal to the original, so "bit-identical through
the service" is checkable with plain ``==``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields

from ..dfg.stats import GraphStats
from ..engine.batch import BatchJob, BatchResult
from ..machine.config import MachineConfig
from ..machine.metrics import Metrics
from ..machine.simulator import SimResult
from ..translate.pipeline import CompileOptions

#: protocol version, echoed by ping; bump on incompatible frame changes
PROTOCOL_VERSION = 1

#: transport-level error codes for a submit that never produced a result
REJECTIONS = (
    "queue_full",
    "deadline_expired",
    "cancelled",
    "shutting_down",
    "bad_request",
    "shard_failed",  # fleet: the shard holding the job crashed mid-run
)

#: generous per-line ceiling (traces can be large); also the asyncio
#: stream reader limit servers and clients should pass through
MAX_LINE = 64 * 1024 * 1024


def encode(obj: dict) -> bytes:
    """One wire frame: compact JSON + newline."""
    return json.dumps(obj, separators=(",", ":")).encode() + b"\n"


def decode(line: bytes) -> dict:
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ValueError("frame must be a JSON object")
    return obj


# -- jobs -------------------------------------------------------------------


def job_to_wire(job: BatchJob) -> dict:
    return {
        "source": job.source,
        "options": asdict(job.options),
        "inputs": dict(job.inputs) if job.inputs is not None else None,
        "config": asdict(job.config) if job.config is not None else None,
        "name": job.name,
        "trace_id": job.trace_id,
    }


def job_from_wire(d: dict) -> BatchJob:
    options = CompileOptions(**(d.get("options") or {}))
    config = d.get("config")
    return BatchJob(
        source=d["source"],
        options=options,
        inputs=d.get("inputs"),
        config=MachineConfig(**config) if config is not None else None,
        name=d.get("name", ""),
        trace_id=d.get("trace_id", ""),
    )


# -- results ----------------------------------------------------------------


def _metrics_to_wire(m: Metrics) -> dict:
    d = {f.name: getattr(m, f.name) for f in fields(Metrics)}
    # JSON objects have string keys; profile is keyed by integer cycle
    d["profile"] = {str(k): v for k, v in m.profile.items()}
    return d


def _metrics_from_wire(d: dict) -> Metrics:
    d = dict(d)
    d["profile"] = {int(k): v for k, v in d.get("profile", {}).items()}
    return Metrics(**d)


def _sim_result_to_wire(r: SimResult) -> dict:
    return {
        "memory": r.memory,
        "metrics": _metrics_to_wire(r.metrics),
        "end_values": r.end_values,
        "clashes": [list(c) for c in r.clashes],
        "trace": [list(t) for t in r.trace],
        "wall_time": r.wall_time,
        "cache_hit": r.cache_hit,
        "occupancy": [list(row) for row in r.occupancy],
        "backend": r.backend,
    }


def _sim_result_from_wire(d: dict) -> SimResult:
    return SimResult(
        memory=d["memory"],
        metrics=_metrics_from_wire(d["metrics"]),
        end_values=d.get("end_values", {}),
        clashes=[tuple(c) for c in d.get("clashes", [])],
        trace=[tuple(t) for t in d.get("trace", [])],
        wall_time=d.get("wall_time", 0.0),
        cache_hit=d.get("cache_hit", False),
        occupancy=[list(row) for row in d.get("occupancy", [])],
        backend=d.get("backend", ""),
    )


def result_to_wire(br: BatchResult) -> dict:
    return {
        "name": br.name,
        "index": br.index,
        "result": _sim_result_to_wire(br.result) if br.result else None,
        "stats": asdict(br.stats) if br.stats else None,
        "compile_time": br.compile_time,
        "sim_time": br.sim_time,
        "cache_hit": br.cache_hit,
        "error": br.error,
        "traceback": br.traceback,
        "trace_id": br.trace_id,
        "spans": br.spans,
    }


def result_from_wire(d: dict) -> BatchResult:
    stats = d.get("stats")
    res = d.get("result")
    return BatchResult(
        name=d["name"],
        index=d["index"],
        result=_sim_result_from_wire(res) if res else None,
        stats=GraphStats(**stats) if stats else None,
        compile_time=d.get("compile_time", 0.0),
        sim_time=d.get("sim_time", 0.0),
        cache_hit=d.get("cache_hit", False),
        error=d.get("error"),
        traceback=d.get("traceback"),
        trace_id=d.get("trace_id", ""),
        spans=list(d.get("spans", [])),
    )
