"""repro.service — the always-on compile/simulate server.

The engine layer (:mod:`repro.engine`) made batches cheap; this layer
makes them *resident*: a long-running asyncio server owns a persistent
:class:`~repro.engine.cache.GraphCache` and worker pool, accepts jobs
over a JSON-lines socket protocol, hands them to the engine as soon as
it is idle (jobs that arrive while it is busy coalesce into the next
batch, up to ``max_batch``), applies explicit backpressure
(``queue_full``) past ``--max-queue``, honours per-job deadlines and
client cancellation, and drains gracefully on shutdown.
``repro serve`` / ``repro submit`` / ``repro stats`` are the CLI front
ends; DESIGN.md §7 documents the architecture and contracts.

The differential guarantee: results through the service are
bit-identical — memory, op counts, cycles, profiles — to a direct
``engine.run_batch()`` of the same jobs, for any ``max_batch``
(``tests/service/`` enforces it).
"""

from .batcher import MicroBatcher
from .client import AsyncServiceClient, JobRejected, ServiceClient, ServiceError
from .protocol import (
    PROTOCOL_VERSION,
    REJECTIONS,
    job_from_wire,
    job_to_wire,
    result_from_wire,
    result_to_wire,
)
from .server import ServiceConfig, ServiceServer, serve
from .testing import ServerThread, ephemeral_socket_path, running_server

__all__ = [
    "AsyncServiceClient",
    "JobRejected",
    "MicroBatcher",
    "PROTOCOL_VERSION",
    "REJECTIONS",
    "ServerThread",
    "ephemeral_socket_path",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceServer",
    "job_from_wire",
    "job_to_wire",
    "result_from_wire",
    "result_to_wire",
    "running_server",
    "serve",
]
