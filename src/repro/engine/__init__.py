"""The batch compile/simulate engine layer.

Production-shaped plumbing around the paper's pipeline: a
content-addressed compiled-graph cache (:mod:`~repro.engine.cache`), a
process-pool batch runner with deterministic ordering
(:mod:`~repro.engine.batch`), and a process-wide default cache that the
bench harness and sweeps share.

See DESIGN.md §6 for cache keying rules and when the packed
interpreter is bypassed.
"""

from __future__ import annotations

from ..translate.pipeline import CompiledProgram, CompileOptions
from .batch import BatchJob, BatchResult, make_pool, run_batch, shared_cache
from .cache import CacheStats, GraphCache, graph_key
from .latency import LatencySummary, percentile

#: process-wide cache used by default for serial engine compiles
default_cache = GraphCache()


def compile_cached(
    source: str, options: CompileOptions | None = None, **kwargs
) -> CompiledProgram:
    """Compile through the process-wide :data:`default_cache`."""
    return default_cache.get_or_compile(source, options, **kwargs)


__all__ = [
    "BatchJob",
    "BatchResult",
    "CacheStats",
    "GraphCache",
    "LatencySummary",
    "compile_cached",
    "default_cache",
    "graph_key",
    "make_pool",
    "percentile",
    "run_batch",
    "shared_cache",
]
