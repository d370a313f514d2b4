"""Tests for the batch runner: ordering, pool/serial agreement, caching."""

from repro.bench.harness import corpus_jobs
from repro.bench.programs import workload
from repro.engine import BatchJob, GraphCache, run_batch
from repro.interp import run_ast
from repro.lang import parse
from repro.machine import MachineConfig
from repro.translate import CompileOptions


def _jobs():
    gcd = workload("gcd")
    fib = workload("fib")
    out = []
    for schema in ("schema1", "schema2_opt", "memory_elim"):
        for ins in gcd.inputs:
            out.append(
                BatchJob(
                    gcd.source,
                    CompileOptions(schema=schema),
                    inputs=dict(ins),
                    name=f"gcd/{schema}/{sorted(ins.items())}",
                )
            )
        out.append(
            BatchJob(
                fib.source,
                CompileOptions(schema=schema),
                inputs={"n": 9},
                name=f"fib/{schema}",
            )
        )
    return out


def test_serial_results_are_ordered_and_correct():
    jobs = _jobs()
    results = run_batch(jobs, pool_size=1, cache=GraphCache())
    assert [r.index for r in results] == list(range(len(jobs)))
    assert [r.name for r in results] == [j.name for j in jobs]
    for job, br in zip(jobs, results):
        assert br.result.memory == run_ast(parse(job.source), job.inputs)


def test_serial_cache_hits_on_repeated_options():
    jobs = _jobs()
    cache = GraphCache()
    results = run_batch(jobs, pool_size=1, cache=cache)
    # gcd has 3 input sets per schema: the 2nd and 3rd hit the cache
    hits = [r.cache_hit for r in results]
    assert hits.count(False) == 6  # 2 programs x 3 schemas compile once
    assert hits.count(True) == len(jobs) - 6
    again = run_batch(jobs, pool_size=1, cache=cache)
    assert all(r.cache_hit for r in again)
    assert all(r.result.cache_hit for r in again)


def test_pool_matches_serial():
    jobs = _jobs()
    serial = run_batch(jobs, pool_size=1, cache=GraphCache())
    pooled = run_batch(jobs, pool_size=2)
    assert [r.name for r in pooled] == [r.name for r in serial]
    for a, b in zip(serial, pooled):
        assert a.result.memory == b.result.memory, a.name
        assert a.result.metrics.cycles == b.result.metrics.cycles, a.name
        assert a.result.metrics.operations == b.result.metrics.operations
        assert a.stats == b.stats


def test_pool_shares_disk_cache(tmp_path):
    jobs = _jobs()
    run_batch(jobs, pool_size=2, cache_dir=tmp_path)
    warm = run_batch(jobs, pool_size=2, cache_dir=tmp_path)
    assert all(r.cache_hit for r in warm)


def test_job_config_is_respected():
    gcd = workload("gcd")
    job = BatchJob(
        gcd.source,
        CompileOptions(schema="schema2_opt"),
        inputs=dict(gcd.inputs[0]),
        config=MachineConfig(num_pes=1),
    )
    (one,) = run_batch([job], cache=GraphCache())
    (wide,) = run_batch(
        [
            BatchJob(
                gcd.source,
                CompileOptions(schema="schema2_opt"),
                inputs=dict(gcd.inputs[0]),
            )
        ],
        cache=GraphCache(),
    )
    assert one.result.memory == wide.result.memory
    assert one.result.metrics.cycles > wide.result.metrics.cycles
    assert one.result.backend == "step" and wide.result.backend == "packed"


def test_bad_job_does_not_poison_batch():
    """A job that fails to compile (or simulate) reports its error on its
    own BatchResult; every sibling still completes normally."""
    gcd = workload("gcd")
    jobs = [
        BatchJob(gcd.source, inputs=dict(gcd.inputs[0]), name="good0"),
        BatchJob("x := ;;;; not a program", name="syntax_error"),
        BatchJob(gcd.source, inputs=dict(gcd.inputs[0]), name="good1"),
    ]
    results = run_batch(jobs, pool_size=1, cache=GraphCache())
    assert [r.name for r in results] == ["good0", "syntax_error", "good1"]
    good0, bad, good1 = results
    assert good0.ok and good1.ok
    assert good0.result.memory == run_ast(parse(gcd.source), jobs[0].inputs)
    assert not bad.ok
    assert bad.result is None and bad.stats is None
    assert bad.error and "Error" in bad.error
    assert bad.traceback and "Traceback" in bad.traceback


def test_array_named_input_is_a_per_job_error():
    """An input naming an array fails its own job, not its batch."""
    src = "array a[2]; a[0] := 1; x := a[0];"
    jobs = [
        BatchJob(src, inputs={"a": 5}, name="array_input"),
        BatchJob(src, inputs={"x": 5}, name="scalar_input"),
    ]
    bad, good = run_batch(jobs, pool_size=1, cache=GraphCache())
    assert not bad.ok and bad.result is None
    assert bad.error == "MemoryFault: 'a' is an array, not a scalar input"
    assert good.ok
    assert good.result.memory == run_ast(parse(src), {"x": 5})


def test_bad_job_does_not_poison_pool_batch():
    gcd = workload("gcd")
    jobs = [
        BatchJob("x := ;;;; not a program", name="bad"),
        BatchJob(gcd.source, inputs=dict(gcd.inputs[0]), name="good"),
    ]
    bad, good = run_batch(jobs, pool_size=2)
    assert not bad.ok and bad.error
    assert good.ok
    assert good.result.memory == run_ast(parse(gcd.source), jobs[1].inputs)


def test_persistent_pool_reuse(tmp_path):
    """make_pool() + run_batch(pool=...) re-enters one pool across calls;
    workers persist between batches and share the disk cache tier, so a
    repeated batch is all cache hits without respawning anything."""
    from repro.engine import make_pool

    jobs = _jobs()
    pool = make_pool(2, cache_dir=tmp_path)
    try:
        first = run_batch(jobs, pool=pool)
        second = run_batch(jobs, pool=pool)
    finally:
        pool.terminate()
        pool.join()
    assert [r.name for r in first] == [j.name for j in jobs]
    for a, b in zip(first, second):
        assert a.result.memory == b.result.memory
        assert a.result.metrics.cycles == b.result.metrics.cycles
    assert all(r.cache_hit for r in second)


def test_empty_batch():
    assert run_batch([]) == []


def test_corpus_jobs_filters():
    jobs = corpus_jobs(programs=["gcd"], schemas=["schema1", "memory_elim"])
    assert {j.name for j in jobs} == {"gcd/schema1", "gcd/memory_elim"}
    aliased = corpus_jobs(programs=["fortran_alias"])
    assert all("schema2" not in j.name for j in aliased)


def test_serial_cache_dir_is_reused_across_batches(tmp_path):
    """Back-to-back serial run_batch calls naming the same cache_dir
    must share one process-wide cache: the second batch takes *memory*
    hits, not disk reads, and the stats accumulate across calls."""
    from repro.engine import shared_cache

    d = tmp_path / "graphs"
    gcd = workload("gcd")
    jobs = [
        BatchJob(gcd.source, CompileOptions(schema=schema),
                 inputs=dict(gcd.inputs[0]), name=f"gcd/{schema}")
        for schema in ("schema1", "schema2", "schema2_opt", "memory_elim")
    ]
    cold = run_batch(jobs, cache_dir=d)
    assert not any(r.cache_hit for r in cold)
    warm = run_batch(jobs, cache_dir=d)
    assert all(r.cache_hit for r in warm)
    cache = shared_cache(d)
    assert cache is shared_cache(d)  # stable identity per (dir, capacity)
    assert cache.stats.hits >= len(jobs)  # memory tier, not disk
    assert cache.stats.disk_hits == 0
    assert cache.stats.misses == len({  # one compile per distinct graph
        (j.source, j.options.fingerprint()) for j in jobs
    })


def test_traced_job_ships_spans_with_result():
    """A job stamped with a trace id comes back with worker-side spans
    carrying that id — the engine half of end-to-end tracing."""
    from repro.obs.trace import new_trace_id, render_tree

    tid = new_trace_id()
    job = BatchJob("x := 1 + 2;", name="traced", trace_id=tid)
    (br,) = run_batch([job], cache=GraphCache())
    assert br.ok and br.trace_id == tid
    names = [s["name"] for s in br.spans]
    assert "engine.job" in names
    assert "engine.compile" in names
    assert "engine.simulate" in names
    assert "compile.parse" in names  # pipeline stage spans nest inside
    assert all(s["trace_id"] == tid for s in br.spans)
    tree = render_tree(br.spans)
    assert "engine.simulate" in tree and "ms" in tree


def test_untraced_job_records_no_spans():
    job = BatchJob("x := 1;", name="untraced")
    (br,) = run_batch([job], cache=GraphCache())
    assert br.trace_id == "" and br.spans == []
