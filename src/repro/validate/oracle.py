"""N-way differential oracle: one program, every semantic route.

The paper's claim is semantic preservation — Schema 1, Schema 2, and the
optimized constructions all compute what the imperative program
computes.  This module checks it mechanically.  For one source program
and one input vector it executes:

* the **AST interpreter** (the reference operational semantics);
* the **CFG interpreter** (raw CFG and, implicitly, the loop-augmented
  one every compiled program carries);
* every **legal translation schema** × the **step/packed** simulator
  loops, plus a finite-PE stepped run (memory-only check);
* the **region-compiled** route (``region_compile=on`` with a small
  region budget) against the monolithic graph of the same schema —
  structural statistics plus a stepped run;
* the **cached** compile path (memory tier, and the disk tier when a
  ``cache_dir`` is given) against the fresh compile.

and classifies any disagreement as a :class:`Divergence`:

====================  ======================================================
kind                  meaning
====================  ======================================================
``compile_crash``     a translation route raised where the reference ran
``pass_certificate``  per-pass translation validation rejected a pass's
                      certificate (``verify_passes`` on): the divergence
                      carries the guilty pass's name
``sim_divergence``    final memory / end values differ between two routes
                      (includes a simulator crash on one route)
``metrics_drift``     deterministic Metrics fields differ between two loops
                      that simulated the *same* graph
``region_mismatch``   the multiresolution region compiler
                      (``region_compile=on``) produced a graph whose
                      structure or behavior differs from the monolithic
                      compile of the same schema
``ref_crash``         the reference interpreter itself failed — a generator
                      bug, not a compiler bug (should never happen)
====================  ======================================================

A divergence found with ``verify_passes="off"`` can be *blamed* after the
fact: :func:`assign_blame` recompiles the failing schema with
``verify_passes="full"`` and, if a certificate check fires, records the
guilty pass and the certificate diff on the divergence.

Batch-engine routes (serial vs pooled ``run_batch``) compare whole job
lists and live in :func:`check_batch_routes`; the fuzz driver runs them
once per campaign rather than per program.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from ..cfg.builder import build_cfg
from ..engine.cache import GraphCache
from ..interp.ast_interp import run_ast
from ..interp.cfg_interp import run_cfg
from ..lang.errors import CompileError
from ..lang.parser import parse
from ..machine.config import MachineConfig
from ..obs.trace import tracer
from ..translate.pipeline import SCHEMAS, CompileOptions, compile_program, simulate
from ..translate.verify import CertificateError

#: Metrics fields that must be bit-identical across every idealized loop
#: for one compiled graph.  Occupancy samples and ``peak_waiting_frames``
#: are sampled at loop checkpoints, so they are loop-dependent by design
#: and excluded; ``tests/machine/test_occupancy_digests.py`` pins the
#: packed loop's samples instead.
DETERMINISTIC_METRIC_FIELDS = (
    "cycles",
    "operations",
    "by_kind",
    "memory_ops",
    "switch_ops",
    "merge_ops",
    "synch_ops",
    "clashes",
    "peak_tokens_in_flight",
    "peak_enabled",
    "profile",
)

#: idealized-machine loops the oracle runs per schema
SIM_MODES = ("step", "packed")


@dataclass(frozen=True)
class Divergence:
    """One classified disagreement between two semantic routes."""

    kind: str  # compile_crash | pass_certificate | sim_divergence | ...
    route: str  # e.g. "schema2_opt/packed"
    baseline: str  # e.g. "ast" or "schema2_opt/step"
    detail: str
    #: the compilation pass whose certificate failed ("" = not blamed)
    guilty_pass: str = ""
    #: the certificate diff (truncated) when a pass was blamed
    certificate: str = ""

    def __str__(self) -> str:
        s = f"[{self.kind}] {self.route} vs {self.baseline}: {self.detail}"
        if self.guilty_pass:
            s += f" [guilty pass: {self.guilty_pass}]"
        return s


@dataclass
class OracleReport:
    """Outcome of one :func:`check_program` call."""

    source: str
    inputs: tuple[dict, ...]
    schemas: tuple[str, ...]
    routes_run: int = 0
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        if self.ok:
            return f"{self.routes_run} routes agree"
        kinds: dict[str, int] = {}
        for d in self.divergences:
            kinds[d.kind] = kinds.get(d.kind, 0) + 1
        inventory = ", ".join(f"{n} {k}" for k, n in sorted(kinds.items()))
        return f"{len(self.divergences)} divergences ({inventory})"


def legal_schemas(source: str) -> tuple[str, ...]:
    """The schemas a program can legally compile under: the Schema 2
    family rejects aliased programs (paper Section 3 assumes no
    aliasing)."""
    from ..analysis.alias import AliasStructure
    from ..lang.subroutines import expand_subroutines

    prog = parse(source)
    if prog.subs:
        prog, _ = expand_subroutines(prog)
    if AliasStructure.from_program(prog).pairs:
        return ("schema1", "schema3", "schema3_opt", "memory_elim")
    return SCHEMAS


def _truncate(obj, limit: int = 200) -> str:
    s = repr(obj)
    return s if len(s) <= limit else s[: limit - 3] + "..."


def _diff_memory(got: dict, want: dict) -> str:
    keys = sorted(set(got) | set(want))
    bad = [k for k in keys if got.get(k) != want.get(k)]
    return "; ".join(
        f"{k}: {_truncate(got.get(k), 60)} != {_truncate(want.get(k), 60)}"
        for k in bad[:4]
    ) + ("" if len(bad) <= 4 else f" (+{len(bad) - 4} more)")


def _metric_values(metrics) -> dict:
    return {f: getattr(metrics, f) for f in DETERMINISTIC_METRIC_FIELDS}


def check_program(
    source: str,
    inputs: tuple[dict, ...] | list[dict] | None = None,
    schemas: tuple[str, ...] | None = None,
    sim_modes: tuple[str, ...] = SIM_MODES,
    cache: GraphCache | None = None,
    cache_dir=None,
    finite_pes: bool = True,
    seeds: tuple[int, ...] = (0,),
    max_steps: int = 2_000_000,
    verify_passes: str = "off",
) -> OracleReport:
    """Run one program through every route and cross-check the results.

    ``cache`` defaults to a *fresh* :class:`GraphCache` per call (with
    the optional ``cache_dir`` disk tier), so the cached-vs-fresh
    comparison always covers a real miss→hit cycle and no state leaks
    between checks.

    ``verify_passes`` turns on per-pass translation validation during the
    schema compiles; a rejected certificate classifies as a
    ``pass_certificate`` divergence carrying the guilty pass's name.
    """
    input_vectors = tuple(inputs) if inputs else ({},)
    if schemas is None:
        schemas = legal_schemas(source)
    report = OracleReport(
        source=source, inputs=input_vectors, schemas=schemas
    )
    div = report.divergences.append

    with tracer.span("validate.check", schemas=len(schemas)):
        try:
            prog = parse(source)
            references = [
                run_ast(prog, ins, max_steps=max_steps)
                for ins in input_vectors
            ]
        except Exception as exc:  # generator bug: reference must be total
            div(Divergence("ref_crash", "ast", "ast",
                           f"{type(exc).__name__}: {exc}"))
            return report
        report.routes_run += 1

        # CFG interpreter against the reference
        try:
            cfg = build_cfg(prog)
            for ins, ref in zip(input_vectors, references):
                got = run_cfg(cfg, prog, ins, max_steps=max_steps)
                if got != ref:
                    div(Divergence("sim_divergence", "cfg", "ast",
                                   _diff_memory(got, ref)))
        except Exception as exc:
            div(Divergence("compile_crash", "cfg", "ast",
                           f"{type(exc).__name__}: {exc}"))
        report.routes_run += 1

        if cache is None:
            cache = GraphCache(cache_dir=cache_dir)
        for schema in schemas:
            _check_schema(
                report, schema, source, input_vectors, references,
                sim_modes, cache, finite_pes, seeds, verify_passes,
            )
    return report


def _check_schema(
    report: OracleReport,
    schema: str,
    source: str,
    input_vectors: tuple[dict, ...],
    references: list[dict],
    sim_modes: tuple[str, ...],
    cache: GraphCache,
    finite_pes: bool,
    seeds: tuple[int, ...],
    verify_passes: str = "off",
) -> None:
    div = report.divergences.append
    options = CompileOptions(schema=schema, verify_passes=verify_passes)
    try:
        with tracer.span("validate.compile", schema=schema):
            cp = compile_program(source, options=options)
    except CertificateError as exc:
        div(Divergence(
            "pass_certificate", schema, "ast", str(exc),
            guilty_pass=exc.pass_name,
            certificate=_truncate(exc.diff, 300),
        ))
        return
    except CompileError as exc:
        # front-end rejection is only legal if *every* route rejects;
        # the reference already ran, so any compile error here is a
        # translation-route crash
        div(Divergence("compile_crash", schema, "ast",
                       f"{type(exc).__name__}: {exc}"))
        return
    except Exception as exc:
        div(Divergence("compile_crash", schema, "ast",
                       f"{type(exc).__name__}: {exc}"))
        return

    for ins, ref in zip(input_vectors, references):
        per_mode: dict[str, object] = {}
        for mode in sim_modes:
            route = f"{schema}/{mode}"
            try:
                with tracer.span("validate.simulate", route=route):
                    res = simulate(cp, ins, MachineConfig(sim_mode=mode))
            except Exception as exc:
                div(Divergence("sim_divergence", route, "ast",
                               f"crash {type(exc).__name__}: {exc}"))
                continue
            report.routes_run += 1
            per_mode[mode] = res
            if res.memory != ref:
                div(Divergence("sim_divergence", route, "ast",
                               _diff_memory(res.memory, ref)))

        # deterministic metrics + end values must agree across the loops
        # that simulated this same graph
        base_mode = next((m for m in sim_modes if m in per_mode), None)
        if base_mode is not None:
            base = per_mode[base_mode]
            base_metrics = _metric_values(base.metrics)
            for mode, res in per_mode.items():
                if mode == base_mode:
                    continue
                route = f"{schema}/{mode}"
                baseline = f"{schema}/{base_mode}"
                if res.end_values != base.end_values:
                    div(Divergence(
                        "sim_divergence", route, baseline,
                        f"end_values {_truncate(res.end_values)} != "
                        f"{_truncate(base.end_values)}",
                    ))
                got = _metric_values(res.metrics)
                if got != base_metrics:
                    bad = [f for f in DETERMINISTIC_METRIC_FIELDS
                           if got[f] != base_metrics[f]]
                    div(Divergence(
                        "metrics_drift", route, baseline,
                        "; ".join(
                            f"{f}: {_truncate(got[f], 60)} != "
                            f"{_truncate(base_metrics[f], 60)}"
                            for f in bad[:3]
                        ),
                    ))

        # finite-PE stepped runs: scheduling changes cycle counts but a
        # valid graph's final memory must be seed- and width-independent
        if finite_pes:
            for seed in seeds:
                route = f"{schema}/step@pes2,seed{seed}"
                try:
                    res = simulate(
                        cp, ins,
                        MachineConfig(num_pes=2, seed=seed),
                    )
                except Exception as exc:
                    div(Divergence("sim_divergence", route, "ast",
                                   f"crash {type(exc).__name__}: {exc}"))
                    continue
                report.routes_run += 1
                if res.memory != ref:
                    div(Divergence("sim_divergence", route, "ast",
                                   _diff_memory(res.memory, ref)))

    # region-compiled route: the multiresolution compiler (forced on,
    # with a small region budget so even short programs partition) must
    # produce a graph with identical structural statistics that
    # simulates to the same memory, end values, and deterministic
    # metrics as the monolithic compile of the same schema
    region_opts = dataclasses.replace(
        options, region_compile="on", region_target_stmts=4
    )
    route = f"{schema}/region"
    rcp = None
    try:
        with tracer.span("validate.region", schema=schema):
            rcp = compile_program(source, options=region_opts)
    except CertificateError as exc:
        div(Divergence(
            "pass_certificate", route, "ast", str(exc),
            guilty_pass=exc.pass_name,
            certificate=_truncate(exc.diff, 300),
        ))
    except Exception as exc:
        div(Divergence("compile_crash", route, schema,
                       f"{type(exc).__name__}: {exc}"))
    if rcp is not None:
        report.routes_run += 1
        from ..dfg.stats import graph_stats

        got_stats, want_stats = graph_stats(rcp.graph), graph_stats(cp.graph)
        if got_stats != want_stats:
            div(Divergence(
                "region_mismatch", route, schema,
                f"stitched graph stats differ: [{got_stats.summary()}] "
                f"vs [{want_stats.summary()}]",
            ))
        for ins, ref in zip(input_vectors, references):
            try:
                res = simulate(rcp, ins, MachineConfig(sim_mode="step"))
                base = simulate(cp, ins, MachineConfig(sim_mode="step"))
            except Exception as exc:
                div(Divergence("sim_divergence", route, schema,
                               f"crash {type(exc).__name__}: {exc}"))
                continue
            report.routes_run += 1
            if res.memory != ref:
                div(Divergence("sim_divergence", route, "ast",
                               _diff_memory(res.memory, ref)))
            if res.end_values != base.end_values:
                div(Divergence(
                    "region_mismatch", route, f"{schema}/step",
                    f"end_values {_truncate(res.end_values)} != "
                    f"{_truncate(base.end_values)}",
                ))
            got_m = _metric_values(res.metrics)
            base_m = _metric_values(base.metrics)
            if got_m != base_m:
                bad = [f for f in DETERMINISTIC_METRIC_FIELDS
                       if got_m[f] != base_m[f]]
                div(Divergence(
                    "region_mismatch", route, f"{schema}/step",
                    "; ".join(
                        f"{f}: {_truncate(got_m[f], 60)} != "
                        f"{_truncate(base_m[f], 60)}"
                        for f in bad[:3]
                    ),
                ))

    # cached-vs-fresh: a graph served from the cache (memory or disk
    # tier) must simulate identically to the fresh compile
    try:
        with tracer.span("validate.cached", schema=schema):
            first, hit_first = cache.lookup(source, options)
            again, hit_again = cache.lookup(source, options)
    except Exception as exc:
        div(Divergence("compile_crash", f"{schema}/cached", schema,
                       f"{type(exc).__name__}: {exc}"))
        return
    if not hit_again:
        div(Divergence("compile_crash", f"{schema}/cached", schema,
                       "second lookup missed the cache"))
    for cached, tag in ((first, "cached-cold"), (again, "cached-warm")):
        route = f"{schema}/{tag}"
        for ins, ref in zip(input_vectors, references):
            try:
                res = simulate(cached, ins, MachineConfig(sim_mode="step"))
            except Exception as exc:
                div(Divergence("sim_divergence", route, schema,
                               f"crash {type(exc).__name__}: {exc}"))
                continue
            report.routes_run += 1
            if res.memory != ref:
                div(Divergence("sim_divergence", route, "ast",
                               _diff_memory(res.memory, ref)))


def assign_blame(report: OracleReport) -> OracleReport:
    """Post-hoc blame for a report produced with ``verify_passes="off"``:
    recompile each diverging schema with per-pass verification at
    ``full`` and, when a certificate check fires, annotate that schema's
    divergences with the guilty pass and the certificate diff.

    Mutates and returns ``report``.  Divergences the verifiers cannot
    explain (e.g. a simulator-loop disagreement on a correctly built
    graph) are left unblamed.
    """
    blamed: dict[str, tuple[str, str]] = {}
    for i, d in enumerate(report.divergences):
        if d.guilty_pass:
            continue
        schema = d.route.split("/", 1)[0]
        if schema not in SCHEMAS:
            continue
        if schema not in blamed:
            try:
                with tracer.span("validate.blame", schema=schema):
                    compile_program(
                        report.source,
                        options=CompileOptions(
                            schema=schema, verify_passes="full"
                        ),
                    )
            except CertificateError as exc:
                blamed[schema] = (
                    exc.pass_name, _truncate(exc.diff, 300)
                )
            except Exception:
                blamed[schema] = ("", "")  # crashes before any certificate
            else:
                blamed[schema] = ("", "")
        pass_name, diff = blamed[schema]
        if pass_name:
            report.divergences[i] = dataclasses.replace(
                d, guilty_pass=pass_name, certificate=diff
            )
    return report


def check_batch_routes(
    programs,
    schema_pick: str | None = None,
    pool_size: int = 2,
    pool=None,
) -> list[Divergence]:
    """Serial vs pooled ``run_batch`` over one job per program: results
    must be identical in memory, end values, deterministic metrics, and
    error strings.  ``programs`` is an iterable of
    :class:`~repro.validate.progen.GeneratedProgram` (or any object with
    ``source``/``inputs``/``name``).

    One job per program keeps the route cheap; per-schema coverage comes
    from :func:`check_program`.
    """
    from ..engine.batch import BatchJob, run_batch

    jobs = []
    for gp in programs:
        schema = schema_pick or legal_schemas(gp.source)[-1]
        jobs.append(
            BatchJob(
                source=gp.source,
                options=CompileOptions(schema=schema),
                inputs=dict(gp.inputs[0]) if gp.inputs else {},
                name=getattr(gp, "name", "prog"),
            )
        )
    if not jobs:
        return []
    divergences: list[Divergence] = []
    with tracer.span("validate.batch_routes", jobs=len(jobs)):
        serial = run_batch(jobs)
        pooled = run_batch(jobs, pool_size=pool_size, pool=pool)
    for s, p in zip(serial, pooled):
        route, baseline = f"batch-pooled/{p.name}", f"batch-serial/{s.name}"
        if s.ok != p.ok or (not s.ok and s.error != p.error):
            divergences.append(Divergence(
                "sim_divergence", route, baseline,
                f"error {p.error!r} != {s.error!r}",
            ))
            continue
        if not s.ok:
            continue
        if p.result.memory != s.result.memory:
            divergences.append(Divergence(
                "sim_divergence", route, baseline,
                _diff_memory(p.result.memory, s.result.memory),
            ))
        if p.result.end_values != s.result.end_values:
            divergences.append(Divergence(
                "sim_divergence", route, baseline,
                f"end_values {_truncate(p.result.end_values)} != "
                f"{_truncate(s.result.end_values)}",
            ))
        if _metric_values(p.result.metrics) != _metric_values(s.result.metrics):
            divergences.append(Divergence(
                "metrics_drift", route, baseline, "metrics differ",
            ))
    return divergences
