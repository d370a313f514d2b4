"""One-call compilation pipeline: source text -> executable dataflow graph.

Schemas (paper section in parentheses):

* ``schema1`` (§2.3) — single access token, sequential inter-statement
  semantics; raw CFG, no loop control needed.
* ``schema2`` (§3) — one access token per variable, loop controls inserted,
  tokens follow every control path (Figure 8).  Rejects aliased programs.
* ``schema2_opt`` (§4) — Schema 2 tokens wired by switch placement (Fig 10)
  and source vectors (Fig 11): no redundant switches, loop bypass.
* ``schema3`` (§5) — cover-parameterized access tokens over an alias
  structure, all-paths wiring (the paper's base Schema 3).
* ``schema3_opt`` — Schema 3 collection with the Section 4 optimized wiring.
* ``memory_elim`` (§6.1) — optimized wiring where unaliased scalars carry
  their values on tokens (no loads/stores; merges are the implicit phis);
  aliased scalars and arrays keep Schema 3 access collection.

Post-transforms (any schema): ``parallel_reads`` and ``forward_stores``
(§6.2); ``parallelize_arrays`` (Figure 14) and ``use_istructures`` (§6.3)
require loop-augmented optimized-style graphs and simple loops — they apply
where legal and report what they skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from ..analysis.alias import AliasStructure, Cover
from ..cfg.builder import build_cfg
from ..cfg.graph import CFG
from ..cfg.intervals import Loop
from ..dfg.graph import DFGraph
from ..dfg.stats import GraphStats, graph_stats
from ..lang.ast_nodes import Program
from ..lang.parser import parse
from ..machine.config import MachineConfig
from ..machine.memory import MemorySpec
from ..machine.packed import PackedProgram, pack_graph
from ..machine.simulator import SimResult, Simulator
from ..obs.trace import tracer
from .allpaths import Translation
from .array_parallel import ArrayParallelReport
from .passes import Certificate, PassContext, PassManager, build_passes
from .streams import Stream, cover_streams, streams_for

SCHEMAS = (
    "schema1",
    "schema2",
    "schema2_opt",
    "schema3",
    "schema3_opt",
    "memory_elim",
)


@dataclass(frozen=True)
class CompileOptions:
    """Knobs for :func:`compile_program`; see the module docstring."""

    schema: str = "schema2_opt"
    cover: str = "singletons"  # schema3: singletons | whole | alias_classes
    insert_loops: bool = True  # False reproduces the broken Figure 8 graph
    optimize: bool = False  # classic CFG optimizations before translation
    parallel_reads: bool = False
    forward_stores: bool = False
    parallelize_arrays: bool = False
    use_istructures: bool = False
    redundant_elim: bool = False  # §4 switch/dead-value cleanup pass
    #: per-pass translation validation: each pass emits a certificate
    #: that an independent verifier checks right after the pass runs.
    #: ``cheap`` = structural + same-algorithm recomputation checks;
    #: ``full`` adds independent-algorithm oracles (brute-force between
    #: sets, recursive SCC recomputation, per-array gate recomputation).
    verify_passes: str = "off"  # off | cheap | full
    #: multiresolution region compilation (see repro.translate.regions):
    #: ``on`` partitions whenever a legal multi-region cut exists,
    #: ``auto`` engages only for programs of at least
    #: ``region_min_stmts`` statements, ``off`` keeps the monolithic
    #: pipeline.  Option sets that enable whole-graph post passes fall
    #: back to monolithic regardless.
    region_compile: str = "off"  # off | auto | on
    #: ``auto`` engagement threshold (total statements incl. nesting)
    region_min_stmts: int = 256
    #: greedy partition budget: statements per region before the next
    #: legal cut closes the region
    region_target_stmts: int = 64

    def __post_init__(self) -> None:
        if self.schema not in SCHEMAS:
            raise ValueError(f"unknown schema {self.schema!r}; pick from {SCHEMAS}")
        if self.cover not in ("singletons", "whole", "alias_classes"):
            raise ValueError(f"unknown cover {self.cover!r}")
        if self.verify_passes not in ("off", "cheap", "full"):
            raise ValueError(
                f"unknown verify_passes {self.verify_passes!r}; "
                "pick off, cheap, or full"
            )
        if self.region_compile not in ("off", "auto", "on"):
            raise ValueError(
                f"unknown region_compile {self.region_compile!r}; "
                "pick off, auto, or on"
            )
        if self.region_min_stmts < 0:
            raise ValueError("region_min_stmts must be >= 0")
        if self.region_target_stmts < 1:
            raise ValueError("region_target_stmts must be >= 1")

    def fingerprint(self) -> str:
        """Stable text rendering of every option, in declaration order.

        Part of the engine's compiled-graph cache key: two option sets with
        equal fingerprints must compile any source to equivalent graphs.
        New fields extend the fingerprint automatically, so adding a knob
        invalidates nothing but never aliases two distinct configurations.
        """
        return ";".join(
            f"{f.name}={getattr(self, f.name)!r}" for f in fields(self)
        )


@dataclass
class CompiledProgram:
    """A compiled program: the dataflow graph plus everything needed to run
    and inspect it.

    A compiled graph may be changed only until its first run.  The first
    idealized run lowers it (:meth:`ensure_packed`), and that lowering is
    the one place the graph is validated; every later run executes the
    memoized lowering, so a change made after it would go unseen.
    """

    source: str
    prog: Program
    options: CompileOptions
    cfg: CFG | None  # loop-augmented unless insert_loops=False or schema1
    loops: list[Loop]
    streams: list[Stream]
    translation: Translation
    alias: AliasStructure
    istructure_arrays: list[str] = field(default_factory=list)
    array_report: ArrayParallelReport | None = None
    reads_parallelized: int = 0
    stores_forwarded: int = 0
    redundant_eliminated: int = 0
    #: per-pass certificate log (one Certificate per pipeline stage)
    pass_log: list[Certificate] = field(default_factory=list)
    #: the PassContext the pipeline ran on; verifiers re-check
    #: certificates against it (see passes.verify_pass_log)
    pass_ctx: PassContext | None = None
    expansion: object | None = None  # subroutine ExpansionReport, if any
    opt_report: object | None = None  # cfg OptReport when optimize=True
    #: the memory image every run builds, from ``prog`` (set at
    #: construction)
    memory_spec: MemorySpec | None = None
    #: the run-ready executable, built by :meth:`ensure_packed`
    executable: PackedProgram | None = None
    #: the graph's statistics, counted by :meth:`ensure_stats` on the
    #: first request (entries pickled before the field existed load
    #: with this class-level ``None``)
    stats: GraphStats | None = None

    def __post_init__(self) -> None:
        if self.memory_spec is None:
            self.memory_spec = MemorySpec.of(
                self.prog, self.istructure_arrays
            )

    @property
    def graph(self) -> DFGraph:
        return self.translation.graph

    def ensure_packed(self) -> PackedProgram:
        """The run-ready executable: the graph lowered (and validated) by
        :func:`~repro.machine.packed.pack_graph`, plus :attr:`memory_spec`.

        Built on the first idealized run, or before the graph cache
        writes the entry to disk or a snapshot, then memoized; the
        graph stays mutable until then (benches tweak node latencies
        after compiling).
        """
        if self.executable is None:
            self.executable = PackedProgram(
                pack_graph(self.graph), self.memory_spec
            )
        return self.executable

    def ensure_stats(self) -> GraphStats:
        """:func:`~repro.dfg.stats.graph_stats` of :attr:`graph`, counted
        once: every run after the first serves the memo."""
        if self.stats is None:
            self.stats = graph_stats(self.graph)
        return self.stats

    def slim(self) -> CompiledProgram:
        """This program without its compile-time working state — the CFG,
        the pass context and the CFG-optimization report — which runs,
        stitching and reports never read.  It is what the graph cache
        stores and what pool workers ship back."""
        dropped = (self.cfg, self.pass_ctx, self.opt_report)
        if all(x is None for x in dropped):
            return self
        return replace(self, cfg=None, pass_ctx=None, opt_report=None)


def _pick_cover(alias: AliasStructure, name: str) -> Cover:
    if name == "singletons":
        return Cover.singletons(alias)
    if name == "whole":
        return Cover.whole(alias)
    return Cover.alias_classes(alias)


def compile_program(
    source: str | Program,
    schema: str = "schema2_opt",
    *,
    options: CompileOptions | None = None,
    **kwargs,
) -> CompiledProgram:
    """Compile source text (or a parsed Program) under the given schema.

    Keyword arguments are :class:`CompileOptions` fields; alternatively
    pass a prebuilt ``options`` object (then ``schema``/kwargs must be
    left at their defaults).
    """
    if options is not None:
        if kwargs or schema != "schema2_opt":
            raise TypeError(
                "pass either options= or schema/keyword fields, not both"
            )
        opts = options
    else:
        opts = CompileOptions(schema=schema, **kwargs)
    schema = opts.schema
    if opts.region_compile != "off":
        # multiresolution path; falls back to this function (with
        # region_compile forced off) when no multi-region plan exists
        from .regions import compile_with_regions

        return compile_with_regions(source, opts)
    if isinstance(source, Program):
        prog, text = source, ""
    else:
        text = source
        prog = parse(source)  # emits compile.lex / compile.parse spans

    expansion = None
    if prog.subs:
        from ..lang.subroutines import expand_subroutines

        with tracer.span("compile.expand_subs"):
            prog, expansion = expand_subroutines(prog)

    arrays = set(prog.arrays)
    for group in prog.alias_groups:
        bad = [n for n in group if n in arrays]
        if bad:
            raise ValueError(
                f"alias declarations must name scalars only, got arrays {bad}"
            )
    alias = AliasStructure.from_program(prog)

    with tracer.span("compile.cfg"):
        cfg = build_cfg(prog)
    opt_report = None
    if opts.optimize:
        from ..cfg.optimize import optimize_cfg

        with tracer.span("compile.cfg_opt"):
            cfg, opt_report = optimize_cfg(cfg)
    with tracer.span("compile.streams"):
        if schema in ("schema3", "schema3_opt"):
            streams = cover_streams(_pick_cover(alias, opts.cover))
        else:
            streams = streams_for(prog, "schema2" if schema == "schema2_opt" else schema, alias=alias)

    # the back end is an explicit pass pipeline: interval construction,
    # switch placement, source vectors, graph construction, then the
    # optional §4/§6 rewrites — each emitting (and, under verify_passes,
    # immediately checking) a certificate
    ctx = PassContext(options=opts, prog=prog, alias=alias, cfg=cfg, streams=streams)
    pass_log = PassManager(build_passes(opts), verify=opts.verify_passes).run(ctx)

    return CompiledProgram(
        source=text,
        prog=prog,
        options=opts,
        cfg=ctx.cfg,
        loops=ctx.loops,
        streams=ctx.streams,
        translation=ctx.translation,
        alias=alias,
        istructure_arrays=ctx.istructure_arrays,
        array_report=ctx.array_report,
        reads_parallelized=ctx.reads_parallelized,
        stores_forwarded=ctx.stores_forwarded,
        redundant_eliminated=ctx.redundant_eliminated,
        pass_log=pass_log,
        pass_ctx=ctx,
        expansion=expansion,
        opt_report=opt_report,
    )


def simulate(
    cp: CompiledProgram,
    inputs: dict[str, int] | None = None,
    config: MachineConfig | None = None,
) -> SimResult:
    """Run a compiled program on the ETS machine.

    Idealized configs run the memoized executable
    (:meth:`CompiledProgram.ensure_packed`), the same one pool workers
    and the service run; it was validated once, when it was lowered.
    Other configs run the per-cycle reference loop over the object
    graph, which validates the graph itself."""
    cfg = config or MachineConfig()
    if cfg.backend() == "packed":
        return cp.ensure_packed().run(inputs, cfg)
    mem, ist = cp.memory_spec.image(inputs)
    return Simulator(cp.graph, mem, ist, cfg).run()


def run_source(
    source: str,
    inputs: dict[str, int] | None = None,
    schema: str = "schema2_opt",
    config: MachineConfig | None = None,
    **kwargs,
) -> SimResult:
    """Parse, compile, and simulate in one call."""
    return simulate(compile_program(source, schema=schema, **kwargs), inputs, config)
