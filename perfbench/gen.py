"""Seeded inputs for the four workloads.

Everything here runs before set-up and before the timed phase.  Each
workload's program population has two parts:

* a **census**, generated from a fixed seed that does not depend on
  ``--seed``.  The count metrics (``sim_cycles``, ``graph_nodes``,
  ``machine.firings``, ``regions.hit_ratio``) are summed over the census,
  so they repeat exactly across every run and every seed;
* a **seeded** part drawn from ``--seed``, which is what a held-out seed
  changes.

Program sizes lie on stratified grids (one size per stratum, jittered
inside it by the seed), so every seed sees the same spread of sizes and
latency percentiles do not sit on the step between two programs' costs.

One op in :data:`WIDE_EVERY` (op ``i`` with ``i % WIDE_EVERY ==
WIDE_EVERY - 1``; one in :data:`EDIT_WIDE_EVERY` for edits) belongs to
the *wide class*: a source program whose first dataflow front is at least
:data:`WIDE_MIN_TERMS` operators wide, a balanced sum of products over
scalars it only reads.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field

from repro.bench.programs import CORPUS
from repro.lang import parse, pretty
from repro.validate.oracle import legal_schemas
from repro.validate.progen import GenKnobs, generate

#: the schemas with the paper's Section 4 optimized wiring
OPTIMIZED = ("schema2_opt", "schema3_opt", "memory_elim")

WIDE_EVERY = 20

#: fewest terms of a wide program: its multiply front is this wide
WIDE_MIN_TERMS = 1024


def is_wide(i: int, every: int = WIDE_EVERY) -> bool:
    return i % every == every - 1


@dataclass(frozen=True)
class Job:
    """One program run: source text, schema, and the input scalars the
    program receives.  ``census`` names the job when it belongs to the
    seed-independent census."""

    source: str
    schema: str
    inputs: dict = field(default_factory=dict)
    census: str | None = None
    wide: bool = False

    @property
    def ref_key(self) -> tuple:
        """What the reference result depends on: program and inputs."""
        return (self.source, tuple(sorted(self.inputs.items())))


@dataclass
class Plan:
    """The inputs of a workload whose ops each run one :class:`Job`."""

    narrow: list[Job]
    wide: list[Job]
    #: narrow job index per op; ``None`` cycles through ``narrow``
    sequence: list[int] | None = None

    def job(self, i: int) -> Job:
        """Op ``i``: one op in :data:`WIDE_EVERY` takes the next wide
        job, the others the next narrow one."""
        if is_wide(i):
            return self.wide[(i // WIDE_EVERY) % len(self.wide)]
        if self.sequence is not None:
            return self.narrow[self.sequence[i % len(self.sequence)]]
        return self.narrow[(i - i // WIDE_EVERY) % len(self.narrow)]

    def census(self) -> list[Job]:
        return [j for j in self.narrow if j.census]


@dataclass
class EditPlan:
    """A base program and the 1-line edits op ``i`` applies in turn."""

    base: str
    inputs: dict
    edits: list[tuple[int, str, bool]]  # (line index, new line, wide)


def seeded(workload: str, seed: int | str) -> random.Random:
    """The workload's RNG.  String seeding is stable across processes."""
    return random.Random(f"perfbench|{workload}|{seed}")


def census_rng(workload: str) -> random.Random:
    return seeded(workload, "census")


def log_grid(n: int, lo: float, hi: float,
             rng: random.Random | None = None) -> list[int]:
    """``n`` sizes log-spaced over ``[lo, hi]``, one per stratum: stratum
    midpoints without ``rng``, a uniform draw inside each stratum with
    it."""
    span = math.log(hi / lo)
    return [
        round(lo * math.exp(span * (i + (rng.random() if rng else 0.5)) / n))
        for i in range(n)
    ]


def balanced_order(n: int) -> list[int]:
    """``0..n-1`` in bit-reversed order, so that every prefix of the
    sequence spreads evenly over the strata."""
    bits = max(1, (n - 1).bit_length())
    return sorted(range(n), key=lambda j: f"{j:0{bits}b}"[::-1])


def progen_jobs(pseed: int, n_stmts: int, stratum: int, *,
                census: str | None = None,
                all_inputs: bool = False) -> list[Job]:
    """One progen program with default knobs but ``n_stmts``, under the
    legal optimized schema its stratum picks, on its first input vector
    (or on all of them)."""
    gp = generate(pseed, GenKnobs(n_stmts=n_stmts))
    # progen declares aliasing only through an ``alias (...)`` line, which
    # rules out the Schema 2 family (Section 3); cheaper than a parse
    legal = OPTIMIZED[1:] if "alias (" in gp.source else OPTIMIZED
    vectors = gp.inputs if all_inputs else gp.inputs[:1]
    return [
        Job(gp.source, legal[stratum % len(legal)], dict(ins),
            census=f"{census}.{k}" if census else None)
        for k, ins in enumerate(vectors)
    ]


def _balanced_sum(terms: list[str]) -> str:
    if len(terms) == 1:
        return terms[0]
    mid = len(terms) // 2
    return f"({_balanced_sum(terms[:mid])} + {_balanced_sum(terms[mid:])})"


def wide_expr(rng: random.Random, n_terms: int, names: list[str]) -> str:
    return _balanced_sum(
        [f"{rng.choice(names)} * {rng.randint(1, 9)}" for _ in range(n_terms)]
    )


def wide_jobs(rng: random.Random, count: int) -> list[Job]:
    """``count`` sum-of-products programs, terms stratified over
    ``[WIDE_MIN_TERMS, 9/8 of it]``, alternating ``memory_elim`` and
    ``schema2_opt``.  The eight inputs ``x0..x7`` are only read, so every
    multiply is enabled in the first cycle."""
    names = [f"x{i}" for i in range(8)]
    jobs = []
    for i, n in enumerate(
            log_grid(count, WIDE_MIN_TERMS, WIDE_MIN_TERMS * 9 // 8, rng)):
        src = f"y := {wide_expr(rng, n, names)};\n"
        inputs = {x: rng.randint(-8, 9) for x in names}
        jobs.append(Job(src, ("memory_elim", "schema2_opt")[i % 2], inputs,
                        wide=True))
    return jobs


# -- per-workload plans ------------------------------------------------------

#: strata of the compile-cold population; two in three are census, which
#: keeps the seeded programs' spread of compile costs from moving the
#: median by more than a few percent
COLD_STRATA = 112


def plan_compile_cold(seed: int, smoke: bool) -> Plan:
    """Progen programs with top-level statements log-spaced over 8..128,
    one per stratum, visited in :func:`balanced_order` so that every run's
    ops spread evenly over the sizes."""
    n, n_wide = (6, 1) if smoke else (COLD_STRATA, 6)
    rng, crng = seeded("compile_cold", seed), census_rng("compile_cold")
    jitter = log_grid(n, 8, 128, rng)
    jobs = []
    for j, mid in enumerate(log_grid(n, 8, 128)):
        if j % 3 != 2:
            jobs += progen_jobs(crng.randrange(1 << 30), mid, j,
                                census=f"c{j}")
        else:
            jobs += progen_jobs(rng.randrange(1 << 30), jitter[j], j)
    narrow = [jobs[j] for j in balanced_order(n)]
    return Plan(narrow, wide_jobs(rng, n_wide))


def plan_sim_warm(seed: int, smoke: bool) -> Plan:
    """The bench corpus under every legal schema and input set (the
    census), default-knob progen programs, and wide programs."""
    rng = seeded("sim_warm", seed)
    corpus = CORPUS[:3] if smoke else CORPUS
    narrow = [
        Job(w.source, schema, dict(ins), census=f"{w.name}/{schema}/{k}")
        for w in corpus
        for schema in legal_schemas(w.source)
        for k, ins in enumerate(w.inputs)
    ]
    n_progen, n_wide = (2, 1) if smoke else (16, 12)
    for j in range(n_progen):
        narrow += progen_jobs(rng.randrange(1 << 30), GenKnobs().n_stmts, j,
                              all_inputs=True)
    rng.shuffle(narrow)
    return Plan(narrow, wide_jobs(rng, n_wide))


#: Zipf exponent and population of the serving workload
ZIPF_S = 1.1
SERVE_PROGRAMS = 1000
SERVE_CENSUS = 32
SERVE_DRAWS = 2000


def plan_serve_zipf(seed: int, smoke: bool) -> Plan:
    """Zipf(1.1) draws over small progen programs (4..16 top-level
    statements).  The census programs hold the hottest ranks, so the
    cache hits that set the median come from the same programs on every
    seed; the seed draws the other ranks' programs and the sequence.
    Only programs that are drawn, plus the census, are generated."""
    n_programs, n_census, n_draws, n_wide = (
        (40, 4, 60, 1) if smoke
        else (SERVE_PROGRAMS, SERVE_CENSUS, SERVE_DRAWS, 6)
    )
    rng, crng = seeded("serve_zipf", seed), census_rng("serve_zipf")
    # (program seed, size) per rank
    ranks = [(crng.randrange(1 << 30), crng.randint(4, 16))
             for _ in range(n_census)]
    ranks += [(rng.randrange(1 << 30), rng.randint(4, 16))
              for _ in range(n_programs - n_census)]
    weights = [r ** -ZIPF_S for r in range(1, n_programs + 1)]
    draws = rng.choices(range(n_programs), weights=weights, k=n_draws)
    wanted = sorted(set(draws) | set(range(n_census)))
    narrow = [
        progen_jobs(*ranks[r], r, census=f"s{r}" if r < n_census else None)[0]
        for r in wanted
    ]
    index = {r: k for k, r in enumerate(wanted)}
    return Plan(narrow, wide_jobs(rng, n_wide),
                sequence=[index[r] for r in draws])


#: giant-program size and the number of census edits at the head of
#: every edit sequence
EDIT_STMTS = 100
EDIT_CENSUS = 16
EDIT_SCHEMA = "memory_elim"
#: one edit in this many is wide.  Garbage-collector pauses on the growing
#: heap land on random ops, so the wide median needs more samples per run
#: than one op in :data:`WIDE_EVERY` gives.
EDIT_WIDE_EVERY = 10

_DATA_ASSIGN = re.compile(r"^(\s*)(v\d+) := .*;$")


def plan_edit_recompile(seed: int, smoke: bool,
                        max_edits: int) -> EditPlan:
    """One seed-independent ``GenKnobs.giant`` program, its variable order
    pinned by ``with_declared_variables``, and a sequence of 1-line edits
    to data-variable assignments (progen's loop counters are never
    edited, so every edit terminates).  The first :data:`EDIT_CENSUS`
    edits come from the census RNG, the rest from ``--seed``.  Wide op
    ``i`` (one in :data:`EDIT_WIDE_EVERY`) pastes a wide sum of products
    into one fixed assignment and op ``i + 1`` edits that line back to a
    narrow expression."""
    crng = census_rng("edit_recompile")
    gp = generate(crng.randrange(1 << 30),
                  GenKnobs.giant(80 if smoke else EDIT_STMTS))
    base = pretty(parse(gp.source).with_declared_variables())
    lines = base.split("\n")
    sites = [k for k, line in enumerate(lines) if _DATA_ASSIGN.match(line)]
    names = sorted({_DATA_ASSIGN.match(lines[k]).group(2) for k in sites})
    wide_site = crng.choice(sites)
    rng = seeded("edit_recompile", seed)
    edits = []
    for i in range(max_edits):
        r = crng if i < EDIT_CENSUS else rng
        wide = is_wide(i, EDIT_WIDE_EVERY)
        if wide or (i and is_wide(i - 1, EDIT_WIDE_EVERY)):
            site = wide_site
        else:
            site = r.choice(sites)
        indent, lhs = _DATA_ASSIGN.match(lines[site]).groups()
        if wide:
            rhs = wide_expr(r, r.randint(WIDE_MIN_TERMS,
                                         WIDE_MIN_TERMS * 9 // 8), names)
        else:
            rhs = r.choice([
                f"{r.choice(names)} + {r.randint(0, 9)}",
                f"{r.choice(names)} - {r.randint(0, 9)}",
                f"{r.choice(names)} + {r.choice(names)}",
                str(r.randint(-8, 9)),
            ])
        edits.append((site, f"{indent}{lhs} := {rhs};", wide))
    return EditPlan(base, dict(gp.inputs[0]), edits)
