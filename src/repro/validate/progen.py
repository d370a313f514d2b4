"""Grammar-directed random program generator.

Every program this module emits is *well-formed by construction* — it
parses, validates, and terminates:

* loops are bounded counting loops over fresh counter variables the rest
  of the program never assigns;
* backward gotos are guarded by fresh counters in properly nested
  regions (reducible), except for the deliberate **irreducible gadget**:
  a two-entry bounded cycle that exercises the paper's code-copying
  transform (``split_irreducible``);
* array subscripts are always ``(expr) % size`` — in bounds for any
  expression value;
* division and modulus are total in the language semantics, so no
  generated expression can trap.

Statements are emitted **one per line** (block braces on their own
lines), which is what lets :mod:`~repro.validate.reduce` shrink programs
by deleting line subsets and re-parsing.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, fields, replace

#: hard floor/ceiling applied to knob values parsed from the CLI so a typo
#: cannot ask for a gigabyte of source text (raised from 2000 for the
#: region compiler's giant-program legs: 100k statements is ~3 MB of
#: source, still harmless)
_MAX_STMTS = 100_000


@dataclass(frozen=True)
class GenKnobs:
    """Tunable generation knobs.  All randomness is derived from the seed
    passed to :func:`generate`; equal (seed, knobs) pairs yield equal
    programs and input vectors."""

    #: scalar variable pool (``v0..v{n-1}``); inputs range over these
    n_vars: int = 4
    #: top-level statement budget (structured + goto blocks)
    n_stmts: int = 10
    #: structured nesting depth (if/while inside if/while)
    max_depth: int = 2
    #: probability a goto block ends in a forward (cond or plain) goto
    goto_density: float = 0.4
    #: probability the program contains a two-entry irreducible cycle
    irreducible: float = 0.2
    #: probability the program declares arrays; also the per-statement
    #: weight of array reads/writes once declared
    array_ops: float = 0.3
    n_arrays: int = 1
    array_size: int = 8
    #: probability of an ``alias (…)`` declaration over the scalar pool
    #: (restricts the legal schema set to the Schema 3 family)
    alias_density: float = 0.2
    #: integer-literal range (inclusive) for expressions and inputs
    int_min: int = -8
    int_max: int = 9
    #: bound of every counting loop / counted backedge
    max_loop_iters: int = 4
    #: input vectors generated per program
    n_inputs: int = 2
    #: when nonzero, append a wide-fan-out gadget: one scalar consumed
    #: by this many strict two-input consumers in a single fan-out row
    #: (exercises the packed interpreter's wide fan-out rows; 0 keeps
    #: the generated stream byte-identical to earlier releases)
    fanout_width: int = 0
    #: when nonzero, bound every goto's reach (backedge regions and
    #: forward jumps) to this many blocks, keeping goto structure local —
    #: what giant generated programs need for the region compiler to
    #: find legal cuts.  0 (the default) leaves spans unbounded and the
    #: generated stream byte-identical to earlier releases.
    max_region_span: int = 0

    def __post_init__(self) -> None:
        if self.n_vars < 1:
            raise ValueError("n_vars must be >= 1")
        if not 0 < self.n_stmts <= _MAX_STMTS:
            raise ValueError(f"n_stmts must be in 1..{_MAX_STMTS}")
        if self.int_min > self.int_max:
            raise ValueError("int_min must be <= int_max")
        if self.array_size < 1 or self.n_arrays < 0:
            raise ValueError("bad array knobs")
        if self.max_loop_iters < 1:
            raise ValueError("max_loop_iters must be >= 1")
        if self.n_inputs < 1:
            raise ValueError("n_inputs must be >= 1")
        for name in ("goto_density", "irreducible", "array_ops",
                     "alias_density"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be a probability, got {v}")
        if self.max_region_span < 0:
            raise ValueError("max_region_span must be >= 0")

    @classmethod
    def giant(cls, n_stmts: int = 10_000) -> "GenKnobs":
        """Scaled preset for compile-throughput work: depth and variable
        pool grown with the statement budget, goto reach bounded by
        ``max_region_span`` so the multiresolution region compiler finds
        legal cuts in programs this size (unbounded spans would let one
        goto pin half the program into a single region)."""
        return replace(
            cls(),
            n_vars=8,
            n_stmts=n_stmts,
            max_depth=3,
            goto_density=0.2,
            max_region_span=6,
        )

    @classmethod
    def from_items(cls, items: list[str]) -> GenKnobs:
        """Build knobs from CLI ``k=v`` strings, e.g.
        ``["n_stmts=20", "irreducible=0.5"]``.  Values are coerced to the
        field's declared type; unknown names raise."""
        by_name = {f.name: f for f in fields(cls)}
        updates: dict = {}
        for item in items:
            name, sep, raw = item.partition("=")
            if not sep or name not in by_name:
                raise ValueError(
                    f"bad knob {item!r}: expected name=value with name in "
                    f"{sorted(by_name)}"
                )
            typ = by_name[name].type
            try:
                updates[name] = (
                    float(raw) if typ in ("float", float) else int(raw)
                )
            except ValueError:
                raise ValueError(f"bad knob value {item!r}") from None
        return replace(cls(), **updates)

    def describe(self) -> str:
        """Compact ``k=v`` rendering of the non-default knobs (all of
        them when none differ) — what regression headers record."""
        default = GenKnobs()
        diff = [
            f"{f.name}={getattr(self, f.name)}"
            for f in fields(self)
            if getattr(self, f.name) != getattr(default, f.name)
        ]
        return " ".join(diff) if diff else "defaults"


@dataclass(frozen=True)
class GeneratedProgram:
    """One generated program: its source text, the seed/knobs that made
    it, and the input vectors the oracle should run it under."""

    seed: int
    knobs: GenKnobs
    source: str
    inputs: tuple[dict, ...]

    @property
    def name(self) -> str:
        return f"gen{self.seed}"


def generate(seed: int, knobs: GenKnobs | None = None) -> GeneratedProgram:
    """Generate one well-formed program and its input vectors."""
    k = knobs or GenKnobs()
    # seed with a string: str seeding is deterministic across processes
    # (hash() of tuples is not, under hash randomization)
    rng = random.Random(f"repro.validate.progen|{seed}|{k}")
    scalars = [f"v{i}" for i in range(k.n_vars)]
    lines: list[str] = []

    arrays: list[tuple[str, int]] = []
    if k.n_arrays and rng.random() < k.array_ops:
        arrays = [(f"a{i}", k.array_size) for i in range(k.n_arrays)]
        decl = ", ".join(f"{name}[{size}]" for name, size in arrays)
        lines.append(f"array {decl};")
    if len(scalars) >= 2 and rng.random() < k.alias_density:
        group = rng.sample(scalars, rng.randint(2, min(3, len(scalars))))
        lines.append(f"alias ({', '.join(group)});")

    fresh = itertools.count()  # loop counters / backedge guards

    def literal() -> str:
        v = rng.randint(k.int_min, k.int_max)
        return f"({v})" if v < 0 else str(v)

    def expr(depth: int = 0) -> str:
        r = rng.random()
        if depth >= 2 or r < 0.3:
            return rng.choice(scalars) if rng.random() < 0.6 else literal()
        if arrays and r < 0.3 + k.array_ops * 0.3:
            name, size = rng.choice(arrays)
            return f"{name}[({expr(depth + 1)}) % {size}]"
        if r < 0.45:
            op = rng.choice(["-", "not"])
            return f"({op} {expr(depth + 1)})"
        op = rng.choice(["+", "-", "*", "/", "%", "+", "-", "*"])
        return f"({expr(depth + 1)} {op} {expr(depth + 1)})"

    def cond() -> str:
        op = rng.choice(["<", "<=", ">", ">=", "==", "!="])
        c = f"{rng.choice(scalars)} {op} {expr(1)}"
        if rng.random() < 0.2:
            glue = rng.choice(["and", "or"])
            c = f"{c} {glue} {rng.choice(scalars)} {op} {literal()}"
        return c

    def assign(indent: str) -> None:
        if arrays and rng.random() < k.array_ops:
            name, size = rng.choice(arrays)
            lines.append(
                f"{indent}{name}[({expr(1)}) % {size}] := {expr()};"
            )
        else:
            lines.append(f"{indent}{rng.choice(scalars)} := {expr()};")

    def structured(count: int, depth: int, indent: str) -> None:
        for _ in range(count):
            r = rng.random()
            if depth < k.max_depth and r < 0.18:
                c = f"c{next(fresh)}"
                lines.append(f"{indent}{c} := 0;")
                lines.append(
                    f"{indent}while {c} < "
                    f"{rng.randint(1, k.max_loop_iters)} do {{"
                )
                structured(rng.randint(1, 2), depth + 1, indent + "  ")
                lines.append(f"{indent}  {c} := {c} + 1;")
                lines.append(f"{indent}}}")
            elif depth < k.max_depth and r < 0.42:
                lines.append(f"{indent}if {cond()} then {{")
                structured(rng.randint(1, 2), depth + 1, indent + "  ")
                if rng.random() < 0.5:
                    lines.append(f"{indent}}} else {{")
                    structured(rng.randint(1, 2), depth + 1, indent + "  ")
                lines.append(f"{indent}}}")
            else:
                assign(indent)

    # -- goto section: labeled blocks, forward gotos, counted backedges --
    n_blocks = max(2, k.n_stmts // 3)
    regions: list[tuple[int, int]] = []
    for _ in range(rng.randint(0, max(1, int(n_blocks * k.goto_density)))):
        s = rng.randint(0, n_blocks - 2)
        if k.max_region_span:
            e = rng.randint(s + 1, min(s + k.max_region_span, n_blocks - 1))
        else:
            e = rng.randint(s + 1, n_blocks - 1)
        ok = True
        for rs, re_ in regions:
            disjoint = e < rs or re_ < s
            nested = (rs <= s and e <= re_) or (s <= rs and re_ <= e)
            if not (disjoint or nested) or e == re_:
                ok = False
                break
        if ok:
            regions.append((s, e))

    def forward_targets(b: int) -> list[int]:
        # a forward goto may not jump into a backedge region from outside
        # (that would add a second entry; irreducibility is injected only
        # by the dedicated gadget below)
        out = []
        hi = n_blocks
        if k.max_region_span:
            hi = min(hi, b + 1 + k.max_region_span)
        for t in range(b + 1, hi):
            if all(
                t == rs or not (rs < t <= re_) or (rs <= b <= re_)
                for rs, re_ in regions
            ):
                out.append(t)
        return out

    structured(max(1, k.n_stmts - n_blocks), 0, "")

    for b in range(n_blocks):
        lines.append(f"blk{b}: skip;")
        structured(rng.randint(1, 2), max(0, k.max_depth - 1), "")
        targets = forward_targets(b)
        if targets and rng.random() < k.goto_density:
            t = rng.choice(targets)
            if rng.random() < 0.6:
                lines.append(
                    f"if {cond()} then goto blk{t};"
                )
            elif all(re_ != b for _, re_ in regions):
                # unconditional jumps never originate at a region end —
                # they would dead-code the backedge guard
                lines.append(f"goto blk{t};")
        for rs, re_ in regions:
            if re_ == b:
                c = f"g{next(fresh)}"
                lines.append(f"{c} := {c} + 1;")
                lines.append(
                    f"if {c} < {rng.randint(1, k.max_loop_iters)} "
                    f"then goto blk{rs};"
                )

    if rng.random() < k.irreducible:
        # two-entry bounded cycle: fallthrough enters at irrA, the branch
        # at irrB; the A->B->A cycle is therefore irreducible and forces
        # the code-copying transform in every loop-aware schema
        g = f"g{next(fresh)}"
        v = rng.choice(scalars)
        lines.append(f"if {v} % 2 == 0 then goto irrB;")
        lines.append(f"irrA: {v} := {v} + 1;")
        lines.append(f"irrB: {g} := {g} + 1;")
        lines.append(f"if {g} < {rng.randint(2, k.max_loop_iters)} "
                     f"then goto irrA;")

    if k.fanout_width:
        # no rng draws unless enabled: default knobs must reproduce the
        # exact historical program stream for regression replay
        v = rng.choice(scalars)
        for i in range(k.fanout_width):
            lines.append(f"fan{i} := {v} + {i};")

    inputs = tuple(
        {v: rng.randint(k.int_min, k.int_max) for v in scalars}
        for _ in range(k.n_inputs)
    )
    return GeneratedProgram(
        seed=seed, knobs=k, source="\n".join(lines) + "\n", inputs=inputs
    )
