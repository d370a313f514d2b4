"""Span recording for traced runs.

A traced run wraps the calls into each layer's public functions in spans
recorded here, in the benchmark's own code: the program under test is
not changed.  Spans (op id, name, parent, start, end, self time) stay in
memory and are written out when the run ends.  A span's *self* time is
its duration minus the durations of its direct children.

Untraced runs use :class:`NullSpans`, whose calls do nothing, so the
timed code path is the same in both modes.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import defaultdict

#: (module or class path, attribute, span name) of every wrapped call.
#: ``GraphCache.lookup`` is named by the options it is called with: a
#: region-compiled lookup is the region compiler's entry point.
HOOKS = (
    ("repro.lang.parser", "tokenize", "lang.lex"),
    ("repro.translate.pipeline", "parse", "lang.parse"),
    ("repro.translate.regions", "parse", "lang.parse"),
    ("repro.translate.pipeline", "build_cfg", "cfg.build"),
    ("repro.translate.passes:IntervalPass", "run", "cfg.intervals"),
    ("repro.translate.passes:SwitchPlacementPass", "run",
     "translate.switch_placement"),
    ("repro.translate.passes:SourceVectorPass", "run",
     "translate.source_vectors"),
    ("repro.translate.passes:ConstructPass", "run", "translate.construct"),
    ("repro.translate.regions", "plan_regions", "regions.plan"),
    ("repro.engine.cache:GraphCache", "lookup", "engine.lookup"),
    ("repro.translate.pipeline:CompiledProgram", "ensure_packed",
     "machine.pack"),
)


def _counts(name: str, args: tuple, out) -> dict:
    """Counts read at a wrapped call: tokens lexed, CFG nodes built,
    streams wired, source-vector entries from the pass certificate."""
    if name == "lang.lex":
        return {"lang.tokens": len(out)}
    if name == "cfg.build":
        return {"cfg.nodes": len(out.nodes)}
    if name == "translate.source_vectors":
        return {"translate.sv_entries": out[1].get("sites", 0)}
    if name == "translate.construct":
        return {"translate.streams": len(args[1].streams)}
    return {}


def _span_name(name: str, args: tuple, kwargs: dict) -> str:
    if name == "engine.lookup":
        options = kwargs.get("options", args[2] if len(args) > 2 else None)
        if getattr(options, "region_compile", "off") != "off":
            return "regions.lookup"
    return name


def _resolve(path: str):
    module, _, cls = path.partition(":")
    obj = __import__(module, fromlist=["_"])
    return getattr(obj, cls) if cls else obj


class NullSpans:
    """The untraced recorder."""

    def op(self, op_id: int):
        return contextlib.nullcontext()

    def span(self, name: str):
        return contextlib.nullcontext()

    def add(self, name: str, value: float) -> None:
        pass

    def record(self, op_id, name, start, end) -> None:
        pass

    def install(self) -> None:
        pass

    def uninstall(self) -> None:
        pass


class Spans(NullSpans):
    """In-memory recorder for one single-threaded traced run."""

    def __init__(self):
        self.records: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.totals: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [name, start, child seconds]
        self._op: int | None = None
        self._patched: list[tuple] = []

    @contextlib.contextmanager
    def op(self, op_id: int):
        self._op = op_id
        try:
            with self.span("op"):
                yield
        finally:
            self._op = None

    @contextlib.contextmanager
    def span(self, name: str):
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - frame[1]
            parent = self._stack[-1] if self._stack else None
            if parent is not None:
                parent[2] += dur
            self.self_s[name] += dur - frame[2]
            self.records.append((self._op, name, parent and parent[0],
                                 frame[1], end, dur - frame[2]))

    def record(self, op_id, name, start, end) -> None:
        """A span timed elsewhere (concurrent client calls)."""
        self.self_s[name] += end - start
        self.records.append((op_id, name, None, start, end, end - start))

    def add(self, name: str, value: float) -> None:
        self.totals[name] += value

    # -- wrapping the layers' public calls --------------------------------

    def install(self) -> None:
        for path, attr, name in HOOKS:
            try:
                owner = _resolve(path)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                print(f"# perfbench: no {path}.{attr}; {name} reads 0",
                      file=sys.stderr)
                continue
            setattr(owner, attr, self._wrap(original, name))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str):
        spans = self

        def wrapper(*args, **kwargs):
            with spans.span(_span_name(name, args, kwargs)):
                out = fn(*args, **kwargs)
            for key, value in _counts(name, args, out).items():
                spans.add(key, value)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for op_id, name, parent, start, end, self_s in self.records:
                f.write(json.dumps({
                    "op": op_id, "name": name, "parent": parent,
                    "start": start, "end": end, "self_ms": self_s * 1e3,
                }) + "\n")
