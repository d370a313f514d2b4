"""Content-addressed compiled-graph cache.

Corpus sweeps (benches, differential suites, the CLI) compile the same
(program, schema) pairs over and over; compilation — lexing, CFG
construction, interval/loop decomposition, translation — is pure, so its
results are cacheable by content.

Keying rule: ``sha256(format-version \\0 source-text \\0 options
fingerprint)``.  The fingerprint (:meth:`CompileOptions.fingerprint`)
renders every option field, so any knob that can change the produced graph
changes the key; the format version is bumped whenever the pickled
:class:`CompiledProgram` layout changes, invalidating stale disk entries
wholesale.  Only plain source *text* is cacheable — pre-parsed ``Program``
objects bypass the cache (their identity is not content-addressed).

Entries are stored slim (:meth:`CompiledProgram.slim`): a lookup returns
the graph, streams, certificates and executable, not the CFG or the pass
context the compile worked on.

Two tiers:

* an in-memory LRU (per process, default 256 entries) serving repeated
  compiles in one sweep;
* an optional on-disk pickle store (``cache_dir``) shared across processes
  and sessions — written atomically (temp file + rename) so concurrent
  :func:`~repro.engine.batch.run_batch` workers can share one directory.

Corrupt or unreadable disk entries are treated as misses and overwritten;
a cache can therefore always be deleted safely.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from ..obs.trace import tracer
from ..translate.pipeline import CompiledProgram, CompileOptions, compile_program

#: bump when CompiledProgram's pickled layout changes incompatibly
#: (v2: CompiledProgram carries the lowered PackedGraph alongside the
#: source graph, so cached entries are run-ready without re-lowering;
#: v3: region-compiled entries — cfg=None, pass_log led by the
#: region_stitch certificate — share the store with monolithic ones;
#: v4: PackedGraph stores per-port fan-out tuples instead of CSR arrays;
#: v5: entries are slim and carry one executable memo, a PackedProgram,
#: plus the memory spec;
#: v6: PackedGraph drops its per-node describe strings for the loop ids)
CACHE_FORMAT = "repro-graph-cache-v6"

#: commit-point file of a cache snapshot directory (written atomically
#: *after* every entry, so a snapshot is either complete or invisible)
SNAPSHOT_MANIFEST = "manifest.json"


def graph_key(source: str, options: CompileOptions) -> str:
    """The content address of one (source text, compile options) pair."""
    h = hashlib.sha256()
    h.update(CACHE_FORMAT.encode())
    h.update(b"\0")
    h.update(source.encode())
    h.update(b"\0")
    h.update(options.fingerprint().encode())
    return h.hexdigest()


@dataclass
class CacheStats:
    """Hit/miss counters for one :class:`GraphCache`."""

    hits: int = 0  # in-memory LRU hits
    disk_hits: int = 0  # missed memory, loaded from the disk store
    misses: int = 0  # compiled from source
    evictions: int = 0
    disk_writes: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.disk_hits + self.misses

    def summary(self) -> str:
        return (
            f"{self.lookups} lookups: {self.hits} memory hits, "
            f"{self.disk_hits} disk hits, {self.misses} compiles"
        )


class GraphCache:
    """In-memory LRU + optional disk store of compiled programs.

    Thread-safe for lookups/inserts; safe to share a ``cache_dir``
    between processes (entries are written atomically and re-read
    entries are self-contained pickles).

    Lookups are *single-flight* per key: when several threads miss on
    the same key concurrently, one compiles and the rest wait for its
    result, so contention never multiplies compile work or disk writes.
    """

    def __init__(
        self,
        capacity: int = 256,
        cache_dir: str | os.PathLike | None = None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.stats = CacheStats()
        #: worker pool the region compiler fans cold region compiles out
        #: on; set by whoever owns a pool (run_batch, benches, the CLI)
        self.region_pool = None
        self._mem: OrderedDict[str, CompiledProgram] = OrderedDict()
        self._lock = threading.Lock()
        # single-flight: key -> event set when the leading lookup settles
        self._inflight: dict[str, threading.Event] = {}

    # -- lookup ----------------------------------------------------------

    def lookup(
        self, source: str, options: CompileOptions | None = None, **kwargs
    ) -> tuple[CompiledProgram, bool]:
        """Fetch-or-compile.  Returns ``(compiled, was_cached)`` where
        ``was_cached`` covers both the memory and disk tiers; either way
        ``compiled`` is the stored entry, so a later hit returns the same
        object."""
        if options is None:
            options = CompileOptions(**kwargs)
        elif kwargs:
            raise TypeError("pass either options= or keyword fields, not both")
        key = graph_key(source, options)
        while True:
            with self._lock:
                cp = self._mem.get(key)
                if cp is not None:
                    self._mem.move_to_end(key)
                    self.stats.hits += 1
                    return cp, True
                waiter = self._inflight.get(key)
                if waiter is None:
                    waiter = self._inflight[key] = threading.Event()
                    break
            # another thread is resolving this key: wait for it, then
            # re-check the memory tier (single-flight coalescing); if the
            # leader failed, the re-check misses and we become the leader
            with tracer.span("cache.coalesced_wait"):
                waiter.wait()
        try:
            cp = self._disk_read(key)
            if cp is not None:
                with self._lock:
                    self.stats.disk_hits += 1
                    self._remember(key, cp)
                return cp, True
            with tracer.span("cache.compile", schema=options.schema):
                cp = self._compile(source, options)
            with self._lock:
                self.stats.misses += 1
            return self._store(key, cp), False
        finally:
            with self._lock:
                self._inflight.pop(key, None)
            waiter.set()

    def get_or_compile(
        self, source: str, options: CompileOptions | None = None, **kwargs
    ) -> CompiledProgram:
        """:meth:`lookup` without the hit flag."""
        return self.lookup(source, options, **kwargs)[0]

    def peek(
        self, source: str, options: CompileOptions
    ) -> CompiledProgram | None:
        """Cache-only probe: memory tier, then disk — never compiles.
        Hits count in :attr:`stats`; a miss counts nothing (the caller
        decides how to resolve it)."""
        key = graph_key(source, options)
        with self._lock:
            cp = self._mem.get(key)
            if cp is not None:
                self._mem.move_to_end(key)
                self.stats.hits += 1
                return cp
        cp = self._disk_read(key)
        if cp is not None:
            with self._lock:
                self.stats.disk_hits += 1
                self._remember(key, cp)
        return cp

    def insert(
        self, source: str, options: CompileOptions, cp: CompiledProgram
    ) -> CompiledProgram:
        """Store an externally compiled program under its content
        address (both tiers) and return the stored entry.  Used by the
        region compiler to bank the regions it compiles."""
        return self._store(graph_key(source, options), cp)

    def _compile(self, source: str, options: CompileOptions):
        """Miss-path compile: region-partitioned (memoizing regions back
        into this cache, fanning out on :attr:`region_pool`) when the
        options ask for it, monolithic otherwise."""
        if options.region_compile != "off":
            from ..translate.regions import compile_with_regions

            return compile_with_regions(
                source, options, cache=self, pool=self.region_pool
            )
        return compile_program(source, options=options)

    # -- bookkeeping -----------------------------------------------------

    def _store(self, key: str, cp: CompiledProgram) -> CompiledProgram:
        """Bank ``cp`` slimmed in both tiers and return what was stored.
        An entry bound for disk is lowered first, so whatever reads it
        back gets it ready to run; a memory-only cache defers lowering
        to first use — packing a giant stitched graph costs seconds the
        warm incremental path shouldn't pay."""
        cp = cp.slim()
        if self.cache_dir is not None:
            with tracer.span("cache.pack"):
                cp.ensure_packed()
        with self._lock:
            self._remember(key, cp)
        self._disk_write(key, cp)
        return cp

    def _remember(self, key: str, cp: CompiledProgram) -> None:
        # caller holds the lock
        self._mem[key] = cp
        self._mem.move_to_end(key)
        while len(self._mem) > self.capacity:
            self._mem.popitem(last=False)
            self.stats.evictions += 1

    def _disk_path(self, key: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / key[:2] / f"{key}.pkl"

    def _disk_read(self, key: str) -> CompiledProgram | None:
        if self.cache_dir is None:
            return None
        return self._read_entry(self._disk_path(key))

    @classmethod
    def _read_entry(cls, path: Path) -> CompiledProgram | None:
        """Load one pickled entry.  Truncated, corrupt, or stale-format
        files are a miss, never an error: unlink them so a fresh write
        replaces them even if that write later fails."""
        try:
            with open(path, "rb") as f:
                cp = pickle.load(f)
        except FileNotFoundError:
            return None
        except (OSError, pickle.PickleError, EOFError, AttributeError,
                ImportError, IndexError, ValueError):
            cls._discard_corrupt(path)
            return None
        if not isinstance(cp, CompiledProgram):
            cls._discard_corrupt(path)
            return None
        return cp

    @staticmethod
    def _discard_corrupt(path: Path) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    @staticmethod
    def _write_entry(path: Path, cp: CompiledProgram) -> bool:
        """Atomic pickle write (temp file + rename); concurrent readers
        never see a partial file.  ``False`` on OSError — a read-only or
        full directory degrades, never raises."""
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=path.name, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as f:
                    pickle.dump(cp, f, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                finally:
                    raise
        except OSError:
            return False
        return True

    def _disk_write(self, key: str, cp: CompiledProgram) -> None:
        if self.cache_dir is None:
            return
        if not self._write_entry(self._disk_path(key), cp):
            return
        with self._lock:  # all CacheStats mutations are lock-protected
            self.stats.disk_writes += 1

    # -- snapshot / restore ----------------------------------------------

    def snapshot(self, snapshot_dir: str | os.PathLike) -> int:
        """Persist the in-memory tier to ``snapshot_dir`` so a restarted
        process can come up warm.

        Entries are written in the disk tier's layout
        (``<dir>/<key[:2]>/<key>.pkl``, atomic temp+rename, each entry
        lowered first so restored entries are run-ready); the manifest —
        the cache format and the entry keys — is written atomically
        **last** and is the commit point.  Old entry files are never
        deleted, so a crash — even ``kill -9`` — mid-snapshot leaves the
        previous manifest valid and pointing at complete files.

        Returns the number of entries the committed manifest lists, or
        0 when the manifest could not be written (snapshot unchanged).
        """
        root = Path(snapshot_dir)
        with self._lock:
            entries = list(self._mem.items())
        keys = []
        with tracer.span("cache.snapshot", entries=len(entries)):
            for key, cp in entries:
                try:
                    cp.ensure_packed()
                except Exception:
                    pass  # still restorable; first packed run re-lowers
                path = root / key[:2] / f"{key}.pkl"
                # entries are content-addressed and immutable: an
                # existing file is a complete previous write — skip it
                if path.exists() or self._write_entry(path, cp):
                    keys.append(key)
            manifest = {"format": CACHE_FORMAT, "keys": keys}
            try:
                root.mkdir(parents=True, exist_ok=True)
                fd, tmp = tempfile.mkstemp(
                    dir=root, prefix=SNAPSHOT_MANIFEST, suffix=".tmp"
                )
                try:
                    with os.fdopen(fd, "w", encoding="utf-8") as f:
                        json.dump(manifest, f)
                    os.replace(tmp, root / SNAPSHOT_MANIFEST)
                except BaseException:
                    try:
                        os.unlink(tmp)
                    finally:
                        raise
            except OSError:
                return 0
        return len(keys)

    def restore(self, snapshot_dir: str | os.PathLike) -> int:
        """Load a :meth:`snapshot` into the in-memory tier.

        Returns the number of entries loaded.  A missing, corrupt, or
        wrong-format manifest — or any unreadable entry — degrades to a
        cold start (0 / skipped entry), never an error.
        """
        root = Path(snapshot_dir)
        try:
            manifest = json.loads(
                (root / SNAPSHOT_MANIFEST).read_text(encoding="utf-8")
            )
        except (OSError, ValueError):
            return 0
        if (
            not isinstance(manifest, dict)
            or manifest.get("format") != CACHE_FORMAT
        ):
            return 0
        keys = manifest.get("keys")
        if not isinstance(keys, list):
            keys = []
        loaded = 0
        with tracer.span("cache.restore", keys=len(keys)):
            for key in keys:
                if not isinstance(key, str) or not key:
                    continue
                cp = self._read_entry(root / key[:2] / f"{key}.pkl")
                if cp is None:
                    continue
                with self._lock:
                    self._remember(key, cp)
                loaded += 1
        return loaded

    # -- management ------------------------------------------------------

    def clear(self, disk: bool = False) -> None:
        """Drop the in-memory tier (and, with ``disk=True``, disk entries
        plus any ``*.tmp`` orphans an interrupted atomic write left)."""
        with self._lock:
            self._mem.clear()
        if disk and self.cache_dir is not None and self.cache_dir.exists():
            for sub in self.cache_dir.iterdir():
                if sub.is_dir() and len(sub.name) == 2:
                    for pattern in ("*.pkl", "*.tmp"):
                        for entry in sub.glob(pattern):
                            try:
                                entry.unlink()
                            except OSError:
                                pass

    def __len__(self) -> int:
        return len(self._mem)
