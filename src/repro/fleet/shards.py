"""Backend shard processes: spawn, watch, respawn.

Each shard is a full :mod:`repro.service` server (``python -m repro
serve``) in its own OS process with its own event loop, engine executor,
and shard-local :class:`~repro.engine.cache.GraphCache` — the unit the
router consistent-hashes jobs onto.  Running shards as real processes
(not threads) is the point: N shards scale across N cores past the GIL,
and a shard crash — up to and including ``kill -9`` — is a torn socket
the router can detect, not a corrupted address space.

The supervisor policy lives in the router; this module only knows how
to start a shard, tell whether it is alive, and start it again on the
same socket path (respawn keeps ring placement stable: the shard's
identity is its index, not its pid).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path


class ShardProcess:
    """One backend server subprocess bound to a fixed UNIX socket path."""

    def __init__(
        self,
        index: int,
        socket_path: str,
        *,
        max_queue: int = 64,
        max_batch: int = 8,
        pool_size: int = 1,
        cache_dir: str | None = None,
        log_path: str | None = None,
        snapshot_dir: str | None = None,
        snapshot_interval_s: float = 0.0,
    ):
        self.index = index
        self.socket_path = socket_path
        self.max_queue = max_queue
        self.max_batch = max_batch
        self.pool_size = pool_size
        self.cache_dir = cache_dir
        self.log_path = log_path
        self.snapshot_dir = snapshot_dir
        self.snapshot_interval_s = snapshot_interval_s
        self.proc: subprocess.Popen | None = None
        self.spawns = 0  # total spawns; spawns - 1 == respawns

    # -- lifecycle --------------------------------------------------------

    def _argv(self) -> list[str]:
        argv = [
            sys.executable, "-m", "repro", "serve",
            "--socket", self.socket_path,
            "--max-queue", str(self.max_queue),
            "--max-batch", str(self.max_batch),
            "--jobs", str(self.pool_size),
        ]
        if self.cache_dir is not None:
            argv += ["--cache-dir", self.cache_dir]
        if self.snapshot_dir is not None:
            argv += ["--snapshot-dir", self.snapshot_dir,
                     "--snapshot-interval", str(self.snapshot_interval_s)]
        return argv

    def spawn(self) -> None:
        """Start (or restart) the shard server on its socket path."""
        if self.alive:
            raise RuntimeError(f"shard {self.index} is already running")
        # a kill -9'd server cannot unlink its socket; a stale path would
        # make the respawned server fail to bind
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass
        env = dict(os.environ)
        # the shard must import the same repro tree the router runs from,
        # regardless of the caller's cwd or install mode
        pkg_root = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = pkg_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        log = (
            open(self.log_path, "ab")
            if self.log_path is not None
            else subprocess.DEVNULL
        )
        try:
            self.proc = subprocess.Popen(
                self._argv(),
                stdout=log,
                stderr=log if self.log_path is not None else subprocess.DEVNULL,
                stdin=subprocess.DEVNULL,
                env=env,
            )
        finally:
            if self.log_path is not None:
                log.close()
        self.spawns += 1

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    @property
    def pid(self) -> int | None:
        return self.proc.pid if self.proc is not None else None

    # -- teardown ---------------------------------------------------------

    def terminate(self) -> None:
        """SIGTERM — the server's signal handler runs a graceful drain."""
        if self.alive:
            self.proc.terminate()

    def kill(self) -> None:
        """SIGKILL — the crash the failure tests simulate."""
        if self.alive:
            self.proc.send_signal(signal.SIGKILL)

    def wait(self, timeout: float | None = None) -> int | None:
        """Blocking wait for exit (call off the event loop); ``None`` if
        the process is still up after ``timeout``."""
        if self.proc is None:
            return None
        try:
            return self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            return None

    def reap(self, timeout: float = 10.0) -> None:
        """Terminate, escalate to kill, and always collect the zombie."""
        if self.proc is None:
            return
        self.terminate()
        if self.wait(timeout) is None:
            self.kill()
            self.wait(5.0)
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass
