"""Host a FleetRouter on a background thread, shards and all.

Mirrors :mod:`repro.service.testing`: the router runs on a dedicated
event-loop thread in this process (fast to start, shares tracebacks),
while its shards are the real subprocesses — so fleet tests exercise
the actual multi-process topology, including ``kill -9``.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import os
import shutil
import tempfile
import threading
import time

from ..service.testing import _SUN_PATH_MAX
from .router import FleetConfig, FleetRouter


def ephemeral_fleet_dir() -> str:
    """A short-path scratch directory for the router socket, shard
    sockets, and shard logs (short so every socket path stays under the
    kernel's sun_path limit — see :mod:`repro.service.testing`)."""
    d = tempfile.mkdtemp(prefix="repro-fleet-")
    # longest tenant: <d>/shard-NN.sock — leave headroom for two digits
    if len(d.encode()) + len("/shard-99.sock") > _SUN_PATH_MAX:
        os.rmdir(d)
        d = tempfile.mkdtemp(prefix="rf-", dir="/tmp")
    return d


class FleetThread:
    """Run one router (plus its shard subprocesses) on an event-loop
    thread; ``start()`` blocks until the router socket listens and every
    shard link has connected."""

    def __init__(self, config: FleetConfig):
        self.config = config
        self.router: FleetRouter | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._thread = threading.Thread(target=self._main, daemon=True)

    def _main(self) -> None:
        async def body():
            self.router = FleetRouter(self.config)
            try:
                await self.router.start()
            except BaseException as exc:
                self._startup_error = exc
                self._ready.set()
                raise
            self._loop = asyncio.get_running_loop()
            self._ready.set()
            await self.router.serve_forever()

        try:
            asyncio.run(body())
        except BaseException as exc:
            if not self._ready.is_set():
                self._startup_error = exc
                self._ready.set()

    def start(self, timeout: float = 30.0) -> dict:
        t0 = time.monotonic()
        self._thread.start()
        if not self._ready.wait(timeout):
            raise TimeoutError("fleet router did not start listening in time")
        if self._startup_error is not None:
            raise RuntimeError(
                f"fleet failed to start: {self._startup_error!r}"
            )
        # the router listens as soon as it has spawned its shards, but a
        # shard still importing would show as down in stats and metrics
        connected = asyncio.run_coroutine_threadsafe(
            self._shards_connected(), self._loop
        )
        try:
            connected.result(max(0.0, timeout - (time.monotonic() - t0)))
        except concurrent.futures.TimeoutError:
            connected.cancel()
            self.stop()
            raise TimeoutError("fleet shards did not connect in time")
        return self.router.endpoint

    async def _shards_connected(self) -> None:
        await asyncio.gather(
            *(link.connected.wait() for link in self.router.links)
        )

    def stop(self, timeout: float = 60.0) -> None:
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.router.begin_shutdown)
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise TimeoutError("fleet did not drain and exit in time")
        # belt and braces: a startup failure can leave shards running
        if self.router is not None:
            for sp in self.router.shards:
                if sp.alive:
                    sp.reap()


@contextlib.contextmanager
def running_fleet(config: FleetConfig | None = None, **kwargs):
    """``with running_fleet(shards=2) as (endpoint, router): ...`` —
    endpoint kwargs feed straight into a ServiceClient, exactly like
    :func:`repro.service.testing.running_server`.

    With no explicit endpoint or socket_dir, everything (router socket,
    shard sockets, shard logs) lives in one ephemeral short-path
    directory removed on exit.
    """
    ephemeral_dir = None
    if config is None:
        if "socket_dir" not in kwargs:
            kwargs["socket_dir"] = ephemeral_fleet_dir()
            ephemeral_dir = kwargs["socket_dir"]
        if "path" not in kwargs and "port" not in kwargs:
            kwargs["path"] = os.path.join(kwargs["socket_dir"], "router.sock")
        config = FleetConfig(**kwargs)
    elif kwargs:
        raise TypeError("pass either a config or keyword fields, not both")
    host = FleetThread(config)
    endpoint = host.start()
    try:
        yield endpoint, host.router
    finally:
        host.stop()
        if ephemeral_dir is not None and ephemeral_dir not in (
            "/", "/tmp", tempfile.gettempdir()
        ):
            shutil.rmtree(ephemeral_dir, ignore_errors=True)
