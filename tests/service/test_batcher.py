"""The flush loop's dispatch rule, driven without a server: a job that
finds the engine idle runs at once, jobs that arrive while a batch runs
form the next batches in arrival order, and ``close()`` drains.  Every
check counts event-loop turns or reads state; none reads a clock."""

import asyncio

import pytest

from repro.service import MicroBatcher


async def _turns(n: int = 5) -> None:
    """Give the event loop ``n`` turns (``sleep(0)`` arms no timer)."""
    for _ in range(n):
        await asyncio.sleep(0)


class _Engine:
    """A runner that records each batch and, while ``held``, keeps it in
    flight until :meth:`release`."""

    def __init__(self, held: bool = False):
        self.batches: list[list] = []
        self._free = asyncio.Event()
        if not held:
            self._free.set()

    async def __call__(self, batch: list) -> None:
        self.batches.append(list(batch))
        await self._free.wait()

    def release(self) -> None:
        self._free.set()


def test_lone_offer_on_an_idle_batcher_runs_at_once():
    async def body():
        engine = _Engine()
        b = MicroBatcher(engine, max_batch=8)
        task = asyncio.create_task(b.run())
        await _turns()
        assert b.offer("a")
        await _turns()
        assert engine.batches == [["a"]]
        # nothing waits for company: no timer is armed on the loop
        assert not asyncio.get_running_loop()._scheduled
        b.close()
        await task

    asyncio.run(body())


def test_offers_during_a_batch_form_the_next_batches_in_order():
    async def body():
        engine = _Engine(held=True)
        b = MicroBatcher(engine, max_batch=3, max_queue=16)
        task = asyncio.create_task(b.run())
        assert b.offer(0)
        await _turns()
        assert engine.batches == [[0]] and b.in_flight == 1
        for i in range(1, 8):
            assert b.offer(i)
        await _turns()
        # the engine is busy: everything offered since waits its turn
        assert engine.batches == [[0]] and b.depth == 7
        engine.release()
        await _turns(20)
        assert engine.batches == [[0], [1, 2, 3], [4, 5, 6], [7]]
        assert b.batches == 4 and b.depth == 0 and b.in_flight == 0
        b.close()
        await task

    asyncio.run(body())


def test_close_drains_everything_queued_then_refuses():
    async def body():
        engine = _Engine(held=True)
        b = MicroBatcher(engine, max_batch=2)
        task = asyncio.create_task(b.run())
        assert b.offer("a")
        await _turns()
        for item in "bcde":
            assert b.offer(item)
        b.close()
        assert not b.offer("late")
        engine.release()
        await task  # run() returns once closed and drained
        assert engine.batches == [["a"], ["b", "c"], ["d", "e"]]
        assert b.depth == 0 and b.in_flight == 0
        assert not b.offer("later")

    asyncio.run(body())


def test_close_on_an_idle_batcher_returns():
    async def body():
        engine = _Engine()
        b = MicroBatcher(engine)
        task = asyncio.create_task(b.run())
        await _turns()
        b.close()
        await task
        assert engine.batches == [] and b.batches == 0

    asyncio.run(body())


def test_offer_rejects_past_max_queue():
    async def body():
        engine = _Engine(held=True)
        b = MicroBatcher(engine, max_batch=1, max_queue=2)
        task = asyncio.create_task(b.run())
        assert b.offer("running")
        await _turns()
        # in-flight items do not count against max_queue; waiting ones do
        assert b.offer("q1") and b.offer("q2")
        assert not b.offer("overflow")
        assert b.depth == 2
        # a discarded item frees its slot
        assert b.discard("q1") and not b.discard("q1")
        assert b.offer("q3")
        engine.release()
        b.close()
        await task
        assert engine.batches == [["running"], ["q2"], ["q3"]]

    asyncio.run(body())


@pytest.mark.parametrize("kwargs", [{"max_batch": 0}, {"max_queue": 0}])
def test_bounds_must_be_positive(kwargs):
    async def body():
        with pytest.raises(ValueError):
            MicroBatcher(_Engine(), **kwargs)

    asyncio.run(body())
