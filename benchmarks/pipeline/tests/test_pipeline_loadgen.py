"""The load generator against a fake server that stalls once."""

import asyncio
import json
import threading
import time

import loadgen


class FakeServer:
    """A JSON-lines server on its own thread and event loop.

    It answers ``act`` with ``n`` empty decisions and ``flush`` with the
    running total.  On the ``stall_at``-th ask it blocks its whole loop
    for ``stall`` seconds, as a synchronous flush would.
    """

    def __init__(self, stall_at: int = 0, stall: float = 0.0) -> None:
        self.stall_at = stall_at
        self.stall = stall
        self.asks = 0
        self.decisions = 0
        self.stalled = (0.0, 0.0)
        self.loop = asyncio.new_event_loop()
        self.ready = threading.Event()
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()
        assert self.ready.wait(5)

    def _serve(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.server = self.loop.run_until_complete(
            asyncio.start_server(self._handle, "127.0.0.1", 0)
        )
        self.port = self.server.sockets[0].getsockname()[1]
        self.ready.set()
        self.loop.run_forever()

    async def _handle(self, reader, writer) -> None:
        while True:
            line = await reader.readline()
            if not line:
                break
            request = json.loads(line)
            if request["op"] == "act":
                self.asks += 1
                if self.asks == self.stall_at:
                    began = time.perf_counter()
                    time.sleep(self.stall)
                    self.stalled = (began, time.perf_counter())
                self.decisions += request["n"]
                response = {"ok": True, "decisions": [{}] * request["n"]}
            else:
                response = {"ok": True, "flush": {"total": self.decisions}}
            writer.write(json.dumps(response).encode() + b"\n")
            await writer.drain()
        writer.close()

    def close(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()


async def _connect(port: int, n: int = 2) -> list:
    return [await loadgen.Connection.open("127.0.0.1", port) for _ in range(n)]


async def _open_loop(port: int, **kwargs):
    conns = await _connect(port)
    try:
        return await loadgen.open_loop(conns, **kwargs)
    finally:
        for conn in conns:
            await conn.close()


def test_a_stall_shows_in_the_asks_due_during_it():
    stall = 0.25
    server = FakeServer(stall_at=30, stall=stall)
    try:
        result = asyncio.run(
            _open_loop(server.port, rate=3200.0, ask=32, seconds=1.0,
                       flush_every=0.0)
        )
    finally:
        server.close()
    assert len(result.asks) == 100
    assert all(ask.ok for ask in result.asks)
    began, ended = server.stalled
    assert ended - began >= stall
    before = [a for a in result.asks if a.done < began]
    during = [a for a in result.asks if began + 0.01 < a.due < ended - 0.01]
    assert before and during
    # Asks answered before the stall were served promptly ...
    assert max(a.latency for a in before) < 0.1
    # ... and every ask due during it waited at least until it ended,
    # counted from when it was due, though the generator sent it on time.
    for ask in during:
        assert ask.latency >= ended - ask.due - 0.005
        assert ask.late < 0.05
    assert max(a.latency for a in result.asks) >= stall - 0.05


def test_open_loop_sends_flushes_on_schedule():
    server = FakeServer()
    try:
        result = asyncio.run(
            _open_loop(server.port, rate=3200.0, ask=32, seconds=0.5,
                       flush_every=0.1)
        )
    finally:
        server.close()
    assert len(result.flushes) == 4
    assert all(f.response["ok"] for f in result.flushes)
    assert result.acked == 50 * 32


def test_closed_loop_bursts_end_with_a_flush_covering_them():
    server = FakeServer()

    async def drive():
        conns = await _connect(server.port)
        try:
            return await loadgen.closed_loop(conns, ask=32, depth=4,
                                             burst=32 * 40, bursts=1)
        finally:
            for conn in conns:
                await conn.close()

    try:
        bursts = asyncio.run(drive())
    finally:
        server.close()
    assert len(bursts) == 1
    assert bursts[0].decisions == 32 * 40
    assert bursts[0].failed == 0
    assert bursts[0].flush == {"total": 32 * 40}
