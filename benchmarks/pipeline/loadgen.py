"""Open- and closed-loop load over the policy server's JSON-lines protocol.

Each :class:`Connection` is pipelined: requests are written without
waiting, and the server answers one connection's requests in order, so
responses are matched to requests first in, first out.

The open loop sends on a fixed schedule whatever the server does, so a
stall queues up the asks due during it.  Every ask is timed from the
moment it was *due*, not from when the generator managed to send it, so
a stall counts against each ask it delayed; how late the generator ran
is recorded separately.  The closed loop keeps a fixed number of asks in
flight per connection and measures how fast decisions become durable.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional


class Connection:
    """One pipelined client connection."""

    def __init__(self, reader, writer) -> None:
        self._reader = reader
        self._writer = writer
        self._waiting: deque = deque()
        self._reading = asyncio.get_running_loop().create_task(self._read())

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    def request(self, payload: dict) -> asyncio.Future:
        """Send one op; the future resolves to ``(response, received_at)``."""
        future = asyncio.get_running_loop().create_future()
        self._waiting.append(future)
        self._writer.write(json.dumps(payload).encode() + b"\n")
        return future

    async def _read(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                received = time.perf_counter()
                future = self._waiting.popleft()
                if not future.done():
                    future.set_result((json.loads(line), received))
        finally:
            while self._waiting:
                future = self._waiting.popleft()
                if not future.done():
                    future.set_exception(
                        ConnectionError("server closed the connection")
                    )

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        await self._reading


@dataclass
class Ask:
    """One ``act`` ask: when it was due, sent and answered."""

    due: float
    sent: float
    n: int
    done: float = 0.0
    ok: bool = False

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def late(self) -> float:
        return self.sent - self.due


@dataclass
class Control:
    """One control op (flush or promote) and its response."""

    op: str
    sent: float
    done: float = 0.0
    response: Optional[dict] = None

    @property
    def seconds(self) -> float:
        return self.done - self.sent


async def control(conn: Connection, payload: dict) -> Control:
    """Send one control op and wait for its response, timing the round trip."""
    sent = time.perf_counter()
    response, done = await conn.request(payload)
    return Control(payload["op"], sent, done, response)


@dataclass
class OpenLoopResult:
    asks: list = field(default_factory=list)
    flushes: list = field(default_factory=list)

    @property
    def acked(self) -> int:
        return sum(ask.n for ask in self.asks if ask.ok)

    def extend(self, other: "OpenLoopResult") -> None:
        """Append the asks and flushes of a later open loop."""
        self.asks += other.asks
        self.flushes += other.flushes


def schedule(rate: float, ask: int, seconds: float, flush_every: float) -> list:
    """``(offset, kind)`` ask and flush events of an open loop, in order."""
    interval = ask / rate
    events = [(i * interval, "act") for i in range(int(seconds / interval))]
    if flush_every > 0:
        events += [
            (k * flush_every, "flush")
            for k in range(1, int(seconds / flush_every) + 1)
            if k * flush_every < seconds
        ]
    return sorted(events)


async def open_loop(
    conns: list,
    *,
    rate: float,
    ask: int,
    seconds: float,
    flush_every: float = 1.0,
) -> OpenLoopResult:
    """Send asks of ``ask`` decisions at ``rate`` decisions/s for ``seconds``.

    Asks alternate over ``conns``; a flush goes to connection 0 every
    ``flush_every`` seconds.
    """
    result = OpenLoopResult()
    pending: list = []

    def send_flush() -> None:
        flush = Control("flush", time.perf_counter())

        def done(future: asyncio.Future) -> None:
            if not future.cancelled() and future.exception() is None:
                flush.response, flush.done = future.result()

        future = conns[0].request({"op": "flush"})
        future.add_done_callback(done)
        result.flushes.append(flush)
        pending.append(future)

    start = time.perf_counter()
    turn = 0
    for offset, kind in schedule(rate, ask, seconds, flush_every):
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        if kind == "flush":
            send_flush()
            continue
        conn = conns[turn % len(conns)]
        turn += 1
        record = Ask(due=due, sent=time.perf_counter(), n=ask)
        future = conn.request({"op": "act", "n": ask})
        future.add_done_callback(_finish_ask(record))
        result.asks.append(record)
        pending.append(future)
    await asyncio.gather(*pending, return_exceptions=True)
    return result


def _finish_ask(record: Ask):
    def done(future: asyncio.Future) -> None:
        if future.cancelled() or future.exception() is not None:
            return
        response, record.done = future.result()
        record.ok = bool(response.get("ok")) and (
            len(response.get("decisions", ())) == record.n
        )

    return done


@dataclass
class Burst:
    """One closed-loop pass: a fixed count of decisions, then a flush."""

    seconds: float
    decisions: int
    failed: int
    flush: Optional[dict]


async def closed_loop(
    conns: list,
    *,
    ask: int,
    depth: int,
    burst: int,
    bursts: int,
) -> list:
    """Run ``bursts`` bursts of ``burst`` decisions each.

    Each connection keeps ``depth`` asks in flight.  A burst ends with a
    flush on connection 0, so its time covers making every decision in
    it durable.
    """
    done = []
    for _ in range(bursts):
        began = time.perf_counter()
        left = burst // ask
        acked = failed = 0

        async def worker(conn: Connection) -> None:
            nonlocal left, acked, failed
            in_flight: deque = deque()
            while left > 0 or in_flight:
                while left > 0 and len(in_flight) < depth:
                    left -= 1
                    in_flight.append(conn.request({"op": "act", "n": ask}))
                response, _ = await in_flight.popleft()
                if response.get("ok") and len(response["decisions"]) == ask:
                    acked += ask
                else:
                    failed += 1

        await asyncio.gather(*(worker(conn) for conn in conns))
        flush, _ = await conns[0].request({"op": "flush"})
        done.append(
            Burst(
                seconds=time.perf_counter() - began,
                decisions=acked,
                failed=failed + (0 if flush.get("ok") else 1),
                flush=flush.get("flush"),
            )
        )
    return done
