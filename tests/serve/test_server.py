"""Protocol tests for the TCP policy server.

Each test boots a real :class:`PolicyServer` on an ephemeral loopback
port, drives it with newline-delimited JSON over
``asyncio.open_connection``, and checks the response contract — ok
flags, op echoes, and the error envelope that keeps a malformed
request from taking the connection down.
"""

import asyncio
import json

from repro.core.policies import ConstantPolicy, UniformRandomPolicy
from repro.serve import DecisionService, GateConfig, PolicyServer

#: The dominant action on the 8-row synthetic pool (see test_gate).
GOOD_ACTION = 2


def make_server(tmp_path=None, **kwargs):
    service_kwargs = dict(
        pool_rows=8, seed=3, shard_size=128, config={"n_actions": 4}
    )
    if tmp_path is not None:
        service_kwargs["log_path"] = str(tmp_path / "serve.jsonl")
    service = DecisionService(
        "synthetic", UniformRandomPolicy(), **service_kwargs
    )
    return PolicyServer(service, **kwargs)


class Client:
    """One JSON-lines connection to the server under test."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def connect(cls, server):
        reader, writer = await asyncio.open_connection(
            server.host, server.port
        )
        return cls(reader, writer)

    async def call(self, **request):
        self.writer.write(json.dumps(request).encode() + b"\n")
        await self.writer.drain()
        line = await self.reader.readline()
        return json.loads(line)

    async def close(self):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


def run_with_server(scenario, tmp_path=None, **server_kwargs):
    """Boot a server, run ``scenario(server, client)``, tear down."""

    async def main():
        server = make_server(tmp_path, **server_kwargs)
        await server.start()
        client = await Client.connect(server)
        try:
            return await scenario(server, client)
        finally:
            await client.close()
            await server.stop()

    return asyncio.run(main())


class TestBasicOps:
    def test_ping_and_act(self):
        async def scenario(server, client):
            ping = await client.call(op="ping")
            act = await client.call(op="act", n=5)
            return ping, act

        ping, act = run_with_server(scenario)
        assert ping == {"ok": True, "op": "ping", "served": 0}
        assert act["ok"] and act["op"] == "act"
        assert len(act["decisions"]) == 5
        assert act["policy_version"] == 1
        assert act["policy_name"] == "incumbent"
        assert [d["ordinal"] for d in act["decisions"]] == list(range(5))

    def test_act_default_n_is_one(self):
        async def scenario(server, client):
            return await client.call(op="act")

        response = run_with_server(scenario)
        assert len(response["decisions"]) == 1

    def test_stats_reflects_traffic(self):
        async def scenario(server, client):
            await client.call(op="act", n=7)
            return await client.call(op="stats")

        response = run_with_server(scenario)
        assert response["stats"]["served"] == 7
        assert response["stats"]["ledger"]["n"] == 7

    def test_flush_and_shutdown(self, tmp_path):
        async def scenario(server, client):
            await client.call(op="act", n=9)
            flush = await client.call(op="flush")
            down = await client.call(op="shutdown")
            await server.wait_closed()
            return flush, down

        flush, down = run_with_server(scenario, tmp_path)
        assert flush["flush"]["written"] == 9
        assert down == {"ok": True, "op": "shutdown", "served": 9}


class TestErrorEnvelope:
    def test_unknown_op_keeps_the_connection(self):
        async def scenario(server, client):
            bad = await client.call(op="frobnicate")
            good = await client.call(op="ping")
            return bad, good, server.service.errors

        bad, good, errors = run_with_server(scenario)
        assert bad == {
            "ok": False, "op": "frobnicate",
            "error": "unknown op 'frobnicate'",
        }
        assert good["ok"]
        assert errors == 1

    def test_malformed_json_keeps_the_connection(self):
        async def scenario(server, client):
            client.writer.write(b"this is not json\n")
            await client.writer.drain()
            bad = json.loads(await client.reader.readline())
            good = await client.call(op="ping")
            return bad, good

        bad, good = run_with_server(scenario)
        assert not bad["ok"]
        assert bad["op"] == "invalid"
        assert good["ok"]

    def test_op_failure_reports_not_crashes(self):
        async def scenario(server, client):
            return await client.call(op="shadow", name="ghost")

        response = run_with_server(scenario)
        assert not response["ok"]
        assert "ghost" in response["error"]


class TestCandidateOps:
    def test_register_needs_a_factory(self):
        async def scenario(server, client):
            return await client.call(
                op="register", name="greedy", policy="constant:2"
            )

        response = run_with_server(scenario)
        assert not response["ok"]
        assert "policy factory" in response["error"]

    def test_register_shadow_and_forced_swap(self):
        def factory(spec):
            kind, _, arg = spec.partition(":")
            assert kind == "constant"
            return ConstantPolicy(int(arg))

        async def scenario(server, client):
            registered = await client.call(
                op="register", name="greedy", policy="constant:2"
            )
            shadow = await client.call(op="shadow", name="greedy")
            await client.call(op="act", n=20)
            stopped = await client.call(op="shadow-stop", name="greedy")
            swapped = await client.call(op="swap", name="greedy")
            act = await client.call(op="act", n=4)
            return registered, shadow, stopped, swapped, act

        registered, shadow, stopped, swapped, act = run_with_server(
            scenario, policy_factory=factory
        )
        assert registered["candidate"]["name"] == "greedy"
        assert shadow["shadow"]["n"] == 0
        assert stopped["shadow"]["n"] == 20
        assert swapped["incumbent"]["name"] == "greedy"
        assert act["policy_name"] == "greedy"
        assert all(d["propensity"] == 1.0 for d in act["decisions"])

    def test_canary_lifecycle(self):
        async def scenario(server, client):
            server.service.register_candidate("greedy", ConstantPolicy(1))
            started = await client.call(
                op="canary", name="greedy", fraction=0.25
            )
            await client.call(op="act", n=12)
            stopped = await client.call(op="canary-stop")
            return started, stopped

        started, stopped = run_with_server(scenario)
        assert started["canary"]["name"] == "canary-greedy"
        assert stopped["canary"]["name"] == "greedy"
        assert stopped["canary"]["ordinals"] == [0, 12]

    def test_gate_reads_the_rows_flushed_at_its_start(self, tmp_path):
        # A second connection keeps acting and flushing while the gate
        # runs; the gate folds exactly the rows its own flush made
        # durable, never the ones appended after it started.
        async def scenario(server, client):
            service = server.service
            service.register_candidate("greedy", ConstantPolicy(GOOD_ACTION))
            for _ in range(16):
                await client.call(op="act", n=256)
            at_start = []
            start_gate = service.start_gate

            def recording_start(name, config):
                runner = start_gate(name, config)
                at_start.append(service.served)
                return runner

            service.start_gate = recording_start
            other = await Client.connect(server)
            gating = asyncio.Event()

            async def traffic():
                gating.set()
                for _ in range(200):
                    await other.call(op="act", n=256)
                    await other.call(op="flush")
                    if at_start and service.gate is None:
                        break

            task = asyncio.create_task(traffic())
            await gating.wait()
            promote = await client.call(op="promote", name="greedy")
            await task
            await other.close()
            return promote, at_start[0], service.served

        promote, at_start, served = run_with_server(
            scenario, tmp_path, gate_config=GateConfig(min_rows=256)
        )
        assert promote["decision"]["n"] == at_start
        assert served > at_start
        with open(tmp_path / "serve.jsonl", "rb") as handle:
            assert sum(1 for _ in handle) == served

    def test_promote_runs_the_gate_and_swaps(self, tmp_path):
        async def scenario(server, client):
            server.service.register_candidate(
                "greedy", ConstantPolicy(GOOD_ACTION)
            )
            await client.call(op="act", n=512)
            promote = await client.call(op="promote", name="greedy")
            act = await client.call(op="act", n=4)
            return promote, act

        promote, act = run_with_server(
            scenario, tmp_path, gate_config=GateConfig(min_rows=256)
        )
        assert promote["decision"]["promote"] is True
        assert promote["decision"]["n"] == 512
        assert act["policy_name"] == "greedy"
        assert all(
            d["action"] == GOOD_ACTION for d in act["decisions"]
        )


class TestAutoGate:
    def test_eval_every_gates_a_candidate_unprompted(self, tmp_path):
        # No promote op: the --eval-every loop gates the registered
        # candidate by itself, and stop() ends the loop.
        async def main():
            server = make_server(
                tmp_path, eval_every=0.1, gate_config=GateConfig(min_rows=256)
            )
            service = server.service
            service.register_candidate("greedy", ConstantPolicy(GOOD_ACTION))
            service.decide(4_096)
            service.flush()
            await server.start()
            loop_task = server._auto_gate
            try:
                for _ in range(600):
                    if service.gate_decisions:
                        break
                    await asyncio.sleep(0.05)
            finally:
                await server.stop()
            return service, loop_task

        service, loop_task = asyncio.run(main())
        assert service.gate_decisions
        decision = service.gate_decisions[0]
        assert decision.candidate == "greedy"
        assert decision.n == 4_096
        assert loop_task.done()
        assert service.errors == 0
