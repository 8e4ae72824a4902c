"""The service daemon: cache hits, dedup, sweep sharding, HTTP API.

Most tests drive :class:`repro.service.server.Server` directly inside
``asyncio.run`` (workers=0 executes points inline — no fork pool needed
for correctness tests).  The HTTP tests boot the real asyncio server in
a background thread and talk to it through the blocking client, the same
path ``repro submit`` and the CI smoke job use.
"""

import asyncio
import json
import threading
import time

import pytest

from repro.config import MachineConfig
from repro.service.client import Client, ServiceError
from repro.service.server import Server


def job_spec(**overrides):
    spec = {
        "type": "run",
        "op": "scatter_add",
        "indices": [1, 2, 2, 3],
        "values": 1.0,
        "num_targets": 5,
        "sim": {"config": MachineConfig.uniform().to_dict()},
    }
    spec.update(overrides)
    return spec


def canonical(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def run_scenario(tmp_path, scenario):
    """Run `scenario(server)` against a fresh workers=0 server."""
    async def main():
        server = Server(tmp_path / "cache", workers=0)
        try:
            return await scenario(server)
        finally:
            await server.close()

    return asyncio.run(main())


class TestSubmit:
    def test_identical_job_simulates_exactly_once(self, tmp_path):
        async def scenario(server):
            first = await server.submit(job_spec())
            second = await server.submit(job_spec())
            return first, second, server.stats()

        first, second, stats = run_scenario(tmp_path, scenario)
        assert first["status"] == "done"
        assert not first["cached"]
        assert second["status"] == "done"
        assert second["cached"]
        run = first["result"]["run"]
        # The cached payload is byte-identical to the simulated one.
        assert canonical(second["result"]["run"]) == canonical(run)
        assert second["key"] == first["key"]
        # The engine-cycle ledger proves only one simulation happened.
        assert stats["simulations"] == 1
        assert stats["simulated_cycles"] == run["cycles"]
        assert stats["cache"] == {"hits": 1, "misses": 1, "corrupt": 0,
                                  "entries": 1}

    def test_concurrent_identical_jobs_dedup_in_flight(self, tmp_path):
        async def scenario(server):
            responses = await asyncio.gather(server.submit(job_spec()),
                                             server.submit(job_spec()))
            return responses, server.stats()

        (first, second), stats = run_scenario(tmp_path, scenario)
        assert stats["simulations"] == 1
        assert stats["jobs_deduped"] == 1
        deduped = second if second["deduped"] else first
        joined = first if second["deduped"] else second
        assert deduped["id"] == joined["id"]
        assert canonical(first["result"]["run"]) == canonical(
            second["result"]["run"])

    def test_bad_spec_raises_job_error(self, tmp_path):
        from repro.service.schema import JobError

        async def scenario(server):
            with pytest.raises(JobError, match="unknown op"):
                await server.submit(job_spec(op="scatter_div"))
            return server.stats()

        stats = run_scenario(tmp_path, scenario)
        assert stats["simulations"] == 0

    def test_corrupt_entry_recomputed(self, tmp_path):
        async def scenario(server):
            first = await server.submit(job_spec())
            path = server.cache.path(first["key"])
            with open(path) as handle:
                blob = handle.read()
            with open(path, "w") as handle:
                handle.write(blob[: len(blob) // 2])
            second = await server.submit(job_spec())
            third = await server.submit(job_spec())
            return first, second, third, server.stats()

        first, second, third, stats = run_scenario(tmp_path, scenario)
        assert not second["cached"]  # corrupt entry did not serve
        assert third["cached"]       # recomputed entry does
        assert stats["simulations"] == 2
        assert stats["cache"]["corrupt"] == 1
        assert canonical(first["result"]["run"]) == canonical(
            third["result"]["run"])

    def test_event_log_records_lifecycle(self, tmp_path):
        async def scenario(server):
            response = await server.submit(
                job_spec(sim={"config": MachineConfig.uniform().to_dict(),
                              "sample_every": 16}))
            job = server.store.get(response["id"])
            return response, job.events

        response, events = run_scenario(tmp_path, scenario)
        types = [event["type"] for event in events]
        assert types[0] == "queued"
        assert types[1] == "started"
        assert types[-1] == "done"
        assert events[0]["job_type"] == "run"
        timelines = [event for event in events if event["type"] == "timeline"]
        assert timelines  # sampled runs stream one event per window
        assert {"window", "cycle", "values"} <= set(timelines[0])


class TestSweeps:
    def test_sweep_shards_into_cached_points(self, tmp_path):
        sweep = job_spec(type="sweep", field="uniform_latency",
                         points=[16, 32])

        async def scenario(server):
            first = await server.submit(sweep)
            repeat = await server.submit(sweep)
            config16 = MachineConfig.uniform().with_changes(
                uniform_latency=16)
            point = await server.submit(
                job_spec(sim={"config": config16.to_dict()}))
            return first, repeat, point, server.stats()

        first, repeat, point, stats = run_scenario(tmp_path, scenario)
        result = first["result"]
        assert result["kind"] == "sweep"
        assert result["field"] == "uniform_latency"
        assert [row["uniform_latency"] for row in result["rows"]] == [16, 32]
        assert result["points_cached"] == 0
        assert all(row["cycles"] > 0 for row in result["rows"])
        # Repeating the sweep simulates nothing new.
        assert repeat["result"]["points_cached"] == 2
        assert stats["simulations"] == 2
        # A single-run job matching one design point shares its entry.
        assert point["cached"]
        assert point["key"] == result["rows"][0]["key"]
        assert stats["points_completed"] == 4

    def test_grid_sweep_rows_in_row_major_order(self, tmp_path):
        grid = job_spec(type="grid_sweep",
                        fields={"uniform_latency": [16, 32],
                                "uniform_interval": [1, 2]})

        async def scenario(server):
            return await server.submit(grid)

        response = run_scenario(tmp_path, scenario)
        result = response["result"]
        assert result["kind"] == "grid_sweep"
        assert result["fields"] == ["uniform_latency", "uniform_interval"]
        assert [(row["uniform_latency"], row["uniform_interval"])
                for row in result["rows"]] == [
            (16, 1), (16, 2), (32, 1), (32, 2)]
        assert len({row["key"] for row in result["rows"]}) == 4


# ---------------------------------------------------------------------- #
# HTTP layer
# ---------------------------------------------------------------------- #
class _ServiceThread:
    """The asyncio server on an ephemeral port in a background thread."""

    def __init__(self, cache_dir):
        self.server = Server(cache_dir, workers=0)
        self.loop = asyncio.new_event_loop()
        self.port = None
        self._ready = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("service thread never became ready")

    def _run(self):
        asyncio.set_event_loop(self.loop)

        async def bind():
            _, self.port = await self.server.start("127.0.0.1", 0)
            self._ready.set()

        self.loop.run_until_complete(bind())
        self.loop.run_forever()

    def stop(self):
        asyncio.run_coroutine_threadsafe(self.server.close(),
                                         self.loop).result(timeout=10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()


@pytest.fixture
def service(tmp_path):
    thread = _ServiceThread(tmp_path / "cache")
    client = Client("http://127.0.0.1:%d" % thread.port, timeout=60)
    client.wait_ready(timeout=30)
    yield client
    thread.stop()


class TestHttp:
    def test_end_to_end_over_http(self, service):
        assert service.healthz() == {"ok": True}

        first = service.submit(job_spec())
        assert first["status"] == "done"
        assert not first["cached"]
        run = first["result"]["run"]

        second = service.submit(job_spec())
        assert second["cached"]
        assert canonical(second["result"]["run"]) == canonical(run)
        assert service.stats()["simulations"] == 1

        # Job endpoints agree with the submission response.
        status = service.status(first["id"])
        assert status["status"] == "done"
        assert service.result(first["id"])["run"] == run
        entry = service.cache_entry(first["key"])
        assert entry["payload"] == run

        events = list(service.events(first["id"]))
        assert [event["type"] for event in events][0] == "queued"
        assert events[-1]["type"] == "done"

    def test_client_run_rebuilds_scatter_run(self, service):
        from repro.api import ScatterRun, scatter_add_reference
        import numpy as np

        run = service.run(job_spec())
        assert isinstance(run, ScatterRun)
        expected = scatter_add_reference(np.zeros(5), [1, 2, 2, 3], 1.0)
        assert np.array_equal(run.result, expected)
        assert run.cycles > 0

    def test_wait_false_returns_before_completion(self, service):
        response = service.submit(job_spec(indices=list(range(64)),
                                           num_targets=64), wait=False)
        assert response["status"] in ("queued", "running", "done")
        deadline = time.monotonic() + 30
        while service.status(response["id"])["status"] != "done":
            assert time.monotonic() < deadline, "job never completed"
            time.sleep(0.02)
        assert service.result(response["id"])["run"]["cycles"] > 0

    def test_http_errors(self, service):
        with pytest.raises(ServiceError) as bad_spec:
            service.submit(job_spec(op="scatter_div"))
        assert bad_spec.value.status == 400

        # A retired scheduler name is a schema error naming the valid
        # engines, not a crash in the worker.
        with pytest.raises(ServiceError) as retired:
            service.submit(job_spec(sim={"engine": "columnar"}))
        assert retired.value.status == 400
        assert "fastforward" in str(retired.value)

        with pytest.raises(ServiceError) as missing:
            service.status("j999999")
        assert missing.value.status == 404

        with pytest.raises(ServiceError) as no_entry:
            service.cache_entry("0" * 64)
        assert no_entry.value.status == 404
