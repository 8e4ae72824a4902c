"""ForkExecutor: persistent pool semantics and retry-on-worker-death.

Worker functions live at module level: task items cross the fork/pickle
boundary, and the death tests need deterministic, restart-aware
behaviour (a marker file tells a respawned worker's retry to succeed).
"""

import os
import signal
import time

import pytest

from repro.service.pool import ForkExecutor, WorkerDied


def square(item):
    return item * item


def raise_value_error(item):
    raise ValueError("bad item %r" % (item,))


def die_once(marker_path):
    """Die hard on first sight of the marker path, succeed after."""
    if not os.path.exists(marker_path):
        with open(marker_path, "w") as handle:
            handle.write("seen")
        os._exit(17)
    return "recovered"


def die_always(item):
    os._exit(23)


def signal_dispositions(item):
    return (signal.getsignal(signal.SIGTERM) == signal.SIG_DFL,
            signal.getsignal(signal.SIGINT) == signal.default_int_handler)


def sleep_briefly(item):
    time.sleep(0.2)
    return item


class TestBasics:
    def test_map_preserves_submission_order(self):
        with ForkExecutor(square, workers=3) as pool:
            futures = pool.map(range(20))
            assert [f.result(timeout=30) for f in futures] == [
                i * i for i in range(20)]

    def test_pool_is_reusable_across_batches(self):
        with ForkExecutor(square, workers=2) as pool:
            first = [f.result(timeout=30) for f in pool.map([1, 2, 3])]
            second = [f.result(timeout=30) for f in pool.map([4, 5])]
        assert first == [1, 4, 9]
        assert second == [16, 25]

    def test_submit_after_shutdown_raises(self):
        pool = ForkExecutor(square, workers=1)
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.submit(1)

    def test_needs_at_least_one_worker(self):
        with pytest.raises(ValueError):
            ForkExecutor(square, workers=0)


class TestFailure:
    def test_task_exception_propagates_without_retry(self):
        """Deterministic task errors fail immediately — no re-execution."""
        with ForkExecutor(raise_value_error, workers=1, retries=3) as pool:
            future = pool.submit("x")
            with pytest.raises(RuntimeError, match="ValueError: bad item"):
                future.result(timeout=30)
            assert pool.retries_performed == 0
            # The worker survived the exception and still serves tasks.
            assert pool.submit("y") is not None

    def test_worker_death_retries_and_recovers(self, tmp_path):
        marker = str(tmp_path / "died-once")
        with ForkExecutor(die_once, workers=1, retries=1) as pool:
            future = pool.submit(marker)
            assert future.result(timeout=30) == "recovered"
            assert pool.retries_performed == 1
            assert pool.workers_respawned >= 1

    def test_retries_exhausted_raises_worker_died(self):
        with ForkExecutor(die_always, workers=1, retries=1) as pool:
            future = pool.submit("x")
            with pytest.raises(WorkerDied, match="exit code 23"):
                future.result(timeout=30)
            assert pool.retries_performed == 1

    def test_pool_survives_a_lost_worker(self, tmp_path):
        """Other tasks complete normally around a death + respawn."""
        marker = str(tmp_path / "died-once")
        with ForkExecutor(die_once, workers=2, retries=1) as pool:
            flaky = pool.submit(marker)
            steady = pool.map([str(tmp_path / "died-once")] * 3)
            assert flaky.result(timeout=30) == "recovered"
            for future in steady:
                assert future.result(timeout=30) == "recovered"

    def test_shutdown_cancels_backlog(self):
        pool = ForkExecutor(sleep_briefly, workers=1)
        futures = pool.map(range(30))
        pool.shutdown()
        # One task may be in flight on the single worker when shutdown
        # lands; everything still queued must come back cancelled.
        cancelled = sum(1 for future in futures if future.cancelled())
        assert cancelled >= len(futures) - 2


class TestSweepIntegration:
    def test_sweep_workers_route_through_fork_executor(self):
        """harness.sweep(workers=N) shards on the service pool."""
        from repro.config import MachineConfig
        from repro.harness.sweep import _measure_one, sweep

        base = MachineConfig.uniform()
        serial = sweep(base, "uniform_latency", [8, 16], _cycles_of,
                       workers=1)
        parallel = sweep(base, "uniform_latency", [8, 16], _cycles_of,
                         workers=2)
        assert parallel.rows == serial.rows

        with ForkExecutor(_measure_one, workers=2) as pool:
            shared = sweep(base, "uniform_latency", [8, 16], _cycles_of,
                           executor=pool)
        assert shared.rows == serial.rows


def _cycles_of(config):
    from repro.api import Simulation

    run = Simulation(config).run("scatter_add", [1, 2, 2, 3], 1.0,
                                 num_targets=5)
    return {"cycles": run.cycles}


class TestSignals:
    def test_workers_do_not_inherit_the_parents_handlers(self):
        """A daemon's event loop takes over SIGTERM/SIGINT; workers forked
        after that (respawns) must still die on SIGTERM."""
        previous = (signal.signal(signal.SIGTERM, lambda *args: None),
                    signal.signal(signal.SIGINT, lambda *args: None))
        try:
            with ForkExecutor(signal_dispositions, workers=1) as pool:
                assert pool.submit(None).result(timeout=30) == (True, True)
        finally:
            signal.signal(signal.SIGTERM, previous[0])
            signal.signal(signal.SIGINT, previous[1])
