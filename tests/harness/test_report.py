"""Tests for report helpers, chiefly the engine-counter summary line."""

from repro.harness.report import engine_summary
from repro.sim.engine import Simulator, use_scheduler
from repro.sim.stats import Stats


class TestEngineSummary:
    def test_empty_stats_give_empty_summary(self):
        assert engine_summary(Stats()) == ""
        assert engine_summary({}) == ""

    def test_recorded_run_is_summarised(self):
        with use_scheduler("event"):
            sim = Simulator()
        stats = Stats().record_engine(sim)
        line = engine_summary(stats)
        assert line.startswith("engine[event]:")
        assert "fast-forwarded" in line
        assert "skipped" in line

    def test_accepts_plain_dict(self):
        line = engine_summary({
            "engine.scheduler_event": 0,
            "engine.cycles_executed": 100,
            "engine.cycles_fast_forwarded": 0,
            "engine.ticks_executed": 500,
            "engine.ticks_skipped": 0,
        })
        assert line.startswith("engine[legacy]:")
        assert "100/100 cycles" in line
        assert "500/500 ticks" in line

    def test_real_run_counters_are_consistent(self):
        from repro.api import simulate_scatter_add

        with use_scheduler("event"):
            run = simulate_scatter_add([3, 1, 2] * 50, 1.0, num_targets=8)
        line = engine_summary(run.stats)
        assert "engine[event]:" in line


class TestBankUtilisation:
    """A bank serves one request per cycle; its word width paces only the
    flush, so bank busy fractions must not divide by it."""

    def _bank_rows(self, cache_bw_gbs):
        import numpy as np

        from repro.api import Simulation
        from repro.config import MachineConfig
        from repro.harness.report import bottlenecks

        config = MachineConfig.table1().with_changes(
            cache_bw_gbs=cache_bw_gbs)
        indices = np.random.default_rng(3).integers(0, 16, size=600)
        run = Simulation(config).run("scatter_add", indices, 1.0,
                                     num_targets=16)
        counters = run.stats.as_dict()
        banks = {row["component"]: row
                 for row in bottlenecks(run.stats, run.cycles, config)
                 if row["component"] + ".hits" in counters}
        return config, run, banks

    def test_wide_banks_are_rated_against_one_request_per_cycle(self):
        narrow_config, narrow_run, narrow = self._bank_rows(64.0)
        wide_config, wide_run, wide = self._bank_rows(256.0)
        assert narrow_config.bank_words_per_cycle == 1
        assert wide_config.bank_words_per_cycle == 4
        assert narrow and set(narrow) == set(wide)
        for name, row in wide.items():
            assert row["capacity"] == 1.0
            served = sum(wide_run.stats.get(name + "." + suffix)
                         for suffix in ("hits", "misses", "mshr_hits"))
            assert row["events"] == served
            assert row["busy_fraction"] == min(
                1.0, served / wide_run.cycles)
            # The 4-word width changes the cycle count only slightly, so
            # the busy fraction must stay close rather than drop to 1/4.
            assert row["busy_fraction"] > 0.5 * narrow[name]["busy_fraction"]
