"""Cache-key stability and job-spec validation (repro.service.schema).

The content-addressed cache is only correct if every spelling of the
same work hashes to the same key, and anything that changes the work (or
how it is executed) hashes to a different one.  These tests pin both
directions.
"""

import dataclasses

import pytest

from repro.config import MachineConfig
from repro.service.schema import (
    JOB_SCHEMA,
    JobError,
    canonical_job,
    execute_job,
    job_key,
    point_jobs,
)
from repro.sim import engine as _engine


def base_spec(**overrides):
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


def key_of(spec):
    return job_key(canonical_job(spec))


class TestKeyStability:
    def test_same_work_same_key(self):
        assert key_of(base_spec()) == key_of(base_spec())

    def test_config_spelling_is_irrelevant(self):
        """kwargs, dict and with_changes() spellings hash identically."""
        via_kwargs = MachineConfig(memory_model="uniform",
                                   uniform_latency=32, uniform_interval=1)
        via_dict = MachineConfig.from_dict(via_kwargs.to_dict())
        via_changes = MachineConfig.uniform().with_changes(
            uniform_latency=32, uniform_interval=1)
        keys = {
            key_of(base_spec(sim={"config": config.to_dict()}))
            for config in (via_kwargs, via_dict, via_changes)
        }
        assert len(keys) == 1
        hashes = {config.canonical_hash()
                  for config in (via_kwargs, via_dict, via_changes)}
        assert len(hashes) == 1

    def test_defaults_expand_to_explicit_values(self):
        """Omitted fields hash the same as spelling the default out."""
        implicit = base_spec()
        del implicit["num_targets"]
        implicit["indices"] = [1, 2, 2, 4]
        explicit = base_spec(indices=[1, 2, 2, 4], num_targets=5)
        assert key_of(implicit) == key_of(explicit)

    def test_scalar_values_normalise(self):
        assert key_of(base_spec(values=1)) == key_of(base_spec(values=1.0))

    def test_default_sim_section_matches_table1(self):
        spec = base_spec()
        del spec["sim"]
        assert key_of(spec) == key_of(
            base_spec(sim={"config": MachineConfig.table1().to_dict()}))

    @pytest.mark.parametrize("field", [
        field.name for field in dataclasses.fields(MachineConfig)
    ])
    def test_any_semantic_config_change_changes_key(self, field):
        base = MachineConfig.table1()
        value = getattr(base, field)
        # Valid alternates for fields whose validation constrains them.
        alternates = {
            "memory_model": {"memory_model": "uniform"},
            "dram_model": {"dram_model": "rowbuffer"},
            "dram_scheduling": {"dram_scheduling": "inorder"},
            "cache_banks": {"cache_banks": base.cache_banks * 2},
            "hierarchical_combining": {"hierarchical_combining": True,
                                       "cache_combining": True},
            "network": {"network": {"nodes": 2}},
        }
        if field in alternates:
            override = alternates[field]
        elif isinstance(value, bool):
            override = {field: not value}
        else:
            override = {field: value + 1}
        spec = base_spec(sim={"config": base.with_changes(
            **override).to_dict()})
        assert key_of(spec) != key_of(base_spec(sim={"config":
                                                     base.to_dict()}))

    @pytest.mark.parametrize("mutation", [
        {"op": "scatter_min"},
        {"indices": [1, 2, 2, 4]},
        {"values": 2.0},
        {"num_targets": 6},
        {"initial": [1.0, 0.0, 0.0, 0.0, 0.0]},
        {"base": 16, "num_targets": 5},
    ])
    def test_operand_changes_change_key(self, mutation):
        spec = base_spec(**mutation)
        assert key_of(spec) != key_of(base_spec())

    def test_engine_changes_key(self):
        """Engines are bit-identical but deliberately part of the key."""
        event = base_spec(sim={"config": MachineConfig.uniform().to_dict(),
                               "engine": "event"})
        fastforward = base_spec(sim={"config":
                                     MachineConfig.uniform().to_dict(),
                                     "engine": "fastforward"})
        assert key_of(event) != key_of(fastforward)

    def test_default_engine_resolves_before_hashing(self):
        """engine omitted == engine pinned to the process default."""
        implicit = base_spec()
        other = next(engine for engine in _engine.SCHEDULERS
                     if engine != _engine.DEFAULT_SCHEDULER)
        with _engine.use_scheduler(other):
            resolved = key_of(implicit)
        pinned = base_spec(sim={"config": MachineConfig.uniform().to_dict(),
                                "engine": other})
        assert resolved == key_of(pinned)
        assert resolved != key_of(implicit)  # back on the default engine

    def test_chaining_and_obs_knobs_change_key(self):
        for knob in ({"chaining": False}, {"sample_every": 64},
                     {"trace_requests": 1}):
            sim = {"config": MachineConfig.uniform().to_dict(), **knob}
            assert key_of(base_spec(sim=sim)) != key_of(base_spec())

    def test_key_is_version_tagged_sha256(self):
        key = key_of(base_spec())
        assert len(key) == 64
        assert JOB_SCHEMA == "repro.job/1"


class TestValidation:
    @pytest.mark.parametrize("spec,match", [
        ([1, 2, 3], "JSON object"),
        (base_spec(type="batch"), "unknown job type"),
        (base_spec(op="scatter_div"), "unknown op"),
        ({"type": "run", "op": "scatter_add"}, "lacks 'indices'"),
        (base_spec(indices=["a"]), "array of integers"),
        (base_spec(indices=[1, 9], num_targets=5), "out of range"),
        (base_spec(values=[1.0]), "length"),
        (base_spec(extra_field=1), "unknown job field"),
        (base_spec(sim={"config": {}, "bogus": 1}), "unknown sim field"),
        (base_spec(sim={"config": {"no_such_field": 1}}), "sim.config"),
        (base_spec(sim={"config": None, "engine": "warp"}),
         "unknown engine"),
        (base_spec(type="sweep", points=[1, 2]), "'field'"),
        (base_spec(type="sweep", field="uniform_latency", points=[]),
         "points"),
        (base_spec(type="sweep", field="fu_latency", points=[0]),
         "invalid design point"),
        (base_spec(type="grid_sweep"), "'fields'"),
    ])
    def test_bad_specs_rejected(self, spec, match):
        with pytest.raises(JobError, match=match):
            canonical_job(spec)

    def test_job_error_is_value_error(self):
        assert issubclass(JobError, ValueError)

    def test_retired_engine_names_the_valid_ones(self):
        spec = base_spec(sim={"config": None, "engine": "columnar"})
        with pytest.raises(JobError) as error:
            canonical_job(spec)
        message = str(error.value)
        assert "unknown engine" in message
        for engine in _engine.SCHEDULERS:
            assert engine in message


class TestPointJobs:
    def test_run_expands_to_itself(self):
        job = canonical_job(base_spec())
        overrides, points = point_jobs(job)
        assert overrides == [{}]
        assert points == [job]

    def test_sweep_points_match_individual_runs(self):
        """Each sharded point hashes like the equivalent single-run job."""
        sweep = canonical_job(base_spec(
            type="sweep", field="uniform_latency", points=[16, 32]))
        overrides, points = point_jobs(sweep)
        assert overrides == [{"uniform_latency": 16},
                             {"uniform_latency": 32}]
        for override, point in zip(overrides, points):
            config = MachineConfig.uniform().with_changes(**override)
            single = canonical_job(base_spec(sim={"config":
                                                  config.to_dict()}))
            assert job_key(point) == job_key(single)

    def test_grid_sweep_row_major_order(self):
        grid = canonical_job(base_spec(
            type="grid_sweep",
            fields={"uniform_latency": [16, 32], "uniform_interval": [1, 2]},
        ))
        overrides, points = point_jobs(grid)
        assert overrides == [
            {"uniform_latency": 16, "uniform_interval": 1},
            {"uniform_latency": 16, "uniform_interval": 2},
            {"uniform_latency": 32, "uniform_interval": 1},
            {"uniform_latency": 32, "uniform_interval": 2},
        ]
        assert len({job_key(point) for point in points}) == 4


class TestExecuteJob:
    def test_matches_direct_simulation(self):
        from repro.api import Simulation

        job = canonical_job(base_spec())
        payload = execute_job(job)
        run = Simulation(MachineConfig.uniform()).run(
            "scatter_add", [1, 2, 2, 3], 1.0, num_targets=5)
        assert payload == run.to_dict()

    def test_rejects_sweep_jobs(self):
        sweep = canonical_job(base_spec(
            type="sweep", field="uniform_latency", points=[16]))
        with pytest.raises(JobError):
            execute_job(sweep)

    def test_multinode_job_served_end_to_end(self):
        # A nested network config rides through canonicalisation, the
        # key, and execution: the service returns a MultiNodeRun payload
        # with the sim.network.* counters intact.
        spec = {
            "op": "scatter_add",
            "indices": [1] * 40 + list(range(24)),
            "num_targets": 32,
            "sim": {"config": {"network": {
                "nodes": 4, "topology": "tree", "combine_site": "both",
                "link_bw_words": 1}}},
        }
        job = canonical_job(spec)
        payload = execute_job(job)
        assert payload["schema"] == "repro.multirun/1"
        assert payload["stats"]["sim.network.combined_in_flight"] > 0
        assert sum(payload["result"]) == len(spec["indices"])
        # Same spec, same key: multi-node jobs are cacheable too.
        assert job_key(job) == job_key(canonical_job(spec))
