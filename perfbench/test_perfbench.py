"""Tests of the benchmark itself (run with ``python3 -m pytest perfbench``).

Smoke-size inputs throughout: the figures are not comparable with full
runs, only the contract is checked.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

import run as bench_run  # noqa: E402

bench_run.locate_program()

import bench_workloads  # noqa: E402
import spans  # noqa: E402


def invoke(*args, cwd=ROOT, env=None):
    command = [sys.executable, str(Path(cwd) / "perfbench" / "run.py")]
    return subprocess.run(command + list(args), cwd=cwd, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=300, check=False)


def expected(kind):
    return {metric["name"]: metric["unit"] for metric in SPEC[kind]}


@pytest.mark.parametrize("workload", bench_workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    child = invoke("--workload", workload, "--seed", "3", "--seconds", "0",
                   "--trace", str(trace), "--smoke")
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    units = {name: metric["unit"]
             for name, metric in result["metrics"].items()}
    assert units == expected(kind)
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if trace:
        share = result["metrics"]["trace.unattributed_frac"]["value"]
        assert abs(share) <= bench_run.RECONCILE_TOLERANCE
        for name, metric in result["metrics"].items():
            if name.endswith(".self_s"):
                assert metric["value"] > 0, name  # the warm-up runs every layer
    else:
        for name in ("wall_s", "setup_s", "sim_cycles", "peak_rss_mb"):
            assert result["metrics"][name]["value"] > 0, name


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(
        bench_workloads.WORKLOADS)
    assert bench_run.WORKLOADS == bench_workloads.WORKLOADS


def test_corrupted_result_fails_the_correctness_check():
    bench = bench_run.Bench("hist_hw", seed=3, smoke=True)
    ops, totals = bench.set_up()
    victim = ops[1]
    honest = victim.call

    def corrupted(indices):
        run = honest(indices)
        run.result[int(indices[0])] += 1.0
        return run

    victim.call = corrupted
    bench.run_pass(ops, totals)
    assert bench.ledger.failed == 1
    assert victim.name in bench.ledger.problems[0]


def test_raising_simulation_is_counted_as_failed():
    bench = bench_run.Bench("sens_uniform", seed=3, smoke=True)
    ops, totals = bench.set_up()

    def broken(indices):
        raise RuntimeError("deliberate")

    ops[0].call = broken
    bench.run_pass(ops, totals)
    assert bench.ledger.failed == 1
    warmups = len(bench_workloads.WORKLOADS)
    assert bench.ledger.attempted == warmups + len(ops)


def test_counter_drift_between_runs_fails_the_check():
    bench = bench_run.Bench("hist_hw", seed=3, smoke=True)
    ops, totals = bench.set_up()
    bench.run_pass(ops, totals)
    honest = ops[0].call

    def drifting(indices):
        run = honest(indices)
        run.stats.add("engine.ticks_executed", 1)
        return run

    ops[0].call = drifting
    bench.run_pass(ops, totals)
    assert bench.ledger.failed == 1


def test_cycles_other_than_recorded_fail_the_check():
    bench = bench_run.Bench("multinode_tree", seed=3, smoke=True)
    ops, totals = bench.set_up()
    cycles = ops[0].run().cycles
    bench.ledger.expected = {ops[0].name: cycles + 1}
    bench.run_pass(ops, totals)
    assert bench.ledger.failed == 1
    assert "recorded" in bench.ledger.problems[0]


def test_recorded_cycles_name_every_simulation():
    for workload in bench_workloads.WORKLOADS:
        recorded = bench_run.expected_cycles(workload, 1)
        names = [op.name for op in bench_workloads.build(workload, 1)]
        assert recorded is not None and list(recorded) == names
    assert bench_run.expected_cycles("hist_hw", 10 ** 6) is None


def test_corrupted_result_makes_the_command_exit_nonzero(monkeypatch,
                                                          capsys):
    original = bench_workloads.matches
    monkeypatch.setattr(bench_workloads, "matches",
                        lambda run, op: op.name != "hw_r16_d0"
                        and original(run, op))
    code = bench_run.main(["--workload", "hist_hw", "--seconds", "0",
                           "--smoke", "--seed", "3"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_host_times_are_scaled_by_the_calibration(capsys):
    code = bench_run.main(["--workload", "sens_uniform", "--seconds", "0",
                           "--smoke", "--seed", "3"])
    lines = capsys.readouterr().out.strip().splitlines()
    record = json.loads(next(line for line in lines
                             if line.startswith("record "))[len("record "):])
    metrics = json.loads(lines[-1])["metrics"]
    assert code == 0
    calibration = record["calibration_s"]
    assert calibration["count"] >= 1
    assert record["scale"] == pytest.approx(
        bench_run.CALIBRATION_REF_S / calibration["median"])
    assert metrics["wall_s"]["value"] == pytest.approx(
        record["host_wall_s"] * record["scale"])
    assert metrics["setup_s"]["value"] == pytest.approx(
        record["host_setup_s"] * record["scale"])


def test_calibration_walks_every_cell_once_per_cycle():
    calibration = bench_run.Calibration()
    seen = set()
    cell = calibration.start
    for __ in range(bench_run.CALIBRATION_CELLS):
        seen.add(id(cell))
        cell = cell.next
    assert cell is calibration.start
    assert len(seen) == bench_run.CALIBRATION_CELLS


def test_inputs_come_from_the_seed():
    first = bench_workloads.build("multinode_tree", 5, smoke=True)
    again = bench_workloads.build("multinode_tree", 5, smoke=True)
    other = bench_workloads.build("multinode_tree", 6, smoke=True)
    assert (first[0].indices == again[0].indices).all()
    assert not (first[0].indices == other[0].indices).all()


def test_skewed_trace_sends_most_references_to_hot_indices():
    indices, targets = bench_workloads.skewed_trace(64, 64, seed=1)
    counts = sorted(bench_workloads.np.bincount(indices, minlength=targets),
                    reverse=True)
    hot = sum(counts[:bench_workloads.HOT_INDICES])
    assert hot >= 0.75 * len(indices)


def test_tracer_restores_every_entry_point():
    points = spans.entry_points()
    before = [vars(owner).get(attribute) for __, owner, attribute in points]
    with spans.Tracer(points):
        wrapped = [vars(owner).get(attribute)
                   for __, owner, attribute in points]
    after = [vars(owner).get(attribute) for __, owner, attribute in points]
    assert after == before
    assert all(a is not b for a, b in zip(wrapped, before))


def test_self_times_reconcile_with_nested_spans():
    tracer = spans.Tracer(points=[])

    def inner():
        time.sleep(0.01)

    def outer():
        tracer.span("sim.queues", inner)
        time.sleep(0.01)

    tracer.span("sim.engine", outer)
    analysis = tracer.analyse()
    assert analysis["calls"]["sim.engine"] == 1
    assert analysis["calls"]["sim.queues"] == 1
    assert analysis["self_s"]["sim.queues"] >= 0.01
    assert analysis["self_s"]["sim.engine"] >= 0.01
    assert sum(analysis["self_s"].values()) == pytest.approx(
        analysis["covered_s"])


def test_refuses_to_run_with_repro_scheduler_set():
    env = dict(os.environ, REPRO_SCHEDULER="event")
    child = invoke("--workload", "hist_hw", "--seconds", "0", "--smoke",
                   env=env)
    assert child.returncode == 2
    assert child.stdout == ""
    assert "REPRO_SCHEDULER" in child.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    child = invoke("--workload", "hist_hw", "--seconds", "0", "--smoke",
                   cwd=tmp_path, env=env)
    assert child.returncode == 2
    assert child.stdout == ""
