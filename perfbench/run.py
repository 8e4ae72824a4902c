"""The repository benchmark: host time of the simulator on four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload hist_hw --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all     # every metric of every workload

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` is the separate traced run that splits host time by layer.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (each ``{"value", "unit"}``).  ``--seconds``
defaults to ``run_seconds`` of ``BENCHMARK.json``.  The exit code is 0
when every simulation matched its numpy reference and its recorded
cycles, 1 when one did not, and 2 when the benchmark cannot run (no
program under ``src/``, or ``REPRO_SCHEDULER`` set).  See
``perfbench/README.md``.
"""

import argparse
import collections
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

WORKLOADS = ("hist_hw", "hist_sw", "sens_uniform", "multinode_tree")
#: Seed of every quoted figure (claims must also hold on seed 2).
DEFAULT_SEED = 1
#: Recorded cycles of every simulation at seeds 1..N (full size).
EXPECTED = HERE / "expected_cycles.json"
#: Host seconds of set-up repeated before each pass (at least one).
SETUP_SPAN_S = 0.1
#: Passes over the workload's simulations per run, at least.
MIN_PASSES = 3
#: Largest share of traced wall time the spans may leave unaccounted.
RECONCILE_TOLERANCE = 0.05
#: Calibration loop: objects in its graph, and steps per timing.
CALIBRATION_CELLS = 1 << 14
CALIBRATION_STEPS = 12000
#: Median time of the calibration loop on the reference host (2-vCPU
#: Intel Xeon VM, Python 3.11); host times are scaled to that host.
CALIBRATION_REF_S = 0.006

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("sim_cycles", "cycles"),
              ("peak_rss_mb", "MB"))
COUNT_UNITS = {
    "sim.engine.cycles_executed": "cycles",
    "sim.engine.cycles_skipped": "cycles",
    "sim.engine.awake_frac": "ratio",
    "sim.queues.ops": "count",
    "node.router.hol_blocks": "count",
    "core.sau.atomics": "count",
    "core.sau.combined_frac": "ratio",
    "core.sau.stall_cycles": "cycles",
    "cache.bank.hit_frac": "ratio",
    "cache.bank.misses": "count",
    "memory.dram.reads": "count",
    "memory.dram.busy_frac": "ratio",
    "network.injected": "count",
    "network.combined_frac": "ratio",
    "network.hol_blocks": "count",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here; nothing is measured."""


def locate_program():
    """Import the program from ``src/`` of this checkout; its engine name."""
    if "REPRO_SCHEDULER" in os.environ:
        raise BenchError("REPRO_SCHEDULER is set; the benchmark measures the "
                         "process-default engine only, unset it")
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise BenchError("no program at %s" % package)
    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != package.resolve():
        raise BenchError("imported repro from %s, not from %s"
                         % (repro.__file__, package))
    from repro.sim import engine
    return engine.DEFAULT_SCHEDULER


class _Cell:
    __slots__ = ("next", "visits", "queue")

    def __init__(self):
        self.next = None
        self.visits = 0
        self.queue = collections.deque((0,))


class Calibration:
    """A fixed loop that measures how fast the host runs right now.

    It walks a random cycle through a graph of small objects, each with
    a counter and a queue, as a simulator ticks its components: attribute
    loads, integer updates and deque pushes and pops, spread over
    megabytes of heap.  It uses nothing of the program.  Timed between
    the simulations of a run, its median time follows the host's speed
    over the run, which drifts by up to 2x over minutes: dividing by it
    keeps a slow stretch from reading as a slower program.
    """

    def __init__(self):
        cells = [_Cell() for __ in range(CALIBRATION_CELLS)]
        order = list(range(1, CALIBRATION_CELLS))
        random.Random(0).shuffle(order)
        order.insert(0, 0)
        for here, there in zip(order, order[1:] + order[:1]):
            cells[here].next = cells[there]
        self.start = cells[0]
        self.samples = []

    def sample(self):
        cell = self.start
        start = time.perf_counter()
        for step in range(CALIBRATION_STEPS):
            cell = cell.next
            cell.visits += 1
            queue = cell.queue
            queue.append(step)
            queue.popleft()
        self.samples.append(time.perf_counter() - start)

    def scale(self):
        """Factor from this run's host seconds to reference-host seconds."""
        return CALIBRATION_REF_S / statistics.median(self.samples)


class Ledger:
    """Counts simulations attempted and failed, and checks each result.

    A simulation fails when it raises, when its result differs from the
    numpy reference, when its cycle count differs from the one recorded
    for it in `expected` (simulation name -> cycles), or when its cycle
    count or any ``Stats`` counter differs from an earlier run of the
    same simulation.
    """

    def __init__(self, workloads, expected=None):
        self.workloads = workloads
        self.expected = expected or {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._signatures = {}

    def fail(self, what):
        self.failed += 1
        self.problems.append(what)
        print("FAILED: %s" % what, file=sys.stderr)

    def execute(self, op, tracer=None):
        """Run `op`; returns ``(run or None, seconds)``."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            run = op.run()
        except Exception:  # a failing simulation is counted, not fatal
            self.fail("%s raised:\n%s" % (op.name, traceback.format_exc()))
            return None, time.perf_counter() - start
        seconds = time.perf_counter() - start
        if tracer is None:
            ok = self.verify(run, op)
        else:
            ok = tracer.span("check", self.verify, run, op)
        return (run if ok else None), seconds

    def verify(self, run, op):
        if not self.workloads.matches(run, op):
            self.fail("%s: result differs from the numpy reference" % op.name)
            return False
        recorded = self.expected.get(op.name, run.cycles)
        if run.cycles != recorded:
            self.fail("%s: %d cycles, recorded %d" % (op.name, run.cycles,
                                                     recorded))
            return False
        signature = (run.cycles, sorted(run.stats.as_dict().items()))
        first = self._signatures.setdefault(op.name, signature)
        if signature != first:
            self.fail("%s: cycles or counters differ from its first run"
                      % op.name)
            return False
        return True


class Bench:
    """One benchmark run of one workload."""

    def __init__(self, workload, seed, smoke=False):
        import bench_workloads

        self.workloads = bench_workloads
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.ledger = Ledger(bench_workloads,
                             None if smoke else expected_cycles(workload,
                                                                seed))

    def set_up(self, tracer=None):
        """Inputs, references and the warm-up simulations (untimed, or
        traced).

        Returns the simulations and the warm-ups' counters.
        """
        ops = self.workloads.build(self.workload, self.seed, self.smoke)
        totals = dict.fromkeys(self.workloads.COUNTERS, 0)
        for warm in self.workloads.warmup_ops(self.seed):
            run, __ = self.ledger.execute(warm, tracer)
            if run is not None:
                self._add(totals, run, warm)
        return ops, totals

    def run_pass(self, ops, totals, tracer=None, op_seconds=None,
                 calibration=None):
        """Every simulation once; returns (seconds simulating, cycles).

        With a `calibration`, it is sampled before each simulation.
        """
        wall = 0.0
        cycles = 0
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.run_id[0] = index + 1
            if calibration is not None:
                calibration.sample()
            run, seconds = self.ledger.execute(op, tracer)
            wall += seconds
            if op_seconds is not None:
                op_seconds.setdefault(op.name, []).append(seconds)
            if run is not None:
                cycles += run.cycles
                self._add(totals, run, op)
        return wall, cycles

    def _add(self, totals, run, op):
        for key, value in self.workloads.counters(run, op.config).items():
            totals[key] += value

    # ------------------------------------------------------------------ #
    def measure(self, seconds):
        """End-to-end metrics with tracing off.

        Until `seconds` have passed, the loop repeats a batch of set-ups
        (inputs and references only) and then one pass.  ``wall_s`` is
        the sum over the simulations of each one's median time in the
        run, ``setup_s`` the median set-up; both are scaled to the
        reference host by the calibration loop timed between the
        simulations.
        """
        self.set_up()  # untimed: lazy imports and the warm-up simulations
        calibration = Calibration()
        setups = []
        op_seconds = {}
        cycles = set()
        passes = 0
        cpu_start = time.process_time()
        loop_start = time.perf_counter()
        deadline = loop_start + seconds
        while passes < MIN_PASSES or time.perf_counter() < deadline:
            gc.collect()
            spent = 0.0
            while spent < SETUP_SPAN_S:
                ops = None  # one set of inputs alive at a time
                start = time.perf_counter()
                ops = self.workloads.build(self.workload, self.seed,
                                           self.smoke)
                setups.append(time.perf_counter() - start)
                spent += setups[-1]
            gc.collect()
            totals = dict.fromkeys(self.workloads.COUNTERS, 0)
            __, pass_cycles = self.run_pass(ops, totals,
                                            op_seconds=op_seconds,
                                            calibration=calibration)
            cycles.add(pass_cycles)
            passes += 1
        cpu_s = time.process_time() - cpu_start
        loop_s = time.perf_counter() - loop_start
        if len(cycles) != 1:
            self.ledger.problems.append("sim_cycles differ between passes")
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        wall = sum(statistics.median(samples)
                   for samples in op_seconds.values())
        setup = statistics.median(setups)
        scale = calibration.scale()
        metrics = {
            "wall_s": wall * scale,
            "setup_s": setup * scale,
            "sim_cycles": max(cycles),
            "peak_rss_mb": peak_kb / 1024.0,
        }
        record = {
            "host_wall_s": wall,
            "host_setup_s": setup,
            "scale": scale,
            "calibration_s": {
                "count": len(calibration.samples),
                "min": min(calibration.samples),
                "median": statistics.median(calibration.samples)},
            "passes": passes,
            "pass_s_samples": [sum(samples[i] for samples in
                                   op_seconds.values())
                               for i in range(passes)],
            "setup_s_samples": setups,
            "op_s_samples": op_seconds,
            "cpu_s": cpu_s,
            "cpu_per_wall": cpu_s / loop_s,
            "load1": os.getloadavg()[0],
        }
        return {name: (metrics[name], unit) for name, unit in END_TO_END}, \
            record

    def measure_traced(self, seconds):
        """Per-layer metrics: alternating untraced and traced cycles.

        A cycle is one set-up plus one pass.  Self times and the overhead
        are medians over the traced cycles; counts must repeat exactly.
        """
        from spans import LAYERS, Tracer

        self.set_up()  # finish lazy imports before the first timed cycle
        tracer = Tracer()
        untraced, traced, samples = [], [], []
        counts = None
        deadline = time.perf_counter() + seconds
        while not traced or time.perf_counter() < deadline:
            gc.collect()
            start = time.perf_counter()
            ops, totals = self.set_up()
            self.run_pass(ops, totals)
            untraced.append(time.perf_counter() - start)

            gc.collect()
            tracer.reset()
            with tracer:
                start = time.perf_counter()
                ops, totals = self.set_up(tracer)
                self.run_pass(ops, totals, tracer)
                wall = time.perf_counter() - start
            traced.append(wall)
            analysis = tracer.analyse()
            unattributed = 1.0 - sum(analysis["self_s"].values()) / wall
            if not -RECONCILE_TOLERANCE <= unattributed <= RECONCILE_TOLERANCE:
                self.ledger.problems.append(
                    "trace does not reconcile: %.4f of traced wall time "
                    "unattributed" % unattributed)
            samples.append((analysis, unattributed))
            layer_counts = self.workloads.layer_metrics(totals)
            layer_counts["sim.queues.ops"] = analysis["calls"]["sim.queues"]
            if counts is None:
                counts = layer_counts
            elif layer_counts != counts:
                self.ledger.problems.append("per-layer counts differ "
                                            "between traced cycles")
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / ("trace-%s-seed%d.npz"
                                % (self.workload, self.seed)))
        metrics = {}
        for layer in LAYERS:
            metrics[layer + ".self_s"] = (statistics.median(
                analysis["self_s"][layer] for analysis, __ in samples), "s")
        for name, value in counts.items():
            metrics[name] = (value, COUNT_UNITS[name])
        metrics["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(untraced) - 1.0,
            "ratio")
        metrics["trace.unattributed_frac"] = (
            statistics.median(share for __, share in samples), "ratio")
        record = {
            "cycles": len(traced),
            "traced_s_samples": traced,
            "untraced_s_samples": untraced,
            "reconcile_tolerance": RECONCILE_TOLERANCE,
            "load1": os.getloadavg()[0],
        }
        return metrics, record


def expected_cycles(workload, seed):
    """Recorded cycles per simulation name, or None for an unrecorded seed."""
    table = json.loads(EXPECTED.read_text())[workload]
    cycles = table["seeds"].get(str(seed))
    return None if cycles is None else dict(zip(table["ops"], cycles))


def write_expected(seeds, workloads):
    """Record `workloads`' cycles per simulation at seeds 1..`seeds`."""
    import bench_workloads

    table = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    for workload in workloads:
        entry = {"ops": None, "seeds": {}}
        for seed in range(1, seeds + 1):
            ledger = Ledger(bench_workloads)
            ops = bench_workloads.build(workload, seed)
            runs = [ledger.execute(op)[0] for op in ops]
            if ledger.failed:
                raise BenchError("%s seed %d: %s" % (workload, seed,
                                                     ledger.problems))
            entry["ops"] = [op.name for op in ops]
            entry["seeds"][str(seed)] = [run.cycles for run in runs]
        table[workload] = entry
        print("recorded %s" % workload, flush=True)
    EXPECTED.write_text(json.dumps(table, separators=(",", ":"),
                                   sort_keys=True) + "\n")


def result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def print_metrics(metrics):
    for name, (value, unit) in metrics.items():
        print("  %-36s %16.6f %s" % (name, value, unit))


def run_one(args):
    engine = locate_program()
    sys.path.insert(0, str(HERE))
    bench = Bench(args.workload, args.seed, smoke=args.smoke)
    if args.trace:
        metrics, record = bench.measure_traced(args.seconds)
    else:
        metrics, record = bench.measure(args.seconds)
    ledger = bench.ledger
    correct = ledger.failed == 0 and not ledger.problems
    record.update({"workload": args.workload, "seed": args.seed,
                   "engine": engine, "trace": args.trace,
                   "smoke": args.smoke, "problems": ledger.problems})
    print("workload %s  seed %d  engine %s  trace %d" % (
        args.workload, args.seed, engine, args.trace))
    print_metrics(metrics)
    print("record " + json.dumps(record))
    print(result_line(correct, ledger.attempted, ledger.failed, metrics))
    return 0 if correct else 1


def run_all(args):
    """Every workload, untraced and traced, each in its own process."""
    attempted = failed = 0
    correct = True
    metrics = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.smoke:
                command.append("--smoke")
            child = subprocess.run(command, stdout=subprocess.PIPE,
                                   text=True, check=False)
            lines = child.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if child.returncode == 2 or not lines:
                raise BenchError("%s (trace %d) did not run" % (workload,
                                                                trace))
            result = json.loads(lines[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            correct = correct and result["correct"]
            for name, metric in result["metrics"].items():
                metrics["%s/%s" % (workload, name)] = (metric["value"],
                                                      metric["unit"])
    print(result_line(correct, attempted, failed, metrics))
    return 0 if correct else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measurement time per run (default: "
                        "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs (tests); figures not comparable")
    parser.add_argument("--write-expected", type=int, metavar="N",
                        help="record the cycles of every simulation of "
                        "--workload (default all) at seeds 1..N in %s and "
                        "exit" % EXPECTED.name)
    args = parser.parse_args(argv)
    if args.workload is None and args.write_expected is None:
        parser.error("--workload is required")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        if args.write_expected is not None:
            locate_program()
            sys.path.insert(0, str(HERE))
            write_expected(args.write_expected,
                           WORKLOADS if args.workload in (None, "all")
                           else (args.workload,))
            return 0
        if args.seconds is None:
            spec = json.loads((ROOT / "BENCHMARK.json").read_text())
            args.seconds = spec["run_seconds"]
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except BenchError as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
