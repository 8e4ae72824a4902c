"""The benchmark's four workloads and the per-layer counters of a run.

Each workload is a fixed list of simulations (:class:`Op`).  Set-up
builds the list: it generates the inputs from the seed with the
program's own generators and computes the numpy reference for every
simulation.  The program only ever receives the generated index arrays.

Every simulation builds a fresh machine, so modelled caches start empty.
"""

import numpy as np

from repro import api
from repro.config import MachineConfig, NetworkConfig
from repro.software.privatization import PrivatizationScatterAdd
from repro.software.sortscan import SortScanScatterAdd
from repro.workloads import histogram

WORKLOADS = ("hist_hw", "hist_sw", "sens_uniform", "multinode_tree")

#: Histogram index ranges: hot bank, cache-resident, past the cache cliff.
HIST_RANGES = (16, 2048, 1 << 20)
#: Privatization is O(ranges x updates); the paper uses it on small ranges.
PRIVATIZATION_RANGES = (16, 2048)
SENS_RANGE = 65536
SENS_ENTRIES = (2, 8, 64)
SENS_LATENCIES = (8, 64, 256)
SENS_INTERVALS = (1, 2, 4)
#: Hot indices and the share of references sent to them (multinode_tree).
HOT_INDICES = 8
HOT_SHARE = 0.8
TARGETS_PER_NODE = 16
#: References in each warm-up simulation.
WARMUP_REFS = 64

#: Input sizes: full benchmark and the smoke size used by the tests.
#: Many short simulations rather than a few long ones: the calibration
#: loop runs before each, so the simulations and the loop sample the
#: same moments of the run.
SIZES = {
    False: {"hist_refs": 1024, "hist_datasets": 4, "sens_refs": 512,
            "nodes": 16, "refs_per_node": 96, "traces": 3},
    True: {"hist_refs": 256, "hist_datasets": 1, "sens_refs": 64,
           "nodes": 8, "refs_per_node": 16, "traces": 1},
}


class Op:
    """One simulation: a call that runs it, and its numpy reference.

    ``call(indices)`` runs the program on an index array and returns its
    run object (``.result``, ``.cycles``, ``.stats``).
    """

    __slots__ = ("name", "config", "indices", "reference", "call")

    def __init__(self, name, config, indices, reference, call):
        self.name = name
        self.config = config
        self.indices = indices
        self.reference = reference
        self.call = call

    def run(self):
        return self.call(self.indices)


def _reference(indices, targets):
    return api.scatter_add_reference(np.zeros(targets), indices, 1.0)


def _simulate(config, targets):
    def call(indices):
        return api.Simulation(config).run("scatter_add", indices, 1.0,
                                          num_targets=targets)
    return call


def _software(engine, targets):
    def call(indices):
        return engine.run(indices, 1.0, num_targets=targets)
    return call


def _hist_datasets(seed, size):
    """``(name, range, indices)`` for every range and dataset."""
    count = size["hist_datasets"]
    streams = iter(np.random.SeedSequence(seed).spawn(
        len(HIST_RANGES) * count))
    return [("r%d_d%d" % (r, k), r,
             histogram.generate_dataset(size["hist_refs"], r, next(streams)))
            for r in HIST_RANGES for k in range(count)]


def _hist_hw(seed, size):
    config = MachineConfig.table1()
    return [Op("hw_" + name, config, data, _reference(data, r),
               _simulate(config, r))
            for name, r, data in _hist_datasets(seed, size)]


def _hist_sw(seed, size):
    config = MachineConfig.table1()
    ops = []
    for name, r, data in _hist_datasets(seed, size):
        reference = _reference(data, r)
        ops.append(Op("sortscan_" + name, config, data, reference,
                      _software(SortScanScatterAdd(config), r)))
        if r in PRIVATIZATION_RANGES:
            ops.append(Op("privatization_" + name, config, data, reference,
                          _software(PrivatizationScatterAdd(config), r)))
    return ops


def _sens_uniform(seed, size):
    data = histogram.generate_dataset(size["sens_refs"], SENS_RANGE,
                                      np.random.SeedSequence(seed))
    reference = _reference(data, SENS_RANGE)
    ops = []
    for entries in SENS_ENTRIES:
        for latency in SENS_LATENCIES:
            for interval in SENS_INTERVALS:
                config = MachineConfig.uniform(
                    latency=latency, interval=interval,
                    combining_store_entries=entries)
                ops.append(Op("e%d_l%d_i%d" % (entries, latency, interval),
                              config, data, reference,
                              _simulate(config, SENS_RANGE)))
    return ops


def skewed_trace(nodes, refs_per_node, seed):
    """References over ``16 * nodes`` targets, 80% on 8 hot indices.

    Targets are homed in blocks of 16, one block per node.  Each hot
    index is on a node of its own and takes an equal share of the hot
    references, at random positions: the load on the busiest home node,
    and so the simulated cycles, do not hinge on chance.  `seed` is
    anything ``numpy.random.SeedSequence`` takes as entropy.
    """
    refs = nodes * refs_per_node
    targets = nodes * TARGETS_PER_NODE
    uniform_stream, hot_stream, pick_stream = (
        np.random.SeedSequence(seed).spawn(3))
    indices = histogram.generate_dataset(refs, targets, uniform_stream)
    rng = np.random.default_rng(hot_stream)
    hot = (rng.choice(nodes, HOT_INDICES, replace=False) * TARGETS_PER_NODE
           + rng.integers(0, TARGETS_PER_NODE, size=HOT_INDICES))
    rng = np.random.default_rng(pick_stream)
    count = int(round(HOT_SHARE * refs))
    positions = rng.permutation(refs)[:count]
    indices[positions] = hot[rng.permutation(np.arange(count) % HOT_INDICES)]
    return indices, targets


def _multinode_tree(seed, size):
    nodes = size["nodes"]
    ops = []
    for k in range(size["traces"]):
        indices, targets = skewed_trace(nodes, size["refs_per_node"],
                                        [seed, k])
        reference = _reference(indices, targets)
        for topology, site in (("tree", "both"), ("crossbar", "memory")):
            # One bank, channel and AGU per node, so the interconnect
            # (not the node pipeline) dominates, as in the network
            # ablation.
            config = MachineConfig(
                cache_banks=1, dram_channels=1, address_generators=1,
                network=NetworkConfig(nodes=nodes, topology=topology,
                                      tree_radix=4, combine_site=site,
                                      link_bw_words=2))
            ops.append(Op("%s_%s_t%d" % (topology, site, k), config,
                          indices, reference, _simulate(config, targets)))
    return ops


_BUILDERS = {
    "hist_hw": _hist_hw,
    "hist_sw": _hist_sw,
    "sens_uniform": _sens_uniform,
    "multinode_tree": _multinode_tree,
}


def build(workload, seed, smoke=False):
    """The workload's simulations for `seed` (inputs and references)."""
    return _BUILDERS[workload](seed, SIZES[smoke])


def warmup_ops(seed):
    """One short simulation of every workload's first kind.

    They run whatever the workload: once before anything is timed, so
    every layer has run before the first timed pass, and in every
    set-up of the traced run, so each layer has spans in every
    workload's traced cycle.
    """
    ops = []
    for workload in WORKLOADS:
        first = build(workload, seed, smoke=True)[0]
        indices = first.indices[:WARMUP_REFS]
        targets = len(first.reference)
        ops.append(Op("warmup_" + first.name, first.config, indices,
                      _reference(indices, targets), first.call))
    return ops


def matches(run, op):
    """True when the simulated result equals the numpy reference.

    Every update adds 1.0, so each sum is an exact integer in float64
    whatever order the simulator combines in: equality is exact.
    """
    result = np.asarray(run.result)
    return (result.shape == op.reference.shape
            and bool(np.array_equal(result, op.reference)))


# ---------------------------------------------------------------------- #
# per-layer counters
# ---------------------------------------------------------------------- #
COUNTERS = ("cycles_executed", "cycles_skipped", "ticks_executed",
            "ticks_skipped", "router_hol_blocks", "sau_atomics",
            "sau_combined", "sau_stall_cycles", "bank_hits", "bank_misses",
            "mem_reads", "mem_busy_cycles", "mem_channel_cycles",
            "net_injected", "net_combined", "net_hol_blocks")


def counters(run, config):
    """Raw per-layer counters of one simulation, summed over components."""
    stats = run.stats.as_dict()
    out = dict.fromkeys(COUNTERS, 0)
    out["cycles_executed"] = stats.get("engine.cycles_executed", 0)
    out["cycles_skipped"] = stats.get("engine.cycles_fast_forwarded", 0)
    out["ticks_executed"] = stats.get("engine.ticks_executed", 0)
    out["ticks_skipped"] = stats.get("engine.ticks_skipped", 0)
    out["net_injected"] = stats.get("sim.network.injected", 0)
    out["net_combined"] = stats.get("sim.network.combined_in_flight", 0)
    out["net_hol_blocks"] = stats.get("sim.network.hol_blocks", 0)
    for key, value in stats.items():
        component, __, suffix = key.rpartition(".")
        unit = component.rpartition(".")[2]
        if key.endswith(".router.hol_blocks"):
            out["router_hol_blocks"] += value
        elif unit.startswith("sau") and suffix in ("atomics", "combined",
                                                   "stall_cycles"):
            out["sau_" + suffix] += value
        elif unit.startswith("bank") and suffix in ("hits", "misses"):
            out["bank_" + suffix] += value
        elif unit in ("dram", "mem") and suffix == "reads":
            out["mem_reads"] += value
        elif unit in ("dram", "mem") and suffix == "busy_cycles":
            out["mem_busy_cycles"] += value
    channels = 1 if config.memory_model == "uniform" else config.dram_channels
    out["mem_channel_cycles"] = (channels * config.nodes
                                 * (out["cycles_executed"]
                                    + out["cycles_skipped"]))
    return out


def _share(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(totals):
    """Per-layer count metrics from counters summed over simulations."""
    return {
        "sim.engine.cycles_executed": totals["cycles_executed"],
        "sim.engine.cycles_skipped": totals["cycles_skipped"],
        "sim.engine.awake_frac": _share(
            totals["ticks_executed"],
            totals["ticks_executed"] + totals["ticks_skipped"]),
        "node.router.hol_blocks": totals["router_hol_blocks"],
        "core.sau.atomics": totals["sau_atomics"],
        "core.sau.combined_frac": _share(totals["sau_combined"],
                                         totals["sau_atomics"]),
        "core.sau.stall_cycles": totals["sau_stall_cycles"],
        "cache.bank.hit_frac": _share(
            totals["bank_hits"], totals["bank_hits"] + totals["bank_misses"]),
        "cache.bank.misses": totals["bank_misses"],
        "memory.dram.reads": totals["mem_reads"],
        "memory.dram.busy_frac": _share(totals["mem_busy_cycles"],
                                        totals["mem_channel_cycles"]),
        "network.injected": totals["net_injected"],
        "network.combined_frac": _share(totals["net_combined"],
                                        totals["net_injected"]),
        "network.hol_blocks": totals["net_hol_blocks"],
    }
