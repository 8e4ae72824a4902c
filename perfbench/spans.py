"""Span tracer for the benchmark's traced run.

The tracer wraps the program's public entry points from outside (class
attributes are swapped while a :class:`Tracer` is installed and restored
afterwards), so the program itself carries no tracing code.  Each call of
a wrapped function records one span -- layer, start, end, parent span and
run id -- in flat arrays; the analysis afterwards derives each layer's
self time (a span's duration minus the time its child spans cover).

Spans nest strictly (they are pushed and popped on one stack), so the
self times of all spans add up to the time covered by top-level spans.
The reconciliation check compares that sum with the traced wall time
measured around the whole traced region.
"""

import time
from array import array

import numpy as np


def entry_points():
    """``[(layer, owner, attribute), ...]`` for every wrapped entry point.

    ``owner`` is a class or module; ``attribute`` names the function to
    wrap on it.  Imported lazily, after the program has been located.
    """
    from repro import api
    from repro.cache.bank import CacheBank
    from repro.core.unit import ScatterAddUnit
    from repro.memory.dram import DRAMSystem, UniformMemory
    from repro.multinode.interface import NodeInterface
    from repro.multinode.system import MultiNodeSystem
    from repro.network.crossbar import Crossbar
    from repro.network.fabric import Switch
    from repro.node.agu import AddressGeneratorUnit
    from repro.node.processor import StreamProcessor
    from repro.node.router import Router
    from repro.sim.engine import Simulator
    from repro.sim.queues import FIFO, LatencyPipe
    from repro.software.privatization import PrivatizationScatterAdd
    from repro.software.sortscan import SortScanScatterAdd
    from repro.workloads import histogram

    points = [
        ("api", api.Simulation, "run"),
        ("sim.engine", Simulator, "run"),
        ("node.agu", AddressGeneratorUnit, "tick"),
        ("node.router", Router, "tick"),
        ("node.processor", StreamProcessor, "__init__"),
        ("node.processor", StreamProcessor, "run"),
        ("core.unit", ScatterAddUnit, "tick"),
        ("cache.bank", CacheBank, "tick"),
        ("memory.dram", DRAMSystem, "tick"),
        ("memory.dram", UniformMemory, "tick"),
        ("network", Switch, "tick"),
        ("network", Crossbar, "tick"),
        ("multinode", NodeInterface, "tick"),
        ("multinode", MultiNodeSystem, "__init__"),
        ("multinode", MultiNodeSystem, "scatter_add"),
        ("software", SortScanScatterAdd, "run"),
        ("software", PrivatizationScatterAdd, "run"),
        ("workloads", histogram, "generate_dataset"),
        ("check", api, "scatter_add_reference"),
    ]
    for method in ("can_push", "push", "peek", "pop", "sync", "drain"):
        points.append(("sim.queues", FIFO, method))
    for method in ("can_push", "push", "advance", "ready", "next_ready",
                   "peek", "pop"):
        points.append(("sim.queues", LatencyPipe, method))
    return points


#: Layers reported as ``<layer>.self_s``, in report order.
LAYERS = ("sim.engine", "sim.queues", "node.agu", "node.router",
          "node.processor", "core.unit", "cache.bank", "memory.dram",
          "network", "multinode", "software", "workloads", "check", "api")


class Tracer:
    """Records spans around the program's entry points while installed.

    Use as a context manager; :meth:`span` opens a span from the
    benchmark's own code (its result checks), and :attr:`run_id` tags
    every span opened until it changes.
    """

    def __init__(self, points=None):
        self.points = entry_points() if points is None else points
        self.layer_ids = {name: index for index, name in enumerate(LAYERS)}
        self.run_id = [0]
        self._saved = []
        self._stack = [-1]
        self.layers = array("i")
        self.parents = array("i")
        self.runs = array("i")
        self.starts = array("d")
        self.ends = array("d")

    def reset(self):
        """Forget every recorded span (between traced measurements)."""
        for column in (self.layers, self.parents, self.runs, self.starts,
                       self.ends):
            del column[:]
        del self._stack[1:]

    # ------------------------------------------------------------------ #
    def _wrap(self, fn, layer):
        clock = time.perf_counter
        stack = self._stack
        push, pop = stack.append, stack.pop
        add_layer, add_parent = self.layers.append, self.parents.append
        add_run, run_id = self.runs.append, self.run_id
        starts, ends = self.starts, self.ends
        add_start, add_end = starts.append, ends.append

        def traced(*args, **kwargs):
            sid = len(starts)
            add_layer(layer)
            add_parent(stack[-1])
            add_run(run_id[0])
            add_end(0.0)
            push(sid)
            add_start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                pop()

        return traced

    def span(self, layer, fn, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span of `layer`."""
        return self._wrap(fn, self.layer_ids[layer])(*args, **kwargs)

    def __enter__(self):
        for layer, owner, attribute in self.points:
            had_own = attribute in vars(owner)
            original = getattr(owner, attribute)
            self._saved.append((owner, attribute, had_own, original))
            setattr(owner, attribute,
                    self._wrap(original, self.layer_ids[layer]))
        return self

    def __exit__(self, *exc_info):
        while self._saved:
            owner, attribute, had_own, original = self._saved.pop()
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        return False

    # ------------------------------------------------------------------ #
    def analyse(self):
        """Per-layer self seconds, span counts and covered seconds."""
        layers, parents, __, starts, ends = self.columns()
        duration = ends - starts
        count = len(duration)
        nested = parents >= 0
        child_time = np.bincount(parents[nested], weights=duration[nested],
                                 minlength=count)
        self_time = duration - child_time
        per_layer = np.bincount(layers, weights=self_time,
                                minlength=len(LAYERS))
        calls = np.bincount(layers, minlength=len(LAYERS))
        return {
            "self_s": {name: float(per_layer[index])
                       for index, name in enumerate(LAYERS)},
            "calls": {name: int(calls[index])
                      for index, name in enumerate(LAYERS)},
            "covered_s": float(duration[~nested].sum()),
        }

    def columns(self):
        """Copies of the span columns: layer, parent, run, start, end."""
        return tuple(np.array(column, dtype=dtype) for column, dtype in (
            (self.layers, np.int32), (self.parents, np.int32),
            (self.runs, np.int32), (self.starts, np.float64),
            (self.ends, np.float64)))

    def write(self, path):
        """Write the recorded spans to `path` (numpy ``.npz``)."""
        layer, parent, run, start, end = self.columns()
        np.savez(path, layer_names=np.array(LAYERS), layer=layer,
                 parent=parent, run=run, start=start, end=end)
