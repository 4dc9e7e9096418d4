"""Per-layer self-time attribution by wrapping each layer's entry points.

A :class:`LayerClock` bills wall time to the innermost active layer of
the calling thread.  Entering a wrapped call bills the time since the
last transition to the layer that was active and makes the callee's
layer active; returning does the same in reverse.  Every interval is
billed exactly once, so the layers' self times plus the time spent
outside any wrapped call (``None``, reported as
``trace.unattributed_s``) add up to the traced wall time.

Two rules decide which layer a call lands in:

* a nested call is billed to the callee's layer, so coherence work
  that the core calls synchronously lands in ``coherence``, not
  ``cpu.core``;
* a callback handed to ``Scheduler.at``/``after`` is billed to the
  package that defined it, so bus grant work that fires as an event
  lands in ``coherence``, not in the scheduler's self time.

Nothing here edits the simulator: :class:`Wrapping` patches class
attributes for the duration of a traced run and puts the originals
back on :meth:`Wrapping.restore`.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

#: Module prefix -> layer, most specific first (callback billing).
MODULE_LAYERS = (
    ("repro.common.events", "common.sched"),
    ("repro.common.stats", "common.stats"),
    ("repro.cpu.program", "cpu.program"),
    ("repro.cpu", "cpu.core"),
    ("repro.memory", "memory"),
    ("repro.coherence", "coherence"),
    ("repro.lvp", "lvp"),
    ("repro.sle", "sle"),
    ("repro.analysis", "analysis"),
    ("repro.workloads", "workloads"),
    ("repro.system", "system"),
    ("repro.experiments", "experiments"),
)

#: Simulator layers in report order.
SIM_LAYERS = tuple(dict.fromkeys(layer for _prefix, layer in MODULE_LAYERS))


def layer_of_module(module: str | None) -> str | None:
    """The layer a module belongs to, or None outside every layer."""
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or (module or "").startswith(prefix + "."):
            return layer
    return None


class _ThreadState:
    __slots__ = ("layer", "last", "stack", "self_s", "calls", "out")

    def __init__(self, now: float):
        self.layer: str | None = None
        self.last = now
        self.stack: list[str | None] = []
        self.self_s: dict[str | None, float] = defaultdict(float)
        #: Wrapped calls into each layer, and out of it.
        self.calls: dict[str, int] = defaultdict(int)
        self.out: dict[str | None, int] = defaultdict(int)


class LayerClock:
    """Self time and call counts per layer, kept per thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self.started = clock()
        #: Inclusive durations of calls wrapped with a ``durations`` key,
        #: and call counts of calls wrapped with a ``count`` key.
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)
        #: Seconds one wrapped call adds to its callee and its caller.
        self.cost = (0.0, 0.0)

    def calibrate(self, n: int = 20_000, repeats: int = 7) -> None:
        """Measure what one wrapped call adds to callee and caller.

        Times ``n`` calls of a wrapped no-op from inside a layer and
        ``n`` calls of the bare no-op, keeping the fastest of
        ``repeats`` tries of each (host noise only ever adds time).
        The difference, split the way :meth:`enter`/:meth:`exit` bill
        it, is what :meth:`snapshot` later moves out of the layers.
        Leaves the totals reset.
        """

        def noop():
            return None

        wrapped = Wrapping(self)._layer_call(noop, "calibrate.callee")
        clock = self.clock
        self.cost = (0.0, 0.0)
        bare = loop = callee = caller = float("inf")
        for _ in range(repeats):
            start = clock()
            for _ in range(n):
                noop()
            bare = min(bare, (clock() - start) / n)
            start = clock()
            for _ in range(n):
                pass
            loop = min(loop, (clock() - start) / n)
            self.reset()
            self.enter("calibrate.caller")
            for _ in range(n):
                wrapped()
            self.exit()
            totals = self.snapshot()["self_s"]
            callee = min(callee, totals.get("calibrate.callee", 0.0) / n)
            caller = min(caller, totals.get("calibrate.caller", 0.0) / n)
        self.cost = (max(callee - (bare - loop), 0.0), max(caller - loop, 0.0))
        self.reset()

    def _state(self) -> _ThreadState:
        try:
            return self._tls.state
        except AttributeError:
            state = _ThreadState(self.clock())
            self._tls.state = state
            with self._lock:
                self._threads.append(state)
            return state

    def enter(self, layer: str) -> None:
        """Make ``layer`` the calling thread's active layer."""
        state = self._state()
        now = self.clock()
        state.self_s[state.layer] += now - state.last
        state.stack.append(state.layer)
        state.out[state.layer] += 1
        state.layer = layer
        state.last = now
        state.calls[layer] += 1

    def exit(self) -> None:
        """Return to the layer active before the matching :meth:`enter`."""
        state = self._state()
        now = self.clock()
        state.self_s[state.layer] += now - state.last
        state.layer = state.stack.pop()
        state.last = now

    def reset(self) -> None:
        """Zero every total and start a new measurement window now."""
        now = self.clock()
        with self._lock:
            for state in self._threads:
                state.self_s.clear()
                state.calls.clear()
                state.out.clear()
                state.last = now
        # In place: installed wrappers hold these lists' ``append``.
        for values in self.durations.values():
            values.clear()
        self.counts.clear()
        self.started = now

    def snapshot(self, baseline_s: float | None = None) -> dict:
        """Totals over every thread since the last :meth:`reset`.

        The calling thread's open interval is billed first, so for a
        single-threaded run ``sum(self_s.values()) == wall``.  The
        wrappers' own cost is moved from each layer to ``None``: a
        layer keeps the time its code ran, and the sum is unchanged.
        Each layer's cost is its wrapped calls priced as measured by
        :meth:`calibrate`.  ``baseline_s``, the untraced wall of the
        same work, rescales those prices so that together they come to
        the measured cost, ``wall - baseline_s`` (a tight calibration
        loop underprices calls made from cold code).
        """
        state = self._state()
        now = self.clock()
        state.self_s[state.layer] += now - state.last
        state.last = now
        self_s: dict[str | None, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        out: dict[str | None, int] = defaultdict(int)
        with self._lock:
            for thread in self._threads:
                for layer, seconds in thread.self_s.items():
                    self_s[layer] += seconds
                for layer, n in thread.calls.items():
                    calls[layer] += n
                for layer, n in thread.out.items():
                    out[layer] += n
        callee_cost, caller_cost = self.cost
        costs = {
            layer: calls.get(layer, 0) * callee_cost + out.get(layer, 0) * caller_cost
            for layer in self_s if layer is not None
        }
        wall = now - self.started
        priced = sum(costs.values())
        if baseline_s is not None and priced > 0:
            scale = max(wall - baseline_s, 0.0) / priced
            costs = {layer: cost * scale for layer, cost in costs.items()}
        for layer, cost in costs.items():
            cost = min(cost, self_s[layer])
            self_s[layer] -= cost
            self_s[None] += cost
        return {
            "wall_s": wall,
            "self_s": dict(self_s),
            "calls": dict(calls),
            "durations": {k: list(v) for k, v in self.durations.items()},
            "counts": dict(self.counts),
        }


class Wrapping:
    """Installs layer wrappers on classes and module functions."""

    def __init__(self, clock: LayerClock):
        self.clock = clock
        self._saved: list[tuple[object, str, object]] = []

    def _layer_call(self, fn, layer: str, durations: str | None = None,
                    count: str | None = None):
        clock = self.clock
        enter, exit_ = clock.enter, clock.exit
        if durations is not None:
            record = clock.durations[durations].append
            now = clock.clock

            @functools.wraps(fn)
            def timed(*args, **kwargs):
                enter(layer)
                start = now()
                try:
                    return fn(*args, **kwargs)
                finally:
                    record(now() - start)
                    exit_()

            timed._perfbench_layer = layer
            return timed
        if count is not None:
            counts = clock.counts

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                enter(layer)
                counts[count] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_()

            counted._perfbench_layer = layer
            return counted

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        wrapper._perfbench_layer = layer
        return wrapper

    def _replace(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def method(self, cls, name: str, layer: str, durations: str | None = None,
               count: str | None = None) -> None:
        """Wrap one method defined on ``cls`` itself.

        ``durations`` names a list in ``clock.durations`` that gets
        each call's inclusive seconds; ``count`` names a counter in
        ``clock.counts`` bumped per call.
        """
        raw = cls.__dict__[name]
        if isinstance(raw, (staticmethod, classmethod)):
            wrapped = type(raw)(
                self._layer_call(raw.__func__, layer, durations, count)
            )
        else:
            wrapped = self._layer_call(raw, layer, durations, count)
        self._replace(cls, name, wrapped)

    def methods(self, cls, names, layer: str, count: str | None = None) -> None:
        """Wrap several methods of ``cls``."""
        for name in names:
            self.method(cls, name, layer, count=count)

    def public(self, cls, layer: str, private: bool = False) -> None:
        """Wrap every public function defined on ``cls`` itself (and
        every ``_private`` one too with ``private``; never dunders)."""
        for name, raw in list(vars(cls).items()):
            hidden = name.startswith("__") or (name.startswith("_") and not private)
            if hidden or hasattr(raw, "_perfbench_layer"):
                continue
            if callable(raw) or isinstance(raw, (staticmethod, classmethod)):
                self.method(cls, name, layer)

    def function(self, module, name: str, layer: str) -> None:
        """Wrap a module-level function (callers look it up by name)."""
        self._replace(module, name, self._layer_call(module.__dict__[name], layer))

    def scheduler(self, scheduler_cls) -> None:
        """Wrap ``at``/``after``/``run`` and bill each callback handed
        to the scheduler (events, and ``run``'s stop condition) to the
        layer of the package that defined it."""
        enter, exit_ = self.clock.enter, self.clock.exit
        orig_at = scheduler_cls.__dict__["at"]
        orig_run = scheduler_cls.__dict__["run"]
        layers: dict[str | None, str | None] = {}

        def billed(callback):
            # Runs as layer None: wrapping callbacks is tracing work.
            enter(None)
            try:
                fn = getattr(callback, "__func__", callback)
                while isinstance(fn, functools.partial):
                    fn = fn.func
                if getattr(fn, "_perfbench_layer", None) is not None:
                    return callback  # already a wrapped entry point
                module = getattr(fn, "__module__", None)
                if module not in layers:
                    layers[module] = layer_of_module(module)
                layer = layers[module]
                if layer is None:
                    return callback

                def fire():
                    enter(layer)
                    try:
                        return callback()
                    finally:
                        exit_()

                return fire
            finally:
                exit_()

        @functools.wraps(orig_at)
        def at(self, when, callback):
            enter("common.sched")
            try:
                orig_at(self, when, billed(callback))
            finally:
                exit_()

        @functools.wraps(orig_run)
        def run(self, until=None, max_cycles=None, max_events=None):
            enter("common.sched")
            try:
                if until is not None:
                    until = billed(until)
                orig_run(self, until, max_cycles, max_events)
            finally:
                exit_()

        at._perfbench_layer = run._perfbench_layer = "common.sched"
        self._replace(scheduler_cls, "at", at)
        self._replace(scheduler_cls, "run", run)
        self.method(scheduler_cls, "after", "common.sched")

    def generators(self, program_cls, layer: str) -> None:
        """Bill every resumption of the op generator a ``program_cls``
        instance drives to ``layer`` (the workload code that wrote it)."""
        init = program_cls.__dict__["__init__"]
        enter, exit_ = self.clock.enter, self.clock.exit

        class Billed:
            __slots__ = ("gen",)

            def __init__(self, gen):
                self.gen = gen

            def __iter__(self):
                return self

            def __next__(self):
                return self.send(None)

            def send(self, value):
                enter(layer)
                try:
                    return self.gen.send(value)
                finally:
                    exit_()

        @functools.wraps(init)
        def billed_init(self, gen, *args, **kwargs):
            init(self, Billed(gen), *args, **kwargs)

        self._replace(program_cls, "__init__", billed_init)

    def restore(self) -> None:
        """Put every original back, newest first."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def wrap_simulator(wrapping: Wrapping, systems: list | None = None) -> None:
    """Wrap the simulator layers' entry points.

    ``systems``, when given, collects every ``System`` built while the
    wrappers are installed, so callers can read its statistics after
    the run (``run_matrix`` hands back only summaries).
    """
    from repro.analysis.classify import MissClassifier
    from repro.coherence.bus import SnoopBus
    from repro.coherence.controller import CoherenceController
    from repro.coherence.directory import DirectoryNetwork
    from repro.common.events import Scheduler
    from repro.common.stats import (
        CounterHandle, Histogram, ScopedStats, StatsRegistry,
    )
    from repro.cpu.core import Core
    from repro.cpu.program import BlockBuilder, ThreadProgram
    from repro.experiments import runner
    from repro.lvp.unit import LVPUnit
    from repro.memory.cache import SetAssocCache
    from repro.memory.hierarchy import NodeMemory
    from repro.memory.mainmem import MainMemory
    from repro.memory.mshr import MSHRFile
    from repro.memory.storebuffer import StoreBuffer
    from repro.sle.engine import SLEEngine
    from repro.system.system import System
    from repro.workloads.base import BenchmarkWorkload

    wrapping.scheduler(Scheduler)
    wrapping.method(ScopedStats, "add", "common.stats", count="common.stats.adds")
    wrapping.method(StatsRegistry, "add", "common.stats", count="common.stats.adds")
    wrapping.method(CounterHandle, "inc", "common.stats", count="common.stats.adds")
    wrapping.method(Histogram, "record", "common.stats", count="common.stats.adds")
    # Reads (``summarize`` does many) are stats work too.
    wrapping.public(StatsRegistry, "common.stats")
    wrapping.public(ScopedStats, "common.stats")
    wrapping.methods(Core, (
        "pump", "load_completed", "lvp_verified", "lvp_mispredict",
        "squash_from", "stcx_resolved", "release_region_ops",
        # the store buffer's drain callback, fired from the memory side
        "_drain_finished",
    ), "cpu.core")
    wrapping.method(ThreadProgram, "next_block", "cpu.program")
    # ``next_block`` resumes the workload's generator, which calls back
    # into the block builder for every op it writes.
    wrapping.generators(ThreadProgram, "workloads")
    wrapping.public(BlockBuilder, "cpu.program")
    wrapping.methods(NodeMemory, (
        "load", "store", "stcx", "prefetch_exclusive", "apply_store_now",
        "atomic_rmw", "atomic_add",
    ), "memory", count="memory.accesses")
    # The coherence controller calls back into the hierarchy through
    # its private methods (fills, write grants, snoop hooks).
    wrapping.public(NodeMemory, "memory", private=True)
    # The structures the core and the coherence controller reach into
    # directly are memory-hierarchy work too.
    for cls in (SetAssocCache, StoreBuffer, MSHRFile, MainMemory):
        wrapping.public(cls, "memory")
    wrapping.public(CoherenceController, "coherence")
    wrapping.method(SnoopBus, "request", "coherence")
    wrapping.method(DirectoryNetwork, "request", "coherence")
    wrapping.methods(LVPUnit, ("candidate", "resolve"), "lvp")
    wrapping.public(SLEEngine, "sle")
    wrapping.methods(MissClassifier, (
        "on_miss", "on_fill", "on_local_evict", "on_remote_invalidate",
    ), "analysis")
    wrapping.method(BenchmarkWorkload, "build_programs", "workloads")
    # Each component's constructor is billed to its own layer, so
    # ``system.build_s`` is the wiring ``System.__init__`` does itself.
    for cls, layer in (
        (Scheduler, "common.sched"), (StatsRegistry, "common.stats"),
        (Core, "cpu.core"), (NodeMemory, "memory"), (SetAssocCache, "memory"),
        (MainMemory, "memory"), (CoherenceController, "coherence"),
        (SnoopBus, "coherence"), (DirectoryNetwork, "coherence"),
        (LVPUnit, "lvp"), (SLEEngine, "sle"), (MissClassifier, "analysis"),
        (System, "system"),
    ):
        wrapping.method(cls, "__init__", layer)
    wrapping.function(runner, "summarize", "experiments.summarize")
    wrapping.method(runner.MatrixRunner, "flush", "experiments.flush")
    if systems is not None:
        init = System.__init__

        @functools.wraps(init)
        def collecting_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            systems.append(self)

        wrapping._replace(System, "__init__", collecting_init)
