"""Multiprocessor system assembly and run loop.

``System`` builds an N-processor snoop-based SMP from a
:class:`~repro.common.config.MachineConfig` and a workload (anything
providing ``build_programs``), runs it to completion, and returns a
:class:`RunResult` with the runtime, the merged statistics registry,
and derived metrics (IPC, transaction counts, miss classes, and the
labelled export of the statistics, :attr:`RunResult.metrics`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.classify import MissClassifier
from repro.common.config import InterconnectKind, MachineConfig
from repro.common.errors import DeadlockError
from repro.common.events import Scheduler
from repro.common.rng import SplitRng
from repro.common.stats import StatsRegistry
from repro.coherence.bus import SnoopBus
from repro.coherence.directory import DirectoryNetwork
from repro.coherence.controller import CoherenceController
from repro.coherence.validation import CoherenceChecker
from repro.cpu.core import Core
from repro.memory.hierarchy import NodeMemory
from repro.memory.mainmem import MainMemory
from repro.obs.metrics import MetricsRegistry, run_metrics
from repro.obs.progress import Heartbeat
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sle.engine import SLEEngine


@dataclass
class RunResult:
    """Outcome of one complete simulation run."""

    cycles: int
    committed: int
    stats: StatsRegistry
    config: MachineConfig = field(repr=False)

    @property
    def metrics(self) -> MetricsRegistry:
        """The labelled paper metrics, read from :attr:`stats` (a new view per call)."""
        return run_metrics(self.stats, self.config)

    @property
    def ipc(self) -> float:
        """Committed micro-ops per cycle, across all processors."""
        return self.committed / self.cycles if self.cycles else 0.0

    def txn(self, kind: str) -> float:
        """Bus transaction count by kind name (read/readx/upgrade/...)."""
        return self.stats.get(f"bus.txn.{kind}")

    @property
    def address_transactions(self) -> float:
        """Total address-network transactions (Figure 8's metric)."""
        return self.stats.get("bus.txn.total")

    def miss_class(self, name: str) -> float:
        """Classified miss count (cold/capacity/comm, comm.tss/...)."""
        return self.stats.get(f"misses.miss.{name}")

    def core_stat(self, core_id: int, name: str) -> float:
        """Read one per-core counter."""
        return self.stats.get(f"core{core_id}.{name}")

    def node_sum(self, name: str) -> float:
        """Sum a per-node counter over all processors."""
        return sum(
            self.stats.get(f"node{i}.{name}") for i in range(self.config.n_procs)
        )

    def ctrl_sum(self, name: str) -> float:
        """Sum a per-controller counter over all processors."""
        return sum(
            self.stats.get(f"ctrl{i}.{name}") for i in range(self.config.n_procs)
        )


class System:
    """An N-processor snoop-based shared-memory multiprocessor."""

    def __init__(
        self,
        config: MachineConfig,
        workload,
        seed: int | str = 0,
        tracer: Tracer | None = None,
        check_invariants: bool = False,
    ):
        config.validate()
        self.config = config
        self.workload = workload
        self.rng = SplitRng(seed)
        self.scheduler = Scheduler()
        self.stats = StatsRegistry()
        # Tracing defaults to the process-wide no-op object; a real
        # Tracer is bound to this system's cycle clock.
        if tracer is None:
            self.tracer = NULL_TRACER
        else:
            tracer.bind_clock(self.scheduler)
            self.tracer = tracer
        self.memory = MainMemory(config.line_size)
        bus_cls = (
            DirectoryNetwork
            if config.interconnect is InterconnectKind.DIRECTORY
            else SnoopBus
        )
        self.bus = bus_cls(
            self.scheduler,
            config.bus,
            self.memory,
            self.stats.scoped("bus"),
            jitter=config.latency_jitter,
            rng=self.rng.split("bus"),
            tracer=self.tracer,
        )
        self.classifier = MissClassifier(self.stats.scoped("misses"), config.n_procs)
        programs = workload.build_programs(config, self.rng.split("workload"))
        if len(programs) != config.n_procs:
            raise DeadlockError(
                f"workload built {len(programs)} programs for "
                f"{config.n_procs} processors"
            )
        self.controllers: list[CoherenceController] = []
        self.nodes: list[NodeMemory] = []
        self.cores: list[Core] = []
        self.engines: list[SLEEngine] = []
        self._finished = 0
        for i in range(config.n_procs):
            ctrl = CoherenceController(
                i, config, self.bus, self.memory,
                self.stats.scoped(f"ctrl{i}"), tracer=self.tracer,
            )
            node = NodeMemory(
                i, config, self.scheduler, ctrl,
                self.stats.scoped(f"node{i}"), classifier=self.classifier,
                tracer=self.tracer,
            )
            core = Core(
                i, config, self.scheduler, node, programs[i],
                self.stats.scoped(f"core{i}"), on_finished=self._core_finished,
            )
            if config.sle.enabled:
                engine = SLEEngine(
                    config, core, node, self.scheduler,
                    self.stats.scoped(f"sle{i}"), tracer=self.tracer,
                )
                self.engines.append(engine)
            self.controllers.append(ctrl)
            self.nodes.append(node)
            self.cores.append(core)
        # The runtime invariant checker intercepts every interconnect
        # grant; a coherence bug then fails fast at the violating event
        # instead of corrupting results silently.
        self.checker = CoherenceChecker(self) if check_invariants else None

    def _core_finished(self) -> None:
        self._finished += 1

    @property
    def all_finished(self) -> bool:
        """True once every core's program completed."""
        return self._finished >= len(self.cores)

    def run(
        self,
        max_cycles: int = 500_000_000,
        max_events: int = 300_000_000,
        heartbeat: int = 0,
    ) -> RunResult:
        """Run all programs to completion and return the result.

        ``max_cycles``/``max_events`` are the livelock guards; sweeps,
        experiments and ``repro-sim run`` all use these defaults, so a
        cell passes or fails them the same way everywhere.
        ``heartbeat`` > 0 logs a progress line (cycles, committed ops,
        IPC-so-far, events/sec) every that-many cycles through the
        ``repro.heartbeat`` logger — observability for long runs.  Its
        ticks are scheduler events the simulation did not fire, so
        ``run.events`` leaves them out.
        """
        for core in self.cores:
            core.start()
        pulse = None
        if heartbeat:
            pulse = Heartbeat(
                self.scheduler,
                heartbeat,
                progress=self._progress,
                stop=lambda: self.all_finished,
            )
        self.scheduler.run(
            until=lambda: self.all_finished,
            max_cycles=max_cycles,
            max_events=max_events,
        )
        if not self.all_finished:
            stuck = [c.core_id for c in self.cores if not c.finished]
            detail = []
            for cid in stuck:
                core = self.cores[cid]
                head = core.window[0] if core.window else None
                detail.append(
                    f"P{cid}: window={len(core.window)} head={head!r} "
                    f"sb={len(core.sb)} await_ctl={core._await_control is not None} "
                    f"program_done={core.program_done}"
                )
            raise DeadlockError(
                "simulation stalled with unfinished cores: " + "; ".join(detail)
            )
        if self.checker is not None:
            # End-of-run sweep: every line still resident anywhere must
            # satisfy the invariants, not just lines touched by a grant.
            self.checker.check_all()
        committed = sum(core.committed for core in self.cores)
        cycles = max(
            int(self.stats.get(f"core{i}.finish_time"))
            for i in range(self.config.n_procs)
        )
        events = self.scheduler.events_fired - (pulse.beats if pulse else 0)
        self._record_summary(cycles, committed, events)
        return RunResult(
            cycles=cycles, committed=committed, stats=self.stats,
            config=self.config,
        )

    def _progress(self) -> dict:
        committed = sum(core.committed for core in self.cores)
        now = self.scheduler.now
        return {
            "committed": committed,
            "ipc": committed / now if now else 0.0,
            "finished": f"{self._finished}/{len(self.cores)}",
        }

    def _record_summary(self, cycles: int, committed: int, events: int) -> None:
        self.stats.set("run.cycles", cycles)
        self.stats.set("run.committed", committed)
        self.stats.set("run.events", events)
        if cycles:
            self.stats.set("run.ipc", committed / cycles)
        if self.checker is not None:
            self.stats.set("run.invariant_checks", self.checker.checks)


def run_workload(
    config: MachineConfig, workload, seed: int | str = 0, **run_kwargs
) -> RunResult:
    """Convenience: build a :class:`System` and run it."""
    return System(config, workload, seed=seed).run(**run_kwargs)
