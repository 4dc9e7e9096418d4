"""§5.1.2 — trace-driven capturability vs execution-driven reality.

The paper's methodological point: "any evaluation of LVP without
considering ILP/MLP effects, i.e. trace-based analysis, is
inconclusive."  This harness makes the point quantitative on our own
workloads:

1. run each benchmark execution-driven under the baseline while
   recording its reference trace;
2. replay the trace through the limit-study analyzer: the fraction of
   communication misses LVP/MESTI could *theoretically* capture;
3. run the same benchmark execution-driven with LVP / E-MESTI and
   report the *measured* speedup.

Trace-driven capture rates are high; measured LVP speedups are much
smaller, because the consumer still waits out verification latency
unless independent work exists to overlap it — while E-MESTI turns a
similar capture rate into larger gains by eliminating the transfer at
the producer.
"""

from __future__ import annotations

from repro.analysis.report import render_table
from repro.analysis.trace import TraceRecorder
from repro.analysis.tracedriven import TraceDrivenAnalyzer
from repro.common.config import scaled_config
from repro.experiments.runner import cell_config
from repro.system.system import System
from repro.workloads.registry import get_benchmark

HEADERS = [
    "Benchmark",
    "Comm misses (trace)",
    "LVP capturable%",
    "MESTI capturable%",
    "LVP measured speedup",
    "E-MESTI measured speedup",
]


def _run(technique: str, benchmark: str, scale: float, seed: int, record=False):
    cfg = cell_config(scaled_config(), technique)
    system = System(cfg, get_benchmark(benchmark, scale=scale), seed=seed)
    recorder = TraceRecorder(system) if record else None
    result = system.run()
    return result, recorder


def collect(scale=0.5, seed=1, benchmarks=("tpc-b", "specweb"), verbose=True):
    """Run the experiment and return its result rows."""
    rows = []
    for benchmark in benchmarks:
        base, recorder = _run("base", benchmark, scale, seed, record=True)
        analyzer = TraceDrivenAnalyzer(base.config.n_procs, base.config.line_size)
        analysis = analyzer.analyze(recorder.records)
        lvp, _ = _run("lvp", benchmark, scale, seed)
        emesti, _ = _run("emesti", benchmark, scale, seed)
        rows.append([
            benchmark,
            analysis.comm_misses,
            round(100 * analysis.lvp_fraction, 1),
            round(100 * analysis.mesti_fraction, 1),
            round(base.cycles / lvp.cycles, 3),
            round(base.cycles / emesti.cycles, 3),
        ])
        if verbose:
            print(f"  trace-vs-exec {benchmark} done", flush=True)
    return rows


def run(scale=0.5, seed=1, benchmarks=("tpc-b", "specweb"), verbose=True) -> str:
    """Run the experiment and return the rendered text."""
    rows = collect(scale, seed, benchmarks, verbose)
    return render_table(
        HEADERS, rows,
        title="Trace-driven capturability vs execution-driven speedup (§5.1.2)",
    )


if __name__ == "__main__":
    print(run())
