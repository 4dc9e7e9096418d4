"""§6 — MESTI and E-MESTI over a directory-based system.

The paper's closing discussion: the techniques "can be implemented
directly in directory-based systems", but the useful-snoop-response
machinery "may need modification since generating this response is
more complicated".  This study runs the same workloads over the
home-directory interconnect (:mod:`repro.coherence.directory`) and
reports:

* that validates still eliminate communication misses — now as
  *multicasts to the directory-tracked T-sharers* instead of
  broadcasts (message counts show the saving);
* that E-MESTI's training still works, because the home contacts every
  sharer on an invalidation and can aggregate the useful response;
* the cost of directory indirection against the snooping bus.
"""

from __future__ import annotations

import dataclasses

from repro.analysis.report import render_table
from repro.common.config import InterconnectKind, scaled_config
from repro.experiments.runner import cell_config, summarize
from repro.system.system import System
from repro.workloads.registry import get_benchmark

HEADERS = [
    "Benchmark",
    "Interconnect",
    "Base cycles",
    "E-MESTI speedup",
    "Validates",
    "Comm misses (E-MESTI)",
    "Messages",
]


def _run(technique, benchmark, interconnect, scale, seed):
    cfg = cell_config(
        dataclasses.replace(scaled_config(), interconnect=interconnect), technique
    )
    result = System(cfg, get_benchmark(benchmark, scale=scale), seed=seed).run()
    summary = summarize(result)
    summary["messages"] = result.stats.get("bus.messages")
    return summary


def collect(scale=0.5, seed=1, benchmarks=("tpc-b", "radiosity"), verbose=True):
    """Run the experiment and return its result rows."""
    rows = []
    for benchmark in benchmarks:
        for kind in (InterconnectKind.BUS, InterconnectKind.DIRECTORY):
            base = _run("base", benchmark, kind, scale, seed)
            emesti = _run("emesti", benchmark, kind, scale, seed)
            rows.append([
                benchmark,
                kind.value,
                base["cycles"],
                round(base["cycles"] / emesti["cycles"], 3),
                emesti["txn_validate"],
                emesti["miss_comm"],
                emesti["messages"] or emesti["txn_total"],
            ])
            if verbose:
                print(f"  directory-study {benchmark}/{kind.value} done", flush=True)
    return rows


def run(scale=0.5, seed=1, benchmarks=("tpc-b", "radiosity"), verbose=True) -> str:
    """Run the experiment and return the rendered text."""
    rows = collect(scale, seed, benchmarks, verbose)
    return render_table(
        HEADERS, rows,
        title="E-MESTI over snooping bus vs home directory (§6)",
    )


if __name__ == "__main__":
    print(run())
