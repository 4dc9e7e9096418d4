"""Cycles/committed of whole bus cells (scale 0.05, seed 1).

The bench gate's baseline (`BENCH_matrix.json`) pins four radiosity and
tpc-b cells, and `tests/coherence/test_directory.py::
test_directory_cell_timing` six directory cells.  These pin the
ALU-heavy and SLE cells that neither covers: raytrace, ocean and
specjbb under base, SLE and the full combination, and specweb with and
without LVP.  A change that is not a declared model fix keeps every
value here.

``test_drain_wait_cell_timing`` pins cells (scale 0.03) whose larx ops
wait for their own store to drain (docs/core_model.md, "Store-to-load
forwarding"), with the retries they count.  The four SLE cells move
when a wait is woken only where a store leaves the store buffer: an
elided store leaves the window at region commit and never enters the
buffer.
"""

import dataclasses

import pytest

from repro.common.config import InterconnectKind, scaled_config
from repro.experiments.runner import cell_config, run_cell
from repro.system.system import System
from repro.workloads import get_benchmark


@pytest.mark.parametrize(
    ("workload", "technique", "cycles", "committed"),
    [
        ("raytrace", "base", 9078, 23315),
        ("raytrace", "sle", 6232, 17109),
        ("raytrace", "emesti+lvp+sle", 6232, 17109),
        ("ocean", "base", 16647, 26283),
        ("ocean", "sle", 16599, 25202),
        ("ocean", "emesti+lvp+sle", 16899, 27747),
        ("specjbb", "base", 23179, 4681),
        ("specjbb", "sle", 22723, 4679),
        ("specjbb", "emesti+lvp+sle", 23828, 4677),
        ("specweb", "base", 24297, 23309),
        ("specweb", "lvp", 23926, 23265),
    ],
)
def test_bus_cell_timing(workload, technique, cycles, committed):
    summary = run_cell(cell_config(scaled_config(), technique), workload, 0.05, 1)
    assert (summary["cycles"], summary["committed"]) == (cycles, committed)


@pytest.mark.parametrize(
    ("interconnect", "workload", "technique", "seed", "cycles", "committed",
     "drain_waits"),
    [
        (InterconnectKind.BUS, "radiosity", "sle", 7, 7932, 2902, 762),
        (InterconnectKind.BUS, "specweb", "sle", 4099, 16727, 16898, 7095),
        (InterconnectKind.DIRECTORY, "tpc-b", "sle", 7, 12077, 1956, 3848),
        (InterconnectKind.DIRECTORY, "specweb", "emesti+sle", 4099,
         21675, 21500, 8928),
        (InterconnectKind.BUS, "tpc-b", "emesti", 1, 8764, 2641, 2569),
    ],
)
def test_drain_wait_cell_timing(
    interconnect, workload, technique, seed, cycles, committed, drain_waits
):
    base = dataclasses.replace(scaled_config(), interconnect=interconnect)
    result = System(
        cell_config(base, technique), get_benchmark(workload, scale=0.03),
        seed=seed,
    ).run()
    assert (result.cycles, result.committed) == (cycles, committed)
    waits = sum(
        value for key, value in result.stats.items()
        if key.endswith(".larx.drain_waits")
    )
    assert waits == drain_waits
