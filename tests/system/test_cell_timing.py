"""Cycles/committed of whole bus cells (scale 0.05, seed 1).

The bench gate's baseline (`BENCH_matrix.json`) pins four radiosity and
tpc-b cells, and `tests/coherence/test_directory.py::
test_directory_cell_timing` six directory cells.  These pin the
ALU-heavy and SLE cells that neither covers: raytrace, ocean and
specjbb under base, SLE and the full combination, and specweb with and
without LVP.  A change that is not a declared model fix keeps every
value here.
"""

import pytest

from repro.common.config import scaled_config
from repro.experiments.runner import cell_config, run_cell


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
