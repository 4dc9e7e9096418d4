"""The seven benchmark models: construction, execution, and shape."""

import pytest

from repro.common.rng import SplitRng
from repro.cpu.isa import OpKind
from repro.system.system import System
from repro.workloads.locks import KERNEL_ATOMIC_PC, KERNEL_LOCK_PC
from repro.workloads.registry import BENCHMARKS, COMMERCIAL, SCIENTIFIC, get_benchmark


def test_registry_contains_the_papers_seven():
    assert set(BENCHMARKS) == {
        "ocean", "radiosity", "raytrace", "specjbb", "specweb", "tpc-b", "tpc-h",
    }
    assert set(SCIENTIFIC) | set(COMMERCIAL) == set(BENCHMARKS)


def test_unknown_benchmark_rejected():
    from repro.common.errors import ConfigError

    with pytest.raises(ConfigError):
        get_benchmark("linpack")


@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_programs_build_per_processor(name, tiny4_config):
    wl = get_benchmark(name, scale=0.02)
    programs = wl.build_programs(tiny4_config, SplitRng(0))
    assert len(programs) == 4
    block = programs[0].next_block(None)
    assert block and len(block) >= 1


@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_benchmark_runs_to_completion(name, tiny4_config):
    wl = get_benchmark(name, scale=0.02)
    res = System(tiny4_config, wl, seed=3).run(
        max_cycles=30_000_000, max_events=10_000_000
    )
    assert res.committed > 100
    assert res.cycles > 0


def _op_census(name, config, iterations=3):
    """Statically walk one thread's program, answering control values
    that keep it moving (locks acquired, flags set)."""
    wl = get_benchmark(name, iterations=iterations)
    program = wl.build_programs(config, SplitRng(0))[0]
    census = {"kernel_pc_synch": 0, "larx": 0, "stcx": 0, "isync": 0, "ops": 0}
    value = None
    pending_larx = False
    for _ in range(20_000):
        block = program.next_block(value)
        if block is None:
            break
        value = None
        for op in block:
            census["ops"] += 1
            if op.kind is OpKind.LARX:
                census["larx"] += 1
                pending_larx = True
                if op.pc in (KERNEL_LOCK_PC, KERNEL_ATOMIC_PC):
                    census["kernel_pc_synch"] += 1
                value = 0  # lock always observed free
            elif op.kind is OpKind.STCX:
                census["stcx"] += 1
                value = 1  # stcx always succeeds
                pending_larx = False
            elif op.kind is OpKind.ISYNC:
                census["isync"] += 1
            elif op.control:
                value = 1  # flags/counters read as "proceed"
    return census


def test_commercial_synchronization_uses_shared_kernel_pcs(tiny4_config):
    census = _op_census("tpc-b", tiny4_config)
    assert census["kernel_pc_synch"] > 0
    assert census["isync"] > 0  # kernel locks carry isync (§4.2.2)


def test_scientific_locking_is_user_level(tiny4_config):
    census = _op_census("radiosity", tiny4_config)
    assert census["kernel_pc_synch"] == 0
    assert census["larx"] > 0


def test_scale_controls_work(tiny4_config):
    small = _op_census("radiosity", tiny4_config, iterations=2)["ops"]
    large = _op_census("radiosity", tiny4_config, iterations=8)["ops"]
    assert large > small * 2


def test_specjbb_footprint_exceeds_l2(experiment_config):
    from repro.workloads.specjbb import SpecjbbWorkload

    wl = SpecjbbWorkload()
    layout = wl.build_layout(experiment_config, SplitRng(0))
    heap_bytes = layout.heaps[0].size_bytes
    assert heap_bytes > experiment_config.l2.size_bytes


def test_benchmarks_have_distinct_cracking_ratios():
    ratios = {cls.cracking_ratio for cls in BENCHMARKS.values()}
    assert len(ratios) >= 5  # calibrated per benchmark from Table 2
