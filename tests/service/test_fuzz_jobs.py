"""Fuzz campaign cells through the service: spec, queue, worker, store.

A ``{"kind": "fuzz"}`` spec explodes into one campaign cell per seed.
The cells ride the exact same lease / retry / dedupe machinery as
simulation cells; what differs is the payload (seed + budget +
protocols), the executor entry point (:func:`run_fuzz_cell`), and the stored
document (the campaign report, in the same result store under the
cell's ``fuzz-`` fingerprint).  These tests drive a real shard on a
thread executor — fast, deterministic, no subprocesses.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.service.events import EventLog
from repro.service.queue import (
    JobQueue,
    SpecError,
    fuzz_cell_identity,
    validate_spec,
)
from repro.service.workers import ResultStore, WorkerShard

FUZZ_SPEC = {"kind": "fuzz", "seeds": [1], "budget": 8}


class TestFuzzSpecValidation:
    def test_defaults_filled_in(self):
        spec = validate_spec(FUZZ_SPEC)
        assert spec["kind"] == "fuzz"
        assert spec["protocols"] == ["mesi", "mesti", "emesti"]
        assert spec["interconnect"] == "bus"
        assert spec["priority"] == 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecError, match="unknown job kind"):
            validate_spec({"kind": "frobnicate", "seeds": [1]})

    def test_empty_seeds_rejected(self):
        with pytest.raises(SpecError, match="seeds"):
            validate_spec({"kind": "fuzz", "seeds": []})

    def test_boolean_seeds_rejected(self):
        with pytest.raises(SpecError, match="booleans"):
            validate_spec({"kind": "fuzz", "seeds": [True]})

    @pytest.mark.parametrize("budget", [0, -1, 10_001, 1.5, True, "big"])
    def test_bad_budget_rejected(self, budget):
        with pytest.raises(SpecError, match="budget"):
            validate_spec({"kind": "fuzz", "seeds": [1], "budget": budget})

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SpecError, match="protocol"):
            validate_spec(
                {"kind": "fuzz", "seeds": [1], "protocols": ["mosi"]}
            )

    def test_bad_interconnect_rejected(self):
        with pytest.raises(SpecError, match="interconnect"):
            validate_spec(
                {"kind": "fuzz", "seeds": [1], "interconnect": "mesh"}
            )

    def test_axes_deduplicated(self):
        spec = validate_spec({
            "kind": "fuzz", "seeds": [2, 2, 3],
            "protocols": ["mesi", "mesi", "mesti"],
        })
        assert spec["seeds"] == [2, 3]
        assert spec["protocols"] == ["mesi", "mesti"]

    def test_sim_specs_unchanged_by_kind_dispatch(self):
        spec = validate_spec({
            "benchmarks": ["radiosity"], "techniques": ["base"],
            "seeds": [1],
        })
        assert "kind" not in spec  # back-compat with persisted state


class TestFingerprint:
    def test_identity_is_stable_and_parameter_sensitive(self):
        base = fuzz_cell_identity(1, 8, ["mesi"], "bus")
        assert base.startswith("fuzz-")
        assert base == fuzz_cell_identity(1, 8, ["mesi"], "bus")
        assert base != fuzz_cell_identity(2, 8, ["mesi"], "bus")
        assert base != fuzz_cell_identity(1, 9, ["mesi"], "bus")
        assert base != fuzz_cell_identity(1, 8, ["mesti"], "bus")
        assert base != fuzz_cell_identity(1, 8, ["mesi"], "directory")

    def test_submit_mints_one_cell_per_seed(self, tmp_path):
        queue = JobQueue(tmp_path / "queue", events=EventLog())
        job = queue.submit(validate_spec(
            {"kind": "fuzz", "seeds": [1, 2], "budget": 8}
        ))
        assert len(job["cells"]) == 2
        assert all(c.startswith("fuzz-") for c in job["cells"])
        for fingerprint in job["cells"]:
            cell = queue.cells[fingerprint]
            assert cell["kind"] == "fuzz"
            assert cell["budget"] == 8


def build(tmp_path):
    events = EventLog()
    queue = JobQueue(tmp_path / "queue", events=events)
    store = ResultStore(tmp_path / "results")
    shard = WorkerShard(
        queue, store, events, workers=1,
        executor=ThreadPoolExecutor(max_workers=1),
    )
    return events, queue, store, shard


async def run_job(queue, shard, spec, timeout: float = 120.0) -> dict:
    job = queue.submit(spec)
    await shard.start()
    try:
        deadline = asyncio.get_running_loop().time() + timeout
        while queue.jobs[job["id"]]["status"] not in (
            "done", "failed", "cancelled",
        ):
            assert asyncio.get_running_loop().time() < deadline, (
                "fuzz job did not settle in time"
            )
            await asyncio.sleep(0.02)
    finally:
        await shard.stop()
    return queue.jobs[job["id"]]


class TestFuzzJobEndToEnd:
    def test_fuzz_job_runs_stores_and_caches(self, tmp_path):
        async def scenario():
            events, queue, store, shard = build(tmp_path)
            spec = validate_spec(FUZZ_SPEC)

            job = await run_job(queue, shard, spec)
            assert job["status"] == "done"
            assert shard.fuzzed == 1 and shard.simulated == 0

            fingerprint = fuzz_cell_identity(
                1, 8, spec["protocols"], spec["interconnect"],
            )
            doc = store.get(fingerprint)
            assert doc is not None
            assert doc["ok"] is True and doc["fuzz"] is True
            assert (tmp_path / "results" / f"{fingerprint}.json").exists()

            # Identical resubmission is served from the store.
            job2 = await run_job(queue, shard, spec)
            assert job2["status"] == "done"
            assert shard.fuzzed == 1, "cache hit must not re-fuzz"
            names = [r["event"] for r in events.records]
            assert names.count("cell.cache_hit") == 1
            assert names.count("cell.started") == 1

        asyncio.run(scenario())

    def test_clean_campaign_emits_no_finding_events(self, tmp_path):
        async def scenario():
            events, queue, shard_store, shard = build(tmp_path)
            await run_job(queue, shard, validate_spec(FUZZ_SPEC))
            assert events.named("cell.fuzz_finding") == []

        asyncio.run(scenario())
