"""End-to-end service acceptance: HTTP, events, parity, cache reuse.

The PR's headline contract (ISSUE 7): submit a (2 benchmarks x
2 techniques x 1 seed) spec over real HTTP, observe the full named
event sequence, get summaries identical to a serial
:class:`~repro.experiments.runner.MatrixRunner`, and have an
immediate identical re-submission served entirely from cache —
``cell.cache_hit`` for every cell and zero ``cell.started``.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.experiments.runner import MatrixRunner, summaries_equal
from repro.service.client import ServiceClient, ServiceError

from .harness import ServiceHarness

SPEC = {
    "benchmarks": ["radiosity", "tpc-b"],
    "techniques": ["base", "emesti"],
    "seeds": [1],
    "scale": 0.05,
}


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    """One shared service (thread executor: no subprocess spawn)."""
    root = tmp_path_factory.mktemp("service")
    with ServiceHarness(
        root, workers=1, executor=ThreadPoolExecutor(max_workers=1),
    ) as harness:
        yield harness


@pytest.fixture(scope="module")
def client(service):
    """A blocking client bound to the harness's ephemeral port."""
    return ServiceClient(service.host, service.port)


@pytest.fixture(scope="module")
def first_run(client):
    """Submit the 2x2x1 spec once; later tests build on it."""
    job, events = client.submit_and_wait(SPEC)
    return job, events


class TestEndToEnd:
    def test_job_completes_done(self, first_run):
        job, _events = first_run
        assert job["status"] == "done"
        assert len(job["cells"]) == 4
        assert set(job["cell_states"].values()) == {"done"}

    def test_full_named_event_sequence(self, first_run):
        job, events = first_run
        names = [e["event"] for e in events]
        # Submission: one enqueue per cell, then the job acceptance.
        assert names[:5] == ["cell.enqueued"] * 4 + ["job.enqueued"]
        # Every cell runs its full lease -> start -> finish lifecycle.
        for name in ("cell.leased", "cell.started", "cell.finished"):
            assert names.count(name) == 4, name
        # Terminal event last, with the reason.
        assert names[-1] == "job.completed"
        assert events[-1]["reason"] == "done"
        # A fresh matrix simulates: nothing is cache-served.
        assert names.count("cell.cache_hit") == 0

    def test_results_identical_to_serial_matrix_runner(
        self, first_run, client, tmp_path,
    ):
        job, _events = first_run
        serial = MatrixRunner(
            scale=SPEC["scale"], results_dir=tmp_path / "serial",
            verbose=False,
        )
        serial_out = serial.run_matrix(
            benchmarks=SPEC["benchmarks"], techniques=SPEC["techniques"],
            seeds=SPEC["seeds"],
        )
        for fingerprint in job["cells"]:
            doc = client.result(fingerprint)
            key = serial.key(doc["benchmark"], doc["technique"], doc["seed"])
            assert summaries_equal(serial_out[key], doc["summary"]), key

    def test_identical_resubmission_is_fully_cache_served(
        self, first_run, client, service,
    ):
        simulated_before = service.service.shard.simulated
        job, events = client.submit_and_wait(SPEC)
        assert job["status"] == "done"
        names = [e["event"] for e in events]
        # Every cell cache-hit; zero simulations started.
        assert names.count("cell.cache_hit") == 4
        assert names.count("cell.started") == 0
        assert service.service.shard.simulated == simulated_before

    def test_result_endpoint_includes_coordinates(self, first_run, client):
        job, _events = first_run
        doc = client.result(job["cells"][0])
        assert {"benchmark", "technique", "seed", "scale",
                "summary"} <= set(doc)

    def test_metrics_export_counts_events(self, first_run, client):
        text = client.metrics()
        assert 'repro_service_events_total{event="cell.finished"}' in text

    def test_job_status_endpoint(self, first_run, client):
        job, _events = first_run
        doc = client.job(job["id"])
        assert doc["status"] == "done"


class TestFleetTelemetry:
    """ISSUE 10: distributed traces, /telemetry, sampled gauges."""

    def test_submission_is_assigned_its_trace_id(self, first_run, client):
        job, _events = first_run
        accepted = client.submit(SPEC)  # deduped: same cells, new job
        assert accepted["trace"] == accepted["job"]
        assert accepted["job"] != job["id"]
        list(client.follow(accepted["job"]))  # drain to terminal

    def test_streamed_events_carry_the_trace_id(self, first_run):
        job, events = first_run
        for record in events:
            assert record.get("trace") == job["id"], record

    def test_job_trace_is_one_causal_tree(self, first_run, client):
        job, _events = first_run
        rows = [json.loads(x) for x in client.trace(job["id"]).splitlines()]
        meta = rows.pop()
        assert meta["meta"] == "job-trace" and meta["trace"] == job["id"]
        begins = {r["span"]: r for r in rows if r["kind"] == "span.begin"}
        ended = {r["span"] for r in rows if r["kind"] == "span.end"}
        # Every span row belongs to the submitting job's trace.
        assert all(r["trace"] == job["id"] for r in begins.values())
        by_name: dict[str, list] = {}
        for r in begins.values():
            by_name.setdefault(r["name"], []).append(r)
        # One root job span; every cell.lease parents under it.
        (job_span,) = by_name["job"]
        assert job_span.get("parent") is None
        leases = by_name["cell.lease"]
        assert len(leases) == 4
        assert {r["parent"] for r in leases} == {job_span["span"]}
        # Every cell.run parents under its lease and was closed.
        runs = by_name["cell.run"]
        assert len(runs) == 4
        assert {r["parent"] for r in runs} <= {r["span"] for r in leases}
        service_spans = [job_span, *leases, *runs]
        assert {r["span"] for r in service_spans} <= ended
        # Worker-process coherence spans rode back over the pool
        # boundary: cycle-clock rows whose roots parent under a
        # cell.run span, trace id identical on both sides.
        worker = [r for r in begins.values() if r.get("clock") == "cycles"]
        assert worker, "no worker-side spans ingested"
        run_ids = {r["span"] for r in runs}
        assert any(r.get("parent") in run_ids for r in worker)
        assert all(r["trace"] == job["id"] for r in worker)

    def test_job_trace_exports_as_chrome_document(
        self, first_run, client, tmp_path,
    ):
        from repro.obs.report import load_trace
        from repro.obs.tracer import chrome_document

        job, _events = first_run
        path = tmp_path / "job-trace.jsonl"
        path.write_text(client.trace(job["id"]))
        load = load_trace(path)
        assert load.skipped == 1  # the meta trailer
        doc = chrome_document(load.events)
        phases = {e["ph"] for e in doc["traceEvents"]}
        # Async begin/end pairs plus flow arrows for the parent links.
        assert {"b", "e", "s", "f"} <= phases

    def test_client_supplied_trace_id_is_honored(self, first_run, client):
        accepted = client.submit({**SPEC, "trace": "e2e.custom-trace"})
        assert accepted["trace"] == "e2e.custom-trace"
        list(client.follow(accepted["job"]))
        rows = [
            json.loads(x)
            for x in client.trace(accepted["job"]).splitlines()
        ]
        begins = [r for r in rows if r.get("kind") == "span.begin"]
        assert begins
        assert all(r["trace"] == "e2e.custom-trace" for r in begins)

    def test_malformed_trace_id_is_rejected(self, client):
        with pytest.raises(ServiceError, match="(?i)trace"):
            client.submit({**SPEC, "trace": "no spaces allowed"})

    def test_unknown_job_trace_is_404(self, client):
        with pytest.raises(ServiceError, match="failed"):
            client.trace("job-999999")

    def test_telemetry_document_schema(self, first_run, client, service):
        # The module harness runs with the default 1 s cadence; force
        # one deterministic sample instead of sleeping for the loop.
        service.service._sample_once()
        doc = client.telemetry()
        assert doc["schema"] == 1
        latest = doc["latest"]
        assert latest is not None
        assert latest["leases"] >= 4
        assert latest["lease_wait_max"] >= latest["lease_wait_avg"] >= 0
        assert latest["workers"] == 1
        assert doc["event_ring"]["capacity"] == 100_000
        assert doc["traces"]["events"] > 0
        assert [e for e in doc["events"] if e["event"] == "job.completed"]

    def test_sampled_gauges_reach_prometheus(
        self, first_run, client, service,
    ):
        service.service._sample_once()
        text = client.metrics()
        assert "repro_service_queue_depth" in text
        assert "repro_service_worker_utilization 0" in text
        assert "repro_service_events_dropped_total 0" in text
        assert "repro_service_lease_latency_seconds_count" in text


class TestApiErrors:
    def test_bad_spec_is_rejected_with_400(self, client):
        with pytest.raises(ServiceError, match="(?i)unknown benchmark"):
            client.submit({**SPEC, "benchmarks": ["quake"]})

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError, match="lookup failed"):
            client.job("job-999999")

    def test_unknown_result_is_404(self, client):
        with pytest.raises(ServiceError, match="lookup failed"):
            client.result("00000000deadbeef")

    def test_torn_result_is_404(self, client, service):
        path = service.root / "results" / "0123456789abcdef.json"
        path.write_text('{"benchmark": "radiosity", "summary": {"cyc')
        try:
            with pytest.raises(ServiceError, match="404"):
                client.result("0123456789abcdef")
            path.write_text('{"benchmark": "radiosity", "summary": {}}')
            assert client.result("0123456789abcdef") == {
                "fingerprint": "0123456789abcdef",
                "benchmark": "radiosity", "summary": {},
            }
        finally:
            path.unlink()

    def test_unknown_route_is_404(self, client):
        status, _doc = client._request("GET", "/nope")
        assert status == 404


class TestCancellationOverHttp:
    def test_cancel_drains_and_streams_terminal_event(self, client):
        # A deliberately deep job (many seeds) so cells are still
        # queued when the cancel lands.
        accepted = client.submit({
            "benchmarks": ["radiosity"], "techniques": ["base"],
            "seeds": [101, 102, 103, 104, 105, 106, 107, 108],
            "scale": 0.05,
        })
        cancelled = client.cancel(accepted["job"])
        assert cancelled["status"] == "cancelled"
        events = list(client.follow(accepted["job"]))
        assert events[-1]["event"] == "job.completed"
        assert events[-1]["reason"] == "cancelled"
        job = client.job(accepted["job"])
        # Nothing left queued for this job: drained cells report
        # dropped (or finished, for any cell a worker already held).
        assert all(
            state in ("dropped", "done")
            for state in job["cell_states"].values()
        )
