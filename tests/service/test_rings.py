"""Every service ring's overwrites reach ``/metrics``.

Each bounded buffer behind the service's observability — the global
event log, the job traces and the telemetry samples — is overflowed
here, and each overwrite must show up in
``repro_ring_dropped_total{ring=...}`` as ``GET /metrics`` renders it,
with the older names perfbench reads
(``repro_service_events_dropped_total`` and ``/telemetry``'s
``traces.dropped``) reading the same counts.
"""

from __future__ import annotations

import asyncio
import json

from repro.obs.jobtrace import MAX_EVENTS
from repro.service import events as events_module
from repro.service.api import TELEMETRY_SAMPLES, Service

EVENT_RING = 4

EMPTY_RINGS = [
    'repro_ring_dropped_total{ring="events"} 0',
    'repro_ring_dropped_total{ring="telemetry"} 0',
    'repro_ring_dropped_total{ring="traces"} 0',
]


class _Writer:
    """Collects what a handler writes (a StreamWriter stand-in)."""

    def __init__(self):
        self.data = b""

    def write(self, data: bytes) -> None:
        self.data += data

    async def drain(self) -> None:
        pass


def _get(service: Service, path: str) -> str:
    writer = _Writer()
    asyncio.run(service._route(
        {"method": "GET", "path": path, "body": b""}, writer,
    ))
    return writer.data.split(b"\r\n\r\n", 1)[1].decode()


def test_every_ring_overwrite_reaches_metrics(tmp_path, monkeypatch):
    monkeypatch.setattr(events_module, "MAX_RECORDS", EVENT_RING)
    service = Service(tmp_path, telemetry_interval=0)
    emitted = EVENT_RING + 3
    for i in range(emitted):
        service.events.emit("cell.finished", fingerprint=f"f{i}")
    for _ in range(MAX_EVENTS + 2):
        service.traces.span_begin("t-1", "job")
    sampled = TELEMETRY_SAMPLES + 5
    for _ in range(sampled):
        service._sample_once()
    expected = {
        "events": emitted - EVENT_RING,
        "traces": 2,
        "telemetry": 5,
    }
    text = _get(service, "/metrics")
    for ring, dropped in expected.items():
        assert f'repro_ring_dropped_total{{ring="{ring}"}} {dropped}' in text
    assert f"repro_service_events_dropped_total {emitted - EVENT_RING}" in text
    doc = json.loads(_get(service, "/telemetry"))
    assert doc["traces"]["dropped"] == expected["traces"]
    assert doc["event_ring"]["dropped"] == expected["events"]
    assert doc["recorded"] == sampled
    assert len(doc["samples"]) == doc["capacity"] == TELEMETRY_SAMPLES


def _ring_series(service: Service) -> list[str]:
    return [
        line for line in _get(service, "/metrics").splitlines()
        if line.startswith("repro_ring_dropped_total{")
    ]


def test_a_fresh_service_exports_empty_rings(tmp_path):
    # Three rings, each an explicit 0.
    service = Service(tmp_path, telemetry_interval=0)
    assert _ring_series(service) == EMPTY_RINGS
    doc = json.loads(_get(service, "/telemetry"))
    assert doc["latest"] is None and doc["samples"] == []
    assert doc["recorded"] == 0
    assert doc["traces"] == {
        "traces": 0, "events": 0, "dropped": 0, "evicted": 0,
    }


def test_a_flight_file_adds_no_ring(tmp_path):
    # The flight file is the /telemetry document: it owns no buffer.
    service = Service(
        tmp_path, telemetry_interval=0, flight_path=tmp_path / "flight.json",
    )
    service._sample_once()
    assert _ring_series(service) == EMPTY_RINGS
