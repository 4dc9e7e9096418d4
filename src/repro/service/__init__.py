"""Simulation-as-a-service: async job API over the experiment matrix.

Promotes the :class:`~repro.experiments.runner.MatrixRunner` stack
(warm worker pools, the content-addressed result store, metrics)
into a long-running service: submit an experiment spec over HTTP, the
:mod:`~repro.service.queue` explodes it into fingerprint-identified
cells, the :mod:`~repro.service.workers` shard leases and runs them
(store first — a million identical submissions cost one simulation),
and every state transition emits a named event declared in
:mod:`~repro.service.events`.  See ``docs/service.md``.
"""

from repro.service.api import Service
from repro.service.client import ServiceClient, ServiceError
from repro.service.events import EVENT_NAMES, EVENT_SPECS, EventLog
from repro.service.queue import JobQueue, SpecError, cell_identity, validate_spec
from repro.service.workers import ResultStore, WorkerShard

__all__ = [
    "EVENT_NAMES",
    "EVENT_SPECS",
    "EventLog",
    "JobQueue",
    "ResultStore",
    "Service",
    "ServiceClient",
    "ServiceError",
    "SpecError",
    "WorkerShard",
    "cell_identity",
    "validate_spec",
]
