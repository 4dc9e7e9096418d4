"""Host-speed correction: fixed probes timed beside the measured work.

The benchmark's host is a small VM on a shared machine, and two kinds
of noise from outside the VM move its timings:

* The host takes the VM's CPU away (steal time): in one 30 s stretch
  the two vCPUs lost 8.7 s, and a 0.6 ms request sometimes took 15-30
  ms of wall time.  CPU time leaves this out (the kernel accounts steal
  separately), so work and probes are timed on :data:`CLOCK`, this
  process's CPU time.
* The CPU runs at two speeds, 1.5-1.8x apart, switching every few
  seconds; CPU time slows with it.  Whole runs fall in slow or fast
  stretches, so a run cannot average this away.

So each timed request is bracketed by a probe, fixed work in plain
Python that shares no code with the program under test, and the
request's time is divided by the
host's slowdown over it: the mean of the two bracketing probe times
over the probe's time on the reference host.  A corrected time is the
time the request would have taken on that host.  Different work slows
by different amounts, so each kind of request has a probe that does
the same kind of work:

* :func:`probe`, dict, list, attribute and method work in a loop, for
  simulated cells (interpreter-bound);
* :class:`FileProbe`, a dataclass walk, a JSON fingerprint, a small
  JSON file read and another written, for cache-served requests and
  interpreter start-up (part interpreter, part C and system calls, and
  slowed less).

On the development host, timed back to back on the wall clock over
20 s windows, the median corrected time of one cell spread 0.7%
(inter-quartile range over the median) where the raw time spread 10%,
and that of a cache-served request 1.3% where the raw time spread 16%
and :func:`probe` would have left 7%.

Probes run in the benchmark's own thread, so they are timed on the
core the work just ran on.  :func:`probe` allocates nothing the cyclic
collector tracks, so no collection lands in it; :class:`FileProbe`
allocates as a cache-served request does.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import statistics
import time
from pathlib import Path

#: The clock work and probes are timed on: CPU time of this process.
CLOCK = time.process_time

#: Probe seconds on the reference host: the fast speed of the 2-core
#: development VM (Intel Xeon, Python 3.11).  Corrected times read as
#: on that host.
REFERENCE_S = 0.0075
#: Loop rounds per :func:`probe` (about :data:`REFERENCE_S` there).
ROUNDS = 80_000
#: :class:`FileProbe` seconds on the reference host, and its rounds.
FILE_REFERENCE_S = 0.005
FILE_ROUNDS = 10


class _Walker:
    __slots__ = ("at", "acc")

    def __init__(self) -> None:
        self.at = 0
        self.acc = 0

    def step(self, table: dict[int, int], ring: list[int]) -> None:
        self.at = table[self.at]
        self.acc = ring[self.at ^ (self.acc & 127)]


def probe() -> float:
    """The fixed interpreter loop's time now, over :data:`REFERENCE_S`."""
    table = {i: (i * 37 + 11) & 255 for i in range(256)}
    ring = [(i * 13) & 255 for i in range(256)]
    walker = _Walker()
    step = walker.step
    start = CLOCK()
    for _ in range(ROUNDS):
        step(table, ring)
    return (CLOCK() - start) / REFERENCE_S


@dataclasses.dataclass
class _Part:
    size: int = 32768
    ways: int = 8
    latency: float = 2.5
    policy: str = "lru"
    ports: tuple = (1, 2, 3)


@dataclasses.dataclass
class _Config:
    l1: _Part = dataclasses.field(default_factory=_Part)
    l2: _Part = dataclasses.field(default_factory=_Part)
    bus: _Part = dataclasses.field(default_factory=_Part)
    extra: dict = dataclasses.field(
        default_factory=lambda: {f"knob{i}": i for i in range(20)}
    )


def _encode(value):
    if dataclasses.is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    return value


class FileProbe:
    """Work shaped like a cache-served request: fingerprint a config,
    read a 4 kB JSON cache file, write a small JSON manifest.  Its
    files live in ``directory``."""

    def __init__(self, directory: Path):
        directory.mkdir(parents=True, exist_ok=True)
        self.cache = directory / "probe-cache.json"
        self.manifest = directory / "probe-manifest.json"
        cells = {
            f"bench{i}|base|1": {f"field{j}": j * 1.25 for j in range(60)}
            for i in range(4)
        }
        self.cache.write_text(json.dumps({"format": 2, "cells": cells}))

    def __call__(self) -> float:
        """This work's time now, over :data:`FILE_REFERENCE_S`."""
        config = _Config()
        start = CLOCK()
        for _ in range(FILE_ROUNDS):
            for _ in range(6):
                key = hashlib.sha256(
                    json.dumps(_encode(config), sort_keys=True).encode()
                ).hexdigest()
            with open(self.cache) as f:
                json.load(f)
            with open(self.manifest, "w") as f:
                f.write(json.dumps({"cells": {"a": {"status": "cached", "key": key}}},
                                   indent=1))
        return (CLOCK() - start) / FILE_REFERENCE_S


class HostSpeed:
    """A chain of probe readings; each :meth:`correct` closes a segment.

    The first reading is taken at construction.  The caller times its
    work on :data:`CLOCK`; :meth:`correct` reads the probe again and
    divides the work's time since the previous reading by the mean of
    the two (the slowdown against the reference host).
    """

    def __init__(self, read=probe):
        self.read = read
        self.slowdowns = [read()]

    def correct(self, *seconds: float) -> list[float]:
        """Reference-host seconds for work timed since the previous
        reading (one value per timed request)."""
        self.slowdowns.append(self.read())
        slow = (self.slowdowns[-2] + self.slowdowns[-1]) / 2
        return [s / slow for s in seconds]

    def note(self, what: str) -> str:
        """One line on the slowdowns the probe saw."""
        seen = sorted(self.slowdowns)
        return (
            f"{what} probe: {len(seen)} readings, host slowdown median "
            f"{statistics.median(seen):.2f}x (range {seen[0]:.2f}-{seen[-1]:.2f})"
        )


def steal_seconds() -> float:
    """CPU time the host has taken from this VM since boot, over all
    its CPUs (``/proc/stat``), or 0.0 where the kernel does not say."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def pin_to_one_cpu() -> set[int] | None:
    """Keep this process, and the processes it starts, on one CPU, so
    a probe and the work it corrects share a core.  Returns the CPUs
    it was allowed before, or None where affinity cannot be set."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    return allowed


def unpin(allowed: set[int] | None) -> None:
    """Undo :func:`pin_to_one_cpu`."""
    if allowed is not None:
        os.sched_setaffinity(0, allowed)
