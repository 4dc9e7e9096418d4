"""Run heartbeats: ``--heartbeat``'s progress lines.

The heartbeat is :class:`repro.obs.progress.Heartbeat`; ``run
--profile`` is stdlib cProfile and is tested in tests/test_cli.py.
"""

import logging

import pytest

from repro.common.events import Scheduler
from repro.obs.progress import Heartbeat


class TestHeartbeat:
    def test_requires_positive_interval(self):
        with pytest.raises(ValueError):
            Heartbeat(Scheduler(), 0)

    def test_beats_and_stops(self, caplog):
        sched = Scheduler()
        done = []
        sched.at(95, lambda: done.append(True))
        hb = Heartbeat(
            sched, 10,
            progress=lambda: {"committed": 7},
            stop=lambda: bool(done),
        )
        with caplog.at_level(logging.INFO, logger="repro.heartbeat"):
            sched.run()
        # Ticks at 10..100; the tick at 100 sees stop() True and does
        # not reschedule, so the queue drains.
        assert hb.beats == 10
        assert sched.pending() == 0
        assert "committed=7" in caplog.text
        assert "events/s=" in caplog.text

    def test_cadence_is_one_beat_per_interval(self, caplog):
        # Exactly floor(run_length / interval) beats, at cycles
        # interval, 2*interval, ... — no beat at cycle 0 and no beat
        # after the stop condition turns true.
        sched = Scheduler()
        done = []
        sched.at(99, lambda: done.append(True))
        hb = Heartbeat(sched, 25, stop=lambda: bool(done))
        with caplog.at_level(logging.INFO, logger="repro.heartbeat"):
            sched.run()
        assert hb.beats == 4  # cycles 25, 50, 75, 100
        cycles = [
            int(rec.getMessage().split("cycle=")[1].split()[0])
            for rec in caplog.records
            if rec.name == "repro.heartbeat"
        ]
        assert cycles == [25, 50, 75, 100]
        assert sched.pending() == 0

    def test_system_run_heartbeat(self, caplog):
        from repro.common.config import scaled_config
        from repro.system.system import System
        from repro.workloads.registry import get_benchmark

        def run(**kwargs):
            workload = get_benchmark("locks", scale=0.05)
            return System(scaled_config(), workload).run(**kwargs)

        with caplog.at_level(logging.INFO, logger="repro.heartbeat"):
            beating = run(heartbeat=500)
        assert "ipc=" in caplog.text
        assert "finished=" in caplog.text
        # The ticks are scheduler events, but not the simulation's: the
        # run reports what it would without a heartbeat.
        quiet = run()
        assert beating.cycles == quiet.cycles
        assert beating.stats.get("run.events") == quiet.stats.get("run.events")
