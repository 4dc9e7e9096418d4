"""The ``repro-sim bench`` gate: exact comparison, report shape, exit codes."""

from __future__ import annotations

import copy
import json
import os
import pathlib
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import cli
from repro.experiments import bench
from repro.experiments import runner as runner_module
from repro.experiments.runner import NONDETERMINISTIC_FIELDS
from tests.experiments.test_parallel_runner import FakePool

ROOT = pathlib.Path(__file__).resolve().parents[2]

REPORT_KEYS = {"schema", "fingerprint", "scale", "cells", "determinism"}
CELL_KEYS = {"benchmark", "technique", "seed", "cycles", "committed"}


def make_report() -> dict:
    """A minimal schema-3 report with two cells."""
    return {
        "schema": bench.SCHEMA,
        "fingerprint": "abcd1234",
        "scale": 0.1,
        "cells": [
            {"benchmark": "radiosity", "technique": "base", "seed": 1,
             "cycles": 1000, "committed": 500},
            {"benchmark": "radiosity", "technique": "emesti", "seed": 1,
             "cycles": 900, "committed": 500},
        ],
        "determinism": {"ok": True, "mismatched": []},
    }


def bump_cycles(report):
    report["cells"][0]["cycles"] += 1


def bump_committed(report):
    report["cells"][1]["committed"] -= 1


def other_fingerprint(report):
    report["fingerprint"] = "ffff0000"


def other_scale(report):
    report["scale"] = 0.05


def drop_cell(report):
    del report["cells"][1]


def add_cell(report):
    report["cells"].append({"benchmark": "tpc-b", "technique": "base",
                            "seed": 1, "cycles": 1, "committed": 1})


def fail_determinism(report):
    report["determinism"] = {"ok": False,
                             "mismatched": ["radiosity|base|1.cycles"]}


#: Each way a report can differ from its baseline, and the line that
#: must name it.
DIFFERENCES = {
    "cycles": (bump_cycles,
               "cell radiosity|base|1 cycles: baseline 1000, report 1001"),
    "committed": (bump_committed,
                  "cell radiosity|emesti|1 committed: baseline 500, report 499"),
    "fingerprint": (other_fingerprint,
                    "fingerprint: baseline 'abcd1234', report 'ffff0000'"),
    "scale": (other_scale, "scale: baseline 0.1, report 0.05"),
    "missing-cell": (drop_cell, "cell radiosity|emesti|1: in the baseline, "
                                "missing from the report"),
    "extra-cell": (add_cell, "cell tpc-b|base|1: in the report, "
                             "missing from the baseline"),
    "determinism": (fail_determinism, "determinism: the serial and pooled "
                                      "passes differ in radiosity|base|1.cycles"),
}


class TestCompare:
    def test_identical_reports_pass(self):
        assert bench.compare(make_report(), make_report()) == []

    @pytest.mark.parametrize("difference", DIFFERENCES)
    def test_every_difference_is_named(self, difference):
        perturb, line = DIFFERENCES[difference]
        report = make_report()
        perturb(report)
        assert bench.compare(report, make_report()) == [line]

    def test_fingerprint_mismatch_still_compares_every_cell(self):
        report = make_report()
        other_fingerprint(report)
        for cell in report["cells"]:
            cell["cycles"] += 1000
        problems = bench.compare(report, make_report())
        assert problems[0].startswith("fingerprint:")
        assert len(problems) == 3  # the fingerprint and both cells' cycles

    def test_schema_2_baseline_fails(self):
        old = {"schema": 2, "matrix": make_report()}
        problems = bench.compare(make_report(), old)
        assert "schema: baseline 2, report 3" in problems
        assert sum("missing from the baseline" in p for p in problems) == 2

    def test_determinism_fails_without_a_baseline(self):
        report = make_report()
        fail_determinism(report)
        assert bench.compare(report) == [DIFFERENCES["determinism"][1]]
        assert bench.compare(make_report()) == []


class TestCliGate:
    """The ``repro-sim bench --compare`` exit-code contract."""

    def run_cli(self, tmp_path, monkeypatch, report, baseline):
        baseline_path = tmp_path / "BENCH_baseline.json"
        baseline_path.write_text(json.dumps(baseline))
        monkeypatch.setattr(bench, "run",
                            lambda **kwargs: copy.deepcopy(report))
        return cli.main([
            "-q", "bench", "--compare", str(baseline_path),
            "--output", str(tmp_path / "BENCH_current.json"),
        ])

    def test_unchanged_report_exits_zero(self, tmp_path, monkeypatch, capsys):
        rc = self.run_cli(tmp_path, monkeypatch, make_report(), make_report())
        assert rc == 0
        assert "identical" in capsys.readouterr().out

    def test_clean_compare_is_one_line(self, tmp_path, monkeypatch, capsys):
        self.run_cli(tmp_path, monkeypatch, make_report(), make_report())
        captured = capsys.readouterr()
        tail = captured.out.split("\ncompare vs ", 1)[1]
        assert tail.splitlines() == [
            f"{tmp_path / 'BENCH_baseline.json'}: identical"]
        assert captured.err == ""

    @pytest.mark.parametrize("difference", DIFFERENCES)
    def test_each_difference_exits_one(self, tmp_path, monkeypatch, capsys,
                                       difference):
        perturb, line = DIFFERENCES[difference]
        report = make_report()
        perturb(report)
        rc = self.run_cli(tmp_path, monkeypatch, report, make_report())
        assert rc == 1
        captured = capsys.readouterr()
        assert f"  {line}" in captured.out.splitlines()
        assert "bench gate failed" in captured.err

    @pytest.mark.parametrize("content", [None, "{not json", "[]"],
                             ids=["missing", "not-json", "not-an-object"])
    def test_unreadable_baseline_exits_two(self, tmp_path, capsys, content):
        path = tmp_path / "baseline.json"
        if content is not None:
            path.write_text(content)
        rc = cli.main(["-q", "bench", "--compare", str(path)])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--quick", "--workers", "--threshold"])
    def test_host_timing_flags_are_gone(self, flag):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["bench", flag, "1"])


def test_render_reports_mismatch():
    report = make_report()
    fail_determinism(report)
    assert "MISMATCH in radiosity|base|1.cycles" in bench.render(report)


def test_tree_matches_the_committed_baseline(tmp_path, capsys):
    """``repro-sim bench --compare BENCH_matrix.json`` passes on this tree."""
    baseline = json.loads((ROOT / "BENCH_matrix.json").read_text())
    output = tmp_path / "BENCH_current.json"
    rc = cli.main([
        "-q", "bench", "--compare", str(ROOT / "BENCH_matrix.json"),
        "--output", str(output), "--results-dir", str(tmp_path / "results"),
    ])
    assert rc == 0, capsys.readouterr().out
    assert json.loads(output.read_text()) == baseline


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    """One result store for the tests below: after the first run, their
    serial pass is served from it and only the pooled pass simulates."""
    return tmp_path_factory.mktemp("bench-store")


@pytest.fixture(scope="module")
def real_report(tmp_path_factory, store_dir):
    path = tmp_path_factory.mktemp("bench") / "BENCH_matrix.json"
    return bench.run(output=path, results_dir=store_dir), path


def test_bench_report_written(real_report):
    report, path = real_report
    assert json.loads(path.read_text()) == report
    assert report["schema"] == 3


def test_bench_report_fields(real_report):
    """Only what the simulation determines: no field measures the host."""
    report, _ = real_report
    assert set(report) == REPORT_KEYS
    assert report["scale"] == bench.MINI_MATRIX["scale"]
    assert len(report["cells"]) == 4  # radiosity, tpc-b x base, emesti
    for cell in report["cells"]:
        assert set(cell) == CELL_KEYS
        assert cell["cycles"] > 0


def test_determinism_check_passes(real_report):
    report, _ = real_report
    assert report["determinism"] == {"ok": True, "mismatched": []}


def test_bench_render_one_screen(real_report):
    report, _ = real_report
    text = bench.render(report)
    assert "determinism: ok" in text
    assert "radiosity" in text
    assert len(text.splitlines()) == 6


def spy_on_pooled_pass(monkeypatch, edit=None):
    """Record (and optionally edit) what the pooled pass returns."""
    seen = {}
    real = bench.pooled_pass

    def spy(runner, cells):
        seen.update(real(runner, cells))
        if edit is not None:
            edit(seen)
        return seen

    monkeypatch.setattr(bench, "pooled_pass", spy)
    return seen


def test_pooled_pass_leaves_the_process_on_a_one_core_host(
        tmp_path, monkeypatch, store_dir):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    pooled = spy_on_pooled_pass(monkeypatch)
    report = bench.run(output=tmp_path / "b.json", results_dir=store_dir)
    assert len(pooled) == len(report["cells"]) == 4
    assert all(summary["worker"] != os.getpid() for summary in pooled.values())
    assert report["determinism"] == {"ok": True, "mismatched": []}


def test_pooled_pass_compares_every_deterministic_field(
        tmp_path, monkeypatch, store_dir):
    def edit(pooled):
        summary = pooled["tpc-b|emesti|1"]
        summary["ipc"] += 1
        summary.pop("txn_total")
        for field in NONDETERMINISTIC_FIELDS:
            summary[field] = "differs"

    spy_on_pooled_pass(monkeypatch, edit)
    report = bench.run(output=tmp_path / "b.json", results_dir=store_dir)
    assert report["determinism"] == {
        "ok": False,
        "mismatched": ["tpc-b|emesti|1.ipc", "tpc-b|emesti|1.txn_total"],
    }


def test_cells_rerun_in_process_fail_the_check(tmp_path, monkeypatch, store_dir):
    """A broken pool cannot pass the gate by comparing the serial path
    with itself: every cell it lost reran in this process."""
    lost = [BrokenProcessPool("pool died") for _ in range(4)]
    monkeypatch.setitem(
        runner_module._WARM_POOLS, (bench.POOL_WIDTH, None), FakePool(*lost),
    )
    report = bench.run(output=tmp_path / "b.json", results_dir=store_dir)
    assert report["determinism"] == {
        "ok": False,
        "mismatched": [
            "radiosity|base|1.worker", "radiosity|emesti|1.worker",
            "tpc-b|base|1.worker", "tpc-b|emesti|1.worker",
        ],
    }
