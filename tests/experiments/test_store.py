"""The content-addressed result store: one immutable file per cell."""

from __future__ import annotations

import json
import logging
import os
import stat
import sys
import threading

import pytest

from repro.experiments.store import ResultStore, atomic_write

FP = "0123456789abcdef"
DOC = {"benchmark": "radiosity", "technique": "base", "seed": 1,
       "scale": 0.05, "summary": {"cycles": 7, "wall_seconds": 0.1}}


def test_round_trip_and_miss(tmp_path):
    store = ResultStore(tmp_path / "results")
    assert store.get(FP) is None
    store.store(FP, DOC)
    assert store.get(FP) == DOC
    assert ResultStore(tmp_path / "results").get(FP) == DOC
    assert [p.name for p in (tmp_path / "results").iterdir()] == [f"{FP}.json"]


def test_constructing_a_store_touches_no_file(tmp_path):
    ResultStore(tmp_path / "results")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("damage", ["truncate", "garbage", "list", "binary"])
def test_damaged_file_reads_as_a_miss(tmp_path, caplog, damage):
    store = ResultStore(tmp_path)
    store.store(FP, DOC)
    path = tmp_path / f"{FP}.json"
    if damage == "truncate":
        path.write_text(path.read_text()[:40])
    elif damage == "garbage":
        path.write_text("not json")
    elif damage == "list":
        path.write_text("[1, 2]")
    else:
        path.write_bytes(b"\xff\xfe\x00")
    with caplog.at_level(logging.WARNING, logger="repro.store"):
        assert store.get(FP) is None
    assert str(path) in caplog.text
    store.store(FP, DOC)  # the next write replaces it whole
    assert store.get(FP) == DOC


@pytest.mark.parametrize(
    "name", ["..", "../state", "ABCDEF0123456789", "x", f"fuzz-{FP}"],
)
def test_names_that_are_not_fingerprints_name_no_file(tmp_path, name):
    (tmp_path / "state.json").write_text("{}")
    (tmp_path / "results").mkdir()
    (tmp_path / "results" / f"{name}.json").write_text("{}")
    assert ResultStore(tmp_path / "results").get(name) is None


def test_concurrent_stores_of_one_cell_leave_one_whole_file(tmp_path):
    store = ResultStore(tmp_path)
    doc = {**DOC, "summary": {f"field{i}": i for i in range(2000)}}
    barrier = threading.Barrier(8)
    errors: list[BaseException] = []

    def writer():
        try:
            barrier.wait(timeout=10)
            for _ in range(20):
                store.store(FP, doc)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert [p.name for p in tmp_path.iterdir()] == [f"{FP}.json"]
    assert json.loads((tmp_path / f"{FP}.json").read_text()) == doc


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
@pytest.mark.parametrize(
    "umask", [0o022, 0o077, 0o002], ids=["022", "077", "002"],
)
def test_written_files_get_the_mode_a_plain_write_gives(tmp_path, umask):
    previous = os.umask(umask)
    try:
        ResultStore(tmp_path).store(FP, DOC)
        atomic_write(tmp_path / "flight.json", "{}")
        (tmp_path / "plain.json").write_text("{}")
    finally:
        os.umask(previous)
    modes = {
        p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()
    }
    assert modes == dict.fromkeys(
        [f"{FP}.json", "flight.json", "plain.json"], 0o666 & ~umask,
    )
