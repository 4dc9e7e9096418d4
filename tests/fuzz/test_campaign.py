"""Campaign-level contracts: determinism, canaries, clean runs.

The fuzz campaign is only trustworthy if it is *reproducible* — the
JSON report is a pure function of (seed, budget, protocols,
interconnect), independent of worker count — and *sensitive* — a small
budget rediscovers every seeded mutation from
:mod:`repro.verify.mutations`.  Both properties are cheap to check
with tiny budgets because every 4th iteration is a mutation slot and
the seeded plan is walked first.
"""

from __future__ import annotations

import json

import pytest

from repro.fuzz.campaign import (
    MUTATION_STRIDE,
    FuzzOptions,
    run_campaign,
)
from repro.verify.mutations import SEEDED

# Enough iterations for one mutation slot per seeded mutation
# (slots fall at indices MUTATION_STRIDE-1, 2*MUTATION_STRIDE-1, ...).
CANARY_BUDGET = MUTATION_STRIDE * len(SEEDED)


def report(seed=1, budget=CANARY_BUDGET, **kw) -> dict:
    return run_campaign(FuzzOptions(seed=seed, budget=budget, **kw)).to_json()


class TestDeterminism:
    def test_same_seed_same_report(self):
        assert report(seed=3) == report(seed=3)

    def test_different_seeds_differ(self):
        # Not a hard guarantee for any pair, but these two diverge;
        # if they ever collide the RNG split is broken.
        a, b = report(seed=1), report(seed=2)
        assert a["corpus"] != b["corpus"]

    def test_workers_do_not_change_the_report(self):
        # The batch-synchronous merge makes the parallel campaign
        # byte-identical to the serial one — corpus admission order,
        # findings, mutation records, everything.
        serial = report(seed=7, budget=16, workers=0)
        parallel = report(seed=7, budget=16, workers=2)
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            parallel, sort_keys=True
        )

    def test_report_is_json_serializable(self):
        doc = report(seed=4, budget=8)
        assert json.loads(json.dumps(doc)) == doc


class TestSeededCanary:
    def test_small_budget_rediscovers_every_seeded_mutation(self):
        doc = report(seed=1)
        mut = doc["mutations"]
        assert mut["seeded_total"] == len(SEEDED)
        assert mut["seeded_detected"] == sorted(SEEDED)

    def test_directory_canary_is_clean(self):
        # A directory never reaches the row a bus-only bug patches, so
        # its plan leaves that bug out instead of reporting it escaped.
        doc = report(seed=1, interconnect="directory")
        assert doc["ok"] is True, doc["findings"]
        mut = doc["mutations"]
        assert mut["seeded_total"] == len(SEEDED) - 1
        assert mut["seeded_detected"] == sorted(
            set(SEEDED) - {"t-ignores-flush"}
        )

    def test_mutation_records_carry_coverage_feedback(self):
        doc = report(seed=1)
        for record in doc["mutations"]["records"]:
            assert record["rows_reached"] > 0
            if record["seeded"]:
                assert record["detected"], record
                assert record["caught_as"], record
                assert record["trace_len"] >= 1


class TestCleanRun:
    def test_clean_campaign_reports_no_findings(self):
        doc = report(seed=1)
        assert doc["ok"] is True
        assert doc["findings"] == []

    def test_report_shape(self):
        doc = report(seed=2, budget=8)
        for key in ("fuzz", "seed", "budget", "protocols", "interconnect",
                    "ok", "rows_covered", "corpus_size", "corpus",
                    "findings", "mutations"):
            assert key in doc, key
        assert doc["fuzz"] is True
        assert doc["rows_covered"] > 0
        assert doc["corpus_size"] == len(doc["corpus"])
        # Every corpus entry earned its place with fresh coverage.
        for entry in doc["corpus"]:
            assert entry["new_rows"]

    def test_corpus_entries_replayable(self):
        # Entries must carry everything needed to re-run the input.
        doc = report(seed=2, budget=8)
        generated = [e for e in doc["corpus"] if e.get("programs")]
        assert generated, "a small campaign still admits generated tests"
        for entry in generated:
            assert entry["n_lines"] >= 1 and entry["n_words"] >= 1
            assert entry["schedule"]
            assert len(entry["decisions"]) > 0


class TestOptions:
    def test_options_frozen_and_hashable(self):
        opts = FuzzOptions(seed=1)
        with pytest.raises(AttributeError):
            opts.seed = 2  # type: ignore[misc]
        hash(opts)
