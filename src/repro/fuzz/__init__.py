"""Coverage-guided protocol fuzzing over the verify subsystem.

The package turns the seeded protocol bugs of
:mod:`repro.verify.mutations` into a continuous campaign, composing
three loops on top of :mod:`repro.verify`:

* :mod:`repro.fuzz.generator` — randomized litmus tests and schedules,
  seeded via :class:`repro.common.rng.SplitRng` (deterministic per
  seed, byte-identical reports for a fixed budget);
* :mod:`repro.fuzz.oracle` — allowed-outcome sets *derived* from the
  model checker's exhaustive enumeration on the reference protocol,
  never hand-written;
* :mod:`repro.fuzz.differential` — the same generated workload run
  base vs MESTI vs E-MESTI, abstractly and concretely (through
  :mod:`repro.verify.replay`), with final-memory agreement checked
  per the data-value invariant;
* :mod:`repro.fuzz.campaign` — the budgeted round loop: random
  protocol mutants (:func:`~repro.fuzz.campaign.random_descriptor`,
  after the seeded plan) that the bounded checker must catch, with
  transition-table coverage as the feedback signal; the corpus of
  (seed, mutation, schedule) triples that reached new coverage rows;
  and counterexample minimization;
* :mod:`repro.fuzz.report` — the text renderings shared with
  ``repro-sim check --mutate``.

Surface: ``repro-sim fuzz`` (see :mod:`repro.cli`).
"""

from repro.fuzz.campaign import FuzzOptions, run_campaign
from repro.fuzz.generator import generate_test, make_schedule
from repro.fuzz.report import render_fuzz, render_mutation
from repro.verify.litmus import enumerate_outcomes

__all__ = [
    "FuzzOptions",
    "enumerate_outcomes",
    "generate_test",
    "make_schedule",
    "render_fuzz",
    "render_mutation",
    "run_campaign",
]
