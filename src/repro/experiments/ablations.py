"""Ablations of the design choices DESIGN.md calls out.

* **Validate policies** (§2.2–2.4): always vs snoop-aware vs the
  useful-validate predictor, on a validate-hostile workload (specjbb)
  and a validate-friendly one (tpc-b).
* **SLE confidence prediction** (§4.2.3): enhanced predictor vs the
  simple restart threshold (the paper reports 5–10% commercial
  slowdowns without it).
* **SLE isync safety check** (§4.2.2): naive handling fails every
  kernel critical section.
* **SLE ROB threshold**: the in-core buffering bound.
* **Update-silent store squashing** ([21]) on top of the baseline.

Each ablation builds its full (config × benchmark) job list up front
and dispatches through :func:`~repro.experiments.runner.map_cells`, so
``workers`` > 1 runs the sweep on a process pool with results
identical to the serial order.
"""

from __future__ import annotations

from repro.analysis.report import render_table
from repro.common.config import ValidatePolicy, scaled_config
from repro.experiments.runner import cell_config, map_cells


def _sweep(specs, scale: float, seed: int, workers: int | None):
    """Run ``(tag, config)`` specs; returns {tag: summary} in job order."""
    jobs = [
        (config, benchmark, scale, seed)
        for (benchmark, _label), config in specs
    ]
    summaries = map_cells(jobs, workers)
    return {tag: summary for (tag, _), summary in zip(specs, summaries)}


def validate_policy_ablation(scale=1.0, seed=1, benchmarks=("specjbb", "tpc-b"),
                             verbose=True, workers=None) -> str:
    """Validate policy sweep on MESTI."""
    policies = [
        (ValidatePolicy.ALWAYS, "mesti"),
        (ValidatePolicy.SNOOP_AWARE, "mesti"),
        (ValidatePolicy.PREDICTOR, "emesti"),
    ]
    specs = []
    for benchmark in benchmarks:
        specs.append(((benchmark, "base"),
                      cell_config(scaled_config(), "base")))
        for policy, technique in policies:
            cfg = cell_config(scaled_config(), technique)
            cfg = cfg.with_protocol(validate_policy=policy,
                                    enhanced=(policy is ValidatePolicy.PREDICTOR))
            specs.append(((benchmark, policy.value), cfg))
    results = _sweep(specs, scale, seed, workers)
    rows = []
    for benchmark in benchmarks:
        base = results[(benchmark, "base")]
        for policy, _technique in policies:
            summary = results[(benchmark, policy.value)]
            rows.append([
                benchmark,
                policy.value,
                round(base["cycles"] / summary["cycles"], 3),
                summary["txn_validate"],
                round(summary["txn_total"] / base["txn_total"], 3),
            ])
            if verbose:
                print(f"  validate-ablation {benchmark}/{policy.value} done",
                      flush=True)
    return render_table(
        ["Benchmark", "Policy", "Speedup", "Validates", "Txn vs base"],
        rows, title="Ablation: validate broadcast policy",
    )


def sle_predictor_ablation(scale=1.0, seed=1, benchmarks=("tpc-b", "raytrace"),
                           verbose=True, workers=None) -> str:
    """Enhanced elision confidence vs simple restart threshold."""
    variants = [
        ("enhanced-confidence", {"confidence_enabled": True}),
        ("simple-threshold", {"confidence_enabled": False}),
        ("naive-isync", {"isync_safety_check": False}),
        ("checkpoint-mode", {"checkpoint_mode": True}),
    ]
    specs = []
    for benchmark in benchmarks:
        specs.append(((benchmark, "base"),
                      cell_config(scaled_config(), "base")))
        for label, kw in variants:
            specs.append(((benchmark, label),
                          cell_config(scaled_config(), "sle").with_sle(**kw)))
    results = _sweep(specs, scale, seed, workers)
    rows = []
    for benchmark in benchmarks:
        base = results[(benchmark, "base")]
        for label, _kw in variants:
            summary = results[(benchmark, label)]
            rows.append([
                benchmark, label,
                round(base["cycles"] / summary["cycles"], 3),
                summary["sle_attempts"], summary["sle_successes"],
                summary["sle_fail_no_release"] + summary["sle_fail_serialize"],
            ])
            if verbose:
                print(f"  sle-ablation {benchmark}/{label} done", flush=True)
    return render_table(
        ["Benchmark", "SLE variant", "Speedup", "Attempts", "Successes", "Hard fails"],
        rows, title="Ablation: SLE prediction and isync handling (§4.2.2–4.2.3)",
    )


def sle_rob_threshold_ablation(scale=1.0, seed=1, benchmark="raytrace",
                               thresholds=(0.25, 0.5, 0.75), verbose=True,
                               workers=None) -> str:
    """Critical-section buffering bound sweep."""
    specs = [((benchmark, "base"), cell_config(scaled_config(), "base"))]
    for threshold in thresholds:
        specs.append((
            (benchmark, threshold),
            cell_config(scaled_config(), "sle").with_sle(rob_threshold=threshold),
        ))
    results = _sweep(specs, scale, seed, workers)
    base = results[(benchmark, "base")]
    rows = []
    for threshold in thresholds:
        summary = results[(benchmark, threshold)]
        rows.append([
            threshold,
            round(base["cycles"] / summary["cycles"], 3),
            summary["sle_successes"],
            summary["sle_fail_no_release"],
        ])
        if verbose:
            print(f"  rob-ablation {threshold} done", flush=True)
    return render_table(
        ["ROB threshold", "Speedup", "Successes", "No-release aborts"],
        rows, title=f"Ablation: SLE ROB threshold ({benchmark})",
    )


def silent_store_ablation(scale=1.0, seed=1, benchmarks=("ocean", "tpc-b"),
                          verbose=True, workers=None) -> str:
    """Update-silent store squashing on the baseline protocol."""
    specs = []
    for benchmark in benchmarks:
        specs.append(((benchmark, "base"),
                      cell_config(scaled_config(), "base")))
        specs.append(((benchmark, "squash"),
                      cell_config(scaled_config(), "base").with_protocol(
                          squash_silent_stores=True)))
    results = _sweep(specs, scale, seed, workers)
    rows = []
    for benchmark in benchmarks:
        base = results[(benchmark, "base")]
        summary = results[(benchmark, "squash")]
        rows.append([
            benchmark,
            round(base["cycles"] / summary["cycles"], 3),
            summary["us_stores"],
            round(summary["txn_upgrade"] / max(1, base["txn_upgrade"]), 3),
        ])
        if verbose:
            print(f"  silent-ablation {benchmark} done", flush=True)
    return render_table(
        ["Benchmark", "Speedup", "US stores", "Upgrades vs base"],
        rows, title="Ablation: update-silent store squashing [21]",
    )


def run(scale: float = 1.0, seed: int = 1, verbose=True,
        workers: int | None = None) -> str:
    """Run the experiment and return the rendered text."""
    parts = [
        validate_policy_ablation(scale, seed, verbose=verbose, workers=workers),
        sle_predictor_ablation(scale, seed, verbose=verbose, workers=workers),
        sle_rob_threshold_ablation(scale, seed, verbose=verbose, workers=workers),
        silent_store_ablation(scale, seed, verbose=verbose, workers=workers),
    ]
    return "\n\n".join(parts)


if __name__ == "__main__":
    print(run())
