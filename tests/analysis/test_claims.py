"""The executable paper-shape claims."""

import pathlib

from repro.analysis.claims import PAPER_CLAIMS, Claim, evaluate_claims

BENCHES = ("ocean", "radiosity", "raytrace", "specjbb", "specweb", "tpc-b", "tpc-h")
TECHS = ("mesti", "emesti", "lvp", "sle", "emesti+lvp")


def paperlike_matrix():
    """A matrix shaped like the paper's Figure 7."""
    rows = {
        "ocean": [1.01, 1.01, 1.02, 0.98, 1.03],
        "radiosity": [1.01, 1.02, 1.01, 1.025, 1.03],
        "raytrace": [1.02, 1.03, 1.00, 1.09, 1.03],
        "specjbb": [0.70, 1.00, 0.995, 1.00, 1.00],
        "specweb": [0.99, 1.04, 1.01, 0.97, 1.05],
        "tpc-b": [1.065, 1.14, 1.09, 1.00, 1.21],
        "tpc-h": [1.02, 1.03, 1.02, 0.985, 1.04],
    }
    return {b: dict(zip(TECHS, vals)) for b, vals in rows.items()}


def test_paper_figures_satisfy_every_claim():
    report = evaluate_claims(paperlike_matrix())
    assert report.all_hold, report.render()


def test_broken_matrix_fails_claims():
    matrix = paperlike_matrix()
    matrix["specjbb"]["mesti"] = 1.10  # MESTI "winning" on specjbb
    matrix["raytrace"]["sle"] = 0.90  # SLE losing its showcase
    report = evaluate_claims(matrix)
    assert not report.all_hold
    failed = {c.name for c in report.failed_claims()}
    assert "plain MESTI slows specjbb substantially" in failed
    assert any("raytrace" in name for name in failed)


def test_missing_benchmark_counts_as_failure():
    matrix = paperlike_matrix()
    del matrix["specjbb"]
    report = evaluate_claims(matrix)
    assert not report.all_hold


def test_render_lists_every_claim():
    report = evaluate_claims(paperlike_matrix())
    text = report.render()
    for claim in PAPER_CLAIMS:
        assert claim.name in text
    assert f"{report.passed}/{report.total}" in text


def test_custom_claim():
    claim = Claim("toy", "nowhere", lambda m: m["x"]["y"] > 1)
    assert claim.evaluate({"x": {"y": 2}})
    assert not claim.evaluate({"x": {"y": 0.5}})
    assert not claim.evaluate({})  # missing keys fail closed


def test_measured_matrix_satisfies_the_claims():
    """The committed full-scale results satisfy the paper's shape.

    The cells are read from the result store in ``results/`` under the
    fingerprints of the current machine config: a config change that
    moves them fails here until the matrix is regenerated.
    """
    from repro.common.config import scaled_config
    from repro.experiments.figure7 import DEFAULT_SEEDS, FIGURE7_TECHNIQUES
    from repro.experiments.runner import cell_config, cell_fingerprint
    from repro.experiments.store import ResultStore

    store = ResultStore(pathlib.Path(__file__).resolve().parents[2] / "results")
    means: dict = {}
    missing = []
    for bench in BENCHES:
        for tech in ("base", *FIGURE7_TECHNIQUES):
            config = cell_config(scaled_config(), tech)
            cycles = []
            for seed in DEFAULT_SEEDS:
                doc = store.get(cell_fingerprint(config, bench, 1.0, seed))
                if doc is None:
                    missing.append(f"{bench}|{tech}|{seed}")
                else:
                    cycles.append(doc["summary"]["cycles"])
            means.setdefault(bench, {})[tech] = sum(cycles) / max(len(cycles), 1)
    assert not missing, (
        f"{len(missing)} scale-1.0 cells are not in results/ (regenerate "
        f"with python -m repro.experiments.figure7): {missing[:5]}"
    )
    speedups = {
        bench: {
            tech: per["base"] / cycles
            for tech, cycles in per.items()
            if tech != "base"
        }
        for bench, per in means.items()
    }
    report = evaluate_claims(speedups)
    assert report.all_hold, "\n" + report.render()
