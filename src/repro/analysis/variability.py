"""Variability statistics for non-deterministic workloads.

The paper measures performance "using accepted statistical methods
required for non-deterministic workloads" [Alameldeen & Wood, HPCA
2003]: each configuration runs several times with small random timing
perturbations (our ``MachineConfig.latency_jitter``), and results are
reported as means with 95% confidence intervals from the Student
t-distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ConfidenceInterval:
    """A sample mean with a symmetric confidence half-width."""

    mean: float
    half_width: float
    n: int
    confidence: float = 0.95

    @property
    def low(self) -> float:
        """Lower bound of the interval."""
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        """Upper bound of the interval."""
        return self.mean + self.half_width

    def overlaps(self, other: "ConfidenceInterval") -> bool:
        """True if the two intervals overlap (difference not significant)."""
        return self.low <= other.high and other.low <= self.high

    def __str__(self) -> str:
        return f"{self.mean:.4f} ± {self.half_width:.4f}"


def mean_ci(samples: list[float], confidence: float = 0.95) -> ConfidenceInterval:
    """Mean and t-distribution confidence half-width of ``samples``."""
    if not samples:
        raise ValueError("no samples")
    n = len(samples)
    mean = sum(samples) / n
    if n == 1:
        return ConfidenceInterval(mean=mean, half_width=0.0, n=1, confidence=confidence)
    var = sum((x - mean) ** 2 for x in samples) / (n - 1)
    sem = math.sqrt(var / n)
    # Imported at its only use: scipy.stats takes most of a second to
    # import, and every ``import repro`` reaches this module.
    from scipy import stats as scipy_stats

    t = scipy_stats.t.ppf(0.5 + confidence / 2, df=n - 1)
    return ConfidenceInterval(mean=mean, half_width=t * sem, n=n, confidence=confidence)


def speedup_ci(
    baseline: list[float], variant: list[float], confidence: float = 0.95
) -> ConfidenceInterval:
    """CI of the speedup of ``variant`` over ``baseline`` run times.

    Speedup is baseline_time / variant_time, computed pairwise when the
    sample counts match (common random seeds), else on the ratio of
    means with a conservative combined half-width.
    """
    if len(baseline) == len(variant) and len(baseline) > 1:
        ratios = [b / v for b, v in zip(baseline, variant)]
        return mean_ci(ratios, confidence)
    base_ci = mean_ci(baseline, confidence)
    var_ci = mean_ci(variant, confidence)
    mean = base_ci.mean / var_ci.mean
    rel = 0.0
    if base_ci.mean:
        rel += base_ci.half_width / base_ci.mean
    if var_ci.mean:
        rel += var_ci.half_width / var_ci.mean
    return ConfidenceInterval(
        mean=mean, half_width=mean * rel, n=min(len(baseline), len(variant)),
        confidence=confidence,
    )
