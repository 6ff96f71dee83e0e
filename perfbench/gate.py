"""Correctness checks applied to each workload's outputs after timing.

Every check returns a plain dict that goes into the run's report; a run is
correct only when all of its checks pass.
"""

from __future__ import annotations

import math

# two-sided normal quantile for the binomial bands: P(|Z| > 4) ~ 6e-5, so an
# agreeing simulator fails a check about once in 16,000 runs
BAND_Z = 4.0


def binomial_band(name: str, successes: int, trials: int, reference: float,
                  allowance: float) -> dict:
    """Check an observed fraction against a reference probability.

    Passes when |p_hat - reference| <= BAND_Z * se + allowance, with
    se = sqrt(reference * (1 - reference) / trials).  ``allowance`` is the
    stated discretization bias of the simulator (finite n or grid step); the
    observed bias and its z-score are reported either way.
    """
    if trials < 1:
        return {"name": name, "passed": False, "reason": "no completed trials"}
    p_hat = successes / trials
    se = math.sqrt(reference * (1.0 - reference) / trials)
    band = BAND_Z * se + allowance
    bias = p_hat - reference
    return {
        "name": name,
        "passed": abs(bias) <= band,
        "estimate": p_hat,
        "reference": reference,
        "trials": trials,
        "se": se,
        "bias": bias,
        "bias_z": bias / se if se > 0 else math.inf,
        "band": band,
        "band_z": BAND_Z,
        "allowance": allowance,
    }


def within(name: str, estimate: float, reference: float, tolerance: float, **extra) -> dict:
    """Check |estimate - reference| <= tolerance."""
    return {
        "name": name,
        "passed": abs(estimate - reference) <= tolerance,
        "estimate": estimate,
        "reference": reference,
        "tolerance": tolerance,
        **extra,
    }


def holds(name: str, passed: bool, **detail) -> dict:
    """Record a check whose pass condition the caller evaluated."""
    return {"name": name, "passed": bool(passed), **detail}
