"""Ensemble resampling and the marginal-likelihood estimator.

The estimate of the data's marginal likelihood is the product over
observation events of the ensemble-mean observation likelihood; its
spread is summarized by a first-order (delta-method) standard deviation
of the log estimate. All accumulation happens in log space with max-shift
normalization so large ensembles with many observation events cannot
underflow. Only the per-event diagnostics ``per_observation_means`` and
``per_observation_variances`` are linear: they saturate to inf where the
value is past float range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import ValidationError, make_stream

__all__ = [
    "LikelihoodEstimate",
    "estimate_marginal_from_log",
    "resample_multinomial",
]


def resample_multinomial(probs: Sequence[float], p: int, seed: int) -> np.ndarray:
    """Multinomial replica counts for an ensemble of size p.

    Documented procedure: draw p uniforms from the stream keyed by
    ``seed``, sort them, and push them through the inverse CDF of the
    probability vector. Deterministic given the seed; counts sum to p.
    """
    if p < 1:
        raise ValidationError(f"ensemble size must be >= 1, got {p}")
    q = np.asarray(probs, dtype=np.float64)
    if q.ndim != 1 or q.size == 0:
        raise ValidationError("probabilities must be a nonempty 1-D vector")
    if not np.all(np.isfinite(q)) or np.any(q < 0.0):
        raise ValidationError("probabilities must be finite and >= 0")
    if abs(q.sum() - 1.0) > 1e-9:
        raise ValidationError(f"probabilities must sum to 1, got {q.sum()!r}")
    u = np.sort(make_stream(seed).random(p))
    # inverse-CDF lookup: bin i covers (cum[i-1], cum[i]]; zero-width bins
    # are skipped by side='right', the clip absorbs top-edge rounding
    cum = np.cumsum(q)
    idx = np.minimum(np.searchsorted(cum, u, side="right"), q.size - 1)
    return np.bincount(idx, minlength=q.size)


@dataclass(frozen=True)
class LikelihoodEstimate:
    """Marginal-likelihood estimate with per-event diagnostics.

    log_value is the sum of the log row means; log_std the delta-method
    standard deviation of the log estimate. A degenerate estimate (some
    event where every particle had zero likelihood) carries -inf and NaN
    with the offending event indices flagged.
    """

    log_value: float
    log_std: float
    per_observation_means: tuple = field(repr=False)
    per_observation_variances: tuple = field(repr=False)
    degenerate_observations: tuple = ()


def _linear(log_value: float, factor: float = 1.0) -> float:
    """``factor * exp(log_value)`` for ``factor >= 0``: 0 for a zero factor,
    inf only where the product itself is past float range."""
    if factor == 0.0:
        return 0.0
    try:
        return factor * math.exp(log_value)
    except OverflowError:
        try:
            return math.exp(log_value + math.log(factor))
        except OverflowError:
            return math.inf


def estimate_marginal_from_log(log_weight_matrix) -> LikelihoodEstimate:
    """Estimate from an n x p matrix of per-event particle log likelihoods
    (rows ordered by event, columns by lineage; entries may be -inf for
    zero likelihood, +inf and NaN are invalid)."""
    lw = np.asarray(log_weight_matrix, dtype=np.float64)
    if lw.ndim != 2 or lw.size == 0:
        raise ValidationError("log-weight matrix must be a nonempty n x p array")
    if np.any(np.isnan(lw)) or np.any(lw == np.inf):
        raise ValidationError("log weights must be < +inf and not NaN")
    n, p = lw.shape
    log_means = np.empty(n)
    means = np.empty(n)
    variances = np.empty(n)
    var_over_sq = np.empty(n)
    degenerate = []
    for j in range(n):
        row = lw[j]
        shift = row.max()
        if shift == -np.inf:
            degenerate.append(j)
            log_means[j] = -np.inf
            means[j] = 0.0
            variances[j] = 0.0
            var_over_sq[j] = np.nan
            continue
        e = np.exp(row - shift)
        mean_e = e.mean()
        log_means[j] = shift + math.log(mean_e)
        means[j] = _linear(log_means[j])
        var_e = e.var(ddof=1) if p > 1 else 0.0
        variances[j] = _linear(2.0 * shift, var_e)
        # the shift cancels in the ratio, keeping it finite under underflow
        var_over_sq[j] = var_e / (mean_e * mean_e)
    if degenerate:
        return LikelihoodEstimate(
            log_value=-math.inf,
            log_std=math.nan,
            per_observation_means=tuple(means),
            per_observation_variances=tuple(variances),
            degenerate_observations=tuple(degenerate),
        )
    return LikelihoodEstimate(
        log_value=float(log_means.sum()),
        log_std=math.sqrt(float(var_over_sq.sum()) / p),
        per_observation_means=tuple(means),
        per_observation_variances=tuple(variances),
    )
