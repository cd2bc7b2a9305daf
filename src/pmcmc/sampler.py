"""Random-walk Metropolis-Hastings over model parameters.

The likelihood is whatever the pluggable evaluator returns, usually a
particle-filter estimate. Because the estimate is an unbiased draw
rather than an exact value, the sampler follows the pseudo-marginal
convention: a rejected step keeps the stored estimate untouched, it is
never re-evaluated at the current point. Re-evaluating would bias the
chain toward lucky high draws.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .core import (
    PROPOSAL_STREAM,
    EngineError,
    ObservationSeries,
    Parameters,
    SeedKey,
    ValidationError,
    derive_seed,
    make_stream,
)
from .executor import FilterDiagnostics, FilterSession, run_particle_filter
from .models.base import Model

__all__ = [
    "UniformPrior",
    "LogNormalPrior",
    "Prior",
    "ChainRecord",
    "Evaluation",
    "SamplerSettings",
    "acceptance_probability",
    "make_filter_evaluator",
    "mh_step",
    "run_chain",
]

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Priors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniformPrior:
    """Flat density on [lower, upper], zero outside."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValidationError(f"uniform bounds must be finite, got {self.lower}, {self.upper}")
        if not self.lower < self.upper:
            raise ValidationError(f"uniform needs lower < upper, got {self.lower}, {self.upper}")

    def log_density(self, value: float) -> float:
        if self.lower <= value <= self.upper:
            return -math.log(self.upper - self.lower)
        return -math.inf


@dataclass(frozen=True)
class LogNormalPrior:
    """log(value) ~ Normal(mu, sigma^2); support is the positive axis."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)) or self.sigma <= 0:
            raise ValidationError(f"lognormal needs finite mu and sigma > 0, got {self.mu}, {self.sigma}")

    def log_density(self, value: float) -> float:
        if value <= 0:
            return -math.inf
        z = (math.log(value) - self.mu) / self.sigma
        return -0.5 * (z * z + math.log(2.0 * math.pi)) - math.log(self.sigma) - math.log(value)


class Prior:
    """Independent per-parameter prior over the calibrated names."""

    def __init__(self, marginals: Mapping[str, UniformPrior | LogNormalPrior]):
        if not marginals:
            raise ValidationError("a prior needs at least one marginal")
        for name, marginal in marginals.items():
            if not hasattr(marginal, "log_density"):
                raise ValidationError(f"prior for {name!r} lacks a log_density method")
        self._marginals = dict(marginals)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._marginals)

    def log_density(self, theta: Parameters) -> float:
        total = 0.0
        for name, marginal in self._marginals.items():
            if name not in theta:
                raise ValidationError(f"prior parameter {name!r} missing from {theta!r}")
            value = marginal.log_density(theta[name])
            if value == -math.inf:
                return -math.inf
            total += value
        return total


# ---------------------------------------------------------------------------
# Chain records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainRecord:
    """One MCMC sample: the retained state plus what was attempted.

    ``filter`` carries the full measurement set of the likelihood
    evaluation behind this sample, or None when no filter ran (shortcut
    rejection, exact evaluator).
    """

    sample_index: int
    theta: Parameters
    log_likelihood: float
    log_std: float
    log_prior: float
    accepted: bool
    proposal: Parameters
    filter: FilterDiagnostics | None = None

    @property
    def log_posterior(self) -> float:
        return self.log_likelihood + self.log_prior


class Evaluation(NamedTuple):
    log_likelihood: float
    log_std: float
    filter_diagnostics: FilterDiagnostics | None


# evaluator: (theta, sample_index) -> Evaluation
Evaluator = Callable[[Parameters, int], Evaluation]


def make_filter_evaluator(
    model_factory: Callable[[], Model],
    observations: ObservationSeries,
    ensemble_size: int,
    workers: int,
    *,
    chain_index: int = 0,
    session: FilterSession | None = None,
) -> Evaluator:
    """Likelihood evaluator backed by the parallel particle filter: one
    pass per evaluation, on ``session`` if given (opened with the same
    factory, sizes and chain index), else on a session of its own."""

    def evaluate(theta: Parameters, sample_index: int) -> Evaluation:
        result = run_particle_filter(model_factory, theta, observations, ensemble_size, workers,
                                     chain_index=chain_index, sample_index=sample_index,
                                     session=session)
        estimate = result.estimate
        return Evaluation(estimate.log_value, estimate.log_std, result.diagnostics)

    return evaluate


# ---------------------------------------------------------------------------
# The step
# ---------------------------------------------------------------------------


def acceptance_probability(log_posterior_current: float, log_posterior_proposal: float) -> float:
    """min(1, posterior ratio), with explicit rules at the -inf edges.

    An impossible proposal is never taken; an impossible current state
    is always left. Invariant under a common additive shift.
    """
    if math.isnan(log_posterior_current) or math.isnan(log_posterior_proposal):
        raise ValidationError("log posterior is NaN")
    if log_posterior_proposal == -math.inf:
        return 0.0
    if log_posterior_current == -math.inf:
        return 1.0
    return min(1.0, math.exp(min(log_posterior_proposal - log_posterior_current, 0.0)))


def _perturb(theta: Parameters, scales: Mapping[str, float], rng: np.random.Generator) -> Parameters:
    # draws consumed in declaration order so the proposal is reproducible
    updates = {}
    for name in theta.names:
        if name in scales:
            updates[name] = theta[name] + float(scales[name]) * rng.standard_normal()
    return theta.replace(**updates)


def mh_step(
    current: ChainRecord,
    scales: Mapping[str, float],
    evaluator: Evaluator,
    prior: Prior,
    rng: np.random.Generator,
) -> ChainRecord:
    """One Metropolis-Hastings transition from ``current``.

    The record produced for a rejection repeats the current parameters
    and their stored estimate (pseudo-marginal rule) while still keeping
    the attempted proposal for inspection.
    """
    unknown = set(scales) - set(current.theta.names)
    if unknown:
        raise ValidationError(f"proposal scales name unknown parameters: {sorted(unknown)}")
    if not scales:
        raise ValidationError("at least one proposal scale is required")
    for name, scale in scales.items():
        if not math.isfinite(scale) or scale < 0:
            raise ValidationError(f"proposal scale for {name!r} must be finite and >= 0, got {scale}")

    sample_index = current.sample_index + 1
    proposal = _perturb(current.theta, scales, rng)
    log_prior_proposal = prior.log_density(proposal)

    if log_prior_proposal == -math.inf:
        # zero-prior shortcut: no point running the filter
        return ChainRecord(
            sample_index, current.theta, current.log_likelihood, current.log_std,
            current.log_prior, False, proposal,
        )

    try:
        evaluation = evaluator(proposal, sample_index)
    except Exception as exc:
        raise EngineError(f"likelihood evaluation failed at sample {sample_index}: {exc}") from exc
    if math.isnan(evaluation.log_likelihood) or evaluation.log_likelihood == math.inf:
        raise ValidationError(
            f"evaluator returned invalid log likelihood {evaluation.log_likelihood!r} "
            f"at sample {sample_index}")
    if evaluation.log_likelihood == -math.inf:
        logger.warning(
            "sample %d: degenerate likelihood estimate at proposal %s, rejecting",
            sample_index, proposal)

    alpha = acceptance_probability(
        current.log_likelihood + current.log_prior,
        evaluation.log_likelihood + log_prior_proposal,
    )
    accepted = rng.random() < alpha
    if accepted:
        return ChainRecord(
            sample_index, proposal, evaluation.log_likelihood, evaluation.log_std,
            log_prior_proposal, True, proposal, evaluation.filter_diagnostics,
        )
    return ChainRecord(
        sample_index, current.theta, current.log_likelihood, current.log_std,
        current.log_prior, False, proposal, evaluation.filter_diagnostics,
    )


# ---------------------------------------------------------------------------
# The chain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SamplerSettings:
    """Everything the chain driver needs besides the model and the data."""

    initial: Parameters
    samples: int
    scales: Mapping[str, float]
    prior: Prior
    ensemble_size: int
    workers: int

    def __post_init__(self):
        if not isinstance(self.samples, int) or isinstance(self.samples, bool) or self.samples < 1:
            raise ValidationError(f"sample count must be an integer >= 1, got {self.samples!r}")


def run_chain(
    settings: SamplerSettings,
    model_factory: Callable[[], Model] | None,
    observations: ObservationSeries | None,
    *,
    chain_index: int = 0,
    evaluator: Evaluator | None = None,
) -> list[ChainRecord]:
    """Run the MCMC chain and return every record, initial state included.

    The first record evaluates the configured starting parameters; there
    is no burn-in discard. Passing ``evaluator`` overrides the default
    particle-filter evaluator (tests substitute an exact one). The default
    runs every pass of the chain on one ``FilterSession``, so its workers
    start once.
    """
    if evaluator is None:
        if model_factory is None or observations is None:
            raise ValidationError("run_chain needs a model factory and observations "
                                  "unless an evaluator is supplied")
        with FilterSession(model_factory, settings.ensemble_size, settings.workers,
                           chain_index=chain_index) as session:
            evaluator = make_filter_evaluator(model_factory, observations, settings.ensemble_size,
                                              settings.workers, chain_index=chain_index, session=session)
            return run_chain(settings, None, None, chain_index=chain_index, evaluator=evaluator)

    log_prior_initial = settings.prior.log_density(settings.initial)
    if log_prior_initial == -math.inf:
        raise ValidationError(f"initial parameters {settings.initial!r} carry zero prior density")
    try:
        evaluation = evaluator(settings.initial, 0)
    except Exception as exc:
        raise EngineError(f"likelihood evaluation failed at sample 0: {exc}") from exc
    if evaluation.log_likelihood == -math.inf:
        logger.warning("sample 0: degenerate likelihood estimate at the starting point")

    records = [ChainRecord(
        0, settings.initial, evaluation.log_likelihood, evaluation.log_std,
        log_prior_initial, True, settings.initial, evaluation.filter_diagnostics,
    )]

    for sample_index in range(1, settings.samples):
        rng = make_stream(derive_seed(
            SeedKey(chain_index, sample_index, 0, 0, PROPOSAL_STREAM)))
        records.append(mh_step(records[-1], settings.scales, evaluator, settings.prior, rng))
    return records
