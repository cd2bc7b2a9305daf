"""Parallel particle MCMC engine for stochastic time-series models.

Bayesian calibration of hidden-Markov models whose likelihood has no
closed form: a particle filter estimates the marginal likelihood of the
data, a pseudo-marginal Metropolis-Hastings chain samples the posterior,
and a master-worker runtime keeps the particle ensemble balanced across
workers with results that are bit-identical for any worker count.
"""

from .core import ObservationSeries, Parameters
from .executor import run_particle_filter
from .models import LinearGaussianModel
from .sampler import Prior, SamplerSettings, UniformPrior, run_chain

__version__ = "0.1.0"

__all__ = [
    "LinearGaussianModel",
    "ObservationSeries",
    "Parameters",
    "Prior",
    "SamplerSettings",
    "UniformPrior",
    "run_chain",
    "run_particle_filter",
    "__version__",
]
