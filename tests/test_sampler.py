"""Metropolis-Hastings driver with estimated likelihoods."""

import logging
import math

import pytest
from test_executor import _count_messages, _count_starts, _FaultyModel, _live, needs_fork

from pmcmc.core import EngineError, Parameters, ValidationError, make_stream
from pmcmc.models import LinearGaussianModel, synthesize_linear_gaussian
from pmcmc.sampler import (
    ChainRecord,
    Evaluation,
    LogNormalPrior,
    Prior,
    SamplerSettings,
    UniformPrior,
    acceptance_probability,
    make_filter_evaluator,
    mh_step,
    run_chain,
)

_WIDE = Prior({"a": UniformPrior(-1e9, 1e9)})


def _record(theta, log_likelihood=0.0, log_prior=0.0, sample_index=0):
    return ChainRecord(sample_index, theta, log_likelihood, 0.0, log_prior, True, theta)


def _fixed_evaluator(value, log_std=0.0, calls=None):
    def evaluate(theta, sample_index):
        if calls is not None:
            calls.append(sample_index)
        return Evaluation(value, log_std, None)
    return evaluate


class TestAcceptanceProbability:
    def test_uphill_always_taken(self):
        assert acceptance_probability(-10.0, -3.0) == 1.0
        assert acceptance_probability(-3.0, -3.0) == 1.0

    def test_downhill_ratio(self):
        assert acceptance_probability(-4.0, -4.5) == math.exp(-0.5)

    def test_impossible_proposal_never_taken(self):
        assert acceptance_probability(-3.0, -math.inf) == 0.0
        assert acceptance_probability(-math.inf, -math.inf) == 0.0

    def test_impossible_current_always_left(self):
        assert acceptance_probability(-math.inf, -3.0) == 1.0

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            acceptance_probability(math.nan, -3.0)
        with pytest.raises(ValidationError):
            acceptance_probability(-3.0, math.nan)

    def test_shift_invariance_exact_for_representable_shifts(self):
        base = acceptance_probability(-4.0, -4.5)
        for shift in (128.0, -256.0, 4096.0):
            assert acceptance_probability(-4.0 + shift, -4.5 + shift) == base

    def test_shift_robustness_for_large_magnitudes(self):
        base = acceptance_probability(-3.0, -3.7)
        shifted = acceptance_probability(-3.0 + 1e6, -3.7 + 1e6)
        assert shifted == pytest.approx(base, rel=1e-9)


class TestPriors:
    def test_uniform(self):
        prior = UniformPrior(-1.0, 1.0)
        assert prior.log_density(0.0) == -math.log(2.0)
        assert prior.log_density(-1.0) == -math.log(2.0)
        assert prior.log_density(1.0) == -math.log(2.0)
        assert prior.log_density(1.0000001) == -math.inf
        with pytest.raises(ValidationError):
            UniformPrior(1.0, 1.0)
        with pytest.raises(ValidationError):
            UniformPrior(0.0, math.inf)

    def test_lognormal(self):
        prior = LogNormalPrior(0.0, 1.0)
        # mode of the density sits at exp(mu - sigma^2)
        assert prior.log_density(1.0) == pytest.approx(-0.5 * math.log(2.0 * math.pi), rel=1e-12)
        assert prior.log_density(0.0) == -math.inf
        assert prior.log_density(-2.0) == -math.inf
        with pytest.raises(ValidationError):
            LogNormalPrior(0.0, 0.0)

    def test_joint_prior(self):
        prior = Prior({"a": UniformPrior(-1.0, 1.0), "K": LogNormalPrior(3.0, 0.5)})
        assert prior.names == ("a", "K")
        inside = prior.log_density(Parameters({"a": 0.5, "K": 20.0}))
        assert inside == pytest.approx(
            -math.log(2.0) + LogNormalPrior(3.0, 0.5).log_density(20.0), rel=1e-12)
        assert prior.log_density(Parameters({"a": 2.0, "K": 20.0})) == -math.inf
        assert prior.log_density(Parameters({"a": 0.5, "K": -1.0})) == -math.inf

    def test_joint_prior_validation(self):
        with pytest.raises(ValidationError):
            Prior({})
        with pytest.raises(ValidationError):
            Prior({"a": 3.0})
        prior = Prior({"a": UniformPrior(0.0, 1.0)})
        with pytest.raises(ValidationError):
            prior.log_density(Parameters({"b": 0.5}))


class TestMhStep:
    def test_rejection_repeats_stored_state(self):
        # impossibly bad proposal likelihood: the step must repeat theta
        # and its stored estimate while recording the attempt
        current = _record(Parameters({"a": 0.5}), log_likelihood=-10.0)
        step = mh_step(current, {"a": 0.1}, _fixed_evaluator(-1e9), _WIDE, make_stream(1))
        assert not step.accepted
        assert step.theta == current.theta
        assert step.log_likelihood == -10.0
        assert step.sample_index == 1
        assert step.proposal != current.theta

    def test_acceptance_takes_proposal(self):
        current = _record(Parameters({"a": 0.5}), log_likelihood=-1e9)
        step = mh_step(current, {"a": 0.1}, _fixed_evaluator(-10.0, log_std=0.25),
                       _WIDE, make_stream(1))
        assert step.accepted
        assert step.theta == step.proposal
        assert step.log_likelihood == -10.0 and step.log_std == 0.25

    def test_zero_prior_shortcut_skips_evaluator(self):
        calls = []
        prior = Prior({"a": UniformPrior(-1.0, 1.0)})
        current = _record(Parameters({"a": 0.0}), log_likelihood=-5.0,
                          log_prior=prior.log_density(Parameters({"a": 0.0})))
        step = mh_step(current, {"a": 1e6}, _fixed_evaluator(0.0, calls=calls),
                       prior, make_stream(3))
        assert calls == []
        assert not step.accepted
        assert abs(step.proposal["a"]) > 1.0
        assert step.theta == current.theta
        assert step.filter is None

    def test_evaluator_failure_wrapped_with_sample_index(self):
        def broken(theta, sample_index):
            raise RuntimeError("filter exploded")

        current = _record(Parameters({"a": 0.5}), sample_index=6)
        with pytest.raises(EngineError, match="sample 7.*filter exploded"):
            mh_step(current, {"a": 0.1}, broken, _WIDE, make_stream(1))

    def test_invalid_evaluation_rejected(self):
        current = _record(Parameters({"a": 0.5}))
        for bad in (math.nan, math.inf):
            with pytest.raises(ValidationError):
                mh_step(current, {"a": 0.1}, _fixed_evaluator(bad), _WIDE, make_stream(1))

    def test_degenerate_evaluation_logs_and_rejects(self, caplog):
        current = _record(Parameters({"a": 0.5}), log_likelihood=-10.0)
        with caplog.at_level(logging.WARNING, logger="pmcmc.sampler"):
            step = mh_step(current, {"a": 0.1}, _fixed_evaluator(-math.inf),
                           _WIDE, make_stream(1))
        assert not step.accepted
        assert step.log_likelihood == -10.0
        assert any("degenerate" in r.message for r in caplog.records)

    def test_scale_validation(self):
        current = _record(Parameters({"a": 0.5}))
        evaluator = _fixed_evaluator(0.0)
        with pytest.raises(ValidationError):
            mh_step(current, {}, evaluator, _WIDE, make_stream(1))
        with pytest.raises(ValidationError):
            mh_step(current, {"zzz": 0.1}, evaluator, _WIDE, make_stream(1))
        with pytest.raises(ValidationError):
            mh_step(current, {"a": -0.1}, evaluator, _WIDE, make_stream(1))
        with pytest.raises(ValidationError):
            mh_step(current, {"a": math.inf}, evaluator, _WIDE, make_stream(1))

    def test_untouched_parameters_pass_through(self):
        current = _record(Parameters({"a": 0.5, "b": 7.0}))
        prior = Prior({"a": UniformPrior(-1e9, 1e9)})
        step = mh_step(current, {"a": 0.1}, _fixed_evaluator(1.0), prior, make_stream(2))
        assert step.proposal["b"] == 7.0


class TestRunChain:
    def test_single_sample_chain(self):
        settings = SamplerSettings(Parameters({"a": 0.5}), 1, {"a": 0.1}, _WIDE, 4, 1)
        records = run_chain(settings, None, None, evaluator=_fixed_evaluator(-3.0))
        assert len(records) == 1
        assert records[0].accepted and records[0].sample_index == 0
        assert records[0].log_likelihood == -3.0

    def test_sample_indices_and_proposal_trace(self):
        settings = SamplerSettings(Parameters({"a": 0.0}), 4, {"a": 0.1}, _WIDE, 4, 1)
        records = run_chain(settings, None, None, evaluator=_fixed_evaluator(0.0))
        assert [r.sample_index for r in records] == [0, 1, 2, 3]
        # fixed likelihood and flat prior: every proposal is accepted
        for r in records[1:]:
            assert r.accepted and r.theta == r.proposal

    def test_chain_is_deterministic_given_chain_index(self):
        settings = SamplerSettings(Parameters({"a": 0.0}), 6, {"a": 0.3}, _WIDE, 4, 1)
        a = run_chain(settings, None, None, chain_index=9, evaluator=_fixed_evaluator(0.0))
        b = run_chain(settings, None, None, chain_index=9, evaluator=_fixed_evaluator(0.0))
        c = run_chain(settings, None, None, chain_index=10, evaluator=_fixed_evaluator(0.0))
        assert [r.theta for r in a] == [r.theta for r in b]
        assert [r.theta for r in a] != [r.theta for r in c]

    def test_initial_zero_prior_rejected(self):
        prior = Prior({"a": UniformPrior(-1.0, 1.0)})
        settings = SamplerSettings(Parameters({"a": 5.0}), 3, {"a": 0.1}, prior, 4, 1)
        with pytest.raises(ValidationError):
            run_chain(settings, None, None, evaluator=_fixed_evaluator(0.0))

    def test_needs_model_or_evaluator(self):
        settings = SamplerSettings(Parameters({"a": 0.0}), 2, {"a": 0.1}, _WIDE, 4, 1)
        with pytest.raises(ValidationError):
            run_chain(settings, None, None)

    def test_settings_validation(self):
        with pytest.raises(ValidationError):
            SamplerSettings(Parameters({"a": 0.0}), 0, {"a": 0.1}, _WIDE, 4, 1)
        for samples in (2.5, True):
            with pytest.raises(ValidationError, match="must be an integer"):
                SamplerSettings(Parameters({"a": 0.0}), samples, {"a": 0.1}, _WIDE, 4, 1)

    def test_pseudo_marginal_wander_with_frozen_proposal(self):
        """Zero proposal scale leaves theta fixed, yet the chain still
        mixes over likelihood draws: some re-draws win, some lose, so the
        long-run acceptance rate sits strictly inside (0, 1)."""
        def noisy(theta, sample_index):
            return Evaluation(float(make_stream(sample_index).standard_normal()), 0.5, None)

        settings = SamplerSettings(Parameters({"a": 0.0}), 60, {"a": 0.0}, _WIDE, 4, 1)
        records = run_chain(settings, None, None, evaluator=noisy)
        rate = sum(r.accepted for r in records[1:]) / (len(records) - 1)
        assert 0.0 < rate < 1.0
        assert all(r.theta == records[0].theta for r in records)

    def test_filter_backed_chain_worker_invariance(self):
        obs = synthesize_linear_gaussian(Parameters({"a": 0.6}), (2, 4, 6), seed=11)
        prior = Prior({"a": UniformPrior(-1.0, 1.0)})
        settings = SamplerSettings(Parameters({"a": 0.5}), 5, {"a": 0.2}, prior, 8, 1)
        chains = {}
        for W in (1, 2):
            chains[W] = run_chain(
                SamplerSettings(settings.initial, settings.samples, settings.scales,
                                prior, 8, W),
                LinearGaussianModel, obs, chain_index=4)
        assert [r.theta for r in chains[1]] == [r.theta for r in chains[2]]
        assert [r.log_likelihood for r in chains[1]] == [r.log_likelihood for r in chains[2]]
        assert [r.accepted for r in chains[1]] == [r.accepted for r in chains[2]]

    @needs_fork
    def test_filter_backed_chain_launches_its_workers_once(self, monkeypatch):
        """Every pass of a chain runs on one session: a W=2 chain of 4
        samples starts 2 worker processes and tells each to exit once."""
        before = _live()
        starts = _count_starts(monkeypatch)
        sent = _count_messages(monkeypatch)
        obs = synthesize_linear_gaussian(Parameters({"a": 0.6}), (2, 4, 6), seed=11)
        settings = SamplerSettings(Parameters({"a": 0.5}), 4, {"a": 0.2}, _WIDE, 8, 2)
        records = run_chain(settings, LinearGaussianModel, obs, chain_index=4)
        assert all(r.filter is not None for r in records)
        assert len(starts) == 2
        assert sent["Broadcast"] == 2 * len(records)
        assert sent["ExitCommand"] == 2
        assert _live() == before

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_pass_ends_the_chain_and_its_workers(self, workers):
        # the model fails at sample 1, the chain's second pass
        obs = synthesize_linear_gaussian(Parameters({"a": 0.6}), (2, 4, 6), seed=11)
        settings = SamplerSettings(Parameters({"a": 0.5}), 4, {"a": 0.2}, _WIDE, 4, workers)
        before = _live()
        with pytest.raises(EngineError, match="failed at sample 1: RuntimeError: injected run fault"):
            run_chain(settings, lambda: _FaultyModel("run", 3, 1), obs)
        assert _live() == before

    def test_filter_evaluator_matches_direct_run(self):
        from pmcmc.executor import run_particle_filter

        obs = synthesize_linear_gaussian(Parameters({"a": 0.6}), (2, 4), seed=3)
        evaluator = make_filter_evaluator(LinearGaussianModel, obs, 8, 2, chain_index=5)
        evaluation = evaluator(Parameters({"a": 0.6}), 7)
        direct = run_particle_filter(LinearGaussianModel, Parameters({"a": 0.6}), obs, 8, 2,
                                     chain_index=5, sample_index=7)
        assert evaluation.log_likelihood == direct.estimate.log_value
        assert evaluation.log_std == direct.estimate.log_std
        assert evaluation.filter_diagnostics.workers == 2
