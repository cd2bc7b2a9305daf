"""Linear-Gaussian model, exact marginal recursion, model state contract."""

import math
import pickle

import pytest

from pmcmc.core import (
    MODEL_STREAM,
    ObservationSeries,
    Parameters,
    SeedKey,
    SerializationError,
    ValidationError,
    derive_seed,
    make_stream,
)
from pmcmc.models import (
    DelayModel,
    LinearGaussianModel,
    Model,
    PredatorPreyModel,
    kalman_log_marginal,
    synthesize_linear_gaussian,
)
from pmcmc.models.base import decode_state_payload, encode_state_payload
from roundtrip import assert_state_roundtrip

_LOG_2PI = math.log(2.0 * math.pi)


def _obs(times, ys):
    return ObservationSeries(tuple(times), tuple({"y": y} for y in ys))


class TestExactMarginal:
    def test_frozen_reference_value(self):
        """Value cross-checked against an independent covariance-matrix
        implementation of the same marginal (direct multivariate normal
        density over the stacked observations)."""
        value = kalman_log_marginal(0.9, 1.0, 1.0, 0.0, 1.0, _obs([1, 2, 3], [0.5, -0.3, 1.1]))
        assert value == pytest.approx(-4.575343104184121, abs=1e-12)

    def test_single_observation_closed_form(self):
        # y ~ Normal(a*m0, a^2 s0^2 + q^2 + r^2) after one transition
        a, q, r, m0, s0, y = 0.7, 0.5, 0.3, 1.2, 0.8, 0.9
        var = a * a * s0 * s0 + q * q + r * r
        expected = -0.5 * ((y - a * m0) ** 2 / var + math.log(var) + _LOG_2PI)
        value = kalman_log_marginal(a, q, r, m0, s0, _obs([1], [y]))
        assert value == pytest.approx(expected, rel=1e-14)

    def test_zero_observation_noise_limit(self):
        # r -> 0 with known initial state: density of y under the pure transition
        value = kalman_log_marginal(1.0, 1e-8, 1.0, 0.5, 0.0, _obs([1], [0.5]))
        assert value == pytest.approx(-0.5 * _LOG_2PI, abs=1e-6)

    def test_gap_between_observations(self):
        # direct two-step composition: x2 | x0 ~ Normal(a^2 m0, a^2(a^2 s0^2 + q^2) + q^2)
        a, q, r, m0, s0, y = 0.8, 0.6, 0.4, -0.3, 1.1, 0.2
        var1 = a * a * s0 * s0 + q * q
        var2 = a * a * var1 + q * q
        total_var = var2 + r * r
        expected = -0.5 * ((y - a * a * m0) ** 2 / total_var + math.log(total_var) + _LOG_2PI)
        value = kalman_log_marginal(a, q, r, m0, s0, _obs([2], [y]))
        assert value == pytest.approx(expected, rel=1e-14)

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            kalman_log_marginal(0.9, 1.0, 1.0, 0.0, 1.0, _obs([1.5], [0.0]))
        with pytest.raises(ValidationError):
            kalman_log_marginal(0.9, -1.0, 1.0, 0.0, 1.0, _obs([1], [0.0]))
        with pytest.raises(ValidationError):
            kalman_log_marginal(0.9, 1.0, 1.0, 0.0, 1.0,
                                ObservationSeries((1,), ({"z": 0.0},)))


class TestLinearGaussianModel:
    def test_deterministic_given_seed(self):
        outs = []
        for _ in range(2):
            m = LinearGaussianModel()
            m.init(Parameters({"a": 0.8}), seed=42)
            m.run(5)
            outs.append(m.latent)
        assert outs[0] == outs[1]

    def test_init_overlays_parameters(self):
        m = LinearGaussianModel(a=0.9, q=1.0)
        m.init(Parameters({"a": 0.2, "q": 1e-300, "s0": 0.0, "m0": 3.0}), seed=0)
        assert m.latent == 3.0
        m.run(2)
        assert m.latent == pytest.approx(3.0 * 0.2**2, rel=1e-15)

    def test_zero_process_noise_is_exact_ar(self):
        m = LinearGaussianModel()
        m.init(Parameters({"a": 0.5, "q": 1e-300, "m0": 1.0, "s0": 0.0}), seed=7)
        for t in (1, 2, 3, 4):
            m.run(t)
            assert m.latent == pytest.approx(0.5**t, rel=1e-15)
        assert m.time == 4

    def test_run_validates_target(self):
        m = LinearGaussianModel()
        m.init(Parameters({}), seed=1)
        m.run(3)
        with pytest.raises(ValidationError):
            m.run(2)
        with pytest.raises(ValidationError):
            m.run(3.5)

    def test_run_before_init_rejected(self):
        with pytest.raises(ValidationError):
            LinearGaussianModel().run(1)

    def test_reseed_redirects_stream(self):
        m1 = LinearGaussianModel()
        m1.init(Parameters({}), seed=11)
        m2 = LinearGaussianModel()
        m2.init(Parameters({}), seed=22)
        m2.load(m1.save())
        for m in (m1, m2):
            m.reseed(99)
            m.run(4)
        assert m1.latent == m2.latent

    def test_observe_density(self):
        m = LinearGaussianModel()
        m.init(Parameters({"m0": 0.0, "s0": 0.0, "r": 2.0}), seed=0)
        expected = -0.5 * ((1.0 / 2.0) ** 2 + _LOG_2PI) - math.log(2.0)
        assert m.log_observe({"y": 1.0}) == pytest.approx(expected, rel=1e-15)
        assert math.exp(m.log_observe({"y": 1.0})) == pytest.approx(math.exp(expected), rel=1e-15)

    def test_log_observe_underflows_to_neg_inf(self):
        m = LinearGaussianModel()
        m.init(Parameters({"m0": 0.0, "s0": 0.0}), seed=0)
        assert m.log_observe({"y": 1e200}) == -math.inf

    def test_observe_validation(self):
        m = LinearGaussianModel()
        m.init(Parameters({}), seed=0)
        with pytest.raises(ValidationError):
            m.log_observe({"z": 1.0})
        with pytest.raises(ValidationError):
            m.log_observe({"y": math.inf})

    def test_save_load_roundtrip(self):
        m = LinearGaussianModel()
        m.init(Parameters({"a": 0.8}), seed=5)
        m.run(3)
        assert_state_roundtrip(m, LinearGaussianModel(), [(5, 10), (8, 20)], {"y": 0.4})

    def test_load_on_uninitialized_instance(self):
        m = LinearGaussianModel()
        m.init(Parameters({"a": 0.3}), seed=9)
        m.run(2)
        blank = LinearGaussianModel()
        blank.load(m.save())
        assert blank.latent == m.latent and blank.time == 2
        blank.run(4)
        m.run(4)
        assert blank.latent == m.latent

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            LinearGaussianModel(q=-1.0)
        with pytest.raises(ValidationError):
            LinearGaussianModel(r=0.0)


class TestStatePayload:
    def test_kind_mismatch_rejected(self):
        blob = encode_state_payload("alpha", {"x": 1})
        with pytest.raises(SerializationError):
            decode_state_payload("beta", blob)

    def test_truncated_bytes_rejected(self):
        blob = encode_state_payload("alpha", {"x": 1})
        with pytest.raises(SerializationError):
            decode_state_payload("alpha", blob[: len(blob) // 2])

    def test_foreign_pickle_rejected(self):
        with pytest.raises(SerializationError):
            decode_state_payload("alpha", pickle.dumps([1, 2, 3]))

    def test_cross_model_load_rejected(self):
        lg = LinearGaussianModel()
        lg.init(Parameters({}), seed=0)
        with pytest.raises(SerializationError):
            DelayModel().load(lg.save())


class TestSynthesis:
    def test_deterministic(self):
        theta = Parameters({"a": 0.8})
        s1 = synthesize_linear_gaussian(theta, (1, 2, 3), seed=314)
        s2 = synthesize_linear_gaussian(theta, (1, 2, 3), seed=314)
        assert [d["y"] for _, d in s1] == [d["y"] for _, d in s2]

    def test_seed_changes_output(self):
        theta = Parameters({})
        s1 = synthesize_linear_gaussian(theta, (1, 2), seed=1)
        s2 = synthesize_linear_gaussian(theta, (1, 2), seed=2)
        assert [d["y"] for _, d in s1] != [d["y"] for _, d in s2]

    def test_noise_free_synthesis_tracks_latent(self):
        # with q=r~0 and fixed start the series is the deterministic AR path
        theta = Parameters({"a": 0.5, "q": 1e-300, "r": 1e-300, "m0": 2.0, "s0": 0.0})
        series = synthesize_linear_gaussian(theta, (1, 2, 3), seed=0)
        ys = [d["y"] for _, d in series]
        assert ys == pytest.approx([1.0, 0.5, 0.25], rel=1e-12)


class TestDelayModel:
    def test_contract(self):
        m = DelayModel(delay_ms=0.0)
        m.init(Parameters({}), seed=3)
        m.run(2.5)
        assert m.log_observe({}) == 0.0
        blank = DelayModel(delay_ms=0.0)
        blank.load(m.save())
        blank.run(4.0)
        m.run(4.0)
        assert m.save() == blank.save()

    def test_validation(self):
        with pytest.raises(ValidationError):
            DelayModel(delay_ms=-1.0)
        with pytest.raises(ValidationError):
            DelayModel().run(1.0)

    def test_sleep_roughly_matches_delay(self):
        import time

        m = DelayModel(delay_ms=20.0)
        m.init(Parameters({}), seed=0)
        t0 = time.monotonic()
        m.run(1.0)
        assert time.monotonic() - t0 >= 0.015


def _linear_gaussian():
    model = LinearGaussianModel(a=0.8)
    model.init(Parameters({"q": 0.7}), seed=11)
    model.run(3)
    return model, [4, 6, 7], {"y": 0.4}


def _predator_prey():
    model = PredatorPreyModel(initial_prey=60, initial_predators=8)
    model.init(Parameters({"K_prey": 20.0, "K_pred": 12.0}), seed=11)
    model.run(3)
    return model, [4, 6, 7], {"prey": 50, "predator": 7}


def _delay():
    model = DelayModel(delay_ms=0.0)
    model.init(Parameters({}), seed=11)
    model.run(3.0)
    return model, [4.0, 6.0, 7.0], {}


class TestCopyFrom:
    """A state-only copy followed by reseed must be indistinguishable from
    a save/load replica given the same reseed."""

    MODELS = {"linear_gaussian": _linear_gaussian, "predator_prey": _predator_prey, "delay": _delay}

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_copy_then_reseed_matches_load_then_reseed(self, name):
        build = self.MODELS[name]
        source, schedule, data = build()
        for fresh in (True, False):
            copied = type(source)() if fresh else build()[0]      # blank or pooled instance
            loaded = type(source)()
            copied.copy_from(source)
            loaded.load(source.save())
            copied.reseed(2024)
            loaded.reseed(2024)
            assert copied.save() == loaded.save()
            for target in schedule:
                copied.run(target)
                loaded.run(target)
                assert copied.log_observe(data) == loaded.log_observe(data)
            assert copied.save() == loaded.save()

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_copy_shares_no_mutable_state(self, name):
        source, schedule, data = self.MODELS[name]()
        replica = type(source)()
        replica.copy_from(source)
        replica.reseed(99)
        snapshot = replica.save()
        source.reseed(5)
        for target in schedule:
            source.run(target)
            source.log_observe(data)
        assert replica.save() == snapshot

    def test_default_copy_is_load_of_save(self):
        class Recorder(LinearGaussianModel):
            loads = 0

            def load(self, state):
                Recorder.loads += 1
                super().load(state)

        copy_from = Model.copy_from        # the contract's default, bypassing the override
        source, _, _ = _linear_gaussian()
        replica = Recorder()
        copy_from(replica, source)
        assert Recorder.loads == 1
        assert replica.save() == source.save()
