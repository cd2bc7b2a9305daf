"""Linear-Gaussian model, exact marginal recursion, model state contract."""

import math
import pickle

import numpy as np
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
    PredatorPreyModel,
    get_model_entry,
    kalman_log_marginal,
    predator_prey,
    synthesize_linear_gaussian,
)
from pmcmc import models
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

    def test_batched_replicas_share_nothing(self, monkeypatch):
        """Replicas hold their source's fields by reference; advancing a
        source and three replicas through the batched kernel must leave
        each as its own ``run`` would, and a replica left behind unchanged."""
        batched = []
        kernel = predator_prey.ibm_advance_many
        monkeypatch.setattr(predator_prey, "ibm_advance_many",
                            lambda states, *rest: batched.append(len(states)) or kernel(states, *rest))
        source, _, data = _predator_prey()
        replicas = [PredatorPreyModel(initial_prey=60, initial_predators=8) for _ in range(4)]
        for seed, replica in enumerate(replicas, start=40):
            replica.copy_from(source)
            replica.reseed(seed)
        source.reseed(39)
        group, idle = [source, *replicas[:3]], replicas[3]
        idle_bytes = idle.save()
        alone = []
        for model in group:
            own = PredatorPreyModel()
            own.load(model.save())
            own.run(9)
            alone.append(own.save())
        PredatorPreyModel.run_many(group, 9)
        assert batched == [4]
        assert [model.save() for model in group] == alone
        assert len({model.log_observe(data) for model in group}) > 1
        assert idle.save() == idle_bytes


def _same(a, b) -> bool:
    """Deep equality over model attributes: arrays by dtype and value,
    generators by bit-generator state, slotted objects slot by slot."""
    if isinstance(a, np.random.Generator):
        a, b = a.bit_generator.state, b.bit_generator.state
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    if hasattr(type(a), "__slots__"):
        return type(a) is type(b) and all(_same(getattr(a, n), getattr(b, n)) for n in type(a).__slots__)
    return type(a) is type(b) and a == b


class TestStateContract:
    @pytest.mark.parametrize("name", sorted(models._REGISTRY))
    def test_load_restores_every_attribute(self, name):
        """``_FIELDS`` and the stream are the whole state: an attribute left
        out of ``_FIELDS`` makes the loaded instance differ here."""
        factory = get_model_entry(name).factory
        source = factory({})
        source.init(Parameters({}), 17)
        source.run(3)
        source.run(5)
        loaded = factory({})
        loaded.load(source.save())
        for attr in sorted(vars(source).keys() | vars(loaded).keys()):
            assert _same(getattr(source, attr), getattr(loaded, attr)), attr

    @pytest.mark.parametrize("name", sorted(models._REGISTRY))
    def test_init_on_a_used_instance_matches_a_fresh_one(self, name):
        """A session's workers keep their instances from pass to pass, so
        ``init`` must leave nothing of what an instance did before: a
        pass's worth of run, copy_from and reseed on other parameters."""
        factory = get_model_entry(name).factory
        other = {"linear_gaussian": {"a": 0.2, "m0": 3.0}, "predator_prey": {"K_prey": 40.0},
                 "delay": {}}[name]
        used, source = factory({}), factory({})
        used.init(Parameters(other), 3)
        source.init(Parameters(other), 4)
        used.run(2)
        source.run(5)
        used.copy_from(source)
        used.reseed(9)
        used.run(7)
        fresh = factory({})
        for model in (used, fresh):
            model.init(Parameters({}), 17)
        assert used.save() == fresh.save()
        for target in (1, 3):
            used.run(target)
            fresh.run(target)
            assert used.save() == fresh.save()
        if fresh._rng is not None:
            assert used._rng.random(4).tolist() == fresh._rng.random(4).tolist()

    def test_load_rejects_other_fields(self):
        model = LinearGaussianModel()
        for payload in ({"_cfg": {}, "_time": 0, "_rng": None},
                        {"_cfg": {}, "_time": 0, "_x": 0.0, "_y": 1.0, "_rng": None},
                        [1, 2]):
            with pytest.raises(SerializationError, match="fields"):
                model.load(encode_state_payload("linear_gaussian", payload))
