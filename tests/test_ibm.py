"""Individual-based predator-prey dynamics and its counting observation model."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmcmc.core import Parameters, ValidationError, make_stream
from pmcmc.models import PredatorPreyModel, predator_prey
from pmcmc.models.predator_prey import (
    ADULT,
    BATCH_CENSUS_LIMIT,
    DESK_DEFAULTS,
    DETECTION_EPSILON,
    FULL_SCALE_DEFAULTS,
    JUVENILE,
    PREDATOR,
    PREY,
    IbmParameters,
    IbmState,
    death_probability,
    ibm_advance,
    ibm_advance_many,
    ibm_log_observe,
    ibm_synthesize,
)
from roundtrip import assert_state_roundtrip


def _state(species, stage, mass, step=0):
    return IbmState(np.asarray(species, np.uint8), np.asarray(stage, np.uint8),
                    np.asarray(mass, np.float64), step)


def _reference_step(state, params, rng):
    """The stepper before the one-kernel rewrite, kept verbatim as the
    bit-identity reference for ``ibm_advance``: two compactions a step
    and masks re-derived from the species codes."""
    species = state.species
    # 1. growth, 2. maturation (stage moves juvenile -> adult only)
    mass = state.mass + params.growth_increment
    stage = np.maximum(state.stage, (mass >= params.maturation_mass).astype(np.uint8))

    # 3. predation: the uniform block is always drawn so the stream
    # position depends only on the census size, not on the outcome
    prey_mask = species == PREY
    n_prey = int(prey_mask.sum())
    n_pred = species.size - n_prey
    u = rng.random(n_prey)
    if n_pred > 0 and params.encounter_rate > 0.0 and n_prey > 0:
        consume_p = -math.expm1(math.log1p(-params.encounter_rate) * (n_pred / params.pred_area))
        keep = np.ones(species.size, dtype=bool)
        keep[np.flatnonzero(prey_mask)[u < consume_p]] = False
        species, stage, mass = species[keep], stage[keep], mass[keep]

    # 4. density-dependent death over the survivors
    n_prey = int((species == PREY).sum())
    n_pred = species.size - n_prey
    d_prey = death_probability(n_prey, params.prey_base_death, params.prey_crowd_death,
                               params.K_prey, params.prey_area)
    d_pred = death_probability(n_pred, params.pred_base_death, params.pred_crowd_death,
                               params.K_pred, params.pred_area)
    v = rng.random(species.size)
    keep = v >= np.where(species == PREY, d_prey, d_pred)
    species, stage, mass = species[keep], stage[keep], mass[keep]

    # 5. reproduction: adults only, one Poisson per adult
    adult = stage == ADULT
    n_adult_prey = int((adult & (species == PREY)).sum())
    n_adult_pred = int((adult & (species == PREDATOR)).sum())
    births_prey = int(rng.poisson(params.prey_birth_rate, n_adult_prey).sum())
    births_pred = int(rng.poisson(params.pred_birth_rate, n_adult_pred).sum())
    if births_prey or births_pred:
        species = np.concatenate([
            species,
            np.full(births_prey, PREY, np.uint8),
            np.full(births_pred, PREDATOR, np.uint8),
        ])
        n_births = births_prey + births_pred
        stage = np.concatenate([stage, np.zeros(n_births, np.uint8)])
        mass = np.concatenate([mass, np.full(n_births, params.juvenile_mass)])
    return IbmState(species, stage, mass, state.step + 1)


def _census_bytes(state):
    return (state.species.dtype, state.stage.dtype, state.mass.dtype, state.step,
            state.species.tobytes(), state.stage.tobytes(), state.mass.tobytes())


_CROWDED = replace(DESK_DEFAULTS, prey_base_death=0.3, pred_base_death=0.3,
                   prey_crowd_death=0.9, pred_crowd_death=0.9, K_prey=1.0, K_pred=1.0)


class TestKernelBitIdentity:
    """``PredatorPreyModel.run`` through ``ibm_advance`` against the
    reference stepper: same census bytes, same step and the same stream
    position, read as the next four draws."""

    HORIZON = 30

    @staticmethod
    def _compare(params, start, seed, spacing, horizon):
        model = PredatorPreyModel(params)
        model.init(Parameters({}), seed)
        model._state = start
        reference, rng = start, make_stream(seed)
        held = [(start, _census_bytes(start))]
        for target in range(start.step + spacing, start.step + horizon + 1, spacing):
            model.run(target)
            while reference.step < target:
                reference = _reference_step(reference, params, rng)
            assert _census_bytes(model.state) == _census_bytes(reference)
            held.append((model.state, _census_bytes(model.state)))
        np.testing.assert_array_equal(model._rng.random(4), rng.random(4))
        # the kernel never writes into a state it was given
        for state, snapshot in held:
            assert _census_bytes(state) == snapshot
        return reference

    @pytest.mark.parametrize("spacing", [1, 5])
    @pytest.mark.parametrize("params, n_prey, n_pred", [
        (DESK_DEFAULTS, 100, 10),
        (FULL_SCALE_DEFAULTS, 2000, 30),
        (replace(DESK_DEFAULTS, encounter_rate=0.0), 100, 10),
        (DESK_DEFAULTS, 100, 0),
        (DESK_DEFAULTS, 0, 20),
        (DESK_DEFAULTS, 0, 0),
        (replace(DESK_DEFAULTS, juvenile_mass=1.2), 100, 10),
    ], ids=["desk", "full", "no-encounter", "prey-only", "predators-only", "empty",
            "juvenile-mass-mature"])
    def test_profiles_and_edge_censuses(self, params, n_prey, n_pred, spacing):
        for seed in (3, 41):
            start = IbmState.initial(n_prey, n_pred, params.maturation_mass)
            self._compare(params, start, seed, spacing, self.HORIZON)

    @pytest.mark.parametrize("spacing", [1, 5])
    def test_crowding_drives_extinction(self, spacing):
        for seed in (3, 41):
            start = IbmState.initial(100, 10, _CROWDED.maturation_mass)
            end = self._compare(_CROWDED, start, seed, spacing, self.HORIZON)
            assert len(end) == 0

    @pytest.mark.parametrize("spacing", [1, 5])
    def test_adult_below_maturation_mass(self, spacing):
        start = _state([PREY, PREY, PREDATOR, PREY, PREDATOR], [ADULT, JUVENILE, ADULT, ADULT, JUVENILE],
                       [0.3, 0.9, 0.1, 1.5, 0.2], step=3)
        for seed in (3, 41):
            self._compare(DESK_DEFAULTS, start, seed, spacing, self.HORIZON)

    def test_no_step_returns_the_state(self):
        state = IbmState.initial(10, 2, mass=1.0)
        rng = make_stream(0)
        assert ibm_advance(state, 0, DESK_DEFAULTS, rng) is state
        with pytest.raises(ValidationError):
            ibm_advance(ibm_advance(state, 1, DESK_DEFAULTS, rng), 0, DESK_DEFAULTS, rng)


@st.composite
def _censuses(draw):
    """A census of 0-400 individuals with random species, stage and mass,
    or an empty, prey-only, predator-only or all-juvenile one."""
    kind = draw(st.sampled_from(["mixed", "empty", "prey-only", "predators-only", "all-juvenile"]))
    n = 0 if kind == "empty" else draw(st.integers(0, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    species = rng.integers(0, 2, n)
    if kind in ("prey-only", "predators-only"):
        species[:] = PREY if kind == "prey-only" else PREDATOR
    stage = np.zeros(n, int) if kind == "all-juvenile" else rng.integers(0, 2, n)
    return _state(species, stage, rng.uniform(0.0, 2.0, n), step=3)


def _batch(params, starts, seed):
    """Initialized models holding the given censuses, on streams seed, seed+1, ..."""
    models = []
    for i, start in enumerate(starts):
        model = PredatorPreyModel(params)
        model.init(Parameters({}), seed + i)
        model._state = start
        models.append(model)
    return models


class TestRunMany:
    """``PredatorPreyModel.run_many`` against the reference stepper, and
    the rules of the batched path."""

    @given(starts=st.lists(_censuses(), min_size=1, max_size=40),
           params=st.sampled_from([DESK_DEFAULTS, FULL_SCALE_DEFAULTS]),
           steps=st.integers(1, 15), seed=st.integers(0, 2**63))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_step(self, starts, params, steps, seed):
        snapshots = [_census_bytes(start) for start in starts]
        models = _batch(params, starts, seed)
        PredatorPreyModel.run_many(models, 3 + steps)
        # the kernel itself, for batches below the run_many minimum too
        streams = [make_stream(seed + i) for i in range(len(starts))]
        direct = ibm_advance_many(starts, 3 + steps, params, streams)
        for i, start in enumerate(starts):
            reference, rng = start, make_stream(seed + i)
            for _ in range(steps):
                reference = _reference_step(reference, params, rng)
            expected_draws = rng.random(4)
            assert _census_bytes(models[i].state) == _census_bytes(reference)
            assert _census_bytes(direct[i]) == _census_bytes(reference)
            np.testing.assert_array_equal(models[i]._rng.random(4), expected_draws)
            np.testing.assert_array_equal(streams[i].random(4), expected_draws)
        assert [_census_bytes(start) for start in starts] == snapshots

    def test_mixed_batch_matches_run(self, monkeypatch):
        """Groups of rates and steps, a census above the size limit and a
        group below the batch minimum in one call: each instance saves
        what ``run`` leaves, and only the three full groups are batched."""
        big = IbmState.initial(2000, 30, 1.0)
        assert len(big) > BATCH_CENSUS_LIMIT
        tuned = Parameters({"K_prey": 40.0})
        setups = ([(DESK_DEFAULTS, Parameters({}), IbmState.initial(100, 10, 1.0), 0)] * 4
                  + [(DESK_DEFAULTS, tuned, IbmState.initial(40, 5, 1.0), 0)] * 5
                  + [(DESK_DEFAULTS, tuned, IbmState.initial(0, 0, 1.0), 2)] * 4
                  + [(FULL_SCALE_DEFAULTS, Parameters({}), big, 0)]
                  + [(DESK_DEFAULTS, Parameters({}), IbmState.initial(60, 6, 1.0), 3)] * 2)

        def build():
            models = []
            for i, (defaults, theta, start, at) in enumerate(setups):
                model = PredatorPreyModel(defaults)
                model.init(theta, 7 + i)
                model._state = start
                model.run(at)
                models.append(model)
            return models

        batched, alone = build(), build()
        kernel, sizes = predator_prey.ibm_advance_many, []

        def recorded(states, target, params, rngs):
            sizes.append(len(states))
            return kernel(states, target, params, rngs)

        monkeypatch.setattr(predator_prey, "ibm_advance_many", recorded)
        PredatorPreyModel.run_many(batched, 9)
        assert sizes == [4, 5, 4]
        for model in alone:
            model.run(9)
        assert [m.save() for m in batched] == [m.save() for m in alone]

    def test_hundreds_of_censuses(self):
        """Census indices well past the range of the uint8 species codes."""
        starts = [IbmState.initial(n % 7, n % 3, 1.0) for n in range(300)]
        batched = ibm_advance_many(starts, 4, DESK_DEFAULTS, [make_stream(s) for s in range(300)])
        for s, (start, state) in enumerate(zip(starts, batched)):
            rng = make_stream(s)
            assert _census_bytes(state) == _census_bytes(ibm_advance(start, 4, DESK_DEFAULTS, rng))

    def test_own_run_is_never_bypassed(self):
        class Counted(PredatorPreyModel):
            calls = 0

            def run(self, target_time):
                Counted.calls += 1
                super().run(target_time)

        models = _batch(DESK_DEFAULTS, [IbmState.initial(100, 10, 1.0)] * 3, 5)
        counted = Counted()
        counted.init(Parameters({}), 5)
        patched = models[1]
        patched.run = lambda target_time: None        # an instance's own run
        PredatorPreyModel.run_many([models[0], counted, patched, models[2]], 4)
        assert Counted.calls == 1
        assert counted.state.step == 4 and models[0].state.step == 4
        assert patched.state.step == 0
        reference = _batch(DESK_DEFAULTS, [IbmState.initial(100, 10, 1.0)], 5)[0]
        reference.run(4)
        assert counted.save() == reference.save()

    def test_run_validation_applies(self):
        models = _batch(DESK_DEFAULTS, [IbmState.initial(10, 2, 1.0)] * 2, 0)
        PredatorPreyModel.run_many(models, 3)
        with pytest.raises(ValidationError):
            PredatorPreyModel.run_many(models, 2)
        with pytest.raises(ValidationError):
            PredatorPreyModel.run_many(models, 3.5)
        with pytest.raises(ValidationError):
            PredatorPreyModel.run_many([PredatorPreyModel()], 1)
        PredatorPreyModel.run_many([], 1)

    def test_kernel_edges(self):
        rngs = [make_stream(0), make_stream(1)]
        states = [IbmState.initial(10, 2, 1.0), IbmState.initial(3, 0, 1.0)]
        assert ibm_advance_many([], 4, DESK_DEFAULTS, []) == []
        same = ibm_advance_many(states, 0, DESK_DEFAULTS, rngs)
        assert all(a is b for a, b in zip(same, states))
        with pytest.raises(ValidationError):
            ibm_advance_many(states, 2, DESK_DEFAULTS, rngs[:1])
        with pytest.raises(ValidationError):
            ibm_advance_many([states[0], ibm_advance(states[1], 1, DESK_DEFAULTS, rngs[1])], 2,
                             DESK_DEFAULTS, rngs)
        with pytest.raises(ValidationError):
            ibm_advance_many(ibm_advance_many(states, 2, DESK_DEFAULTS, rngs), 1, DESK_DEFAULTS, rngs)


class TestStepReplay:
    def test_frozen_one_step_census(self):
        """One step from 100 adult prey and 10 adult predators, stream
        Philox(1234), default rates. The full census was replayed by hand
        against the documented draw order (growth, maturation, predation
        uniforms, mortality uniforms, one Poisson litter per adult):
        5 prey eaten, mortality leaves 88 prey and 9 predators, then
        26 prey and 1 predator juveniles are born."""
        state = ibm_advance(IbmState.initial(100, 10, mass=1.0), 1, DESK_DEFAULTS, make_stream(1234))
        assert state.step == 1
        assert np.count_nonzero(state.species == PREY) == 114
        assert np.count_nonzero(state.species == PREDATOR) == 10
        assert int((state.stage == JUVENILE).sum()) == 27
        assert int((state.stage == ADULT).sum()) == 97
        detectable = state.species[state.mass >= DESK_DEFAULTS.detection_mass]
        assert np.count_nonzero(detectable == PREY) == 88
        assert np.count_nonzero(detectable == PREDATOR) == 9

    def test_replay_is_deterministic(self):
        a = ibm_advance(IbmState.initial(100, 10, mass=1.0), 1, DESK_DEFAULTS, make_stream(1234))
        b = ibm_advance(IbmState.initial(100, 10, mass=1.0), 1, DESK_DEFAULTS, make_stream(1234))
        np.testing.assert_array_equal(a.species, b.species)
        np.testing.assert_array_equal(a.stage, b.stage)
        np.testing.assert_array_equal(a.mass, b.mass)

    def test_extinction_is_absorbing(self):
        rng = make_stream(7)
        before = rng.bit_generator.state
        after_state = ibm_advance(_state([], [], []), 1, DESK_DEFAULTS, rng)
        assert len(after_state) == 0 and after_state.step == 1
        after = rng.bit_generator.state
        np.testing.assert_array_equal(before["state"]["counter"], after["state"]["counter"])
        assert before["buffer_pos"] == after["buffer_pos"]

    def test_predators_alone_never_eat(self):
        # no prey: the predation stage consumes nothing and kills nobody
        quiet = IbmParameters(prey_base_death=0.0, pred_base_death=0.0,
                              prey_crowd_death=0.0, pred_crowd_death=0.0,
                              prey_birth_rate=0.0, pred_birth_rate=0.0)
        state = ibm_advance(IbmState.initial(0, 5, mass=1.0), 1, quiet, make_stream(3))
        assert np.count_nonzero(state.species == PREDATOR) == 5
        assert np.count_nonzero(state.species == PREY) == 0

    def test_deterministic_growth_and_maturation(self):
        """With every stochastic rate at zero a juvenile just grows by the
        increment each step and turns adult on reaching the threshold."""
        quiet = IbmParameters(prey_base_death=0.0, pred_base_death=0.0,
                              prey_crowd_death=0.0, pred_crowd_death=0.0,
                              prey_birth_rate=0.0, pred_birth_rate=0.0,
                              encounter_rate=0.0)
        state = _state([PREY], [JUVENILE], [0.5])
        rng = make_stream(0)
        expected = [(0.7, JUVENILE), (0.9, JUVENILE), (1.1, ADULT), (1.3, ADULT)]
        for mass, stage in expected:
            state = ibm_advance(state, state.step + 1, quiet, rng)
            assert state.mass[0] == pytest.approx(mass, rel=1e-15)
            assert state.stage[0] == stage
        # detectable from mass 0.9 on, adult only from 1.1: the two
        # thresholds are distinct
        assert 0.9 >= quiet.detection_mass

    def test_adults_never_revert(self):
        quiet = IbmParameters(prey_base_death=0.0, pred_base_death=0.0,
                              prey_crowd_death=0.0, pred_crowd_death=0.0,
                              prey_birth_rate=0.0, pred_birth_rate=0.0,
                              encounter_rate=0.0)
        state = ibm_advance(_state([PREY], [ADULT], [1.5]), 1, quiet, make_stream(0))
        assert state.stage[0] == ADULT


class TestDeathProbability:
    def test_zero_count_gives_base_rate(self):
        assert death_probability(0, 0.02, 0.2, 25.0, 4.0) == 0.02

    def test_half_saturation_point(self):
        # density equal to the constant puts the crowding term at half strength
        assert death_probability(100, 0.02, 0.2, 25.0, 4.0) == pytest.approx(0.12, rel=1e-15)

    def test_monotone_in_count(self):
        probs = [death_probability(n, 0.02, 0.2, 25.0, 4.0) for n in range(0, 2000, 50)]
        assert all(b >= a for a, b in zip(probs, probs[1:]))

    def test_saturates_below_base_plus_crowd(self):
        assert death_probability(10**9, 0.02, 0.2, 25.0, 4.0) < 0.22

    def test_clipped_to_unit_interval(self):
        assert death_probability(10**9, 0.9, 0.5, 1.0, 1.0) == 1.0
        assert death_probability(0, 0.0, 0.5, 1.0, 1.0) == 0.0

    def test_array_counts_match_scalar_calls(self):
        counts = np.array([0, 1, 7, 100, 2000, 10**9])
        for rates in ((0.02, 0.2, 25.0, 4.0), (0.9, 0.5, 1.0, 1.0), (0.0, 0.5, 1.0, 1.0)):
            assert death_probability(counts, *rates).tolist() == [
                death_probability(n, *rates) for n in counts.tolist()]

    def test_area_rescales_density(self):
        # same density, same probability: count and area scaled together
        a = death_probability(100, 0.02, 0.2, 25.0, 4.0)
        b = death_probability(2000, 0.02, 0.2, 25.0, 80.0)
        assert a == pytest.approx(b, rel=1e-15)


class TestObservationDensity:
    def test_frozen_poisson_value(self):
        """Counting density of observing exactly the detectable census:
        Poisson(10; 10+eps) * Poisson(0; eps), frozen from a direct
        evaluation of the Poisson mass function."""
        state = IbmState.initial(10, 0, mass=1.0)
        log_value = ibm_log_observe(state, {"prey": 10, "predator": 0}, DESK_DEFAULTS)
        assert math.exp(log_value) == pytest.approx(0.12510991061115367, rel=1e-13)
        assert log_value == pytest.approx(-2.0785626431351103, rel=1e-13)

    def test_empty_census_zero_counts(self):
        # each species contributes exp(-eps); the frozen factor is
        # Poisson(0; 1e-6) = 0.99999900000050002
        state = IbmState.initial(0, 0, mass=1.0)
        assert ibm_log_observe(state, {"prey": 0, "predator": 0}, DESK_DEFAULTS) == -2.0 * DETECTION_EPSILON
        assert math.exp(ibm_log_observe(state, {"prey": 0, "predator": 0}, DESK_DEFAULTS)) == pytest.approx(
            0.99999900000050002**2, rel=1e-15)

    def test_positive_count_on_empty_census_is_tiny_not_zero(self):
        state = IbmState.initial(0, 0, mass=1.0)
        log_value = ibm_log_observe(state, {"prey": 3, "predator": 0}, DESK_DEFAULTS)
        assert -math.inf < log_value < -40.0

    def test_juveniles_do_not_count(self):
        visible = _state([PREY, PREY], [ADULT, JUVENILE], [1.0, 0.5])
        lam = 1.0 + DETECTION_EPSILON
        expected = (math.log(lam) - lam) + (0.0 - DETECTION_EPSILON)
        assert ibm_log_observe(visible, {"prey": 1, "predator": 0}, DESK_DEFAULTS) == pytest.approx(
            expected, rel=1e-12)

    def test_count_validation(self):
        state = IbmState.initial(5, 5, mass=1.0)
        for bad in ({"prey": -1, "predator": 0}, {"prey": 0.5, "predator": 0},
                    {"prey": True, "predator": 0}, {"predator": 0}):
            with pytest.raises(ValidationError):
                ibm_log_observe(state, bad, DESK_DEFAULTS)


class TestParameterValidation:
    def test_defaults_valid(self):
        assert DESK_DEFAULTS.K_prey == 25.0
        assert FULL_SCALE_DEFAULTS.prey_area > DESK_DEFAULTS.prey_area

    def test_rejects_bad_rates(self):
        with pytest.raises(ValidationError):
            IbmParameters(K_prey=0.0)
        with pytest.raises(ValidationError):
            IbmParameters(prey_birth_rate=-0.1)
        with pytest.raises(ValidationError):
            IbmParameters(encounter_rate=1.0)
        with pytest.raises(ValidationError):
            IbmParameters(K_pred=math.nan)

    def test_with_calibrated_overlays_only_known_constants(self):
        theta = Parameters({"K_prey": 30.0, "a": 0.9})
        tuned = DESK_DEFAULTS.with_calibrated(theta)
        assert tuned.K_prey == 30.0
        assert tuned.K_pred == DESK_DEFAULTS.K_pred
        assert DESK_DEFAULTS.with_calibrated(Parameters({"a": 0.9})) is DESK_DEFAULTS

    def test_initial_state_validation(self):
        with pytest.raises(ValidationError):
            IbmState.initial(-1, 0, mass=1.0)
        with pytest.raises(ValidationError):
            _state([PREY], [ADULT, ADULT], [1.0])


class TestSynthesis:
    def test_deterministic_and_integer_valued(self):
        s1 = ibm_synthesize(DESK_DEFAULTS, (5, 10, 15), 42, 100, 10)
        s2 = ibm_synthesize(DESK_DEFAULTS, (5, 10, 15), 42, 100, 10)
        assert [d for _, d in s1] == [d for _, d in s2]
        for _, record in s1:
            assert isinstance(record["prey"], int) and record["prey"] >= 0
            assert isinstance(record["predator"], int) and record["predator"] >= 0

    def test_seed_changes_draws(self):
        s1 = ibm_synthesize(DESK_DEFAULTS, (5, 10), 1, 100, 10)
        s2 = ibm_synthesize(DESK_DEFAULTS, (5, 10), 2, 100, 10)
        assert [d for _, d in s1] != [d for _, d in s2]

    def test_validation(self):
        with pytest.raises(ValidationError):
            ibm_synthesize(DESK_DEFAULTS, (), 0, 100, 10)
        with pytest.raises(ValidationError):
            ibm_synthesize(DESK_DEFAULTS, (1.5,), 0, 100, 10)

    def test_frozen_records(self):
        """Records frozen from the stepper before the one-kernel rewrite."""
        times = (5, 10, 20, 35)
        desk = ibm_synthesize(DESK_DEFAULTS, times, 42, 100, 10)
        assert [d for _, d in desk] == [
            {"prey": 102, "predator": 2}, {"prey": 99, "predator": 6},
            {"prey": 124, "predator": 6}, {"prey": 145, "predator": 9}]
        full = ibm_synthesize(FULL_SCALE_DEFAULTS, times, 42, 2000, 30)
        assert [d for _, d in full] == [
            {"prey": 1596, "predator": 25}, {"prey": 1802, "predator": 38},
            {"prey": 1929, "predator": 33}, {"prey": 1953, "predator": 25}]

    def test_full_scale_equilibrium_band(self):
        """The large habitat holds a quasi-equilibrium near 2000 detectable
        prey and 30 predators over a long horizon."""
        times = tuple(1901 + 37 * k for k in range(20))
        series = ibm_synthesize(FULL_SCALE_DEFAULTS, times, 2026, 2000, 30)
        prey = [d["prey"] for _, d in series]
        pred = [d["predator"] for _, d in series]
        assert 1200 <= np.mean(prey) <= 3200
        assert 15 <= np.mean(pred) <= 50
        assert min(pred) > 0


class TestPredatorPreyModel:
    def test_roundtrip_contract(self):
        model = PredatorPreyModel()
        model.init(Parameters({"K_prey": 25.0, "K_pred": 15.0}), seed=5)
        model.run(3)
        assert_state_roundtrip(model, PredatorPreyModel(), [(5, 11), (8, 22)], {"prey": 90, "predator": 9})

    def test_calibrated_overlay_reaches_dynamics(self):
        model = PredatorPreyModel()
        model.init(Parameters({"K_prey": 40.0}), seed=0)
        assert model.params.K_prey == 40.0
        assert model.params.K_pred == DESK_DEFAULTS.K_pred

    def test_reseed_aligns_streams(self):
        m1 = PredatorPreyModel()
        m1.init(Parameters({}), seed=1)
        m2 = PredatorPreyModel()
        m2.init(Parameters({}), seed=2)
        m2.load(m1.save())
        for m in (m1, m2):
            m.reseed(77)
            m.run(4)
        assert m1.save() == m2.save()

    def test_run_validates_target(self):
        model = PredatorPreyModel()
        model.init(Parameters({}), seed=0)
        model.run(2)
        with pytest.raises(ValidationError):
            model.run(1)
        with pytest.raises(ValidationError):
            model.run(2.5)
        with pytest.raises(ValidationError):
            PredatorPreyModel().run(1)

    def test_observe_requires_init(self):
        with pytest.raises(ValidationError):
            PredatorPreyModel().log_observe({"prey": 0, "predator": 0})
