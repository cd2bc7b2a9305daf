"""Replica-count resampling and the marginal estimator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmcmc.core import ValidationError
from pmcmc.executor import FilterDiagnostics
from pmcmc.filtering import estimate_marginal_from_log, resample_multinomial


class TestMultinomialResampling:
    def test_frozen_replays(self):
        """Counts frozen by replaying the documented procedure (sorted
        uniforms from the keyed stream through the inverse CDF) with an
        independent implementation."""
        assert resample_multinomial([0.25, 0.25, 0.25, 0.25], 4, 42).tolist() == [1, 1, 0, 2]
        assert resample_multinomial([0.1, 0.2, 0.3, 0.4], 10, 7).tolist() == [2, 2, 2, 4]
        assert resample_multinomial([1.0, 0.0, 0.0], 5, 123).tolist() == [5, 0, 0]

    def test_counts_sum_to_p(self):
        for seed in range(20):
            counts = resample_multinomial([0.1, 0.2, 0.3, 0.4], 64, seed)
            assert counts.sum() == 64 and np.all(counts >= 0)

    def test_deterministic_given_seed(self):
        a = resample_multinomial([0.3, 0.7], 16, 9)
        b = resample_multinomial([0.3, 0.7], 16, 9)
        assert a.tolist() == b.tolist()

    def test_zero_probability_lineage_never_drawn(self):
        for seed in range(50):
            counts = resample_multinomial([0.5, 0.0, 0.5], 32, seed)
            assert counts[1] == 0

    def test_point_mass(self):
        assert resample_multinomial([0.0, 1.0], 8, 3).tolist() == [0, 8]

    def test_validation(self):
        with pytest.raises(ValidationError):
            resample_multinomial([0.5, 0.6], 4, 0)       # does not sum to 1
        with pytest.raises(ValidationError):
            resample_multinomial([0.5, 0.5], 0, 0)
        with pytest.raises(ValidationError):
            resample_multinomial([1.5, -0.5], 4, 0)
        with pytest.raises(ValidationError):
            resample_multinomial([], 4, 0)

    def test_long_run_frequencies(self):
        probs = [0.1, 0.2, 0.3, 0.4]
        totals = np.zeros(4)
        for seed in range(400):
            totals += resample_multinomial(probs, 25, seed)
        freq = totals / totals.sum()
        assert freq == pytest.approx(probs, abs=0.02)


def _diagnostics(*resample_counts):
    return FilterDiagnostics(1, 0.0, resample_counts, (), (), ())


class TestRedrawRate:
    """``FilterDiagnostics.redraw_rates``: per resampling event, the
    fraction of particles drawn at least once."""

    def test_all_survive(self):
        assert _diagnostics((1, 1, 1, 1)).redraw_rates == (1.0,)

    def test_half_survive(self):
        assert _diagnostics((2, 2, 2, 2, 0, 0, 0, 0)).redraw_rates == (0.5,)

    def test_single_survivor(self):
        assert _diagnostics((8, 0, 0, 0, 0, 0, 0, 0), (1, 1)).redraw_rates == (0.125, 1.0)


def _log(rows):
    with np.errstate(divide="ignore"):
        return np.log(np.asarray(rows, dtype=np.float64))


class TestMarginalEstimate:
    def test_single_event_uniform(self):
        est = estimate_marginal_from_log(_log([[0.5, 0.5]]))
        assert est.log_value == pytest.approx(math.log(0.5), rel=1e-15)
        assert est.log_std == 0.0
        assert est.per_observation_means[0] == pytest.approx(0.5, rel=1e-15)

    def test_two_event_product(self):
        est = estimate_marginal_from_log(_log([[0.2, 0.4], [0.1, 0.3]]))
        assert est.log_value == pytest.approx(math.log(0.3 * 0.2), rel=1e-12)
        assert est.per_observation_means == pytest.approx((0.3, 0.2), rel=1e-15)

    def test_delta_method_log_std(self):
        # sample variance with one delta dof over p * mean^2, summed per event
        rows = np.array([[0.2, 0.4], [0.1, 0.3]])
        expected = 0.0
        for row in rows:
            expected += row.var(ddof=1) / (row.size * row.mean() ** 2)
        est = estimate_marginal_from_log(_log(rows))
        assert est.log_std == pytest.approx(math.sqrt(expected), rel=1e-12)

    def test_single_particle_exact(self):
        est = estimate_marginal_from_log(_log([[0.7], [0.2]]))
        assert est.log_value == pytest.approx(math.log(0.14), rel=1e-12)
        assert est.log_std == 0.0

    def test_log_entry_point_matches_linear(self):
        # the per-event means and variances are reported in linear space
        rows = np.array([[0.2, 0.4], [0.1, 0.3]])
        est = estimate_marginal_from_log(np.log(rows))
        assert est.log_value == pytest.approx(math.log(np.prod(rows.mean(axis=1))), rel=1e-14)
        assert est.per_observation_means == pytest.approx(tuple(rows.mean(axis=1)), rel=1e-14)
        assert est.per_observation_variances == pytest.approx(tuple(rows.var(axis=1, ddof=1)), rel=1e-12)

    def test_shift_robustness_under_extreme_magnitudes(self):
        # the same relative weights shifted by 1000 nats per event, either
        # way, must move log_value by exactly the shift and keep log_std
        # unchanged; the linear diagnostics saturate instead of raising
        base = np.log(np.array([[0.2, 0.4], [0.1, 0.3]]))
        est0 = estimate_marginal_from_log(base)
        for offset, linear in ((-1000.0, 0.0), (1000.0, math.inf)):
            est1 = estimate_marginal_from_log(base + offset)
            assert est1.log_value == pytest.approx(est0.log_value + 2 * offset, rel=1e-12)
            assert est1.log_std == pytest.approx(est0.log_std, rel=1e-9)
            assert est1.degenerate_observations == ()
            assert est1.per_observation_means == (linear, linear)
            assert est1.per_observation_variances == (linear, linear)

    def test_linear_diagnostics_saturate_only_past_float_range(self):
        # exp(2 * 360) is past float range but this event's variance,
        # e^720 (e^d - 1)^2 / 2, is not; a zero variance stays 0 however
        # large the shift
        d = 2.0 ** -20
        est = estimate_marginal_from_log([[400.0, 401.0], [360.0, 360.0 + d], [800.0, 800.0]])
        assert est.per_observation_means[0] == pytest.approx(math.exp(400.0) * (1.0 + math.e) / 2, rel=1e-12)
        assert est.per_observation_variances[0] == math.inf
        log_variance = 720.0 + 2.0 * math.log(math.expm1(d)) - math.log(2.0)
        assert est.per_observation_variances[1] == pytest.approx(math.exp(log_variance), rel=1e-8)
        assert est.per_observation_means[2] == math.inf
        assert est.per_observation_variances[2] == 0.0

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(5)
        rows = rng.random((4, 16))
        est0 = estimate_marginal_from_log(_log(rows))
        est1 = estimate_marginal_from_log(_log(rows[:, rng.permutation(16)]))
        assert est1.log_value == pytest.approx(est0.log_value, rel=1e-13)
        assert est1.log_std == pytest.approx(est0.log_std, rel=1e-13)

    def test_zero_variance_rows(self):
        est = estimate_marginal_from_log(_log(np.full((3, 8), 0.25)))
        assert est.log_value == pytest.approx(3 * math.log(0.25), rel=1e-14)
        assert est.log_std == 0.0

    def test_degenerate_row_flagged(self):
        est = estimate_marginal_from_log(_log([[0.5, 0.5], [0.0, 0.0], [0.1, 0.1], [0.0, 0.0]]))
        assert est.degenerate_observations == (1, 3)
        assert est.log_value == -math.inf
        assert math.isnan(est.log_std)
        assert est.per_observation_means[1] == 0.0

    def test_neg_inf_entries_allowed_when_row_survives(self):
        est = estimate_marginal_from_log([[math.log(0.5), -math.inf]])
        assert est.log_value == pytest.approx(math.log(0.25), rel=1e-12)
        assert est.degenerate_observations == ()

    def test_invalid_entries_rejected(self):
        with pytest.raises(ValidationError):
            estimate_marginal_from_log([[0.0, math.nan]])
        with pytest.raises(ValidationError):
            estimate_marginal_from_log([[0.0, math.inf]])
        with pytest.raises(ValidationError):
            estimate_marginal_from_log([])

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=12),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=100, deadline=None)
    def test_log_value_matches_direct_product(self, n, p, seed):
        rows = np.random.default_rng(seed).random((n, p)) + 1e-3
        est = estimate_marginal_from_log(_log(rows))
        assert est.log_value == pytest.approx(float(np.sum(np.log(rows.mean(axis=1)))), rel=1e-10)
