"""Closed-form predictions: sync formulas, bounds, sync-time calculators."""
import math

import numpy as np
import pytest

from cmlsync.errors import DomainError, HypothesisViolationError
from cmlsync.lattice import LocalMap
from cmlsync.theory import (
    SyncIterations,
    ei_sync_flat_asymptotic,
    ei_sync_formula,
    ei_upper_bound_q0,
    first_sync_probability,
    iterations_for_sync,
    sync_probability_by,
)


@pytest.fixture(scope="module")
def tripling():
    return LocalMap.affine_mod1(3)


class TestSyncFormula:
    def test_flat_trace_closed_form(self, tripling):
        # With |T'| = 3 everywhere the integral collapses:
        # theta_n = 1 - (3(1-gamma))^{1-n}.
        for n in (2, 3, 5):
            for gamma in (0.0, 0.1, 0.3, 0.5):
                got = ei_sync_formula(n, gamma, tripling)
                expected = 1.0 - (3.0 * (1.0 - gamma)) ** (1 - n)
                assert got == pytest.approx(expected, abs=1e-12)

    def test_trace_independent_for_constant_slope(self, tripling):
        # Any positive trace gives the same answer when |T'| is constant.
        flat = ei_sync_formula(3, 0.2, tripling)
        wavy = ei_sync_formula(3, 0.2, tripling, lambda x: 1.0 + 0.5 * np.sin(7 * x))
        assert wavy == pytest.approx(flat, abs=1e-12)

    def test_known_value(self, tripling):
        # theta_3 at gamma = 0.1: 1 - (2.7)^{-2} = 0.86282578875...
        got = ei_sync_formula(3, 0.1, tripling)
        assert got == pytest.approx(0.8628257887517147, abs=1e-10)

    def test_hypothesis_violation(self, tripling):
        with pytest.raises(HypothesisViolationError):
            ei_sync_formula(2, 0.7, tripling)
        with pytest.raises(HypothesisViolationError):
            ei_sync_flat_asymptotic(2, 0.67, 1 / 3)

    def test_hypothesis_reads_lambda_from_map(self):
        # the skew map of test_ulam: min |T'| = 2.5, so lambda = 0.4
        skew = LocalMap((0.0, 0.35, 1.0), (3.0, -2.5), (0.2, 0.9))
        assert skew.expansion_bound == 0.4
        assert 0.0 < ei_sync_formula(2, 0.59, skew) < 1.0
        with pytest.raises(HypothesisViolationError):
            ei_sync_formula(2, 0.61, skew)

    def test_negative_trace_rejected(self, tripling):
        with pytest.raises(DomainError):
            ei_sync_formula(2, 0.1, tripling, lambda x: -x)

    def test_asymptotic_matches_flat_for_tripling(self, tripling):
        # For the tripling map lam = 1/3 is exact, so the asymptotic form
        # coincides with the flat-trace formula at every n.
        for n in (2, 4, 8):
            flat = ei_sync_formula(n, 0.25, tripling)
            assert ei_sync_flat_asymptotic(n, 0.25, 1 / 3) == pytest.approx(flat, abs=1e-12)


class TestUpperBound:
    def test_flat_density_bound(self):
        bound, meaningful = ei_upper_bound_q0(3, 0.1, 1 / 3, sup_h=1.0, inf_h=1.0)
        assert bound == pytest.approx((1 / 2.7) ** 2, abs=1e-12)
        assert meaningful

    def test_not_meaningful_when_large(self):
        bound, meaningful = ei_upper_bound_q0(2, 0.1, 1 / 3, sup_h=10.0, inf_h=1.0)
        assert bound > 1.0
        assert not meaningful

    def test_rejects_bad_inf(self):
        with pytest.raises(DomainError):
            ei_upper_bound_q0(2, 0.1, 1 / 3, sup_h=1.0, inf_h=0.0)


class TestProbabilities:
    def test_complement(self):
        p = first_sync_probability(1000.0, 0.05, 3, 0.8)
        assert sync_probability_by(1000.0, 0.05, 3, 0.8) == pytest.approx(1.0 - p)

    def test_exponential_form(self):
        assert first_sync_probability(100.0, 0.1, 2, 0.5) == pytest.approx(
            math.exp(-0.5 * 100.0 * 0.1), abs=1e-15
        )

    def test_input_validation(self):
        with pytest.raises(DomainError):
            first_sync_probability(-1.0, 0.1, 2, 0.5)
        with pytest.raises(DomainError):
            first_sync_probability(1.0, 1.5, 2, 0.5)
        with pytest.raises(DomainError):
            first_sync_probability(1.0, 0.1, 1, 0.5)
        with pytest.raises(DomainError):
            first_sync_probability(1.0, 0.1, 2, 1.5)


class TestIterationsForSync:
    def test_small_case_exact(self):
        # n=3, a_c=0.01, theta ~ 0.86: m = ceil(-ln(0.5)/(theta*1e-4)) ~ 8e3.
        res = iterations_for_sync(0.5, 0.01, 3, 0.8628257887517147)
        assert res.m is not None
        assert 7500 <= res.m <= 8500
        assert res.log10_m == pytest.approx(math.log10(res.m))
        # m is the smallest such integer.
        assert sync_probability_by(res.m, 0.01, 3, 0.8628257887517147) >= 0.5
        assert sync_probability_by(res.m - 1, 0.01, 3, 0.8628257887517147) < 0.5

    def test_astronomical_case_log10(self):
        # n=100 at accuracy 0.01: ~10^198 iterations; must not overflow.
        res = iterations_for_sync(0.5, 0.01, 100, 0.9)
        assert res.m is None
        assert 195.0 <= res.log10_m <= 205.0
        assert res.log10_m == pytest.approx(197.84, abs=0.2)

    def test_theta_zero_rejected(self):
        with pytest.raises(DomainError):
            iterations_for_sync(0.5, 0.01, 3, 0.0)

    def test_target_validation(self):
        with pytest.raises(DomainError):
            iterations_for_sync(1.0, 0.01, 3, 0.5)
