import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cmlsync.errors import DegenerateSeriesError, DomainError
from cmlsync.observables import (
    OBSERVABLES,
    eval_global_sync,
    evaluate_series,
    exceedance_indicator,
    running_maximum,
    sync_accuracy_from_threshold,
    threshold_from_quantile,
)

LOCAL, PAIR = OBSERVABLES["local_sync"], OBSERVABLES["pair_sync"]

unit_states = arrays(
    np.float64,
    st.integers(2, 10),
    elements=st.floats(0.0, 0.999999, allow_nan=False),
)


class TestPointEvaluations:
    def test_global_sync_pair(self):
        assert eval_global_sync([0.1, 0.4]) == pytest.approx(-math.log(0.3))

    def test_global_sync_triple(self):
        assert eval_global_sync([0.1, 0.2, 0.8]) == pytest.approx(-math.log(0.7))

    def test_global_sync_diagonal_inf(self):
        assert eval_global_sync([0.5, 0.5, 0.5]) == math.inf

    def test_local_sync_chain_hand_value(self):
        # neighbor gaps 0.1 and 0.6
        assert LOCAL.value([0.1, 0.2, 0.8]) == pytest.approx(-math.log(0.6))

    def test_local_sync_n2_equals_global(self):
        x = [0.15, 0.8]
        assert LOCAL.value(x) == eval_global_sync(x)
        assert PAIR.value(x) == eval_global_sync(x)

    def test_pair_sync_takes_closest_pair(self):
        assert PAIR.value([0.1, 0.2, 0.8]) == pytest.approx(-math.log(0.1))
        series = evaluate_series([[0.1, 0.2, 0.8], [0.5, 0.1, 0.4]],
                                 "pair_sync")
        assert series.tolist() == [PAIR.value([0.1, 0.2, 0.8]),
                                   PAIR.value([0.5, 0.1, 0.4])]

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            evaluate_series(np.zeros((3, 2)), "nope")


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(unit_states)
    def test_pair_set_monotonicity(self, x):
        # more pairs -> larger max gap -> smaller observable
        assert eval_global_sync(x) <= LOCAL.value(x) <= PAIR.value(x)

    @settings(max_examples=300, deadline=None)
    @given(unit_states, st.randoms())
    def test_permutation_symmetry(self, x, rnd):
        perm = list(range(x.size))
        rnd.shuffle(perm)
        assert eval_global_sync(x[perm]) == eval_global_sync(x)

    @settings(max_examples=300, deadline=None)
    @given(unit_states, st.floats(-5.0, 15.0))
    def test_exceedance_set_equivalence(self, x, u):
        val = eval_global_sync(x)
        gap = (np.max(x) - np.min(x)) if np.ptp(x) > 0 else 0.0
        nu = math.exp(-u)
        if abs(gap - nu) > 1e-12 * max(gap, nu):  # skip the measure-zero edge
            assert (val > u) == (gap < nu)

    @settings(max_examples=300, deadline=None)
    @given(
        arrays(np.float64, st.integers(1, 50), elements=st.floats(-50, 50)),
    )
    def test_running_maximum_idempotent(self, series):
        once = running_maximum(series)
        assert np.array_equal(running_maximum(once), once)
        assert np.all(np.diff(once) >= 0)


class TestColumnGaps:
    """The gaps run over columns; the axis reductions are the reference."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 23), st.sampled_from([(), (1,), (5,), (7, 3)]),
           st.integers(0, 2**32), st.booleans())
    def test_match_axis_reductions(self, n, lead, seed, strided):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 1.0, size=lead + (n + strided,))
        if n > 2:
            x[..., 2] = x[..., 0]  # a zero gap
        if strided:  # a view that is not contiguous, as the pass hands over
            x = x[..., 1:]
        diffs = np.abs(np.diff(x, axis=-1))
        for got, want in (
                (OBSERVABLES["global_sync"].gap(x),
                 np.max(x, axis=-1) - np.min(x, axis=-1)),
                (LOCAL.gap(x), np.max(diffs, axis=-1)),
                (PAIR.gap(x), np.min(diffs, axis=-1))):
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestThreshold:
    def test_interpolated_rank_oracle(self):
        series = np.arange(1.0, 101.0)
        assert threshold_from_quantile(series, 0.98) == pytest.approx(98.02)

    def test_constant_series(self):
        assert threshold_from_quantile(np.full(10, 3.3), 0.5) == 3.3

    def test_top_quantile_is_max_finite(self):
        s = np.array([1.0, 5.0, np.inf, 2.0])
        assert threshold_from_quantile(s, 1.0) == 5.0

    def test_all_infinite_degenerate(self):
        with pytest.raises(DegenerateSeriesError):
            threshold_from_quantile(np.full(5, np.inf), 0.9)

    def test_infinities_always_exceed(self):
        s = np.array([1.0, np.inf, 0.5])
        assert exceedance_indicator(s, 100.0).tolist() == [False, True, False]

    def test_accuracy_from_threshold(self):
        assert sync_accuracy_from_threshold(-math.log(0.01)) == pytest.approx(0.01)


class TestSeriesEvaluation:
    def test_series_shapes(self, rng):
        traj = rng.uniform(0, 1, (40, 3))
        for kind in OBSERVABLES:
            assert evaluate_series(traj, kind).shape == (40,)
