"""Sample statistics, likelihood values, deviance, and model df."""

import math

import numpy as np
import pytest
from scipy import special

import oracles
from agfit import (
    AncestralGraph,
    SampleStats,
    chi_square_pvalue,
    degrees_of_freedom,
    deviance,
    empirical_covariance,
    log_likelihood,
)
from agfit.errors import DimensionMismatch, InvalidDf, NotPositiveDefinite


class TestEmpiricalCovariance:
    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(73)
        y = rng.standard_normal((4, 9))
        np.testing.assert_allclose(
            empirical_covariance(y).s, oracles.naive_covariance(y), atol=1e-12
        )
        np.testing.assert_allclose(
            empirical_covariance(y, mean_adjusted=True).s,
            oracles.naive_covariance(y, mean_adjusted=True),
            atol=1e-12,
        )

    def test_divides_by_n_not_n_minus_one(self):
        y = np.array([[1.0, -1.0]])
        assert empirical_covariance(y).s[0, 0] == pytest.approx(1.0)

    def test_mean_adjustment_changes_result(self):
        y = np.array([[2.0, 3.0, 4.0], [0.0, 1.0, -1.0]])
        raw = empirical_covariance(y).s
        cen = empirical_covariance(y, mean_adjusted=True).s
        assert raw[0, 0] > cen[0, 0]


class TestSampleStats:
    def test_from_data(self):
        rng = np.random.default_rng(79)
        y = rng.standard_normal((3, 50))
        st = empirical_covariance(y, mean_adjusted=True)
        assert st.n == 50 and st.p == 3 and st.mean_adjusted
        np.testing.assert_allclose(
            st.s, oracles.naive_covariance(y, mean_adjusted=True), atol=1e-12
        )

    def test_from_covariance_checks_definiteness(self):
        with pytest.raises(NotPositiveDefinite):
            SampleStats.from_covariance(np.array([[1.0, 2.0], [2.0, 1.0]]), 10)

    def test_from_covariance_checks_symmetry(self):
        with pytest.raises(NotPositiveDefinite):
            SampleStats.from_covariance(np.array([[1.0, 0.5], [0.2, 1.0]]), 10)

    @pytest.mark.parametrize("scale", [1.0, 1e-12, 1e12])
    def test_symmetry_check_does_not_depend_on_scale(self, scale):
        with pytest.raises(NotPositiveDefinite, match="not symmetric"):
            SampleStats.from_covariance(np.array([[1.0, 0.5], [0.2, 1.0]]) * scale, 10)

    @pytest.mark.parametrize("scale", [1e-12, 1e12])
    def test_symmetric_input_accepted_at_any_scale(self, scale):
        s = np.array([[1.0, 0.5], [0.5, 1.0]]) * scale
        np.testing.assert_array_equal(SampleStats.from_covariance(s, 10).s, s)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("cell", [(0, 0), (0, 1)])
    def test_from_covariance_rejects_non_finite(self, value, cell):
        s = np.array([[2.0, 0.5], [0.5, 1.0]])
        s[cell] = value
        with pytest.raises(NotPositiveDefinite, match="not finite"):
            SampleStats.from_covariance(s, 10)

    def test_empirical_covariance_rejects_non_finite_data(self):
        y = np.random.default_rng(3).standard_normal((3, 20))
        y[1, 4] = np.inf
        with pytest.raises(NotPositiveDefinite, match="not finite"):
            empirical_covariance(y)

    def test_sample_size_must_be_positive(self):
        with pytest.raises(ValueError):
            SampleStats.from_covariance(np.eye(2), 0)

    def test_degenerate_data_rejected(self):
        y = np.ones((3, 2))  # fewer cases than variables
        with pytest.raises(NotPositiveDefinite):
            empirical_covariance(y)


class TestLogLikelihood:
    def test_identity_model_closed_form(self):
        rng = np.random.default_rng(83)
        y = rng.standard_normal((3, 30))
        st = empirical_covariance(y)
        want = -0.5 * 30 * np.trace(st.s)
        assert log_likelihood(np.eye(3), st) == pytest.approx(want, rel=1e-12)

    def test_general_closed_form(self):
        rng = np.random.default_rng(89)
        s = oracles.random_spd(rng, 4)
        sigma = oracles.random_spd(rng, 4)
        st = SampleStats.from_covariance(s, 17)
        sign, logdet = np.linalg.slogdet(sigma)
        want = -0.5 * 17 * (logdet + np.trace(np.linalg.solve(sigma, s)))
        assert sign > 0
        assert log_likelihood(sigma, st) == pytest.approx(want, rel=1e-12)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(97)
        s = oracles.random_spd(rng, 5)
        sigma = oracles.random_spd(rng, 5)
        perm = rng.permutation(5)
        st = SampleStats.from_covariance(s, 20)
        stp = SampleStats.from_covariance(s[np.ix_(perm, perm)], 20)
        assert log_likelihood(sigma, st) == pytest.approx(
            log_likelihood(sigma[np.ix_(perm, perm)], stp), rel=1e-12
        )

    def test_maximized_at_sample_covariance(self):
        rng = np.random.default_rng(101)
        s = oracles.random_spd(rng, 3)
        st = SampleStats.from_covariance(s, 25)
        best = log_likelihood(s, st)
        for _ in range(50):
            other = oracles.random_spd(rng, 3)
            assert log_likelihood(other, st) <= best + 1e-9

    def test_shape_mismatch(self):
        st = SampleStats.from_covariance(np.eye(3), 10)
        with pytest.raises(DimensionMismatch):
            log_likelihood(np.eye(2), st)


class TestDeviance:
    def test_zero_at_sample_covariance(self):
        rng = np.random.default_rng(103)
        s = oracles.random_spd(rng, 4)
        st = SampleStats.from_covariance(s, 12)
        assert deviance(s, st) == pytest.approx(0.0, abs=1e-10)

    def test_equals_twice_loglik_drop(self):
        rng = np.random.default_rng(107)
        for _ in range(20):
            s = oracles.random_spd(rng, 4)
            sigma = oracles.random_spd(rng, 4)
            st = SampleStats.from_covariance(s, 33)
            want = 2.0 * (log_likelihood(s, st) - log_likelihood(sigma, st))
            assert deviance(sigma, st) == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(109)
        for _ in range(50):
            s = oracles.random_spd(rng, 3)
            sigma = oracles.random_spd(rng, 3)
            st = SampleStats.from_covariance(s, 8)
            assert deviance(sigma, st) >= -1e-10

    def test_typed_errors(self):
        st = SampleStats.from_covariance(np.eye(3), 10)
        with pytest.raises(DimensionMismatch):
            deviance(np.eye(2), st)
        with pytest.raises(NotPositiveDefinite):
            deviance(np.diag([1.0, -1.0, 1.0]), st)


class TestDegreesOfFreedom:
    def test_counts_missing_edges(self):
        g = AncestralGraph(
            5,
            undirected=[(0, 1)],
            directed=[(1, 2), (2, 4)],
            bidirected=[(2, 3), (3, 4)],
        )
        # 15 covariance entries minus 5 variances minus 5 edges
        assert degrees_of_freedom(g) == 5

    def test_saturated_graph(self):
        g = AncestralGraph(4, bidirected=[(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert degrees_of_freedom(g) == 0

    def test_empty_graph(self):
        assert degrees_of_freedom(AncestralGraph(4)) == 6


class TestChiSquarePvalue:
    def test_two_df_closed_form(self):
        for dev in (0.5, 1.7, 10.22):
            assert chi_square_pvalue(dev, 2) == pytest.approx(
                math.exp(-dev / 2.0), rel=1e-12
            )

    def test_one_df_closed_form(self):
        for dev in (0.3, 2.4, 9.0):
            assert chi_square_pvalue(dev, 1) == pytest.approx(
                math.erfc(math.sqrt(dev / 2.0)), rel=1e-12
            )

    def test_zero_deviance(self):
        assert chi_square_pvalue(0.0, 5) == 1.0

    def test_tiny_negative_rounding_is_clamped(self):
        assert chi_square_pvalue(-1e-12, 3) == 1.0

    def test_clearly_negative_rejected(self):
        with pytest.raises(ValueError):
            chi_square_pvalue(-0.5, 3)

    def test_invalid_df(self):
        with pytest.raises(InvalidDf):
            chi_square_pvalue(1.0, 0)
        with pytest.raises(InvalidDf):
            chi_square_pvalue(1.0, -2)

    def test_monotone_in_deviance(self):
        vals = [chi_square_pvalue(d, 4) for d in (0.1, 1.0, 5.0, 20.0)]
        assert vals == sorted(vals, reverse=True)

    def test_infinite_deviance(self):
        assert chi_square_pvalue(math.inf, 3) == 0.0

    def test_matches_scipy_for_small_df(self):
        fixed = (1e-8, 1e-3, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 100.0, 300.0, 1000.0)
        ratios = (0.05, 0.25, 0.5, 0.9, 1.0, 1.1, 1.5, 2.0, 4.0, 8.0)
        for df in range(1, 201):
            for dev in fixed + tuple(df * r for r in ratios):
                want = special.gammaincc(df / 2.0, dev / 2.0)
                got = chi_square_pvalue(dev, df)
                assert got == pytest.approx(want, rel=1e-12, abs=0), (df, dev)

    @pytest.mark.parametrize("df", [1000, 10001, 99999, 100000])
    def test_matches_scipy_for_large_df(self, df):
        for ratio in (0.5, 0.9, 0.99, 1.0, 1.01, 1.05, 1.1):
            want = special.gammaincc(df / 2.0, df * ratio / 2.0)
            assert want > 0
            got = chi_square_pvalue(df * ratio, df)
            assert got == pytest.approx(want, rel=1e-9, abs=0), ratio
