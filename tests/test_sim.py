"""Cycle covariance models, sampling, and the scaling experiment."""

import csv
import io

import numpy as np
import pytest

from agfit import (
    CycleSpec,
    FitConfig,
    SampleStats,
    bidirected_cycle_graph,
    cycle_covariance,
    empirical_covariance,
    fit,
    is_maximal,
    m_separated,
    run_scaling_experiment,
    sample_mvn,
)
from agfit import sim
from agfit.errors import NotPositiveDefinite, SingularDesign


class TestCycleCovariance:
    def test_three_vertices(self):
        m = cycle_covariance(3, 0.3)
        want = np.array([[1.0, 0.3, 0.3], [0.3, 1.0, 0.3], [0.3, 0.3, 1.0]])
        np.testing.assert_array_equal(m, want)

    def test_five_vertices_pattern(self):
        m = cycle_covariance(5, 0.2)
        assert m[0, 1] == 0.2 and m[3, 4] == 0.2 and m[0, 4] == 0.2
        assert m[0, 2] == 0.0 and m[1, 4] == 0.0
        np.testing.assert_array_equal(np.diag(m), np.ones(5))

    def test_eigenvalue_formula(self):
        for p in (3, 4, 7, 12, 30):
            spec = CycleSpec(p, 0.3)
            want = np.sort(
                1.0 + 2.0 * 0.3 * np.cos(2.0 * np.pi * np.arange(p) / p)
            )
            got = np.sort(np.linalg.eigvalsh(cycle_covariance(spec)))
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_rho_zero_is_identity(self):
        np.testing.assert_array_equal(cycle_covariance(4, 0.0), np.eye(4))

    def test_indefinite_rho_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            CycleSpec(4, 0.9)  # eigenvalue 1 + 2*0.9*cos(pi) < 0
        with pytest.raises(NotPositiveDefinite):
            cycle_covariance(4, -0.9)

    def test_too_small_cycle_rejected(self):
        with pytest.raises(ValueError):
            CycleSpec(2, 0.1)

    def test_spec_accepted_directly(self):
        spec = CycleSpec(6, 0.25)
        np.testing.assert_array_equal(cycle_covariance(spec), cycle_covariance(6, 0.25))


class TestCycleGraph:
    def test_edges(self):
        g = bidirected_cycle_graph(5)
        assert g.n == 5
        assert len(g.bidirected_pairs) == 5
        assert not g.directed_pairs and not g.undirected_pairs
        assert g.is_adjacent(0, 4)

    def test_always_maximal(self):
        # the empty set separates every non-adjacent pair
        for p in (4, 5, 6, 8):
            g = bidirected_cycle_graph(p)
            assert is_maximal(g)
            assert m_separated(g, {0}, {2}, set())

    def test_model_dimension(self):
        from agfit import degrees_of_freedom

        g = bidirected_cycle_graph(6)
        assert degrees_of_freedom(g) == 6 * 7 // 2 - 6 - 6


class TestSampling:
    def test_shape_and_determinism(self):
        sigma = cycle_covariance(4, 0.3)
        a = sample_mvn(sigma, 25, seed=(0, 4, 1))
        b = sample_mvn(sigma, 25, seed=(0, 4, 1))
        assert a.shape == (4, 25)
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_sample(self):
        sigma = cycle_covariance(4, 0.3)
        a = sample_mvn(sigma, 25, seed=1)
        b = sample_mvn(sigma, 25, seed=2)
        assert not np.array_equal(a, b)

    def test_large_sample_recovers_covariance(self):
        sigma = cycle_covariance(5, 0.3)
        y = sample_mvn(sigma, 200_000, seed=42)
        s = empirical_covariance(y).s
        np.testing.assert_allclose(s, sigma, atol=0.02)

    def test_indefinite_sigma_rejected(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefinite):
            sample_mvn(bad, 10, seed=0)

    @pytest.mark.parametrize("scale", [1.0, 1e-12, 1e12])
    def test_asymmetric_sigma_rejected(self, scale):
        # only the lower triangle is factored, so [[1, 5], [0.5, 1]] would
        # otherwise be sampled as if its correlation were 0.5
        bad = np.array([[1.0, 5.0], [0.5, 1.0]]) * scale
        with pytest.raises(NotPositiveDefinite, match="sigma is not symmetric"):
            sample_mvn(bad, 10, seed=0)

    @pytest.mark.parametrize("cell", [(0, 0), (0, 1), (1, 0), (1, 1)])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_sigma_rejected(self, cell, value):
        bad = np.array([[1.0, 0.5], [0.5, 1.0]])
        bad[cell] = value
        with pytest.raises(NotPositiveDefinite):
            sample_mvn(bad, 10, seed=0)


class TestScalingExperiment:
    def test_small_run_shape_and_summaries(self):
        report = run_scaling_experiment([5, 8], replicates=4, seed=0)
        assert len(report.rows) == 8
        assert report.failures == 0
        ps = [s.p for s in report.summaries()]
        assert ps == [5, 8]
        for summ in report.summaries():
            assert summ.replicates == 4
            assert summ.failures == 0
            assert summ.min_iterations <= summ.mean_iterations <= summ.max_iterations

    def test_rows_reproducible(self):
        a = run_scaling_experiment([6], replicates=3, seed=9)
        b = run_scaling_experiment([6], replicates=3, seed=9)
        for ra, rb in zip(a.rows, b.rows):
            assert ra.p == rb.p and ra.replicate == rb.replicate
            assert ra.iterations == rb.iterations
            assert ra.converged == rb.converged
            assert ra.deviance == rb.deviance  # bit identical

    def test_cells_independent_of_batch(self):
        # the (p, replicate) cell seed does not depend on what else ran
        alone = run_scaling_experiment([8], replicates=2, seed=3)
        batch = run_scaling_experiment([5, 8], replicates=2, seed=3)
        alone_rows = [(r.p, r.replicate, r.deviance) for r in alone.rows]
        batch_rows = [
            (r.p, r.replicate, r.deviance) for r in batch.rows if r.p == 8
        ]
        assert alone_rows == batch_rows

    def test_csv_round_trip(self, tmp_path):
        report = run_scaling_experiment([5], replicates=3, seed=1)
        out = tmp_path / "report.csv"
        report.to_csv(out)
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert list(rows[0]) == [
            "p",
            "replicate",
            "iterations",
            "converged",
            "cpu_seconds",
            "deviance",
        ]
        for row, rep in zip(rows, report.rows):
            assert int(row["p"]) == rep.p
            assert int(row["replicate"]) == rep.replicate
            assert int(row["iterations"]) == rep.iterations
            assert row["converged"] == str(rep.converged)
            assert float(row["deviance"]) == rep.deviance

    def test_csv_accepts_file_object(self):
        report = run_scaling_experiment([5], replicates=2, seed=1)
        buf = io.StringIO()
        report.to_csv(buf)
        assert buf.getvalue().startswith("p,replicate,")

    def test_fitted_cycle_keeps_sparsity(self):
        # re-fit one cell the way the experiment does and inspect omega
        p, rep, seed = 7, 0, 0
        sigma = cycle_covariance(p, 0.3)
        y = sample_mvn(sigma, p + 30, seed=(seed, p, rep))
        res = fit(
            bidirected_cycle_graph(p),
            empirical_covariance(y),
            FitConfig(tolerance=1e-6, check_maximality=False),
        )
        assert res.converged
        om = res.omega_hat
        for i in range(p):
            for j in range(i + 1, p):
                if j - i != 1 and not (i == 0 and j == p - 1):
                    assert om[i, j] == 0.0

    def test_numerical_failure_is_counted(self, monkeypatch):
        def failing_fit(*args):
            raise SingularDesign("design collapsed")

        monkeypatch.setattr(sim, "fit", failing_fit)
        report = run_scaling_experiment([5], replicates=2, seed=0)
        assert report.failures == 2
        assert all(r.iterations == 0 and np.isnan(r.deviance) for r in report.rows)

    def test_programming_error_propagates(self, monkeypatch):
        def broken_fit(*args):
            raise TypeError("bug in the fit")

        monkeypatch.setattr(sim, "fit", broken_fit)
        with pytest.raises(TypeError, match="bug in the fit"):
            run_scaling_experiment([5], replicates=1, seed=0)

    def test_replicate_validation(self):
        with pytest.raises(ValueError):
            run_scaling_experiment([5], replicates=0)
