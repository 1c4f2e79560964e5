"""Likelihood maximization: IPF, single conditional steps, and full fits."""

import dataclasses
import importlib

import networkx as nx
import numpy as np
import pytest

import oracles
from agfit import (
    AncestralGraph,
    AgfitError,
    FitConfig,
    ParamSet,
    SampleStats,
    bidirected_cycle_graph,
    build_sigma,
    cycle_covariance,
    empirical_covariance,
    fit,
    fit_dag_closed_form,
    fit_undirected_ipf,
    icf_step,
    log_likelihood,
    moth_graph,
    moth_stats,
    sample_mvn,
)
from agfit.datasets import moth_graph_extended
from agfit.errors import NotMaximal, NotPositiveDefinite
from agfit.fit import _FOLD_STEPS, _HeldInverse, _VertexPlan, _icf_step, _maximal_cliques
from agfit.params import IndexMap


def _stats(s, n=40):
    return SampleStats.from_covariance(s, n)


class TestIpf:
    def test_complete_graph_inverts_sample(self):
        rng = np.random.default_rng(113)
        s = oracles.random_spd(rng, 4)
        g = AncestralGraph(4, undirected=[(i, j) for i in range(4) for j in range(i + 1, 4)])
        lam = fit_undirected_ipf(g, s)
        np.testing.assert_allclose(lam, np.linalg.inv(s), atol=1e-8)

    def test_empty_graph_gives_diagonal(self):
        rng = np.random.default_rng(127)
        s = oracles.random_spd(rng, 4)
        lam = fit_undirected_ipf(AncestralGraph(4), s)
        np.testing.assert_allclose(lam, np.diag(1.0 / np.diag(s)), atol=1e-10)

    def test_chordless_cycle_matches_clique_margins(self):
        # the four-cycle has no closed form; the MLE is pinned down by
        # matching clique (edge) margins with zeros off the pattern
        rng = np.random.default_rng(131)
        s = oracles.random_spd(rng, 4)
        edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
        g = AncestralGraph(4, undirected=edges)
        lam = fit_undirected_ipf(g, s, tolerance=1e-12)
        sigma = np.linalg.inv(lam)
        for i, j in edges:
            idx = np.ix_([i, j], [i, j])
            np.testing.assert_allclose(sigma[idx], s[idx], atol=1e-8)
        assert lam[0, 2] == 0.0 and lam[1, 3] == 0.0

    def test_matches_generic_optimizer(self):
        rng = np.random.default_rng(137)
        s = oracles.random_spd(rng, 4)
        g = AncestralGraph(4, undirected=[(0, 1), (1, 2), (2, 3), (0, 3)])
        st = _stats(s)
        lam = fit_undirected_ipf(g, s, tolerance=1e-12)
        ll = log_likelihood(np.linalg.inv(lam), st)
        best = oracles.best_loglik_numeric(g, st, restarts=10, seed=3)
        assert ll >= best - 1e-6

    def test_decomposable_graph_closed_form(self):
        # chain 0 - 1 - 2: concentration zeros force the path factorization
        rng = np.random.default_rng(139)
        s = oracles.random_spd(rng, 3)
        g = AncestralGraph(3, undirected=[(0, 1), (1, 2)])
        sigma = np.linalg.inv(fit_undirected_ipf(g, s, tolerance=1e-12))
        want = s.copy()
        want[0, 2] = want[2, 0] = s[0, 1] * s[1, 2] / s[1, 1]
        np.testing.assert_allclose(sigma, want, atol=1e-8)

    def test_cliques_match_networkx(self):
        rng = np.random.default_rng(163)
        for trial in range(60):
            p = int(rng.integers(1, 13))
            density = rng.uniform(0.1, 0.9)
            pairs = [
                (i, j) for i in range(p) for j in range(i + 1, p)
                if rng.random() < density
            ]
            g = AncestralGraph(p, undirected=pairs)
            nxg = nx.Graph()
            nxg.add_nodes_from(range(p))
            nxg.add_edges_from(pairs)
            want = sorted(sorted(c) for c in nx.find_cliques(nxg))
            assert sorted(sorted(c) for c in _maximal_cliques(g)) == want

    @pytest.mark.parametrize("k", [1e-4, 1e8])
    def test_stop_rule_is_scale_free(self, k):
        # the stop rule is in correlation units, so rescaling the data
        # rescales the estimate and nothing else
        rng = np.random.default_rng(167)
        s = oracles.random_spd(rng, 4)
        g = AncestralGraph(4, undirected=[(0, 1), (1, 2), (2, 3), (0, 3)])
        np.testing.assert_allclose(
            fit_undirected_ipf(g, k * s) * k, fit_undirected_ipf(g, s), rtol=1e-6
        )

    def test_not_positive_definite_rejected(self):
        g = AncestralGraph(2, undirected=[(0, 1)])
        with pytest.raises(NotPositiveDefinite):
            fit_undirected_ipf(g, np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_cap_returns_last_iterate(self):
        rng = np.random.default_rng(131)
        s = oracles.random_spd(rng, 4)
        g = AncestralGraph(4, undirected=[(0, 1), (1, 2), (2, 3), (0, 3)])
        capped = fit_undirected_ipf(g, s, tolerance=1e-12, max_cycles=2)
        assert capped[0, 2] == 0.0 and capped[1, 3] == 0.0
        assert np.all(np.linalg.eigvalsh(capped) > 0)
        assert not np.allclose(capped, fit_undirected_ipf(g, s, tolerance=1e-12))


def _chordless_cycle_case():
    """Undirected block the chordless 4-cycle 0 - 1 - 2 - 3 - 0, with
    0 -> 5, 3 -> 6 and 5 <-> 6 <-> 7 in the arrowhead block."""
    g = AncestralGraph(
        8,
        undirected=[(0, 1), (1, 2), (2, 3), (0, 3)],
        directed=[(0, 5), (3, 6)],
        bidirected=[(5, 6), (6, 7)],
    )
    return g, _stats(oracles.random_spd(np.random.default_rng(5), 8), 100)


class TestCycleCap:
    # both stages stop at max_cycles with converged=False; neither raises

    def test_ipf_cap_on_chordless_cycle(self):
        g, st = _chordless_cycle_case()
        res = fit(g, st, FitConfig(max_cycles=2))
        assert not res.converged
        assert np.all(np.isfinite(res.sigma_hat))
        assert fit(g, st).converged

    def test_ipf_cap_alone_is_reported(self):
        # ICF settles this graph in 10 cycles; IPF cannot reach 1e-17
        g, st = _chordless_cycle_case()
        res = fit(g, st, FitConfig(tolerance=1e-17, max_cycles=200))
        assert res.iterations < 200
        assert not res.converged

    def test_rounding_floor_tolerance_on_moth(self):
        # the 2-clique {wind, rain} inverts back exactly and ICF reaches a
        # zero change, so even 1e-17 is met
        res = fit(moth_graph(), moth_stats(), FitConfig(tolerance=1e-17, max_cycles=50))
        assert res.converged
        assert res.iterations == 15
        assert res.deviance == pytest.approx(10.2191, abs=1e-4)


class TestIcfStep:
    def test_data_and_covariance_routes_agree(self):
        rng = np.random.default_rng(149)
        for _ in range(15):
            g = oracles.random_ancestral_graph(rng, 5)
            disp = sorted(set(range(5)) - g.un_vertices)
            if not disp:
                continue
            y = rng.standard_normal((5, 60))
            stats = empirical_covariance(y)
            res = fit(g, stats, FitConfig(max_cycles=1, check_maximality=False))
            # one manual cycle from the same start must match the first
            # recorded likelihood step
            omega0 = np.diag(stats.s[disp, disp])
            cur = ParamSet.for_graph(g, lam=res.params.lam, omega=omega0)
            for v in disp:
                cur = icf_step(g, v, cur, y)
            ll_manual = log_likelihood(build_sigma(cur), stats)
            assert ll_manual == pytest.approx(res.logliks[-1], rel=1e-9, abs=1e-9)

    def test_single_step_never_decreases_likelihood(self):
        rng = np.random.default_rng(151)
        for _ in range(15):
            g = oracles.random_ancestral_graph(rng, 5)
            disp = sorted(set(range(5)) - g.un_vertices)
            if not disp:
                continue
            pm = oracles.random_params(g, rng)
            y = rng.standard_normal((5, 40))
            stats = empirical_covariance(y)
            cur = pm
            ll = log_likelihood(build_sigma(cur), stats)
            for v in disp:
                cur = icf_step(g, v, cur, y)
                ll_new = log_likelihood(build_sigma(cur), stats)
                assert ll_new >= ll - 1e-9
                ll = ll_new

    def test_step_only_touches_own_row(self):
        rng = np.random.default_rng(157)
        g = AncestralGraph(3, bidirected=[(0, 1), (1, 2)])
        pm = oracles.random_params(g, rng)
        y = rng.standard_normal((3, 30))
        new = icf_step(g, 0, pm, y)
        # row/column 0 of omega and row 0 of beta may change, rest must not
        np.testing.assert_array_equal(new.omega[1:, 1:], pm.omega[1:, 1:])
        np.testing.assert_array_equal(new.beta[1:], pm.beta[1:])

    def test_indefinite_omega_is_a_typed_error(self):
        g = AncestralGraph(3, bidirected=[(0, 1), (1, 2)])
        omega = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 2.0], [0.0, 2.0, 1.0]])
        pm = dataclasses.replace(ParamSet.for_graph(g), omega=omega)
        y = np.random.default_rng(263).standard_normal((3, 30))
        with pytest.raises(AgfitError) as info:
            icf_step(g, 0, pm, y)
        assert isinstance(info.value, NotPositiveDefinite)


class TestHeldInverse:
    def test_one_cycle_matches_fresh_inverse(self):
        # 70 spouse steps: four folds of 16 held-back updates, then 6 pending
        p = 70
        g = bidirected_cycle_graph(p)
        s = empirical_covariance(sample_mvn(cycle_covariance(p, 0.3), p + 30, seed=5)).s
        beta = np.zeros((p, p))
        omega = np.diag(np.diag(s))
        held = _HeldInverse(np.linalg.inv(omega))
        disp_map = IndexMap(tuple(range(p)))
        no_parents = np.zeros(0, dtype=int)
        for i in range(p):
            _icf_step(s, beta, omega, held, _VertexPlan(g, i, disp_map, np.arange(p)), no_parents)
        assert held.m == 2 * (p % _FOLD_STEPS)
        want = np.linalg.inv(omega)
        got = held.rows(np.arange(p))
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    @staticmethod
    def _mixed_case():
        # an undirected pair, a bidirected 20-cycle with parents in it and
        # spouse-less vertices with parents; omega near singular, so ICF is slow
        dire = [(0, 2), (1, 9), (0, 15), (5, 22), (12, 23), (22, 24), (18, 25), (1, 26), (26, 27)]
        g = AncestralGraph(
            28, undirected=[(0, 1)], directed=dire,
            bidirected=[(v, v + 1) for v in range(2, 21)] + [(2, 21)],
        )
        omega = np.eye(26)
        omega[:20, :20] = cycle_covariance(20, 0.49)
        beta = np.zeros((28, 28))
        for tail, head in dire:
            beta[head, tail] = 0.6
        lam = np.array([[1.0, 0.3], [0.3, 1.0]])
        sigma = build_sigma(ParamSet.for_graph(g, lam=lam, beta=beta, omega=omega))
        return g, empirical_covariance(sample_mvn(sigma, 60, seed=2))

    @pytest.mark.parametrize("case", ["cycle-100", "mixed"])
    def test_carried_inverse_matches_inverse_of_fit(self, case, monkeypatch):
        # one inverse of omega is carried across ~300 cycles; a tolerance at
        # the rounding floor keeps the fit from stopping
        if case == "cycle-100":
            g = bidirected_cycle_graph(100)
            st = empirical_covariance(sample_mvn(cycle_covariance(100, 0.49), 130, seed=7))
        else:
            g, st = self._mixed_case()
        held = []

        class Recorded(_HeldInverse):
            def __init__(self, k0):
                super().__init__(k0)
                held.append(self)

        monkeypatch.setattr(importlib.import_module("agfit.fit"), "_HeldInverse", Recorded)
        res = fit(g, st, FitConfig(tolerance=1e-15, max_cycles=300))
        assert res.iterations >= 200
        (k,) = held
        assert k.m == 0
        want = np.linalg.inv(res.omega_hat)
        assert np.max(np.abs(k.k0 - want)) <= 1e-10 * np.max(np.abs(want))


class TestFitAgainstReferenceIcf:
    """``fit`` keeps inv(omega) current across vertex steps; a plain ICF
    that inverts omega[-i, -i] at every step must follow the same
    likelihood path to the same estimate in the same number of cycles."""

    def _check(self, g, stats, scale=1.0):
        res = fit(g, stats, FitConfig(check_maximality=False))
        sigmas = oracles.icf_reference(g, stats.s, res.params.lam)
        assert res.converged
        assert res.iterations == len(sigmas) - 1
        np.testing.assert_allclose(res.sigma_hat, sigmas[-1], rtol=0, atol=1e-10 * scale)
        lls = [log_likelihood(sigma, stats) for sigma in sigmas]
        np.testing.assert_allclose(res.logliks, lls, rtol=1e-12, atol=0)

    def test_bidirected_cycle_60(self):
        g = bidirected_cycle_graph(60)
        self._check(g, empirical_covariance(sample_mvn(cycle_covariance(60, 0.3), 90, seed=3)))

    @pytest.mark.parametrize("k", [1e-4, 1e4])
    def test_scaled_bidirected_cycle_20(self, k):
        # both stop in correlation units, so the scale changes no cycle count
        s = empirical_covariance(sample_mvn(cycle_covariance(20, 0.3), 60, seed=3)).s
        self._check(bidirected_cycle_graph(20), SampleStats.from_covariance(k * s, 60), k)

    def test_random_mixed_graph_40(self):
        rng = np.random.default_rng(1)
        g = oracles.random_ancestral_graph(rng, 40, q=0.1)
        assert sum(1 for v in range(40) if g.pa(v)) >= 10
        assert sum(1 for v in range(40) if g.sp(v)) >= 10
        self._check(g, _stats(oracles.random_spd(rng, 40), n=200))


class TestFitSigmaAndLikelihood:
    """The per-cycle Σ and log-likelihood are formed on the rows with
    parents; the final ones must match routes that use all of I − B."""

    def test_sigma_matches_dense_route(self):
        rng = np.random.default_rng(241)
        graphs = oracles.random_three_kind_graphs(rng, 12)
        graphs.append(AncestralGraph(6, undirected=[(0, 1)], bidirected=[(2, 3), (3, 4), (4, 5)]))
        for g in graphs:
            st = _stats(oracles.random_spd(rng, g.n), n=60)
            res = fit(g, st, FitConfig(check_maximality=False))
            want = oracles.dense_sigma(res.params)
            assert np.max(np.abs(res.sigma_hat - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "graph", [moth_graph, moth_graph_extended, lambda: AncestralGraph(
            5, undirected=[(0, 1), (1, 2)], directed=[(2, 3), (0, 4)], bidirected=[(3, 4)]
        ), lambda: AncestralGraph(
            5, directed=[(0, 1), (0, 2)], bidirected=[(2, 3), (3, 4)]
        )], ids=["moth", "extended", "undirected-block", "spouse-less-beside-district"],
    )
    def test_last_loglik_matches_log_likelihood(self, graph):
        g = graph()
        st = moth_stats()
        res = fit(g, st)
        assert g.un_vertices
        # the inverse of omega is carried across cycles, so a vertex without
        # spouses must keep its entry current after the first cycle
        assert res.iterations > 2
        assert res.logliks[-1] == pytest.approx(log_likelihood(res.sigma_hat, st), rel=1e-12, abs=0)


class TestFitMoth:
    def test_published_fit(self):
        g = moth_graph()
        st = moth_stats()
        res = fit(g, st)
        assert res.converged
        assert res.deviance == pytest.approx(10.22, abs=0.02)
        assert res.df == 5
        assert 4 <= res.iterations <= 10

    def test_stop_rule_is_scale_free(self):
        s = moth_stats().s
        fits = [
            fit(moth_graph(), SampleStats.from_covariance(k * s, 72))
            for k in (1e-4, 1.0, 1e8)
        ]
        assert [r.iterations for r in fits] == [6, 6, 6]
        for r in fits:
            assert r.deviance == pytest.approx(fits[1].deviance, rel=1e-9, abs=0)

    def test_fitted_covariance_2dp(self):
        # variables in order max, wind, rain, cloud, moth
        g = moth_graph()
        st = moth_stats()
        res = fit(g, st)
        want = np.array(
            [
                [1.00, 0.00, 0.00, -0.02, 0.23],
                [0.00, 1.00, 0.05, -0.02, 0.01],
                [0.00, 0.05, 1.00, -0.47, 0.18],
                [-0.02, -0.02, -0.47, 1.00, -0.38],
                [0.23, 0.01, 0.18, -0.38, 1.01],
            ]
        )
        np.testing.assert_allclose(np.round(res.sigma_hat, 2), want, atol=1e-12)

    def test_fitted_regression_and_residual_blocks_2dp(self):
        res = fit(moth_graph(), moth_stats())
        imb = np.round(np.eye(5) - res.beta_hat, 2)
        want_imb = np.eye(5)
        want_imb[3, 2] = 0.47  # cloud on rain
        want_imb[4, 3] = 0.38  # moth on cloud
        np.testing.assert_allclose(imb, want_imb, atol=1e-12)
        om = np.zeros((5, 5))
        disp = list(res.params.disp_map.vertices)
        for a, va in enumerate(disp):
            for b, vb in enumerate(disp):
                om[va, vb] = res.omega_hat[a, b]
        want_om = np.zeros((5, 5))
        want_om[0, 0] = 1.00
        want_om[0, 3] = want_om[3, 0] = -0.02
        want_om[0, 4] = want_om[4, 0] = 0.23
        want_om[3, 3] = 0.78
        want_om[4, 4] = 0.86
        np.testing.assert_allclose(np.round(om, 2), want_om, atol=1e-12)
        want_lam_cov = np.array([[1.00, 0.05], [0.05, 1.00]])
        np.testing.assert_allclose(
            np.round(np.linalg.inv(res.lambda_hat), 2), want_lam_cov, atol=1e-12
        )


class TestFitAgreesWithClosedForms:
    def test_empty_graph(self):
        rng = np.random.default_rng(163)
        s = oracles.random_spd(rng, 4)
        res = fit(AncestralGraph(4), _stats(s))
        np.testing.assert_allclose(res.sigma_hat, np.diag(np.diag(s)), atol=1e-9)

    def test_saturated_bidirected_graph(self):
        rng = np.random.default_rng(167)
        s = oracles.random_spd(rng, 4)
        g = AncestralGraph(4, bidirected=[(i, j) for i in range(4) for j in range(i + 1, 4)])
        res = fit(g, _stats(s), FitConfig(tolerance=1e-10))
        np.testing.assert_allclose(res.sigma_hat, s, atol=1e-7)
        assert res.deviance == pytest.approx(0.0, abs=1e-8)

    def test_two_variable_regression(self):
        rng = np.random.default_rng(173)
        s = oracles.random_spd(rng, 2)
        g = AncestralGraph(2, directed=[(0, 1)])
        res = fit(g, _stats(s))
        assert res.beta_hat[1, 0] == pytest.approx(s[0, 1] / s[0, 0], rel=1e-8)
        np.testing.assert_allclose(res.sigma_hat, s, atol=1e-8)

    def test_dag_chain_matches_regressions(self):
        rng = np.random.default_rng(179)
        s = oracles.random_spd(rng, 3)
        g = AncestralGraph(3, directed=[(0, 1), (1, 2)])
        res = fit(g, _stats(s))
        assert res.beta_hat[1, 0] == pytest.approx(s[0, 1] / s[0, 0], rel=1e-8)
        assert res.beta_hat[2, 1] == pytest.approx(s[1, 2] / s[1, 1], rel=1e-8)
        # fitted covariance honours the single independence 0 _||_ 2 | 1
        assert res.sigma_hat[0, 2] == pytest.approx(
            s[0, 1] * s[1, 2] / s[1, 1], rel=1e-7
        )

    def test_random_dags_match_one_pass_solver(self):
        rng = np.random.default_rng(181)
        for _ in range(30):
            p = int(rng.integers(2, 7))
            g = oracles.random_dag(rng, p)
            s = oracles.random_spd(rng, p)
            st = _stats(s)
            res = fit(g, st)
            closed = fit_dag_closed_form(g, st)
            np.testing.assert_allclose(res.sigma_hat, closed.sigma_hat, atol=1e-10)
            np.testing.assert_allclose(res.beta_hat, closed.beta_hat, atol=1e-10)
            np.testing.assert_allclose(res.omega_hat, closed.omega_hat, atol=1e-10)
            np.testing.assert_allclose(res.lambda_hat, closed.lambda_hat, atol=1e-10)
            # the second cycle certifies the fixed point reached by the first
            assert res.iterations == (2 if g.directed_pairs else 0)

    def test_bidirected_pair(self):
        rng = np.random.default_rng(191)
        s = oracles.random_spd(rng, 2)
        g = AncestralGraph(2, bidirected=[(0, 1)])
        res = fit(g, _stats(s))
        np.testing.assert_allclose(res.sigma_hat, s, atol=1e-8)


class TestFitAgainstNumericOptimizer:
    def test_bidirected_chain(self):
        rng = np.random.default_rng(193)
        s = oracles.random_spd(rng, 4)
        g = AncestralGraph(4, bidirected=[(0, 1), (1, 2), (2, 3)])
        st = _stats(s)
        res = fit(g, st, FitConfig(restarts=4, seed=0))
        best = oracles.best_loglik_numeric(g, st, restarts=10, seed=1)
        assert res.logliks[-1] >= best - 1e-6

    def test_mixed_graph(self):
        rng = np.random.default_rng(197)
        s = oracles.random_spd(rng, 4)
        g = AncestralGraph(
            4, undirected=[(0, 1)], directed=[(1, 2)], bidirected=[(2, 3)]
        )
        st = _stats(s)
        res = fit(g, st, FitConfig(restarts=4, seed=0))
        best = oracles.best_loglik_numeric(g, st, restarts=10, seed=1)
        assert res.logliks[-1] >= best - 1e-6


class TestFitInvariants:
    def _random_case(self, rng, p=5):
        g = oracles.random_ancestral_graph(rng, p)
        s = oracles.random_spd(rng, p)
        return g, _stats(s)

    def test_sigma_consistent_with_params(self):
        rng = np.random.default_rng(199)
        for _ in range(10):
            g, st = self._random_case(rng)
            res = fit(g, st, FitConfig(check_maximality=False))
            np.testing.assert_allclose(
                res.sigma_hat, build_sigma(res.params), atol=1e-10
            )

    def test_exact_zeros_outside_patterns(self):
        rng = np.random.default_rng(211)
        for _ in range(10):
            g, st = self._random_case(rng)
            res = fit(g, st, FitConfig(check_maximality=False))
            disp = sorted(set(range(g.n)) - g.un_vertices)
            for a in range(len(disp)):
                for b in range(a + 1, len(disp)):
                    if disp[b] not in g.sp(disp[a]):
                        assert res.omega_hat[a, b] == 0.0
            for i in range(g.n):
                for j in range(g.n):
                    if i != j and j not in g.pa(i):
                        assert res.beta_hat[i, j] == 0.0

    def test_likelihood_never_decreases(self):
        rng = np.random.default_rng(223)
        for _ in range(10):
            g, st = self._random_case(rng)
            res = fit(g, st, FitConfig(check_maximality=False))
            diffs = np.diff(np.array(res.logliks))
            assert np.all(diffs >= -1e-9)

    def test_deviance_nonnegative(self):
        rng = np.random.default_rng(227)
        for _ in range(10):
            g, st = self._random_case(rng)
            res = fit(g, st, FitConfig(check_maximality=False))
            assert res.deviance >= -1e-8

    def test_fixed_point_is_stationary(self):
        # feeding the fitted covariance back in converges immediately
        rng = np.random.default_rng(229)
        g, st = self._random_case(rng)
        res = fit(g, st, FitConfig(check_maximality=False))
        again = fit(
            g,
            SampleStats.from_covariance(res.sigma_hat, st.n),
            FitConfig(check_maximality=False),
        )
        assert again.deviance == pytest.approx(0.0, abs=1e-8)
        np.testing.assert_allclose(again.sigma_hat, res.sigma_hat, atol=1e-6)

    def test_restarts_do_not_hurt(self):
        rng = np.random.default_rng(233)
        g, st = self._random_case(rng)
        base = fit(g, st, FitConfig(check_maximality=False))
        multi = fit(g, st, FitConfig(check_maximality=False, restarts=5, seed=7))
        assert multi.logliks[-1] >= base.logliks[-1] - 1e-9

    def test_restarts_keep_first_run_on_rounding_ties(self):
        base = fit(moth_graph(), moth_stats())
        for seed in range(10):
            res = fit(moth_graph(), moth_stats(), FitConfig(restarts=3, seed=seed))
            assert res.iterations == 6
            assert np.array_equal(res.sigma_hat, base.sigma_hat)

    def test_non_maximal_graph_rejected(self):
        g = AncestralGraph(
            4, directed=[(1, 3), (2, 0)], bidirected=[(0, 1), (1, 2), (2, 3)]
        )
        rng = np.random.default_rng(239)
        st = _stats(oracles.random_spd(rng, 4))
        with pytest.raises(NotMaximal):
            fit(g, st)
        res = fit(g, st, FitConfig(check_maximality=False))  # explicit opt-out
        assert res.converged

    def test_max_cycles_reports_non_convergence(self):
        g = moth_graph()
        st = moth_stats()
        res = fit(g, st, FitConfig(max_cycles=1))
        assert not res.converged
        assert res.iterations == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FitConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            FitConfig(max_cycles=0)
        with pytest.raises(ValueError):
            FitConfig(restarts=-1)
        # nan <= 0 is false; a nan tolerance would never stop a fit
        with pytest.raises(ValueError):
            FitConfig(tolerance=float("nan"))

    def test_tolerance_controls_cycle_count(self):
        g = moth_graph()
        st = moth_stats()
        loose = fit(g, st, FitConfig(tolerance=1e-2))
        tight = fit(g, st, FitConfig(tolerance=1e-10))
        assert loose.iterations < tight.iterations
