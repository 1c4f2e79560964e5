"""Parameter containers and the covariance parameterization."""

import dataclasses

import numpy as np
import pytest

import oracles
from agfit import (
    AncestralGraph,
    ParamSet,
    build_sigma,
    conditional_variance,
    m_separated,
    psi,
)
from agfit.errors import DimensionMismatch, NotPositiveDefinite, SingularMatrix
from agfit.params import IndexMap


@pytest.fixture
def mixed5():
    return AncestralGraph(
        5,
        undirected=[(0, 1)],
        directed=[(1, 2), (2, 4)],
        bidirected=[(2, 3), (3, 4)],
    )


class TestIndexMap:
    def test_positions(self):
        m = IndexMap((1, 3, 4))
        assert len(m) == 3
        assert m.position(3) == 1
        assert m.positions([4, 1]) == [2, 0]
        assert 3 in m and 0 not in m

    def test_missing_vertex(self):
        m = IndexMap((1, 3))
        with pytest.raises(KeyError):
            m.position(2)


class TestForGraph:
    def test_defaults(self, mixed5):
        pm = ParamSet.for_graph(mixed5)
        assert pm.lam.shape == (2, 2)
        assert pm.omega.shape == (3, 3)
        assert pm.beta.shape == (5, 5)
        np.testing.assert_array_equal(pm.lam, np.eye(2))
        np.testing.assert_array_equal(pm.omega, np.eye(3))
        np.testing.assert_array_equal(pm.beta, np.zeros((5, 5)))
        assert tuple(pm.un_map.vertices) == (0, 1)
        assert tuple(pm.disp_map.vertices) == (2, 3, 4)

    def test_identity_parameters_give_identity_sigma(self, mixed5):
        pm = ParamSet.for_graph(mixed5)
        np.testing.assert_allclose(build_sigma(pm), np.eye(5), atol=1e-12)

    def test_sparsity_enforced_in_lam(self, mixed5):
        lam = np.eye(2)
        pm = ParamSet.for_graph(mixed5, lam=lam)
        assert pm.lam[0, 1] == 0.0
        bad = np.array([[1.0, 0.5], [0.5, 1.0]])
        ok = ParamSet.for_graph(mixed5, lam=bad)  # 0 - 1 is an edge
        assert ok.lam[0, 1] == 0.5
        g = AncestralGraph(3, undirected=[(0, 1)])
        with pytest.raises(ValueError):
            ParamSet.for_graph(
                g, lam=np.array([[1.0, 0.0, 0.3], [0.0, 1.0, 0.0], [0.3, 0.0, 1.0]])
            )

    def test_sparsity_enforced_in_beta(self, mixed5):
        beta = np.zeros((5, 5))
        beta[2, 0] = 0.4  # 0 is not a parent of 2
        with pytest.raises(ValueError):
            ParamSet.for_graph(mixed5, beta=beta)

    def test_sparsity_enforced_in_omega(self, mixed5):
        omega = np.eye(3)
        omega[0, 2] = omega[2, 0] = 0.2  # 2 and 4 are not spouses
        with pytest.raises(ValueError):
            ParamSet.for_graph(mixed5, omega=omega)

    def test_positive_definiteness_enforced(self, mixed5):
        omega = np.eye(3)
        omega[0, 1] = omega[1, 0] = 1.5  # 2 <-> 3 entry too large
        with pytest.raises(NotPositiveDefinite):
            ParamSet.for_graph(mixed5, omega=omega)

    def test_shape_mismatch(self, mixed5):
        with pytest.raises(DimensionMismatch):
            ParamSet.for_graph(mixed5, lam=np.eye(3))
        with pytest.raises(DimensionMismatch):
            ParamSet.for_graph(mixed5, beta=np.zeros((4, 4)))

    def test_asymmetric_rejected(self, mixed5):
        omega = np.eye(3)
        omega[0, 1] = 0.2
        with pytest.raises(NotPositiveDefinite):
            ParamSet.for_graph(mixed5, omega=omega)

    @pytest.mark.parametrize("scale", [1.0, 1e-12, 1e12])
    def test_symmetry_check_does_not_depend_on_scale(self, scale):
        g = AncestralGraph(2, bidirected=[(0, 1)])
        omega = np.array([[1.0, 0.5], [0.2, 1.0]]) * scale
        with pytest.raises(NotPositiveDefinite, match="omega is not symmetric"):
            ParamSet.for_graph(g, omega=omega)

    @pytest.mark.parametrize("scale", [1e-12, 1e12])
    def test_symmetric_input_accepted_at_any_scale(self, scale):
        g = AncestralGraph(2, bidirected=[(0, 1)])
        omega = np.array([[1.0, 0.5], [0.5, 1.0]]) * scale
        np.testing.assert_array_equal(ParamSet.for_graph(g, omega=omega).omega, omega)


class TestBuildSigma:
    def test_matches_direct_inverse_route(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            g = oracles.random_ancestral_graph(rng, 6)
            pm = oracles.random_params(g, rng)
            np.testing.assert_allclose(build_sigma(pm), oracles.dense_sigma(pm), atol=1e-10)

    def test_all_edge_kinds_match_dense_route(self):
        # sigma is assembled on the rows and columns of the vertices with
        # parents only; the dense route inverts all of I - beta
        rng = np.random.default_rng(47)
        for g in oracles.random_three_kind_graphs(rng, 25):
            pm = oracles.random_params(g, rng)
            want = oracles.dense_sigma(pm)
            got = build_sigma(pm)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_parentless_graph_gives_psi(self):
        g = AncestralGraph(
            5, undirected=[(0, 1)], bidirected=[(2, 3), (3, 4), (2, 4)]
        )
        pm = oracles.random_params(g, np.random.default_rng(53))
        np.testing.assert_array_equal(build_sigma(pm), psi(pm))
        np.testing.assert_allclose(build_sigma(pm), oracles.dense_sigma(pm), rtol=1e-12)

    def test_singular_i_minus_beta_is_typed(self):
        # a directed cycle cannot come from a graph, so the parameters are
        # built around the validation
        g = AncestralGraph(3, directed=[(0, 1)])
        beta = np.zeros((3, 3))
        beta[1, 0] = beta[0, 1] = 1.0
        pm = dataclasses.replace(ParamSet.for_graph(g), beta=beta)
        with pytest.raises(SingularMatrix):
            build_sigma(pm)

    def test_symmetric_positive_definite(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            g = oracles.random_ancestral_graph(rng, 5)
            sigma = build_sigma(oracles.random_params(g, rng))
            np.testing.assert_allclose(sigma, sigma.T, atol=1e-14)
            assert np.all(np.linalg.eigvalsh(sigma) > 0)

    def test_psi_is_block_diagonal_embed(self, mixed5):
        lam = np.array([[2.0, 0.5], [0.5, 1.0]])
        omega = np.array([[1.0, 0.3, 0.0], [0.3, 1.0, -0.2], [0.0, -0.2, 1.0]])
        pm = ParamSet.for_graph(mixed5, lam=lam, omega=omega)
        m = psi(pm)
        np.testing.assert_allclose(m[np.ix_([0, 1], [0, 1])], np.linalg.inv(lam))
        np.testing.assert_allclose(m[np.ix_([2, 3, 4], [2, 3, 4])], omega)
        assert np.all(m[np.ix_([0, 1], [2, 3, 4])] == 0)

    def test_undirected_block_is_concentration(self):
        # on a pure undirected graph, sigma is the inverse of lam
        g = AncestralGraph(3, undirected=[(0, 1), (1, 2)])
        lam = np.array([[1.0, 0.4, 0.0], [0.4, 1.5, -0.3], [0.0, -0.3, 1.2]])
        pm = ParamSet.for_graph(g, lam=lam)
        np.testing.assert_allclose(build_sigma(pm), np.linalg.inv(lam), atol=1e-12)


class TestConditionalVariance:
    def test_two_spouse_formula(self):
        g = AncestralGraph(2, bidirected=[(0, 1)])
        omega = np.array([[2.0, 0.6], [0.6, 1.5]])
        pm = ParamSet.for_graph(g, omega=omega)
        want = 2.0 - 0.6**2 / 1.5
        assert conditional_variance(pm, 0) == pytest.approx(want, abs=1e-12)

    def test_no_spouses_returns_diagonal(self, mixed5):
        pm = ParamSet.for_graph(mixed5)
        assert conditional_variance(pm, 2) == pytest.approx(1.0)

    def test_matches_full_block_conditioning(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            g = oracles.random_ancestral_graph(rng, 6)
            disp = sorted(set(range(6)) - g.un_vertices)
            pm = oracles.random_params(g, rng)
            for v in disp:
                if not g.sp(v):
                    continue
                # conditioning on all other disp coordinates collapses to the
                # spouse coordinates because the omega row is spouse-sparse
                k = pm.disp_map.position(v)
                others = [t for t in range(len(disp)) if t != k]
                om = pm.omega
                want = om[k, k] - om[k, others] @ np.linalg.solve(
                    om[np.ix_(others, others)], om[others, k]
                )
                assert conditional_variance(pm, v) == pytest.approx(want, abs=1e-9)


class TestMarkovProperty:
    def test_partial_covariance_vanishes_when_separated(self, mixed5):
        rng = np.random.default_rng(61)
        pm = oracles.random_params(mixed5, rng)
        sigma = build_sigma(pm)
        # frozen statements for this graph
        for i, j, c in [(0, 2, {1}), (0, 3, set()), (0, 4, {1}), (1, 3, set()), (1, 4, {2})]:
            assert m_separated(mixed5, {i}, {j}, c)
            assert abs(oracles.partial_covariance(sigma, i, j, c)) < 1e-10

    def test_connected_pairs_generically_correlated(self, mixed5):
        rng = np.random.default_rng(67)
        pm = oracles.random_params(mixed5, rng)
        sigma = build_sigma(pm)
        assert abs(oracles.partial_covariance(sigma, 0, 3, {2})) > 1e-6


class TestRecovery:
    def test_parameters_recoverable_from_sigma(self):
        # regression and residual-covariance read-back returns the inputs
        rng = np.random.default_rng(71)
        for _ in range(20):
            g = oracles.random_ancestral_graph(rng, 6)
            pm = oracles.random_params(g, rng)
            sigma = build_sigma(pm)
            un = sorted(g.un_vertices)
            if un:
                lam_back = np.linalg.inv(sigma[np.ix_(un, un)])
                np.testing.assert_allclose(lam_back, pm.lam, atol=1e-8)
            beta_back = np.zeros((6, 6))
            for v in range(6):
                pa = sorted(g.pa(v))
                if not pa:
                    continue
                coef = np.linalg.solve(sigma[np.ix_(pa, pa)], sigma[pa, v])
                beta_back[v, pa] = coef
            np.testing.assert_allclose(beta_back, pm.beta, atol=1e-8)
            disp = sorted(set(range(6)) - g.un_vertices)
            if disp:
                imb = np.eye(6) - pm.beta
                om_back = (imb @ sigma @ imb.T)[np.ix_(disp, disp)]
                np.testing.assert_allclose(om_back, pm.omega, atol=1e-8)
