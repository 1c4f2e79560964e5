"""m-separation queries, maximality, and completion."""

from itertools import combinations

import networkx as nx
import numpy as np
import pytest

import oracles
from agfit import (
    AncestralGraph,
    SampleStats,
    bidirected_cycle_graph,
    fit,
    implied_pairwise_independences,
    is_maximal,
    m_separated,
    maximal_completion,
    separating_set,
)
from agfit.errors import NotMaximal, OverlappingSets, UnknownVertex
from agfit.mseparation import _inseparable_pairs


@pytest.fixture
def mixed5():
    return AncestralGraph(
        5,
        undirected=[(0, 1)],
        directed=[(1, 2), (2, 4)],
        bidirected=[(2, 3), (3, 4)],
    )


class TestBasicQueries:
    def test_chain_blocks_on_middle(self):
        g = AncestralGraph(3, directed=[(0, 1), (1, 2)])
        assert not m_separated(g, {0}, {2}, set())
        assert m_separated(g, {0}, {2}, {1})

    def test_collider_opens_on_conditioning(self):
        g = AncestralGraph(3, directed=[(0, 1), (2, 1)])
        assert m_separated(g, {0}, {2}, set())
        assert not m_separated(g, {0}, {2}, {1})

    def test_collider_opens_on_descendant(self):
        g = AncestralGraph(4, directed=[(0, 1), (2, 1), (1, 3)])
        assert not m_separated(g, {0}, {2}, {3})

    def test_bidirected_collider(self):
        g = AncestralGraph(3, bidirected=[(0, 1), (1, 2)])
        assert m_separated(g, {0}, {2}, set())
        assert not m_separated(g, {0}, {2}, {1})

    def test_mixed_example(self, mixed5):
        assert m_separated(mixed5, {0}, {2}, {1})
        assert m_separated(mixed5, {0}, {3}, set())
        assert not m_separated(mixed5, {0}, {3}, {2})
        assert m_separated(mixed5, {1}, {4}, {2})
        assert not m_separated(mixed5, {1}, {4}, {2, 3})

    def test_set_arguments(self, mixed5):
        assert m_separated(mixed5, {0, 1}, {3}, set())
        assert not m_separated(mixed5, {0, 3}, {4}, set())

    def test_adjacent_never_separated(self, mixed5):
        for i, j in [(0, 1), (1, 2), (2, 3), (2, 4), (3, 4)]:
            rest = set(range(5)) - {i, j}
            for r in range(len(rest) + 1):
                for c in combinations(sorted(rest), r):
                    assert not m_separated(mixed5, {i}, {j}, set(c))


class TestQueryValidation:
    def test_overlap_rejected(self, mixed5):
        with pytest.raises(OverlappingSets):
            m_separated(mixed5, {0, 2}, {2}, set())
        with pytest.raises(OverlappingSets):
            m_separated(mixed5, {0}, {2}, {0})

    def test_empty_side_rejected(self, mixed5):
        with pytest.raises(ValueError):
            m_separated(mixed5, set(), {2}, set())

    def test_unknown_vertex_rejected(self, mixed5):
        with pytest.raises(Exception):
            m_separated(mixed5, {0}, {9}, set())


class TestAgainstPathEnumeration:
    def _check_all(self, g):
        p = g.n
        for i, j in combinations(range(p), 2):
            rest = sorted(set(range(p)) - {i, j})
            for r in range(len(rest) + 1):
                for c in combinations(rest, r):
                    lib = not m_separated(g, {i}, {j}, set(c))
                    assert lib == oracles.brute_m_connecting(g, i, j, set(c))

    def test_exhaustive_three_vertices(self):
        for g in oracles.all_ancestral_graphs(3):
            self._check_all(g)

    def test_random_five_vertices(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            self._check_all(oracles.random_ancestral_graph(rng, 5))


class TestAgainstMoralization:
    def test_random_dags(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            g = oracles.random_dag(rng, 6)
            for _ in range(30):
                verts = list(rng.permutation(6))
                i, j = verts[0], verts[1]
                c = {v for v in verts[2:] if rng.random() < 0.4}
                assert m_separated(g, {i}, {j}, c) == oracles.moral_d_separated(
                    g, {i}, {j}, c
                )


class TestUndirectedReduction:
    # with no arrowheads, m-separation is plain vertex-cut separation
    def test_matches_graph_cut(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            p = 6
            edges = [
                (i, j)
                for i, j in combinations(range(p), 2)
                if rng.random() < 0.4
            ]
            g = AncestralGraph(p, undirected=edges)
            nxg = nx.Graph()
            nxg.add_nodes_from(range(p))
            nxg.add_edges_from(edges)
            for _ in range(20):
                verts = list(rng.permutation(p))
                i, j = verts[0], verts[1]
                c = {v for v in verts[2:] if rng.random() < 0.4}
                h = nxg.subgraph(set(range(p)) - c)
                cut = not nx.has_path(h, i, j)
                assert m_separated(g, {i}, {j}, c) == cut

    def test_smallest_set_is_a_minimum_vertex_cut(self):
        # larger than the graphs of the exhaustive oracle below; the size
        # of the set is checked against networkx's minimum vertex cut
        rng = np.random.default_rng(53)
        for _ in range(30):
            p = int(rng.integers(9, 12))
            edges = [
                (i, j)
                for i, j in combinations(range(p), 2)
                if rng.random() < 0.35
            ]
            g = AncestralGraph(p, undirected=edges)
            nxg = nx.Graph(edges)
            nxg.add_nodes_from(range(p))
            for i, j in combinations(range(p), 2):
                if nxg.has_edge(i, j):
                    continue
                c = separating_set(g, i, j)
                cut = nx.minimum_node_cut(nxg, i, j) if nx.has_path(nxg, i, j) else ()
                assert len(c) == len(cut)
                assert m_separated(g, {i}, {j}, c)


class TestSeparatingSet:
    def test_smallest_is_returned(self, mixed5):
        assert separating_set(mixed5, 0, 2) == frozenset({1})
        assert separating_set(mixed5, 0, 3) == frozenset()
        assert separating_set(mixed5, 1, 4) == frozenset({2})

    def test_none_for_adjacent(self, mixed5):
        assert separating_set(mixed5, 2, 3) is None

    def test_same_or_unknown_vertex_rejected(self, mixed5):
        for v in range(mixed5.n):
            with pytest.raises(OverlappingSets):
                separating_set(mixed5, v, v)
        for i, j in [(0, 5), (5, 0), (-1, 2), (5, 5)]:
            with pytest.raises(UnknownVertex):
                separating_set(mixed5, i, j)

    def test_none_when_inseparable(self):
        g = AncestralGraph(
            4, directed=[(1, 3), (2, 0)], bidirected=[(0, 1), (1, 2), (2, 3)]
        )
        assert separating_set(g, 0, 3) is None

    def test_flow_rerouted_through_a_vertex(self):
        # the second disjoint 0-1 path is found only by cancelling flow
        # through a vertex of the first, from its exit back to its entry
        g = AncestralGraph(
            9,
            undirected=[(0, 3), (0, 5), (0, 8), (1, 2), (1, 4), (2, 6), (2, 8),
                        (3, 4), (3, 6), (3, 7), (5, 8)],
        )
        assert separating_set(g, 0, 1) == frozenset({2, 3})

    def test_gadget_and_chain_in_twenty_vertices(self):
        # the 4-vertex inducing-path gadget followed by a directed chain
        g = AncestralGraph(
            20,
            directed=[(1, 3), (2, 0)] + [(v, v + 1) for v in range(3, 19)],
            bidirected=[(0, 1), (1, 2), (2, 3)],
        )
        assert separating_set(g, 0, 3) is None
        assert separating_set(g, 3, 5) == frozenset({4})
        assert separating_set(g, 1, 19) == frozenset({3})

    def test_bidirected_cycle_of_twenty(self):
        g = bidirected_cycle_graph(20)
        assert separating_set(g, 0, 10) == frozenset()
        records = implied_pairwise_independences(g)
        assert len(records) == 170
        assert all(st.holds and st.c == frozenset() for st in records)


class TestImpliedIndependences:
    def test_mixed_example(self, mixed5):
        got = implied_pairwise_independences(mixed5)
        stmts = {(s.a, s.b): s.c for s in got}
        assert stmts == {
            (frozenset({0}), frozenset({2})): frozenset({1}),
            (frozenset({0}), frozenset({3})): frozenset(),
            (frozenset({0}), frozenset({4})): frozenset({1}),
            (frozenset({1}), frozenset({3})): frozenset(),
            (frozenset({1}), frozenset({4})): frozenset({2}),
        }

    def test_complete_graph_implies_nothing(self):
        g = AncestralGraph(3, bidirected=[(0, 1), (0, 2), (1, 2)])
        assert implied_pairwise_independences(g) == ()


class TestMaximality:
    def test_mixed_example_is_maximal(self, mixed5):
        assert is_maximal(mixed5)

    def test_inseparable_nonadjacent_pair(self):
        g = AncestralGraph(
            4, directed=[(1, 3), (2, 0)], bidirected=[(0, 1), (1, 2), (2, 3)]
        )
        assert not is_maximal(g)

    def test_completion_adds_bidirected_edge(self):
        g = AncestralGraph(
            4, directed=[(1, 3), (2, 0)], bidirected=[(0, 1), (1, 2), (2, 3)]
        )
        h = maximal_completion(g)
        assert is_maximal(h)
        assert set(h.bidirected_pairs) - set(g.bidirected_pairs) == {(0, 3)}
        assert h.directed_pairs == g.directed_pairs
        assert h.undirected_pairs == g.undirected_pairs

    def test_completion_preserves_independence_model(self):
        g = AncestralGraph(
            4, directed=[(1, 3), (2, 0)], bidirected=[(0, 1), (1, 2), (2, 3)]
        )
        h = maximal_completion(g)
        for i, j in combinations(range(4), 2):
            rest = sorted(set(range(4)) - {i, j})
            for r in range(len(rest) + 1):
                for c in combinations(rest, r):
                    assert m_separated(g, {i}, {j}, set(c)) == m_separated(
                        h, {i}, {j}, set(c)
                    )

    def test_completion_fixes_maximal_graphs(self, mixed5):
        assert maximal_completion(mixed5) == mixed5

    def test_dags_are_maximal(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            assert is_maximal(oracles.random_dag(rng, 5))


def _exhaustive_separating_sets(g):
    """First separating set of each non-adjacent pair, or None.

    Subsets of the other vertices are scanned by size and then
    lexicographically, so a set is the lexicographically first of the
    smallest ones.
    """
    out = {}
    for i, j in combinations(range(g.n), 2):
        if g.is_adjacent(i, j):
            continue
        rest = [v for v in range(g.n) if v != i and v != j]
        out[i, j] = next(
            (
                frozenset(c)
                for r in range(len(rest) + 1)
                for c in combinations(rest, r)
                if m_separated(g, {i}, {j}, set(c))
            ),
            None,
        )
    return out


class TestMaximalityAgainstExhaustiveSearch:
    def _check(self, g):
        sets = _exhaustive_separating_sets(g)
        want = [pair for pair, c in sets.items() if c is None]
        assert is_maximal(g) == (not want)
        for (i, j), c in sets.items():
            assert separating_set(g, i, j) == c
        h = maximal_completion(g)
        assert is_maximal(h)
        assert sorted(set(h.bidirected_pairs) - set(g.bidirected_pairs)) == want
        assert h.directed_pairs == g.directed_pairs
        assert h.undirected_pairs == g.undirected_pairs

    def test_every_graph_up_to_four_vertices(self):
        for p in range(1, 5):
            for g in oracles.all_ancestral_graphs_pruned(p):
                self._check(g)

    def test_random_graphs_five_to_eight_vertices(self):
        rng = np.random.default_rng(41)
        for p in range(5, 9):
            for _ in range(200):
                self._check(oracles.random_ancestral_graph(rng, p, q=0.5))

    def test_random_graphs_with_planted_gadget(self):
        # random draws are almost always maximal; a planted inducing path
        # makes the non-maximal case the common one
        rng = np.random.default_rng(47)
        graphs = [
            oracles.random_gadget_graph(rng, p) for p in range(5, 9) for _ in range(50)
        ]
        non_maximal = 0
        for g in graphs:
            self._check(g)
            non_maximal += not is_maximal(g)
        assert non_maximal >= len(graphs) // 2

    def test_gadget_in_twenty_vertices(self):
        # the 4-vertex inducing-path gadget followed by a directed chain
        g = AncestralGraph(
            20,
            directed=[(1, 3), (2, 0)] + [(v, v + 1) for v in range(3, 19)],
            bidirected=[(0, 1), (1, 2), (2, 3)],
        )
        assert not is_maximal(g)
        h = maximal_completion(g)
        assert set(h.bidirected_pairs) - set(g.bidirected_pairs) == {(0, 3)}
        with pytest.raises(NotMaximal):
            fit(g, SampleStats.from_covariance(np.eye(20), 50))


def _inseparable_by_walk(g, i, j):
    """The walk-based route: no set separates the non-adjacent pair exactly
    when A = ant({i, j}) less the pair does not (Richardson and Spirtes,
    2002, Theorem 4.2)."""
    anterior, stack = {i, j}, [i, j]
    while stack:
        v = stack.pop()
        for w in g.pa(v) | g.ne(v):
            if w not in anterior:
                anterior.add(w)
                stack.append(w)
    return not m_separated(g, {i}, {j}, anterior - {i, j})


def _district_chain_graph(p, seed, gadgets=(), deep=False):
    """Districts of four consecutive vertices, each a bidirected path; every
    vertex has up to two parents (``deep``: exactly two, where it can)
    among the 12 vertices of the three districts before its own.  A gadget
    at district start d adds d+1 -> d+3 and d+2 -> d, an inducing path
    between d and d+3."""
    rng = np.random.default_rng(seed)
    directed, bidirected = [], []
    for v in range(p):
        start = v - v % 4
        if v > start:
            bidirected.append((v - 1, v))
        earlier = range(max(0, start - 12), start)
        k = min(2 if deep else int(rng.integers(0, 3)), len(earlier))
        directed += [(int(u), v) for u in rng.choice(earlier, size=k, replace=False)]
    for d in gadgets:
        directed += [(d + 1, d + 3), (d + 2, d)]
    return AncestralGraph(p, directed=directed, bidirected=bidirected)


class TestInseparabilityAgainstWalk:
    def _check(self, g):
        walk = []
        for i, j in combinations(range(g.n), 2):
            if g.is_adjacent(i, j):
                continue
            inseparable = _inseparable_by_walk(g, i, j)
            assert (separating_set(g, i, j) is None) == inseparable
            if inseparable:
                walk.append((i, j))
        added = set(maximal_completion(g).bidirected_pairs) - set(g.bidirected_pairs)
        assert sorted(added) == walk
        return walk

    def test_random_graphs_six_to_twelve_vertices(self):
        rng = np.random.default_rng(59)
        for p in range(6, 13):
            for _ in range(30):
                self._check(oracles.random_ancestral_graph(rng, p, q=0.5))

    def test_gadget_graphs_six_to_twelve_vertices(self):
        rng = np.random.default_rng(61)
        for p in range(6, 13):
            for _ in range(30):
                assert self._check(oracles.random_gadget_graph(rng, p))

    def test_two_gadgets_among_two_hundred_vertices(self):
        planted = [(40, 43), (152, 155)]
        base = _district_chain_graph(200, seed=67)
        g = _district_chain_graph(200, seed=67, gadgets=[i for i, _ in planted])
        assert is_maximal(base)
        h = maximal_completion(g)
        assert sorted(set(h.bidirected_pairs) - set(g.bidirected_pairs)) == planted
        assert all(_inseparable_by_walk(g, i, j) for i, j in planted)
        assert is_maximal(h)

    def test_deep_chain_of_a_hundred_vertices(self):
        g = _district_chain_graph(100, seed=71, gadgets=(20, 64), deep=True)
        walk = [
            (i, j)
            for i, j in combinations(range(g.n), 2)
            if not g.is_adjacent(i, j) and _inseparable_by_walk(g, i, j)
        ]
        assert (20, 23) in walk and (64, 67) in walk
        assert _inseparable_pairs(g) == walk


class TestSeparatingSetAgainstFlows:
    # beyond exhaustive search: the per-candidate flow search of the oracle
    # runs a fresh maximum flow for every vertex of ant({i, j})

    def _check(self, g):
        records = implied_pairwise_independences(g)
        for st in records:
            (i,), (j,) = st.a, st.b
            want = oracles.separating_set_by_flows(g, i, j)
            assert (st.c if st.holds else None) == want, (i, j)
        return records

    def test_random_undirected_graphs(self):
        rng = np.random.default_rng(73)
        largest = 0
        for p in (12, 16, 20, 24, 30):
            edges = [(i, j) for i, j in combinations(range(p), 2) if rng.random() < 0.4]
            records = self._check(AncestralGraph(p, undirected=edges))
            largest = max(largest, max(len(st.c) for st in records))
        assert largest >= 3

    def test_deep_district_chains(self):
        for p, seed in ((25, 79), (32, 83), (40, 89)):
            records = self._check(_district_chain_graph(p, seed, deep=True))
            assert max(len(st.c) for st in records) == 2

    def test_planted_gadgets(self):
        rng = np.random.default_rng(97)
        graphs = [
            oracles.random_gadget_graph(rng, p, q=0.5) for p in range(9, 15) for _ in range(5)
        ]
        graphs.append(_district_chain_graph(40, seed=101, gadgets=(8, 24), deep=True))
        for g in graphs:
            assert not all(st.holds for st in self._check(g))


class TestRepeatedQueries:
    # every query reads the bitset table that the graph builds at construction

    @staticmethod
    def _answers(g):
        pairs = [(i, j) for i, j in combinations(range(g.n), 2) if not g.is_adjacent(i, j)]
        return (
            is_maximal(g),
            [separating_set(g, i, j) for i, j in pairs],
            maximal_completion(g),
            [m_separated(g, {i}, {j}, set(range(g.n)) - {i, j}) for i, j in pairs],
            implied_pairwise_independences(g),
            is_maximal(g),
        )

    def test_interleaved_queries_match_a_fresh_graph(self):
        rng = np.random.default_rng(103)
        for p in (6, 9, 12):
            for g in (
                oracles.random_gadget_graph(rng, p, q=0.5),
                oracles.random_ancestral_graph(rng, p, q=0.5),
            ):
                first = self._answers(g)
                again = self._answers(g)
                fresh = self._answers(
                    AncestralGraph(g.n, g.undirected_pairs, g.directed_pairs, g.bidirected_pairs)
                )
                assert first == again == fresh

    def test_a_queried_graph_equals_and_hashes_like_a_fresh_one(self):
        g = _district_chain_graph(40, seed=107, gadgets=(8,), deep=True)
        h = AncestralGraph(g.n, g.undirected_pairs, g.directed_pairs, g.bidirected_pairs)
        maximal_completion(h)
        assert g == h and hash(g) == hash(h)
        assert {g: 1}[h] == 1

    def test_no_vertex_with_spouse_and_child_is_maximal_and_own_completion(self):
        # only a vertex with both a spouse and a child can start an
        # inseparable pair
        g = bidirected_cycle_graph(50)
        assert is_maximal(g)
        assert maximal_completion(g) is g
