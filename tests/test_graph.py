"""Mixed graph construction, validation, decomposition, and I/O."""

import numpy as np
import pytest

import oracles
from agfit import AncestralGraph, read_graph_csv, write_graph_csv
from agfit.errors import (
    ConditionOneViolated,
    ConditionTwoViolated,
    GraphParseError,
    InvalidCoding,
    MultiEdge,
    SelfLoop,
    UnknownVertex,
)


@pytest.fixture
def mixed5():
    # 0 - 1 -> 2 -> 4, 2 <-> 3 <-> 4
    return AncestralGraph(
        5,
        undirected=[(0, 1)],
        directed=[(1, 2), (2, 4)],
        bidirected=[(2, 3), (3, 4)],
    )


class TestConstruction:
    def test_empty_graph(self):
        g = AncestralGraph(3)
        assert g.n == 3
        assert g.edge_count == 0
        assert g.un_vertices == frozenset({0, 1, 2})
        assert g.db_vertices == frozenset()

    def test_zero_vertices(self):
        g = AncestralGraph(0)
        assert g.n == 0
        assert g.edges == ()

    def test_negative_vertex_count(self):
        with pytest.raises(ValueError):
            AncestralGraph(-1)

    def test_single_edges(self):
        assert AncestralGraph(2, undirected=[(0, 1)]).edge_count == 1
        assert AncestralGraph(2, directed=[(0, 1)]).edge_count == 1
        assert AncestralGraph(2, bidirected=[(0, 1)]).edge_count == 1

    def test_neighbour_sets(self, mixed5):
        assert mixed5.ne(2) == frozenset()
        assert mixed5.pa(2) == frozenset({1})
        assert mixed5.sp(2) == frozenset({3})
        assert mixed5.ne(0) == frozenset({1})
        assert mixed5.ch(1) == frozenset({2})
        assert mixed5.ch(2) == frozenset({4})

    def test_un_and_arrowhead_vertex_sets(self, mixed5):
        assert mixed5.un_vertices == frozenset({0, 1})
        assert mixed5.db_vertices == frozenset({1, 2, 3, 4})

    def test_adjacency_queries(self, mixed5):
        assert mixed5.is_adjacent(0, 1)
        assert mixed5.is_adjacent(4, 2)
        assert not mixed5.is_adjacent(0, 4)


class TestAncestors:
    def test_directed_paths_only(self, mixed5):
        # bidirected and undirected edges do not extend ancestry
        assert mixed5.ancestors({4}) == frozenset({1, 2, 4})
        assert mixed5.ancestors({3}) == frozenset({3})
        assert mixed5.ancestors({2}) == frozenset({1, 2})
        assert mixed5.ancestors({0}) == frozenset({0})

    def test_reflexive_and_union(self, mixed5):
        assert mixed5.ancestors({0, 4}) == frozenset({0, 1, 2, 4})
        assert mixed5.ancestors(set()) == frozenset()

    def test_numpy_vertex_arguments(self, mixed5):
        # a numpy integer is one vertex; an array is a set of vertices
        for v in range(5):
            assert mixed5.ancestors(np.int64(v)) == mixed5.ancestors(v)
        assert mixed5.ancestors(np.array([0, 4])) == mixed5.ancestors({0, 4})
        assert mixed5.ancestors(np.array([3])) == frozenset({3})

    def test_matches_path_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            g = oracles.random_ancestral_graph(rng, 6)
            for v in range(6):
                got = g.ancestors({v})
                # directed-path closure by worklist over parent sets
                want = {v}
                stack = [v]
                while stack:
                    w = stack.pop()
                    for u in g.pa(w):
                        if u not in want:
                            want.add(u)
                            stack.append(u)
                assert got == frozenset(want)


class TestValidation:
    def test_undirected_neighbour_with_arrowhead(self):
        with pytest.raises(ConditionOneViolated) as err:
            AncestralGraph(3, undirected=[(0, 1)], bidirected=[(1, 2)])
        assert err.value.vertex == 1

    def test_undirected_neighbour_with_parent(self):
        with pytest.raises(ConditionOneViolated):
            AncestralGraph(3, undirected=[(0, 1)], directed=[(2, 1)])

    def test_directed_cycle(self):
        with pytest.raises(ConditionTwoViolated):
            AncestralGraph(3, directed=[(0, 1), (1, 2), (2, 0)])

    def test_ancestor_of_spouse(self):
        # 0 -> 1 with 0 <-> 1 makes 0 an ancestor of its spouse
        with pytest.raises(MultiEdge):
            AncestralGraph(2, directed=[(0, 1)], bidirected=[(0, 1)])
        with pytest.raises(ConditionTwoViolated):
            AncestralGraph(3, directed=[(0, 1), (1, 2)], bidirected=[(0, 2)])

    def test_two_vertex_cycle_is_multi_edge(self):
        with pytest.raises(MultiEdge):
            AncestralGraph(2, directed=[(0, 1), (1, 0)])

    def test_self_loop(self):
        with pytest.raises(SelfLoop):
            AncestralGraph(2, undirected=[(1, 1)])
        with pytest.raises(SelfLoop):
            AncestralGraph(2, directed=[(0, 0)])

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertex):
            AncestralGraph(2, directed=[(0, 5)])
        with pytest.raises(UnknownVertex):
            AncestralGraph(2, undirected=[(-1, 0)])

    def test_duplicate_edge_same_kind(self):
        with pytest.raises(MultiEdge):
            AncestralGraph(2, undirected=[(0, 1), (1, 0)])

    def test_directed_into_undirected_component(self):
        # arrowhead at a vertex with a neighbour is rejected even deep in a chain
        with pytest.raises(ConditionOneViolated):
            AncestralGraph(4, undirected=[(0, 1), (1, 2)], directed=[(3, 2)])


class TestDecompose:
    def test_mixed_example(self, mixed5):
        dec = mixed5.decompose()
        assert dec.un == (0, 1)
        assert dec.db == (1, 2, 3, 4)
        assert dec.g_un.n == 2
        assert dec.g_un.undirected_pairs == ((0, 1),)
        assert dec.g_db.n == 4
        # indices compacted: 1,2,3,4 -> 0,1,2,3
        assert dec.g_db.directed_pairs == ((0, 1), (1, 3))
        assert set(dec.g_db.bidirected_pairs) == {(1, 2), (2, 3)}

    def test_pure_undirected(self):
        g = AncestralGraph(3, undirected=[(0, 1), (1, 2)])
        dec = g.decompose()
        assert dec.un == (0, 1, 2)
        assert dec.db == ()
        assert dec.g_db.n == 0

    def test_union_covers_graph(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = oracles.random_ancestral_graph(rng, 6)
            dec = g.decompose()
            assert set(dec.un) == set(g.un_vertices)
            assert set(dec.db) == set(g.db_vertices)
            # g_un carries every undirected edge; g_db every edge with an arrowhead
            assert dec.g_un.edge_count == len(g.undirected_pairs)
            assert len(dec.g_db.directed_pairs) == len(g.directed_pairs)
            assert len(dec.g_db.bidirected_pairs) == len(g.bidirected_pairs)

    def test_subgraph_keeps_induced_edges(self, mixed5):
        h = mixed5.subgraph([1, 2, 3])
        assert h.n == 3
        assert h.directed_pairs == ((0, 1),)
        assert h.bidirected_pairs == ((1, 2),)
        assert h.undirected_pairs == ()


class TestAdjacencyMatrix:
    def test_coding(self, mixed5):
        a = mixed5.to_adjacency()
        assert a[0, 1] == 1 and a[1, 0] == 1
        assert a[1, 2] == 1 and a[2, 1] == 0
        assert a[2, 3] == 2 and a[3, 2] == 2
        assert np.all(np.diag(a) == 0)

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            g = oracles.random_ancestral_graph(rng, 6)
            h = AncestralGraph.from_adjacency(g.to_adjacency())
            assert h == g

    def test_invalid_coding_rejected(self):
        a = np.zeros((2, 2), dtype=int)
        a[0, 1], a[1, 0] = 2, 1
        with pytest.raises(InvalidCoding) as err:
            AncestralGraph.from_adjacency(a)
        assert err.value.pair == (0, 1)
        a[0, 1], a[1, 0] = 0, 2
        with pytest.raises(InvalidCoding):
            AncestralGraph.from_adjacency(a)
        a[0, 1], a[1, 0] = 3, 3
        with pytest.raises(InvalidCoding):
            AncestralGraph.from_adjacency(a)

    def test_diagonal_must_be_zero(self):
        a = np.zeros((2, 2), dtype=int)
        a[0, 0] = 1
        with pytest.raises(SelfLoop):
            AncestralGraph.from_adjacency(a)


class TestCsv:
    def test_round_trip_default_labels(self, tmp_path, mixed5):
        path = tmp_path / "g.csv"
        write_graph_csv(mixed5, path)
        assert read_graph_csv(path) == mixed5

    def test_plain_matrix_without_labels(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("0,1,0\n0,0,2\n0,2,0\n")
        g = read_graph_csv(path)
        assert g.directed_pairs == ((0, 1),)
        assert g.bidirected_pairs == ((1, 2),)

    def test_round_trip_labeled(self, tmp_path):
        g = AncestralGraph(3, directed=[(0, 1), (1, 2)], labels=("a", "b", "c"))
        path = tmp_path / "g.csv"
        write_graph_csv(g, path)
        h = read_graph_csv(path)
        assert h == g
        assert h.labels == ("a", "b", "c")

    def test_header_only(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("x,y\n0,1\n0,0\n")
        g = read_graph_csv(path)
        assert g.labels == ("x", "y")
        assert g.directed_pairs == ((0, 1),)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("0,1,0\n1,0\n0,0,0\n")
        with pytest.raises(GraphParseError) as err:
            read_graph_csv(path)
        assert err.value.line == 2

    def test_non_integer_cell_rejected(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("0,x\n1,0\n")
        with pytest.raises(GraphParseError):
            read_graph_csv(path)

    def test_non_square_rejected(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("0,1\n1,0\n0,0\n")
        with pytest.raises(GraphParseError):
            read_graph_csv(path)


class TestLabels:
    def test_default_labels_are_indices(self, mixed5):
        assert mixed5.labels == ("0", "1", "2", "3", "4")

    def test_label_index(self):
        g = AncestralGraph(2, labels=("u", "v"))
        assert g.label_index("v") == 1
        with pytest.raises(UnknownVertex):
            g.label_index("w")

    def test_wrong_label_count(self):
        with pytest.raises(ValueError):
            AncestralGraph(2, labels=("only",))

    def test_duplicate_labels(self):
        with pytest.raises(ValueError):
            AncestralGraph(2, labels=("a", "a"))


class TestEquality:
    def test_edge_order_ignored(self):
        g = AncestralGraph(3, directed=[(0, 1), (1, 2)])
        h = AncestralGraph(3, directed=[(1, 2), (0, 1)])
        assert g == h
        assert hash(g) == hash(h)

    def test_kind_matters(self):
        g = AncestralGraph(2, directed=[(0, 1)])
        h = AncestralGraph(2, bidirected=[(0, 1)])
        assert g != h
