"""
Building ancestral graphs and reading independences off them
============================================================

Walks through the graph layer: constructing a mixed graph with all three
edge kinds, checking the ancestral conditions, splitting it into its
undirected and directed/bidirected parts, and querying m-separation.
"""

import os
import tempfile

import numpy as np

from agfit import (
    AncestralGraph,
    GraphError,
    implied_pairwise_independences,
    is_maximal,
    m_separated,
    maximal_completion,
    read_graph_csv,
    separating_set,
    write_graph_csv,
)

# A five vertex graph with one edge of each kind plus one more:
#
#   a - b -> c -> e,  c <-> d <-> e
#
# Vertices with an undirected neighbour may not also have parents or
# spouses, and no vertex may be an ancestor of its own parents or
# spouses.  The constructor checks both.
g = AncestralGraph(
    5,
    undirected=[(0, 1)],
    directed=[(1, 2), (2, 4)],
    bidirected=[(2, 3), (3, 4)],
    labels=["a", "b", "c", "d", "e"],
)
print(g)
print("edges:", g.edges)

# Local neighbourhoods per vertex kind.
print("ne(a):", sorted(g.ne(0)))
print("pa(c):", sorted(g.pa(2)))
print("sp(d):", sorted(g.sp(3)))

# Ancestors follow directed edges only.  e is reached from b through
# b -> c -> e, so an({e}) is {b, c, e}; the bidirected edges into e do
# not count.
print("an({e}):", sorted(g.ancestors([4])))

# The graph splits into an undirected part (vertices without arrowheads
# pointing at them) and a directed/bidirected remainder.  Fitting treats
# the two parts separately.
dec = g.decompose()
print("undirected block vertices:", sorted(dec.un))
print("remainder vertices:", sorted(dec.db))

# Trying to break condition (i): b already has an undirected neighbour,
# so giving it a parent is rejected.
try:
    AncestralGraph(3, undirected=[(0, 1)], directed=[(2, 1)])
except GraphError as err:
    print("rejected:", err)

# m-separation answers conditional independence queries against the
# graph.  a and c are separated by b (every path passes through the
# noncollider b), but d and e are connected outright via d <-> e.
print("a indep c given b:", m_separated(g, {0}, {2}, {1}))
print("d indep e given {}:", m_separated(g, {3}, {4}, set()))

# separating_set finds a smallest separator or reports there is none.
print("separator of a, e:", separating_set(g, 0, 4))
print("separator of c, d:", separating_set(g, 2, 3))

# All pairwise independences the graph encodes, one per nonadjacent
# pair that admits a separator.
for stmt in implied_pairwise_independences(g):
    print(stmt)

# A graph is maximal when every nonadjacent pair has a separator.  This
# four vertex graph is not: vertices 0 and 3 cannot be separated even
# though they are nonadjacent.  Completion adds exactly the edges
# needed, without changing the independence model.
h = AncestralGraph(
    4,
    directed=[(1, 3), (2, 0)],
    bidirected=[(0, 1), (1, 2), (2, 3)],
)
print("maximal:", is_maximal(h))
h_max = maximal_completion(h)
print("added edges:", sorted(set(h_max.edges) - set(h.edges)))
print("now maximal:", is_maximal(h_max))

# Graphs round trip through a small CSV adjacency format.  Codes:
# a[i,j] = a[j,i] = 1 for i - j, a[i,j] = a[j,i] = 2 for i <-> j, and
# a[i,j] = 1 with a[j,i] = 0 for i -> j.
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "demo_graph.csv")
    write_graph_csv(g, path)
    g_back = read_graph_csv(path)
print("round trip equal:", g_back == g)

# The same encoding as a dense matrix, for interop with array code.
print(np.array(g.to_adjacency()))
