"""m-separation queries, implied independences, and maximality.

A path m-connects two vertices given a conditioning set C when every
non-endpoint vertex at which both incident edges carry an arrowhead (a
collider) is an ancestor of C, and every other non-endpoint vertex is
outside C.  Queries are answered by reachability over (vertex, entering
mark) states, which visits each directed edge at most twice instead of
enumerating paths.

Maximality checking and completion need no walk.  A non-adjacent pair
i, j can be m-separated if and only if A = ant({i, j}) less the pair
separates it.  That fails exactly when a collider path
i *-> d1 <-> ... <-> dk <-* j runs inside A, which in an ancestral graph
means that i and j lie in one district of G_A.  Adding a bidirected edge
between every such pair makes the graph maximal (Richardson and Spirtes,
2002, Theorems 3.18, 4.2 and 5.1).  Only the public queries walk.

Smallest separating sets are polynomial too, with no size limit: every
smallest m-separator of i and j lies in A = ant({i, j}), where it is a
minimum i-j vertex cut of the augmented graph of G_A (van der Zander,
Liskiewicz and Textor, 2019); ``separating_set`` returns the
lexicographically first.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import OverlappingSets
from .graph import AncestralGraph

TAIL = 0
ARROW = 1


@dataclass(frozen=True)
class SeparationQuery:
    """A triple (A, B, C) of pairwise disjoint vertex sets, A and B nonempty."""

    a: frozenset
    b: frozenset
    c: frozenset

    def __post_init__(self):
        a = frozenset(self.a)
        b = frozenset(self.b)
        c = frozenset(self.c)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        if not a or not b:
            raise ValueError("query sets A and B must be nonempty")
        if a & b or a & c or b & c:
            raise OverlappingSets("query sets must be pairwise disjoint")


@dataclass(frozen=True)
class IndependenceStatement:
    """A pairwise independence record produced by the implied-model scan.

    ``holds`` is False when no conditioning set separates the pair, in
    which case ``c`` is empty and meaningless.
    """

    a: frozenset
    b: frozenset
    c: frozenset
    holds: bool


def _step_table(g: AncestralGraph) -> tuple:
    """Per vertex v, a tuple of (w, mark_at_v, mark_at_w), one for every
    edge incident to v.  Built on the first query and kept on the graph,
    which is immutable."""
    table = getattr(g, "_step_table", None)
    if table is not None:
        return table
    table = tuple(
        tuple((w, TAIL, TAIL) for w in g.ne(v))
        + tuple((w, TAIL, ARROW) for w in g.ch(v))
        + tuple((w, ARROW, TAIL) for w in g.pa(v))
        + tuple((w, ARROW, ARROW) for w in g.sp(v))
        for v in range(g.n)
    )
    g._step_table = table
    return table


def m_connecting_path_exists(g: AncestralGraph, i, j, c=frozenset()) -> bool:
    """True when some path m-connects ``i`` and ``j`` given ``c``.

    Walk-based reachability over (vertex, entering mark) states; a walk
    that m-connects can always be shortened to a path that does, so the
    answer matches path enumeration.
    """
    i = g._check_vertex(i)
    j = g._check_vertex(j)
    c = frozenset(g._check_vertex(x) for x in c)
    if i == j or i in c or j in c:
        raise OverlappingSets("endpoints must be distinct and outside C")

    steps = _step_table(g)
    anc_c = g.ancestors(c) if c else frozenset()
    seen = set()
    stack = []
    for w, _, mark_w in steps[i]:
        state = (w, mark_w)
        if state not in seen:
            seen.add(state)
            stack.append(state)
    while stack:
        v, mark_in = stack.pop()
        if v == j:
            return True
        for w, mark_v, mark_w in steps[v]:
            if mark_in == ARROW and mark_v == ARROW:
                if v not in anc_c:
                    continue
            else:
                if v in c:
                    continue
            state = (w, mark_w)
            if state not in seen:
                seen.add(state)
                stack.append(state)
    return False


def m_separated(g: AncestralGraph, a, b, c=frozenset()) -> bool:
    """True when every pair across A and B is m-separated given C."""
    if isinstance(a, (int,)) or isinstance(b, (int,)):
        raise TypeError("A and B must be vertex sets")
    q = SeparationQuery(frozenset(a), frozenset(b), frozenset(c))
    return not any(
        m_connecting_path_exists(g, i, j, q.c) for i in q.a for j in q.b
    )


def _reachable(start, step) -> set:
    """Vertices reached from ``start`` by one or more moves of ``step``."""
    out = set()
    stack = list(start)
    while stack:
        for w in step(stack.pop()):
            if w not in out:
                out.add(w)
                stack.append(w)
    return out


def _anterior(g: AncestralGraph, i: int, j: int) -> set:
    """ant({i, j}): the pair and every vertex with a path of directed and
    undirected edges, pointing towards the pair, into it."""
    return _reachable((i, j), lambda v: g.pa(v) | g.ne(v)) | {i, j}


def _district(g: AncestralGraph, start, a) -> set:
    """``start`` and the vertices joined to it by bidirected paths inside ``a``."""
    return _reachable(start, lambda u: g.sp(u) & a) | set(start)


def _inseparable(g: AncestralGraph, i: int, j: int) -> bool:
    """True when no set m-separates the non-adjacent pair ``i``, ``j``.

    That happens exactly when i and j are adjacent in the augmented graph
    of G_A, A = ant({i, j}), that is, when a collider path
    i *-> d1 <-> ... <-> dk <-* j runs inside A (Richardson and Spirtes,
    2002, Theorems 3.18 and 4.2).  Its end edges are bidirected too: an
    edge i -> d1 in A makes d1, and so i, an ancestor of j; then dk, an
    ancestor of i or j, is an ancestor of j, which dk <-* j rules out.
    With i and j swapped the same holds, so the test is whether i and j
    lie in one district of G_A.
    """
    return j in _district(g, (i,), _anterior(g, i, j))


def _inseparable_pairs(g: AncestralGraph) -> list:
    """Non-adjacent pairs (i, j), i < j, that no set m-separates, in order.

    Such a pair is joined by a path i <-> v1 <-> ... <-> vk <-> j inside
    ant({i, j}).  The spouse v1 of i is not an ancestor of i, so it is a
    proper ancestor of j.  Only pairs of a spouse i of a vertex v1 with
    children and a proper descendant j of v1 are tested: each test runs
    an anterior search, too costly to repeat on every pair.
    """
    pairs = set()
    for v in range(g.n):
        if not g.sp(v) or not g.ch(v):
            continue
        below = _reachable((v,), g.ch)
        for i in g.sp(v):
            for j in below:
                if not g.is_adjacent(i, j):
                    pairs.add((min(i, j), max(i, j)))
    return [pair for pair in sorted(pairs) if _inseparable(g, *pair)]


def _augmented_graph(g: AncestralGraph, i: int, j: int) -> dict:
    """Neighbour sets of the augmented graph of G_A, A = ant({i, j}): two
    vertices of A are adjacent when adjacent in G, or when both lie in D or
    pa(D) for one district D of G_A, since a collider path joins them."""
    a = _anterior(g, i, j)
    nbr = {v: (g.ne(v) | g.pa(v) | g.ch(v) | g.sp(v)) & a for v in a}
    todo = set(a)
    while todo:
        district = _district(g, (todo.pop(),), a)
        todo -= district
        married = district.union(*(g.pa(u) for u in district))
        for u in married:
            nbr[u] |= married - {u}
    return nbr


def _cut_size(nbr: dict, i: int, j: int, removed) -> int:
    """Size of a smallest i-j vertex cut of the graph ``nbr`` less ``removed``.

    By Menger's theorem, the most i-j paths with no inner vertex in common,
    found by augmenting paths once each vertex v is split into an entry
    (v, 0) and an exit (v, 1) joined by an arc of capacity 1.
    """
    source, sink = (i, 1), (j, 0)
    flow = set()  # saturated arcs
    paths = 0
    while True:
        parent = {source: None}
        stack = [source]
        while stack and sink not in parent:
            x = stack.pop()
            v, side = x
            if side:  # on to a neighbour's entry, or back to the entry of v
                steps = [(w, 0) for w in nbr[v] if w not in removed and (x, (w, 0)) not in flow]
                steps += [(v, 0)] if ((v, 0), x) in flow else []
            else:  # on to the exit of v, or back along the flow into v
                steps = [] if (x, (v, 1)) in flow else [(v, 1)]
                steps += [(u, 1) for u in nbr[v] if ((u, 1), x) in flow]
            for y in steps:
                if y not in parent:
                    parent[y] = x
                    stack.append(y)
        if sink not in parent:
            return paths
        y = sink
        while parent[y] is not None:
            x = parent[y]
            if (y, x) in flow:
                flow.remove((y, x))
            else:
                flow.add((x, y))
            y = x
        paths += 1


def separating_set(g: AncestralGraph, i, j):
    """Smallest separating set for a non-adjacent pair, or None.

    In polynomial time at every graph size, returns the lexicographically
    first minimum i-j cut of the augmented graph of G_A, A = ant({i, j}):
    vertices of A are kept in ascending order while each lowers the cut
    size by one.  None means the pair is adjacent or inseparable.
    """
    i = g._check_vertex(i)
    j = g._check_vertex(j)
    if i == j:
        raise OverlappingSets("endpoints must be distinct")
    nbr = _augmented_graph(g, i, j)
    if j in nbr[i]:  # adjacent in G, or joined by a collider path in G_A
        return None
    cut = set()
    k = _cut_size(nbr, i, j, cut)
    for v in sorted(nbr.keys() - {i, j}):
        if len(cut) == k:
            break
        if _cut_size(nbr, i, j, cut | {v}) < k - len(cut):
            cut.add(v)
    return frozenset(cut)


def implied_pairwise_independences(g: AncestralGraph) -> tuple:
    """One record per non-adjacent pair, scanned in index order.

    Each record carries the smallest separating set (by size, then
    lexicographic order) or ``holds=False`` when the pair cannot be
    separated.
    """
    out = []
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if g.is_adjacent(i, j):
                continue
            c = separating_set(g, i, j)
            out.append(
                IndependenceStatement(
                    a=frozenset((i,)),
                    b=frozenset((j,)),
                    c=c if c is not None else frozenset(),
                    holds=c is not None,
                )
            )
    return tuple(out)


def is_maximal(g: AncestralGraph) -> bool:
    """True when every non-adjacent pair admits some separating set."""
    return not _inseparable_pairs(g)


def maximal_completion(g: AncestralGraph) -> AncestralGraph:
    """Add a bidirected edge between every inseparable non-adjacent pair.

    One pass suffices: the result is maximal and represents the same
    collection of m-separation statements as the input.  A maximal input
    is returned as it is.
    """
    missing = _inseparable_pairs(g)
    if not missing:
        return g
    return AncestralGraph(
        g.n,
        undirected=g.undirected_pairs,
        directed=g.directed_pairs,
        bidirected=list(g.bidirected_pairs) + missing,
        labels=g.labels,
    )
