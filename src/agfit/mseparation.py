"""m-separation queries, implied independences, and maximality.

Every query reads the relation table that a graph builds at
construction (:class:`~agfit.graph.Relations`): per vertex, Python-int
bitsets of its parents, children, spouses, undirected neighbours,
adjacent vertices, anterior set, ancestors and proper descendants.

A path m-connects two vertices given a conditioning set C when every
non-endpoint vertex at which both incident edges carry an arrowhead (a
collider) is an ancestor of C, and every other non-endpoint vertex is
outside C.  Queries are answered by reachability over two state masks,
the vertices entered with a tail and those entered with an arrowhead,
searched from all of A at once: the states reached from a set of
sources are the union of those reached from each.

Maximality checking and completion need no walk.  A non-adjacent pair
i, j can be m-separated if and only if A = ant({i, j}) less the pair
separates it.  That fails exactly when a collider path
i *-> d1 <-> ... <-> dk <-* j runs inside A, which in an ancestral graph
means that i and j lie in one district of G_A.  Adding a bidirected edge
between every such pair makes the graph maximal (Richardson and Spirtes,
2002, Theorems 3.18, 4.2 and 5.1).

Smallest separating sets are polynomial too, with no size limit: every
smallest m-separator of i and j lies in A = ant({i, j}), where it is a
minimum i-j vertex cut of the augmented graph of G_A (van der Zander,
Liskiewicz and Textor, 2019).  ``separating_set`` finds a maximum flow
of vertex-disjoint paths over neighbour masks and returns the
lexicographically first minimum cut.  Only vertices that carry that flow
are tried for the cut: every minimum cut has one vertex on each of the
disjoint paths.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import OverlappingSets
from .graph import AncestralGraph, Relations, _bits, _closure, _frozen, _union


def _check_query(a, b, c) -> None:
    """Checks A, B and C given as sets or as masks."""
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


def _mask(g: AncestralGraph, vertices) -> int:
    """Bitset of ``vertices``, each checked to be a vertex of ``g``."""
    m = 0
    for v in vertices:
        m |= 1 << g._check_vertex(v)
    return m


def _m_connected(t: Relations, a: int, b: int, c: int) -> bool:
    """True when some path m-connects a vertex of ``a`` with one of ``b``
    given ``c``, all three disjoint masks.

    Walk-based reachability over the masks of vertices entered with a tail
    and with an arrowhead; a walk that m-connects can always be shortened
    to a path that does, so the answer matches path enumeration.
    """
    pa, ch, sp, ne = t.pa, t.ch, t.sp, t.ne
    anc_c = _union(t.anc, c)
    # the sources step out as vertices entered with a tail do
    tails, arrows = new_tail, new_arrow = a, 0
    while new_tail | new_arrow:
        if (new_tail | new_arrow) & b:
            return True
        # a vertex entered with a tail is no collider, and passes when
        # outside C; one entered with an arrowhead passes outside C on the
        # way out through a tail, and is a collider on the way out through
        # an arrowhead, which passes when it is in an(C)
        by_tail = (new_tail | new_arrow) & ~c
        by_arrow = new_tail & ~c | new_arrow & anc_c
        next_tail = next_arrow = 0
        while by_tail:
            low = by_tail & -by_tail
            by_tail ^= low
            v = low.bit_length() - 1
            next_tail |= ne[v]
            next_arrow |= ch[v]
        while by_arrow:
            low = by_arrow & -by_arrow
            by_arrow ^= low
            v = low.bit_length() - 1
            next_tail |= pa[v]
            next_arrow |= sp[v]
        new_tail = next_tail & ~tails
        new_arrow = next_arrow & ~arrows
        tails |= new_tail
        arrows |= new_arrow
    return False


def m_connecting_path_exists(g: AncestralGraph, i, j, c=frozenset()) -> bool:
    """True when some path m-connects ``i`` and ``j`` given ``c``."""
    i = g._check_vertex(i)
    j = g._check_vertex(j)
    c = _mask(g, c)
    if i == j or c >> i & 1 or c >> j & 1:
        raise OverlappingSets("endpoints must be distinct and outside C")
    return _m_connected(g._rel, 1 << i, 1 << j, c)


def m_separated(g: AncestralGraph, a, b, c=frozenset()) -> bool:
    """True when every pair across A and B is m-separated given C.

    Each vertex is checked against the graph; A and B must be nonempty and
    the three sets pairwise disjoint.
    """
    if isinstance(a, int) or isinstance(b, int):
        raise TypeError("A and B must be vertex sets")
    a, b, c = _mask(g, a), _mask(g, b), _mask(g, c)
    _check_query(a, b, c)
    return not _m_connected(g._rel, a, b, c)


def _inseparable(t: Relations, i: int, j: int) -> bool:
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
    return bool(_closure(t.sp, 1 << i, t.ant[i] | t.ant[j]) >> j & 1)


def _inseparable_pairs(g: AncestralGraph) -> list:
    """Non-adjacent pairs (i, j), i < j, that no set m-separates, in order.

    Such a pair is joined by a path i <-> v1 <-> ... <-> vk <-> j inside
    ant({i, j}).  The spouse v1 of i is not an ancestor of i, so it is a
    proper ancestor of j.  Only pairs of a spouse i of a vertex v1 with
    children and a proper descendant j of v1 are tested.
    """
    t = g._rel
    later = [0] * g.n  # bit j of later[i], i < j: a candidate pair
    for v in range(g.n):
        if not (t.sp[v] and t.ch[v]):
            continue
        for i in _bits(t.sp[v]):
            cand = t.de[v] & ~t.adj[i]
            later[i] |= cand >> i + 1 << i + 1
            for j in _bits(cand & (1 << i) - 1):
                later[j] |= 1 << i
    return [
        (i, j) for i in range(g.n) for j in _bits(later[i]) if _inseparable(t, i, j)
    ]


def _augmented_graph(t: Relations, i: int, j: int) -> list:
    """Neighbour masks of the augmented graph of G_A, A = ant({i, j}), 0
    outside A: two vertices of A are adjacent when adjacent in G, or when
    both lie in D or pa(D) for one district D of G_A, since a collider
    path joins them.  A is closed under parents, so pa(D) lies in A."""
    a = t.ant[i] | t.ant[j]
    adj, pa, sp = t.adj, t.pa, t.sp
    nbr = [0] * len(adj)
    todo = a
    while todo:
        low = todo & -todo
        v = low.bit_length() - 1
        if sp[v] & a:
            district = _closure(sp, low, a)
        elif pa[v] & pa[v] - 1:
            district = low
        else:  # a lone vertex with at most one parent adds no edge
            todo ^= low
            continue
        todo &= ~district
        married = district | _union(pa, district)
        for u in _bits(married):
            nbr[u] |= married
    for v in _bits(a):
        nbr[v] = (nbr[v] | adj[v]) & a & ~(1 << v)
    return nbr


def _max_flow(nbr: list, i: int, j: int, removed: int, limit: int) -> tuple:
    """Up to ``limit`` paths between the non-adjacent i and j of the graph
    ``nbr`` that share no inner vertex and avoid the mask ``removed``:
    their number and the mask of the vertices that carry flow.

    Augmenting paths by breadth-first search, with each vertex split into
    an entry and an exit joined by an arc of capacity 1 (Menger).
    ``prv[w] = u`` records a unit from the exit of u into the entry of w,
    and the mask ``first`` the vertices fed straight from i, whose entries
    lead only back to i.  The exit of a vertex that carries a unit is
    reached only back from the entry its unit goes on to, so that needs no
    record.  A unit may run round a 2-cycle u -> w -> u, which only adds
    candidates for the cut.
    """
    prv = {}
    first = 0
    flow = 0
    while flow < limit:
        # par_in[w]: the exit that reached the entry of w (w itself over the
        # reversed split arc); par_out[u]: the entry that reached the exit
        # of u (u itself over the split arc)
        par_in, par_out = {}, {i: None}
        seen_in = removed | first | 1 << i
        exits = [i]
        while exits and not seen_in >> j & 1:
            entries = []
            for u in exits:
                step = nbr[u] & ~seen_in
                seen_in |= step
                while step:
                    low = step & -step
                    step ^= low
                    w = low.bit_length() - 1
                    par_in[w] = u
                    entries.append(w)
                if u in prv and not seen_in >> u & 1:
                    seen_in |= 1 << u
                    par_in[u] = u
                    entries.append(u)
            exits = []
            for w in entries:
                # on to the exit of w, or back along the unit that enters w
                u = prv.get(w, w)
                if w != j and u not in par_out:
                    par_out[u] = w
                    exits.append(u)
        if not seen_in >> j & 1:
            break
        # walk the augmenting path back from the sink
        w = j
        while True:
            u = par_in[w]
            if u != w and w != j:
                prv[w] = u
            if u == i:
                first |= 1 << w
                break
            x = par_out[u]
            if x != u:
                # x loses the unit from u; the arc walked next into x, if
                # not the reversed split arc, gives it another
                del prv[x]
            w = x
        flow += 1
    return flow, sum(1 << v for v in prv)


def separating_set(g: AncestralGraph, i, j):
    """Smallest separating set for a non-adjacent pair, or None.

    In polynomial time at every graph size, returns the lexicographically
    first minimum i-j cut of the augmented graph of G_A, A = ant({i, j}):
    vertices that carry a maximum flow are kept in ascending order while
    each lowers the cut size by one, and each test's flow narrows the
    vertices left to try.  None means the pair is adjacent or inseparable.
    """
    i = g._check_vertex(i)
    j = g._check_vertex(j)
    if i == j:
        raise OverlappingSets("endpoints must be distinct")
    nbr = _augmented_graph(g._rel, i, j)
    if nbr[i] >> j & 1:  # adjacent in G, or joined by a collider path in G_A
        return None
    need, todo = _max_flow(nbr, i, j, 0, g.n)
    cut = 0
    while need and todo:
        low = todo & -todo
        todo ^= low
        flow, carriers = _max_flow(nbr, i, j, cut | low, need)
        if flow < need:
            cut |= low
            need -= 1
        # that flow is a maximum flow of the graph less the cut, so every
        # minimum cut that is left has its vertices on the paths it carries
        todo &= carriers
    return _frozen(cut)


def implied_pairwise_independences(g: AncestralGraph) -> tuple:
    """One record per non-adjacent pair, scanned in index order.

    Each record carries the smallest separating set (by size, then
    lexicographic order) or ``holds=False`` when the pair cannot be
    separated.
    """
    adj = g._rel.adj
    out = []
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if adj[i] >> j & 1:
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
