"""Mixed graphs with undirected, directed and bidirected edges.

An ancestral graph is a mixed graph in which (a) a vertex that has an
undirected neighbour has neither parents nor spouses, and (b) no vertex
has a directed path back to one of its own parents or spouses.  Directed
acyclic graphs and undirected graphs are special cases.  Instances are
immutable: all relations are computed at construction time and the
object is safe to share between threads.

A graph keeps its relations as one :class:`Relations` table of
Python-int bitsets, one per vertex and relation: bit w of ``pa[v]`` is
set when w is a parent of v.  The constructor fills the masks of
parents, children, spouses and undirected neighbours from the edge lists
and derives the ancestors, anterior sets and proper descendants in one
pass over the vertices, parents first.  The queries of
:mod:`agfit.mseparation` read that table; ``pa``, ``ch``, ``sp`` and
``ne`` return frozensets built from it once.
"""

from __future__ import annotations

import csv
import operator
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .errors import (
    ConditionOneViolated,
    ConditionTwoViolated,
    GraphParseError,
    InvalidCoding,
    MultiEdge,
    SelfLoop,
    UnknownVertex,
)

if TYPE_CHECKING:
    import numpy as np

UNDIRECTED = "undirected"
DIRECTED = "directed"
BIDIRECTED = "bidirected"


class Edge(NamedTuple):
    """A single edge; ``a`` is the tail and ``b`` the head when directed."""

    kind: str
    a: int
    b: int


class Decomposition(NamedTuple):
    """Split of a graph into its undirected block and its arrowhead block.

    ``un`` holds the vertices with neither parents nor spouses, ``db``
    the vertices incident to at least one directed or bidirected edge.
    ``g_un`` and ``g_db`` are the induced subgraphs on those sets with
    vertices renumbered to ``0..k-1`` in ascending original order.
    """

    un: tuple
    db: tuple
    g_un: "AncestralGraph"
    g_db: "AncestralGraph"


class Relations(NamedTuple):
    """Per vertex v, a bitset with bit w set when w is in the relation."""

    pa: tuple
    ch: tuple
    sp: tuple
    ne: tuple
    adj: tuple
    ant: tuple  # v and its anterior vertices
    anc: tuple  # v and its ancestors
    de: tuple  # proper descendants of v


def _bits(mask: int):
    """Vertices of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# The frozensets of all masks below 256, shared since frozensets are immutable:
# on up to 8 vertices a view or an ancestor set is a lookup, not a build.
_SMALL_SETS = tuple(frozenset(_bits(m)) for m in range(256))


def _frozen(mask: int) -> frozenset:
    """The vertices of ``mask`` as a frozenset."""
    return _SMALL_SETS[mask] if mask < 256 else frozenset(_bits(mask))


def _union(rel: tuple, mask: int) -> int:
    """The union of ``rel[v]`` over the vertices v of ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        mask ^= low
        out |= rel[low.bit_length() - 1]
    return out


def _closure(rel: tuple, start: int, within: int = -1) -> int:
    """``start`` and the vertices joined to it by paths of ``rel`` inside ``within``."""
    out = frontier = start
    while frontier:
        frontier = _union(rel, frontier) & within & ~out
        out |= frontier
    return out


class AncestralGraph:
    """Immutable mixed graph validated to be ancestral at construction.

    Parameters
    ----------
    n_vertices : int
        Number of vertices; vertices are ``0..n_vertices-1``.
    undirected, directed, bidirected : iterable of pairs
        Edge lists.  A directed pair ``(i, j)`` means ``i -> j``.
    labels : sequence of str, optional
        Variable names, one per vertex.  Defaults to ``"0", "1", ...``.

    Raises
    ------
    SelfLoop, MultiEdge, UnknownVertex
        For malformed edge lists.
    ConditionOneViolated
        If a vertex has an undirected neighbour and a parent or spouse.
    ConditionTwoViolated
        If a vertex is an ancestor of one of its parents or spouses.
    """

    def __init__(
        self,
        n_vertices: int,
        undirected: Iterable[tuple] = (),
        directed: Iterable[tuple] = (),
        bidirected: Iterable[tuple] = (),
        labels: Iterable[str] | None = None,
    ):
        if n_vertices < 0:
            raise ValueError("vertex count cannot be negative")
        self._n = int(n_vertices)

        if labels is None:
            self._labels = tuple(str(i) for i in range(self._n))
        else:
            self._labels = tuple(str(x) for x in labels)
            if len(self._labels) != self._n:
                raise ValueError("number of labels differs from number of vertices")
            if len(set(self._labels)) != self._n:
                raise ValueError("labels are not unique")

        n = self._n
        pa, ch, sp, ne, adj = ([0] * n for _ in range(5))

        def check_pair(i, j):
            i, j = int(i), int(j)
            if not (0 <= i < n and 0 <= j < n):
                raise UnknownVertex(f"edge endpoint outside 0..{n - 1}: ({i}, {j})")
            if i == j:
                raise SelfLoop(i)
            if adj[i] >> j & 1:
                raise MultiEdge(i, j)
            adj[i] |= 1 << j
            adj[j] |= 1 << i
            return i, j

        und, dird, bid = [], [], []
        for i, j in undirected:
            i, j = check_pair(i, j)
            und.append((i, j) if i < j else (j, i))
            ne[i] |= 1 << j
            ne[j] |= 1 << i
        for i, j in directed:
            i, j = check_pair(i, j)
            dird.append((i, j))
            ch[i] |= 1 << j
            pa[j] |= 1 << i
        for i, j in bidirected:
            i, j = check_pair(i, j)
            bid.append((i, j) if i < j else (j, i))
            sp[i] |= 1 << j
            sp[j] |= 1 << i

        for v in range(n):
            if ne[v] and (pa[v] or sp[v]):
                raise ConditionOneViolated(v)

        # Parents before children.  On cyclic input the vertices on or below
        # a directed cycle are never placed, and their descendants are found
        # by search instead.
        order = [v for v in range(n) if not pa[v]]
        placed = sum(1 << v for v in order)
        for v in order:
            for c in _bits(ch[v] & ~placed):
                if not pa[c] & ~placed:
                    order.append(c)
                    placed |= 1 << c
        de = [0] * n  # proper descendants
        for v in _bits((1 << n) - 1 & ~placed):
            de[v] = _closure(ch, ch[v])
        for v in reversed(order):
            de[v] = ch[v] | _union(de, ch[v])
        for v in range(n):
            if (pa[v] | sp[v]) & de[v]:
                raise ConditionTwoViolated(v)

        # a vertex with an undirected neighbour has no parents, so its
        # anterior set is its component of undirected edges
        ant = [0] * n
        for v in range(n):
            if ne[v] and not ant[v]:
                comp = _closure(ne, 1 << v)
                for u in _bits(comp):
                    ant[u] = comp
        anc = [0] * n
        for v in order:
            anc[v] = 1 << v | _union(anc, pa[v])
            ant[v] |= 1 << v | _union(ant, pa[v])

        self._rel = Relations(*(tuple(r) for r in (pa, ch, sp, ne, adj, ant, anc, de)))
        self._pa, self._ch, self._sp, self._ne = (
            tuple(map(_frozen, rel)) for rel in (pa, ch, sp, ne)
        )
        self._undirected = tuple(sorted(und))
        self._directed = tuple(sorted(dird))
        self._bidirected = tuple(sorted(bid))
        self._un_vertices = frozenset(v for v in range(n) if not pa[v] | sp[v])

    # -- basic queries ------------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def labels(self) -> tuple:
        return self._labels

    @property
    def undirected_pairs(self) -> tuple:
        return self._undirected

    @property
    def directed_pairs(self) -> tuple:
        """Directed edges as (tail, head) pairs."""
        return self._directed

    @property
    def bidirected_pairs(self) -> tuple:
        return self._bidirected

    @property
    def edges(self) -> tuple:
        """All edges as :class:`Edge` tuples, grouped by kind."""
        return tuple(
            [Edge(UNDIRECTED, a, b) for a, b in self._undirected]
            + [Edge(DIRECTED, a, b) for a, b in self._directed]
            + [Edge(BIDIRECTED, a, b) for a, b in self._bidirected]
        )

    @property
    def edge_count(self) -> int:
        return len(self._undirected) + len(self._directed) + len(self._bidirected)

    def _check_vertex(self, i) -> int:
        i = int(i)
        if not 0 <= i < self._n:
            raise UnknownVertex(f"vertex {i} outside 0..{self._n - 1}")
        return i

    def ne(self, i) -> frozenset:
        """Undirected neighbours of ``i``."""
        return self._ne[self._check_vertex(i)]

    def sp(self, i) -> frozenset:
        """Spouses of ``i`` (joined to ``i`` by a bidirected edge)."""
        return self._sp[self._check_vertex(i)]

    def pa(self, i) -> frozenset:
        """Parents of ``i``."""
        return self._pa[self._check_vertex(i)]

    def ch(self, i) -> frozenset:
        """Children of ``i``."""
        return self._ch[self._check_vertex(i)]

    def is_adjacent(self, i, j) -> bool:
        i, j = self._check_vertex(i), self._check_vertex(j)
        return bool(self._rel.adj[i] >> j & 1)

    def ancestors(self, vertices) -> frozenset:
        """Vertices with a directed path into the given set, plus the set.

        ``vertices`` may be a single vertex or an iterable.  Undirected and
        bidirected edges never contribute to ancestry.
        """
        try:  # an integer of any kind; an array is iterated, not indexed
            vertices = (operator.index(vertices),)
        except TypeError:
            pass
        anc = self._rel.anc
        out = 0
        for j in vertices:
            out |= anc[self._check_vertex(j)]
        return _frozen(out)

    @property
    def un_vertices(self) -> frozenset:
        """Vertices with neither parents nor spouses (the undirected block)."""
        return self._un_vertices

    @property
    def db_vertices(self) -> frozenset:
        """Vertices incident to at least one directed or bidirected edge."""
        r = self._rel
        return frozenset(v for v in range(self._n) if r.pa[v] | r.ch[v] | r.sp[v])

    # -- derived graphs -----------------------------------------------------

    def subgraph(self, vertices) -> "AncestralGraph":
        """Induced subgraph with vertices renumbered in ascending order."""
        keep = sorted(self._check_vertex(v) for v in vertices)
        if len(set(keep)) != len(keep):
            raise ValueError("duplicate vertices in subgraph request")
        pos = {v: k for k, v in enumerate(keep)}
        sel = lambda pairs: [
            (pos[a], pos[b]) for a, b in pairs if a in pos and b in pos
        ]
        return AncestralGraph(
            len(keep),
            undirected=sel(self._undirected),
            directed=sel(self._directed),
            bidirected=sel(self._bidirected),
            labels=[self._labels[v] for v in keep],
        )

    def decompose(self) -> Decomposition:
        """Split into undirected block and arrowhead block subgraphs."""
        un = tuple(sorted(self._un_vertices))
        db = tuple(sorted(self.db_vertices))
        return Decomposition(un, db, self.subgraph(un), self.subgraph(db))

    # -- adjacency matrix coding --------------------------------------------

    def to_adjacency(self) -> np.ndarray:
        """Integer adjacency coding.

        ``a[i, j] = a[j, i] = 1`` for ``i - j``; ``a[i, j] = a[j, i] = 2``
        for ``i <-> j``; ``a[i, j] = 1, a[j, i] = 0`` for ``i -> j``.
        """
        import numpy as np

        a = np.zeros((self._n, self._n), dtype=int)
        for i, j in self._undirected:
            a[i, j] = a[j, i] = 1
        for i, j in self._bidirected:
            a[i, j] = a[j, i] = 2
        for i, j in self._directed:
            a[i, j] = 1
        return a

    @classmethod
    def from_adjacency(cls, matrix, labels=None) -> "AncestralGraph":
        """Build a graph from the integer adjacency coding.

        Raises :class:`InvalidCoding` for cell pairs outside the coding
        table and :class:`SelfLoop` for a nonzero diagonal; the usual
        validation errors apply to the decoded edge lists.
        """
        import numpy as np

        a = np.asarray(matrix)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("adjacency matrix must be square")
        return cls._from_rows(a.tolist(), labels)

    @classmethod
    def _from_rows(cls, a, labels) -> "AncestralGraph":
        """:meth:`from_adjacency` of a square matrix given as a list of rows."""
        n = len(a)
        und, dird, bid = [], [], []
        for i in range(n):
            if a[i][i] != 0:
                raise SelfLoop(i)
        for i in range(n):
            for j in range(i + 1, n):
                pair = (int(a[i][j]), int(a[j][i]))
                if pair == (0, 0):
                    continue
                elif pair == (1, 1):
                    und.append((i, j))
                elif pair == (2, 2):
                    bid.append((i, j))
                elif pair == (1, 0):
                    dird.append((i, j))
                elif pair == (0, 1):
                    dird.append((j, i))
                else:
                    raise InvalidCoding(i, j, pair)
        return cls(n, undirected=und, directed=dird, bidirected=bid, labels=labels)

    # -- housekeeping -------------------------------------------------------

    def label_index(self, label: str) -> int:
        try:
            return self._labels.index(label)
        except ValueError:
            raise UnknownVertex(f"no vertex labelled {label!r}") from None

    def __eq__(self, other) -> bool:
        if not isinstance(other, AncestralGraph):
            return NotImplemented
        return (
            self._n == other._n
            and self._labels == other._labels
            and self._undirected == other._undirected
            and self._directed == other._directed
            and self._bidirected == other._bidirected
        )

    def __hash__(self):
        return hash(
            (self._n, self._labels, self._undirected, self._directed, self._bidirected)
        )

    def __repr__(self):
        return (
            f"AncestralGraph(n={self._n}, undirected={len(self._undirected)}, "
            f"directed={len(self._directed)}, bidirected={len(self._bidirected)})"
        )


# -- CSV round trip ----------------------------------------------------------


def _csv_rows(path) -> list:
    """The rows of a CSV file that hold a nonblank cell, every cell stripped."""
    with open(path, newline="") as fh:
        rows = [[cell.strip() for cell in row] for row in csv.reader(fh)]
    return [row for row in rows if any(row)]


def _convert_row(cells, cell_type, line: int, first_column: int = 1) -> list:
    """``cells`` converted by ``cell_type``; a cell that does not convert
    raises :class:`GraphParseError` with its line and column."""
    vals = []
    for column, cell in enumerate(cells, start=first_column):
        try:
            vals.append(cell_type(cell))
        except ValueError:
            raise GraphParseError(
                f"cannot read {cell!r} as {cell_type.__name__}", line=line, column=column
            ) from None
    return vals


def read_matrix_csv(path, cell_type):
    """Square matrix CSV with an optional header row and label column.

    ``cell_type`` (``int`` or ``float``) converts each cell.  The first row
    is a header when one of its cells does not convert.  A header is
    followed by a label column when its corner cell is empty and the first
    data row is as long as the header (labels may then look numeric), or
    when the first cell of the first data row does not convert; the corner
    cell is ignored.  Returns ``(labels or None, matrix)``; malformed input
    raises :class:`GraphParseError` with a line and column.
    """
    import numpy as np

    labels, rows = _read_matrix_rows(path, cell_type)
    return labels, np.array(rows, dtype=cell_type).reshape(len(rows), len(rows))


def _read_matrix_rows(path, cell_type):
    """:func:`read_matrix_csv` with the matrix as a list of rows."""
    rows = _csv_rows(path)
    if not rows:
        raise GraphParseError(f"empty matrix file {path}")
    header, skip = None, 0
    try:
        data = [_convert_row(rows[0], cell_type, 1)]
    except GraphParseError:
        header, data = rows[0], []
        if len(rows) == 1:
            raise GraphParseError("header row with no data rows", line=1) from None
        first = rows[1]
        # an empty corner cell marks a label column even when labels look numeric
        if header[0] == "" and len(first) == len(header):
            skip = 1
        else:
            try:
                cell_type(first[0])
            except ValueError:
                skip = 1
    for line, row in enumerate(rows[1:], start=2):
        data.append(_convert_row(row[skip:], cell_type, line, skip + 1))

    n = len(data)
    body_start = 1 if header is None else 2
    for r, row in enumerate(data):
        if len(row) != n:
            raise GraphParseError(
                f"row has {len(row)} cells, expected {n}", line=body_start + r
            )

    labels = None
    if header is not None:
        if len(header) == n + 1:
            labels = header[1:]
        elif len(header) == n:
            labels = header
        else:
            raise GraphParseError(f"{len(header)} header cells for {n} columns", line=1)
    return labels, data


def read_graph_csv(path) -> AncestralGraph:
    """Read an adjacency matrix CSV.

    Accepts a plain integer matrix, a matrix with a header row of labels,
    or a matrix with both a header row and a label column (the corner cell
    is then ignored); see :func:`read_matrix_csv`.  Raises
    :class:`GraphParseError` with a line and column for malformed input,
    and the adjacency coding errors otherwise.
    """
    labels, rows = _read_matrix_rows(path, int)
    return AncestralGraph._from_rows(rows, labels)


def write_graph_csv(g: AncestralGraph, path) -> None:
    """Write the adjacency coding with a header row and a label column."""
    a = g.to_adjacency()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([""] + list(g.labels))
        for i in range(g.n):
            writer.writerow([g.labels[i]] + [int(x) for x in a[i]])
