"""Mixed graphs with undirected, directed and bidirected edges.

An ancestral graph is a mixed graph in which (a) a vertex that has an
undirected neighbour has neither parents nor spouses, and (b) no vertex
has a directed path back to one of its own parents or spouses.  Directed
acyclic graphs and undirected graphs are special cases.  Instances are
immutable: all relations are computed at construction time and the
object is safe to share between threads.
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

        ne = [set() for _ in range(self._n)]
        sp = [set() for _ in range(self._n)]
        pa = [set() for _ in range(self._n)]
        ch = [set() for _ in range(self._n)]
        seen_pairs = set()

        def check_pair(i, j):
            i, j = int(i), int(j)
            if not (0 <= i < self._n and 0 <= j < self._n):
                raise UnknownVertex(f"edge endpoint outside 0..{self._n - 1}: ({i}, {j})")
            if i == j:
                raise SelfLoop(i)
            key = frozenset((i, j))
            if key in seen_pairs:
                raise MultiEdge(i, j)
            seen_pairs.add(key)
            return i, j

        und, dird, bid = [], [], []
        for i, j in undirected:
            i, j = check_pair(i, j)
            a, b = min(i, j), max(i, j)
            und.append((a, b))
            ne[a].add(b)
            ne[b].add(a)
        for i, j in directed:
            i, j = check_pair(i, j)
            dird.append((i, j))
            ch[i].add(j)
            pa[j].add(i)
        for i, j in bidirected:
            i, j = check_pair(i, j)
            a, b = min(i, j), max(i, j)
            bid.append((a, b))
            sp[a].add(b)
            sp[b].add(a)

        for i in range(self._n):
            if ne[i] and (pa[i] or sp[i]):
                raise ConditionOneViolated(i)

        # Reflexive transitive closure over directed edges.  Computed with a
        # worklist so that cyclic (hence invalid) input still terminates.
        anc = [set((i,)) for i in range(self._n)]
        for j in range(self._n):
            stack = list(pa[j])
            while stack:
                k = stack.pop()
                if k not in anc[j]:
                    anc[j].add(k)
                    stack.extend(pa[k])

        for i in range(self._n):
            for k in pa[i] | sp[i]:
                if i in anc[k]:
                    raise ConditionTwoViolated(i)

        self._ne = tuple(frozenset(s) for s in ne)
        self._sp = tuple(frozenset(s) for s in sp)
        self._pa = tuple(frozenset(s) for s in pa)
        self._ch = tuple(frozenset(s) for s in ch)
        self._anc = tuple(frozenset(s) for s in anc)
        self._adjacent = frozenset(seen_pairs)
        self._undirected = tuple(sorted(und))
        self._directed = tuple(sorted(dird))
        self._bidirected = tuple(sorted(bid))
        self._un_vertices = frozenset(
            i for i in range(self._n) if not self._pa[i] and not self._sp[i]
        )

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
        return frozenset((i, j)) in self._adjacent

    def ancestors(self, vertices) -> frozenset:
        """Vertices with a directed path into the given set, plus the set.

        ``vertices`` may be a single vertex or an iterable.  Undirected and
        bidirected edges never contribute to ancestry.
        """
        try:  # an integer of any kind; an array is iterated, not indexed
            vertices = (operator.index(vertices),)
        except TypeError:
            pass
        out = set()
        for j in vertices:
            out |= self._anc[self._check_vertex(j)]
        return frozenset(out)

    @property
    def un_vertices(self) -> frozenset:
        """Vertices with neither parents nor spouses (the undirected block)."""
        return self._un_vertices

    @property
    def db_vertices(self) -> frozenset:
        """Vertices incident to at least one directed or bidirected edge."""
        out = set()
        for a, b in self._directed:
            out.add(a)
            out.add(b)
        for a, b in self._bidirected:
            out.add(a)
            out.add(b)
        return frozenset(out)

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


def _parses(cell: str, cell_type) -> bool:
    try:
        cell_type(cell)
        return True
    except ValueError:
        return False


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
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if any(cell.strip() for cell in row)]
    if not rows:
        raise GraphParseError(f"empty matrix file {path}")

    first = [c.strip() for c in rows[0]]
    header = None
    body = rows
    body_start = 1
    if not all(_parses(c, cell_type) for c in first):
        header = first
        body = rows[1:]
        body_start = 2
        if not body:
            raise GraphParseError("header row with no data rows", line=1)
    row_labels = False
    if header is not None:
        first_body = [c.strip() for c in body[0]]
        # an empty corner cell marks a label column even when labels look numeric
        if header[0] == "" and len(first_body) == len(header):
            row_labels = True
        elif not _parses(first_body[0], cell_type):
            row_labels = True

    data = []
    for r, row in enumerate(body, start=body_start):
        cells = [c.strip() for c in row]
        if row_labels:
            cells = cells[1:]
        vals = []
        for c_idx, cell in enumerate(cells, start=(2 if row_labels else 1)):
            if not _parses(cell, cell_type):
                raise GraphParseError(
                    f"cannot read {cell!r} as {cell_type.__name__}", line=r, column=c_idx
                )
            vals.append(cell_type(cell))
        data.append(vals)

    n = len(data)
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
