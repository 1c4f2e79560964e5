"""Exception types shared across the package."""

from __future__ import annotations


class AgfitError(Exception):
    """Base class for every error raised by this package."""


class GraphError(AgfitError):
    """Base class for graph construction and query errors."""


class SelfLoop(GraphError):
    """An edge joins a vertex to itself."""

    def __init__(self, vertex: int):
        self.vertex = vertex
        super().__init__(f"self loop at vertex {vertex}")


class MultiEdge(GraphError):
    """More than one edge was declared between the same pair of vertices."""

    def __init__(self, i: int, j: int):
        self.pair = (i, j)
        super().__init__(f"more than one edge between vertices {i} and {j}")


class ConditionOneViolated(GraphError):
    """A vertex has an undirected neighbour as well as a parent or spouse."""

    def __init__(self, vertex: int):
        self.vertex = vertex
        super().__init__(
            f"vertex {vertex} has an undirected neighbour and also a parent or spouse"
        )


class ConditionTwoViolated(GraphError):
    """A vertex has a directed path back to one of its parents or spouses."""

    def __init__(self, vertex: int):
        self.vertex = vertex
        super().__init__(
            f"vertex {vertex} is an ancestor of one of its own parents or spouses"
        )


class UnknownVertex(GraphError):
    """A vertex index or label does not belong to the graph."""


class InvalidCoding(GraphError):
    """An adjacency matrix cell pair is outside the recognised coding."""

    def __init__(self, i: int, j: int, values: tuple[int, int] | None = None):
        self.pair = (i, j)
        self.values = values
        detail = f" (cells {values[0]}, {values[1]})" if values is not None else ""
        super().__init__(f"invalid edge coding between positions {i} and {j}{detail}")


class OverlappingSets(GraphError):
    """Vertex sets of a separation query are not disjoint or are empty."""


class NotMaximal(GraphError):
    """The graph has a non-adjacent pair that no conditioning set separates."""


class GraphParseError(AgfitError):
    """A graph or matrix file could not be parsed."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + where)


class NumericError(AgfitError):
    """Base class for numerical failures."""


class NotPositiveDefinite(NumericError):
    """A matrix required to be positive definite is not."""


class SingularMatrix(NumericError):
    """A matrix required to be invertible is numerically singular."""


class SingularDesign(NumericError):
    """A least squares design matrix is rank deficient."""


class DimensionMismatch(NumericError):
    """Array shapes are inconsistent with the graph or with each other."""


class InvalidDf(AgfitError):
    """A chi-square test was requested with non-positive degrees of freedom."""


class LabelMismatch(AgfitError):
    """Variable labels of a data source do not match the graph's labels."""
