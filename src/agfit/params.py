"""Parameters of a Gaussian ancestral graph model.

A model on graph G is parameterized by a triple (lam, beta, omega):

* ``lam`` is the concentration (inverse covariance) matrix of the
  variables in the undirected block, sparse over missing undirected
  edges;
* ``beta`` holds the directed-edge coefficients, with ``beta[i, j]``
  the coefficient on variable j in the equation for variable i, so that
  the residual transform is ``eps = (I - beta) @ Y``;
* ``omega`` is the residual covariance of the arrowhead-block variables,
  sparse over missing bidirected edges.

The implied covariance is
``sigma = inv(I - beta) @ blockdiag(inv(lam), omega) @ inv(I - beta).T``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite, SingularMatrix
from .graph import AncestralGraph


@dataclass(frozen=True)
class IndexMap:
    """Translates between graph vertex indices and compact block positions."""

    vertices: tuple

    _pos: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(int(v) for v in self.vertices))
        object.__setattr__(self, "_pos", {v: k for k, v in enumerate(self.vertices)})
        if len(self._pos) != len(self.vertices):
            raise ValueError("duplicate vertices in index map")

    def __len__(self):
        return len(self.vertices)

    def __contains__(self, v):
        return int(v) in self._pos

    def position(self, v) -> int:
        try:
            return self._pos[int(v)]
        except KeyError:
            raise KeyError(f"vertex {v} not in this block") from None

    def positions(self, vs) -> list:
        return [self.position(v) for v in vs]


def _cholesky(m: np.ndarray, message: str, error=NotPositiveDefinite) -> np.ndarray:
    """Lower Cholesky factor of ``m``; raises ``error(message)`` when ``m`` is
    not finite or not positive definite.

    Finiteness is checked on all of ``m`` first: numpy reads one triangle
    and returns NaNs, rather than raising, for some non-finite input.
    """
    if not np.isfinite(m).all():
        raise error(message)
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise error(message) from None


def _spd_cholesky(m: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factor of ``m``, or ``NotPositiveDefinite`` naming ``what``
    when ``m`` is not finite, symmetric and positive definite.  Symmetry is
    judged in correlation units like the stop rule of ``fit``, so the verdict
    does not depend on scale: |m_ij - m_ji| <= 1e-10 sqrt(|m_ii m_jj|)."""
    if not np.isfinite(m).all():
        raise NotPositiveDefinite(f"{what} is not finite")
    d = np.sqrt(np.abs(np.diagonal(m)))
    if (np.abs(m - m.T) > 1e-10 * np.outer(d, d)).any():
        raise NotPositiveDefinite(f"{what} is not symmetric")
    return _cholesky(m, f"{what} is not positive definite")


@dataclass(frozen=True)
class ParamSet:
    """Validated parameter triple tied to a graph.

    Use :meth:`for_graph` to construct; it checks shapes, the exact-zero
    sparsity pattern of each matrix, and positive definiteness of ``lam``
    and ``omega``.
    """

    graph: AncestralGraph
    lam: np.ndarray
    beta: np.ndarray
    omega: np.ndarray
    un_map: IndexMap
    disp_map: IndexMap

    @classmethod
    def for_graph(cls, graph: AncestralGraph, lam=None, beta=None, omega=None) -> "ParamSet":
        """Build a parameter set; omitted matrices default to identity.

        The default is ``lam = I``, ``beta = 0``, ``omega = I``, which is
        a valid parameter set for every graph.
        """
        un = sorted(graph.un_vertices)
        disp = sorted(set(range(graph.n)) - graph.un_vertices)
        un_map = IndexMap(tuple(un))
        disp_map = IndexMap(tuple(disp))

        lam = np.eye(len(un)) if lam is None else np.array(lam, dtype=float)
        beta = np.zeros((graph.n, graph.n)) if beta is None else np.array(beta, dtype=float)
        omega = np.eye(len(disp)) if omega is None else np.array(omega, dtype=float)

        ps = cls(graph, lam, beta, omega, un_map, disp_map)
        ps._validate()
        return ps

    def _validate(self):
        g = self.graph
        if self.lam.shape != (len(self.un_map), len(self.un_map)):
            raise DimensionMismatch("lam shape does not match the undirected block")
        if self.beta.shape != (g.n, g.n):
            raise DimensionMismatch("beta must be square over all vertices")
        if self.omega.shape != (len(self.disp_map), len(self.disp_map)):
            raise DimensionMismatch("omega shape does not match the arrowhead block")

        for a, b in zip(*np.nonzero(self.lam)):
            if a == b:
                continue
            va, vb = self.un_map.vertices[a], self.un_map.vertices[b]
            if vb not in g.ne(va):
                raise ValueError(
                    f"lam[{a}, {b}] nonzero but vertices {va}, {vb} share no undirected edge"
                )
        for i, j in zip(*np.nonzero(self.beta)):
            if j not in g.pa(i):
                raise ValueError(f"beta[{i}, {j}] nonzero but {j} is not a parent of {i}")
        for a, b in zip(*np.nonzero(self.omega)):
            if a == b:
                continue
            va, vb = self.disp_map.vertices[a], self.disp_map.vertices[b]
            if vb not in g.sp(va):
                raise ValueError(
                    f"omega[{a}, {b}] nonzero but vertices {va}, {vb} share no bidirected edge"
                )

        _spd_cholesky(self.lam, "lam")
        _spd_cholesky(self.omega, "omega")


def psi(params: ParamSet) -> np.ndarray:
    """Residual covariance over all vertices: blockdiag(inv(lam), omega).

    The undirected block carries the covariance-scale inverse of ``lam``;
    the two blocks are uncorrelated.
    """
    un = list(params.un_map.vertices)
    psi_un = _spd_inverse(params.lam, "lam") if un else np.zeros((0, 0))
    return _embed(
        params.graph.n, (un, psi_un), (list(params.disp_map.vertices), params.omega)
    )


def _embed(n, *blocks) -> np.ndarray:
    """n x n zeros with each ``(idx, block)`` written at rows and columns idx."""
    out = np.zeros((n, n))
    for idx, block in blocks:
        if len(idx):
            out[np.ix_(idx, idx)] = block
    return out


def _spd_inverse(m: np.ndarray, what: str, *, logdet: bool = False):
    """Symmetrized inverse of ``m``, or ``NotPositiveDefinite`` naming ``what``.

    With ``logdet`` returns the pair (inverse, log det m), the
    log-determinant read off the Cholesky factor that checks ``m``.
    """
    c = _cholesky(m, f"{what} is not positive definite")
    inv = np.linalg.inv(m)
    inv = 0.5 * (inv + inv.T)
    if logdet:
        return inv, _logdet(c)
    return inv


def _logdet(c: np.ndarray) -> float:
    """log det of the matrix whose lower Cholesky factor is ``c``."""
    return 2.0 * float(np.sum(np.log(np.diagonal(c))))


def _implied_sigma(beta: np.ndarray, psi_m: np.ndarray) -> np.ndarray:
    """``inv(I - beta) @ psi_m @ inv(I - beta).T``, symmetrized.

    Only the rows t of ``beta`` with a nonzero entry (the vertices with
    parents) take part.  A = inv(I - beta) equals I outside the rows t,
    and its rows t solve (I - beta)_tt A_t = J, where J is the rows t of
    ``beta`` with the columns t replaced by I.  So sigma differs from
    ``psi_m`` only in the rows and columns t, the cost is O(|t| p^2), and
    sigma = psi_m when t is empty.  Raises ``numpy.linalg.LinAlgError``
    when ``I - beta`` is singular; det(I - beta) = det((I - beta)_tt).
    """
    t = np.flatnonzero(beta.any(axis=1))
    sigma = psi_m.copy()
    if t.size:
        j = beta[t]
        j[:, t] = np.eye(t.size)
        a_t = np.linalg.solve(np.eye(t.size) - beta[np.ix_(t, t)], j)
        x = a_t @ psi_m
        sigma[t] = x
        sigma[:, t] = x.T
        sigma[np.ix_(t, t)] = x @ a_t.T
    return 0.5 * (sigma + sigma.T)


def build_sigma(params: ParamSet) -> np.ndarray:
    """Implied covariance matrix of the model at these parameters."""
    psi_m = psi(params)
    try:
        return _implied_sigma(params.beta, psi_m)
    except np.linalg.LinAlgError:
        raise SingularMatrix("I - beta is singular") from None


def conditional_variance(params: ParamSet, i) -> float:
    """Residual variance of vertex ``i`` given the other arrowhead residuals.

    ``omega[i, i] - omega[i, -i] @ inv(omega[-i, -i]) @ omega[-i, i]``
    where ``-i`` ranges over the arrowhead block without ``i``.
    """
    if i not in params.disp_map:
        raise ValueError(f"vertex {i} is not in the arrowhead block")
    pos = params.disp_map.position(i)
    rest = [k for k in range(len(params.disp_map)) if k != pos]
    w_ii = params.omega[pos, pos]
    if not rest:
        return float(w_ii)
    w_ri = params.omega[rest, pos]
    w_rr = params.omega[np.ix_(rest, rest)]
    _cholesky(w_rr, "omega[-i, -i] is not positive definite", SingularMatrix)
    return float(w_ii - w_ri @ np.linalg.solve(w_rr, w_ri))
