"""Simulation harness: cycle covariance models, sampling, scaling runs.

The test model is a covariance matrix with unit diagonal and a constant
``rho`` at the off-diagonal positions that form a single cycle
(|i - j| = 1 and the wrap-around pair).  Its inverse is sparse over the
same cycle, and the matching independence structure is the chordless
cycle of bidirected edges, which is a maximal ancestral graph for every
length.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass

import numpy as np

from .errors import AgfitError, NotPositiveDefinite
from .fit import fit
from .graph import AncestralGraph
from .params import _spd_cholesky
from .stats import empirical_covariance


@dataclass(frozen=True)
class CycleSpec:
    """Size and edge correlation of a cycle covariance model.

    Validated at construction: ``p >= 3`` and the resulting matrix must
    be positive definite (its eigenvalues are
    ``1 + 2 rho cos(2 pi k / p)``, so large ``|rho|`` fails).
    """

    p: int
    rho: float = 0.3

    def __post_init__(self):
        if self.p < 3:
            raise ValueError("cycle needs at least 3 vertices")
        eigs = 1.0 + 2.0 * self.rho * np.cos(2.0 * np.pi * np.arange(self.p) / self.p)
        if np.min(eigs) <= 0:
            raise NotPositiveDefinite(
                f"cycle covariance with p={self.p}, rho={self.rho} is not positive "
                f"definite (smallest eigenvalue {np.min(eigs):.4f})"
            )


def cycle_covariance(spec, rho: float | None = None) -> np.ndarray:
    """Covariance matrix of a :class:`CycleSpec` (or of ``p`` and ``rho``)."""
    if not isinstance(spec, CycleSpec):
        spec = CycleSpec(int(spec), 0.3 if rho is None else float(rho))
    m = np.eye(spec.p)
    for i in range(spec.p - 1):
        m[i, i + 1] = m[i + 1, i] = spec.rho
    m[0, spec.p - 1] = m[spec.p - 1, 0] = spec.rho
    return m


def bidirected_cycle_graph(p: int) -> AncestralGraph:
    """Chordless cycle of bidirected edges on ``p`` vertices."""
    if p < 3:
        raise ValueError("cycle needs at least 3 vertices")
    pairs = [(i, i + 1) for i in range(p - 1)] + [(0, p - 1)]
    return AncestralGraph(p, bidirected=pairs)


def sample_mvn(sigma: np.ndarray, n: int, seed) -> np.ndarray:
    """Zero-mean Gaussian sample as a variables-by-cases matrix.

    Draws standard normals from ``numpy.random.default_rng(seed)`` and
    applies the lower Cholesky factor of the symmetric ``sigma``; a fixed
    seed gives a bit-identical sample on every run.
    """
    sigma = np.asarray(sigma, dtype=float)
    if n < 1:
        raise ValueError("sample size must be at least 1")
    chol = _spd_cholesky(sigma, "sigma")
    rng = np.random.default_rng(seed)
    return chol @ rng.standard_normal((sigma.shape[0], n))


@dataclass(frozen=True)
class ReplicateResult:
    """Outcome of fitting one simulated dataset."""

    p: int
    replicate: int
    iterations: int
    converged: bool
    cpu_seconds: float
    deviance: float


@dataclass(frozen=True)
class PSummary:
    """Per-size aggregate over replicates."""

    p: int
    replicates: int
    failures: int
    mean_iterations: float
    min_iterations: int
    max_iterations: int
    mean_cpu_seconds: float


@dataclass(frozen=True)
class ExperimentReport:
    """All replicate rows of a scaling run plus the seeds that made them."""

    rho: float
    seed: int
    rows: tuple

    @property
    def failures(self) -> int:
        return sum(1 for r in self.rows if not r.converged)

    def summaries(self) -> tuple:
        out = []
        for p in sorted({r.p for r in self.rows}):
            rows = [r for r in self.rows if r.p == p]
            iters = [r.iterations for r in rows if r.converged]
            out.append(
                PSummary(
                    p=p,
                    replicates=len(rows),
                    failures=sum(1 for r in rows if not r.converged),
                    mean_iterations=float(np.mean(iters)) if iters else float("nan"),
                    min_iterations=min(iters) if iters else 0,
                    max_iterations=max(iters) if iters else 0,
                    mean_cpu_seconds=float(np.mean([r.cpu_seconds for r in rows])),
                )
            )
        return tuple(out)

    def to_csv(self, path_or_file) -> None:
        """Write one row per replicate: p, replicate, iterations, converged,
        cpu_seconds, deviance."""
        own = isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__")
        fh = open(path_or_file, "w", newline="") if own else path_or_file
        try:
            writer = csv.writer(fh)
            writer.writerow(
                ["p", "replicate", "iterations", "converged", "cpu_seconds", "deviance"]
            )
            for r in self.rows:
                writer.writerow(
                    [r.p, r.replicate, r.iterations, r.converged,
                     repr(r.cpu_seconds), repr(r.deviance)]
                )
        finally:
            if own:
                fh.close()


def run_scaling_experiment(
    p_values,
    replicates: int = 100,
    rho: float = 0.3,
    seed: int = 0,
) -> ExperimentReport:
    """Fit the bidirected cycle model to simulated data across sizes.

    For each ``p`` draws ``replicates`` samples of ``n = p + 30`` cases
    from the cycle covariance and fits the matching bidirected cycle
    graph.  Each (p, replicate) cell gets its own generator seeded with
    ``(seed, p, replicate)``, so any cell can be reproduced in isolation
    and results do not depend on execution order.  A fit that raises an
    :class:`AgfitError` or a ``numpy.linalg.LinAlgError`` is counted as a
    convergence failure; any other exception is a bug and propagates.
    """
    if replicates < 1:
        raise ValueError("need at least one replicate")
    p_values = [int(p) for p in p_values]

    rows = []
    for p in p_values:
        sigma = cycle_covariance(CycleSpec(p, rho))
        graph = bidirected_cycle_graph(p)
        n = p + 30
        for rep in range(replicates):
            y = sample_mvn(sigma, n, seed=(seed, p, rep))
            stats = empirical_covariance(y)
            t0 = time.process_time()
            try:
                res = fit(graph, stats)
                iterations, converged, dev = res.iterations, res.converged, res.deviance
            except (AgfitError, np.linalg.LinAlgError):
                iterations, converged, dev = 0, False, float("nan")
            elapsed = time.process_time() - t0
            rows.append(ReplicateResult(p, rep, iterations, converged, elapsed, dev))
    return ExperimentReport(rho=rho, seed=seed, rows=tuple(rows))
