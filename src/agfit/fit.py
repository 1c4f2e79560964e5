"""Maximum likelihood fitting by iterative conditional fitting.

The likelihood of a Gaussian ancestral graph model factors into an
undirected part over the vertices without parents or spouses and a
regression part over the rest.  The undirected part is fitted once by
iterative proportional fitting (IPF) over the maximal cliques; the
regression part is fitted by iterative conditional fitting (ICF), which
cycles through the arrowhead-block vertices and solves, for each vertex
in turn, a least squares problem in its parents and in pseudo-variables
standing in for its spouses.  Each step maximizes the likelihood over
the free parameters of one vertex with all others held fixed, so the
likelihood never decreases.

Everything here works from the sample covariance: every regression in
the ICF update can be expressed through cross products of linear
combinations of the variables, so raw data are never required.

The pseudo-variables of a vertex need inv(omega[-i, -i]).  ICF keeps
inv(omega) current instead of factorizing that block at every step: the
spouse rows are read off the maintained inverse and the vertex's new row
of omega enters it as one rank-2 update.  The updates are held back
within a cycle: the inverse is kept as ``k0 + U diag(d) U.T``, a step
reads only its own and its spouses' rows, and every ``_FOLD_STEPS``
steps the pending columns of U are folded into ``k0`` by one matrix
product, which runs several times faster than one outer-product pass
over the matrix per step.  A vertex step with q parents and spouses
costs O(q p^2), and a cycle over a graph of bounded degree O(p^3) rather
than O(p^4).  The inverse is formed once per run and carried across
cycles, folded at the end of each; its rounding drift stays near
1e-13 relative after hundreds of cycles.  Omega is still factorized
once per cycle, at O(d^3) for an arrowhead block of d vertices, to
check that it stays positive definite and to give log det omega.

A vertex without spouses is a plain regression on its parents: its step
reads no other parameter, and no other step reads its rows of beta and
omega or its entry of the inverse.  It is visited in the first cycle
only.  Only the rows T of beta of the vertices with parents are nonzero,
so the residual transform, the implied covariance and the log-likelihood
are formed on the rows and columns T.  Because det(I - beta) = 1, the
log-likelihood of a cycle is -n/2 [log det psi + tr(inv(psi) R)] with
R = (I - beta) s (I - beta).T, read off the blocks: the undirected term
is fixed per fit, log det omega comes from the Cholesky factor that
checks omega, and inv(omega) is the carried inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NotMaximal,
    NotPositiveDefinite,
    SingularDesign,
)
from .graph import AncestralGraph
from .mseparation import is_maximal
from .params import (
    IndexMap,
    ParamSet,
    _cholesky,
    _embed,
    _implied_sigma,
    _logdet,
    _spd_inverse,
)
from .stats import SampleStats, degrees_of_freedom, deviance, log_likelihood


# Relative log-likelihood gain a restart needs to replace the kept run;
# runs that converge to the same optimum differ only in the last bits.
_RESTART_MARGIN = 1e-12


@dataclass(frozen=True)
class FitConfig:
    """Knobs of the fitting loop.

    ``tolerance`` bounds the change of the implied covariance over one
    cycle, in correlation units (see :func:`fit`); it also stops IPF on
    the undirected block.  ``max_cycles`` caps the cycles of each stage.
    ``check_maximality`` rejects a non-maximal graph before fitting, at
    every size; set it to False only when the graph is known to be
    maximal.  ``restarts`` adds randomized re-runs of the ICF stage,
    keeping the best likelihood; ``seed`` makes them reproducible.
    """

    tolerance: float = 1e-6
    max_cycles: int = 5000
    check_maximality: bool = True
    restarts: int = 0
    seed: int | None = None

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.max_cycles < 1:
            raise ValueError("max_cycles must be at least 1")
        if self.restarts < 0:
            raise ValueError("restarts cannot be negative")


@dataclass(frozen=True)
class FitResult:
    """Fitted model: implied covariance, parameters, and fit diagnostics.

    ``logliks`` holds the log-likelihood of the starting point followed
    by one value per completed ICF cycle; it is non-decreasing up to
    roundoff.  ``iterations`` counts completed ICF cycles, including the
    cycle whose covariance change triggered convergence.
    """

    sigma_hat: np.ndarray
    params: ParamSet
    deviance: float
    df: int
    iterations: int
    converged: bool
    logliks: tuple

    @property
    def lambda_hat(self) -> np.ndarray:
        return self.params.lam

    @property
    def beta_hat(self) -> np.ndarray:
        return self.params.beta

    @property
    def omega_hat(self) -> np.ndarray:
        return self.params.omega


# -- undirected block ---------------------------------------------------------


def fit_undirected_ipf(
    g_un: AncestralGraph,
    s_un: np.ndarray,
    tolerance: float = 1e-6,
    max_cycles: int = 5000,
) -> np.ndarray:
    """Concentration matrix of an undirected model fitted to ``s_un``.

    Cycles through the maximal cliques, replacing each clique block of
    the concentration matrix so that the implied covariance matches the
    sample covariance on that clique while the conditional distribution
    of the remaining variables given the clique is untouched.  Converges
    when every clique block of the implied covariance is within
    ``tolerance`` of the sample block in correlation units, each entry
    (i, j) divided by sqrt(s_ii s_jj), so the cycle count does not depend
    on the scale of the variables.  At ``max_cycles`` the last iterate is
    returned, and :func:`fit` reports ``converged=False``, as at the cap of
    ICF.  The result is exactly zero at missing edges.
    """
    if g_un.directed_pairs or g_un.bidirected_pairs:
        raise ValueError("IPF expects a purely undirected graph")
    p = g_un.n
    s_un = np.asarray(s_un, dtype=float)
    if s_un.shape != (p, p):
        raise DimensionMismatch("s_un does not match the graph")
    if p == 0:
        return np.zeros((0, 0))
    _cholesky(s_un, "s_un is not positive definite")

    cliques = sorted(sorted(c) for c in _maximal_cliques(g_un))
    weights = _ipf_weights(g_un, s_un)

    k = np.diag(1.0 / np.diag(s_un))
    rests = [sorted(set(range(p)).difference(cl)) for cl in cliques]
    s_invs = [_spd_inverse(s_un[np.ix_(cl, cl)], "s_un") for cl in cliques]
    for _ in range(max_cycles):
        for cl, rest, update in zip(cliques, rests, s_invs):
            if rest:
                krc = k[np.ix_(rest, cl)]
                update = update + krc.T @ _spd_inverse(k[np.ix_(rest, rest)], "lam") @ krc
            k[np.ix_(cl, cl)] = 0.5 * (update + update.T)
        if _ipf_gap(_spd_inverse(k, "lam"), s_un, weights) < tolerance:
            break
    return 0.5 * (k + k.T)


def _ipf_weights(g_un: AncestralGraph, s_un: np.ndarray) -> np.ndarray:
    """``1 / sqrt(s_ii s_jj)`` on the entries of the clique blocks (the
    diagonal and the edges), 0 elsewhere."""
    fitted = np.eye(g_un.n, dtype=bool) | (g_un.to_adjacency() != 0)
    return np.where(fitted, _correlation_scale(s_un), 0.0)


def _ipf_gap(w: np.ndarray, s_un: np.ndarray, weights: np.ndarray) -> float:
    """Largest distance of ``w = inv(lam)`` from ``s_un`` on the clique
    blocks, in correlation units: IPF has converged when it is below the
    tolerance."""
    return float(np.max(np.abs(w - s_un) * weights))


def _maximal_cliques(g: AncestralGraph) -> list:
    """Maximal cliques of the undirected edges: Bron-Kerbosch with pivoting.

    Returns a list of vertex sets in no particular order; an isolated
    vertex is a clique of its own.
    """
    found = []

    def expand(clique, cand, excl):
        if not cand and not excl:
            found.append(clique)
            return
        pivot = max(cand | excl, key=lambda u: len(cand & g.ne(u)))
        for v in list(cand - g.ne(pivot)):
            expand(clique | {v}, cand & g.ne(v), excl & g.ne(v))
            cand.remove(v)
            excl.add(v)

    expand(frozenset(), set(range(g.n)), set())
    return found


# -- single ICF update --------------------------------------------------------

# Vertex steps whose rank-2 updates of inv(omega) are held back before one
# matrix product folds them in.
_FOLD_STEPS = 16


class _HeldInverse:
    """inv(omega), held as ``k0 + U diag(d) U.T`` while updates are pending.

    ``update`` appends the two columns of a step's rank-2 update to U,
    stored as the rows of ``ut``; every ``_FOLD_STEPS`` updates, and at
    the end of every cycle, ``fold`` adds U to ``k0`` by one product of
    rank at most ``2 * _FOLD_STEPS`` and empties it.
    """

    def __init__(self, k0: np.ndarray):
        self.k0 = k0
        self.ut = np.empty((2 * _FOLD_STEPS, k0.shape[0]))
        self.d = np.empty(2 * _FOLD_STEPS)
        self.m = 0

    def rows(self, idx) -> np.ndarray:
        """Rows ``idx`` of the current inverse, as a new array."""
        m = self.m
        if not m:
            return self.k0[idx]
        ut = self.ut[:m]
        return self.k0[idx] + (ut[:, idx].T * self.d[:m]) @ ut

    def update(self, k: np.ndarray, k_ii: float, z: np.ndarray, w: float) -> None:
        """``K <- K - k k.T / k_ii + z z.T / w``."""
        m = self.m
        self.ut[m] = k
        self.ut[m + 1] = z
        self.d[m : m + 2] = (-1.0 / k_ii, 1.0 / w)
        self.m = m + 2
        if self.m == self.ut.shape[0]:
            self.fold()

    def fold(self) -> None:
        """Add the pending updates to ``k0``, which is then the inverse."""
        m = self.m
        if m:
            ut = self.ut[:m]
            self.k0 += (ut.T * self.d[:m]) @ ut
            self.m = 0


def _rows_with_parents(g: AncestralGraph) -> np.ndarray:
    """The vertices with parents: the rows of beta that can be nonzero."""
    return np.array(sorted({head for _, head in g.directed_pairs}), dtype=int)


class _VertexPlan:
    """Precomputed index arrays for the ICF update of one vertex.

    ``disp`` holds the arrowhead-block vertices as an index array, shared
    by the plans of one fit; it is None when that block is every vertex,
    so that the spouse rows are written without a scatter.
    """

    def __init__(self, g: AncestralGraph, i: int, disp_map: IndexMap, disp: np.ndarray):
        self.i = i
        self.i_pos = disp_map.position(i)
        self.pa = np.array(sorted(g.pa(i)), dtype=int)
        self.pa_rows = np.arange(self.pa.size)
        self.sp = sorted(g.sp(i))
        sp_pos = disp_map.positions(self.sp)
        self.sp_pos = np.array(sp_pos, dtype=int)
        self.k_rows = np.array([self.i_pos] + sp_pos, dtype=int)
        self.disp = None if disp.size == g.n else disp
        self.rank_message = f"design for vertex {i} is numerically rank deficient"


def _icf_step(
    s: np.ndarray,
    beta: np.ndarray,
    omega: np.ndarray,
    k_inv: _HeldInverse,
    plan: _VertexPlan,
    t: np.ndarray,
) -> None:
    """One conditional maximization, updating ``beta``, ``omega`` and the
    held inverse ``k_inv`` of ``omega`` in place.

    Works from the sample covariance: the regression of the vertex on its
    parents and pseudo-variables reduces to normal equations in ``C s C.T``
    where the rows of C are the coefficient vectors of the covariates as
    linear combinations of the observed variables.  A pseudo-variable
    applies a row of ``inv(omega[-i, -i])`` to the residuals
    ``(I - beta) y``; only the rows ``t`` of ``beta``, the vertices with
    parents, are nonzero, so the residual transform reads those alone.

    The step reads the rows of its vertex and of the spouses off
    ``k_inv``; the spouse rows less their projection on the vertex are
    the rows of ``inv(omega[-i, -i])``, zero in the column of i.  The new
    row of omega enters the inverse as the one rank-2 term
    ``K - k k.T / k_ii + z z.T / w``: k is the old column of i, w the
    residual variance and ``z = u - e_i`` with u the new off-diagonal
    row of omega mapped through ``inv(omega[-i, -i])``.  It needs no
    overwrite of row i because u is zero there.  The step costs O(q p^2)
    instead of a fresh factorization of ``omega[-i, -i]``.

    A vertex without spouses is regressed on its parents alone.  Its row
    and column of omega are zero off the diagonal, so its row of the
    inverse is ``1 / w`` on the diagonal and zero elsewhere; the step
    writes that entry into ``k_inv`` and adds no update.
    """
    i, ip = plan.i, plan.i_pos
    n_pa = plan.pa.size
    c = np.zeros((n_pa + len(plan.sp), s.shape[0]))
    if n_pa:
        c[plan.pa_rows, plan.pa] = 1.0
    if plan.sp:
        k_rows = k_inv.rows(plan.k_rows)
        k_col = k_rows[0]
        k_ii = k_col[ip]
        if k_ii <= 0:
            raise NotPositiveDefinite("omega lost positive definiteness")
        a_sp = k_rows[1:]
        a_sp -= (k_col[plan.sp_pos] / k_ii)[:, None] * k_col
        a_sp[:, ip] = 0.0
        c_sp = c[n_pa:]
        if plan.disp is None:
            c_sp[:] = a_sp
        else:
            c_sp[:, plan.disp] = a_sp
        if t.size:
            c_sp -= c_sp[:, t] @ beta[t]

    cs = c @ s
    gram = cs @ c.T
    gram += gram.T
    gram *= 0.5
    moment = cs[:, i]
    _cholesky(gram, plan.rank_message, SingularDesign)
    coef = np.linalg.solve(gram, moment)

    w_cond = float(s[i, i] - coef @ moment)
    if w_cond <= 0:
        raise SingularDesign(
            f"residual variance for vertex {i} collapsed to {w_cond}"
        )

    if n_pa:
        beta[i, plan.pa] = coef[:n_pa]
    if not plan.sp:
        omega[ip, ip] = w_cond
        k_inv.k0[ip, ip] = 1.0 / w_cond
        return
    w_sp = coef[n_pa:]
    u = a_sp.T @ w_sp
    omega[ip, plan.sp_pos] = w_sp
    omega[plan.sp_pos, ip] = w_sp
    omega[ip, ip] = w_cond + float(w_sp @ u[plan.sp_pos])
    u[ip] = -1.0
    k_inv.update(k_col, k_ii, u, w_cond)


def icf_step(g: AncestralGraph, i, params: ParamSet, y: np.ndarray) -> ParamSet:
    """One ICF update of vertex ``i`` from a variables-by-cases data matrix.

    Regresses variable ``i`` on its parents and on the pseudo-variables
    built from the current residuals of its spouses, and writes back the
    new row of ``beta``, the new bidirected row and column of ``omega``,
    and the new residual variance.  Rows are taken as centered: the
    update uses the cross-product matrix ``y @ y.T / n`` as it stands.
    Returns a new parameter set; the input is unchanged.  Raises
    ``NotPositiveDefinite`` when ``params.omega`` is not positive definite.
    """
    i = g._check_vertex(i)
    if i not in params.disp_map:
        raise ValueError(f"vertex {i} is not in the arrowhead block")
    y = np.asarray(y, dtype=float)
    if y.ndim != 2 or y.shape[0] != g.n:
        raise DimensionMismatch("y must have one row per vertex")
    beta = params.beta.copy()
    omega = params.omega.copy()
    k_inv = _HeldInverse(_spd_inverse(omega, "omega"))
    disp = np.array(params.disp_map.vertices, dtype=int)
    plan = _VertexPlan(g, i, params.disp_map, disp)
    _icf_step(y @ y.T / y.shape[1], beta, omega, k_inv, plan, _rows_with_parents(g))
    return ParamSet(g, params.lam, beta, omega, params.un_map, params.disp_map)


# -- full fit -----------------------------------------------------------------


def _check_dimension(g: AncestralGraph, stats: SampleStats) -> None:
    if stats.p != g.n:
        raise DimensionMismatch(
            f"sample dimension {stats.p} does not match graph order {g.n}"
        )


class _Blocks:
    """Undirected/arrowhead split of a fit with its fixed undirected part.

    Shared by the iterative and the closed-form fit: fits ``lam`` by IPF
    on the undirected block, and assembles the implied covariance, the
    log-likelihood and the final result from the arrowhead parameters.
    ``t`` holds the vertices with parents, all in the arrowhead block.
    """

    def __init__(self, g: AncestralGraph, s: np.ndarray, config: FitConfig):
        self.s = s
        self.un = sorted(g.un_vertices)
        self.disp = sorted(set(range(g.n)) - g.un_vertices)
        self.un_map = IndexMap(tuple(self.un))
        self.disp_map = IndexMap(tuple(self.disp))
        self.t = _rows_with_parents(g)
        self.t_pos = self.disp_map.positions(self.t)
        self.s_disp = s[np.ix_(self.disp, self.disp)]
        self.ipf_converged = True
        if self.un:
            s_un = s[np.ix_(self.un, self.un)]
            g_un = g.subgraph(self.un)
            self.lam = fit_undirected_ipf(
                g_un, s_un, tolerance=config.tolerance, max_cycles=config.max_cycles,
            )
            self.psi_un, logdet_lam = _spd_inverse(self.lam, "lam", logdet=True)
            # IPF returns its last iterate at the cycle cap; its own test,
            # on the same inverse, tells whether it stopped there
            gap = _ipf_gap(self.psi_un, s_un, _ipf_weights(g_un, s_un))
            self.ipf_converged = gap < config.tolerance
            # log det psi_un + tr(lam s_un): the undirected block's share of
            # -2/n times the log-likelihood, fixed once lam is
            self.un_term = float(np.sum(self.lam * s_un)) - logdet_lam
        else:
            self.lam = self.psi_un = np.zeros((0, 0))
            self.un_term = 0.0

    def sigma(self, beta: np.ndarray, omega: np.ndarray) -> np.ndarray:
        psi_m = _embed(beta.shape[0], (self.un, self.psi_un), (self.disp, omega))
        return _implied_sigma(beta, psi_m)

    def loglik(self, n: int, beta: np.ndarray, k: np.ndarray, logdet_omega: float) -> float:
        """Log-likelihood of the implied covariance, given ``k = inv(omega)``
        and log det omega.

        Since det(I - beta) = 1 it is -n/2 [log det psi + tr(inv(psi) R)]
        with R = (I - beta) s (I - beta).T, and psi is block diagonal.  On
        the arrowhead block R differs from s only in the rows and columns
        ``t``, so the cost is O(|t| p^2) plus O(p^2).
        """
        t, r = self.t, self.s_disp
        if t.size:
            rows = -beta[t]
            rows[range(t.size), t] = 1.0
            y = rows @ self.s
            y_disp = y[:, self.disp]
            r = r.copy()
            r[self.t_pos] = y_disp
            r[:, self.t_pos] = y_disp.T
            r[np.ix_(self.t_pos, self.t_pos)] = y @ rows.T
        return -0.5 * n * (self.un_term + logdet_omega + float(np.sum(k * r)))

    def result(self, g, stats, beta, omega, sigma, iterations, converged, logliks):
        return FitResult(
            sigma_hat=sigma,
            params=ParamSet(g, self.lam, beta, omega, self.un_map, self.disp_map),
            deviance=deviance(sigma, stats),
            df=degrees_of_freedom(g),
            iterations=iterations,
            converged=converged and self.ipf_converged,
            logliks=tuple(logliks),
        )


def fit(g: AncestralGraph, stats: SampleStats, config: FitConfig | None = None) -> FitResult:
    """Maximum likelihood fit of the model defined by ``g``.

    The undirected block is fitted first by IPF and held fixed; ICF then
    cycles through the arrowhead-block vertices in ascending index order
    until no entry of the implied covariance moves by ``tolerance`` or
    more in correlation units over one full cycle: the change of entry
    (i, j) is divided by sqrt(s_ii s_jj), so rescaling the variables does
    not change when the fit stops.  When the cycle budget of either stage
    runs out the best parameters so far are returned with
    ``converged=False``.  The stop rule needs the implied covariance after
    every cycle; it is assembled on the rows and columns of the vertices
    with parents, at O(|T| p^2) for |T| such vertices.  The per-cycle
    log-likelihood in ``logliks`` is read off the parameter blocks, not
    off a factorization of the implied covariance.

    The graph must be maximal for the fit to target the intended
    independence model; unless ``config.check_maximality`` is False a
    non-maximal graph raises ``NotMaximal``.  Of several runs
    (``config.restarts``), a later one replaces the kept one only when its
    final log-likelihood is higher by more than a relative 1e-12, so runs
    that reach the same optimum do not swap on rounding.
    """
    config = config or FitConfig()
    _check_dimension(g, stats)
    if config.check_maximality and not is_maximal(g):
        raise NotMaximal("graph has an inseparable non-adjacent pair; complete it first")

    s = stats.s
    blocks = _Blocks(g, s, config)
    disp = blocks.disp
    disp_idx = np.array(disp, dtype=int)
    plans = [_VertexPlan(g, i, blocks.disp_map, disp_idx) for i in disp]
    scale = _correlation_scale(s)
    rng = np.random.default_rng(config.seed) if config.restarts else None

    best = None
    for run in range(config.restarts + 1):
        beta0 = np.zeros((g.n, g.n))
        if run == 0:
            omega0 = np.diag(s[disp, disp]) if disp else np.zeros((0, 0))
        else:
            for tail, head in g.directed_pairs:
                beta0[head, tail] = rng.normal(0.0, 0.5)
            omega0 = (
                np.diag(s[disp, disp] * rng.uniform(0.5, 2.0, len(disp)))
                if disp
                else np.zeros((0, 0))
            )
        result = _run_icf(g, stats, blocks, beta0, omega0, plans, scale, config)
        if best is None or (
            result.logliks[-1] - best.logliks[-1]
            > _RESTART_MARGIN * abs(best.logliks[-1])
        ):
            best = result
    return best


def _correlation_scale(s: np.ndarray) -> np.ndarray:
    """``1 / sqrt(s_ii s_jj)``: turns a covariance change into correlation units."""
    d = 1.0 / np.sqrt(np.diag(s))
    return np.outer(d, d)


def _run_icf(g, stats, blocks, beta, omega, plans, scale, config) -> FitResult:
    s, n = stats.s, stats.n
    # a vertex without spouses is a regression on its parents alone: the
    # first cycle settles it, and no later step reads what it wrote
    with_spouses = [plan for plan in plans if plan.sp]
    k0, logdet = _spd_inverse(omega, "omega", logdet=True)
    # one inverse of omega for the whole run, kept current by the steps
    k_inv = _HeldInverse(k0)
    sigma = blocks.sigma(beta, omega)
    logliks = [blocks.loglik(n, beta, k0, logdet)]
    iterations = 0
    converged = not plans
    visit = plans
    for cycle in range(1, config.max_cycles + 1):
        if not plans:
            break
        for plan in visit:
            _icf_step(s, beta, omega, k_inv, plan, blocks.t)
        visit = with_spouses
        k_inv.fold()
        new_sigma = blocks.sigma(beta, omega)
        # the factor checks that omega is still positive definite
        logdet = _logdet(_cholesky(omega, "omega is not positive definite"))
        logliks.append(blocks.loglik(n, beta, k_inv.k0, logdet))
        delta = float(np.max(np.abs(new_sigma - sigma) * scale))
        sigma = new_sigma
        iterations = cycle
        if delta < config.tolerance:
            converged = True
            break
    return blocks.result(g, stats, beta, omega, sigma, iterations, converged, logliks)


def fit_dag_closed_form(
    g: AncestralGraph, stats: SampleStats, config: FitConfig | None = None
) -> FitResult:
    """Exact one-pass fit for graphs without bidirected edges.

    Each vertex with parents is regressed on them directly; the
    undirected block is handled exactly as in :func:`fit`.  For such
    graphs the ICF updates do not interact, so this closed form equals
    the iterative fit.
    """
    config = config or FitConfig()
    if g.bidirected_pairs:
        raise ValueError("closed form requires a graph without bidirected edges")
    _check_dimension(g, stats)
    s = stats.s
    blocks = _Blocks(g, s, config)
    beta = np.zeros((g.n, g.n))
    omega = np.zeros((len(blocks.disp), len(blocks.disp)))
    for pos, i in enumerate(blocks.disp):
        pa = sorted(g.pa(i))
        if pa:
            spp = s[np.ix_(pa, pa)]
            spi = s[pa, i]
            msg = f"parent covariance for vertex {i} is rank deficient"
            _cholesky(spp, msg, SingularDesign)
            coef = np.linalg.solve(spp, spi)
            beta[i, pa] = coef
            omega[pos, pos] = float(s[i, i] - coef @ spi)
        else:
            omega[pos, pos] = s[i, i]

    sigma = blocks.sigma(beta, omega)
    return blocks.result(
        g, stats, beta, omega, sigma, 1, True, [log_likelihood(sigma, stats)]
    )
