"""Independent checks of agfit's outputs.

Nothing here imports agfit: every expected value is computed again with
numpy (and scipy.stats for the chi-square tail), or follows from how the
benchmark built its inputs.  Each ``*_failures`` function returns the
names of the checks an output fails; an empty list means it passed.
"""

from __future__ import annotations

import json
import re

import numpy as np
from scipy import stats as sps

# Tolerances.  The fitter stops when the largest change of the implied
# covariance over one cycle drops below 1e-6; at its answers the score
# and the gradient below measure at most about 1e-7, while an error of
# 1e-3 in one entry of sigma_hat or one parameter moves them by 1e-4 or
# more.
SCORE_TOL = 1e-5  # score equations, relative to max |inv(sigma_hat)|
GRAD_TOL = 1e-5  # finite-difference gradient of loglik / n
DEV_RTOL = 1e-8  # deviance against our own formula
PVALUE_RTOL = 1e-9
LOGLIK_SLACK = 1e-10  # roundoff allowed in a non-decreasing trace

TAIL, ARROW = 0, 1


# -- shared numerics ----------------------------------------------------------


def own_deviance(sigma_hat, s, n) -> float:
    """n * (tr(inv(sigma_hat) s) - log det(inv(sigma_hat) s) - p)."""
    k_s = np.linalg.solve(sigma_hat, s)
    sign, logdet = np.linalg.slogdet(k_s)
    if sign <= 0:
        return float("nan")
    return float(n * (np.trace(k_s) - logdet - s.shape[0]))


def own_df(p, n_edges) -> int:
    return p * (p + 1) // 2 - (p + n_edges)


def _close(a, b, rtol) -> bool:
    return bool(np.isfinite(a) and abs(a - b) <= rtol * max(1.0, abs(b)))


# -- cycle_fit ----------------------------------------------------------------


def cycle_mask(p) -> np.ndarray:
    """True on the diagonal and on the edges of the p-cycle."""
    d = np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
    return (d <= 1) | (d == p - 1)


def cycle_fit_failures(s, n, sigma_hat, deviance, logliks, converged) -> list:
    s = np.asarray(s)
    sigma_hat = np.asarray(sigma_hat)
    on = cycle_mask(s.shape[0])
    fails = []
    if not converged:
        fails.append("cycle_fit.converged")
    if np.any(sigma_hat[~on] != 0.0):
        fails.append("cycle_fit.zero_off_cycle")
    k = np.linalg.inv(sigma_hat)
    score = k - k @ s @ k
    if not np.max(np.abs(score[on])) <= SCORE_TOL * np.max(np.abs(k)):
        fails.append("cycle_fit.score_equations")
    ll = np.asarray(logliks, dtype=float)
    if ll.size < 2 or np.any(np.diff(ll) < -LOGLIK_SLACK * np.max(np.abs(ll))):
        fails.append("cycle_fit.loglik_nondecreasing")
    if not _close(deviance, own_deviance(sigma_hat, s, n), DEV_RTOL):
        fails.append("cycle_fit.deviance")
    return fails


# -- m-separation by path enumeration -----------------------------------------


class MixedGraph:
    """Edge lists of a mixed graph, with incident edges listed by vertex."""

    def __init__(self, n, undirected=(), directed=(), bidirected=()):
        self.n = n
        self.undirected = frozenset(tuple(sorted(e)) for e in undirected)
        self.directed = frozenset(tuple(e) for e in directed)
        self.bidirected = frozenset(tuple(sorted(e)) for e in bidirected)
        self.inc = [[] for _ in range(n)]  # (w, mark at v, mark at w)
        self.parents = [set() for _ in range(n)]
        for a, b in self.undirected:
            self.inc[a].append((b, TAIL, TAIL))
            self.inc[b].append((a, TAIL, TAIL))
        for a, b in self.directed:
            self.inc[a].append((b, TAIL, ARROW))
            self.inc[b].append((a, ARROW, TAIL))
            self.parents[b].add(a)
        for a, b in self.bidirected:
            self.inc[a].append((b, ARROW, ARROW))
            self.inc[b].append((a, ARROW, ARROW))

    @property
    def edge_count(self) -> int:
        return len(self.undirected) + len(self.directed) + len(self.bidirected)

    def adjacent(self, i, j) -> bool:
        return any(w == j for w, _, _ in self.inc[i])

    def ancestors(self, vs) -> set:
        out = set(vs)
        stack = list(vs)
        while stack:
            for u in self.parents[stack.pop()]:
                if u not in out:
                    out.add(u)
                    stack.append(u)
        return out

    def m_connected(self, i, j, c) -> bool:
        """True when some path between i and j m-connects them given c.

        Enumerates simple paths depth first, abandoning a path as soon as
        one of its inner vertices blocks it: a collider outside an(c) or
        a non-collider inside c.
        """
        c = set(c)
        anc_c = self.ancestors(c)
        on_path = [False] * self.n
        on_path[i] = True

        def extend(v, mark_in):
            for w, mark_v, mark_w in self.inc[v]:
                if on_path[w]:
                    continue
                if v != i:
                    collider = mark_in == ARROW and mark_v == ARROW
                    if collider and v not in anc_c or not collider and v in c:
                        continue
                if w == j:
                    return True
                on_path[w] = True
                found = extend(w, mark_w)
                on_path[w] = False
                if found:
                    return True
            return False

        return extend(i, None)


# -- model_search -------------------------------------------------------------


def free_entries(g: MixedGraph, un, disp):
    """Free parameters: (block, row, col) with block in lam, beta, omega."""
    upos = {v: k for k, v in enumerate(un)}
    dpos = {v: k for k, v in enumerate(disp)}
    out = [("lam", k, k) for k in range(len(un))]
    out += [("lam", upos[a], upos[b]) for a, b in sorted(g.undirected)]
    out += [("beta", b, a) for a, b in sorted(g.directed)]
    out += [("omega", k, k) for k in range(len(disp))]
    out += [("omega", dpos[a], dpos[b]) for a, b in sorted(g.bidirected)]
    return out


def implied_sigma(lam, beta, omega, un, disp):
    """inv(I - beta) blockdiag(inv(lam), omega) inv(I - beta).T."""
    p = beta.shape[0]
    psi = np.zeros((p, p))
    if len(un):
        psi[np.ix_(un, un)] = np.linalg.inv(lam)
    if len(disp):
        psi[np.ix_(disp, disp)] = omega
    a_inv = np.linalg.inv(np.eye(p) - beta)
    return a_inv @ psi @ a_inv.T


def gaussian_loglik(sigma, s, n) -> float:
    sign, logdet = np.linalg.slogdet(sigma)
    if sign <= 0:
        return float("nan")
    return float(-0.5 * n * (logdet + np.trace(np.linalg.solve(sigma, s))))


def loglik_gradient(g, lam, beta, omega, un, disp, s, n):
    """Central differences of our log-likelihood / n over the free entries."""
    blocks = {"lam": lam, "beta": beta, "omega": omega}
    grad = []
    for name, r, c in free_entries(g, un, disp):
        m = blocks[name]
        h = 1e-6 * max(1.0, abs(m[r, c]))
        vals = []
        for step in (h, -h):
            trial = {k: v.copy() for k, v in blocks.items()}
            trial[name][r, c] += step
            if name != "beta" and r != c:
                trial[name][c, r] += step
            sig = implied_sigma(trial["lam"], trial["beta"], trial["omega"], un, disp)
            vals.append(gaussian_loglik(sig, s, n) / n)
        grad.append((vals[0] - vals[1]) / (2 * h))
    return np.array(grad)


def model_search_failures(cand, out, check_seed) -> list:
    """Checks one candidate's five outputs.

    ``cand`` carries the candidate's edge lists (``mixed``, a MixedGraph),
    the pairs its gadgets make inseparable (``gadget_pairs``), the sample
    covariance ``s`` and size ``n``.  ``out`` holds plain copies of the
    program's outputs: ``maximal``, ``completed`` (a MixedGraph),
    ``independences`` as (i, j, c, holds) tuples, and the fit's
    ``sigma_hat``, ``lam``, ``beta``, ``omega``, ``un``, ``disp``,
    ``deviance``, ``df``, ``converged`` and ``pvalue``.
    """
    g = cand.mixed
    gadget = set(cand.gadget_pairs)
    fails = []
    if out["maximal"] != (not gadget):
        fails.append("model_search.is_maximal")

    comp = out["completed"]
    if (
        comp.undirected != g.undirected
        or comp.directed != g.directed
        or comp.bidirected != g.bidirected | gadget
    ):
        fails.append("model_search.completion_adds_gadget_pairs")

    nonadj = {(i, j) for i in range(g.n) for j in range(i + 1, g.n) if not g.adjacent(i, j)}
    records = out["independences"]
    if {(i, j) for i, j, _, _ in records} != nonadj or {
        (i, j) for i, j, _, holds in records if not holds
    } != gadget:
        fails.append("model_search.inseparable_pairs")
    if not m_separation_sample_agrees(g, records, check_seed):
        fails.append("model_search.m_separation_sample")

    if not out["converged"]:
        fails.append("model_search.converged")
    if out["df"] != own_df(comp.n, comp.edge_count):
        fails.append("model_search.df")
    if not _close(out["deviance"], own_deviance(out["sigma_hat"], cand.s, cand.n), DEV_RTOL):
        fails.append("model_search.deviance")
    if not _close(out["pvalue"], sps.chi2.sf(out["deviance"], out["df"]), PVALUE_RTOL):
        fails.append("model_search.pvalue")
    sig = implied_sigma(out["lam"], out["beta"], out["omega"], out["un"], out["disp"])
    if not np.allclose(sig, out["sigma_hat"], rtol=1e-9, atol=1e-12):
        fails.append("model_search.params_imply_sigma")
    grad = loglik_gradient(
        comp, out["lam"], out["beta"], out["omega"], out["un"], out["disp"], cand.s, cand.n
    )
    if not np.max(np.abs(grad)) <= GRAD_TOL:
        fails.append("model_search.stationary")
    return fails


def m_separation_sample_agrees(g: MixedGraph, records, check_seed, k=4) -> bool:
    """Re-derives a seeded sample of the program's separation verdicts.

    A record with a separating set c says i and j are m-separated given c
    and, since c is a smallest such set, connected given a set of
    |c| - 1 other vertices.  A record without one says i and j are
    connected given every set; two random sets stand in for all.
    """
    rng = np.random.default_rng(check_seed)
    if not records:
        return True
    picks = rng.choice(len(records), size=min(k, len(records)), replace=False)
    for idx in sorted(picks):
        i, j, c, holds = records[idx]
        rest = [v for v in range(g.n) if v not in (i, j)]
        if holds:
            if g.m_connected(i, j, c):
                return False
            if c:
                smaller = rng.choice(rest, size=len(c) - 1, replace=False)
                if not g.m_connected(i, j, [int(v) for v in smaller]):
                    return False
        else:
            for _ in range(2):
                size = int(rng.integers(0, len(rest) + 1))
                sub = rng.choice(rest, size=size, replace=False)
                if not g.m_connected(i, j, [int(v) for v in sub]):
                    return False
    return True


# -- cli ----------------------------------------------------------------------

MOTH_INDEPENDENCES = {
    "max _||_ wind | {}",
    "max _||_ rain | {}",
    "wind _||_ cloud | {rain}",
    "wind _||_ moth | {rain}",
    "rain _||_ moth | {cloud}",
}
MOTH_FIT = {"moth": (10.2191, 5), "moth_extended": (2.0055, 4)}


def check_output_failures(code, stdout) -> list:
    """`agfit check` on the moth graph: exit 0 and the hand-derived list."""
    fails = []
    if code != 0:
        fails.append("cli.check.exit_code")
    lines = stdout.splitlines()
    if "maximal: yes" not in lines or "independences:" not in lines:
        fails.append("cli.check.maximal")
        return fails
    found = {ln.strip() for ln in lines[lines.index("independences:") + 1:] if ln.strip()}
    if found != MOTH_INDEPENDENCES:
        fails.append("cli.check.independences")
    return fails


def _text_value(stdout, key):
    m = re.search(r"^\$" + key + r"\n\[1\] (\S+)$", stdout, re.M)
    return float(m.group(1)) if m else float("nan")


def moth_fit_failures(model, code, stdout, fmt) -> list:
    """Published deviance and df, and the p-value against scipy's chi2."""
    dev_ref, df_ref = MOTH_FIT[model]
    fails = []
    if code != 0:
        fails.append(f"cli.fit_{model}.exit_code")
    if fmt == "json":
        try:
            res = json.loads(stdout)
        except ValueError:
            return fails + [f"cli.fit_{model}.json"]
        dev, df, pval = res["deviance"], res["df"], res["pvalue"]
        pval_ok = _close(pval, sps.chi2.sf(dev, df), PVALUE_RTOL)
        if not res["converged"]:
            fails.append(f"cli.fit_{model}.converged")
    else:  # four decimals of text output
        dev, df, pval = (_text_value(stdout, k) for k in ("dev", "df", "pvalue"))
        pval_ok = abs(pval - sps.chi2.sf(dev_ref, df_ref)) <= 6e-5
    if not abs(dev - dev_ref) <= 5e-5:
        fails.append(f"cli.fit_{model}.deviance")
    if df != df_ref:
        fails.append(f"cli.fit_{model}.df")
    if not pval_ok:
        fails.append(f"cli.fit_{model}.pvalue")
    return fails


def dag_least_squares(labels, table, parents):
    """ML covariance of a DAG: one least-squares regression per vertex.

    ``table`` is cases by variables in ``labels`` order; ``parents`` maps
    a label to its parent labels.  Columns are centred first, as the
    command line does by default, and variances are scaled by 1/n.
    """
    y = table - table.mean(axis=0)
    n, p = y.shape
    pos = {lab: k for k, lab in enumerate(labels)}
    beta = np.zeros((p, p))
    omega = np.zeros(p)
    for lab, k in pos.items():
        pa = [pos[q] for q in parents.get(lab, ())]
        resid = y[:, k]
        if pa:
            coef, *_ = np.linalg.lstsq(y[:, pa], y[:, k], rcond=None)
            beta[k, pa] = coef
            resid = y[:, k] - y[:, pa] @ coef
        omega[k] = resid @ resid / n
    a_inv = np.linalg.inv(np.eye(p) - beta)
    return a_inv @ np.diag(omega) @ a_inv.T


def data_fit_failures(code, stdout, labels, table, parents) -> list:
    """`fit --data` on the generated DAG cases against our regressions."""
    fails = []
    if code != 0:
        fails.append("cli.fit_data.exit_code")
    try:
        res = json.loads(stdout)
    except ValueError:
        return fails + ["cli.fit_data.json"]
    order = [labels.index(lab) for lab in res["labels"]]
    expect = dag_least_squares(labels, table, parents)[np.ix_(order, order)]
    if not np.allclose(res["sigma_hat"], expect, rtol=1e-8, atol=1e-10):
        fails.append("cli.fit_data.sigma_hat")
    n_edges = sum(len(v) for v in parents.values())
    if res["df"] != own_df(len(order), n_edges):
        fails.append("cli.fit_data.df")
    return fails


def chain_closed_form(s):
    """ML covariance of the undirected chain 0 - 1 - 2: S on both cliques."""
    out = np.array(s, dtype=float)
    out[0, 2] = out[2, 0] = s[0, 1] * s[1, 2] / s[1, 1]
    return out


def numeric_label_failures(code, stdout, s) -> list:
    """`fit --cov` on the 3-vertex file with numeric labels, when it works."""
    if code != 0:
        return ["cli.fit_numeric_labels.exit_code"]
    try:
        res = json.loads(stdout)
    except ValueError:
        return ["cli.fit_numeric_labels.json"]
    if not np.allclose(res["sigma_hat"], chain_closed_form(s), rtol=1e-8, atol=1e-10):
        return ["cli.fit_numeric_labels.sigma_hat"]
    return []
