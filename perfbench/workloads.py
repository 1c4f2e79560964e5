"""The three workloads: inputs made from a seed, one call per operation.

Each workload builds its inputs through agfit's public API (simulation,
parameters, graphs), runs one operation as the calls a user makes, and
hands the outputs to ``checks`` in plain numpy form.  All calls go
through the module objects in ``Api`` so that the traced run can wrap
them.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

# cycle_fit: (p, fits per round).  n = p + 30 and rho = 0.3 follow the
# paper's scaling study.  The counts place the median operation inside
# the p = 100 group and the 90th percentile inside the p = 200 group, so
# neither quantile sits on a boundary between sizes.
CYCLE_MIX = ((50, 8), (71, 4), (100, 8), (141, 4), (200, 5), (400, 1))
CYCLE_RHO = 0.3

# model_search: (p, gadget, candidates per round).  Candidates without a
# gadget are maximal; a gadget makes one pair inseparable, so the
# exhaustive separating-set search has to try every conditioning set.
# The gadget groups fill the top 60% of operation times with a narrow
# spread, keeping the median and 90th percentile off group boundaries.
MODEL_MIX = (
    (10, False, 3), (11, False, 3), (12, False, 3), (13, False, 3),
    (14, False, 3), (15, False, 3), (16, False, 2),
    (15, True, 10), (16, True, 20),
)
MODEL_N = 200
UN_BLOCK = 3  # undirected block: the path 0 - 1 - 2
SINKS = 3  # childless vertices joined by the path s0 <-> s1 <-> s2

# cli: a five-variable DAG for `fit --data`, with an extra unused column.
DAG_PARENTS = {"x3": ("x1", "x2"), "x4": ("x3",), "x5": ("x2", "x4")}
DAG_LABELS = ("x1", "x2", "x3", "x4", "x5")
DAG_CASES = 200
# Fixed (not seeded) 3-vertex covariance with numeric labels and an empty
# corner cell; the chain 0 - 1 - 2 is written in the same layout.
CHAIN_S = np.array([[2.0, 0.6, 0.3], [0.6, 1.5, 0.5], [0.3, 0.5, 1.2]])
CHAIN_N = 50
KNOWN_FAULT = "row has 4 cells, expected 3"


class Api:
    """agfit's modules, looked up by the names other modules use."""

    def __init__(self):
        for attr, mod in (
            ("cli", "cli"), ("datasets", "datasets"), ("fitm", "fit"),
            ("graph", "graph"), ("ms", "mseparation"), ("params", "params"),
            ("sim", "sim"), ("stats", "stats"),
        ):
            setattr(self, attr, importlib.import_module("agfit." + mod))


# -- cycle_fit ----------------------------------------------------------------


@dataclass
class CycleOp:
    p: int
    graph: object
    stats: object


class CycleFit:
    name = "cycle_fit"

    def __init__(self, api, seed, workdir):
        self.ops = []
        for p, count in CYCLE_MIX:
            sigma = api.sim.cycle_covariance(p, CYCLE_RHO)
            graph = api.sim.bidirected_cycle_graph(p)
            for k in range(count):
                y = api.sim.sample_mvn(sigma, p + 30, seed=(seed, p, k))
                self.ops.append(CycleOp(p, graph, api.stats.empirical_covariance(y)))

    def fingerprint(self):
        return [float(op.stats.s.sum()) for op in self.ops]

    def run(self, api, op, in_process):
        return api.fitm.fit(op.graph, op.stats)

    def failures(self, op, res):
        return checks.cycle_fit_failures(
            op.stats.s, op.stats.n, res.sigma_hat, res.deviance, res.logliks, res.converged
        ), False


# -- model_search -------------------------------------------------------------


@dataclass
class Candidate:
    graph: object  # agfit.AncestralGraph given to the program
    mixed: checks.MixedGraph  # the same edges, for the checks
    gadget_pairs: tuple
    stats: object
    check_seed: int

    @property
    def s(self):
        return self.stats.s

    @property
    def n(self):
        return self.stats.n


def random_candidate(rng, p, gadget):
    """Edge lists of one candidate on p vertices, and its gadget pairs.

    The base graph has an undirected path 0 - 1 - 2, a directed part in
    which every later vertex takes one or two parents among earlier
    vertices that are not sinks, and a bidirected path over three
    childless sinks.  Since every vertex with a bidirected edge is
    childless, no inducing path exists and the base graph is maximal.
    A gadget adds a separate component a <-> b <-> c <-> d with b -> d
    and c -> a: a and d are then inseparable.  Vertices are relabelled by
    a random permutation.
    """
    m = p - 4 if gadget else p
    internal = list(range(UN_BLOCK, m - SINKS))
    sinks = list(range(m - SINKS, m))
    und = [(0, 1), (1, 2)]
    dird = []
    for v in internal + sinks:
        cands = list(range(UN_BLOCK)) + [u for u in internal if u < v]
        k = 1 + int(rng.random() < 0.5)
        for u in rng.choice(cands, size=min(k, len(cands)), replace=False):
            dird.append((int(u), v))
    bid = [(sinks[0], sinks[1]), (sinks[1], sinks[2])]
    pairs = []
    if gadget:
        a, b, c, d = m, m + 1, m + 2, m + 3
        bid += [(a, b), (b, c), (c, d)]
        dird += [(b, d), (c, a)]
        pairs = [(a, d)]
    perm = [int(v) for v in rng.permutation(p)]

    def relabel(edges):
        return [(perm[x], perm[y]) for x, y in edges]

    return relabel(und), relabel(dird), relabel(bid), [tuple(sorted(e)) for e in relabel(pairs)]


def true_params(rng, api, graph):
    """Random parameters on ``graph``, diagonally dominant so they are valid."""
    un = sorted(graph.un_vertices)
    disp = sorted(set(range(graph.n)) - graph.un_vertices)
    upos = {v: k for k, v in enumerate(un)}
    dpos = {v: k for k, v in enumerate(disp)}

    def signed(lo, hi):
        return rng.uniform(lo, hi) * rng.choice((-1.0, 1.0))

    lam = np.zeros((len(un), len(un)))
    for a, b in graph.undirected_pairs:
        lam[upos[a], upos[b]] = lam[upos[b], upos[a]] = signed(0.2, 0.4)
    omega = np.zeros((len(disp), len(disp)))
    for a, b in graph.bidirected_pairs:
        omega[dpos[a], dpos[b]] = omega[dpos[b], dpos[a]] = signed(0.2, 0.4)
    beta = np.zeros((graph.n, graph.n))
    for tail, head in graph.directed_pairs:
        beta[head, tail] = signed(0.4, 0.8)
    lam += np.diag(1.0 + np.abs(lam).sum(axis=1))
    omega += np.diag(1.0 + np.abs(omega).sum(axis=1))
    return api.params.ParamSet.for_graph(graph, lam, beta, omega)


class ModelSearch:
    name = "model_search"

    def __init__(self, api, seed, workdir):
        rng = np.random.default_rng((seed, 2))
        self.ops = []
        for p, gadget, count in MODEL_MIX:
            for _ in range(count):
                und, dird, bid, pairs = random_candidate(rng, p, gadget)
                graph = api.graph.AncestralGraph(p, und, dird, bid)
                truth = api.graph.AncestralGraph(p, und, dird, bid + pairs)
                sigma = api.params.build_sigma(true_params(rng, api, truth))
                y = api.sim.sample_mvn(sigma, MODEL_N, seed=(seed, 2, len(self.ops)))
                self.ops.append(Candidate(
                    graph, checks.MixedGraph(p, und, dird, bid), tuple(pairs),
                    api.stats.empirical_covariance(y), int(rng.integers(2**31)),
                ))

    def fingerprint(self):
        return [(op.graph.edges, float(op.stats.s.sum())) for op in self.ops]

    def run(self, api, cand, in_process):
        maximal = api.ms.is_maximal(cand.graph)
        completed = api.ms.maximal_completion(cand.graph)
        independences = api.ms.implied_pairwise_independences(cand.graph)
        res = api.fitm.fit(completed, cand.stats)
        pvalue = api.stats.chi_square_pvalue(res.deviance, res.df)
        return maximal, completed, independences, res, pvalue

    def failures(self, cand, output):
        maximal, completed, independences, res, pvalue = output
        out = {
            "maximal": maximal,
            "completed": checks.MixedGraph(
                completed.n, completed.undirected_pairs,
                completed.directed_pairs, completed.bidirected_pairs,
            ),
            "independences": [
                (min(st.a | st.b), max(st.a | st.b), sorted(st.c), st.holds)
                for st in independences
            ],
            "sigma_hat": res.sigma_hat, "lam": res.lambda_hat, "beta": res.beta_hat,
            "omega": res.omega_hat, "un": list(res.params.un_map.vertices),
            "disp": list(res.params.disp_map.vertices), "deviance": res.deviance,
            "df": res.df, "converged": res.converged, "pvalue": pvalue,
        }
        return checks.model_search_failures(cand, out, cand.check_seed), False


# -- cli ----------------------------------------------------------------------


@dataclass
class CliOp:
    name: str
    argv: list


def _write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


class Cli:
    name = "cli"

    def __init__(self, api, seed, workdir):
        work = Path(workdir)
        data = {k: str(api.datasets.data_path(k)) for k in (
            "moth_graph.csv", "moth_graph_extended.csv", "moth_corr.csv")}
        self.env = dict(os.environ)
        src = str(Path(api.cli.__file__).resolve().parent.parent)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])

        # the DAG: graph file, then seeded cases with offsets, columns
        # shuffled and one extra column the graph does not name
        rng = np.random.default_rng((seed, 3))
        dag = api.graph.AncestralGraph(
            len(DAG_LABELS),
            directed=[(DAG_LABELS.index(q), DAG_LABELS.index(c))
                      for c, ps in DAG_PARENTS.items() for q in ps],
            labels=DAG_LABELS,
        )
        beta = np.zeros((dag.n, dag.n))
        for tail, head in dag.directed_pairs:
            beta[head, tail] = rng.uniform(0.4, 0.8) * rng.choice((-1.0, 1.0))
        disp = sorted(set(range(dag.n)) - dag.un_vertices)
        params = api.params.ParamSet.for_graph(
            dag, np.diag(1.0 / rng.uniform(0.5, 2.0, dag.n - len(disp))), beta,
            np.diag(rng.uniform(0.5, 2.0, len(disp))),
        )
        y = api.sim.sample_mvn(api.params.build_sigma(params), DAG_CASES, seed=(seed, 3))
        self.dag_table = (y + rng.uniform(-5, 5, (dag.n, 1))).T  # cases x DAG_LABELS
        extra = rng.standard_normal(DAG_CASES)
        cols = [*DAG_LABELS, "w"]
        order = [int(k) for k in rng.permutation(len(cols))]
        table = np.column_stack([self.dag_table, extra])
        _write_csv(work / "dag_cases.csv", [[cols[k] for k in order]] + [
            [repr(float(row[k])) for k in order] for row in table])
        adj = dag.to_adjacency()
        _write_csv(work / "dag_graph.csv", [[""] + list(DAG_LABELS)] + [
            [DAG_LABELS[i]] + [int(x) for x in adj[i]] for i in range(dag.n)])

        labels = ["0", "1", "2"]
        chain = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
        _write_csv(work / "chain_graph.csv", [[""] + labels] + [
            [labels[i]] + chain[i] for i in range(3)])
        _write_csv(work / "chain_cov.csv", [[""] + labels] + [
            [labels[i]] + [repr(float(x)) for x in CHAIN_S[i]] for i in range(3)])

        def moth_fit(graph, fmt):
            argv = ["fit", "--graph", data[graph], "--cov", data["moth_corr.csv"],
                    "--n", "72", "--precision", "4"]
            return argv + (["--format", "json"] if fmt == "json" else [])

        self.ops = [
            CliOp("check_moth", ["check", data["moth_graph.csv"]]),
            CliOp("fit_moth_text", moth_fit("moth_graph.csv", "text")),
            CliOp("fit_moth_json", moth_fit("moth_graph.csv", "json")),
            CliOp("fit_moth_extended_text", moth_fit("moth_graph_extended.csv", "text")),
            CliOp("fit_moth_extended_json", moth_fit("moth_graph_extended.csv", "json")),
            CliOp("fit_data", ["fit", "--graph", str(work / "dag_graph.csv"),
                               "--data", str(work / "dag_cases.csv"), "--format", "json"]),
            CliOp("fit_numeric_labels", [
                "fit", "--graph", str(work / "chain_graph.csv"), "--cov",
                str(work / "chain_cov.csv"), "--n", str(CHAIN_N), "--format", "json"]),
        ]

    def fingerprint(self):
        return [float(self.dag_table.sum())]

    def run(self, api, op, in_process):
        """(exit code, stdout, stderr) of one invocation.

        Measured runs start a fresh ``python -m agfit.cli`` process; the
        traced run calls ``agfit.cli.main`` in this process instead.
        """
        if in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = api.cli.main(list(op.argv))
            return code, out.getvalue(), err.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "agfit.cli", *op.argv], env=self.env,
            capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def failures(self, op, output):
        """(failed checks, whether this is the known numeric-label fault)."""
        code, stdout, stderr = output
        name = op.name
        if name == "check_moth":
            return checks.check_output_failures(code, stdout), False
        if name.startswith("fit_moth"):
            model = "moth_extended" if "extended" in name else "moth"
            fmt = "json" if name.endswith("json") else "text"
            return checks.moth_fit_failures(model, code, stdout, fmt), False
        if name == "fit_data":
            return checks.data_fit_failures(
                code, stdout, list(DAG_LABELS), self.dag_table, DAG_PARENTS), False
        if code == 3 and KNOWN_FAULT in stderr:
            return [f"cli.{name}.known_fault"], True
        return checks.numeric_label_failures(code, stdout, CHAIN_S), False


WORKLOADS = {w.name: w for w in (CycleFit, ModelSearch, Cli)}
