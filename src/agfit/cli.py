"""Command line interface: ``check``, ``fit`` and ``simulate``.

Exit codes

* ``check``: 0 valid and maximal, 1 valid but not maximal, 2 invalid,
  3 unparseable file.
* ``fit``: 0 converged, 1 not converged, 2 invalid graph, 3 unparseable
  file, 4 label mismatch, bad flags or a model error such as a
  non-maximal graph or a covariance that is not finite.  Flags out of
  range are bad flags: ``--tol`` not above 0, ``--max-cycles`` or
  ``--n`` below 1, ``--precision`` below 0; so are flags that do not
  apply to the input: ``--n`` with ``--data``, ``--centered`` with
  ``--cov``.
* ``simulate``: 0 no convergence failures, 1 otherwise, 4 bad flags or
  an ``--out`` file that cannot be written (checked before the run).
* any command: 1 when standard output is closed before all output is
  written (for example piped into ``head``); nothing is printed.

Start-up

``check`` imports no numpy; ``fit`` and ``simulate`` import the
numerical modules when they run.  Run as a program (the ``agfit``
script or ``python -m agfit.cli``), the CLI runs OpenBLAS at one thread
unless ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or
``MKL_NUM_THREADS`` is set; setting one of them chooses the count.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import json
import os
import sys

from .errors import (
    AgfitError,
    GraphError,
    GraphParseError,
    InvalidCoding,
    LabelMismatch,
    NotPositiveDefinite,
    SelfLoop,
)
from .graph import AncestralGraph, read_graph_csv, read_matrix_csv
# is_maximal is not called here; the benchmark's tracer wraps it under this name
from .mseparation import implied_pairwise_independences, is_maximal  # noqa: F401

# Names that need numpy: bound by the commands that use them (see _load),
# so that ``check`` starts without numpy.
_NUMERIC = (
    "FitConfig",
    "SampleStats",
    "chi_square_pvalue",
    "empirical_covariance",
    "fit",
    "run_scaling_experiment",
)
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def __getattr__(name):
    if name not in _NUMERIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the package holds each name as its submodule defined it
    value = getattr(importlib.import_module(__package__), name)
    return globals().setdefault(name, value)


def _load(*names) -> None:
    """Bind the given names of ``_NUMERIC`` as globals of this module.

    A name already bound, for example to a wrapper that the benchmark's
    tracer set on this module, is kept: the commands call these names as
    globals, as they call the ones imported above.
    """
    for name in names:
        __getattr__(name)


class _FlagError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _FlagError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="agfit",
        description="Validate, fit and benchmark Gaussian ancestral graph models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate a graph file")
    p_check.add_argument("graph", help="adjacency matrix CSV")

    p_fit = sub.add_parser("fit", help="fit a model to data or a covariance")
    p_fit.add_argument("--graph", required=True, help="adjacency matrix CSV")
    src = p_fit.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", help="cases-by-variables data CSV with a header")
    src.add_argument("--cov", help="covariance matrix CSV")
    p_fit.add_argument("--n", type=int, help="sample size behind --cov")
    p_fit.add_argument("--tol", type=float, default=1e-6)
    p_fit.add_argument("--max-cycles", type=int, default=5000)
    p_fit.add_argument(
        "--centered", action="store_true",
        help="treat --data rows as already centered "
        "(default: remove column means first)",
    )
    p_fit.add_argument("--format", choices=("text", "json"), default="text")
    p_fit.add_argument("--precision", type=int, default=2,
                       help="decimals in text output")

    p_sim = sub.add_parser("simulate", help="run the scaling experiment")
    p_sim.add_argument("--p-min", type=int, required=True)
    p_sim.add_argument("--p-max", type=int, required=True)
    p_sim.add_argument("--step", type=int, default=10)
    p_sim.add_argument("--replicates", type=int, default=100)
    p_sim.add_argument("--rho", type=float, default=0.3)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", help="replicate CSV destination (default stdout)")
    return parser


# -- matrix file reading ------------------------------------------------------


def _read_data_csv(path):
    """Cases-by-variables table with a header; returns (labels, cases matrix)."""
    import numpy as np

    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if any(c.strip() for c in row)]
    if len(rows) < 2:
        raise GraphParseError(f"data file {path} needs a header and at least one case")
    labels = [c.strip() for c in rows[0]]
    data = []
    for r, row in enumerate(rows[1:], start=2):
        cells = [c.strip() for c in row]
        if len(cells) != len(labels):
            raise GraphParseError(
                f"row has {len(cells)} cells, expected {len(labels)}", line=r
            )
        vals = []
        for c_idx, cell in enumerate(cells, start=1):
            try:
                vals.append(float(cell))
            except ValueError:
                raise GraphParseError(
                    f"expected a number, found {cell!r}", line=r, column=c_idx
                ) from None
        data.append(vals)
    return labels, np.array(data, dtype=float)


def _align_to_graph(g: AncestralGraph, labels, matrix, *, axis: str):
    """Select and order data columns to the graph's labels.

    Unlabeled input must already match the graph's dimension and order;
    labeled input may be a superset of the graph's variables.
    """
    import numpy as np

    if labels is None:
        size = matrix.shape[0] if axis == "both" else matrix.shape[1]
        if size != g.n:
            raise LabelMismatch(
                f"unlabeled input of dimension {size} for a graph on {g.n} vertices"
            )
        return matrix
    missing = [lab for lab in g.labels if lab not in labels]
    if missing:
        raise LabelMismatch(
            f"graph variables missing from the input: {', '.join(missing)}"
        )
    sel = [labels.index(lab) for lab in g.labels]
    if axis == "both":
        return matrix[np.ix_(sel, sel)]
    return matrix[:, sel]


# -- output formatting --------------------------------------------------------


def _fmt(value: float, precision: int) -> str:
    text = f"{value:.{precision}f}"
    if float(text) == 0.0:
        text = f"{0.0:.{precision}f}"
    return text


def _format_matrix(labels, m, precision: int) -> str:
    import numpy as np

    cells = [[_fmt(v, precision) for v in row] for row in np.asarray(m, dtype=float)]
    widths = [
        max(len(labels[j]), max(len(cells[i][j]) for i in range(len(cells))))
        for j in range(len(labels))
    ]
    left = max(len(lab) for lab in labels)
    lines = [
        " ".join([" " * left] + [labels[j].rjust(widths[j]) for j in range(len(labels))])
    ]
    for i, lab in enumerate(labels):
        lines.append(
            " ".join([lab.ljust(left)] + [cells[i][j].rjust(widths[j]) for j in range(len(labels))])
        )
    return "\n".join(lines)


def _embed(block, idx, n):
    import numpy as np

    out = np.zeros((n, n))
    if len(idx):
        out[np.ix_(idx, idx)] = block
    return out


def _fit_report(g, result, stats, args, out):
    import numpy as np

    n = g.n
    un = list(result.params.un_map.vertices)
    disp = list(result.params.disp_map.vertices)
    lam_cov = np.linalg.inv(result.lambda_hat) if un else np.zeros((0, 0))
    blocks = [
        ("$Shat", result.sigma_hat),
        ("$Lhat", _embed(lam_cov, un, n)),
        ("$Bhat", np.eye(n) - result.beta_hat),
        ("$Ohat", _embed(result.omega_hat, disp, n)),
    ]
    pvalue = (
        chi_square_pvalue(max(result.deviance, 0.0), result.df)
        if result.df >= 1
        else None
    )
    if args.format == "json":
        payload = {
            "labels": list(g.labels),
            "n": stats.n,
            "sigma_hat": result.sigma_hat.tolist(),
            "lambda_hat": result.lambda_hat.tolist(),
            "lambda_cov": lam_cov.tolist(),
            "un_labels": [g.labels[v] for v in un],
            "beta_hat": result.beta_hat.tolist(),
            "omega_hat": result.omega_hat.tolist(),
            "disp_labels": [g.labels[v] for v in disp],
            "deviance": result.deviance,
            "df": result.df,
            "iterations": result.iterations,
            "converged": result.converged,
            "pvalue": pvalue,
            "tolerance": args.tol,
            "max_cycles": args.max_cycles,
        }
        print(json.dumps(payload, indent=2), file=out)
        return
    prec = args.precision
    for name, matrix in blocks:
        print(name, file=out)
        print(_format_matrix(list(g.labels), matrix, prec), file=out)
        print(file=out)
    print(f"$dev\n[1] {_fmt(result.deviance, prec)}\n", file=out)
    print(f"$df\n[1] {result.df}\n", file=out)
    print(f"$it\n[1] {result.iterations}\n", file=out)
    if pvalue is not None:
        print(f"$pvalue\n[1] {_fmt(pvalue, prec)}\n", file=out)
    if un:
        print("$Lhat_concentration", file=out)
        print(
            _format_matrix(
                list(g.labels), _embed(result.lambda_hat, un, n), prec
            ),
            file=out,
        )
        print(file=out)
    if not result.converged:
        print(
            f"warning: not converged after {result.iterations} cycles",
            file=sys.stderr,
        )


# -- subcommands --------------------------------------------------------------


def _cmd_check(args, out) -> int:
    try:
        g = read_graph_csv(args.graph)
    except (GraphParseError, InvalidCoding, SelfLoop, OSError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except GraphError as exc:
        print(f"invalid: {exc}", file=out)
        return 2
    name = lambda v: g.labels[v]
    nameset = lambda vs: "{" + ", ".join(name(v) for v in sorted(vs)) + "}"
    print("valid: yes", file=out)
    print(f"vertices: {g.n}", file=out)
    print(f"edges: {g.edge_count}", file=out)
    print(f"un: {nameset(g.un_vertices)}", file=out)
    print(f"db: {nameset(g.db_vertices)}", file=out)
    independences = implied_pairwise_independences(g)
    maximal = all(st.holds for st in independences)
    print(f"maximal: {'yes' if maximal else 'no'}", file=out)
    print("independences:", file=out)
    for st in independences:
        (i,) = st.a
        (j,) = st.b
        if st.holds:
            print(f"  {name(i)} _||_ {name(j)} | {nameset(st.c)}", file=out)
        else:
            print(f"  {name(i)} , {name(j)}: no separating set", file=out)
    return 0 if maximal else 1


def _cmd_fit(args, out) -> int:
    if args.cov is not None and args.n is None:
        raise _FlagError("--cov requires --n")
    if args.data is not None and args.n is not None:
        raise _FlagError("--n applies only to --cov; --data counts its cases")
    if args.cov is not None and args.centered:
        raise _FlagError("--centered applies only to --data")
    if args.n is not None and args.n < 1:
        raise _FlagError("--n must be at least 1")
    if not args.tol > 0:
        raise _FlagError("--tol must be positive")
    if args.max_cycles < 1:
        raise _FlagError("--max-cycles must be at least 1")
    if args.precision < 0:
        raise _FlagError("--precision cannot be negative")
    _load("FitConfig", "fit", "SampleStats", "chi_square_pvalue", "empirical_covariance")
    try:
        g = read_graph_csv(args.graph)
    except GraphError as exc:
        print(f"graph error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, (GraphParseError, InvalidCoding, SelfLoop)) else 2
    except (GraphParseError, OSError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3

    try:
        if args.cov is not None:
            labels, matrix = read_matrix_csv(args.cov, float)
            s = _align_to_graph(g, labels, matrix, axis="both")
            stats = SampleStats.from_covariance(s, args.n)
        else:
            labels, table = _read_data_csv(args.data)
            table = _align_to_graph(g, labels, table, axis="cols")
            stats = empirical_covariance(
                table.T, mean_adjusted=not args.centered
            )
    except (GraphParseError, OSError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except LabelMismatch as exc:
        print(f"label mismatch: {exc}", file=sys.stderr)
        return 4
    except AgfitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4

    config = FitConfig(tolerance=args.tol, max_cycles=args.max_cycles)
    try:
        result = fit(g, stats, config)
    except AgfitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    _fit_report(g, result, stats, args, out)
    return 0 if result.converged else 1


def _cmd_simulate(args, out) -> int:
    if args.p_min < 3 or args.p_max < args.p_min or args.step < 1:
        raise _FlagError("need 3 <= p-min <= p-max and step >= 1")
    if args.replicates < 1:
        raise _FlagError("need at least one replicate")
    _load("run_scaling_experiment")
    p_values = list(range(args.p_min, args.p_max + 1, args.step))
    try:  # before the experiment, so that a bad path fails at once
        dest = open(args.out, "w", newline="") if args.out else out
    except OSError as exc:
        raise _FlagError(f"cannot write {args.out}: {exc.strerror}") from None
    try:
        report = run_scaling_experiment(
            p_values, replicates=args.replicates, rho=args.rho, seed=args.seed
        )
        for s in report.summaries():
            print(
                f"p={s.p} replicates={s.replicates} mean_it={s.mean_iterations:.2f} "
                f"min={s.min_iterations} max={s.max_iterations} "
                f"failures={s.failures} mean_cpu={s.mean_cpu_seconds:.4f}s",
                file=sys.stderr,
            )
        report.to_csv(dest)
    except NotPositiveDefinite as exc:
        raise _FlagError(str(exc)) from None
    finally:
        if dest is not out:
            dest.close()
    return 0 if report.failures == 0 else 1


def main(argv=None) -> int:
    """Run one command; ``argv`` defaults to the process arguments.

    Run as a program (``argv`` None), the CLI sets OpenBLAS to one thread
    unless one of ``_BLAS_THREAD_VARIABLES`` is set: a second thread makes
    numpy's import and these small fits slower.  Called with ``argv``, it
    leaves the environment alone.
    """
    if argv is None and not any(v in os.environ for v in _BLAS_THREAD_VARIABLES):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read when numpy loads
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        out = sys.stdout
        if args.command == "check":
            rc = _cmd_check(args, out)
        elif args.command == "fit":
            rc = _cmd_fit(args, out)
        else:
            rc = _cmd_simulate(args, out)
        out.flush()
        return rc
    except _FlagError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 4
    except BrokenPipeError:
        # The reader closed standard output.  Point its descriptor at
        # devnull so the interpreter's own flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
