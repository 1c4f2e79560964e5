"""agfit benchmark: one workload per run, outputs checked, metrics as JSON.

Run from the repository root:

    python3 perfbench/run.py --workload cycle_fit --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics and the tracing overhead.  Every operation's output is
checked against ``checks``; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("cycle_fit", "model_search", "cli")
# Two OpenBLAS threads make large cycle fits erratic and about 2.9 times
# slower on two cores; that workload runs at one thread (see README).
ONE_BLAS_THREAD = {"cycle_fit"}
SETUP_REPEATS = 5
MIN_OPS = 100  # op_p90_ms needs ten operations above it
HARD_STOP_S = 150.0
IMPORT_CODE = (
    "import time; t = time.perf_counter(); import agfit; "
    "print(time.perf_counter() - t)"
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def fresh_import_seconds(env) -> float:
    """`import agfit` timed inside a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_CODE], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip())


def blas_facts():
    """OpenBLAS libraries loaded in this process and their thread counts."""
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path.lower() and path.endswith(".so"):
                libs.add(path)
    facts = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts[Path(path).name] = fn()
                break
    return facts


def measure(wl, api, args, tracer):
    """Whole rounds of the workload's operations until time and count are met.

    Returns (rounds, attempted, failed, problems); a round is
    (traced, [(op, seconds)]).  Only the operation calls are timed; the
    checks run between them.
    """
    rounds, problems = [], []
    attempted = failed = 0
    start = perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        if traced and not tracer.records:
            tracer.recording = True
        timed = []
        with tracer.installed() if traced else contextlib.nullcontext():
            for op in wl.ops:
                t0 = perf_counter()
                try:
                    output = wl.run(api, op, bool(args.trace))
                except Exception as exc:  # a failing call is counted, not fatal
                    dt = perf_counter() - t0
                    output, fails, known = None, [f"{wl.name}.raised.{type(exc).__name__}: {exc}"], False
                else:
                    dt = perf_counter() - t0
                    fails, known = wl.failures(op, output)
                timed.append((op, dt))
                attempted += 1
                if fails:
                    failed += 1
                    if not known:
                        problems.append(fails)
        tracer.recording = False
        rounds.append((traced, timed))
        elapsed = perf_counter() - start
        enough = elapsed >= args.seconds and attempted >= MIN_OPS
        if args.trace:
            enough = enough and len(rounds) >= 2
        if enough or elapsed >= HARD_STOP_S:
            return rounds, attempted, failed, problems


def end_to_end_metrics(wl, rounds, setup_s):
    times = [dt for traced, timed in rounds if not traced for _, dt in timed]
    walls = [sum(dt for _, dt in timed) for traced, timed in rounds if not traced]
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if wl.name == "cli":
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_ms": (1e3 * statistics.median(times), "ms"),
        "op_p90_ms": (1e3 * statistics.quantiles(times, n=10, method="inclusive")[8], "ms"),
        "peak_rss_mb": (kib / 1024.0, "MB"),
    }


def per_layer_metrics(wl, rounds, tracer, setup_tracer, import_s):
    import workloads

    n_traced = sum(1 for traced, _ in rounds if traced)
    per_round = 1.0 / n_traced
    calls, total, self_time = tracer.calls, tracer.total, tracer.self_time
    walls = {flag: [sum(dt for _, dt in timed) for traced, timed in rounds if traced == flag]
             for flag in (False, True)}

    def ms(name):
        return 1e3 * total[name] * per_round

    def per_call(name, scale):
        return scale * total[name] / calls[name] if calls[name] else 0.0

    m = {
        "cli.import_ms": (1e3 * statistics.median(import_s), "ms"),
        "cli.main_ms": (per_call("cli.main", 1e3), "ms"),
        "graph.read_graph_csv_ms": (ms("graph.read_graph_csv"), "ms"),
        "graph.construct_ms": (ms("graph.construct"), "ms"),
        "graph.constructions": (calls["graph.construct"] * per_round, "count"),
        "mseparation.queries": (calls["mseparation.query"] * per_round, "count"),
        "mseparation.query_us": (per_call("mseparation.query", 1e6), "us"),
        "mseparation.is_maximal_ms": (ms("mseparation.is_maximal"), "ms"),
        "mseparation.maximal_completion_ms": (ms("mseparation.maximal_completion"), "ms"),
        "mseparation.implied_independences_ms": (ms("mseparation.implied_independences"), "ms"),
        "fit.self_ms": (1e3 * self_time["fit.fit"] * per_round, "ms"),
        "fit.icf_cycles": (tracer.icf_cycles * per_round, "count"),
        "fit.icf_cycle_ms": (
            1e3 * self_time["fit.fit"] / tracer.icf_cycles if tracer.icf_cycles else 0.0, "ms"),
        "fit.ipf_ms": (ms("fit.ipf"), "ms"),
        "fit.ipf_calls": (calls["fit.ipf"] * per_round, "count"),
        "stats.log_likelihood_ms": (ms("stats.log_likelihood"), "ms"),
        "stats.log_likelihood_calls": (calls["stats.log_likelihood"] * per_round, "count"),
        "stats.deviance_ms": (ms("stats.deviance"), "ms"),
        "stats.empirical_covariance_ms": (1e3 * setup_tracer.total["stats.empirical_covariance"], "ms"),
        "sim.sample_mvn_ms": (1e3 * setup_tracer.total["sim.sample_mvn"], "ms"),
        "params.build_sigma_ms": (1e3 * setup_tracer.total["params.build_sigma"], "ms"),
        "trace.overhead_pct": (
            100.0 * (statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0), "%"),
    }
    for p, _ in workloads.CYCLE_MIX:
        fits = [dt for traced, timed in rounds if traced for op, dt in timed
                if wl.name == "cycle_fit" and op.p == p]
        m[f"fit.fit_ms.p{p}"] = (1e3 * statistics.mean(fits) if fits else 0.0, "ms")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "agfit" / "__init__.py").is_file():
        print(f"perfbench: no agfit sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload in ONE_BLAS_THREAD:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy is loaded
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    fresh_import_seconds(env)  # untimed: warms the file cache (and bytecode cache)
    import_s = [fresh_import_seconds(env) for _ in range(SETUP_REPEATS)]

    sys.path.insert(0, str(SRC))
    import agfit

    if Path(agfit.__file__).resolve().parent != (SRC / "agfit").resolve():
        print(f"perfbench: imported agfit from {agfit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy
    import scipy

    import spans
    import workloads

    api = workloads.Api()
    cls = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        gen_s, prints = [], []
        for _ in range(SETUP_REPEATS):
            # a fresh directory each time: rewriting a file can stall on flushes
            inputs = tempfile.mkdtemp(dir=workdir)
            t0 = perf_counter()
            wl = cls(api, args.seed, inputs)
            gen_s.append(perf_counter() - t0)
            prints.append(wl.fingerprint())
        setup_s = statistics.median(import_s) + statistics.median(gen_s)
        setup_tracer = spans.Tracer()
        if args.trace:
            with setup_tracer.installed():
                wl = cls(api, args.seed, tempfile.mkdtemp(dir=workdir))
        tracer = spans.Tracer()
        rounds, attempted, failed, problems = measure(wl, api, args, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    blas = blas_facts()
    facts = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "bytecode_cache": not sys.flags.dont_write_bytecode,
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas_threads": blas, "rounds": len(rounds), "operations": attempted,
        "setup_import_s": statistics.median(import_s),
        "setup_inputs_s": statistics.median(gen_s),
        "round_s": [round(sum(dt for _, dt in timed), 4) for _, timed in rounds[:100]],
    }
    correct = not problems and all(p == prints[0] for p in prints)
    if not all(p == prints[0] for p in prints):
        print("perfbench: the same seed produced different inputs", file=sys.stderr)
    for fails in problems[:20]:
        print("perfbench: check failed: " + ", ".join(fails), file=sys.stderr)

    if args.trace:
        metrics = per_layer_metrics(wl, rounds, tracer, setup_tracer, import_s)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "facts": facts,
            "spans": [dict(zip(("id", "parent", "name", "start", "end"), r))
                      for r in tracer.records],
            "calls": dict(tracer.calls), "total_s": dict(tracer.total),
            "self_s": dict(tracer.self_time),
        }))
    else:
        metrics = end_to_end_metrics(wl, rounds, setup_s)

    print("facts " + json.dumps(facts))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
