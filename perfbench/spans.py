"""Spans around agfit's public functions, recorded from outside the package.

``Tracer.installed`` replaces each function listed in ``TRACED`` by a
wrapper in the module namespace through which other modules call it, so
the spans nest the way the calls do: fit -> is_maximal ->
separating_set -> query.  A span's self time is its duration minus the
time covered by its child spans.  The m-separation query is hot; it is
kept as a count and a total time, without a span record per call.
"""

from __future__ import annotations

import contextlib
import importlib
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name); a function reached under several names
# gets a wrapper under each of them.
TRACED = (
    ("agfit.cli", "main", "cli.main"),
    ("agfit.cli", "read_graph_csv", "graph.read_graph_csv"),
    ("agfit.mseparation", "m_connecting_path_exists", "mseparation.query"),
    ("agfit.mseparation", "separating_set", "mseparation.separating_set"),
    ("agfit.mseparation", "is_maximal", "mseparation.is_maximal"),
    ("agfit.fit", "is_maximal", "mseparation.is_maximal"),
    ("agfit.cli", "is_maximal", "mseparation.is_maximal"),
    ("agfit.mseparation", "maximal_completion", "mseparation.maximal_completion"),
    ("agfit.mseparation", "implied_pairwise_independences", "mseparation.implied_independences"),
    ("agfit.cli", "implied_pairwise_independences", "mseparation.implied_independences"),
    ("agfit.fit", "fit", "fit.fit"),
    ("agfit.cli", "fit", "fit.fit"),
    ("agfit.fit", "fit_undirected_ipf", "fit.ipf"),
    ("agfit.fit", "log_likelihood", "stats.log_likelihood"),
    ("agfit.fit", "deviance", "stats.deviance"),
    ("agfit.fit", "degrees_of_freedom", "stats.degrees_of_freedom"),
    ("agfit.stats", "empirical_covariance", "stats.empirical_covariance"),
    ("agfit.cli", "empirical_covariance", "stats.empirical_covariance"),
    ("agfit.stats", "chi_square_pvalue", "stats.chi_square_pvalue"),
    ("agfit.cli", "chi_square_pvalue", "stats.chi_square_pvalue"),
    ("agfit.sim", "sample_mvn", "sim.sample_mvn"),
    ("agfit.params", "build_sigma", "params.build_sigma"),
)
HOT = {"mseparation.query"}
CONSTRUCT = "graph.construct"  # AncestralGraph.__init__


class Tracer:
    """Per-name call counts, total and self time, and a bounded span log."""

    def __init__(self, max_records=50_000):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.icf_cycles = 0
        self.records = []  # (id, parent id, name, start, end)
        self.recording = False
        self._max_records = max_records
        self._child = []  # child time accumulated by each open span
        self._ids = []
        self._next_id = 0

    def wrap(self, name, fn):
        if name in HOT:
            return self._wrap_hot(name, fn)

        def traced(*args, **kwargs):
            self._child.append(0.0)
            self._next_id += 1
            self._ids.append(self._next_id)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                child = self._child.pop()
                self.calls[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - child
                if self._child:
                    self._child[-1] += dt
                span_id = self._ids.pop()
                if self.recording and len(self.records) < self._max_records:
                    parent = self._ids[-1] if self._ids else None
                    self.records.append((span_id, parent, name, t0, t1))
            if name == "fit.fit":
                self.icf_cycles += result.iterations
            return result

        return traced

    def _wrap_hot(self, name, fn):
        """Count and total time only; the caller's span gets it as child time."""
        calls, total, self_time, open_spans = self.calls, self.total, self.self_time, self._child

        def traced(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                calls[name] += 1
                total[name] += dt
                self_time[name] += dt
                if open_spans:
                    open_spans[-1] += dt

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        saved = []
        try:
            for mod_name, attr, name in TRACED:
                mod = importlib.import_module(mod_name)
                orig = getattr(mod, attr)
                saved.append((mod, attr, orig))
                setattr(mod, attr, self.wrap(name, orig))
            cls = importlib.import_module("agfit.graph").AncestralGraph
            saved.append((cls, "__init__", cls.__init__))
            cls.__init__ = self.wrap(CONSTRUCT, cls.__init__)
            yield self
        finally:
            for obj, attr, orig in reversed(saved):
                setattr(obj, attr, orig)
