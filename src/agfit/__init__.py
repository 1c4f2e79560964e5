"""Gaussian ancestral graph models: validation, Markov queries, ML fitting.

The public names load on first use (PEP 562): ``import agfit`` imports
no submodule, and numpy is imported only with the names that need it.
"""

import importlib
import sys
from types import ModuleType

# submodule -> the public names it provides
_EXPORTS = {
    "datasets": (
        "MOTH_CORRELATION", "MOTH_LABELS", "MOTH_MODEL_LABELS", "MOTH_N",
        "data_path", "moth_graph", "moth_graph_extended", "moth_stats",
    ),
    "errors": (
        "AgfitError", "ConditionOneViolated", "ConditionTwoViolated",
        "DimensionMismatch", "GraphError", "GraphParseError", "InvalidCoding",
        "InvalidDf", "LabelMismatch", "MultiEdge", "NotMaximal",
        "NotPositiveDefinite", "NumericError", "OverlappingSets", "SelfLoop",
        "SingularDesign", "SingularMatrix", "UnknownVertex",
    ),
    "fit": (
        "FitConfig", "FitResult", "fit", "fit_dag_closed_form",
        "fit_undirected_ipf", "icf_step",
    ),
    "graph": (
        "AncestralGraph", "Decomposition", "Edge", "read_graph_csv",
        "write_graph_csv",
    ),
    "mseparation": (
        "IndependenceStatement", "implied_pairwise_independences",
        "is_maximal", "m_connecting_path_exists", "m_separated", "maximal_completion",
        "separating_set",
    ),
    "params": ("IndexMap", "ParamSet", "build_sigma", "conditional_variance", "psi"),
    "sim": (
        "CycleSpec", "ExperimentReport", "PSummary", "ReplicateResult",
        "bidirected_cycle_graph", "cycle_covariance", "run_scaling_experiment",
        "sample_mvn",
    ),
    "stats": (
        "SampleStats", "chi_square_pvalue", "degrees_of_freedom", "deviance",
        "empirical_covariance", "log_likelihood",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_SOURCE)


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    importlib.import_module(f"{__name__}.{module}")  # binds its names here
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(ModuleType):
    """Binds a submodule's public names here once the submodule has run.

    The import system binds each submodule to the package just after
    running it, so the names bound here are the objects the submodule
    defined, whatever is later assigned to the submodule's attributes.
    The submodule ``fit`` is not bound: ``agfit.fit`` is the function in
    every import order, and the module is ``sys.modules["agfit.fit"]``.
    """

    def __setattr__(self, name, value):
        if isinstance(value, ModuleType) and name in _EXPORTS:
            for export in _EXPORTS[name]:
                super().__setattr__(export, getattr(value, export))
            if name in _SOURCE:
                return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
