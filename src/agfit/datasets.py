"""Bundled example data.

The moth dataset is the classic noctuid moth trapping summary: the
correlation matrix of 72 nightly records of a light-trap catch count and
five weather measurements.  A five-variable model (dropping minimum
temperature) with one undirected, two directed and two bidirected edges
is the worked example used throughout the documentation and tests.

The same data ship as CSV files under ``agfit/data`` for use with the
command line interface; :func:`data_path` locates them after install.
"""

from __future__ import annotations

from importlib import resources

import numpy as np

from .graph import AncestralGraph
from .stats import SampleStats

MOTH_N = 72

MOTH_LABELS = ("min", "max", "wind", "rain", "cloud", "moth")

MOTH_CORRELATION = np.array(
    [
        [1.00, 0.40, 0.37, 0.18, -0.46, 0.29],
        [0.40, 1.00, 0.02, -0.09, 0.02, 0.22],
        [0.37, 0.02, 1.00, 0.05, -0.13, -0.24],
        [0.18, -0.09, 0.05, 1.00, -0.47, 0.11],
        [-0.46, 0.02, -0.13, -0.47, 1.00, -0.37],
        [0.29, 0.22, -0.24, 0.11, -0.37, 1.00],
    ]
)

MOTH_MODEL_LABELS = ("max", "wind", "rain", "cloud", "moth")


def moth_stats() -> SampleStats:
    """Sample statistics of the five model variables, in model order."""
    idx = [MOTH_LABELS.index(lab) for lab in MOTH_MODEL_LABELS]
    return SampleStats.from_covariance(MOTH_CORRELATION[np.ix_(idx, idx)], MOTH_N)


def moth_graph() -> AncestralGraph:
    """Five-variable moth model.

    wind - rain, rain -> cloud, cloud -> moth, max <-> cloud,
    max <-> moth.
    """
    labels = MOTH_MODEL_LABELS
    idx = {lab: k for k, lab in enumerate(labels)}
    return AncestralGraph(
        5,
        undirected=[(idx["wind"], idx["rain"])],
        directed=[(idx["rain"], idx["cloud"]), (idx["cloud"], idx["moth"])],
        bidirected=[(idx["max"], idx["cloud"]), (idx["max"], idx["moth"])],
        labels=labels,
    )


def moth_graph_extended() -> AncestralGraph:
    """Moth model with the extra edge wind -> moth."""
    g = moth_graph()
    idx = {lab: k for k, lab in enumerate(g.labels)}
    return AncestralGraph(
        5,
        undirected=g.undirected_pairs,
        directed=list(g.directed_pairs) + [(idx["wind"], idx["moth"])],
        bidirected=g.bidirected_pairs,
        labels=g.labels,
    )


def data_path(name: str):
    """Filesystem path of a bundled CSV (``moth_corr.csv``,
    ``moth_graph.csv``, ``moth_graph_extended.csv``)."""
    return resources.files("agfit").joinpath("data", name)
