"""Bundled example data.

The moth dataset is the classic noctuid moth trapping summary: the
correlation matrix of 72 nightly records of a light-trap catch count and
five weather measurements.  A five-variable model (dropping minimum
temperature) with one undirected, two directed and two bidirected edges
is the worked example used throughout the documentation and tests.

The CSV files under ``agfit/data`` are the one copy of this example:
the names below read them, as the command line interface does, and
:func:`data_path` locates them after install.
"""

from __future__ import annotations

from importlib import resources

import numpy as np

from .graph import AncestralGraph, read_graph_csv, read_matrix_csv
from .stats import SampleStats


def data_path(name: str):
    """Filesystem path of a bundled CSV (``moth_corr.csv``,
    ``moth_graph.csv``, ``moth_graph_extended.csv``)."""
    return resources.files("agfit").joinpath("data", name)


MOTH_N = 72  # the sample size is in no file

_labels, MOTH_CORRELATION = read_matrix_csv(data_path("moth_corr.csv"), float)
MOTH_LABELS = tuple(_labels)


def moth_graph() -> AncestralGraph:
    """Five-variable moth model.

    wind - rain, rain -> cloud, cloud -> moth, max <-> cloud,
    max <-> moth.
    """
    return read_graph_csv(data_path("moth_graph.csv"))


def moth_graph_extended() -> AncestralGraph:
    """Moth model with the extra edge wind -> moth."""
    return read_graph_csv(data_path("moth_graph_extended.csv"))


MOTH_MODEL_LABELS = moth_graph().labels


def moth_stats() -> SampleStats:
    """Sample statistics of the five model variables, in model order."""
    idx = [MOTH_LABELS.index(lab) for lab in MOTH_MODEL_LABELS]
    return SampleStats.from_covariance(MOTH_CORRELATION[np.ix_(idx, idx)], MOTH_N)
