"""
Simulating bidirected cycles and timing the fitter as size grows
================================================================

The hardest structure for one fitting cycle is a single loop of
bidirected edges: every vertex has exactly two spouses and no parents,
so nothing decomposes.  This script builds such models, draws data from
them, and measures how many cycles the fitter needs as the vertex count
grows.
"""

import os
import tempfile

import numpy as np

from agfit import (
    bidirected_cycle_graph,
    cycle_covariance,
    empirical_covariance,
    fit,
    run_scaling_experiment,
    sample_mvn,
)

np.set_printoptions(precision=3, suppress=True)

# The generating covariance puts 1 on the diagonal and rho on the two
# off-diagonals that wrap around the cycle.  For p = 5, rho = 0.3:
sigma = cycle_covariance(5, rho=0.3)
print(sigma)

# Its eigenvalues are 1 + 2 rho cos(2 pi k / p); all positive here, so
# the matrix is a valid covariance.  Larger rho can break that: the
# constructor rejects such requests.
print("eigenvalues:", np.linalg.eigvalsh(sigma))

# One replicate by hand: draw 10000 rows, estimate the covariance, fit
# the cycle graph.
g = bidirected_cycle_graph(5)
x = sample_mvn(sigma, 10000, seed=42)
stats = empirical_covariance(x)
res = fit(g, stats)
print("single fit: %d cycles, deviance %.2f on %d df"
      % (res.iterations, res.deviance, res.df))
print("fitted vs truth, first row:")
print(res.sigma_hat[0])
print(sigma[0])

# The full experiment: for each p, draw `replicates` datasets of
# n = p + 30 cases, fit the matching cycle graph to each, and record
# cycle counts and CPU time.  Every (p, replicate) cell is seeded
# independently, so reruns and partial runs agree exactly.
report = run_scaling_experiment([10, 20, 30, 40, 50], replicates=100, rho=0.3, seed=0)

print("p  reps  fail  mean_it  min  max  mean_cpu_s")
for row in report.summaries():
    print("%-3d %-5d %-5d %-7.2f %-4d %-4d %.4f"
          % (row.p, row.replicates, row.failures, row.mean_iterations,
             row.min_iterations, row.max_iterations, row.mean_cpu_seconds))

# Iteration counts stay flat in p: the coupling around the loop is
# local, so a handful of cycles suffices at every size.

# Raw per-replicate rows go to CSV for plotting elsewhere; this demo
# writes the file to a temporary directory and shows its first lines.
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "scaling_rows.csv")
    report.to_csv(path)
    with open(path) as fh:
        for line in [next(fh) for _ in range(3)]:
            print(line.rstrip())
