"""Command line interface: exit codes, output formats and flag checks."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from agfit import AncestralGraph, bidirected_cycle_graph, sample_mvn, write_graph_csv
from agfit.cli import main
from agfit.datasets import data_path

MOTH_GRAPH = str(data_path("moth_graph.csv"))
MOTH_GRAPH_EXT = str(data_path("moth_graph_extended.csv"))
MOTH_CORR = str(data_path("moth_corr.csv"))


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestCheck:
    def test_valid_maximal_graph(self, capsys):
        rc, out, _ = run(capsys, "check", MOTH_GRAPH)
        assert rc == 0
        assert "valid: yes" in out
        assert "vertices: 5" in out
        assert "edges: 5" in out
        assert "un: {wind, rain}" in out
        assert "maximal: yes" in out
        assert "max _||_ wind | {}" in out
        assert "wind _||_ moth | {cloud, rain}".count("_||_")  # format sanity

    def test_independence_lines_use_labels(self, capsys):
        rc, out, _ = run(capsys, "check", MOTH_GRAPH)
        lines = [l.strip() for l in out.splitlines() if "_||_" in l]
        assert len(lines) == 5
        assert all("|" in l for l in lines)

    def test_valid_non_maximal_graph(self, capsys, tmp_path):
        g = AncestralGraph(
            4, directed=[(1, 3), (2, 0)], bidirected=[(0, 1), (1, 2), (2, 3)]
        )
        path = tmp_path / "g.csv"
        write_graph_csv(g, path)
        rc, out, _ = run(capsys, "check", str(path))
        assert rc == 1
        assert "valid: yes" in out
        assert "maximal: no" in out
        assert "no separating set" in out

    def test_twenty_vertices_list_independences(self, capsys, tmp_path):
        path = tmp_path / "g.csv"
        write_graph_csv(bidirected_cycle_graph(20), path)
        rc, out, err = run(capsys, "check", str(path))
        assert rc == 0
        assert "maximal: yes" in out
        lines = [l for l in out.splitlines() if "_||_" in l]
        assert len(lines) == 170
        assert all(l.endswith("| {}") for l in lines)
        assert err == ""

    def test_invalid_graph(self, capsys, tmp_path):
        path = tmp_path / "g.csv"
        # 0 - 1 undirected with 1 <-> 2 puts an arrowhead at 1
        path.write_text("0,1,0\n1,0,2\n0,2,0\n")
        rc, out, err = run(capsys, "check", str(path))
        assert rc == 2
        assert "invalid:" in out

    def test_bad_coding(self, capsys, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("0,1\n2,0\n")
        rc, _, err = run(capsys, "check", str(path))
        assert rc == 3
        assert "parse error" in err

    def test_missing_file(self, capsys, tmp_path):
        rc, _, err = run(capsys, "check", str(tmp_path / "none.csv"))
        assert rc == 3
        assert "parse error" in err

    def test_environment_does_not_change_defaults(self, capsys, monkeypatch):
        # agfit reads no environment variables, malformed values included
        monkeypatch.setenv("AGFIT_TOL", "abc")
        monkeypatch.setenv("AGFIT_MAX_CYCLES", "1.5")
        rc, out, _ = run(capsys, "check", MOTH_GRAPH)
        assert rc == 0
        assert "maximal: yes" in out
        rc, out, _ = run(
            capsys, "fit", "--graph", MOTH_GRAPH, "--cov", MOTH_CORR, "--n", "72",
            "--format", "json",
        )
        doc = json.loads(out)
        assert rc == 0
        assert (doc["tolerance"], doc["max_cycles"]) == (1e-6, 5000)

    def test_closed_stdout_exits_quietly(self, tmp_path, agfit_env):
        # long labels push the report well past a pipe buffer, so the
        # reader closes its end before the last write
        labels = [f"v{k}_" + "x" * 600 for k in range(16)]
        path = tmp_path / "g.csv"
        write_graph_csv(AncestralGraph(16, labels=labels), path)
        proc = subprocess.Popen(
            [sys.executable, "-m", "agfit.cli", "check", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=agfit_env,
        )
        assert proc.stdout.readline() == b"valid: yes\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert b"Traceback" not in err


class TestFitText:
    def test_published_session_values(self, capsys):
        rc, out, _ = run(
            capsys, "fit", "--graph", MOTH_GRAPH, "--cov", MOTH_CORR, "--n", "72"
        )
        assert rc == 0
        for block in ("$Shat", "$Lhat", "$Bhat", "$Ohat", "$dev", "$df", "$it"):
            assert block in out
        assert "[1] 10.22" in out
        assert "[1] 5" in out
        assert "[1] 6" in out
        # spot entries of the printed tables
        assert "cloud -0.02 -0.02 -0.47  1.00 -0.38" in out
        assert "moth  0.00 0.00 0.00  0.38 1.00" in out

    def test_extended_model(self, capsys):
        rc, out, _ = run(
            capsys, "fit", "--graph", MOTH_GRAPH_EXT, "--cov", MOTH_CORR, "--n", "72"
        )
        assert rc == 0
        assert "[1] 2.01" in out
        assert "[1] 4" in out

    def test_precision_flag(self, capsys):
        rc, out, _ = run(
            capsys,
            "fit",
            "--graph",
            MOTH_GRAPH,
            "--cov",
            MOTH_CORR,
            "--n",
            "72",
            "--precision",
            "4",
        )
        assert rc == 0
        assert "10.2191" in out

    def test_cov_requires_n(self, capsys):
        rc, _, err = run(capsys, "fit", "--graph", MOTH_GRAPH, "--cov", MOTH_CORR)
        assert rc == 4
        assert "usage error" in err

    @pytest.mark.parametrize(
        "flag, value",
        [("--tol", "0"), ("--max-cycles", "0"), ("--n", "0"), ("--precision", "-1")],
    )
    def test_out_of_range_flag_is_a_usage_error(self, capsys, flag, value):
        argv = {"--graph": MOTH_GRAPH, "--cov": MOTH_CORR, "--n": "72", flag: value}
        rc, out, err = run(capsys, "fit", *[x for kv in argv.items() for x in kv])
        assert rc == 4
        assert err.startswith("usage error: ")
        assert out == ""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--cov", MOTH_CORR, "--n", "72", "--centered"], "--centered"),
            (["--data", MOTH_CORR, "--n", "72"], "--n"),
        ],
    )
    def test_flag_for_the_other_input_is_a_usage_error(self, capsys, argv, flag):
        rc, out, err = run(capsys, "fit", "--graph", MOTH_GRAPH, *argv)
        assert rc == 4
        assert err.startswith("usage error: ") and flag in err
        assert out == ""

    @pytest.mark.parametrize("cell", ["inf", "nan"])
    def test_non_finite_covariance_is_a_model_error(self, capsys, tmp_path, cell):
        gpath = tmp_path / "chain.csv"
        gpath.write_text("a,b\n0,1\n0,0\n")
        cpath = tmp_path / "cov.csv"
        cpath.write_text(f"a,b\n1.0,0.5\n0.5,{cell}\n")
        rc, out, err = run(
            capsys, "fit", "--graph", str(gpath), "--cov", str(cpath), "--n", "50"
        )
        assert rc == 4
        assert err == "error: covariance matrix is not finite\n"
        assert out == ""

    def test_non_convergence_exit(self, capsys):
        rc, out, err = run(
            capsys,
            "fit",
            "--graph",
            MOTH_GRAPH,
            "--cov",
            MOTH_CORR,
            "--n",
            "72",
            "--max-cycles",
            "1",
        )
        assert rc == 1

    def test_ipf_cap_exits_not_converged(self, capsys, tmp_path):
        # the undirected block is the chordless 4-cycle, which IPF cannot
        # fit in one cycle
        g = AncestralGraph(5, undirected=[(0, 1), (1, 2), (2, 3), (0, 3)], directed=[(0, 4)])
        gpath = tmp_path / "g.csv"
        write_graph_csv(g, gpath)
        rng = np.random.default_rng(7)
        a = rng.standard_normal((5, 8))
        s = a @ a.T / 8 + 0.25 * np.eye(5)
        cpath = tmp_path / "cov.csv"
        with open(cpath, "w", newline="") as fh:
            csv.writer(fh).writerows([[""] + list(g.labels)] + [
                [g.labels[i]] + [repr(float(x)) for x in s[i]] for i in range(5)
            ])
        argv = ("fit", "--graph", str(gpath), "--cov", str(cpath), "--n", "50")
        rc, _, err = run(capsys, *argv, "--max-cycles", "1")
        assert rc == 1, err
        assert run(capsys, *argv)[0] == 0

    def test_cov_with_numeric_labels(self, capsys, tmp_path):
        # empty corner cell and numeric labels, the layout `check` accepts
        gpath = tmp_path / "chain.csv"
        gpath.write_text(",0,1,2\n0,0,1,0\n1,1,0,1\n2,0,1,0\n")
        cpath = tmp_path / "cov.csv"
        cpath.write_text(",0,1,2\n0,2.0,0.6,0.3\n1,0.6,1.5,0.5\n2,0.3,0.5,1.2\n")
        rc, out, err = run(
            capsys, "fit", "--graph", str(gpath), "--cov", str(cpath), "--n", "50",
            "--format", "json",
        )
        assert rc == 0, err
        s = np.array([[2.0, 0.6, 0.3], [0.6, 1.5, 0.5], [0.3, 0.5, 1.2]])
        want = s.copy()
        # the chain 0 - 1 - 2 matches s except at the missing edge
        want[0, 2] = want[2, 0] = s[0, 1] * s[1, 2] / s[1, 1]
        np.testing.assert_allclose(json.loads(out)["sigma_hat"], want, atol=1e-6)


class TestFitJson:
    def _fit_json(self, capsys, *extra):
        rc, out, _ = run(
            capsys,
            "fit",
            "--graph",
            MOTH_GRAPH,
            "--cov",
            MOTH_CORR,
            "--n",
            "72",
            "--format",
            "json",
            *extra,
        )
        return rc, json.loads(out)

    def test_payload(self, capsys):
        rc, doc = self._fit_json(capsys)
        assert rc == 0
        assert doc["labels"] == ["max", "wind", "rain", "cloud", "moth"]
        assert doc["n"] == 72
        assert doc["df"] == 5
        assert doc["iterations"] == 6
        assert doc["converged"] is True
        assert doc["deviance"] == pytest.approx(10.219, abs=2e-3)
        assert doc["pvalue"] == pytest.approx(0.069, abs=2e-3)
        sigma = np.array(doc["sigma_hat"])
        assert sigma.shape == (5, 5)
        np.testing.assert_allclose(sigma, sigma.T, atol=1e-12)
        assert doc["un_labels"] == ["wind", "rain"]
        assert doc["disp_labels"] == ["max", "cloud", "moth"]
        assert np.array(doc["omega_hat"]).shape == (3, 3)

    def test_fit_control_flags(self, capsys):
        rc, doc = self._fit_json(capsys, "--tol", "1e-4", "--max-cycles", "77")
        assert rc == 0
        assert doc["tolerance"] == pytest.approx(1e-4)
        assert doc["max_cycles"] == 77
        assert doc["iterations"] < 6  # looser tolerance stops earlier


class TestFitData:
    @pytest.fixture
    def data_file(self, tmp_path):
        g = AncestralGraph(3, directed=[(0, 1), (1, 2)], labels=("a", "b", "c"))
        sigma = np.array([[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]])
        y = sample_mvn(sigma, 40, seed=5)
        path = tmp_path / "cases.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["a", "b", "c"])
            writer.writerows(y.T.tolist())
        gpath = tmp_path / "graph.csv"
        write_graph_csv(g, gpath)
        return str(gpath), str(path)

    def test_fit_from_cases(self, capsys, data_file):
        gpath, dpath = data_file
        rc, out, _ = run(capsys, "fit", "--graph", gpath, "--data", dpath)
        assert rc == 0
        assert "$Shat" in out

    def test_centering_changes_answer(self, capsys, data_file):
        gpath, dpath = data_file
        rc1, doc1 = (
            main(["fit", "--graph", gpath, "--data", dpath, "--format", "json"]),
            json.loads(capsys.readouterr().out),
        )
        rc2, doc2 = (
            main(
                [
                    "fit",
                    "--graph",
                    gpath,
                    "--data",
                    dpath,
                    "--centered",
                    "--format",
                    "json",
                ]
            ),
            json.loads(capsys.readouterr().out),
        )
        assert rc1 == 0 and rc2 == 0
        assert doc1["sigma_hat"] != doc2["sigma_hat"]

    def test_label_superset_is_selected(self, capsys, tmp_path, data_file):
        gpath, dpath = data_file
        # graph on b, c only; data has a, b, c
        g = AncestralGraph(2, directed=[(0, 1)], labels=("b", "c"))
        g2path = tmp_path / "sub.csv"
        write_graph_csv(g, g2path)
        rc, out, _ = run(capsys, "fit", "--graph", str(g2path), "--data", dpath)
        assert rc == 0

    def test_label_mismatch(self, capsys, tmp_path, data_file):
        _, dpath = data_file
        g = AncestralGraph(2, directed=[(0, 1)], labels=("b", "zz"))
        gpath = tmp_path / "bad.csv"
        write_graph_csv(g, gpath)
        rc, _, err = run(capsys, "fit", "--graph", str(gpath), "--data", dpath)
        assert rc == 4
        assert "label mismatch" in err


class TestSimulate:
    def test_small_run_stdout(self, capsys):
        rc, out, err = run(
            capsys,
            "simulate",
            "--p-min",
            "5",
            "--p-max",
            "8",
            "--step",
            "3",
            "--replicates",
            "2",
        )
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p,replicate,iterations,converged,cpu_seconds,deviance"
        assert len(lines) == 1 + 4  # two sizes, two replicates each
        assert "p=5" in err and "p=8" in err

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "rows.csv"
        rc, out, _ = run(
            capsys,
            "simulate",
            "--p-min",
            "5",
            "--p-max",
            "5",
            "--replicates",
            "2",
            "--out",
            str(path),
        )
        assert rc == 0
        assert out == ""
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["converged"] == "True"

    def test_deterministic_apart_from_timing(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            rc, _, _ = run(
                capsys,
                "simulate",
                "--p-min",
                "5",
                "--p-max",
                "5",
                "--replicates",
                "3",
                "--seed",
                "11",
                "--out",
                str(path),
            )
            assert rc == 0

        def strip_timing(path):
            with open(path, newline="") as fh:
                return [
                    {k: v for k, v in row.items() if k != "cpu_seconds"}
                    for row in csv.DictReader(fh)
                ]

        assert strip_timing(a) == strip_timing(b)

    @pytest.mark.parametrize("name", [".", "missing/rows.csv"])
    def test_unwritable_out_fails_before_the_run(self, capsys, tmp_path, name):
        path = tmp_path / name
        rc, out, err = run(
            capsys, "simulate", "--p-min", "5", "--p-max", "5", "--out", str(path)
        )
        assert rc == 4
        assert out == ""
        assert err.startswith(f"usage error: cannot write {path}")
        assert "p=5" not in err  # no summary: the experiment never ran

    def test_bad_range_rejected(self, capsys):
        rc, _, err = run(capsys, "simulate", "--p-min", "20", "--p-max", "10")
        assert rc == 4
        assert "usage error" in err
        rc, _, _ = run(capsys, "simulate", "--p-min", "2", "--p-max", "5")
        assert rc == 4
        rc, _, _ = run(
            capsys, "simulate", "--p-min", "5", "--p-max", "5", "--replicates", "0"
        )
        assert rc == 4

    def test_indefinite_rho_rejected(self, capsys):
        rc, _, err = run(
            capsys, "simulate", "--p-min", "5", "--p-max", "5", "--rho", "0.9"
        )
        assert rc == 4
        assert "usage error" in err


class TestParser:
    def test_no_command(self, capsys):
        rc, _, err = run(capsys)
        assert rc == 4
        assert "usage error" in err

    def test_unknown_flag(self, capsys):
        rc, _, err = run(capsys, "check", "--bogus")
        assert rc == 4


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MOTH_FIT = ("fit", "--graph", MOTH_GRAPH, "--cov", MOTH_CORR, "--n", "72")


class TestBlasThreads:
    def test_program_runs_numpy_at_one_thread(self, cli_program):
        code, out, report = cli_program(*MOTH_FIT, env=dict.fromkeys(BLAS_VARIABLES))
        assert code == 0
        assert "$dev\n[1] 10.22" in out
        assert "numpy" in report["modules"]
        assert report["env"] == {
            "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": None,
        }
        assert all(count == 1 for count in report["openblas_threads"])

    @pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_a_chosen_thread_count_is_kept(self, cli_program, variable):
        env = dict.fromkeys(BLAS_VARIABLES)
        env[variable] = "2"
        code, _, report = cli_program(*MOTH_FIT, env=env)
        assert code == 0
        assert report["env"] == env

    def test_in_process_calls_leave_the_environment_alone(self, capsys, monkeypatch):
        for name in BLAS_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        before = dict(os.environ)
        assert run(capsys, "check", MOTH_GRAPH)[0] == 0
        assert run(capsys, *MOTH_FIT)[0] == 0
        assert dict(os.environ) == before
