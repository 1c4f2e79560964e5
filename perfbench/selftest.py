"""Tests of the benchmark's checks: right answers pass, wrong ones fail.

Run from the repository root with ``python3 perfbench/selftest.py`` (or
``python3 -m pytest perfbench/selftest.py``).  Each test takes a real
agfit answer, confirms that the checks accept it, then breaks it the way
a faulty program could (a perturbed sigma_hat, a flipped m-separation
verdict, a wrong deviance, an off-by-one df) and confirms the matching
check rejects it.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

API = workloads.Api()


def _cycle_answer(p=12, seed=3):
    sigma = API.sim.cycle_covariance(p, 0.3)
    stats = API.stats.empirical_covariance(API.sim.sample_mvn(sigma, p + 30, seed=seed))
    res = API.fitm.fit(API.sim.bidirected_cycle_graph(p), stats)
    return stats, res


def _cycle_fails(stats, sigma_hat, deviance, logliks):
    return checks.cycle_fit_failures(stats.s, stats.n, sigma_hat, deviance, logliks, True)


def test_cycle_fit_checks():
    stats, res = _cycle_answer()
    assert _cycle_fails(stats, res.sigma_hat, res.deviance, res.logliks) == []

    on_cycle = res.sigma_hat.copy()
    on_cycle[0, 1] += 1e-3
    on_cycle[1, 0] += 1e-3
    fails = _cycle_fails(stats, on_cycle, res.deviance, res.logliks)
    assert "cycle_fit.score_equations" in fails and "cycle_fit.deviance" in fails

    off_cycle = res.sigma_hat.copy()
    off_cycle[0, 5] = off_cycle[5, 0] = 1e-12
    assert "cycle_fit.zero_off_cycle" in _cycle_fails(stats, off_cycle, res.deviance, res.logliks)

    assert _cycle_fails(stats, res.sigma_hat, res.deviance * (1 + 1e-6), res.logliks) == [
        "cycle_fit.deviance"]
    falling = res.logliks[:1] + tuple(v - 1e-3 * k for k, v in enumerate(res.logliks[1:], 1))
    assert _cycle_fails(stats, res.sigma_hat, res.deviance, falling) == [
        "cycle_fit.loglik_nondecreasing"]


def _model_answer():
    wl = workloads.ModelSearch(API, 4, None)
    gadget = next(c for c in wl.ops if c.gadget_pairs)
    plain = next(c for c in wl.ops if not c.gadget_pairs)
    return wl, gadget, plain


def _model_out(wl, cand):
    maximal, completed, independences, res, pvalue = wl.run(API, cand, False)
    fails, _ = wl.failures(cand, (maximal, completed, independences, res, pvalue))
    assert fails == []
    # rebuild the plain form the checks take, to break it piece by piece
    out = {
        "maximal": maximal,
        "completed": checks.MixedGraph(completed.n, completed.undirected_pairs,
                                       completed.directed_pairs, completed.bidirected_pairs),
        "independences": [(min(s.a | s.b), max(s.a | s.b), sorted(s.c), s.holds)
                          for s in independences],
        "sigma_hat": res.sigma_hat, "lam": res.lambda_hat, "beta": res.beta_hat,
        "omega": res.omega_hat, "un": list(res.params.un_map.vertices),
        "disp": list(res.params.disp_map.vertices), "deviance": res.deviance,
        "df": res.df, "converged": res.converged, "pvalue": pvalue,
    }
    assert checks.model_search_failures(cand, out, cand.check_seed) == []
    return out


def test_model_search_checks():
    wl, gadget, plain = _model_answer()
    out = _model_out(wl, gadget)

    flipped = dict(out, maximal=True)
    assert "model_search.is_maximal" in checks.model_search_failures(gadget, flipped, 0)

    flipped = dict(out, completed=gadget.mixed)  # the gadget pair left out
    assert "model_search.completion_adds_gadget_pairs" in checks.model_search_failures(
        gadget, flipped, 0)

    for wrong_df in (out["df"] - 1, out["df"] + 1):
        bad = dict(out, df=wrong_df)
        assert "model_search.df" in checks.model_search_failures(gadget, bad, 0)
    bad = dict(out, deviance=out["deviance"] + 1e-3)
    fails = checks.model_search_failures(gadget, bad, 0)
    assert "model_search.deviance" in fails and "model_search.pvalue" in fails

    bad = dict(out, beta=out["beta"].copy())
    tail_head = sorted(gadget.mixed.directed)[0]
    bad["beta"][tail_head[1], tail_head[0]] += 1e-3
    fails = checks.model_search_failures(gadget, bad, 0)
    assert "model_search.stationary" in fails and "model_search.params_imply_sigma" in fails


def test_flipped_m_separation_verdicts():
    wl, gadget, plain = _model_answer()
    out = _model_out(wl, plain)
    g = plain.mixed
    records = out["independences"]
    assert checks.m_separation_sample_agrees(g, records, 0, k=len(records))
    # a separating set replaced by one that leaves a path open
    k = next(k for k, r in enumerate(records) if r[2])
    i, j, c, _ = records[k]
    wrong = list(records)
    wrong[k] = (i, j, [], True)
    assert not checks.m_separation_sample_agrees(g, wrong, 0, k=len(records))
    # a separable pair reported as inseparable
    wrong = list(records)
    wrong[k] = (i, j, [], False)
    assert not checks.m_separation_sample_agrees(g, wrong, 0, k=len(records))
    assert "model_search.inseparable_pairs" in checks.model_search_failures(
        plain, dict(out, independences=wrong), 0)
    # the gadget pair reported as separable
    out = _model_out(wl, gadget)
    a, d = gadget.gadget_pairs[0]
    wrong = [(i, j, [], True) if (i, j) == (a, d) else (i, j, c, holds)
             for i, j, c, holds in out["independences"]]
    assert not checks.m_separation_sample_agrees(gadget.mixed, wrong, 0, k=len(wrong))


def test_path_enumeration_matches_reachability():
    """The independent path search agrees with agfit on seeded queries."""
    wl, _, _ = _model_answer()
    rng = np.random.default_rng(11)
    for cand in wl.ops[::5]:
        for _ in range(20):
            i, j = (int(v) for v in rng.choice(cand.mixed.n, size=2, replace=False))
            rest = [v for v in range(cand.mixed.n) if v not in (i, j)]
            c = [int(v) for v in rng.choice(rest, size=int(rng.integers(0, 4)), replace=False)]
            expect = API.ms.m_connecting_path_exists(cand.graph, i, j, frozenset(c))
            assert cand.mixed.m_connected(i, j, c) == expect


def test_cli_checks():
    out_dir = HERE.parent / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        wl = workloads.Cli(API, 2, workdir)
        outs = {op.name: (op, wl.run(API, op, True)) for op in wl.ops}
    for name, (op, output) in outs.items():
        fails, known = wl.failures(op, output)
        assert fails == [] or known, (name, fails)

    op, (code, stdout, stderr) = outs["check_moth"]
    dropped = stdout.replace("  rain _||_ moth | {cloud}\n", "")
    assert checks.check_output_failures(code, dropped) == ["cli.check.independences"]
    assert checks.check_output_failures(1, stdout) == ["cli.check.exit_code"]

    op, (code, stdout, stderr) = outs["fit_moth_json"]
    res = json.loads(stdout)
    for key, value, name in (("deviance", res["deviance"] + 1e-3, "deviance"),
                             ("df", res["df"] + 1, "df"), ("df", res["df"] - 1, "df"),
                             ("pvalue", res["pvalue"] * 1.01, "pvalue")):
        wrong = json.dumps(dict(res, **{key: value}))
        assert f"cli.fit_moth.{name}" in checks.moth_fit_failures("moth", 0, wrong, "json")
    op, (code, stdout, stderr) = outs["fit_moth_extended_text"]
    assert checks.moth_fit_failures("moth_extended", code, stdout, "text") == []
    wrong = stdout.replace("$df\n[1] 4", "$df\n[1] 5")
    assert checks.moth_fit_failures("moth_extended", code, wrong, "text") == [
        "cli.fit_moth_extended.df"]

    op, (code, stdout, stderr) = outs["fit_data"]
    res = json.loads(stdout)
    res["sigma_hat"][0][0] *= 1 + 1e-6
    assert wl.failures(op, (code, json.dumps(res), stderr))[0] == ["cli.fit_data.sigma_hat"]

    right = {"sigma_hat": checks.chain_closed_form(workloads.CHAIN_S).tolist()}
    assert checks.numeric_label_failures(0, json.dumps(right), workloads.CHAIN_S) == []
    wrong = {"sigma_hat": workloads.CHAIN_S.tolist()}  # 0 and 2 left dependent
    assert checks.numeric_label_failures(0, json.dumps(wrong), workloads.CHAIN_S) == [
        "cli.fit_numeric_labels.sigma_hat"]


def main() -> int:
    tests = [(k, v) for k, v in sorted(globals().items()) if k.startswith("test_")]
    bad = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            bad += 1
            print(f"FAIL {name}: {exc!r}")
        else:
            print(f"ok   {name}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
