"""Tests of the benchmark itself: its correctness gate, its span arithmetic
and the clean-up of its traced run.  Run with

    PYTHONPATH=src python -m pytest -q bench
"""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def rq():
    return run.load(spans.LAYERS)


def test_spin_block_reference_shifted_by_1e9_fails(rq):
    g = rq.graphs.complete_graph(6)
    part = rq.graphs.Bipartition(g.vertex_set(range(3)))
    engine = rq.swapengine.evolve(g, part, rq.graphs.UniformIID(g), 5).values
    reference = list(rq.rem.complete_graph_purity(6, 3, 2, 5).values)
    tol = workloads.EngineDense.TOL
    assert workloads.check_series("k6", engine, reference, tol).ok
    reference[3] += 1e-9
    assert not workloads.check_series("k6", engine, reference, tol).ok


def test_mc_mean_shifted_by_10_stderr_fails(rq):
    gr = rq.graphs
    g = gr.complete_graph(3)
    proc = gr.FixedSequence(g, (g.edges[0], g.edges[2]))
    part = gr.Bipartition(g.vertex_set((0,)))
    exact = rq.swapengine.evolve(g, part, proc, 2).final
    stats = rq.oracle.estimate_moments(g, proc, part, 2, 2, 512, 11, workers=1)
    assert workloads.check_mc("k3", stats.mean, stats.stderr, exact).ok
    shifted = stats.mean + 10 * stats.stderr
    assert not workloads.check_mc("k3", shifted, stats.stderr, exact).ok


def _report(expected):
    return [
        f"{verdict}  {name} (mean=0.8 stderr=0.001)" if name == workloads.MC_LINE
        else f"{verdict}  {name}: measured=1 expected=1 tol=0"
        for verdict, name in expected
    ]


def test_flipped_reproduce_verdict_fails():
    lines = _report(workloads.EXPECTED_FULL)
    assert all(c.ok for c in workloads.check_verdicts("full", lines, workloads.EXPECTED_FULL))
    i = [name for _, name in workloads.EXPECTED_FULL].index("gap scaling slope")
    for j in (0, i):  # a PASS turned FAIL, and the expected FAIL turned PASS
        flipped = list(lines)
        flipped[j] = ("PASS" if flipped[j].startswith("FAIL") else "FAIL") + flipped[j][4:]
        checks = workloads.check_verdicts("full", flipped, workloads.EXPECTED_FULL)
        assert [c.ok for c in checks].count(False) == 1
    assert not all(c.ok for c in workloads.check_verdicts("full", lines[:-1], workloads.EXPECTED_FULL))
    extra = lines + ["PASS  new check"]
    assert not all(c.ok for c in workloads.check_verdicts("full", extra, workloads.EXPECTED_FULL))
    assert workloads.check_exit("full", 4, lines).ok
    assert not workloads.check_exit("full", 0, lines).ok


def test_seeded_mc_verdict_must_fit_its_numbers():
    def ok(line):
        lines = _report(workloads.EXPECTED_QUICK)
        i = [name for _, name in workloads.EXPECTED_QUICK].index(workloads.MC_LINE)
        lines[i] = line
        return all(c.ok for c in workloads.check_verdicts("quick", lines, workloads.EXPECTED_QUICK))

    line = workloads.MC_LINE + " (mean={} stderr=0.001)"
    assert ok("PASS  " + line.format(0.798))
    assert not ok("FAIL  " + line.format(0.798))
    assert ok("FAIL  " + line.format(0.7965))  # -3.5 stderr: a chance failure, reported
    assert not ok("PASS  " + line.format(0.7965))
    assert not ok("FAIL  " + line.format(0.79))  # -10 stderr: the oracle is wrong
    assert not ok("PASS  " + workloads.MC_LINE)


@pytest.mark.parametrize("seed", [7, 166])  # at seed 166 the 3-stderr MC line fails by chance
def test_quick_reproduce_matches_expected_verdicts(rq, tmp_path, seed):
    wl = workloads.Reproduce(rq, seed, workdir=str(tmp_path))
    _, code, lines = wl._reproduce(quick=True)
    assert code == (4 if seed == 166 else 0)
    assert workloads.check_exit("quick", code, lines).ok
    assert all(c.ok for c in workloads.check_verdicts("quick", lines, workloads.EXPECTED_QUICK))


def test_self_time_of_nested_spans():
    # a[0,10] > b[1,4] > c[2,3];  a > d[5,9];  a second root e[20,22]
    names = ["a", "b", "c", "d", "e"]
    name_idx = np.array([0, 1, 2, 3, 4])
    parent = np.array([-1, 0, 1, 0, -1])
    start = np.array([0.0, 1.0, 2.0, 5.0, 20.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 22.0])
    got = spans.span_totals(names, name_idx, parent, start, end)
    assert got == {
        "a": (1, 10.0, 3.0),
        "b": (1, 3.0, 2.0),
        "c": (1, 1.0, 1.0),
        "d": (1, 4.0, 4.0),
        "e": (1, 2.0, 2.0),
    }


def _bindings():
    return {
        (name, attr): obj
        for name, mod in list(sys.modules.items())
        if name == "rqcgraph" or name.startswith("rqcgraph.")
        for attr, obj in vars(mod).items()
    }


def test_traced_run_counts_cross_module_calls_and_restores(rq):
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        # cem and the package namespace bind evolve at import: both must be wrapped
        assert rq.cem.evolve is not before[("rqcgraph.cem", "evolve")]
        assert rq.pkg.evolve is not before[("rqcgraph", "evolve")]
        assert rq.swapengine.twirl_coefficients is before[("rqcgraph.swapengine", "twirl_coefficients")]
        rq.cem.grid_ordering_example(2)
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    totals = tracer.totals()
    assert totals["swapengine.evolve"][0] == 2
    assert totals["swapengine.apply_edge"][0] == 2 * (1 + 2 + 3 + 4)
    assert totals["cem.grid_ordering_example"][0] == 1
    calls, total, self_s = totals["cem.grid_ordering_example"]
    assert 0.0 <= self_s <= total
    assert tracer.counters["swapengine.terms_in"] > 0


def test_summarize_reports_high_percentile_only_with_ten_beyond():
    assert "high" not in run.summarize([1.0] * 10)
    got = run.summarize([float(i) for i in range(20)])
    assert got["n"] == 20 and got["median"] == 9.5
    assert got["high_pct"] == 50.0 and got["high"] == 9.0


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "engine-dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
