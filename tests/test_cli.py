import csv
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from rqcgraph import cem, swapengine
from rqcgraph.cli import _headline_checks, _Report, main
from rqcgraph.graphs import FixedSequence, UniformIID, load_graph, load_partition, sample_sequence


def _write_problem(tmp_path, n, edges, a):
    gpath = tmp_path / "graph.json"
    ppath = tmp_path / "part.json"
    gpath.write_text(json.dumps({"n": n, "d": 2, "edges": edges}))
    ppath.write_text(json.dumps({"A": a}))
    return str(gpath), str(ppath)


def _read_csv(path):
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, np.array(rows, dtype=float)


def test_single_edge_json(tmp_path, capsys):
    out = tmp_path / "se.json"
    assert main(["single-edge", "--d", "2", "--alpha", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["mean"] == pytest.approx(0.8)
    assert doc["variance"] == pytest.approx(18 / 1050)
    assert doc["config"]["d"] == 2


def test_rem_subcommand(tmp_path):
    out = tmp_path / "rem.json"
    assert main(["rem", "--q", "0.5", "--k", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["purity_k"] == pytest.approx(0.81)
    assert main(["rem", "--q", "1.5", "--out", str(out)]) == 2  # invalid q


def test_rem_complete_csv(tmp_path):
    csvp = tmp_path / "series.csv"
    out = tmp_path / "rc.json"
    code = main(
        ["rem-complete", "--n", "8", "--na", "4", "--k", "50", "--csv", str(csvp), "--out", str(out)]
    )
    assert code == 0
    lines = csvp.read_text().strip().splitlines()
    assert lines[0] == "step,purity,asymptote"
    assert len(lines) == 52
    doc = json.loads(out.read_text())
    assert doc["final"] > doc["asymptote"] > 0


def test_large_complete_graph_and_chain_run():
    # C(68, 34) passes 2^64 and 2^(2*700-350) passes the float range
    assert main(["rem-complete", "--n", "68", "--na", "34"]) == 0
    assert main(["cem-chain", "--length", "700", "--la", "350", "--nc", "2"]) == 0


def test_cem_chain_closed_form_column_past_the_float_terms(tmp_path):
    # from n_c = 516 a float term of the closed form's binomial sum overflows,
    # and from about 405 its powers of N_d underflow; the column meets the
    # worst-order series all the way
    csvp = tmp_path / "chain.csv"
    assert main(["cem-chain", "--length", "1100", "--la", "550", "--nc", "530", "--csv", str(csvp)]) == 0
    _, rows = _read_csv(csvp)
    assert rows[:, 3] == pytest.approx(rows[:, 2], rel=1e-12, abs=0)


def test_gap_scan(tmp_path):
    csvp = tmp_path / "gap.csv"
    out = tmp_path / "fit.json"
    code = main(
        ["gap-scan", "--n-min", "8", "--n-max", "24", "--step", "4", "--csv", str(csvp), "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert -1.1 < doc["fit"]["gap_slope"] < -0.5
    rows = csvp.read_text().strip().splitlines()
    assert rows[0] == "n,delta,norm_product"
    assert len(rows) == 6


def test_gap_scan_past_the_float_range(tmp_path):
    # norm_product reads inf past n ≈ 2044; the fit takes its logarithm
    csvp = tmp_path / "gap.csv"
    assert main(["gap-scan", "--n-min", "2092", "--n-max", "2100", "--step", "4", "--csv", str(csvp)]) == 0
    header, rows = _read_csv(csvp)
    assert header == ["n", "delta", "norm_product"]
    assert rows.shape == (3, 3) and np.all(rows[:, 2] == np.inf)


def test_gap_scan_zero_step_exits_2(capsys):
    assert main(["gap-scan", "--n-min", "8", "--n-max", "24", "--step", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cem_chain_csv_rows_are_the_library_series(tmp_path):
    csvp = tmp_path / "chain.csv"
    assert main(["cem-chain", "--length", "8", "--la", "3", "--nc", "6", "--csv", str(csvp)]) == 0
    header, rows = _read_csv(csvp)
    assert header == ["n_c", "purity_best", "purity_worst", "closed_form", "asymptote"]
    best = cem.chain_purity_series(8, 3, 2, "best", 6)
    worst = cem.chain_purity_series(8, 3, 2, "worst", 6)
    closed = [cem.chain_worst_closed_form(j, 2) if j <= 3 else float("nan") for j in range(7)]
    expected = [[j, best[j], worst[j], closed[j], cem.chain_asymptote(8, 3, 2)] for j in range(7)]
    np.testing.assert_array_equal(rows, expected)  # .17g round-trips every float exactly


@pytest.mark.parametrize("process", ["uniform", "sequence"])
def test_evolve_csv_rows_are_the_engine_series(tmp_path, process):
    gpath, ppath = _write_problem(tmp_path, 4, [[0, 1], [1, 2], [2, 3], [0, 3]], [0, 1])
    csvp = tmp_path / "ev.csv"
    argv = ["evolve", "--graph", gpath, "--partition", ppath, "--k", "5", "--process", process]
    assert main(argv + ["--csv", str(csvp)]) == 0
    header, rows = _read_csv(csvp)
    assert header == ["step", "purity"]
    g = load_graph(gpath)
    proc = UniformIID(g) if process == "uniform" else FixedSequence(g, g.edges)
    series = swapengine.evolve(g, load_partition(ppath, g), proc, 5)
    np.testing.assert_array_equal(rows, list(enumerate(series.values)))


def test_evolve_sampled_mode_runs_the_drawn_sequence_as_a_fixed_sequence(tmp_path):
    # --mode sampled draws k edges from --seed and averages over Haar alone;
    # with --process sequence it gives the graph file's cycle's own series
    # (test_swapengine's call count tells the cycle from k edges drawn from it)
    gpath, ppath = _write_problem(tmp_path, 4, [[0, 1], [1, 2], [2, 3], [0, 3]], [0, 1])
    g = load_graph(gpath)
    part, out = load_partition(ppath, g), tmp_path / "ev.json"
    for process in ("uniform", "sequence"):
        for k in (0, 1, 9):
            argv = ["evolve", "--graph", gpath, "--partition", ppath, "--k", str(k), "--process", process]
            assert main(argv + ["--mode", "sampled", "--seed", "3", "--out", str(out)]) == 0
            got = json.loads(out.read_text())["purity"]
            if k == 0:
                want = (1.0,)
            elif process == "uniform":
                drawn = sample_sequence(UniformIID(g), k, 3)
                want = swapengine.evolve(g, part, FixedSequence(g, drawn), k).values
            else:
                want = swapengine.evolve(g, part, FixedSequence(g, g.edges), k).values
            assert got == list(want)


@pytest.mark.parametrize("alias, name", [
    (["cem-chain", "--L", "8", "--la", "4", "--nc", "5"], ["cem-chain", "--length", "8", "--la", "4", "--nc", "5"]),
    (["cem-grid", "--l", "3", "--d", "3"], ["cem-grid", "--boundary", "3", "--d", "3"]),
], ids=["cem-chain-L", "cem-grid-l"])
def test_short_aliases_match_long_flags(capsys, alias, name):
    assert main(alias) == 0
    by_alias = capsys.readouterr().out
    assert main(name) == 0
    assert by_alias == capsys.readouterr().out


@pytest.mark.parametrize("argv, config", [
    (["single-edge"], {"d": 2, "alpha": 2}),
    (["rem", "--q", "0.25"], {"q": 0.25, "d": 2, "k": 1, "alpha": 2}),
    (["rem-complete", "--n", "6", "--na", "2", "--csv", "CSV"],
     {"n": 6, "na": 2, "d": 2, "k": 100, "csv": "CSV"}),
    (["gap-scan", "--n-max", "16", "--d", "3"], {"n_min": 8, "n_max": 16, "step": 4, "d": 3}),
    (["cem-chain", "--L", "6", "--la", "3", "--csv", "CSV"],
     {"length": 6, "la": 3, "d": 2, "nc": 20, "csv": "CSV"}),
    (["cem-grid", "--l", "2"], {"boundary": 2, "d": 2}),
    (["evolve", "--graph", "G", "--partition", "P", "--k", "2", "--csv", "CSV"],
     {"graph": "G", "partition": "P", "k": 2, "process": "uniform", "mode": "expectation",
      "seed": 0, "csv": "CSV"}),
    (["oracle", "--graph", "G", "--partition", "P", "--k", "1", "--samples", "20"],
     {"graph": "G", "partition": "P", "k": 1, "alpha": 2, "samples": 20, "process": "sequence",
      "seed": 0}),
], ids=["single-edge", "rem", "rem-complete", "gap-scan", "cem-chain", "cem-grid", "evolve", "oracle"])
def test_out_json_config_echoes_every_flag(tmp_path, argv, config):
    gpath, ppath = _write_problem(tmp_path, 3, [[0, 1], [1, 2]], [0])
    out = str(tmp_path / "out.json")
    paths = {"G": gpath, "P": ppath, "CSV": str(tmp_path / "rows.csv")}
    assert main([paths.get(a, a) for a in argv] + ["--out", out]) == 0
    expected = {k: paths.get(v, v) for k, v in config.items()}
    assert json.loads(Path(out).read_text())["config"] == {"command": argv[0], "out": out, **expected}


def test_readme_command_line_block_runs(tmp_path, monkeypatch):
    section = (Path(__file__).parents[1] / "README.md").read_text().split("## Command line", 1)[1]
    lines = [ln for ln in section.split("```")[1].splitlines() if ln.startswith("rqcgraph ")]
    graph, part = re.search(r"Graph files are JSON: `([^`]+)`;\s+partitions: `([^`]+)`", section).groups()
    (tmp_path / "g.json").write_text(graph)
    (tmp_path / "p.json").write_text(part)
    monkeypatch.chdir(tmp_path)
    assert len(lines) == 10
    for line in lines:
        # the full reproduce-all exits 4 on `gap scaling slope`, so run --quick
        argv = line.replace("[--quick]", "--quick").split()[1:]
        assert main(argv) == 0, line


def test_cem_chain_and_grid(tmp_path):
    out = tmp_path / "cc.json"
    assert main(["cem-chain", "--length", "8", "--la", "4", "--nc", "10", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["final_best"] > 0 and doc["final_worst"] > 0
    assert main(["cem-grid", "--boundary", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["purity"] == pytest.approx(0.64)
    assert doc["ordering_example"]["internal_first"] == pytest.approx(0.5248)


def test_evolve_and_oracle_roundtrip(tmp_path):
    gpath, ppath = _write_problem(tmp_path, 4, [[0, 1], [1, 2], [2, 3], [0, 3]], [0, 1])
    out = tmp_path / "ev.json"
    code = main(
        ["evolve", "--graph", gpath, "--partition", ppath, "--k", "3",
         "--process", "sequence", "--mode", "expectation", "--out", str(out)]
    )
    assert code == 0
    exact = json.loads(out.read_text())["purity"][-1]
    orc = tmp_path / "orc.json"
    code = main(
        ["oracle", "--graph", gpath, "--partition", ppath, "--k", "3",
         "--samples", "3000", "--seed", "5", "--out", str(orc)]
    )
    assert code == 0
    doc = json.loads(orc.read_text())
    assert abs(doc["mean"] - exact) < 4 * doc["stderr"]


def test_evolve_on_a_wide_hyperedge(tmp_path, capsys):
    # one 40-vertex edge at d = 100: d^(4m) = 10^320 is past the float range
    gpath, ppath = tmp_path / "graph.json", tmp_path / "part.json"
    gpath.write_text(json.dumps({"n": 40, "d": 100, "edges": [list(range(40))]}))
    ppath.write_text(json.dumps({"A": [0]}))
    assert main(["evolve", "--graph", str(gpath), "--partition", str(ppath), "--k", "1"]) == 0
    assert "final purity=" in capsys.readouterr().out


def test_evolve_on_a_100_site_chain(tmp_path):
    # no vertex cap: the uniform mixture runs on the dicts, past the arrays' reach
    gpath, ppath = _write_problem(tmp_path, 100, [[i, i + 1] for i in range(99)], list(range(50)))
    out = tmp_path / "ev.json"
    assert main(["evolve", "--graph", gpath, "--partition", ppath, "--k", "3", "--out", str(out)]) == 0
    purity = json.loads(out.read_text())["purity"]
    g = load_graph(gpath)
    assert purity == list(swapengine.evolve(g, load_partition(ppath, g), UniformIID(g), 3).values)
    assert purity[0] == 1.0 and purity[-1] < purity[1] < 1


def test_oracle_seed_reproducible(tmp_path):
    gpath, ppath = _write_problem(tmp_path, 3, [[0, 1], [1, 2]], [0])
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        assert main(
            ["oracle", "--graph", gpath, "--partition", ppath, "--k", "2",
             "--samples", "500", "--seed", "9", "--out", str(out)]
        ) == 0
    assert json.loads(out1.read_text())["mean"] == json.loads(out2.read_text())["mean"]


def test_exit_code_validation_error(tmp_path):
    gpath = tmp_path / "bad.json"
    gpath.write_text(json.dumps({"n": 4, "d": 2, "edges": [[0, 1], [0, 1]]}))
    ppath = tmp_path / "p.json"
    ppath.write_text(json.dumps({"A": [0]}))
    assert main(["evolve", "--graph", str(gpath), "--partition", str(ppath), "--k", "1"]) == 2


@pytest.mark.parametrize("graph_text, part_text", [
    (None, '{"A": [0]}'),
    ('{"n": 3, "d": 2, "edges": [[0, 1], [1, 2]', '{"A": [0]}'),
    ('{"n": "3", "d": 2, "edges": [[0, 1], [1, 2]]}', '{"A": [0]}'),
    ('{"n": 3, "d": 2, "edges": [[0, 1], [1, 2]]}', '{"A": 0}'),
    ('{"n": 3, "d": 2, "edges": 0}', '{"A": [0]}'),
    ('{"n": 3, "d": 2, "edges": [[0, 1], [1, 2]]}', '[0]'),
    ('{"n": 3, "edges": [[0, 1], [1, 2]]}', '{"A": [0]}'),
    ('{"n": 3, "d": 2, "edges": [[0, 1], [1, 2]]}', '{"B": [0]}'),
    ('{"n": 3, "d": 2, "edges": [[0, 0, 1], [1, 2]]}', '{"A": [0]}'),
    ('{"n": 3, "d": 2, "edges": [[0, 1], [1, 2]]}', '{"A": [0, 0]}'),
], ids=["missing-graph", "truncated-json", "string-n", "scalar-partition", "scalar-edges",
        "array-partition", "graph-without-d", "partition-without-A", "repeated-edge-vertex",
        "repeated-partition-vertex"])
def test_bad_input_file_exits_2(tmp_path, capsys, graph_text, part_text):
    gpath, ppath = tmp_path / "graph.json", tmp_path / "part.json"
    if graph_text is not None:
        gpath.write_text(graph_text)
    ppath.write_text(part_text)
    assert main(["evolve", "--graph", str(gpath), "--partition", str(ppath), "--k", "1"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("graph_text, part_text", [
    ('{"n": 3, "d": 2, "edges": [[0, true], [1, 2]]}', '{"A": [0]}'),
    ('{"n": 3, "d": 2, "edges": [[0, 1], [1, 2]]}', '{"A": [true]}'),
], ids=["bool-vertex", "bool-partition"])
def test_json_booleans_are_not_integers(tmp_path, capsys, graph_text, part_text):
    gpath, ppath = tmp_path / "graph.json", tmp_path / "part.json"
    gpath.write_text(graph_text)
    ppath.write_text(part_text)
    assert main(["evolve", "--graph", str(gpath), "--partition", str(ppath), "--k", "2"]) == 2
    assert "must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--alpha", "0"), ("--alpha", "-1"), ("--seed", "-1")])
def test_oracle_bad_alpha_or_seed_exits_2(tmp_path, capsys, flag, value):
    gpath, ppath = _write_problem(tmp_path, 3, [[0, 1], [1, 2]], [0])
    code = main(
        ["oracle", "--graph", gpath, "--partition", ppath, "--k", "2",
         "--samples", "10", flag, value]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command, workers", [
    (["evolve", "--mode", "sampled", "--seed", "-1"], "1"),
    (["oracle", "--samples", "10"], "two"),
], ids=["evolve-seed", "oracle-workers"])
def test_bad_seed_or_worker_env_exits_2(tmp_path, capsys, monkeypatch, command, workers):
    gpath, ppath = _write_problem(tmp_path, 3, [[0, 1], [1, 2]], [0])
    monkeypatch.setenv("RQCGRAPH_WORKERS", workers)
    assert main(command + ["--graph", gpath, "--partition", ppath, "--k", "2"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["rem-complete", "--n", "8", "--na", "4", "--csv", "{missing}/x.csv"],
    ["single-edge", "--out", "{missing}/x.json"],
    ["reproduce-all", "--quick", "--outdir", "{file}/sub"],
], ids=["csv", "out", "outdir"])
def test_unwritable_output_path_exits_2(tmp_path, capsys, argv):
    (tmp_path / "file").write_text("")
    paths = {"missing": tmp_path / "missing", "file": tmp_path / "file"}
    assert main([a.format(**paths) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write ")


def test_exit_code_capacity_error(tmp_path):
    edges = [[i, i + 1] for i in range(29)]
    gpath, ppath = _write_problem(tmp_path, 30, edges, [0])
    code = main(
        ["oracle", "--graph", gpath, "--partition", ppath, "--k", "1", "--samples", "10"]
    )
    assert code == 3


def test_reproduce_all_quick(tmp_path):
    import time

    outdir = tmp_path / "repro"
    t0 = time.time()
    code = main(["reproduce-all", "--outdir", str(outdir), "--quick"])
    elapsed = time.time() - t0
    assert code == 0
    assert elapsed < 60
    report = (outdir / "report.txt").read_text()
    assert report.count("PASS") >= 12
    assert "FAIL" not in report
    for name in ("fig_pur10.csv", "fig_boundfig.csv", "gap_fit.json",
                 "fig_asymptotic.csv", "fig_lambda_saturation.csv"):
        assert (outdir / name).exists()
    # the shared list: one line per check, keyed by its name, as reported
    rep = _headline_checks(str(tmp_path / "checks"), quick=True)
    assert list(rep.lines.values()) == [ln for ln in report.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert all(line[6:].startswith(name) for name, line in rep.lines.items())


def test_reproduce_all_quick_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["reproduce-all", "--outdir", str(out1), "--quick"]) == 0
    assert main(["reproduce-all", "--outdir", str(out2), "--quick"]) == 0
    for name in sorted(os.listdir(out1)):
        a = (out1 / name).read_bytes()
        b = (out2 / name).read_bytes()
        assert a == b, f"artifact {name} differs between identical runs"


def test_report_check_appends_detail():
    rep = _Report()
    rep.check("gap scaling slope", -0.915, -0.97, 0.05, "fit over n=8..64; over n=32..64 it is -0.9818")
    rep.check("grid purity l=2", 0.64, 0.64, 1e-12)
    assert list(rep.lines.items()) == [
        ("gap scaling slope", "FAIL  gap scaling slope: measured=-0.915 expected=-0.97 tol=0.05 "
         "(fit over n=8..64; over n=32..64 it is -0.9818)"),
        ("grid purity l=2", "PASS  grid purity l=2: measured=0.64 expected=0.64 tol=1e-12"),
    ]
    assert rep.failed == 1
    with pytest.raises(ValueError, match="duplicate"):  # a repeat would drop a line
        rep.check_true("grid purity l=2", True)
