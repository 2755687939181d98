import json
import os

import pytest

from rqcgraph.cli import _headline_checks, _Report, main


def _write_problem(tmp_path, n, edges, a):
    gpath = tmp_path / "graph.json"
    ppath = tmp_path / "part.json"
    gpath.write_text(json.dumps({"n": n, "d": 2, "edges": edges}))
    ppath.write_text(json.dumps({"A": a}))
    return str(gpath), str(ppath)


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


def test_gap_scan_zero_step_exits_2(capsys):
    assert main(["gap-scan", "--n-min", "8", "--n-max", "24", "--step", "0"]) == 2
    assert "error:" in capsys.readouterr().err


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
], ids=["missing-graph", "truncated-json", "string-n", "scalar-partition", "scalar-edges",
        "array-partition"])
def test_bad_input_file_exits_2(tmp_path, capsys, graph_text, part_text):
    gpath, ppath = tmp_path / "graph.json", tmp_path / "part.json"
    if graph_text is not None:
        gpath.write_text(graph_text)
    ppath.write_text(part_text)
    assert main(["evolve", "--graph", str(gpath), "--partition", str(ppath), "--k", "1"]) == 2
    assert "error:" in capsys.readouterr().err


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
