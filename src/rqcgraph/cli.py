"""Experiment runner: every headline number and figure as CSV/JSON artifacts.

Exit codes: 0 success, 2 validation error, 3 capacity error, 4 one or more
reproduction checks failed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import cem, moments, oracle, rem, swapengine
from .errors import CapacityError, ValidationError, int_at_least
from .graphs import (
    Bipartition,
    FixedSequence,
    UniformIID,
    build_graph,
    load_graph,
    load_partition,
)

FLOAT_FMT = ".17g"


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, FLOAT_FMT)
    return str(x)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(x) for x in row])


def _emit_json(doc: dict, path: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _config(args: argparse.Namespace) -> dict:
    skip = {"func"}
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


# --- subcommands --------------------------------------------------------------


def cmd_single_edge(args) -> int:
    mean = moments.single_edge_alpha_moment(args.alpha, args.d)
    doc = {"config": _config(args), "mean": mean, "alpha": args.alpha, "d": args.d}
    if args.alpha == 2:
        doc["variance"] = moments.single_edge_purity_variance(args.d)
        doc["second_moment"] = moments.second_moment_I(args.d)
    _emit_json(doc, args.out)
    print(f"single-edge: alpha={args.alpha} d={args.d} mean={mean:.10g}")
    return 0


def cmd_rem(args) -> int:
    bound, linear = rem.renyi2_bound(args.q, args.d, args.k)
    doc = {
        "config": _config(args),
        "purity_k": rem.rem_purity(args.q, args.d, args.k),
        "alpha_purity": rem.rem_alpha_purity(args.q, args.d, args.alpha),
        "variance_exact": rem.rem_variance(args.q, args.d, approx=False),
        "variance_approx": rem.rem_variance(args.q, args.d, approx=True),
        "renyi2_bound_bits": bound,
        "renyi2_linearization_bits": linear,
    }
    _emit_json(doc, args.out)
    print(f"rem: q={args.q} d={args.d} k={args.k} purity={doc['purity_k']:.10g}")
    return 0


def cmd_rem_complete(args) -> int:
    series = rem.complete_graph_purity(args.n, args.na, args.d, args.k)
    asym = rem.complete_graph_asymptote(args.n, args.na, args.d)
    if args.csv:
        _write_csv(
            args.csv,
            ["step", "purity", "asymptote"],
            [[i, v, asym] for i, v in enumerate(series.values)],
        )
    _emit_json(
        {"config": _config(args), "final": series.final, "asymptote": asym},
        args.out,
    )
    print(f"rem-complete: n={args.n} n_a={args.na} final={series.final:.10g} asymptote={asym:.10g}")
    return 0


def gap_scan(n_min: int, n_max: int, step: int, d: int):
    ns = list(range(n_min, n_max + 1, int_at_least(step, 1, "step")))
    reports = [rem.spectral_analysis(n, d) for n in ns]
    deltas = [r.delta for r in reports]
    norms = [r.norm_product for r in reports]
    gap_slope, gap_icept = rem.fit_power_law(ns, deltas, mode="loglog")
    norm_slope, norm_icept = rem.fit_power_law(ns, [math.log(x) for x in norms], mode="semilog")
    fit = {
        "gap_slope": gap_slope,
        "gap_intercept": gap_icept,
        "norm_slope": norm_slope,
        "norm_intercept": norm_icept,
    }
    return ns, deltas, norms, fit


def cmd_gap_scan(args) -> int:
    ns, deltas, norms, fit = gap_scan(args.n_min, args.n_max, args.step, args.d)
    if args.csv:
        _write_csv(
            args.csv,
            ["n", "delta", "norm_product"],
            [[n, dl, np_] for n, dl, np_ in zip(ns, deltas, norms)],
        )
    _emit_json({"config": _config(args), "fit": fit}, args.out)
    print(
        f"gap-scan: n={args.n_min}..{args.n_max} gap slope={fit['gap_slope']:.4f} "
        f"norm slope={fit['norm_slope']:.4f}"
    )
    return 0


def cmd_cem_chain(args) -> int:
    best = cem.chain_purity_series(args.length, args.la, args.d, "best", args.nc)
    worst = cem.chain_purity_series(args.length, args.la, args.d, "worst", args.nc)
    asym = cem.chain_asymptote(args.length, args.la, args.d)
    l_b = args.length - args.la
    rows = []
    for n_c in range(args.nc + 1):
        closed = (
            cem.chain_worst_closed_form(n_c, args.d)
            if n_c <= min(args.la, l_b)
            else float("nan")
        )
        rows.append([n_c, best[n_c], worst[n_c], closed, asym])
    if args.csv:
        _write_csv(
            args.csv,
            ["n_c", "purity_best", "purity_worst", "closed_form", "asymptote"],
            rows,
        )
    _emit_json(
        {
            "config": _config(args),
            "final_best": best.final,
            "final_worst": worst.final,
            "asymptote": asym,
        },
        args.out,
    )
    print(f"cem-chain: L={args.length} L_A={args.la} best={best.final:.10g} worst={worst.final:.10g}")
    return 0


def cmd_cem_grid(args) -> int:
    purity, variance = cem.grid_boundary_stats(args.boundary, args.d)
    bnd_first, int_first = cem.grid_ordering_example(args.d)
    doc = {
        "config": _config(args),
        "purity": purity,
        "variance": variance,
        "ordering_example": {"boundary_first": bnd_first, "internal_first": int_first},
    }
    _emit_json(doc, args.out)
    print(f"cem-grid: l={args.boundary} purity={purity:.10g} variance={variance:.10g}")
    return 0


def _load_problem(args):
    """Graph, partition and edge process (--process) of evolve and oracle."""
    g = load_graph(args.graph)
    part = load_partition(args.partition, g)
    proc = UniformIID(g) if args.process == "uniform" else FixedSequence(g, g.edges)
    return g, part, proc


def cmd_evolve(args) -> int:
    g, part, proc = _load_problem(args)
    series = swapengine.evolve(g, part, proc, args.k, mode=args.mode, seed=args.seed)
    if args.csv:
        _write_csv(args.csv, ["step", "purity"], list(enumerate(series.values)))
    _emit_json({"config": _config(args), "purity": list(series.values)}, args.out)
    print(f"evolve: k={args.k} final purity={series.final:.10g}")
    return 0


def cmd_oracle(args) -> int:
    g, part, proc = _load_problem(args)
    stats = oracle.estimate_moments(
        g, proc, part, args.k, args.alpha, args.samples, args.seed
    )
    doc = {
        "config": _config(args),
        "mean": stats.mean,
        "variance": stats.variance,
        "stderr": stats.stderr,
        "samples": stats.n_samples,
        "seed": args.seed,
    }
    _emit_json(doc, args.out)
    print(f"oracle: mean={stats.mean:.6g} +- {stats.stderr:.2g} ({stats.n_samples} samples)")
    return 0


# --- reproduce-all ------------------------------------------------------------


class _Report:
    """Report lines keyed by check name, in report order."""

    def __init__(self):
        self.lines: dict[str, str] = {}
        self.failed = 0

    def _add(self, name: str, ok: bool, text: str, detail: str) -> None:
        if name in self.lines:
            raise ValueError(f"duplicate check name {name!r}")
        self.failed += not ok
        self.lines[name] = f"{'PASS' if ok else 'FAIL'}  {text}" + (f" ({detail})" if detail else "")

    def check(self, name: str, measured: float, expected: float, tol: float, detail: str = "") -> None:
        text = f"{name}: measured={measured:.10g} expected={expected:.10g} tol={tol:g}"
        self._add(name, abs(measured - expected) <= tol, text, detail)

    def check_true(self, name: str, ok: bool, detail: str = "") -> None:
        self._add(name, ok, name, detail)


def _headline_checks(outdir: str, quick: bool = False, seed: int = 7) -> _Report:
    """Every headline check, in report order; the figure files go to outdir.

    reproduce-all reports these lines; the acceptance suite asserts them by name."""
    os.makedirs(outdir, exist_ok=True)
    rep = _Report()
    nd = moments.nd_constant(2)

    # single-edge constants
    rep.check("single-edge mean 2N_d (d=2)", moments.single_edge_alpha_moment(2, 2), 0.8, 1e-12)
    rep.check("single-edge variance (d=2)", moments.single_edge_purity_variance(2), 18 / 1050, 1e-12)
    rep.check("second moment I (d=2)", moments.second_moment_I(2), 23 / 35, 1e-12)
    for d in range(2, 7):
        rep.check(
            f"C(2,d)=2N_d (d={d})",
            moments.single_edge_alpha_moment(2, d),
            2 * moments.nd_constant(d),
            1e-12,
        )

    # Monte Carlo single edge
    g2 = build_graph(2, [(0, 1)], 2)
    part2 = Bipartition(g2.vertex_set((0,)))
    stats = oracle.estimate_moments(
        g2, FixedSequence(g2, g2.edges), part2, 1, 2, 20000, seed
    )
    rep.check_true(
        "oracle single-edge mean within 3 stderr",
        abs(stats.mean - 0.8) <= 3 * stats.stderr,
        f"mean={stats.mean:.5f} stderr={stats.stderr:.2g}",
    )
    rep.check("oracle single-edge variance", stats.variance, 18 / 1050, 0.1 * 18 / 1050)

    # K_10 purity curves and asymptote
    rows = []
    k_curve = 120
    for n_a in range(1, 6):
        series = rem.complete_graph_purity(10, n_a, 2, k_curve)
        rows.append(series.values)
    _write_csv(
        os.path.join(outdir, "fig_pur10.csv"),
        ["step"] + [f"purity_na{n_a}" for n_a in range(1, 6)],
        [[k] + [rows[j][k] for j in range(5)] for k in range(k_curve + 1)],
    )
    series = rem.complete_graph_purity(10, 5, 2, 400)
    rep.check(
        "K_10 n_a=5 converges to asymptote",
        series.final,
        rem.complete_graph_asymptote(10, 5, 2),
        1e-6,
    )

    # gap scan (the fit checks only make sense on the full 8..64 range)
    n_max = 32 if quick else 64
    ns, deltas, norms, fit = gap_scan(8, n_max, 4, 2)
    _write_csv(
        os.path.join(outdir, "fig_boundfig.csv"),
        ["n", "delta", "norm_product"],
        [[n, dl, np_] for n, dl, np_ in zip(ns, deltas, norms)],
    )
    with open(os.path.join(outdir, "gap_fit.json"), "w") as fh:
        json.dump(fit, fh, indent=2, sort_keys=True)
    rep.check("gap at n=16 vs 1.025/16", deltas[ns.index(16)], 1.025 / 16, 0.15 * 1.025 / 16)
    if not quick:
        # The verdict comes from the all-grid fit, so this line FAILs (-0.915)
        # until the benchmark's EXPECTED_FULL changes; criterion 6 checks the
        # top-octave fit instead, which the detail prints (ROADMAP item 7).
        top = rem.gap_exponent(ns, deltas)
        rep.check(
            "gap scaling slope", fit["gap_slope"], -0.97, 0.05,
            f"fit over n=8..{n_max}; over n={n_max // 2}..{n_max} it is {top:.4f}",
        )
        rep.check("norm-product slope", fit["norm_slope"], 0.318, 0.07)
        kmin_ns = list(range(32, 257, 16))
        kmin_ks = [rem.k_min_bound(n, n // 2, 2, 1e-3) for n in kmin_ns]
        kmin_slope, _ = rem.fit_power_law(kmin_ns, kmin_ks, mode="loglog")
        rep.check("k_min bound O(n^2) slope", kmin_slope, 2.0, 0.2)
        rep.check_true(
            "k_min bound >= empirical convergence step (n <= 32)",
            all(
                rem.k_min_bound(n, n // 2, 2, 1e-3)
                >= rem.empirical_convergence_step(n, n // 2, 2, 1e-3)
                for n in range(8, 33, 4)
            ),
        )

    # chain best/worst series
    n_c = 48
    best = cem.chain_purity_series(16, 8, 2, "best", n_c)
    worst = cem.chain_purity_series(16, 8, 2, "worst", n_c)
    asym16 = cem.chain_asymptote(16, 8, 2)
    _write_csv(
        os.path.join(outdir, "fig_asymptotic.csv"),
        ["n_c", "purity_best", "purity_worst", "asymptote"],
        [[j, best[j], worst[j], asym16] for j in range(n_c + 1)],
    )
    rep.check("chain worst n_c=1", worst[1], 2 * nd, 1e-12)
    rep.check("chain worst closed form n_c=8", worst[8], cem.chain_worst_closed_form(8, 2), 1e-12)
    rep.check(
        "chain L=4 asymptote",
        cem.chain_purity_series(4, 2, 2, "worst", 200).final,
        cem.chain_asymptote(4, 2, 2),
        1e-6,
    )
    rep.check_true(
        "best/worst within 1% by n_c = 3L",
        abs(best.final - worst.final) <= 0.01 * worst.final,
    )

    # chain spectrum saturation
    sizes = (10, 25, 50) if quick else (10, 25, 50, 100, 200)
    sat_rows = []
    for l_a in sizes:
        spectrum = cem.chain_spectrum(2 * l_a, l_a, "worst", 2)
        sat_rows.append([l_a, spectrum.lambda2, spectrum.unit_multiplicity])
    _write_csv(
        os.path.join(outdir, "fig_lambda_saturation.csv"),
        ["L_A", "lambda2", "unit_multiplicity"],
        sat_rows,
    )
    lam_tol = 1e-2 if not quick else 2e-2
    rep.check("chain lambda2 saturation", sat_rows[-1][1], (2 * nd) ** 2, lam_tol)
    rep.check_true(
        "chain unit eigenvalue multiplicity 2",
        all(row[2] == 2 for row in sat_rows),
    )
    if not quick:
        rep.check_true(
            "best/worst chain spectra identical (exact)",
            cem.chain_spectra_equal(400, 200, 2),
            "best = worst reversed; twirls self-adjoint under the Hilbert-Schmidt Gram matrix, "
            "so the operators are similar",
        )

    # 2D grid
    purity_l2, _ = cem.grid_boundary_stats(2, 2)
    rep.check("grid purity l=2", purity_l2, 0.64, 1e-12)
    rep.check("grid variance l=1", cem.grid_boundary_stats(1, 2)[1], 18 / 1050, 1e-12)
    bnd_first, int_first = cem.grid_ordering_example(2)
    rep.check("grid ordering boundary-first", bnd_first, 0.64, 1e-12)
    rep.check("grid ordering internal-first", int_first, 0.5248, 1e-12)
    return rep


def reproduce_all(outdir: str, quick: bool = False, seed: int = 7) -> int:
    rep = _headline_checks(outdir, quick, seed)
    lines = list(rep.lines.values())
    report_path = os.path.join(outdir, "report.txt")
    with open(report_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
        fh.write(f"\n{len(lines) - rep.failed} passed, {rep.failed} failed\n")
    print("\n".join(lines))
    print(f"report written to {report_path}")
    return 4 if rep.failed else 0


def cmd_reproduce_all(args) -> int:
    return reproduce_all(args.outdir, quick=args.quick, seed=args.seed)


# --- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rqcgraph",
        description="Purity dynamics of random quantum circuits on graphs",
    )
    sub = p.add_subparsers(dest="command", required=True)

    se = sub.add_parser("single-edge", help="exact single-edge Haar moments")
    se.add_argument("--d", type=int, default=2)
    se.add_argument("--alpha", type=int, default=2)
    se.add_argument("--out", help="write JSON here instead of stdout")
    se.set_defaults(func=cmd_single_edge)

    r = sub.add_parser("rem", help="random edge model closed forms")
    r.add_argument("--q", type=float, required=True, help="boundary probability |dA|/|E|")
    r.add_argument("--d", type=int, default=2)
    r.add_argument("--k", type=int, default=1)
    r.add_argument("--alpha", type=int, default=2)
    r.add_argument("--out")
    r.set_defaults(func=cmd_rem)

    rc = sub.add_parser("rem-complete", help="complete-graph spin-block purity series")
    rc.add_argument("--n", type=int, required=True)
    rc.add_argument("--na", type=int, required=True, help="subsystem size N_A")
    rc.add_argument("--d", type=int, default=2)
    rc.add_argument("--k", type=int, default=100)
    rc.add_argument("--csv")
    rc.add_argument("--out")
    rc.set_defaults(func=cmd_rem_complete)

    gs = sub.add_parser("gap-scan", help="spectral gap and norm-product scaling")
    gs.add_argument("--n-min", type=int, default=8)
    gs.add_argument("--n-max", type=int, default=64)
    gs.add_argument("--step", type=int, default=4)
    gs.add_argument("--d", type=int, default=2)
    gs.add_argument("--csv")
    gs.add_argument("--out")
    gs.set_defaults(func=cmd_gap_scan)

    cc = sub.add_parser("cem-chain", help="contiguous edge model on the chain")
    cc.add_argument("--length", "--L", type=int, required=True, dest="length")
    cc.add_argument("--la", type=int, required=True, help="subsystem length L_A")
    cc.add_argument("--d", type=int, default=2)
    cc.add_argument("--nc", type=int, default=20, help="number of cycles n_c")
    cc.add_argument("--csv")
    cc.add_argument("--out")
    cc.set_defaults(func=cmd_cem_chain)

    cg = sub.add_parser("cem-grid", help="square-lattice boundary statistics")
    cg.add_argument("--boundary", "--l", type=int, required=True, dest="boundary")
    cg.add_argument("--d", type=int, default=2)
    cg.add_argument("--out")
    cg.set_defaults(func=cmd_cem_grid)

    ev = sub.add_parser("evolve", help="swap-engine evolution on a graph file")
    ev.add_argument("--graph", required=True)
    ev.add_argument("--partition", required=True)
    ev.add_argument("--k", type=int, required=True)
    ev.add_argument("--process", choices=("uniform", "sequence"), default="uniform")
    ev.add_argument("--mode", choices=("expectation", "sampled"), default="expectation")
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--csv")
    ev.add_argument("--out")
    ev.set_defaults(func=cmd_evolve)

    orc = sub.add_parser("oracle", help="Monte Carlo statevector estimate")
    orc.add_argument("--graph", required=True)
    orc.add_argument("--partition", required=True)
    orc.add_argument("--k", type=int, required=True)
    orc.add_argument("--alpha", type=int, default=2)
    orc.add_argument("--samples", type=int, default=20000)
    orc.add_argument("--process", choices=("uniform", "sequence"), default="sequence")
    orc.add_argument("--seed", type=int, default=0)
    orc.add_argument("--out")
    orc.set_defaults(func=cmd_oracle)

    ra = sub.add_parser("reproduce-all", help="rebuild every figure/constant and check")
    ra.add_argument("--outdir", default="reproduction")
    ra.add_argument("--quick", action="store_true", help="skip the largest scans")
    ra.add_argument("--seed", type=int, default=7)
    ra.set_defaults(func=cmd_reproduce_all)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
