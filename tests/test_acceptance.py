"""Acceptance suite: one test per headline criterion.

Each test emits a single PASS/FAIL line (collected into the pytest terminal
summary, since capture would otherwise swallow it) and then asserts.
Checks that `reproduce-all` already makes are asserted from its report lines,
by name (the `headline` fixture); the rest state their tolerances inline.
Random sweeps use fixed seeds so every run is deterministic.
"""

import itertools
import math
import time

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES

from rqcgraph import cem, cli, moments, oracle, rem, swapengine
from rqcgraph.graphs import (
    Bipartition,
    FixedSequence,
    UniformIID,
    boundary_edges,
    build_graph,
    cem_sequence,
    chain_graph,
    complete_graph,
)


class Criterion:
    def __init__(self, num: int, title: str, budget_s: float):
        self.num = num
        self.title = title
        self.budget = budget_s
        self.t0 = time.time()
        self.failures: list[str] = []

    def check(self, name: str, ok: bool) -> None:
        if not ok:
            self.failures.append(name)

    def close(self, value: str, measured: float, expected: float, tol: float) -> None:
        self.check(
            f"{value}: measured {measured:.12g}, expected {expected:.12g} +- {tol:g}",
            abs(measured - expected) <= tol,
        )

    def record(self, headline, name: str) -> None:  # a reproduce-all report line
        self.check(headline.lines[name], headline.lines[name].startswith("PASS  "))

    def conclude(self) -> None:
        elapsed = time.time() - self.t0
        if elapsed > self.budget:
            self.failures.append(f"took {elapsed:.1f}s > budget {self.budget:.0f}s")
        verdict = "FAIL" if self.failures else "PASS"
        line = f"[criterion {self.num:2d}] {verdict}  {self.title} ({elapsed:.1f}s)"
        print(line, flush=True)
        ACCEPTANCE_LINES.append(line)
        assert not self.failures, f"criterion {self.num}: " + "; ".join(self.failures)


@pytest.fixture(scope="module")
def headline(tmp_path_factory):
    """The full reproduce-all check list, built once, within criterion 6's 120 s."""
    t0 = time.time()
    rep = cli._headline_checks(str(tmp_path_factory.mktemp("headline")))
    assert (elapsed := time.time() - t0) <= 120, f"headline checks took {elapsed:.1f}s > 120s"
    return rep


def test_criterion_01_single_edge_moments(headline):
    c = Criterion(1, "single-edge mean 0.8 / variance 0.0171, exact + Monte Carlo", 10)
    c.record(headline, "single-edge mean 2N_d (d=2)")
    c.record(headline, "single-edge variance (d=2)")
    g = build_graph(2, [(0, 1)], 2)
    part = Bipartition(g.vertex_set((0,)))
    proc = FixedSequence(g, g.edges)
    stats = oracle.estimate_moments(g, proc, part, 1, 2, 20000, seed=17)
    c.check(
        f"MC mean {stats.mean:.5f} within 3 stderr ({stats.stderr:.2g}) of 0.8",
        abs(stats.mean - 0.8) <= 3 * stats.stderr,
    )
    # variance agreement: 20 independent chunks give a stderr for the variance
    chunk_vars = [
        oracle.estimate_moments(g, proc, part, 1, 2, 1000, seed=100 + i).variance
        for i in range(20)
    ]
    vmean = float(np.mean(chunk_vars))
    vse = float(np.std(chunk_vars, ddof=1) / np.sqrt(len(chunk_vars)))
    c.check(
        f"MC variance {vmean:.5f} within 3 stderr ({vse:.2g}) of {18 / 1050:.5f}",
        abs(vmean - 18 / 1050) <= 3 * vse,
    )
    c.conclude()


def test_criterion_02_symmetric_group_machinery(headline):
    c = Criterion(2, "cycle-sum moments: C(2,d), I(2), 4th-moment numerator", 1)
    for d in range(2, 7):
        c.record(headline, f"C(2,d)=2N_d (d={d})")
    c.record(headline, "second moment I (d=2)")
    for d in range(2, 5):
        c.check(
            f"numerator({d}) closed form",
            moments.second_moment_numerator(d) == d * d * (2 * d**4 + 9 * d * d + 1) // 12,
        )
    c.conclude()


def test_criterion_03_engine_vs_oracle_end_to_end():
    c = Criterion(3, "swap engine vs MC oracle, 20 random graphs, 3 stderr", 300)
    rng = np.random.default_rng(2024)
    for trial in range(20):
        n = int(rng.integers(2, 6))
        pairs = list(itertools.combinations(range(n), 2))
        m = int(rng.integers(1, len(pairs) + 1))
        idx = rng.choice(len(pairs), size=m, replace=False)
        g = build_graph(n, [pairs[i] for i in idx], 2)
        depth = int(rng.integers(1, 7))
        seq = tuple(g.edges[int(i)] for i in rng.integers(0, g.n_edges, size=depth))
        proc = FixedSequence(g, seq)
        n_a = int(rng.integers(1, n))
        part = Bipartition(g.vertex_set(tuple(rng.choice(n, size=n_a, replace=False).tolist())))
        exact = swapengine.evolve(g, part, proc, depth).final
        stats = oracle.estimate_moments(g, proc, part, depth, 2, 20000, seed=1000 + trial)
        # the epsilon floor covers degenerate circuits whose purity is exactly 1
        c.check(
            f"trial {trial}: mc {stats.mean:.5f} vs exact {exact:.5f} "
            f"(stderr {stats.stderr:.2g})",
            abs(stats.mean - exact) <= 3 * stats.stderr + 1e-12,
        )
    c.conclude()


def test_criterion_04_dimensional_reduction():
    c = Criterion(4, "spin block equals subset engine on K_n, n <= 12, k <= 20", 60)
    worst = 0.0
    for n in range(2, 13):
        g = complete_graph(n, 2)
        for n_a in range(0, n + 1):
            part = Bipartition(g.vertex_set(tuple(range(n_a))))
            sub = swapengine.evolve(g, part, UniformIID(g), 20)
            spin = rem.complete_graph_purity(n, n_a, 2, 20)
            worst = max(worst, float(np.max(np.abs(np.array(sub.values) - np.array(spin.values)))))
    c.check(f"max deviation {worst:.2e} <= 1e-10", worst <= 1e-10)
    c.conclude()


def test_criterion_05_complete_graph_asymptote(headline):
    c = Criterion(5, "K_10 n_a=5 converges to 0.06243902; plateaus monotone", 10)
    c.record(headline, "K_10 n_a=5 converges to asymptote")
    finals = []
    for n_a in range(1, 6):
        s = rem.complete_graph_purity(10, n_a, 2, 400)
        vals = np.array(s.values)
        c.check(f"n_a={n_a} series monotone decreasing", bool(np.all(np.diff(vals) <= 1e-12)))
        c.close(
            f"n_a={n_a} plateau",
            s.final,
            rem.complete_graph_asymptote(10, n_a, 2),
            1e-6,
        )
        finals.append(s.final)
    c.check("plateaus strictly decreasing and distinct",
            all(a > b + 1e-3 for a, b in zip(finals, finals[1:])))
    c.conclude()


GAP_EXPONENT, GAP_EXPONENT_TOL = -0.97, 0.05


def test_criterion_06_gap_scaling_and_mixing_bound(headline):
    c = Criterion(6, "gap slope -0.97 +- 0.05 on n in [32,64] of [8,64]; norm slope; k_min O(n^2)", 120)
    ns, deltas, _, fit = cli.gap_scan(8, 64, 4, 2)
    ns, deltas = np.array(ns), np.array(deltas)
    c.title += f" [all-grid gap slope {fit['gap_slope']:.3f}]"
    c.close("gap log-log slope", rem.gap_exponent(ns, deltas), GAP_EXPONENT, GAP_EXPONENT_TOL)
    limit = 2 * math.sqrt(1 - 4 * moments.nd_constant(2) ** 2)
    top = rem.fit_window(ns)
    c.check(
        "n*delta within 2.5% of 2 sqrt(1 - 4 N_d^2) on the fit window",
        bool(np.all(np.abs(ns[top] * deltas[top] / limit - 1) <= 0.025)),
    )
    c.record(headline, "norm-product slope")
    c.record(headline, "k_min bound O(n^2) slope")
    c.record(headline, "k_min bound >= empirical convergence step (n <= 32)")
    c.conclude()


def test_gap_exponent_estimator_rejects_other_laws():
    ns = np.arange(8, 65, 4, dtype=float)

    def accepted(deltas) -> bool:
        return abs(rem.gap_exponent(ns, deltas) - GAP_EXPONENT) <= GAP_EXPONENT_TOL

    # each law carries a relative 1/n correction, so the gap has a 1/n^2 term
    # like the spin block's; b = 0.7 matches its n * delta ~ 1.2 - 0.83/n
    assert accepted(1.2 / ns * (1 - 0.7 / ns))
    assert not accepted(1.2 * ns**-0.85 * (1 - 0.7 / ns))
    assert not accepted(1.2 * ns**-1.1 * (1 - 0.7 / ns))


def test_criterion_07_chain_closed_forms():
    c = Criterion(7, "chain worst closed form; best first cycle vs engine", 30)
    for d in (2, 3):
        series = cem.chain_purity_series(16, 8, d, "worst", 8)
        for n_c in range(9):
            c.close(
                f"worst d={d} n_c={n_c}",
                series[n_c],
                cem.chain_worst_closed_form(n_c, d),
                1e-12,
            )
    c.close("worst n_c=1 (d=2)", cem.chain_worst_closed_form(1, 2), 0.8, 1e-15)
    for l_x in (2, 3, 4):
        g = chain_graph(2 * l_x)
        part = Bipartition(g.vertex_set(tuple(range(l_x))))
        seq = cem_sequence(l_x, l_x, "best")
        engine = swapengine.evolve(g, part, FixedSequence(g, seq), len(seq)).final
        c.close(f"best first cycle L_X={l_x}", cem.chain_best_first_cycle(l_x, l_x, 2), engine, 1e-12)
    c.conclude()


def test_criterion_08_chain_asymptote(headline):
    c = Criterion(8, "chain long-run purity reaches the fixed-point value", 60)
    c.record(headline, "chain L=4 asymptote")
    asym6 = cem.chain_asymptote(6, 3, 2)
    for kind in ("best", "worst"):
        s6 = cem.chain_purity_series(6, 3, 2, kind, 60)
        c.check(
            f"L=6 {kind} within 1% of asymptote {asym6:.6f}",
            abs(s6.final - asym6) <= 0.01 * asym6,
        )
    b = cem.chain_purity_series(6, 3, 2, "best", 18).final
    w = cem.chain_purity_series(6, 3, 2, "worst", 18).final
    c.check("best/worst within 1% of each other by n_c = 3L", abs(b - w) <= 0.01 * w)
    c.conclude()


def test_criterion_09_spectrum_saturation(headline):
    c = Criterion(9, "lambda2 -> 0.64 at L_A=200; unit multiplicity 2; spectra equal", 300)
    c.record(headline, "chain lambda2 saturation")
    c.record(headline, "chain unit eigenvalue multiplicity 2")
    c.record(headline, "best/worst chain spectra identical (exact)")
    c.conclude()


def test_criterion_10_area_law_products(headline):
    c = Criterion(10, "2D boundary products (2N_d)^l, variance I^l; ordering example", 10)
    for l in range(1, 5):
        g = build_graph(2 * l, [(2 * i, 2 * i + 1) for i in range(l)], 2)
        part = Bipartition(g.vertex_set(tuple(range(0, 2 * l, 2))))
        engine = swapengine.evolve(g, part, FixedSequence(g, g.edges), l).final
        purity, variance = cem.grid_boundary_stats(l, 2)
        c.close(f"purity l={l} vs engine", purity, engine, 1e-12)
        c.close(
            f"variance l={l} vs per-edge moments",
            variance,
            moments.second_moment_I(2) ** l - engine * engine,
            1e-12,
        )
    c.record(headline, "grid ordering boundary-first")
    c.record(headline, "grid ordering internal-first")
    c.conclude()


def test_criterion_11_rem_formulas():
    c = Criterion(11, "REM single-draw purity on 50 random graphs; alpha=3 vs oracle", 120)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 13))
        pairs = list(itertools.combinations(range(n), 2))
        m = int(rng.integers(2, min(len(pairs), 12) + 1))
        idx = rng.choice(len(pairs), size=m, replace=False)
        g = build_graph(n, [pairs[i] for i in idx], 2)
        n_a = int(rng.integers(1, n))
        part = Bipartition(g.vertex_set(tuple(rng.choice(n, size=n_a, replace=False).tolist())))
        _, q = boundary_edges(g, part)
        engine = swapengine.evolve(g, part, UniformIID(g), 1).final
        worst = max(worst, abs(engine - rem.rem_purity(q, 2, 1)))
    c.check(f"max REM1 deviation {worst:.2e} <= 1e-12", worst <= 1e-12)
    g = complete_graph(4, 2)
    part = Bipartition(g.vertex_set((0, 1)))
    _, q = boundary_edges(g, part)
    stats = oracle.estimate_moments(g, UniformIID(g), part, 1, 3, 20000, seed=13)
    expect = rem.rem_alpha_purity(q, 2, 3)
    c.check(
        f"alpha=3: mc {stats.mean:.5f} within 3 stderr ({stats.stderr:.2g}) of {expect:.5f}",
        abs(stats.mean - expect) <= 3 * stats.stderr,
    )
    c.conclude()
