"""The four benchmark workloads and the checks that gate their outputs.

Problem sizes are fixed.  The seed picks vertex labels, partitions, edge
sequences and Monte Carlo streams, never the amount of work, so two seeds
make the same number of calls into every layer.

Each workload is built from the package's modules (passed in, so the caller
controls which import is used), then run one pass at a time.  A pass calls
the package only through module attributes, so a traced pass sees every call.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import shutil
from dataclasses import dataclass
from time import perf_counter

import numpy as np

OUT_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".bench_out")

# Per-layer metrics a workload derives from its untraced timings; 0 elsewhere.
DERIVED = ("oracle.fixed_samples_per_s", "oracle.iid_samples_per_s", "cli.quick_s")


@dataclass(frozen=True)
class Check:
    """One checked operation: an output compared with an independent reference."""

    name: str
    ok: bool
    detail: str


def check_series(name: str, measured, reference, tol: float) -> Check:
    """Every entry of measured within tol of reference."""
    m = np.asarray(measured, dtype=float)
    r = np.asarray(reference, dtype=float)
    if m.shape != r.shape:
        return Check(name, False, f"length {m.size} != reference length {r.size}")
    dev = float(np.max(np.abs(m - r)))
    return Check(name, dev <= tol, f"max deviation {dev:.3g} (tol {tol:g})")


def check_mc(name: str, mean: float, stderr: float, exact: float) -> Check:
    """Monte Carlo mean within 5 standard errors (plus rounding) of the exact value."""
    dev = abs(mean - exact)
    ok = dev <= 5 * stderr + 1e-12
    return Check(name, ok, f"|{mean:.6g} - {exact:.6g}| = {dev:.3g}, stderr {stderr:.3g}")


# The one report line whose verdict depends on the seed: the oracle's own
# 3-stderr test of its single-edge mean against the exact 2 N_2 = 0.8.  About
# one seed in 300 fails it by chance (seed 166 of 0..299, at -3.4 stderr), so
# its verdict cannot be a constant.  It must agree with the mean and stderr the
# line reports (up to their printed rounding), and that mean must be within the
# 5 stderr gate used for the oracle-mc workload.
MC_LINE = "oracle single-edge mean within 3 stderr"
_MC_NUMBERS = re.compile(r"\(mean=(\S+) stderr=(\S+)\)$")
_MC_EXACT, _MC_ROUNDING = 0.8, 3e-5


def _mc_line_ok(line: str) -> bool:
    found = _MC_NUMBERS.search(line)
    if not line.startswith(("PASS  " + MC_LINE, "FAIL  " + MC_LINE)) or not found:
        return False
    mean, stderr = float(found[1]), float(found[2])
    margin = abs(mean - _MC_EXACT) - 3 * stderr
    verdict_fits = abs(margin) <= _MC_ROUNDING or line.startswith("PASS") == (margin < 0)
    return verdict_fits and check_mc(MC_LINE, mean, stderr, _MC_EXACT).ok


def check_verdicts(name: str, lines: list[str], expected: tuple[tuple[str, str], ...]) -> list[Check]:
    """One check per expected report line: same position, same name, same verdict."""
    checks = []
    for i, (verdict, check_name) in enumerate(expected):
        line = lines[i] if i < len(lines) else ""
        head = f"{verdict}  {check_name}"
        if check_name == MC_LINE:
            ok = _mc_line_ok(line)
        else:
            ok = line == head or line.startswith(head + ":") or line.startswith(head + " (")
        checks.append(Check(f"{name}: {check_name}", ok, line or "missing line"))
    for line in lines[len(expected):]:
        checks.append(Check(f"{name}: unexpected line", False, line))
    return checks


def _relabelled(rng: np.random.Generator, n: int) -> list[int]:
    return [int(i) for i in rng.permutation(n)]


class EngineDense:
    """swapengine.evolve, UniformIID expectation on K_12, N_A = 6, k = 20.

    Every step pushes all 2^12 subsets through 66 edge twirls, so
    apply_mixture does nearly all the work: the dense case of the exact engine.
    """

    N, N_A, K, D = 12, 6, 20, 2
    TOL = 1e-10  # acceptance criterion 4's bound

    def __init__(self, rq, seed: int):
        self.rq = rq
        rng = np.random.default_rng(seed)
        label = _relabelled(rng, self.N)
        pairs = [(label[i], label[j]) for i in range(self.N) for j in range(i + 1, self.N)]
        order = rng.permutation(len(pairs))
        self.g = rq.graphs.build_graph(self.N, [pairs[i] for i in order], self.D)
        self.part = rq.graphs.Bipartition(self.g.vertex_set(label[: self.N_A]))
        self.proc = rq.graphs.UniformIID(self.g)
        self.reference = rq.rem.complete_graph_purity(self.N, self.N_A, self.D, self.K).values

    def warm_up(self) -> None:
        self.rq.swapengine.evolve(self.g, self.part, self.proc, 1)

    def run(self, clock=perf_counter) -> tuple[dict[str, float], list[Check]]:
        t0 = clock()
        series = self.rq.swapengine.evolve(self.g, self.part, self.proc, self.K)
        wall = clock() - t0
        check = check_series("K_12 engine vs spin block", series.values, self.reference, self.TOL)
        return {"wall_s": wall}, [check]


class EngineSparse:
    """swapengine.evolve on a 48-site chain, L_A = 24, 16 worst-order cycles.

    The vector never holds more than 32 terms and a dense 2^48 basis cannot
    reach this size; the O(k^2) prefix reruns make 283,128 apply_edge calls.
    The chain's vertex labels are a seeded permutation of 0..47.
    """

    L, L_A, CYCLES, D = 48, 24, 16, 2
    TOL = 1e-12

    def __init__(self, rq, seed: int):
        self.rq = rq
        gr = rq.graphs
        rng = np.random.default_rng(seed)
        label = _relabelled(rng, self.L)
        chain = gr.chain_graph(self.L, self.D)
        order = rng.permutation(chain.n_edges)
        edges = [tuple(label[i] for i in chain.edges[j]) for j in order]
        self.g = gr.build_graph(self.L, edges, self.D)
        self.part = gr.Bipartition(self.g.vertex_set(label[: self.L_A]))
        cycle = tuple(
            gr.VertexSet.from_indices((label[v], label[v + 1]), self.L)
            for v in gr.cem_position_sequence(self.L_A, self.L - self.L_A, "worst")
        )
        self.cycle_len = len(cycle)
        self.proc = gr.FixedSequence(self.g, cycle)
        self.k = self.CYCLES * self.cycle_len
        self.reference = rq.cem.chain_purity_series(
            self.L, self.L_A, self.D, "worst", self.CYCLES
        ).values

    def warm_up(self) -> None:
        self.rq.swapengine.evolve(self.g, self.part, self.proc, self.cycle_len)

    def run(self, clock=perf_counter) -> tuple[dict[str, float], list[Check]]:
        t0 = clock()
        series = self.rq.swapengine.evolve(self.g, self.part, self.proc, self.k)
        wall = clock() - t0
        at_cycles = series.values[:: self.cycle_len]
        check = check_series("chain engine vs transfer operator", at_cycles, self.reference, self.TOL)
        return {"wall_s": wall}, [check]


class OracleMC:
    """oracle.estimate_moments on K_5, |A| = 2, depth 6: both sample paths.

    16 fixed-sequence tasks (1024 samples each) take the batched path; one
    UniformIID task (2048 samples) takes the per-sample path.  Checked at
    5 standard errors against the exact engine, since 17 checks per pass over
    many runs would fail by chance at 3.
    """

    N, A, DEPTH, D, ALPHA = 5, 2, 6, 2, 2
    FIXED_TASKS, FIXED_SAMPLES, IID_SAMPLES = 16, 1024, 2048

    def __init__(self, rq, seed: int):
        self.rq = rq
        gr = rq.graphs
        rng = np.random.default_rng(seed)
        self.g = gr.complete_graph(self.N, self.D)
        self.fixed = []
        for _ in range(self.FIXED_TASKS):
            seq = tuple(self.g.edges[int(i)] for i in rng.permutation(self.g.n_edges)[: self.DEPTH])
            self.fixed.append(self._task(gr.FixedSequence(self.g, seq), rng))
        self.iid = self._task(gr.UniformIID(self.g), rng)

    def _task(self, proc, rng: np.random.Generator):
        part = self.rq.graphs.Bipartition(
            self.g.vertex_set(int(i) for i in rng.choice(self.N, self.A, replace=False))
        )
        exact = self.rq.swapengine.evolve(self.g, part, proc, self.DEPTH).final
        return proc, part, int(rng.integers(2**31)), exact

    def _estimate(self, task, samples: int):
        proc, part, mc_seed, exact = task
        stats = self.rq.oracle.estimate_moments(
            self.g, proc, part, self.DEPTH, self.ALPHA, samples, mc_seed, workers=1
        )
        return stats, exact

    def warm_up(self) -> None:
        self._estimate(self.fixed[0], 16)
        self._estimate(self.iid, 16)

    def run(self, clock=perf_counter) -> tuple[dict[str, float], list[Check]]:
        checks = []
        fixed_s = 0.0
        for i, task in enumerate(self.fixed):
            t0 = clock()
            stats, exact = self._estimate(task, self.FIXED_SAMPLES)
            fixed_s += clock() - t0
            checks.append(check_mc(f"fixed task {i}", stats.mean, stats.stderr, exact))
        t0 = clock()
        stats, exact = self._estimate(self.iid, self.IID_SAMPLES)
        iid_s = clock() - t0
        checks.append(check_mc("iid task", stats.mean, stats.stderr, exact))
        timings = {"wall_s": fixed_s + iid_s, "fixed_s": fixed_s, "iid_s": iid_s}
        return timings, checks

    def derived(self, median: dict[str, float]) -> dict[str, float]:
        return {
            "oracle.fixed_samples_per_s": self.FIXED_TASKS * self.FIXED_SAMPLES / median["fixed_s"],
            "oracle.iid_samples_per_s": self.IID_SAMPLES / median["iid_s"],
        }


# Report lines of `reproduce-all` at the commit that introduced this benchmark.
# "gap scaling slope" is the known criterion-6 failure; it is expected, not dropped.
_COMMON_HEAD = (
    ("PASS", "single-edge mean 2N_d (d=2)"),
    ("PASS", "single-edge variance (d=2)"),
    ("PASS", "second moment I (d=2)"),
    *(("PASS", f"C(2,d)=2N_d (d={d})") for d in range(2, 7)),
    ("PASS", "oracle single-edge mean within 3 stderr"),
    ("PASS", "oracle single-edge variance"),
    ("PASS", "K_10 n_a=5 converges to asymptote"),
    ("PASS", "gap at n=16 vs 1.025/16"),
)
_FULL_ONLY_GAP = (
    ("FAIL", "gap scaling slope"),
    ("PASS", "norm-product slope"),
    ("PASS", "k_min bound O(n^2) slope"),
    ("PASS", "k_min bound >= empirical convergence step (n <= 32)"),
)
_CHAIN = (
    ("PASS", "chain worst n_c=1"),
    ("PASS", "chain worst closed form n_c=8"),
    ("PASS", "chain L=4 asymptote"),
    ("PASS", "best/worst within 1% by n_c = 3L"),
    ("PASS", "chain lambda2 saturation"),
    ("PASS", "chain unit eigenvalue multiplicity 2"),
)
_GRID = (
    ("PASS", "grid purity l=2"),
    ("PASS", "grid variance l=1"),
    ("PASS", "grid ordering boundary-first"),
    ("PASS", "grid ordering internal-first"),
)
EXPECTED_FULL = (
    _COMMON_HEAD + _FULL_ONLY_GAP + _CHAIN
    + (("PASS", "best/worst chain spectra identical (exact)"),) + _GRID
)
EXPECTED_QUICK = _COMMON_HEAD + _CHAIN + _GRID
EXIT_CHECK_FAILED = 4  # cli exit code when any report line is FAIL, else 0


def check_exit(name: str, code: int, lines: list[str]) -> Check:
    """The exit code follows the report: 4 if any line is FAIL, else 0."""
    want = EXIT_CHECK_FAILED if any(ln.startswith("FAIL") for ln in lines) else 0
    return Check(f"{name} exit code", code == want, f"exit {code}, report implies {want}")


def read_report(path: str) -> list[str]:
    """Verdict lines of a report.txt (the trailing summary line is dropped)."""
    with open(path) as fh:
        return [ln for ln in fh.read().splitlines() if ln.startswith(("PASS  ", "FAIL  "))]


class Reproduce:
    """cli.reproduce_all, full then --quick, into a scratch directory.

    The user-facing "rebuild the paper" command and the only workload that
    runs cem (chain_spectra_equal dominates the full run) and rem.
    """

    def __init__(self, rq, seed: int, workdir: str = os.path.join(OUT_DIR, "reproduce")):
        self.rq = rq
        self.seed = seed
        self.workdir = workdir

    def _reproduce(self, quick: bool, clock=perf_counter) -> tuple[float, int, list[str]]:
        outdir = os.path.join(self.workdir, "quick" if quick else "full")
        shutil.rmtree(outdir, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = clock()
            code = self.rq.cli.reproduce_all(outdir, quick=quick, seed=self.seed)
            elapsed = clock() - t0
        return elapsed, code, read_report(os.path.join(outdir, "report.txt"))

    def warm_up(self) -> None:
        self._reproduce(quick=True)

    def run(self, clock=perf_counter) -> tuple[dict[str, float], list[Check]]:
        full_s, full_code, full_lines = self._reproduce(False, clock)
        quick_s, quick_code, quick_lines = self._reproduce(True, clock)
        checks = check_verdicts("full", full_lines, EXPECTED_FULL)
        checks += check_verdicts("quick", quick_lines, EXPECTED_QUICK)
        checks.append(check_exit("full", full_code, full_lines))
        checks.append(check_exit("quick", quick_code, quick_lines))
        return {"wall_s": full_s, "quick_s": quick_s}, checks

    def derived(self, median: dict[str, float]) -> dict[str, float]:
        return {"cli.quick_s": median["quick_s"]}


WORKLOADS = {
    "engine-dense": EngineDense,
    "engine-sparse": EngineSparse,
    "oracle-mc": OracleMC,
    "reproduce": Reproduce,
}
