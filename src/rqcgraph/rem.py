"""Random Edge Model: closed forms on general graphs and the K_N reduction.

On the complete graph the permutation symmetry collapses the 2^N swap basis
to an (N+1)-dimensional tridiagonal block indexed by the subsystem size,
which makes spectral-gap and mixing-time analysis cheap.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ValidationError
from .moments import nd_constant, second_moment_I, single_edge_alpha_moment
from .series import PuritySeries


def _check_q(q: float) -> None:
    if not (0.0 <= q <= 1.0):
        raise ValidationError(f"boundary probability must be in [0,1], got {q}")


def rem_purity(q: float, d: int, k: int) -> float:
    """Mean purity (1 - q (1 - 2 N_d))^k under the boundary-stability approximation.

    Exact for k <= 1; for deeper circuits the swap engine is the ground truth.
    """
    _check_q(q)
    if k < 0:
        raise ValidationError(f"steps must be >= 0, got {k}")
    return (1.0 - q * (1.0 - 2.0 * nd_constant(d))) ** k


def rem_alpha_purity(q: float, d: int, alpha: int) -> float:
    """Single-draw mean of Tr(rho_A^alpha): 1 + q (C(alpha, d) - 1)."""
    _check_q(q)
    return 1.0 + q * (single_edge_alpha_moment(alpha, d).value - 1.0)


def rem_variance(q: float, d: int, approx: bool = False) -> float:
    """Variance of the single-draw purity distribution.

    Exact: (1 - q + q I) - (1 - q + 2 q N_d)^2; for q << 1 the linearisation
    q (1 + I - 4 N_d).
    """
    _check_q(q)
    i2 = second_moment_I(d)
    nd = nd_constant(d)
    if approx:
        return q * (1.0 + i2 - 4.0 * nd)
    return (1.0 - q + q * i2) - (1.0 - q + 2.0 * q * nd) ** 2


def renyi2_bound(q: float, d: int, k: int) -> tuple[float, float]:
    """Lower bound on the mean 2-Renyi entropy in bits, and its small-q line.

    Returns (-k log2(1 - q (1 - 2 N_d)),  q k (1 - 2 N_d) log2 e).
    """
    _check_q(q)
    if k < 0:
        raise ValidationError(f"steps must be >= 0, got {k}")
    nd = nd_constant(d)
    bound = -k * math.log2(1.0 - q * (1.0 - 2.0 * nd))
    linear = q * k * (1.0 - 2.0 * nd) * math.log2(math.e)
    return bound, linear


@dataclass(frozen=True)
class SpinBlock:
    """Tridiagonal (N+1)x(N+1) restriction of the K_N superoperator.

    Index i corresponds to subsystem size N_A = i (spin projection m = i - N/2).
    matrix()[i, j] holds the amplitude feeding row i from column j.
    """

    n: int
    d: int
    diag: np.ndarray
    upper: np.ndarray  # R[i, i+1], i = 0..N-1
    lower: np.ndarray  # R[i+1, i], i = 0..N-1

    def matrix(self) -> np.ndarray:
        r = np.diag(self.diag)
        idx = np.arange(self.n)
        r[idx, idx + 1] = self.upper
        r[idx + 1, idx] = self.lower
        return r


def build_spin_block(n: int, d: int) -> SpinBlock:
    """Construct the maximal-spin block for K_n.

    Diagonal: f(a) = 1 - a(n-a)/|E| with |E| = n(n-1)/2 (probability of a
    non-straddling draw).  Couplings follow from the ladder operators,
    validated against the subset-basis engine:
      R[a-1, a] = (N_d/|E|) (n-a) sqrt(a (n-a+1))
      R[a+1, a] = (N_d/|E|) a (sqrt((n-a)(a+1))).
    """
    if n < 2:
        raise ValidationError(f"complete graph needs n >= 2, got {n}")
    n_edges = n * (n - 1) // 2
    pref = nd_constant(d) / n_edges
    a = np.arange(n + 1, dtype=float)
    diag = 1.0 - a * (n - a) / n_edges
    acol = np.arange(1, n + 1, dtype=float)  # column index for upper couplings
    upper = pref * (n - acol) * np.sqrt(acol * (n - acol + 1))
    acol = np.arange(0, n, dtype=float)  # column index for lower couplings
    lower = pref * acol * np.sqrt((n - acol) * (acol + 1))
    return SpinBlock(n, d, diag, upper, lower)


def complete_graph_asymptote(n: int, n_a: int, d: int) -> float:
    """Fixed-point purity (d^(2n-n_a) + d^(n+n_a)) / (d^n (d^n + 1)).

    The purity of a Haar-random state of n qudits, which is the limit on every
    connected graph (cem.chain_asymptote is this function).
    """
    if not (0 <= n_a <= n):
        raise ValidationError(f"subsystem size {n_a} outside 0..{n}")
    df = float(d)
    return (df ** (2 * n - n_a) + df ** (n + n_a)) / (df**n * (df**n + 1.0))


def _spin_block_purities(n: int, n_a: int, d: int) -> Iterator[float]:
    """P_0 = 1, P_1, P_2, ... on K_n; see complete_graph_purity."""
    r = build_spin_block(n, d).matrix()
    weights = np.sqrt([math.comb(n, i) for i in range(n + 1)])
    norm = 1.0 / math.sqrt(math.comb(n, n_a))
    v = np.zeros(n + 1)
    v[n_a] = 1.0
    yield 1.0
    while True:
        v = r @ v
        yield norm * float(weights @ v)


def complete_graph_purity(n: int, n_a: int, d: int, k: int) -> PuritySeries:
    """Mean purity series on K_n from the (n+1)-dimensional spin block.

    P_k = C(n, n_a) sum_i sqrt(binom(n, i)) (R^k e_{n_a})_i with
    C(n, n_a) = 1/sqrt(binom(n, n_a)).
    """
    if not (0 <= n_a <= n):
        raise ValidationError(f"subsystem size {n_a} outside 0..{n}")
    if k < 0:
        raise ValidationError(f"steps must be >= 0, got {k}")
    values = tuple(itertools.islice(_spin_block_purities(n, n_a, d), k + 1))
    meta = {"model": "rem-complete", "n": n, "n_a": n_a, "d": d}
    return PuritySeries(values, meta)


@dataclass(frozen=True)
class GapReport:
    n: int
    delta: float
    norm_product: float
    eigenvalues: np.ndarray  # sorted descending


def spectral_analysis(n: int, d: int) -> GapReport:
    """Spectrum, gap and similarity-transform norms of the spin block.

    The two fixed-point ends decouple (their outbound couplings vanish), so the
    interior block 1..n-1 is symmetrised by a diagonal similarity and
    diagonalised; delta = 1 - lambda_3 where lambda_3 is its top eigenvalue.
    """
    block = build_spin_block(n, d)
    # interior couplings: R[i, i+1] and R[i+1, i] for i = 1..n-2
    up = block.upper[1 : n - 1]
    lo = block.lower[1 : n - 1]
    prod = up * lo
    if np.any(prod < 0):
        raise ValidationError("negative off-diagonal product; cannot symmetrise")
    size = n - 1
    if size == 1:
        eig_int = np.array([block.diag[1]])
        m = np.array([[1.0]])
    else:
        # diagonal scaling s with s[i+1]/s[i] = sqrt(lower/upper)
        ratios = np.sqrt(lo / up)
        s = np.concatenate(([1.0], np.cumprod(ratios)))
        h = np.diag(block.diag[1:n])
        idx = np.arange(size - 1)
        sym = np.sqrt(prod)
        h[idx, idx + 1] = sym
        h[idx + 1, idx] = sym
        eig_int, u = np.linalg.eigh(h)
        m = u.T @ np.diag(s)
    eigs = np.sort(np.concatenate(([1.0, 1.0], eig_int)))[::-1]
    delta = 1.0 - float(np.max(eig_int))
    norm_m = np.linalg.norm(m, np.inf)
    norm_minv = np.linalg.norm(np.linalg.inv(m), np.inf)
    return GapReport(n, delta, float(norm_m * norm_minv), eigs)


def k_min_bound(n: int, n_a: int, d: int, eps: float) -> int:
    """Iteration bound ceil((log C + log ||M|| ||M^-1|| + log 1/eps) / delta)."""
    if eps <= 0:
        raise ValidationError(f"accuracy must be > 0, got {eps}")
    report = spectral_analysis(n, d)
    log_c = math.log(math.comb(n, n_a))
    val = (log_c + math.log(report.norm_product) + math.log(1.0 / eps)) / report.delta
    return math.ceil(val)


def empirical_convergence_step(n: int, n_a: int, d: int, eps: float, k_max: int = 100000) -> int:
    """First k with |P_k - P_inf| <= eps, by direct iteration."""
    if eps <= 0:
        raise ValidationError(f"accuracy must be > 0, got {eps}")
    target = complete_graph_asymptote(n, n_a, d)
    purities = itertools.islice(_spin_block_purities(n, n_a, d), 1, k_max + 1)
    for k, p_k in enumerate(purities, start=1):
        if abs(p_k - target) <= eps:
            return k
    raise ValidationError(f"no convergence to {eps} within {k_max} iterations")


def fit_power_law(xs, ys, mode: str = "loglog") -> tuple[float, float]:
    """Least-squares slope/intercept of log y vs log x (or y vs x for semilog)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 3:
        raise ValidationError("need at least 3 points to fit")
    if mode == "loglog":
        if np.any(xs <= 0) or np.any(ys <= 0):
            raise ValidationError("log-log fit requires positive data")
        xv, yv = np.log(xs), np.log(ys)
    elif mode == "semilog":
        xv, yv = xs, ys
    else:
        raise ValidationError(f"unknown fit mode {mode!r}")
    if np.ptp(xv) == 0:
        raise ValidationError("degenerate fit: constant abscissa")
    slope, intercept = np.polyfit(xv, yv, 1)
    return float(slope), float(intercept)


def fit_window(ns) -> np.ndarray:
    """Mask of the top octave n_max/2 <= n <= n_max of a size grid.

    The 1/n law of the gap is asymptotic: n * delta rises towards its limit
    2 sqrt(1 - 4 N_d^2) (6/5 for d = 2) with a ~1/n correction, from 0.94 at
    n = 8 to 1.17 at n = 32.  A fit that reaches down to n = 8 reads that
    drift as part of the exponent.
    """
    ns = np.asarray(ns)
    return 2 * ns >= ns.max()


def gap_exponent(ns, deltas) -> float:
    """Log-log slope of the gap over fit_window(ns)."""
    top = fit_window(ns)
    slope, _ = fit_power_law(np.asarray(ns)[top], np.asarray(deltas)[top], mode="loglog")
    return slope
