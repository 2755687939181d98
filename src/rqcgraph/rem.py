"""Random Edge Model: closed forms on general graphs and the K_N reduction.

On the complete graph the permutation symmetry collapses the 2^N swap basis
to N+1 size classes: the summed coefficient of the subsets of each size
evolves under one tridiagonal operator with rational entries (exact
lumping), which makes purity series, spectral-gap and mixing-time analysis
cheap.  That operator is similar to the paper's spin block.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, int_at_least
from .moments import nd_constant, second_moment_I, single_edge_alpha_moment
from .series import PuritySeries, lumped_purities


def _check_q(q: float) -> None:
    if not isinstance(q, numbers.Real) or not (0.0 <= q <= 1.0):
        raise ValidationError(f"boundary probability must be in [0,1], got {q!r}")


def rem_purity(q: float, d: int, k: int) -> float:
    """Mean purity (1 - q (1 - 2 N_d))^k under the boundary-stability approximation.

    Exact for k <= 1; for deeper circuits the swap engine is the ground truth.
    """
    _check_q(q)
    k = int_at_least(k, 0, "steps")
    return (1.0 - q * (1.0 - 2.0 * nd_constant(d))) ** k


def rem_alpha_purity(q: float, d: int, alpha: int) -> float:
    """Single-draw mean of Tr(rho_A^alpha): 1 + q (C(alpha, d) - 1)."""
    _check_q(q)
    return 1.0 + q * (single_edge_alpha_moment(alpha, d) - 1.0)


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
    """Boundary-stability estimate of -log2 E[Tr rho_A^2] in bits, and its small-q line.

    Returns (-k log2(1 - q (1 - 2 N_d)),  q k (1 - 2 N_d) log2 e): -log2 of
    rem_purity, whose approximation has every step meet the boundary with
    probability q.  It is exact at k <= 1, and for as long as every swap
    term keeps A's boundary count, but it is no bound: a term that reaches
    the empty set or V keeps its whole weight, so the estimate overshoots.
    On the 4-site chain with A = {0, 1} (q = 1/3, d = 2), evolve gives
    0.4654, 0.7687 and 1.0875 bits at k = 5, 10 and 100, and the estimate
    0.4977, 0.9954 and 9.9536; it grows without limit in k, while no
    entropy of A exceeds |A| log2 d.
    """
    _check_q(q)
    k = int_at_least(k, 0, "steps")
    nd = nd_constant(d)
    bound = -k * math.log2(1.0 - q * (1.0 - 2.0 * nd))
    linear = q * k * (1.0 - 2.0 * nd) * math.log2(math.e)
    return bound, linear


def _subsystem_size(n: int, n_a) -> int:
    """n_a as an int, if it is one in 0..n and n is an integer (numpy ints accepted)."""
    n = int_at_least(n, 0, "number of qudits n")
    n_a = int_at_least(n_a, 0, "subsystem size")
    if n_a > n:
        raise ValidationError(f"subsystem size {n_a} outside 0..{n}")
    return n_a


def size_class_operator(n: int, d: int) -> np.ndarray:
    """The (n+1)x(n+1) tridiagonal operator L of one uniform edge twirl on K_n.

    Entry [b, a] is the weight that the subsets of size a pass on to those of
    size b: a draw straddles the cut with probability p(a) = a(n-a)/|E|,
    |E| = n(n-1)/2, and then feeds a-1 and a+1 with N_d each, so
    L[a, a] = 1 - p(a) and L[a-1, a] = L[a+1, a] = N_d p(a).
    """
    n = int_at_least(n, 2, "complete graph size n")
    a = np.arange(n + 1, dtype=float)
    p = a * (n - a) / (n * (n - 1) // 2)
    lam = np.diag(1.0 - p)
    idx = np.arange(1, n)
    lam[idx - 1, idx] = lam[idx + 1, idx] = nd_constant(d) * p[1:n]
    return lam


def complete_graph_asymptote(n: int, n_a: int, d: int) -> float:
    """Fixed-point purity (d^(-n_a) + d^(n_a-n)) / (1 + d^(-n)).

    The purity of a Haar-random state of n qudits, which is the limit on every
    connected graph (cem.chain_asymptote is this function).  Negative powers
    keep it finite where d^(2n-n_a) would overflow.
    """
    n_a = _subsystem_size(n, n_a)
    df = float(int_at_least(d, 2, "local dimension"))
    return (df**-n_a + df ** (n_a - n)) / (1.0 + df**-n)


def complete_graph_purity(n: int, n_a: int, d: int, k: int) -> PuritySeries:
    """Mean purity series on K_n from the size-class operator.

    The uniform edge mixture commutes with vertex permutations, so the summed
    swap coefficient of the subsets of each size evolves on its own (exact
    lumping): P_k = sum_b (L^k e_{n_a})_b with L = size_class_operator(n, d).
    Rounding: lumped_purities' bound, e = 3 (N_d, p(a), their product; 1 - p(a)
    is within 2) and r = 3, so j = 6 k + n, and M <= 3 (n + 1) k.
    """
    n_a = _subsystem_size(n, n_a)
    k = int_at_least(k, 0, "steps")
    lam = size_class_operator(n, d)
    return PuritySeries(tuple(itertools.islice(lumped_purities(lam, n_a), k + 1)))


@dataclass(frozen=True)
class GapReport:
    delta: float
    norm_product: float  # inf past the float range
    log_norm_product: float
    eigenvalues: np.ndarray  # sorted descending


def spectral_analysis(n: int, d: int) -> GapReport:
    """Spectrum, gap and similarity-transform norms of the K_n reduction.

    L = size_class_operator(n, d) is W R W^-1 with W = diag(sqrt C(n, a)) and
    R the paper's spin block, so both have one spectrum, and a diagonal
    similarity leaves the couplings sqrt(L[a, a+1] L[a+1, a]) of the symmetric
    interior block unchanged.  The two fixed-point ends decouple (their
    outbound couplings vanish), so that interior block 1..n-1 is diagonalised;
    delta = 1 - lambda_3 where lambda_3 is its top eigenvalue.  s is the spin
    block's symmetriser, s[i+1]/s[i] = sqrt(a/(n-a-1)) at a = i+1, which keeps
    norm_product the paper's quantity.  The eigenvectors u of the symmetric
    block are orthonormal, so the similarity M = u^T diag(s) has the exact
    inverse diag(1/s) u, and norm_product = ||M||_inf ||M^-1||_inf =
    max_j (|u|^T s)_j * max_i (sum_j |u_ij|) / s_i needs neither M nor a
    matrix inverse.  s[a-1] = C(n-2, a-1)^(-1/2) falls to about 2^(-n/2) in
    the middle, so 1/s and norm_product leave the float range near n = 2044.
    s is held as frac 2^e (e integer, frac near 1), whose running product
    rounds as that of s does, and 1/s is scaled by 2^-shift, shift > 0 only
    past 2^960: log_norm_product, which k_min_bound and gap_scan read, is
    finite for every n, and norm_product keeps the bits of the plain float
    product until it reads inf.

    The block is exactly persymmetric (a <-> n - a), and its eigenvalues come
    in doublets, one even and one odd under the mirror, whose spacing falls
    below machine precision near n = 64; eigh of the whole block then returns
    an arbitrary rotation inside a doublet, and norm_product depends on it.
    So the even and odd sectors, in the basis (e_a +- e_(n-a)) / sqrt 2 with
    the middle a = n/2 even, are diagonalised separately.

    Accuracy of the eigenvalues: the interior block H is similar to a block
    of L, whose columns are nonnegative and sum to at most 1, so its spectral
    radius, which is ||H||_2 as H is symmetric, is at most 1.  eigh is
    backward stable: its eigenvalues are exact for a sector plus E with
    ||E||_2 <= p(m) u ||H||_2, m = n - 1, u = 2^-53 and p modest (LAPACK
    Users' Guide, sec. 4.7), and each entry of the sectors is within a few u
    of exact.  By Weyl's theorem every eigenvalue, and so delta (1 - lambda_3
    adds one rounding), is within c m u of exact, c a small constant, 4
    here.  At delta = 1.2/n that is a relative error of at most 3.4 n^2 u:
    2.4e-11 at n = 256 and 1.6e-9 at n = 2100, which k_min_bound inherits.
    Against 30-digit references the error is 0.02 m u at n = 64 and
    0.012 m u at n = 256 (d = 2).
    """
    h = size_class_operator(n, d)[1:n, 1:n]
    i = np.arange(n - 2)
    h[i, i + 1] = h[i + 1, i] = np.sqrt(h[i, i + 1] * h[i + 1, i])
    q = np.sqrt((i + 1) / (n - i - 2))  # s[i+1] / s[i]
    e = np.concatenate(([0], np.rint(np.cumsum(np.log2(q))).astype(int)))
    frac = np.concatenate(([1.0], np.cumprod(np.ldexp(q, e[:-1] - e[1:]))))  # s = frac 2^e
    m, half = n - 1, (n - 1) // 2
    even, odd = h[: m - half, : m - half].copy(), h[:half, :half].copy()
    if m % 2 and half:  # the middle couples to its neighbour pair
        even[half - 1, half] = even[half, half - 1] = np.sqrt(2.0) * h[half - 1, half]
    elif half:  # the two halves couple across the mirror
        even[-1, -1] += h[half - 1, half]
        odd[-1, -1] -= h[half - 1, half]
    eig_even, u_even = np.linalg.eigh(even)
    eig_odd, u_odd = np.linalg.eigh(odd)
    eig_int = np.concatenate((eig_even, eig_odd))
    eigs = np.sort(np.concatenate(([1.0, 1.0], eig_int)))[::-1]
    delta = 1.0 - float(np.max(eig_int))
    # |u| on rows a < n/2, the middle row (even sector only), then the mirror rows
    top = np.abs(np.hstack((u_even[:half], u_odd))) * np.sqrt(0.5)
    mid = np.abs(np.hstack((u_even[half:], np.zeros((m - 2 * half, half)))))
    abs_u = np.vstack((top, mid, top[::-1]))
    norm_m = np.max(abs_u.T @ np.ldexp(frac, e))  # an s that underflows weighs nothing next to s = 1
    shift = max(0, -int(e.min()) - 960)  # 2^-shift / s stays below 2^961
    scaled = norm_m * np.max(np.ldexp(abs_u.sum(axis=1) / frac, -e - shift))  # norm_product / 2^shift
    with np.errstate(over="ignore"):
        norm_product = float(np.ldexp(scaled, shift))
    return GapReport(delta, norm_product, math.log(scaled) + shift * math.log(2.0), eigs)


def _check_eps(eps: float) -> None:
    if not isinstance(eps, numbers.Real) or not eps > 0:  # also rejects nan
        raise ValidationError(f"accuracy must be a number > 0, got {eps!r}")


def k_min_bound(n: int, n_a: int, d: int, eps: float) -> int:
    """Iteration bound ceil((log C + log ||M|| ||M^-1|| + log 1/eps) / delta)."""
    n_a = _subsystem_size(n, n_a)
    _check_eps(eps)
    report = spectral_analysis(n, d)
    log_c = math.log(math.comb(n, n_a))
    val = (log_c + report.log_norm_product + math.log(1.0 / eps)) / report.delta
    return math.ceil(val)


def empirical_convergence_step(n: int, n_a: int, d: int, eps: float, k_max: int = 100000) -> int:
    """First k with |P_k - P_inf| <= eps, by direct iteration."""
    _check_eps(eps)
    k_max = int_at_least(k_max, 1, "k_max")
    target = complete_graph_asymptote(n, n_a, d)
    purities = itertools.islice(lumped_purities(size_class_operator(n, d), n_a), 1, k_max + 1)
    for k, p_k in enumerate(purities, start=1):
        if abs(p_k - target) <= eps:
            return k
    raise ValidationError(f"no convergence to {eps} within {k_max} iterations")


def fit_power_law(xs, ys, mode: str = "loglog") -> tuple[float, float]:
    """Least-squares slope/intercept of log y vs log x (or y vs x for semilog)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise ValidationError(f"fit needs two 1-D arrays of one length, got shapes {xs.shape}, {ys.shape}")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise ValidationError("fit data must be finite")
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
