import math
import re
from fractions import Fraction

import numpy as np
import pytest

from rqcgraph.errors import ValidationError
from rqcgraph.moments import nd_constant, nd_fraction
from rqcgraph.graphs import Bipartition, UniformIID, boundary_edges, chain_graph, complete_graph
from rqcgraph.rem import (
    complete_graph_asymptote,
    complete_graph_purity,
    empirical_convergence_step,
    fit_power_law,
    k_min_bound,
    rem_alpha_purity,
    rem_purity,
    rem_variance,
    renyi2_bound,
    size_class_operator,
    spectral_analysis,
)
from rqcgraph.swapengine import evolve


def test_rem_purity_values():
    assert rem_purity(0.5, 2, 1) == pytest.approx(0.9, abs=1e-15)
    assert rem_purity(1.0, 2, 1) == pytest.approx(0.8, abs=1e-15)
    assert rem_purity(0.3, 2, 4) == pytest.approx((1 - 0.3 * 0.2) ** 4, abs=1e-15)
    with pytest.raises(ValidationError):
        rem_purity(1.5, 2, 1)
    with pytest.raises(ValidationError):
        rem_purity(0.5, 2, -1)


def test_step_counts_must_be_integers():
    for k in (-1, 2.0):
        for call in (
            lambda: rem_purity(0.5, 2, k),
            lambda: renyi2_bound(0.5, 2, k),
            lambda: complete_graph_purity(6, 3, 2, k),
        ):
            with pytest.raises(ValidationError, match="steps"):
                call()


@pytest.mark.parametrize("call", [
    lambda: complete_graph_asymptote("10", 3, 2),
    lambda: complete_graph_purity(None, 3, 2, 4),
    lambda: k_min_bound(8, 4, 2, "0.1"),
    lambda: empirical_convergence_step(8, 4, 2, "0.1"),
    lambda: rem_purity("0.5", 2, 1),
], ids=["asymptote-string-n", "purity-none-n", "k-min-string-eps", "empirical-string-eps",
        "rem-purity-string-q"])
def test_types_are_checked_before_values(call):
    with pytest.raises(ValidationError):
        call()


def test_rem_alpha_purity():
    assert rem_alpha_purity(0.5, 2, 3) == pytest.approx(1 + 0.5 * (0.7 - 1), abs=1e-15)
    assert rem_alpha_purity(0.0, 2, 4) == pytest.approx(1.0, abs=1e-15)


def test_rem_variance_forms():
    # exact vs linearisation agree to O(q^2)
    for q in (1e-3, 1e-4):
        exact = rem_variance(q, 2, approx=False)
        lin = rem_variance(q, 2, approx=True)
        assert abs(exact - lin) < 5 * q * q
    assert rem_variance(1.0, 2, approx=False) == pytest.approx(23 / 35 - 0.64, abs=1e-14)


def test_renyi2_bound():
    bound, linear = renyi2_bound(0.5, 2, 3)
    assert bound == pytest.approx(-3 * math.log2(0.9), abs=1e-14)
    assert linear == pytest.approx(0.5 * 3 * 0.2 * math.log2(math.e), abs=1e-14)
    assert bound > linear  # concavity of log


def test_renyi2_estimate_overshoots_evolve_from_k_3():
    # the boundary-stability estimate is -log2 of the mean purity while every
    # swap term keeps A's one boundary edge; on the 4-site chain a term
    # reaches the empty set at step 3, keeps its weight, and the estimate
    # exceeds the truth from there on, past the 2 bits that A can hold
    g = chain_graph(4)
    exact = evolve(g, Bipartition(g.vertex_set((0, 1))), UniformIID(g), 100).values
    for k, purity in enumerate(exact):
        estimate = renyi2_bound(1 / 3, 2, k)[0]
        if k <= 2:
            assert estimate == pytest.approx(-math.log2(purity), rel=1e-14, abs=1e-15)
        else:
            assert estimate > -math.log2(purity)
    assert [round(-math.log2(exact[k]), 4) for k in (5, 10, 100)] == [0.4654, 0.7687, 1.0875]
    assert renyi2_bound(1 / 3, 2, 100)[0] > 2 > -math.log2(exact[100])


def test_size_class_operator_structure():
    lam = size_class_operator(6, 2)
    assert lam.shape == (7, 7)
    # ends are fixed points with no outflow
    assert lam[0, 0] == 1.0 and lam[6, 6] == 1.0
    assert lam[1, 0] == 0.0 and lam[5, 6] == 0.0
    # all entries nonnegative, tridiagonal, and each column keeps 1 - p (1 - 2 N_d)
    assert np.all(lam >= 0)
    assert np.array_equal(lam, np.triu(np.tril(lam, 1), -1))
    p = np.array([a * (6 - a) / 15 for a in range(7)])
    assert np.allclose(lam.sum(axis=0), 1 - p * (1 - 2 * nd_constant(2)), atol=1e-15)
    with pytest.raises(ValidationError):
        size_class_operator(1, 2)


def _fraction_purities(n: int, n_a: int, d: int, k: int) -> list[Fraction]:
    """P_0..P_k on K_n from the size-class operator in exact arithmetic."""
    nd, n_edges = nd_fraction(d), Fraction(n * (n - 1), 2)
    g = [Fraction(int(a == n_a)) for a in range(n + 1)]
    out = [sum(g)]
    for _ in range(k):
        # flow[a + 1] = p(a) g(a), padded by a zero at each end
        flow = [0] + [a * (n - a) / n_edges * ga for a, ga in enumerate(g)] + [0]
        g = [g[b] - flow[b + 1] + nd * (flow[b] + flow[b + 2]) for b in range(n + 1)]
        out.append(sum(g))
    return out


def test_purity_matches_exact_fractions():
    for n, n_a, d, k in ((12, 6, 2, 20), (9, 4, 3, 20)):
        exact = _fraction_purities(n, n_a, d, k)
        got = complete_graph_purity(n, n_a, d, k).values
        assert all(abs(v - float(x)) <= 2e-15 * float(x) for v, x in zip(got, exact))


def test_purity_within_its_stated_rounding_bound():
    # complete_graph_purity's docstring: |P_k - exact| <= gamma_j exact,
    # j = 6 k + n, gamma_j = j / (2^53 - j); nothing underflows here
    for d in (2, 3):
        for n in range(2, 13):
            for n_a in range(n + 1):
                got = complete_graph_purity(n, n_a, d, 40).values
                for k, (v, x) in enumerate(zip(got, _fraction_purities(n, n_a, d, 40))):
                    j = 6 * k + n
                    assert abs(Fraction(v) - x) <= Fraction(j, 2**53 - j) * x, (d, n, n_a, k)


def test_spin_block_matches_subset_engine():
    # criterion-4 style check at every split of K_6, and one long K_10 run
    # whose swap terms fall below 1e-15: the subset engine keeps them all
    for n, splits, k in ((6, range(1, 6), 12), (10, (5,), 400)):
        g = complete_graph(n)
        for n_a in splits:
            part = Bipartition(g.vertex_set(tuple(range(n_a))))
            subset = evolve(g, part, UniformIID(g), k)
            spin = complete_graph_purity(n, n_a, 2, k)
            assert subset.values == pytest.approx(spin.values, rel=1e-13, abs=0)


def test_complete_graph_k1_equals_rem1():
    g = complete_graph(7)
    for n_a in (1, 3):
        part = Bipartition(g.vertex_set(tuple(range(n_a))))
        _, q = boundary_edges(g, part)
        assert q == n_a * (7 - n_a) / 21
    # past K_7 the boundary fraction is n_a (n - n_a) / |E|, with no graph built
    for n in (7, 68, 128, 256):
        for n_a in (1, 3, n // 2):
            q = n_a * (n - n_a) / (n * (n - 1) // 2)
            spin = complete_graph_purity(n, n_a, 2, 1)
            assert spin[1] == pytest.approx(rem_purity(q, 2, 1), abs=1e-13)


def test_asymptote_values():
    assert complete_graph_asymptote(10, 5, 2) == pytest.approx(0.06243902439024390, abs=1e-15)
    # pure-state limits
    assert complete_graph_asymptote(6, 0, 2) == pytest.approx(1.0, abs=1e-15)
    assert complete_graph_asymptote(6, 6, 2) == pytest.approx(1.0, abs=1e-15)


def test_asymptote_matches_exact_fraction():
    # (d^(2n-n_a) + d^(n+n_a)) / (d^n (d^n + 1)), exactly; at (700, 350) the
    # float form of this quotient overflows
    ns = (1, 2, 7, 20, 63, 199)
    cases = [(n, n_a, d) for d in (2, 3, 5) for n in ns for n_a in range(0, n + 1, max(1, n // 6))]
    cases += [(700, 350, 2), (700, 1, 2), (700, 350, 3), (1500, 700, 2)]
    for n, n_a, d in cases:
        exact = Fraction(d ** (2 * n - n_a) + d ** (n + n_a), d**n * (d**n + 1))
        got = complete_graph_asymptote(n, n_a, d)
        assert abs(got - float(exact)) <= 1e-15 * float(exact), (n, n_a, d)


def test_sizes_and_dimension_must_be_integers():
    for call in (
        lambda: complete_graph_purity(6.0, 3, 2, 3),
        lambda: complete_graph_purity(6, 3.0, 2, 3),
        lambda: complete_graph_purity(6, 3, 2.0, 3),
        lambda: spectral_analysis(8.0, 2),
        lambda: complete_graph_asymptote(10, 5.5, 2),
        lambda: complete_graph_asymptote(10, 5, 1),
        lambda: complete_graph_asymptote(10, 5, 2.0),
        lambda: rem_purity(0.5, 2.0, 1),
        lambda: rem_variance(0.5, 2.0),
        lambda: rem_alpha_purity(0.5, 2.0, 3),
        lambda: empirical_convergence_step(8, 4, 2, 1e-3, k_max=2.5),
        lambda: complete_graph_asymptote(10, "3", 2),
        lambda: complete_graph_asymptote(10, None, 2),
        lambda: empirical_convergence_step(64, 32, 2, 1e-12, k_max=10),  # no convergence
    ):
        with pytest.raises(ValidationError):
            call()
    # a nan or infinite accuracy is rejected up front, before any step is taken
    for call in (k_min_bound, empirical_convergence_step):
        for eps in (float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="accuracy"):
                call(8, 4, 2, eps)


def test_k_min_bound_at_the_smallest_accuracies():
    # 1 / eps overflows for a subnormal eps; the bound takes -log(eps), so it
    # stays finite and keeps growing as eps shrinks
    assert k_min_bound(8, 4, 2, 1e-300) == 5935
    for eps in (1e-320, 5e-324):
        assert 5935 <= k_min_bound(8, 4, 2, eps) < math.inf


def test_spectral_analysis_gap_values():
    # pinned against two independent computations: dense eigendecomposition of
    # the full tridiagonal block, and the empirical decay rate of the purity
    # series (both reproduce these digits)
    assert spectral_analysis(8, 2).delta == pytest.approx(0.11756238524032991, abs=1e-12)
    assert spectral_analysis(16, 2).delta == pytest.approx(0.07044163120316405, abs=1e-12)


def test_gap_matches_dense_eigenvalues():
    # the size-class operator is similar to the spin block: one spectrum
    for n in (2, 5, 9, 14):
        eigs = np.sort(np.linalg.eigvals(size_class_operator(n, 2)).real)[::-1]
        report = spectral_analysis(n, 2)
        assert eigs[0] == pytest.approx(1.0, abs=1e-10)
        assert eigs[1] == pytest.approx(1.0, abs=1e-10)
        assert report.delta == pytest.approx(1.0 - eigs[2], abs=1e-10)
        assert np.allclose(np.sort(report.eigenvalues), eigs[::-1], atol=1e-9)


def test_gap_matches_empirical_decay_rate():
    # |P_k - P_inf| ~ (1 - delta)^k; extract the rate from late iterates
    n, n_a = 8, 4
    series = complete_graph_purity(n, n_a, 2, 300)
    target = complete_graph_asymptote(n, n_a, 2)
    resid = np.abs(np.array(series.values) - target)
    rate = (resid[180] / resid[120]) ** (1 / 60)
    # the window keeps the lambda_4 contamination and float noise both small;
    # 1e-4 still cleanly separates 0.1176 from the ~0.136 a 1/n law would give
    assert 1.0 - rate == pytest.approx(spectral_analysis(n, 2).delta, abs=1e-4)


def test_scaled_gap_tends_to_su11_limit():
    # Near a = 1 the interior block, scaled by n, tends to 2 (K_0 - 2 N_d K_1)
    # on the k = 1 discrete series of su(1,1): diagonal 2a and couplings
    # -2 N_d sqrt(a (a + 1)), a = 1, 2, ...  Its lowest eigenvalue is
    # 2 sqrt(1 - 4 N_d^2), so n * delta -> 6/5 (d = 2) and 8/5 (d = 3), and
    # the gap exponent is exactly -1.
    a = np.arange(1, 200, dtype=float)
    for d, limit in ((2, 6 / 5), (3, 8 / 5)):
        nd = nd_constant(d)
        assert 2 * math.sqrt(1 - 4 * nd * nd) == pytest.approx(limit, abs=1e-15)
        op = np.diag(2 * a) - np.diag(2 * nd * np.sqrt(a[:-1] * a[1:]), 1)
        assert np.linalg.eigvalsh(op, UPLO="U")[0] == pytest.approx(limit, abs=1e-12)
        ns = np.arange(8, 257, 8)
        resid = limit - ns * np.array([spectral_analysis(int(n), d).delta for n in ns])
        # approached from below, with a deficit that shrinks at least like 1/n
        assert np.all(resid > 0)
        assert np.all(np.diff(ns * resid) <= 0)


def test_k_min_bound_dominates_empirical():
    for n in (8, 16, 24):
        kb = k_min_bound(n, n // 2, 2, 1e-3)
        ke = empirical_convergence_step(n, n // 2, 2, 1e-3)
        assert kb >= ke
    with pytest.raises(ValidationError):
        k_min_bound(8, 4, 2, 0.0)
    for n_a, match in ((9, "subsystem size 9 outside 0..8"),
                       (-1, "subsystem size must be an integer >= 0, got -1")):
        with pytest.raises(ValidationError, match=re.escape(match)):
            k_min_bound(8, n_a, 2, 1e-3)


def _explicit_norm_product(n: int, d: int) -> tuple[float, float]:
    """The gap and ||M|| ||M^-1|| of the spin block, with M = u^T diag(s) built and inverted.

    s symmetrises the spin block R = W^-1 L W, W = diag(sqrt C(n, a)); h is the
    symmetrised interior of L, which a diagonal similarity leaves unchanged.
    u diagonalises h one mirror-parity block at a time, in the explicit basis
    (e_a +- e_(n-a)) / sqrt 2 and e_(n/2), so that no doublet is mixed.
    """
    lam = size_class_operator(n, d)
    w = np.sqrt([float(math.comb(n, a)) for a in range(n + 1)])
    spin = lam * w[np.newaxis, :] / w[:, np.newaxis]
    a = np.arange(1, n - 1)
    s = np.concatenate(([1.0], np.cumprod(np.sqrt(spin[a + 1, a] / spin[a, a + 1]))))
    sym = np.sqrt(lam[a, a + 1] * lam[a + 1, a])
    h = np.diag(np.diag(lam)[1:n]) + np.diag(sym, 1) + np.diag(sym, -1)
    eye, half = np.eye(n - 1), (n - 1) // 2
    pairs = [(eye[i], eye[n - 2 - i]) for i in range(half)]
    even = [(x + y) / math.sqrt(2) for x, y in pairs] + list(eye[half : n - 1 - half])
    odd = [(x - y) / math.sqrt(2) for x, y in pairs]
    u = np.hstack([p.T @ np.linalg.eigh(p @ h @ p.T)[1] for p in map(np.array, (even, odd)) if len(p)])
    m = u.T @ np.diag(s)
    delta = 1.0 - np.linalg.eigvalsh(h).max()
    return delta, np.linalg.norm(m, np.inf) * np.linalg.norm(np.linalg.inv(m), np.inf)


def test_norm_product_matches_explicit_inverse():
    for n in (3, 8, 16, 64, 256):
        want = _explicit_norm_product(n, 2)[1]
        assert spectral_analysis(n, 2).norm_product == pytest.approx(want, rel=1e-12, abs=0)
    for n in range(8, 257, 4):
        delta, norm_product = _explicit_norm_product(n, 2)
        log_c = math.log(math.comb(n, n // 2))
        want = math.ceil((log_c + math.log(norm_product) + math.log(1e3)) / delta)
        assert k_min_bound(n, n // 2, 2, 1e-3) == want


# ||M||_inf ||M^-1||_inf of the spin block from an mpmath.eigsy of the whole
# interior block at 60 to 100 digits, where every doublet is resolved
# (spacings down to 1.9e-36 at n = 128); n = 64, 80 and 128 gave the same
# digits again at 100, 110 and 140 digits
_NORM_PRODUCT_REFERENCE = {
    (8, 2): 14.279831666210995972,
    (24, 2): 3908.2990801840814598,
    (44, 2): 4472343.1198047631897,
    (52, 2): 73865502.914651506592,
    (64, 2): 4925734890.4829996025,
    (80, 2): 1318662104879.4019162,
    (96, 2): 350471430462749.64353,
    (128, 2): 24399337523879846691.948,
    (16, 3): 247.85821457901864050,
    (64, 3): 5303293579.9819281688,
}


def test_norm_product_matches_high_precision_reference():
    # one eigh of the whole block was 4.3% low at n = 64 and 29% at n = 128
    for (n, d), want in _NORM_PRODUCT_REFERENCE.items():
        assert spectral_analysis(n, d).norm_product == pytest.approx(want, rel=1e-12, abs=0)


def test_norm_product_past_the_float_range():
    # s falls to about 2^(-n/2) in the middle, so ||M|| ||M^-1|| leaves the
    # float range near n = 2044.  n = 2000 already carries ||M^-1|| over
    # 2^36 and keeps the bits of the plain float product of s and 1/s
    report = spectral_analysis(2000, 2)
    assert report.norm_product == 2.6655205385383985e301
    assert report.log_norm_product == pytest.approx(math.log(report.norm_product), rel=1e-15)
    report = spectral_analysis(2100, 2)  # 1/s once overflowed here, with a warning
    assert report.norm_product == math.inf
    assert 0.3 < (report.log_norm_product - 694.0585123537817) / 100 < 0.4  # the gap-scan norm slope
    log_c = math.log(math.comb(2100, 1050))
    want = math.ceil((log_c + report.log_norm_product + math.log(1e3)) / report.delta)
    assert k_min_bound(2100, 1050, 2, 1e-3) == want


# delta = 1 - lambda_3 at d = 2, from a Sturm-sequence bisection of the
# interior block in mpmath at 60 digits, rounded to 30
_DELTA_REFERENCE = {
    64: 0.0185426027786932861982524471782,
    256: 0.00467511488690466053894388610779,
}


def test_gap_is_within_the_stated_eigenvalue_bound():
    # spectral_analysis's docstring: within 4 m u of exact, m = n - 1
    for n, want in _DELTA_REFERENCE.items():
        assert abs(spectral_analysis(n, 2).delta - want) <= 4 * (n - 1) * 2.0**-53


def test_fit_power_law_recovers_synthetic():
    xs = np.arange(4, 40)
    slope, icept = fit_power_law(xs, 3.0 * xs**-1.7, mode="loglog")
    assert slope == pytest.approx(-1.7, abs=1e-12)
    assert icept == pytest.approx(math.log(3.0), abs=1e-12)
    slope, icept = fit_power_law(xs, 0.25 * xs + 2.0, mode="semilog")
    assert slope == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(ValidationError):
        fit_power_law([1, 2], [1, 2], mode="loglog")
    with pytest.raises(ValidationError):
        fit_power_law([1, 2, 3], [1, -2, 3], mode="loglog")
    with pytest.raises(ValidationError, match="unknown fit mode"):
        fit_power_law(xs, xs, mode="cubic")
    with pytest.raises(ValidationError, match="constant abscissa"):
        fit_power_law([2, 2, 2], [1, 2, 3], mode="semilog")


@pytest.mark.parametrize("mode", ["loglog", "semilog"])
def test_fit_power_law_rejects_non_finite_data(mode):
    # np.polyfit fails in LAPACK on an infinite abscissa and returns (nan,
    # nan) for a NaN ordinate
    for xs, ys in (([1, 2, np.inf], [1, 2, 3]), ([1, 2, 3], [1, np.nan, 3]),
                   ([1, 2, 3], [1, 2, -np.inf]), ([np.nan, 2, 3], [1, 2, 3])):
        with pytest.raises(ValidationError, match="finite"):
            fit_power_law(xs, ys, mode=mode)


@pytest.mark.parametrize("mode", ["loglog", "semilog"])
def test_fit_power_law_rejects_mismatched_shapes(mode):
    # np.polyfit raises TypeError for both: "expected x and y to have same
    # length" and "expected 1D vector for x"
    grid = [[1, 2, 3], [4, 5, 6]]
    for xs, ys in (([1, 2, 3], [1, 2]), ([1, 2, 3, 4], [1, 2, 3]), (grid, grid),
                   ([1, 2, 3], [[1], [2], [3]]), (5.0, 5.0)):
        with pytest.raises(ValidationError, match="1-D arrays of one length"):
            fit_power_law(xs, ys, mode=mode)
