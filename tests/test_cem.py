import math
from fractions import Fraction

import numpy as np
import pytest

from rqcgraph import cem
from rqcgraph.cem import (
    build_chain_operator,
    chain_asymptote,
    chain_best_first_cycle,
    chain_purity_series,
    chain_spectra_equal,
    chain_spectrum,
    chain_worst_closed_form,
    grid_boundary_stats,
    grid_ordering_example,
)
from rqcgraph.errors import ValidationError
from rqcgraph.graphs import (
    Bipartition,
    FixedSequence,
    cem_position_sequence,
    cem_sequence,
    chain_graph,
)
from rqcgraph.moments import nd_fraction
from rqcgraph.swapengine import evolve

ND = 0.4


def test_chain_operator_properties():
    r = build_chain_operator(12, 6, "worst", 2)
    assert r.shape == (13, 13)
    assert np.all(r >= 0)
    # fixed points at the empty and full configurations
    assert r[0, 0] == 1.0 and r[12, 12] == 1.0
    # spectral radius 1
    assert np.max(np.abs(np.linalg.eigvals(r))) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValidationError):
        build_chain_operator(12, 12, "worst", 2)
    with pytest.raises(ValidationError):
        build_chain_operator(8.0, 4, "worst", 2)
    with pytest.raises(ValidationError):
        chain_purity_series(8, 4, 2, "worst", 2.0)


def test_chain_operator_matches_swap_engine():
    # the contiguous-basis operator is a restriction of the general engine
    for l_a, l_b, kind in ((3, 3, "worst"), (3, 3, "best"), (2, 4, "worst")):
        l_total = l_a + l_b
        g = chain_graph(l_total)
        part = Bipartition(g.vertex_set(tuple(range(l_a))))
        seq = cem_sequence(l_a, l_b, kind)
        n_cycles = 3
        proc = FixedSequence(g, seq * n_cycles)
        engine = evolve(g, part, proc, len(seq) * n_cycles)
        series = chain_purity_series(l_total, l_a, 2, kind, n_cycles)
        for j in range(n_cycles + 1):
            assert engine[j * len(seq)] == pytest.approx(series[j], abs=1e-12)


@pytest.mark.parametrize("d, l_max", ((2, 12), (3, 10)))
def test_chain_purity_series_matches_swap_engine_every_cycle(d, l_max):
    # the whole transfer-operator series against the engine at every cycle
    # boundary: every split, both orders, n_c = 2L cycles of one FixedSequence
    for l_total in range(3, l_max + 1):
        g = chain_graph(l_total, d)
        n_c = 2 * l_total
        for l_a in range(1, l_total):
            part = Bipartition(g.vertex_set(tuple(range(l_a))))
            for kind in ("best", "worst"):
                seq = cem_sequence(l_a, l_total - l_a, kind)
                engine = evolve(g, part, FixedSequence(g, seq), n_c * len(seq))
                series = chain_purity_series(l_total, l_a, d, kind, n_c)
                assert engine.values[:: len(seq)] == pytest.approx(series.values, rel=1e-13, abs=0)


def test_long_worst_chain_run_keeps_every_swap_term():
    # 120 cycles of the worst order on a 32-site chain: the interior terms fall
    # below 1e-15 long before the series settles, and the engine must keep them
    l_total, l_a, n_c = 32, 16, 120
    g = chain_graph(l_total)
    seq = cem_sequence(l_a, l_total - l_a, "worst")
    part = Bipartition(g.vertex_set(tuple(range(l_a))))
    engine = evolve(g, part, FixedSequence(g, seq), n_c * len(seq))
    series = chain_purity_series(l_total, l_a, 2, "worst", n_c)
    assert engine.values[:: len(seq)] == pytest.approx(series.values, rel=1e-13, abs=0)


@pytest.mark.parametrize("l_total", [128, 256])
def test_worst_chain_cycles_past_64_sites(l_total):
    # the engine's dicts have no vertex cap: 4 worst-order cycles at L_A = L/2
    l_a, n_c = l_total // 2, 4
    g = chain_graph(l_total)
    seq = cem_sequence(l_a, l_total - l_a, "worst")
    part = Bipartition(g.vertex_set(tuple(range(l_a))))
    engine = evolve(g, part, FixedSequence(g, seq), n_c * len(seq))
    series = chain_purity_series(l_total, l_a, 2, "worst", n_c)
    assert engine.values[:: len(seq)] == pytest.approx(series.values, rel=0, abs=1e-12)


def test_worst_closed_form():
    assert chain_worst_closed_form(0, 2) == 1.0
    assert chain_worst_closed_form(1, 2) == pytest.approx(2 * ND, abs=1e-15)
    # n_c=2: m=0 gives 2 N^2, m=1 gives 2*binom(2,1) N^3
    assert chain_worst_closed_form(2, 2) == pytest.approx(2 * ND**2 + 4 * ND**3, abs=1e-15)
    # geometric large-n_c limit dominates the finite sum
    for n_c in (3, 6):
        assert chain_worst_closed_form(n_c, 2) < 2 * (ND / (1 - ND)) ** n_c
    with pytest.raises(ValidationError):
        chain_worst_closed_form(-1, 2)
    with pytest.raises(ValidationError):
        chain_worst_closed_form(2.0, 2)
    with pytest.raises(ValidationError):
        chain_worst_closed_form(2, 2.0)


def _fraction_chain_purities(l_total, l_a, kind, d, n_c):
    """P_0..P_{n_c} in Fractions, from the cycle operator built by build_chain_operator's row operations."""
    nd = nd_fraction(d)
    r = [[Fraction(int(i == j)) for j in range(l_total + 1)] for i in range(l_total + 1)]
    for v in reversed(cem_position_sequence(l_a, l_total - l_a, kind)):
        for u in (v, v + 2):
            r[u] = [x + nd * y for x, y in zip(r[u], r[v + 1])]
        r[v + 1] = [Fraction(0)] * (l_total + 1)
    x = [Fraction(int(i == l_a)) for i in range(l_total + 1)]
    out = [sum(x)]
    for _ in range(n_c):
        x = [sum(a * b for a, b in zip(row, x) if a) for row in r]
        out.append(sum(x))
    return out


def test_chain_purity_series_within_its_stated_rounding_bound():
    # chain_purity_series' docstring: |P_k - exact| <= gamma_j exact,
    # j = (4 L - 2) k + L, gamma_j = j / (2^53 - j); nothing underflows here
    for d in (2, 3):
        for l_total in range(2, 11):
            for l_a in range(1, l_total):
                for kind in ("best", "worst"):
                    got = chain_purity_series(l_total, l_a, d, kind, 20).values
                    exact = _fraction_chain_purities(l_total, l_a, kind, d, 20)
                    for k, (v, x) in enumerate(zip(got, exact)):
                        j = (4 * l_total - 2) * k + l_total
                        assert abs(Fraction(v) - x) <= Fraction(j, 2**53 - j) * x, (d, l_total, l_a, kind, k)


def test_worst_closed_form_is_the_exact_sum_rounded_once():
    # past n_c = 400 the float terms N_d^(n_c+m) turn subnormal, then 0, and
    # from n_c = 516 the binomial no longer converts to a float
    for d in (2, 3):
        nd = nd_fraction(d)
        for n_c in (405, 450, 520, 600):
            exact = sum(2 * math.comb(n_c + m - 1, m) * nd ** (n_c + m) for m in range(n_c))
            assert chain_worst_closed_form(n_c, d) == float(exact), (d, n_c)


def test_worst_closed_form_matches_iteration():
    for d in (2, 3):
        series = chain_purity_series(16, 8, d, "worst", 8)
        for n_c in range(9):
            assert series[n_c] == pytest.approx(chain_worst_closed_form(n_c, d), abs=1e-12)


def test_best_first_cycle_matches_swap_engine():
    for l_x in (2, 3, 4):
        g = chain_graph(2 * l_x)
        part = Bipartition(g.vertex_set(tuple(range(l_x))))
        seq = cem_sequence(l_x, l_x, "best")
        engine = evolve(g, part, FixedSequence(g, seq), len(seq))
        assert chain_best_first_cycle(l_x, l_x, 2) == pytest.approx(engine.final, abs=1e-12)
    with pytest.raises(ValidationError):
        chain_best_first_cycle(1, 4, 2)
    with pytest.raises(ValidationError):
        chain_best_first_cycle(3.0, 4, 2)


def test_best_first_cycle_values():
    assert chain_best_first_cycle(2, 2, 2) == pytest.approx(0.64, abs=1e-15)
    limit = 2 * ND * ND / (1 - ND)
    # finite values approach the limit from above: the truncated tail is
    # overcompensated by the extra boundary term N_d^L_X
    assert chain_best_first_cycle(12, 12, 2) > limit
    assert chain_best_first_cycle(12, 12, 2) - limit < 1e-4


def test_chain_asymptote():
    assert chain_asymptote(4, 2, 2) == pytest.approx(8 / 17, abs=1e-15)
    series = chain_purity_series(4, 2, 2, "worst", 200)
    assert series.final == pytest.approx(chain_asymptote(4, 2, 2), abs=1e-10)


def _float_spectrum(op):
    """Nonunit moduli of np.linalg.eigvals(op), descending, and the count within 1e-9 of 1."""
    eigs = np.linalg.eigvals(op)
    unit = np.abs(eigs - 1.0) < 1e-9
    return np.sort(np.abs(eigs[~unit]))[::-1], int(unit.sum())


def test_chain_spectrum_small():
    # exact spectrum: {1, 1} u {(2 N_d)^2 cos^2(j pi / L)} u {0,...}
    expect = [0.64 * np.cos(j * np.pi / 8) ** 2 for j in range(1, 4)]
    moduli, unit = _float_spectrum(build_chain_operator(8, 4, "worst", 2))
    assert unit == 2
    assert np.allclose(moduli[:3], expect, atol=1e-10)
    spectrum = chain_spectrum(8, 2)
    assert spectrum.unit_multiplicity == 2
    assert np.allclose(spectrum.eigenvalues, [1, 1] + expect + [0] * 4, rtol=0, atol=1e-15)
    assert spectrum.lambda2 == pytest.approx(expect[0], abs=1e-15)
    spectrum = chain_spectrum(2, 2)  # one twirl, no nonzero pair
    assert spectrum.eigenvalues.tolist() == [1.0, 1.0, 0.0] and spectrum.lambda2 == 0.0


def test_chain_spectrum_checks_l_and_d():
    for args in ((1, 2), (8.0, 2), (8, 1), (8, 2.0)):
        with pytest.raises(ValidationError):
            chain_spectrum(*args)


def test_chain_spectrum_closed_form_any_order(monkeypatch):
    # Young's theorem covers every order of the L-1 twirls, not only best
    # and worst: compose random orders as build_chain_operator does
    rng = np.random.default_rng(2026)
    for _ in range(120):
        l_total, d = int(rng.integers(3, 40)), int(rng.choice((2, 3, 4)))
        l_a = int(rng.integers(1, l_total))
        order = tuple(int(v) for v in rng.permutation(l_total - 1))
        with monkeypatch.context() as m:
            m.setattr(cem, "cem_position_sequence", lambda *_: order)
            moduli, unit = _float_spectrum(build_chain_operator(l_total, l_a, "worst", d))
        assert unit == 2
        assert abs(moduli[0] - chain_spectrum(l_total, d).lambda2) <= 1e-13


def _chain_cases():
    small = [(d, l, l_a) for d, l_max in ((2, 24), (3, 16)) for l in range(3, l_max + 1) for l_a in range(1, l)]
    large = [(2, 100, 50), (2, 99, 49), (2, 99, 50), (2, 75, 37), (2, 60, 25), (3, 41, 20), (3, 45, 22)]
    return small + large


def test_chain_spectrum_matches_eigensolve_best_and_worst():
    # The float eigensolve is the reference only while it is accurate: the
    # zero eigenvalue's defective block grows with L, and at d = 3, L = 100,
    # L_A = 1 the float lambda2 is off by 7e-3.  On these cases it agrees
    # within 1e-12 (largest deviation 1.4e-13).
    for d, l_total, l_a in _chain_cases():
        for kind in ("best", "worst"):
            spectrum = chain_spectrum(l_total, d)
            moduli, unit = _float_spectrum(build_chain_operator(l_total, l_a, kind, d))
            top = spectrum.eigenvalues[2:5]
            top = top[top > 0]
            assert unit == spectrum.unit_multiplicity == 2
            assert np.abs(moduli[: top.size] - top).max() <= 1e-12, (d, l_total, l_a, kind)


def test_chain_lambda2_below_saturation_at_reproduce_size():
    # reproduce-all's largest chain, where a float eigensolve returns 0.6416
    # or 0.6413 with the BLAS thread count, above the (2 N_d)^2 = 0.64 that
    # no finite chain reaches
    lam = chain_spectrum(400, 2).lambda2
    assert lam < 0.64
    assert abs(lam - 0.64 * np.cos(np.pi / 400) ** 2) <= 1e-15


def test_chain_spectrum_lambda2_saturates():
    lam = [chain_spectrum(2 * l, 2).lambda2 for l in (10, 25, 50)]
    assert lam[0] < lam[1] < lam[2] < 0.6401
    assert lam[2] == pytest.approx(0.64, abs=1e-3)


@pytest.mark.parametrize("l_a", [10, 25, 50])
def test_chain_lambda2_in_collatz_wielandt_bracket(l_a):
    # columns 0 and L are unit vectors and row L_A is zero, so lambda2 is the
    # Perron root of the nonnegative rest M'': for a positive x it lies
    # between the least and the greatest (M''x)_i / x_i
    l_total = 2 * l_a
    op = build_chain_operator(l_total, l_a, "worst", 2)
    unit = np.eye(l_total + 1)
    assert np.array_equal(op[:, 0], unit[0]) and np.array_equal(op[:, l_total], unit[l_total])
    assert not op[l_a].any()
    rest = [i for i in range(1, l_total) if i != l_a]
    m2 = op[np.ix_(rest, rest)]
    assert m2.min() >= 0
    evals, evecs = np.linalg.eig(m2)
    x = np.abs(evecs[:, np.argmax(np.abs(evals))])
    ratios = (m2 @ x) / x
    lam = chain_spectrum(l_total, 2).lambda2
    assert ratios.min() - 1e-12 <= lam <= ratios.max() + 1e-12


def test_chain_spectra_equal_exact(monkeypatch):
    assert chain_spectra_equal(12, 6, 2)
    assert chain_spectra_equal(13, 5, 2)
    assert chain_spectra_equal(20, 10, 3)
    assert chain_spectra_equal(400, 200, 2)
    with pytest.raises(ValidationError):
        chain_spectra_equal(4, 4, 2)
    with pytest.raises(ValidationError):
        chain_spectra_equal(12, 6, 1)
    with pytest.raises(ValidationError):
        chain_spectra_equal(8.0, 4, 2)

    # A twirl constant off by one part in 10^9 breaks the Gram self-adjointness.
    nd_fraction = cem.nd_fraction
    with monkeypatch.context() as m:
        m.setattr(cem, "nd_fraction", lambda d: nd_fraction(d) * (1 + Fraction(1, 10**9)))
        assert not chain_spectra_equal(12, 6, 2)
        assert not chain_spectra_equal(400, 200, 2)

    # Orderings that are not reverses of each other: the best order rotated
    # by one gate still covers every edge once, but is not the worst reversed.
    def rotated(l_a, l_b, kind):
        seq = cem_position_sequence(l_a, l_b, kind)
        return seq[1:] + seq[:1] if kind == "best" else seq

    monkeypatch.setattr(cem, "cem_position_sequence", rotated)
    assert not chain_spectra_equal(12, 6, 2)
    assert not chain_spectra_equal(13, 5, 3)


@pytest.mark.parametrize("l_total, l_a, d", [(400, 200, 2), (13, 5, 3)])
def test_chain_operators_adjoint_under_gram(l_total, l_a, d):
    # The similarity chain_spectra_equal proves, on the built matrices:
    # G M_best = M_worst^T G with G_ij = d^(2L-|i-j|), scaled here by d^(-2L).
    idx = np.arange(l_total + 1)
    g = float(d) ** -np.abs(np.subtract.outer(idx, idx))
    best = build_chain_operator(l_total, l_a, "best", d)
    worst = build_chain_operator(l_total, l_a, "worst", d)

    def residual(m_rev, m):
        return np.linalg.norm(g @ m_rev - m.T @ g) / np.linalg.norm(g @ m_rev)

    assert residual(best, worst) <= 1e-14
    assert residual(worst, worst) > 0.1


def test_chain_spectra_float_agreement_small():
    # direct float comparison only works while the defective zero cluster is
    # still tame
    a = np.sort_complex(np.linalg.eigvals(build_chain_operator(6, 3, "best", 2)))
    b = np.sort_complex(np.linalg.eigvals(build_chain_operator(6, 3, "worst", 2)))
    assert np.max(np.abs(a - b)) < 1e-9


def test_grid_boundary_stats():
    p1, v1 = grid_boundary_stats(1, 2)
    assert p1 == pytest.approx(0.8, abs=1e-15)
    assert v1 == pytest.approx(18 / 1050, abs=1e-15)
    p3, v3 = grid_boundary_stats(3, 2)
    assert p3 == pytest.approx(0.8**3, abs=1e-15)
    assert v3 == pytest.approx((23 / 35) ** 3 - 0.8**6, abs=1e-15)
    with pytest.raises(ValidationError):
        grid_boundary_stats(0, 2)
    with pytest.raises(ValidationError):
        grid_boundary_stats(1.5, 2)
    with pytest.raises(ValidationError):
        grid_boundary_stats(1, 2.0)


def test_grid_ordering_example():
    boundary_first, internal_first = grid_ordering_example(2)
    assert boundary_first == pytest.approx(0.64, abs=1e-12)
    # internal gates first let the boundary twirls spread: 2 N_d^2 + 8 N_d^4
    assert internal_first == pytest.approx(0.5248, abs=1e-12)
