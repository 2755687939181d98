import itertools

import numpy as np
import pytest

from rqcgraph import swapengine
from rqcgraph.errors import CapacityError, ValidationError
from rqcgraph.graphs import (
    Bipartition,
    FixedSequence,
    MarkovChain,
    UniformIID,
    boundary_edges,
    build_graph,
    cem_position_sequence,
    chain_graph,
    complete_graph,
    sample_sequence,
)
from rqcgraph.swapengine import (
    SwapVector,
    apply_edge,
    apply_mixture,
    evolve,
    twirl_coefficients,
)


def test_twirl_coefficients_two_qudit_edge():
    for d in range(2, 6):
        nd = d / (d * d + 1)
        c_keep, c_join = twirl_coefficients(2, 1, d)
        assert c_keep == pytest.approx(nd, abs=1e-15)
        assert c_join == pytest.approx(nd, abs=1e-15)


def test_twirl_coefficients_trivial_overlaps():
    assert twirl_coefficients(3, 0, 2) == (1.0, 0.0)
    assert twirl_coefficients(3, 3, 2) == (0.0, 1.0)
    with pytest.raises(ValidationError):
        twirl_coefficients(1, 0, 2)
    with pytest.raises(ValidationError):
        twirl_coefficients(2, 3, 2)


def test_twirl_coefficients_hyperedge_consistency():
    # the twirl preserves both Tr O and Tr(O T_X) of the projected operator
    for m, s, d in ((3, 1, 2), (3, 2, 2), (4, 2, 3)):
        c_keep, c_join = twirl_coefficients(m, s, d)
        big = float(d) ** m
        tr_o = float(d) ** (2 * m - s)
        tr_ot = float(d) ** (m + s)
        assert c_keep * big * big + c_join * big == pytest.approx(tr_o, rel=1e-13)
        assert c_keep * big + c_join * big * big == pytest.approx(tr_ot, rel=1e-13)


def test_apply_edge_straddling():
    g = build_graph(2, [(0, 1)], 2)
    v = SwapVector.basis(g.vertex_set((0,)), 2)
    out = apply_edge(v, g.edges[0])
    assert out.purity() == pytest.approx(0.8, abs=1e-15)
    assert out.coefficient(g.vertex_set(())) == pytest.approx(0.4)
    assert out.coefficient(g.vertex_set((0, 1))) == pytest.approx(0.4)


def test_apply_edge_inside_is_identity():
    g = build_graph(3, [(0, 1), (1, 2)], 2)
    v = SwapVector.basis(g.vertex_set((0, 1)), 2)
    out = apply_edge(v, g.edges[0])
    assert out.terms == v.terms


def test_reverse_composition_two_gates():
    # chain 0-1-2, A = {0}.  A gate acting entirely inside B cannot change
    # rho_A, so ({0,1} then {1,2}) keeps purity 0.8 while the reversed gate
    # order spreads the entanglement first and lands lower.  This pins the
    # convention that the last gate's twirl is applied to T_A first.
    g = chain_graph(3)
    part = Bipartition(g.vertex_set((0,)))
    ab = evolve(g, part, FixedSequence(g, (g.edges[0], g.edges[1])), 2, mode="expectation")
    ba = evolve(g, part, FixedSequence(g, (g.edges[1], g.edges[0])), 2, mode="expectation")
    nd = 0.4
    assert ab[1] == pytest.approx(2 * nd, abs=1e-15)
    assert ab[2] == pytest.approx(2 * nd, abs=1e-15)
    # {1,2} first does nothing at step 1; then {0,1} splits T_0 and the
    # earlier twirl expands T_01: nd + nd*(2 nd^2 + ... ) -- by hand:
    # R_12(R_01(T_0)) = R_12(.4 T_empty + .4 T_01) = .4 T_empty + .16 T_0 + .16 T_012
    assert ba[1] == pytest.approx(1.0, abs=1e-15)
    assert ba[2] == pytest.approx(0.4 + 0.16 + 0.16, abs=1e-14)


def test_reversed_sequence_is_adjoint_under_gram():
    # Each twirl is the Hilbert-Schmidt-orthogonal projection onto span{1_X, T_X},
    # so G R_X = R_X^T G with G_ST = Tr(T_S T_T) = (x)_v [[d^2, d], [d, d^2]], and
    # a gate sequence's operator M and its reverse's M_rev obey G M_rev = M^T G.
    rng = np.random.default_rng(6)
    for _ in range(20):
        n, d = int(rng.integers(3, 6)), int(rng.choice([2, 3]))
        picks = {tuple(sorted(rng.choice(n, size=rng.choice([2, 3]), replace=False)))
                 for _ in range(4)}
        g = build_graph(n, sorted(picks), d)
        twirls = []
        for x in g.edges:
            r = np.zeros((1 << n, 1 << n))
            for bits in range(1 << n):
                for out, c in apply_edge(SwapVector({bits: 1.0}, n, d), x).terms.items():
                    r[out, bits] = c
            twirls.append(r)
        seq = rng.integers(len(twirls), size=6)
        m = np.linalg.multi_dot([twirls[i] for i in seq])
        m_rev = np.linalg.multi_dot([twirls[i] for i in seq[::-1]])
        gram = np.ones((1, 1))
        for _ in range(n):
            gram = np.kron(gram, [[d * d, d], [d, d * d]])
        resid = np.linalg.norm(gram @ m_rev - m.T @ gram) / np.linalg.norm(gram @ m_rev)
        assert resid <= 1e-14


def test_sampled_equals_expectation_for_fixed_sequence():
    g = complete_graph(4)
    part = Bipartition(g.vertex_set((0, 1)))
    proc = FixedSequence(g, (g.edges[2], g.edges[0], g.edges[5]))
    a = evolve(g, part, proc, 3, mode="expectation")
    b = evolve(g, part, proc, 3, mode="sampled", seed=1)
    assert np.allclose(a.values, b.values, atol=1e-15)


def test_uniform_expectation_matches_rem1_at_k1():
    g = complete_graph(5)
    part = Bipartition(g.vertex_set((0, 1)))
    _, q = boundary_edges(g, part)
    series = evolve(g, part, UniformIID(g), 1, mode="expectation")
    assert series[1] == pytest.approx(1 - q * (1 - 0.8), abs=1e-14)


def test_uniform_expectation_equals_average_of_samples():
    # exact expectation must be the edge-sequence average of sampled runs
    g = chain_graph(4)
    part = Bipartition(g.vertex_set((0, 1)))
    k = 3
    # enumerate all 3^3 equally likely sequences by brute force
    from itertools import product

    total = 0.0
    for combo in product(g.edges, repeat=k):
        proc = FixedSequence(g, combo)
        total += evolve(g, part, proc, k, mode="expectation").final
    avg = total / (g.n_edges**k)
    series = evolve(g, part, UniformIID(g), k, mode="expectation")
    assert series.final == pytest.approx(avg, abs=1e-13)


def test_markov_expectation_point_mass_kernel():
    # a deterministic Markov kernel is just a fixed sequence
    g = chain_graph(3)
    part = Bipartition(g.vertex_set((0,)))
    mc = MarkovChain(g, (1.0, 0.0), ((0.0, 1.0), (1.0, 0.0)))
    a = evolve(g, part, mc, 4, mode="expectation")
    proc = FixedSequence(g, (g.edges[0], g.edges[1], g.edges[0], g.edges[1]))
    b = evolve(g, part, proc, 4, mode="expectation")
    assert np.allclose(a.values, b.values, atol=1e-14)


def test_markov_expectation_averages_edge_paths():
    # a non-degenerate start on the alternating kernel: the two edge paths are
    # equally likely, and per-step marginal mixtures (the uniform answer
    # 0.9, 0.83, 0.781, 0.7467) are wrong
    g = chain_graph(3)
    part = Bipartition(g.vertex_set((0,)))
    mc = MarkovChain(g, (0.5, 0.5), ((0.0, 1.0), (1.0, 0.0)))
    got = evolve(g, part, mc, 4, mode="expectation").values
    assert got == pytest.approx((1.0, 0.9, 0.76, 0.704, 0.6816), abs=1e-12)
    e0, e1 = g.edges
    a = evolve(g, part, FixedSequence(g, (e0, e1)), 4).values
    b = evolve(g, part, FixedSequence(g, (e1, e0)), 4).values
    assert got == pytest.approx([(x + y) / 2 for x, y in zip(a, b)], abs=1e-14)


def test_markov_expectation_equals_path_enumeration():
    g = chain_graph(4)
    part = Bipartition(g.vertex_set((0, 1)))
    init = (0.2, 0.5, 0.3)
    trans = ((0.1, 0.6, 0.3), (0.5, 0.0, 0.5), (0.25, 0.25, 0.5))
    k = 4
    exact = evolve(g, part, MarkovChain(g, init, trans), k).values
    for j in range(1, k + 1):
        total = 0.0
        for path in itertools.product(range(g.n_edges), repeat=j):
            prob = init[path[0]] * np.prod([trans[x][y] for x, y in zip(path, path[1:])])
            if prob:
                seq = tuple(g.edges[i] for i in path)
                total += prob * evolve(g, part, FixedSequence(g, seq), j).final
        assert exact[j] == pytest.approx(total, abs=1e-13)


def test_markov_expectation_twirls_each_edge_once_per_step(monkeypatch):
    # the backward recursion is carried from j - 1 to j steps, not rebuilt
    calls = []

    def counting(*args):
        calls.append(args)
        return apply_edge(*args)

    monkeypatch.setattr(swapengine, "apply_edge", counting)
    g = chain_graph(3)
    part = Bipartition(g.vertex_set((0,)))
    mc = MarkovChain(g, (0.5, 0.5), ((0.0, 1.0), (1.0, 0.0)))
    got = evolve(g, part, mc, 6).values
    assert len(calls) == g.n_edges * 6
    assert got[:5] == pytest.approx((1.0, 0.9, 0.76, 0.704, 0.6816), abs=1e-12)


def _rerun_prefixes(basis, seq):
    # reference: every prefix of seq twirled afresh from T_A, last edge first
    values = [1.0]
    for j in range(1, len(seq) + 1):
        v = basis
        for e in reversed(seq[:j]):
            v = apply_edge(v, e)
        values.append(v.purity())
    return tuple(values)


def test_prefix_purities_equal_per_prefix_reruns():
    rng = np.random.default_rng(7)
    g = complete_graph(5)
    part = Bipartition(g.vertex_set((0, 1)))
    basis = SwapVector.basis(part.a_set, g.d)
    uniform = UniformIID(g)
    for c in range(1, 8):
        cycle = tuple(g.edges[i] for i in rng.integers(g.n_edges, size=c))
        proc = FixedSequence(g, cycle)
        for k in sorted({0, 1, c - 1, c, c + 1, 3 * c, 3 * c + 2, 17}):
            want = _rerun_prefixes(basis, tuple(cycle[i % c] for i in range(k)))
            assert evolve(g, part, proc, k).values == want
            assert evolve(g, part, proc, k, mode="sampled", seed=c).values == want
            drawn = sample_sequence(uniform, k, c)
            got = evolve(g, part, uniform, k, mode="sampled", seed=c).values
            assert got == _rerun_prefixes(basis, drawn)


def test_fixed_sequence_reuses_the_cycle_twirl(monkeypatch):
    # worst cycle on a 6-site chain, c = 5, k = 17: each residue r builds its
    # first r twirls once and then applies whole cycles, 75 calls instead of
    # the 17 * 18 / 2 = 153 of rerunning every prefix
    calls = []

    def counting(*args):
        calls.append(args)
        return apply_edge(*args)

    g = chain_graph(6)
    part = Bipartition(g.vertex_set((0, 1, 2)))
    cycle = tuple(g.edges[v] for v in cem_position_sequence(3, 3, "worst"))
    want = _rerun_prefixes(SwapVector.basis(part.a_set, g.d), (cycle * 4)[:17])
    monkeypatch.setattr(swapengine, "apply_edge", counting)
    got = evolve(g, part, FixedSequence(g, cycle), 17).values
    assert len(cycle) == 5 and len(calls) == 75
    assert got == want


def test_evolve_values_are_plain_floats():
    g = chain_graph(3)
    part = Bipartition(g.vertex_set((0,)))
    runs = [
        evolve(g, part, UniformIID(g), 3),
        evolve(g, part, FixedSequence(g, g.edges), 3),
        evolve(g, part, MarkovChain(g, (0.5, 0.5), ((0.5, 0.5), (0.5, 0.5))), 3),
        evolve(g, part, UniformIID(g), 3, mode="sampled", seed=1),
    ]
    for series in runs:
        assert all(type(v) is float for v in series.values)


def test_fixed_sequence_expectation_needs_no_step_distributions():
    g = chain_graph(3)
    part = Bipartition(g.vertex_set((0,)))
    series = evolve(g, part, FixedSequence(g, g.edges), 3)
    assert series.values == pytest.approx((1.0, 0.8, 0.8, 0.688), abs=1e-12)


def test_swap_vector_equality_compares_terms():
    assert SwapVector({1: 1.0}, 3, 2) != SwapVector({2: 0.5}, 3, 2)
    assert SwapVector({1: 1.0}, 3, 2) != SwapVector({1: 0.5}, 3, 2)
    a, b = SwapVector({1: 0.5, 6: 0.25}, 3, 2), SwapVector({6: 0.25, 1: 0.5}, 3, 2)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_sampled_mode_requires_seed():
    g = chain_graph(3)
    part = Bipartition(g.vertex_set((0,)))
    for proc, seed in ((UniformIID(g), None), (FixedSequence(g, g.edges), -1)):
        with pytest.raises(ValidationError, match="seed"):
            evolve(g, part, proc, 2, mode="sampled", seed=seed)
    with pytest.raises(ValidationError):
        evolve(g, part, UniformIID(g), 2, mode="bogus")
    with pytest.raises(ValidationError):
        evolve(g, part, UniformIID(g), -1)


def test_term_cap_raises(monkeypatch):
    monkeypatch.setattr(swapengine, "TERM_CAP", 4)
    g = complete_graph(8)
    part = Bipartition(g.vertex_set((0, 1, 2, 3)))
    with pytest.raises(CapacityError):
        evolve(g, part, UniformIID(g), 6, mode="expectation")


def test_purity_conserved_bounds():
    # mean purity stays in (0, 1] and decreases monotonically from a basis state
    g = complete_graph(6)
    part = Bipartition(g.vertex_set((0, 1, 2)))
    series = evolve(g, part, UniformIID(g), 25, mode="expectation")
    vals = np.array(series.values)
    assert np.all(vals > 0) and np.all(vals <= 1.0 + 1e-12)
    assert np.all(np.diff(vals) <= 1e-12)


def test_hyperedge_evolution_runs():
    g = build_graph(4, [(0, 1, 2), (2, 3), (0, 3)], 2)
    part = Bipartition(g.vertex_set((0, 1)))
    series = evolve(g, part, UniformIID(g), 5, mode="expectation")
    assert 0 < series.final < 1
