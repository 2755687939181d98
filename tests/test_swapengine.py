import itertools
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from rqcgraph import swapengine
from rqcgraph.cli import main
from rqcgraph.errors import CapacityError, ValidationError
from rqcgraph.graphs import (
    Bipartition,
    FixedSequence,
    MarkovChain,
    UniformIID,
    VertexSet,
    boundary_edges,
    build_graph,
    cem_position_sequence,
    chain_graph,
    complete_graph,
    sample_sequence,
)
from rqcgraph.rem import rem_purity
from rqcgraph.series import PuritySeries
from rqcgraph.swapengine import apply_edge, apply_mixture, evolve, twirl_coefficients
from test_rem import _fraction_purities


def _drawn(proc, k, seed):
    # what `rqcgraph evolve --mode sampled` runs: the k edges drawn from seed as
    # one cycle (c = k), or proc itself when it is a FixedSequence or k = 0
    drawn = sample_sequence(proc, k, seed)
    return FixedSequence(proc.graph, drawn) if drawn and not isinstance(proc, FixedSequence) else proc


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
    out = apply_edge({g.vertex_set((0,)).bits: 1.0}, g.edges[0], 2)
    assert sum(out.values()) == pytest.approx(0.8, abs=1e-15)
    assert out == pytest.approx({g.vertex_set(()).bits: 0.4, g.vertex_set((0, 1)).bits: 0.4})


def test_apply_edge_inside_is_identity():
    g = build_graph(3, [(0, 1), (1, 2)], 2)
    v = {g.vertex_set((0, 1)).bits: 1.0}
    assert apply_edge(v, g.edges[0], 2) == v


def test_reverse_composition_two_gates():
    # chain 0-1-2, A = {0}.  A gate acting entirely inside B cannot change
    # rho_A, so ({0,1} then {1,2}) keeps purity 0.8 while the reversed gate
    # order spreads the entanglement first and lands lower.  This pins the
    # convention that the last gate's twirl is applied to T_A first.
    g = chain_graph(3)
    part = Bipartition(g.vertex_set((0,)))
    ab = evolve(g, part, FixedSequence(g, (g.edges[0], g.edges[1])), 2)
    ba = evolve(g, part, FixedSequence(g, (g.edges[1], g.edges[0])), 2)
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
                for out, c in apply_edge({bits: 1.0}, x, d).items():
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


def test_mixture_is_the_mean_of_edge_twirls():
    # the dict step sums 1/|E| times each edge's apply_edge twirl, the array
    # step scatters every row of v/|E| into one vector; the reference twirls
    # each edge on its own and divides each coefficient by |E|
    rng = np.random.default_rng(11)
    for d in (2, 3):
        for _ in range(10):
            n = int(rng.integers(3, 7))
            picks = {tuple(sorted(rng.choice(n, size=rng.choice([2, 3]), replace=False)))
                     for _ in range(5)}
            g = build_graph(n, sorted(picks), d)
            v = dict(zip(rng.choice(1 << n, size=4, replace=False).tolist(), rng.random(4)))
            want: dict[int, float] = {}
            for x in g.edges:
                for bits, c in apply_edge(v, x, d).items():
                    want[bits] = want.get(bits, 0.0) + c / g.n_edges
            got = apply_mixture(v, g.edges, d)
            assert got.keys() == want.keys()
            assert all(got[b] == pytest.approx(want[b], rel=1e-14, abs=0) for b in want)
            # the same step on the dense array over all 2^n subsets
            dense = np.zeros(1 << n)
            dense[list(v)] = list(v.values())
            got = apply_mixture(dense, g.edges, d)
            assert np.flatnonzero(got).tolist() == sorted(want)
            assert all(got[b] == pytest.approx(want[b], rel=1e-14, abs=0) for b in want)


def test_mixture_keeps_every_coefficient_in_both_forms():
    # the edge {0, 1} leaves T_{2} (bits 4) and T_{01} (bits 3) unchanged, and
    # no coefficient is dropped, however small
    g = build_graph(3, [(0, 1)], 2)
    tiny, kept = 5e-16, 2e-15
    assert apply_mixture({4: tiny, 3: kept}, g.edges, 2) == {4: tiny, 3: kept}
    dense = np.zeros(8)
    dense[[4, 3]] = tiny, kept
    assert apply_mixture(dense, g.edges, 2).tolist() == [0.0] * 3 + [kept, tiny] + [0.0] * 3


def _mixture_forms(monkeypatch):
    # the form of the vector passed to each apply_mixture call of evolve
    forms = []

    def recording(v, edges, d):
        forms.append("array" if isinstance(v, np.ndarray) else "dict")
        return apply_mixture(v, edges, d)

    monkeypatch.setattr(swapengine, "apply_mixture", recording)
    return forms


def test_dense_mixture_agrees_with_dict_mixture(monkeypatch):
    # DENSE_FILL = 0 keeps every step on the dict; a fill above 2^n makes
    # the vector dense before the first step
    rng = np.random.default_rng(12)
    forms = _mixture_forms(monkeypatch)
    for n in range(3, 10):
        for d in (2, 3):
            picks = {tuple(sorted(rng.choice(n, size=rng.choice([2, 3]), replace=False)))
                     for _ in range(n + 2)}
            g = build_graph(n, sorted(picks), d)
            part = Bipartition(g.vertex_set(tuple(rng.choice(n, size=n // 2, replace=False))))
            runs = {}
            for fill in (0, 1 << n):
                monkeypatch.setattr(swapengine, "DENSE_FILL", fill)
                forms.clear()
                runs[fill] = evolve(g, part, UniformIID(g), 12).values
                assert set(forms) == {"array" if fill else "dict"}
            assert runs[1 << n] == pytest.approx(runs[0], rel=1e-12, abs=0)


def test_dense_mixture_switch_follows_the_fill(monkeypatch):
    forms = _mixture_forms(monkeypatch)
    chain = chain_graph(24)
    evolve(chain, Bipartition(chain.vertex_set(tuple(range(12)))), UniformIID(chain), 20)
    assert forms == ["dict"] * 20
    forms.clear()
    k8 = complete_graph(8)
    evolve(k8, Bipartition(k8.vertex_set((0, 1, 2, 3))), UniformIID(k8), 20)
    assert forms[0] == "dict" and forms[-1] == "array"


def test_sampled_equals_expectation_for_fixed_sequence():
    g = complete_graph(4)
    part = Bipartition(g.vertex_set((0, 1)))
    proc = FixedSequence(g, (g.edges[2], g.edges[0], g.edges[5]))
    # the sequence drawn from a FixedSequence is its cycle repeated, so run
    # as one k-edge cycle it gives the expectation too
    for k in (3, 7):
        a = evolve(g, part, proc, k)
        b = evolve(g, part, FixedSequence(g, sample_sequence(proc, k, 1)), k)
        assert np.allclose(a.values, b.values, atol=1e-15)


def test_uniform_expectation_matches_rem1_at_k1():
    g = complete_graph(5)
    part = Bipartition(g.vertex_set((0, 1)))
    _, q = boundary_edges(g, part)
    series = evolve(g, part, UniformIID(g), 1)
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
        total += evolve(g, part, proc, k).final
    avg = total / (g.n_edges**k)
    series = evolve(g, part, UniformIID(g), k)
    assert series.final == pytest.approx(avg, abs=1e-13)


def test_markov_expectation_point_mass_kernel():
    # a deterministic Markov kernel is just a fixed sequence
    g = chain_graph(3)
    part = Bipartition(g.vertex_set((0,)))
    mc = MarkovChain(g, (1.0, 0.0), ((0.0, 1.0), (1.0, 0.0)))
    a = evolve(g, part, mc, 4)
    proc = FixedSequence(g, (g.edges[0], g.edges[1], g.edges[0], g.edges[1]))
    b = evolve(g, part, proc, 4)
    assert np.allclose(a.values, b.values, atol=1e-14)


def test_markov_expectation_averages_edge_paths():
    # a non-degenerate start on the alternating kernel: the two edge paths are
    # equally likely, and per-step marginal mixtures (the uniform answer
    # 0.9, 0.83, 0.781, 0.7467) are wrong
    g = chain_graph(3)
    part = Bipartition(g.vertex_set((0,)))
    mc = MarkovChain(g, (0.5, 0.5), ((0.0, 1.0), (1.0, 0.0)))
    got = evolve(g, part, mc, 4).values
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


def _edge_calls(monkeypatch):
    # the arguments of each apply_edge call of evolve
    calls = []

    def counting(*args):
        calls.append(args)
        return apply_edge(*args)

    monkeypatch.setattr(swapengine, "apply_edge", counting)
    return calls


def _markov_forms(monkeypatch):
    # the form of the vectors passed to each MarkovChain step of evolve
    forms = []
    twirl = swapengine._markov_twirl

    def recording(h, edges, d):
        forms.append("array" if isinstance(h, np.ndarray) else "dict")
        return twirl(h, edges, d)

    monkeypatch.setattr(swapengine, "_markov_twirl", recording)
    return forms


def test_markov_chain_past_64_sites_stays_on_the_dicts(monkeypatch):
    # with every cost pushing towards the array, |E| 2^n > TERM_CAP alone keeps
    # a 70-site chain on the dicts; the point-mass kernel alternates the
    # boundary edge e and its right neighbour f, which is FixedSequence (e, f)
    forms = _markov_forms(monkeypatch)
    monkeypatch.setattr(swapengine, "MARKOV_STEP_COST", 0)
    monkeypatch.setattr(swapengine, "MARKOV_READ_COST", 1 << 40)
    g = chain_graph(70)
    part = Bipartition(g.vertex_set(range(35)))
    e, f = 34, 35
    point = [tuple(float(j == i) for j in range(g.n_edges)) for i in (e, f)]
    mc = MarkovChain(g, point[0], tuple(point[i == e] for i in range(g.n_edges)))
    got = evolve(g, part, mc, 8).values
    assert forms == ["dict"] * 8
    want = evolve(g, part, FixedSequence(g, (g.edges[e], g.edges[f])), 8).values
    assert got == pytest.approx(want, rel=1e-14, abs=0)
    assert got[-1] < 1


def test_markov_expectation_twirls_each_edge_once_per_step(monkeypatch):
    # the backward recursion is carried from j - 1 to j steps, not rebuilt:
    # one apply_edge per edge and step on the dicts; forced onto the
    # (|E|, 2^n) array, apply_edge twirls only step 1 and each later step
    # twirls the whole array once
    calls, forms = _edge_calls(monkeypatch), _markov_forms(monkeypatch)
    g = chain_graph(3)
    part = Bipartition(g.vertex_set((0,)))
    mc = MarkovChain(g, (0.5, 0.5), ((0.0, 1.0), (1.0, 0.0)))
    got = evolve(g, part, mc, 6).values  # this small chain stays on the dicts
    assert len(calls) == g.n_edges * 6 and forms == ["dict"] * 6
    assert got[:5] == pytest.approx((1.0, 0.9, 0.76, 0.704, 0.6816), abs=1e-12)
    calls.clear()
    forms.clear()
    monkeypatch.setattr(swapengine, "MARKOV_STEP_COST", 0)
    monkeypatch.setattr(swapengine, "MARKOV_READ_COST", 1 << 40)
    dense = evolve(g, part, mc, 6).values
    assert len(calls) == g.n_edges and forms == ["dict"] + ["array"] * 5
    assert dense == pytest.approx(got, rel=1e-15, abs=0)


def test_markov_chain_with_uniform_rows_is_the_mixture(monkeypatch):
    # on K_10 the (|E|, 2^n) array path of a Markov chain whose law and rows
    # are uniform gives the UniformIID series, which sums in another order
    forms = _markov_forms(monkeypatch)
    g = complete_graph(10)
    part = Bipartition(g.vertex_set(range(5)))
    uniform = (1 / g.n_edges,) * g.n_edges
    got = evolve(g, part, MarkovChain(g, uniform, (uniform,) * g.n_edges), 20).values
    want = evolve(g, part, UniformIID(g), 20).values
    assert "array" in forms
    assert got == pytest.approx(want, rel=1e-13, abs=0)


def test_markov_array_twirl_is_each_rows_one_edge_mixture():
    # the row blocks of the (|E|, 2^n) array twirl (2^14 entries, so 2 rows
    # at n = 13) give each row exactly the dense one-edge apply_mixture
    rng = np.random.default_rng(5)
    for n, d in ((5, 3), (11, 2), (13, 2)):
        picks = {tuple(sorted(rng.choice(n, size=rng.choice([2, 3, 4]), replace=False)))
                 for _ in range(n + 2)}
        g = build_graph(n, sorted(picks), d)
        h = rng.random((g.n_edges, 1 << n)) * (rng.random((g.n_edges, 1 << n)) < 0.5)
        got = swapengine._markov_twirl(h, g.edges, d)
        want = [apply_mixture(row, (x,), d) for row, x in zip(h, g.edges)]
        assert np.array_equal(got, want)
        # summed, the same kernel is the mixture: the mean of the twirled rows
        v = rng.random(1 << n) * (rng.random(1 << n) < 0.5)
        rows = swapengine._markov_twirl(np.broadcast_to(v, h.shape), g.edges, 3)
        assert apply_mixture(v, g.edges, 3) == pytest.approx(rows.mean(axis=0), rel=1e-14, abs=0)


def test_array_mixture_never_builds_the_edge_by_subset_array():
    # on K_16 the (|E|, 2^n) rows of v/|E| would take 120 x 0.5 MiB = 60 MiB;
    # the mixture reads them through a broadcast view, one row block at a time
    g = complete_graph(16)
    v = np.random.default_rng(3).random(1 << 16)
    tracemalloc.start()
    try:
        apply_mixture(v, g.edges, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * v.nbytes


def _rerun_prefixes(a, seq, d):
    # reference: every prefix of seq twirled afresh from T_A, last edge first
    values = [1.0]
    for j in range(1, len(seq) + 1):
        v = {a.bits: 1.0}
        for e in reversed(seq[:j]):
            v = apply_edge(v, e, d)
        values.append(sum(v.values(), 0.0))
    return tuple(values)


def test_prefix_purities_equal_per_prefix_reruns():
    rng = np.random.default_rng(7)
    g = complete_graph(5)
    part = Bipartition(g.vertex_set((0, 1)))
    uniform = UniformIID(g)
    for c in range(1, 8):
        cycle = tuple(g.edges[i] for i in rng.integers(g.n_edges, size=c))
        proc = FixedSequence(g, cycle)
        for k in sorted({0, 1, c - 1, c, c + 1, 3 * c, 3 * c + 2, 17}):
            want = _rerun_prefixes(part.a_set, tuple(cycle[i % c] for i in range(k)), g.d)
            assert evolve(g, part, proc, k).values == want
            assert evolve(g, part, _drawn(proc, k, c), k).values == want
            drawn = sample_sequence(uniform, k, c)
            got = evolve(g, part, _drawn(uniform, k, c), k).values
            assert got == _rerun_prefixes(part.a_set, drawn, g.d)


def test_fixed_sequence_reuses_the_cycle_twirl(tmp_path, monkeypatch):
    # worst cycle on a 6-site chain, c = 5, k = 17: for each residue r of t
    # mod c one vector twirls the first r edges, then whole cycles, reading
    # P_t each time round, so c k - c (c - 1) / 2 = 75 calls instead of the
    # 17 * 18 / 2 = 153 of rerunning every prefix; `rqcgraph evolve --mode
    # sampled` keeps the fixed cycle, not 17 drawn edges
    g = chain_graph(6)
    part = Bipartition(g.vertex_set((0, 1, 2)))
    cycle = tuple(g.edges[v] for v in cem_position_sequence(3, 3, "worst"))
    want = _rerun_prefixes(part.a_set, (cycle * 4)[:17], g.d)
    calls = _edge_calls(monkeypatch)
    got = evolve(g, part, FixedSequence(g, cycle), 17).values
    assert len(cycle) == 5 and len(calls) == 75
    assert got == want
    gpath, ppath, out = tmp_path / "g.json", tmp_path / "p.json", tmp_path / "ev.json"
    edges = [[v, v + 1] for v in cem_position_sequence(3, 3, "worst")]
    gpath.write_text(json.dumps({"n": 6, "d": 2, "edges": edges}))
    ppath.write_text(json.dumps({"A": [0, 1, 2]}))
    calls.clear()
    argv = ["evolve", "--graph", str(gpath), "--partition", str(ppath), "--k", "17", "--process", "sequence"]
    assert main(argv + ["--mode", "sampled", "--seed", "0", "--out", str(out)]) == 0
    assert len(calls) == 75
    assert json.loads(out.read_text())["purity"] == list(want)


def test_drawn_sequence_twirls_each_step_of_each_prefix_once(monkeypatch):
    # a drawn sequence is a cycle of its k edges (c = k), so residue r
    # twirls its first r edges once: k (k + 1) / 2 calls, as many as
    # rerunning every prefix
    g = chain_graph(4)
    part = Bipartition(g.vertex_set((0, 1)))
    markov = MarkovChain(g, (0.2, 0.5, 0.3), ((0.1, 0.6, 0.3), (0.5, 0.0, 0.5), (0.25, 0.25, 0.5)))
    calls = _edge_calls(monkeypatch)
    for proc in (UniformIID(g), markov):
        for k in (0, 1, 2, 9):
            calls.clear()
            evolve(g, part, _drawn(proc, k, k), k)
            assert len(calls) == k * (k + 1) // 2


def test_cycle_runs_keep_few_vectors_alive(monkeypatch):
    # one residue runs at a time and hands each twirl the only reference to
    # its input, so at most the current vector and the next are alive at
    # once, however long the cycle or the drawn sequence; a MarkovChain step
    # drops the last step's |E| twirled dicts before it twirls the kernel's
    live, peak = [0], [0]

    class Counted(dict):
        def __init__(self, v):
            super().__init__(v)
            live[0] += 1
            peak[0] = max(peak[0], live[0])

        def __del__(self):
            live[0] -= 1

    monkeypatch.setattr(swapengine, "apply_edge", lambda v, x, d: Counted(apply_edge(v, x, d)))
    g = chain_graph(6)
    part = Bipartition(g.vertex_set((0, 1, 2)))
    cycle = tuple(g.edges[v] for v in cem_position_sequence(3, 3, "worst"))
    uniform, lazy = (0.2,) * 5, tuple(tuple(0.6 if j == i else 0.1 for j in range(5)) for i in range(5))
    cases = [(FixedSequence(g, cycle), 17, 2), (_drawn(UniformIID(g), 12, 0), 12, 2)]
    cases += [(MarkovChain(g, uniform, (uniform,) * 5), 12, g.n_edges)]
    cases += [(MarkovChain(g, uniform, lazy), 12, g.n_edges)]
    for proc, k, want in cases:
        peak[0] = 0
        evolve(g, part, proc, k)
        assert live[0] == 0 and peak[0] == want


def _exact_twirl(m, s, d):
    # twirl_coefficients in exact arithmetic: both are rational in d
    if s in (0, m):
        return Fraction(int(s == 0)), Fraction(int(s == m))
    big = d**m
    det = big**4 - big**2
    tr_o, tr_ot = d ** (2 * m - s), d ** (m + s)
    return Fraction(big**2 * tr_o - big * tr_ot, det), Fraction(big**2 * tr_ot - big * tr_o, det)


def _exact_row_twirl(u, x, d):
    # u R_X for a row vector u over all 2^n subsets: R_X sends T_B to
    # c_keep T_{B\X} + c_join T_{B u X} when X splits B, and keeps it otherwise
    m = len(x)
    out = []
    for b in range(len(u)):
        s = (b & x.bits).bit_count()
        c_keep, c_join = _exact_twirl(m, s, d)
        out.append(u[b] if s in (0, m) else c_keep * u[b & ~x.bits] + c_join * u[b | x.bits])
    return out


def _exact_purities(g, a, k, seq=None, law=None, kernel=None):
    # P_0..P_k in Fractions, read forward, unlike evolve: P_t = 1^T R_{x_1} ...
    # R_{x_t} e_A averaged over edge paths, with one row vector per state, for
    # the edge sequence seq, the Markov chain (law, kernel) or else the mixture
    edges, d = g.edges, g.d
    f = [[Fraction(1)] * (1 << g.n_vertices)]
    out = [Fraction(1)]
    for t in range(k):
        if seq is not None:
            f = [_exact_row_twirl(f[0], seq[t], d)]
        elif law is None:
            twirled = [_exact_row_twirl(f[0], x, d) for x in edges]
            f = [[sum(col) / len(edges) for col in zip(*twirled)]]
        else:
            into = [[w * c for c in f[0]] for w in law] if t == 0 else [
                [sum(row[y] * v[b] for row, v in zip(kernel, f)) for b in range(len(f[0]))]
                for y in range(len(edges))
            ]
            f = [_exact_row_twirl(v, x, d) for v, x in zip(into, edges)]
        out.append(sum(v[a.bits] for v in f))
    return out


def _assert_within_rounding_bound(got, exact, a, b, n):
    # evolve's docstring bound: |P_t - exact| <= gamma_j exact, j = a t + N + b,
    # gamma_j = j u / (1 - j u) = j / (2^53 - j), with N <= 2^n terms read
    assert len(got) == len(exact)
    for t, (v, x) in enumerate(zip(got, exact)):
        j = a * t + (1 << n) + b
        assert abs(Fraction(v) - x) <= Fraction(j, 2**53 - j) * x, (t, v, float(x))


def test_twirl_coefficients_round_the_exact_ones_once():
    # (14, 2), (9, 3) and (40, 100) pass d^(4m) = 2^53; at (40, 100) d^(4m)
    # overflows a float
    for m, d in ((2, 2), (3, 2), (2, 3), (3, 3), (14, 2), (9, 3), (40, 100)):
        for s in range(m + 1):
            assert twirl_coefficients(m, s, d) == tuple(map(float, _exact_twirl(m, s, d)))


def test_twirl_coefficients_take_integers_only():
    # lru_cache keys 22.0 and 22 alike, so a float call that filled the entry
    # first would hand its rounding to every later int call
    swapengine._twirl_coefficients.cache_clear()
    for m, s, d in ((2, 1, 2.5), (6, 1, 22.0), (2.0, 1, 2), (3, 1.0, 2)):
        with pytest.raises(ValidationError, match="an integer"):
            twirl_coefficients(m, s, d)
    assert twirl_coefficients(6, 1, 22) == tuple(map(float, _exact_twirl(6, 1, 22)))
    assert twirl_coefficients(6, 1, np.int64(22)) == twirl_coefficients(6, 1, 22)
    with pytest.raises(ValidationError, match="local dimension"):
        twirl_coefficients(2, 1, 1)


def test_twirl_coefficients_check_is_the_same_in_any_call_order():
    # lru_cache keys 2.0 as 2 and True as 1, so a check behind the cache would
    # pass them once the equal int call has filled the entry
    for _ in range(2):
        for m, s, d in ((2, 1, 2.0), (2, True, 2), (2.0, 1, 2)):
            with pytest.raises(ValidationError, match="an integer"):
                twirl_coefficients(m, s, d)
        assert twirl_coefficients(2, 1, 2) == (0.4, 0.4)


def _exact_edge(v, x, d):
    # R_X(v) in Fractions, and for each key the number of split terms feeding it
    m, out, feeds = len(x), {}, {}
    for bits, c in v.items():
        s = (bits & x.bits).bit_count()
        if s in (0, m):
            out[bits] = out.get(bits, 0) + Fraction(c)
            continue
        for key, coef in zip((bits & ~x.bits, bits | x.bits), _exact_twirl(m, s, d)):
            out[key] = out.get(key, 0) + Fraction(c) * coef
            feeds[key] = feeds.get(key, 0) + 1
    return out, feeds


def _random_sparse(rng, n, size, scale):
    keys = rng.choice(1 << n, size=size, replace=False)
    return {int(b): float(c) for b, c in zip(keys, scale * rng.uniform(0.5, 1.5, size))}


def test_apply_edge_matches_the_exact_twirl():
    # sparse vectors on 2- and 3-site edges: the split terms are gone and no
    # entry is zero; a key that f split terms feed is within gamma_{f+2} (a
    # rounded coefficient times c, then f additions); a term the edge leaves
    # alone and nothing feeds comes back bit for bit; v itself is unchanged
    rng = np.random.default_rng(23)
    n, fed_fixed_points = 7, 0
    for d in (2, 3):
        for m in (2, 3):
            for _ in range(20):
                x = VertexSet.from_indices(rng.choice(n, size=m, replace=False), n)
                v = _random_sparse(rng, n, int(rng.integers(1, 48)), 1.0)
                before = list(v.items())
                got = apply_edge(v, x, d)
                assert list(v.items()) == before
                want, feeds = _exact_edge(v, x, d)
                assert set(got) == set(want) and all(c > 0.0 for c in got.values())
                for key, c in got.items():
                    f = feeds.get(key, 0)
                    assert abs(Fraction(c) - want[key]) <= Fraction(f + 2, 2**53 - f - 2) * want[key]
                    if f == 0:
                        assert c.hex() == v[key].hex()
                    fed_fixed_points += f > 0 and key in v
    assert fed_fixed_points > 0  # some kept term also took contributions


def test_underflow_adds_at_most_2_to_the_minus_1075_per_product():
    # coefficients near 1e-310 lie below 2^-1022: a product that lands there
    # is off by up to 2^-1075, far beyond its relative rounding, and a sum that
    # lands there is exact; so each coefficient is within its relative bound
    # plus 2^-1075 per product behind it, and not within the relative one alone
    half_ulp, rng = Fraction(1, 2**1075), np.random.default_rng(31)
    n, beyond_relative = 6, 0
    for d in (2, 3):
        for m in (2, 3):
            # apply_edge: f products of a split term and a rounded coefficient
            x = VertexSet.from_indices(rng.choice(n, size=m, replace=False), n)
            v = _random_sparse(rng, n, 24, 1e-310)
            got = apply_edge(v, x, d)
            want, feeds = _exact_edge(v, x, d)
            assert set(got) == set(want)
            for key, c in got.items():
                f = feeds.get(key, 0)
                rel = Fraction(f + 2, 2**53 - f - 2) * want[key]
                err = abs(Fraction(c) - want[key])
                assert err <= rel + f * half_ulp
                beyond_relative += err > rel
            # the dense mixture: each of a key's p contributions is w = v / |E|
            # times a coefficient, two products, with at most p + 2|E| additions
            # after them; every key is present, so each edge it is not split by
            # adds its own term to its feeders
            picks = {tuple(sorted(rng.choice(n, size=m, replace=False))) for _ in range(4)}
            g = build_graph(n, sorted(picks), d)
            arr = 1e-310 * rng.uniform(0.5, 1.5, 1 << n)
            got = apply_mixture(arr, g.edges, d)
            want, parts = [Fraction(0)] * (1 << n), [0] * (1 << n)
            for x in g.edges:
                twirled, feeds = _exact_edge(dict(enumerate(map(float, arr))), x, d)
                for key, c in twirled.items():
                    want[key] += c / len(g.edges)
                    parts[key] += feeds.get(key, 0) + 1
            for c, w, p in zip(got, want, parts):
                j = p + 2 * len(g.edges) + 4
                rel = Fraction(j, 2**53 - j) * w
                err = abs(Fraction(float(c)) - w)
                assert err <= rel + 2 * p * half_ulp
                beyond_relative += err > rel
    assert beyond_relative > 0


def test_evolve_is_exact_to_a_priori_rounding(monkeypatch):
    # every process against the Fraction subset engine, n <= 6, k <= 12: the
    # twirl coefficients are nonnegative and nothing is dropped, so evolve's
    # only error is rounding, within the bound its docstring states
    rng = np.random.default_rng(18)
    forms, markov_forms = _mixture_forms(monkeypatch), _markov_forms(monkeypatch)
    for d in (2, 3):
        for n in range(3, 7):
            picks = {tuple(sorted(rng.choice(n, size=rng.choice([2, 3]), replace=False)))
                     for _ in range(n + 1)}
            g = build_graph(n, sorted(picks), d)
            part = Bipartition(g.vertex_set(tuple(rng.choice(n, size=n // 2, replace=False))))
            a_set, n_e, k = part.a_set, g.n_edges, 12
            m = max(len(x) for x in g.edges)
            # a cycle, and a drawn sequence as its own cycle: one twirl per step
            cycle = tuple(g.edges[i] for i in rng.integers(n_e, size=int(rng.integers(1, 6))))
            got = evolve(g, part, FixedSequence(g, cycle), k).values
            want = _exact_purities(g, a_set, k, seq=(cycle * k)[:k])
            _assert_within_rounding_bound(got, want, 1 << m, -1, n)
            got = evolve(g, part, _drawn(UniformIID(g), k, n), k).values
            want = _exact_purities(g, a_set, k, seq=sample_sequence(UniformIID(g), k, n))
            _assert_within_rounding_bound(got, want, 1 << m, -1, n)
            # the mixture, as a dict (DENSE_FILL = 0) and as a 2^n array
            want = _exact_purities(g, a_set, k)
            for fill in (0, 1 << n):
                monkeypatch.setattr(swapengine, "DENSE_FILL", fill)
                forms.clear()
                got = evolve(g, part, UniformIID(g), k).values
                assert set(forms) == {"array" if fill else "dict"}
                _assert_within_rounding_bound(got, want, n_e * ((1 << m) - 1) + 3, -1, n)
            # a Markov chain whose law and kernel are rational, some entries zero
            weights = rng.integers(0, 4, size=(n_e + 1, n_e))
            weights[:, 0] += 1  # no row sums to zero
            law, *kernel = [[Fraction(int(w), int(ws.sum())) for w in ws] for ws in weights]
            # as dicts (MARKOV_READ_COST = 0) and as one (|E|, 2^n) array from step 2 on
            proc = MarkovChain(g, tuple(map(float, law)), tuple(tuple(map(float, r)) for r in kernel))
            want = _exact_purities(g, a_set, k, law=law, kernel=kernel)
            monkeypatch.setattr(swapengine, "MARKOV_STEP_COST", 0)
            for cost in (0, 1 << 40):
                monkeypatch.setattr(swapengine, "MARKOV_READ_COST", cost)
                markov_forms.clear()
                got = evolve(g, part, proc, k).values
                assert markov_forms == ["dict"] + ["array" if cost else "dict"] * (k - 1)
                _assert_within_rounding_bound(got, want, n_e + (1 << m) + 1, n_e, n)


def test_dense_mixture_on_complete_graphs_is_exact_to_a_priori_rounding(monkeypatch):
    # the UniformIID bound, m = 2, on K_n through the dense step, against the
    # size-class operator in Fractions
    forms = _mixture_forms(monkeypatch)
    for d, ns in ((2, range(7, 13)), (3, range(7, 10))):
        for n in ns:
            g = complete_graph(n, d)
            for n_a in (1, n // 2, n - 1):
                forms.clear()
                got = evolve(g, Bipartition(g.vertex_set(range(n_a))), UniformIID(g), 20).values
                assert forms[-1] == "array"
                want = _fraction_purities(n, n_a, d, 20)
                _assert_within_rounding_bound(got, want, 3 * g.n_edges + 3, -1, n)


def test_uniform_first_step_past_64_vertices_is_the_rem():
    # one uniform step is exact in the REM: 1 - q (1 - 2 N_d), q = |dA| / |E|
    rng = np.random.default_rng(3)
    pairs = [(i, j) for i in range(100) for j in range(i + 1, 100)]
    picked = sorted(rng.choice(len(pairs), size=300, replace=False).tolist())
    for g in (complete_graph(68), build_graph(100, [pairs[i] for i in picked], 2)):
        part = Bipartition(g.vertex_set(range(g.n_vertices // 2)))
        _, q = boundary_edges(g, part)
        assert 0 < q < 1
        got = evolve(g, part, UniformIID(g), 1).values[1]
        assert got == pytest.approx(rem_purity(q, 2, 1), rel=0, abs=1e-12)


def test_process_on_another_graph_is_rejected():
    # a K_4 process on the 4-site chain would zip 3 of its 6 kernel rows, or
    # draw edges the chain does not have; an equal graph built anew is the same
    chain, k4 = chain_graph(4), complete_graph(4)
    part = Bipartition(chain.vertex_set((0, 1)))
    uniform = (1 / 6,) * 6
    for proc in (
        MarkovChain(k4, uniform, (uniform,) * 6),
        _drawn(UniformIID(k4), 3, 0),
        UniformIID(chain_graph(4, d=3)),
    ):
        with pytest.raises(ValidationError, match="another graph"):
            evolve(chain, part, proc, 3)
    again = evolve(chain, part, UniformIID(chain_graph(4)), 3).values
    assert again == evolve(chain, part, UniformIID(chain), 3).values


def test_partition_on_another_graph_is_rejected():
    # a 5-vertex partition on the 3-site chain would broadcast a 2^5 swap
    # vector against 2^3 subsets, or read a term no edge of the chain splits
    g = chain_graph(3)
    part = Bipartition(VertexSet(0b10000, 5))
    for proc in (UniformIID(g), FixedSequence(g, g.edges), MarkovChain(g, (0.5, 0.5), ((0.0, 1.0), (1.0, 0.0)))):
        with pytest.raises(ValidationError, match="partition is built on another graph"):
            evolve(g, part, proc, 3)


def test_evolve_values_are_plain_floats():
    g = chain_graph(3)
    part = Bipartition(g.vertex_set((0,)))
    runs = [
        evolve(g, part, UniformIID(g), 3),
        evolve(g, part, FixedSequence(g, g.edges), 3),
        evolve(g, part, MarkovChain(g, (0.5, 0.5), ((0.5, 0.5), (0.5, 0.5))), 3),
        evolve(g, part, _drawn(UniformIID(g), 3, 1), 3),
    ]
    for series in runs:
        assert all(type(v) is float for v in series.values)


def test_purity_series_needs_the_k0_entry():
    with pytest.raises(ValueError, match="k=0"):
        PuritySeries(())


def test_fixed_sequence_expectation_needs_no_step_distributions():
    g = chain_graph(3)
    part = Bipartition(g.vertex_set((0,)))
    series = evolve(g, part, FixedSequence(g, g.edges), 3)
    assert series.values == pytest.approx((1.0, 0.8, 0.8, 0.688), abs=1e-12)


def test_sampled_mode_requires_seed():
    g = chain_graph(3)
    part = Bipartition(g.vertex_set((0,)))
    for proc, seed in ((UniformIID(g), None), (FixedSequence(g, g.edges), -1)):
        with pytest.raises(ValidationError, match="seed"):
            _drawn(proc, 2, seed)
    with pytest.raises(TypeError):  # evolve has no mode: a drawn sequence is a FixedSequence
        evolve(g, part, UniformIID(g), 2, mode="sampled", seed=1)
    for k in (-1, 2.0):
        with pytest.raises(ValidationError, match="steps"):
            evolve(g, part, UniformIID(g), k)


def test_term_cap_raises(monkeypatch):
    # on the first step, as a dict (1 term); a fill that would make the vector
    # dense at once leaves it a dict too, since its 2^8 subsets exceed the cap
    monkeypatch.setattr(swapengine, "TERM_CAP", 4)
    g = complete_graph(8)
    part = Bipartition(g.vertex_set((0, 1, 2, 3)))
    forms = _mixture_forms(monkeypatch)
    for fill in (swapengine.DENSE_FILL, 1 << 8):
        monkeypatch.setattr(swapengine, "DENSE_FILL", fill)
        forms.clear()
        with pytest.raises(CapacityError):
            evolve(g, part, UniformIID(g), 6)
        assert forms == ["dict"]
    # with a cap of 2^8 terms the array is allowed, and never exceeds it
    monkeypatch.setattr(swapengine, "TERM_CAP", 1 << 8)
    forms.clear()
    evolve(g, part, UniformIID(g), 6)
    assert forms == ["array"] * 6


def test_purity_conserved_bounds():
    # mean purity stays in (0, 1] and decreases monotonically from a basis state
    g = complete_graph(6)
    part = Bipartition(g.vertex_set((0, 1, 2)))
    series = evolve(g, part, UniformIID(g), 25)
    vals = np.array(series.values)
    assert np.all(vals > 0) and np.all(vals <= 1.0 + 1e-12)
    assert np.all(np.diff(vals) <= 1e-12)


def test_hyperedge_evolution_runs():
    g = build_graph(4, [(0, 1, 2), (2, 3), (0, 3)], 2)
    part = Bipartition(g.vertex_set((0, 1)))
    series = evolve(g, part, UniformIID(g), 5)
    assert 0 < series.final < 1
