import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from rqcgraph.errors import CapacityError, ValidationError
from rqcgraph import oracle
from rqcgraph.graphs import (
    Bipartition,
    FixedSequence,
    MarkovChain,
    UniformIID,
    VertexSet,
    build_graph,
    chain_graph,
    complete_graph,
    draw_indices,
)
from rqcgraph.oracle import (
    SampleStats,
    apply_gate,
    estimate_moments,
    haar_unitary,
    product_state,
    reduced_density,
    renyi_moment,
)


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(0)
    for dim in (2, 4, 8):
        u = haar_unitary(dim, rng)
        assert np.allclose(u @ u.conj().T, np.eye(dim), atol=1e-12)
    with pytest.raises(ValidationError):
        haar_unitary(1, rng)
    for dim in (4.0, "4", None):
        with pytest.raises(ValidationError, match="unitary dimension must be an integer"):
            haar_unitary(dim, rng)
    assert haar_unitary(np.int64(4), rng).shape == (4, 4)


def test_haar_mean_purity_single_pair():
    # one Haar gate on |00>: E[tr rho^2] = 0.8 -- smoke test of the measure
    rng = np.random.default_rng(123)
    g = build_graph(2, [(0, 1)], 2)
    a = g.vertex_set((0,))
    vals = []
    for _ in range(4000):
        psi = apply_gate(product_state(2, 2), 2, 2, g.edges[0], haar_unitary(4, rng))
        vals.append(renyi_moment(psi, 2, 2, a, 2))
    mean = np.mean(vals)
    stderr = np.std(vals, ddof=1) / np.sqrt(len(vals))
    assert abs(mean - 0.8) < 4 * stderr


def test_apply_gate_matches_kron():
    rng = np.random.default_rng(5)
    g = build_graph(3, [(0, 2)], 2)
    u = haar_unitary(4, rng)
    psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    psi /= np.linalg.norm(psi)
    out = apply_gate(psi, 3, 2, g.edges[0], u)
    # build the full operator by permuting (0,2) to the front
    full = np.zeros((8, 8), dtype=complex)
    t = np.moveaxis(
        np.kron(u, np.eye(2)).reshape((2,) * 6), (0, 1, 2, 3, 4, 5), (0, 2, 1, 3, 5, 4)
    )
    full = t.reshape(8, 8)
    assert np.allclose(out, full @ psi, atol=1e-12)


def test_apply_gate_shape_validation():
    with pytest.raises(ValidationError):
        g = build_graph(3, [(0, 1)], 2)
        apply_gate(product_state(3, 2), 3, 2, g.edges[0], np.eye(8))


def test_vertex_sets_for_another_vertex_count_are_rejected():
    # a 5-vertex edge on a 2-qudit state would move axes the state does not have
    psi = product_state(2, 2)
    with pytest.raises(ValidationError, match="built for 5 vertices, not 2"):
        apply_gate(psi, 2, 2, VertexSet(0b11000, 5), np.eye(4))
    with pytest.raises(ValidationError, match="built for 1 vertices, not 2"):
        apply_gate(psi, 2, 2, VertexSet(0b1, 1), np.eye(2))
    for a in (VertexSet(0b10000, 5), VertexSet(0b1, 3)):
        with pytest.raises(ValidationError, match="built for"):
            reduced_density(psi, 2, 2, a)
        with pytest.raises(ValidationError, match="built for"):
            renyi_moment(psi, 2, 2, a, 2)


def test_states_of_another_length_are_rejected():
    # 8 amplitudes are 3 qubits, not the 2 the vertex sets are built for
    psi = product_state(3, 2)
    with pytest.raises(ValidationError, match="state of 8 amplitudes is not 2\\^2"):
        apply_gate(psi, 2, 2, VertexSet(0b11, 2), np.eye(4))
    for fn in (reduced_density, lambda *args: renyi_moment(*args, 2)):
        with pytest.raises(ValidationError, match="state of 8 amplitudes"):
            fn(psi, 2, 2, VertexSet(0b1, 2))


def test_reduced_density_and_renyi():
    rng = np.random.default_rng(9)
    g = build_graph(4, [(0, 1)], 2)
    psi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    psi /= np.linalg.norm(psi)
    a = g.vertex_set((1, 3))
    rho = reduced_density(psi, 4, 2, a)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(rho, rho.conj().T, atol=1e-12)
    # alpha=2 Frobenius route vs eigenvalue route
    evals = np.linalg.eigvalsh(rho)
    assert renyi_moment(psi, 4, 2, a, 2) == pytest.approx(np.sum(evals**2), abs=1e-12)
    assert renyi_moment(psi, 4, 2, a, 3) == pytest.approx(np.sum(evals**3), abs=1e-12)
    assert renyi_moment(psi, 4, 2, a, 1) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValidationError):
        renyi_moment(psi, 4, 2, a, 0)


def test_reference_helpers_take_integers_only():
    psi = product_state(2, 2)
    a = VertexSet(0b1, 2)
    for alpha in (None, 2.0, True):
        with pytest.raises(ValidationError, match="Renyi order must be an integer"):
            renyi_moment(psi, 2, 2, a, alpha)
    for n, d in ((2.0, 2), (-1, 2), (0, 2), (2, 2.0), (2, 1)):
        with pytest.raises(ValidationError, match="must be an integer"):
            product_state(n, d)
    assert np.array_equal(product_state(np.int64(2), np.int64(2)), psi)
    # a float n or d passes a.n != n and psi.size != d^n, so each needs its own check
    helpers = (
        lambda n, d: reduced_density(psi, n, d, a),
        lambda n, d: renyi_moment(psi, n, d, a, 2),
        lambda n, d: apply_gate(psi, n, d, VertexSet(0b11, 2), np.eye(4)),
    )
    for fn in helpers:
        for n, d in ((2.0, 2), (2, 2.0), (True, 2), (2, None)):
            with pytest.raises(ValidationError, match="must be an integer"):
                fn(n, d)
        assert np.array_equal(fn(np.int64(2), np.int64(2)), fn(2, 2))


@pytest.mark.parametrize("dim", [4, 8, 9, 16, 27])
def test_haar_stack_is_the_phase_fixed_qr_factor(dim):
    # on the same Gaussians, the stack (Gram-Schmidt below _QR_MIN_DIM, LAPACK
    # QR from it) gives haar_unitary's construction: the Q of A = QR with
    # diag(R) real and positive, so the draw is Haar
    rng = np.random.default_rng(dim)
    z = rng.standard_normal((300, 2 * dim * dim))
    got = oracle._haar_stack(z, dim)
    ginibre = (z[:, : dim * dim] + 1j * z[:, dim * dim :]).reshape(-1, dim, dim) / np.sqrt(2)
    q, r = np.linalg.qr(ginibre)
    diag = np.diagonal(r, axis1=1, axis2=2)
    assert np.abs(got - q * (diag / np.abs(diag))[:, None, :]).max() < 1e-12
    eye = np.eye(dim)
    assert np.abs(got.conj().transpose(0, 2, 1) @ got - eye).max() < 1e-13
    assert np.abs(got @ got.conj().transpose(0, 2, 1) - eye).max() < 1e-13
    tri = got.conj().transpose(0, 2, 1) @ ginibre
    assert np.abs(np.tril(tri, -1)).max() < 1e-12
    diag = np.diagonal(tri, axis1=1, axis2=2)
    assert np.abs(diag.imag).max() < 1e-12
    assert diag.real.min() > 0
    # Q stays unitary when a column is nearly dependent on the earlier ones:
    # Gram-Schmidt needs its second projection pass for that (one pass loses
    # about 8 digits here)
    cols = z.reshape(-1, 2, dim, dim).copy()  # [sample, re/im, row, column]
    cols[..., -1] = cols[..., 0] + 1e-8 * cols[..., -1]
    got = oracle._haar_stack(cols.reshape(z.shape), dim)
    assert np.abs(got.conj().transpose(0, 2, 1) @ got - eye).max() < 1e-13


@pytest.mark.parametrize("dim", [16, 27])
def test_wide_gates_are_haar_unitary_bit_for_bit(dim):
    # from _QR_MIN_DIM on (4-body gates at d = 2, 3-body at d = 3) the stack
    # takes haar_unitary's own steps on the same Gaussians
    assert dim >= oracle._QR_MIN_DIM
    streams = [np.random.SeedSequence([dim, i]) for i in range(12)]
    z = np.array([np.random.default_rng(s).standard_normal(2 * dim * dim) for s in streams])
    want = np.array([haar_unitary(dim, np.random.default_rng(s)) for s in streams])
    for stack in (z, z.reshape(3, 4, -1)):  # (samples, steps) leading axes, as _batch_values passes them
        assert np.array_equal(oracle._haar_stack(stack, dim), want)


def test_sample_stats_welford():
    rng = np.random.default_rng(3)
    xs = rng.standard_normal(500)
    stats = SampleStats.of(xs)
    assert stats.n_samples == 500
    assert stats.mean == pytest.approx(np.mean(xs), abs=1e-12)
    assert stats.variance == pytest.approx(np.var(xs, ddof=1), abs=1e-12)


def test_estimate_moments_deterministic_and_chunk_independent(monkeypatch):
    g = chain_graph(3)
    part = Bipartition(g.vertex_set((0,)))
    a = part.a_set
    for proc in (FixedSequence(g, g.edges), UniformIID(g)):
        default = estimate_moments(g, proc, part, 2, 2, 600, seed=10)
        job = (g, proc, a, 2, 2, 10, 0, 50)
        whole = oracle._values_for_range(job)
        with monkeypatch.context() as m:
            m.setattr(oracle, "_BATCH_AMPLITUDES", 640)
            assert oracle._batch_size(g, 2) == 16
            small = estimate_moments(g, proc, part, 2, 2, 600, seed=10)
            for lo in (7, 32):  # a range need not start on a batch boundary
                values = oracle._values_for_range(job[:6] + (lo, 50))
                assert np.array_equal(values, whole[lo:])
        assert (small.mean, small.m2) == (default.mean, default.m2)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_wide_gate_values_do_not_depend_on_the_batch(k):
    # a sample alone in its batch normalises its gate columns over one
    # sample; a sum over a single column of 9 or 27 entries must still add
    # in the order it does for many samples, or the last bits move
    g = build_graph(4, [(0, 1, 2), (2, 3), (0, 3)], 3)
    a = g.vertex_set((0, 1))
    for proc in (UniformIID(g), FixedSequence(g, (g.edges[0], g.edges[1]))):
        whole = oracle._values_for_range((g, proc, a, k, 2, 19, 0, 40))
        alone = [oracle._values_for_range((g, proc, a, k, 2, 19, i, i + 1))[0] for i in range(40)]
        assert np.array_equal(whole, alone)


@pytest.mark.parametrize("alpha", [2, 3])
@pytest.mark.parametrize("kind", ["uniform", "markov", "fixed"])
def test_batched_values_match_per_sample_reference(monkeypatch, kind, alpha):
    # a mixed-size hypergraph (gates gathered per size) and K_4 (one gate
    # size: the Gaussians are the stack), cut into several batches, the last
    # one short but for the hypergraph at k = 5 (one sample per batch)
    monkeypatch.setattr(oracle, "_BATCH_AMPLITUDES", 640)
    kernel = (np.roll(np.eye(6), 1, axis=1) + np.roll(np.eye(6), 3, axis=1)) / 2  # e -> e+1, e+3
    markov = {3: ((0.2, 0.5, 0.3), ((0.1, 0.6, 0.3), (0.5, 0.0, 0.5), (0.3, 0.3, 0.4))),
              6: ((0.1, 0.2, 0.3, 0.1, 0.2, 0.1), tuple(map(tuple, kernel)))}
    for g in (build_graph(4, [(0, 1, 2), (2, 3), (0, 3)], 2), complete_graph(4)):
        e = g.edges
        proc = {
            "uniform": UniformIID(g),
            "markov": MarkovChain(g, *markov[g.n_edges]),
            "fixed": FixedSequence(g, (e[0], e[1], e[0], e[2])),
        }[kind]
        a = g.vertex_set((0, 1))
        seed, samples = 31, 50
        for k in (0, 5):
            got = oracle._values_for_range((g, proc, a, k, alpha, seed, 0, samples))
            want = []
            for i in range(samples):
                rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
                psi = product_state(4, 2)
                for edge in (g.edges[j] for j in draw_indices(proc, k, rng)):
                    psi = apply_gate(psi, 4, 2, edge, haar_unitary(2 ** len(edge), rng))
                want.append(renyi_moment(psi, 4, 2, a, alpha))
            assert got == pytest.approx(want, rel=1e-12, abs=0)


def _gate_steps_match_apply_gate(table: bool) -> None:
    # each gate step gathers the matrix apply_gate multiplies from its flat
    # positions, so the product must be apply_gate's, column for column: at
    # d = 3 a permuted column order moves the last bits of hundreds of
    # amplitudes here.  Each step covers the whole batch, then the samples
    # are split over two edges of one dimension, as a mixed step splits them
    g = build_graph(5, [(0, 1), (1, 3), (2, 4), (3, 4), (0, 2, 4)], 3)
    at_of = oracle._positions(g)
    assert all((strides is None) == table for _, strides, _ in at_of.values())
    rng = np.random.default_rng(2)
    b, n, d = 7, 5, 3
    psis = rng.standard_normal((b, d**n)) + 1j * rng.standard_normal((b, d**n))
    want = psis.copy()
    for pair in ((0, 0), (1, 1), (4, 4), (2, 2), (2, 2), (3, 3), (1, 1), (0, 3), (2, 1)):
        edges = np.array([pair[0]] * 4 + [pair[1]] * (b - 4))
        dim = d ** len(g.edges[pair[0]])
        gates = rng.standard_normal((b, dim, dim)) + 1j * rng.standard_normal((b, dim, dim))
        oracle._gate_step(psis, np.arange(b), at_of[dim], edges, gates)
        want = np.array([apply_gate(w, n, d, g.edges[e], u) for w, e, u in zip(want, edges, gates)])
        assert np.array_equal(psis, want)
    # a step on part of the batch leaves the other states as they are
    odd = np.arange(1, b, 2)
    gates = rng.standard_normal((len(odd), 9, 9)) + 1j * rng.standard_normal((len(odd), 9, 9))
    oracle._gate_step(psis, odd, at_of[9], np.zeros(len(odd), dtype=int), gates)
    want[odd] = [apply_gate(w, n, d, g.edges[0], u) for w, u in zip(want[odd], gates)]
    assert np.array_equal(psis, want)


def test_batched_gates_match_apply_gate_bit_for_bit():
    # 5 edges x 3^5 offsets fit the budget, so each edge keeps its whole table
    _gate_steps_match_apply_gate(table=True)


def test_gate_steps_past_the_table_budget_match_apply_gate_bit_for_bit(monkeypatch):
    # one offset short of the table: a step builds its edges' columns from their strides
    monkeypatch.setattr(oracle, "_BATCH_AMPLITUDES", 5 * 3**5 - 1)
    _gate_steps_match_apply_gate(table=False)


def test_oracle_memory_does_not_grow_with_the_edge_count():
    # past the table budget (120 edges x 2^16 offsets), _positions keeps each
    # edge's row offsets and strides, not its d^n / dim column offsets, so a
    # K_n holds far less than one state in them, and a run on K_16 (one
    # 2^16-amplitude sample per batch) peaks at a few states' bytes: the
    # gathered copy, its product and their indices
    state = 16 * 2**16
    g = complete_graph(16, 2)
    positions = oracle._positions(g).values()
    assert all(strides is not None for _, strides, _ in positions)
    held = sum(x.nbytes for rows, strides, _ in positions for x in (rows, strides))
    assert held < state / 100
    tracemalloc.start()
    try:
        estimate_moments(g, UniformIID(g), Bipartition(g.vertex_set(range(8))), 3, 2, 2, 0, workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * state


@pytest.mark.parametrize("alpha", [2, 3])
def test_a_cut_and_its_complement_read_the_same_moment(alpha):
    # Tr rho_A^alpha = Tr rho_B^alpha on a pure state; past n/2 the alpha = 2
    # readout takes the Gram matrix of the smaller side, the complement's
    g = chain_graph(10)
    for a in ((0, 1, 2, 3, 4, 5, 6, 7, 8), (1, 4, 6, 7, 8, 9), (0, 2, 3, 5, 6)):
        a = g.vertex_set(a)
        got, want = (oracle._values_for_range((g, UniformIID(g), x, 4, alpha, 9, 0, 40))
                     for x in (a, a.complement()))
        assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_readout_past_half_the_sites_holds_the_smaller_gram():
    # A = 11 of 12 sites: the 2^11 x 2^11 Gram matrices of A would be 1 GB
    # per batch of 15 samples; the complement's are 2 x 2
    g = chain_graph(12)
    tracemalloc.start()
    try:
        estimate_moments(g, UniformIID(g), Bipartition(g.vertex_set(range(11))), 4, 2, 30, 0, workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


# float.hex of (mean, m2) on K_5, A = {0, 1}, k = 6, 600 samples (two
# batches, the last one short; three of at most 256 when pinned), seed 166,
# as computed before the batch drew its Gaussians in place; any change to a
# random stream or to the order of the arithmetic moves them
PINNED_K5 = {
    ("fixed", 2): ("0x1.10c14cc9ca00ap-1", "0x1.398b1825b676ep+2"),
    ("fixed", 3): ("0x1.5ca0ed5b1603fp-2", "0x1.06d634d72b2fbp+3"),
    ("uniform", 2): ("0x1.1783af275a7c9p-1", "0x1.2a81e80842acep+3"),
    ("uniform", 3): ("0x1.7167217450c42p-2", "0x1.e20b0eaf5beeep+3"),
}


@pytest.mark.parametrize("kind, alpha", sorted(PINNED_K5))
def test_estimates_are_pinned_bit_for_bit(kind, alpha):
    g = complete_graph(5)
    e = g.edges
    part = Bipartition(g.vertex_set((0, 1)))
    proc = UniformIID(g)
    if kind == "fixed":
        proc = FixedSequence(g, (e[0], e[4], e[7], e[1], e[9], e[4]))
    stats = estimate_moments(g, proc, part, 6, alpha, 600, seed=166)
    assert (stats.mean.hex(), stats.m2.hex()) == PINNED_K5[kind, alpha]


# float.hex of (mean, m2), taken before step 0 read only column 0 of its gate
# and later steps gathered by flat positions; every sample's values must stay
# bit for bit.  The 4-vertex hypergraph at d = 3 has gates of dimension 27 and
# 9, so a UniformIID step holds two gate dimensions, step 0 included.  The
# k = 5 pins were taken again when gates of dimension 16 and more moved from
# Gram-Schmidt to LAPACK QR, which changes the last bits of their draws
HYPERGRAPH_D3 = {
    ("uniform", 0, 2): ("0x1.0000000000000p+0", "0x0.0p+0"),
    ("uniform", 0, 3): ("0x1.0000000000000p+0", "0x0.0p+0"),
    ("uniform", 1, 2): ("0x1.5edbe26d8640fp-1", "0x1.881d34c3e92cfp+3"),
    ("uniform", 1, 3): ("0x1.1c78d7118810dp-1", "0x1.7bb66e318eca6p+4"),
    ("uniform", 5, 2): ("0x1.237691549149cp-2", "0x1.2df8079b0100ap+1"),
    ("uniform", 5, 3): ("0x1.c4074c7887bc0p-4", "0x1.1ee4efa11a1f6p+1"),
    ("fixed", 0, 2): ("0x1.0000000000000p+0", "0x0.0p+0"),
    ("fixed", 0, 3): ("0x1.0000000000000p+0", "0x0.0p+0"),
    ("fixed", 1, 2): ("0x1.b295ab2a03521p-2", "0x1.7245c9a920318p-2"),
    ("fixed", 1, 3): ("0x1.a898e38085d13p-3", "0x1.efd1036c11867p-2"),
    ("fixed", 5, 2): ("0x1.c80eaf8845c92p-3", "0x1.e792c241ab0d5p-5"),
    ("fixed", 5, 3): ("0x1.fa59ae88f8936p-5", "0x1.aa15fd369ee12p-6"),
}


@pytest.mark.parametrize("kind, k, alpha", sorted(HYPERGRAPH_D3))
def test_hypergraph_estimates_are_pinned_bit_for_bit(kind, k, alpha):
    g = build_graph(4, [(0, 1, 2), (2, 3), (0, 3)], 3)
    e = g.edges
    proc = UniformIID(g) if kind == "uniform" else FixedSequence(g, (e[0], e[2], e[1], e[0]))
    stats = estimate_moments(g, proc, Bipartition(g.vertex_set((0, 1))), k, alpha, 200, seed=19)
    assert (stats.mean.hex(), stats.m2.hex()) == HYPERGRAPH_D3[kind, k, alpha]


def test_single_edge_check_is_pinned_bit_for_bit():
    # the reproduce-all oracle line: one gate, 20,000 samples, seed 7
    g = build_graph(2, [(0, 1)], 2)
    stats = estimate_moments(g, FixedSequence(g, g.edges), Bipartition(g.vertex_set((0,))), 1, 2, 20000, 7)
    assert (stats.mean.hex(), stats.m2.hex()) == ("0x1.99792bdadbd38p-1", "0x1.597fd2e3a9df0p+8")


@pytest.mark.parametrize("alpha, want", [
    (2, ("0x1.165f63c60342ep-1", "0x1.9405ae121d346p+2")),
    (3, ("0x1.6a5e8bf694afbp-2", "0x1.58378f346447ep+3")),
])
def test_markov_estimates_are_pinned_bit_for_bit(alpha, want):
    g = complete_graph(4)
    kernel = (np.roll(np.eye(6), 1, axis=1) + np.roll(np.eye(6), 3, axis=1)) / 2  # e -> e+1, e+3
    proc = MarkovChain(g, (0.1, 0.2, 0.3, 0.1, 0.2, 0.1), tuple(map(tuple, kernel)))
    stats = estimate_moments(g, proc, Bipartition(g.vertex_set((0, 1))), 6, alpha, 600, seed=23)
    assert (stats.mean.hex(), stats.m2.hex()) == want


def test_two_worker_estimate_is_pinned_bit_for_bit():
    g = build_graph(4, [(0, 1, 2), (2, 3), (0, 3)], 2)
    assert 4096 >= oracle._POOL_MIN_SAMPLES
    stats = estimate_moments(g, UniformIID(g), Bipartition(g.vertex_set((0, 1))), 5, 2, 4096, 29, workers=2)
    assert (stats.mean.hex(), stats.m2.hex()) == ("0x1.153e498ae3ba6p-1", "0x1.dfe8455be0f37p+5")


@pytest.mark.parametrize("kind", ["uniform", "fixed"])
def test_worker_count_does_not_change_estimates(kind):
    g = complete_graph(4)
    part = Bipartition(g.vertex_set((0, 1)))
    proc = UniformIID(g) if kind == "uniform" else FixedSequence(g, g.edges)
    samples = 4096
    assert samples >= oracle._POOL_MIN_SAMPLES  # so two or three workers really start a pool
    one = estimate_moments(g, proc, part, 6, 2, samples, seed=5, workers=1)
    for workers in (2, 3):  # three split the samples 1365, 1365, 1366, off the batch boundaries
        many = estimate_moments(g, proc, part, 6, 2, samples, seed=5, workers=workers)
        assert (one.n_samples, one.mean, one.m2) == (many.n_samples, many.mean, many.m2)


def test_pool_has_no_more_workers_than_batches(monkeypatch):
    # a stand-in pool records its size and maps in this process, so asking
    # for 10,000 workers starts no process
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    g = complete_graph(4)
    part = Bipartition(g.vertex_set((0, 1)))
    proc = UniformIID(g)
    one = estimate_moments(g, proc, part, 6, 2, 4096, seed=5, workers=1)
    many = estimate_moments(g, proc, part, 6, 2, 4096, seed=5, workers=10_000)
    assert sizes == [-(-4096 // oracle._batch_size(g, 6))]
    assert (one.n_samples, one.mean, one.m2) == (many.n_samples, many.mean, many.m2)


def test_single_worker_runs_load_no_pool_and_no_numpy_ma(tmp_path):
    # a fresh interpreter, as the CLI starts: a command that draws nothing
    # (single-edge) loads no numpy.random; the pool's modules load only when
    # a pool starts, and np.unique (which imports numpy.ma) is not called; the
    # hypergraph's steps take gates of two sizes.  numpy < 2 imports numpy.ma
    # and numpy.random itself, so a run must add none of the modules to
    # those numpy loaded
    code = """if True:
        import contextlib, io, json, sys
        import numpy
        watched = sys.argv[2:]
        loaded = [m for m in watched if m in sys.modules]
        from rqcgraph import cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["single-edge", "--d", "3"]) == 0
        drawless = [m for m in watched if m in sys.modules]
        from rqcgraph.graphs import Bipartition, UniformIID, build_graph, complete_graph
        from rqcgraph.oracle import estimate_moments
        for g, k in ((complete_graph(5), 6), (build_graph(4, [(0, 1, 2), (2, 3), (0, 3)], 2), 5)):
            estimate_moments(g, UniformIID(g), Bipartition(g.vertex_set((0, 1))), k, 2, 64, 3, workers=1)
        cli.reproduce_all(sys.argv[1], quick=True)
        print(json.dumps([loaded, drawless, [m for m in watched if m in sys.modules]]))
    """
    unused = ["multiprocessing", "concurrent.futures.process", "numpy.ma"]
    src = os.path.dirname(os.path.dirname(oracle.__file__))
    env = dict(os.environ, RQCGRAPH_WORKERS="1", PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", code, str(tmp_path), *unused, "numpy.random"],
                         env=env, capture_output=True, text=True, check=True)
    loaded, drawless, after = json.loads(run.stdout.splitlines()[-1])
    assert set(loaded) <= {"numpy.ma", "numpy.random"}
    assert drawless == loaded
    assert set(after) == set(loaded) | {"numpy.random"}  # the runs that draw load it


def test_markov_estimate_agrees_with_exact():
    # equally likely alternating edge paths: exact 0.6816; averaging the
    # per-step marginal mixtures would give 0.7467
    g = chain_graph(3)
    part = Bipartition(g.vertex_set((0,)))
    proc = MarkovChain(g, (0.5, 0.5), ((0.0, 1.0), (1.0, 0.0)))
    stats = estimate_moments(g, proc, part, 4, 2, 4000, seed=8)
    from rqcgraph.swapengine import evolve

    exact = evolve(g, part, proc, 4).final
    assert abs(stats.mean - exact) < 3.5 * stats.stderr


def test_estimate_moments_agrees_with_exact():
    g = complete_graph(3)
    part = Bipartition(g.vertex_set((0,)))
    proc = FixedSequence(g, (g.edges[0], g.edges[2]))
    stats = estimate_moments(g, proc, part, 2, 2, 4000, seed=2)
    from rqcgraph.swapengine import evolve

    exact = evolve(g, part, proc, 2).final
    assert abs(stats.mean - exact) < 3.5 * stats.stderr


def test_estimate_moments_validation(monkeypatch):
    g = chain_graph(3)
    part = Bipartition(g.vertex_set((0,)))
    for samples in (1, 100.5, "100"):
        with pytest.raises(ValidationError, match="samples"):
            estimate_moments(g, UniformIID(g), part, 2, 2, samples, seed=0)
    for k in (-1, 2.0):
        with pytest.raises(ValidationError, match="steps"):
            estimate_moments(g, UniformIID(g), part, k, 2, 100, seed=0)
    for alpha in (0, -1, 2.0, None):
        with pytest.raises(ValidationError):
            estimate_moments(g, UniformIID(g), part, 2, alpha, 10, seed=0)
    for seed in (-1, -(2**40), 1.5, None):
        with pytest.raises(ValidationError):
            estimate_moments(g, UniformIID(g), part, 2, 2, 10, seed=seed)
    # numpy integers are integers
    want = estimate_moments(g, UniformIID(g), part, 2, 3, 10, seed=4)
    got = estimate_moments(g, UniformIID(g), part, 2, np.int64(3), 10, seed=np.uint32(4))
    assert (got.mean, got.m2) == (want.mean, want.m2)
    for workers in ("two", "0", "-1", "1.5", ""):
        monkeypatch.setenv("RQCGRAPH_WORKERS", workers)
        with pytest.raises(ValidationError, match="RQCGRAPH_WORKERS"):
            estimate_moments(g, UniformIID(g), part, 2, 2, 10, seed=0)
    for workers in ("two", 0, -3, 2.5):
        with pytest.raises(ValidationError, match="workers"):
            estimate_moments(g, UniformIID(g), part, 2, 2, 10, seed=0, workers=workers)
    # a process on another graph would index edges the chain does not have
    k3 = complete_graph(3)
    for proc in (UniformIID(k3), FixedSequence(k3, (k3.edges[1],))):
        with pytest.raises(ValidationError, match="another graph"):
            estimate_moments(g, proc, part, 2, 2, 10, seed=0)


def test_estimate_moments_rejects_a_partition_on_another_graph():
    # a 5-vertex partition on the 3-site chain would trace out axes the
    # state does not have
    g = chain_graph(3)
    with pytest.raises(ValidationError, match="partition is built on another graph"):
        estimate_moments(g, UniformIID(g), Bipartition(VertexSet(0b10000, 5)), 2, 2, 10, seed=0)


@pytest.mark.parametrize(
    "seed",
    [0, 7, 166, 2**32 - 1, 2**32, 2**100 + 3, 2**200 + 1],
    ids=["0", "7", "166", "2^32-1", "2^32", "2^100+3", "2^200+1"],
)
def test_pcg64_states_match_numpy_seed_sequence(seed):
    # 2^100 + 3 fills the 4-word pool; 2^200 + 1 also runs the mixing pass
    # for entropy past the pool; from i = 2^32 on, i is two words;
    # integers(0, 7, 5) reads numpy's 32-bit buffer, which each stream must
    # start empty
    for lo, hi in ((0, 300), (4096, 4352), (2**32 - 2, 2**32 + 2)):
        seen = []
        for j, rng in enumerate(oracle._streams(seed, lo, hi)):
            ref = np.random.default_rng(np.random.SeedSequence([seed, lo + j]))
            assert rng.bit_generator.state == ref.bit_generator.state
            assert np.array_equal(rng.standard_normal(5), ref.standard_normal(5))
            assert np.array_equal(rng.integers(0, 7, 5), ref.integers(0, 7, 5))
            seen.append(j)
        assert seen == list(range(hi - lo))


@pytest.mark.parametrize("seed", [0, 166, 2**32, 2**200 + 1])
def test_streams_stay_apart_when_held_together(seed):
    # one feeder seeds a batch's generators; collected first and drawn from
    # last to first, each must still be its own sample's stream, and a
    # one-sample range (the redraw path) must give exactly one generator
    for lo, hi in ((0, 300), (4096, 4352), (2**32 - 2, 2**32 + 2), (9, 10)):
        rngs = list(oracle._streams(seed, lo, hi))
        assert len(rngs) == hi - lo
        for j in reversed(range(hi - lo)):
            ref = np.random.default_rng(np.random.SeedSequence([seed, lo + j]))
            assert rngs[j].bit_generator.state == ref.bit_generator.state
            assert np.array_equal(rngs[j].standard_normal(5), ref.standard_normal(5))
            assert np.array_equal(rngs[j].integers(0, 7, 5), ref.integers(0, 7, 5))


@pytest.mark.parametrize("n", [1, 2, 10, 3 * 10**9])
@pytest.mark.parametrize("k", [0, 1, 5, 6])
def test_uniform_draws_match_numpy_integers(n, k):
    # the batch decode of each stream's raw words gives Generator.integers(0,
    # n, size=k) on every row it does not flag; at n = 3e9 numpy rejects a
    # draw with probability about 0.3, and each stream where it does must be
    # flagged
    seed, lo, hi = 12, 5, 205
    width = (k + 1) // 2 if n > 1 else 0  # numpy draws no words at n = 1
    words = np.array([np.random.PCG64(np.random.SeedSequence([seed, i])).random_raw(width)
                      for i in range(lo, hi)], dtype=np.uint64)
    got, flagged = oracle._uniform_steps(words, n, k)
    assert got.shape == (hi - lo, k)
    rejected = []  # streams where numpy rejected a draw, so that the first k halves do not give it
    for j in range(hi - lo):
        want = np.random.default_rng(np.random.SeedSequence([seed, lo + j])).integers(0, n, size=k)
        first = np.random.PCG64(np.random.SeedSequence([seed, lo + j])).random_raw(k).tolist()
        halves = [h for w in first for h in (w & 0xFFFFFFFF, w >> 32)][:k]
        if [h * n >> 32 for h in halves] != want.tolist():
            rejected.append(j)
        if j not in flagged:
            assert np.array_equal(got[j], want)
    assert set(rejected) <= set(flagged)
    assert (len(rejected) > 0) == (n == 3 * 10**9 and k > 0)


@pytest.mark.parametrize("k", [1, 5, 6])
def test_redrawn_rows_keep_their_values(monkeypatch, k):
    # a row the decode flags draws its edges and Gaussians again from its own
    # stream; with every row flagged, its decoded edges made wrong and its
    # first Gaussians NaN, the values must still be the unflagged ones bit
    # for bit, in every batch (no batch here holds a single sample)
    monkeypatch.setattr(oracle, "_BATCH_AMPLITUDES", 640)
    g = complete_graph(5)
    job = (g, UniformIID(g), g.vertex_set((0, 1)), k, 2, 166, 0, 60)
    want = oracle._values_for_range(job)
    decode, streams = oracle._uniform_steps, oracle._streams

    class Spoilt:  # a batch's stream, its Gaussians NaN
        def __init__(self, rng):
            self.bit_generator = rng.bit_generator

        def standard_normal(self, out):
            out[:] = np.nan

    def flag_every_row(words, n, k):
        return (decode(words, n, k)[0] + 1) % n, list(range(len(words)))

    def spoilt_batches(seed, lo, hi):
        return streams(seed, lo, hi) if hi - lo == 1 else map(Spoilt, streams(seed, lo, hi))

    monkeypatch.setattr(oracle, "_uniform_steps", flag_every_row)
    monkeypatch.setattr(oracle, "_streams", spoilt_batches)
    assert np.array_equal(oracle._values_for_range(job), want)


def test_capacity_error_on_large_state():
    g = build_graph(30, [(i, i + 1) for i in range(29)], 2)
    part = Bipartition(g.vertex_set((0,)))
    with pytest.raises(CapacityError):
        estimate_moments(g, UniformIID(g), part, 1, 2, 10, seed=0)


def test_capacity_error_past_64_vertices():
    # a 100-vertex graph builds; its 2^100 amplitudes are past MAX_AMPLITUDES
    g = chain_graph(100)
    with pytest.raises(CapacityError, match="2\\^100 amplitudes"):
        estimate_moments(g, UniformIID(g), Bipartition(g.vertex_set(range(50))), 1, 2, 10, seed=0)
