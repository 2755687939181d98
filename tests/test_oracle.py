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


@pytest.mark.parametrize("dim", [4, 8, 9])
def test_haar_stack_is_the_phase_fixed_qr_factor(dim):
    # on the same Gaussians, Gram-Schmidt gives haar_unitary's construction:
    # the Q of A = QR with diag(R) real and positive, so the draw is Haar
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
    # the second projection pass keeps Q unitary when a column is nearly
    # dependent on the earlier ones (one pass loses about 8 digits here)
    cols = z.reshape(-1, 2, dim, dim).copy()  # [sample, re/im, row, column]
    cols[..., -1] = cols[..., 0] + 1e-8 * cols[..., -1]
    got = oracle._haar_stack(cols.reshape(z.shape), dim)
    assert np.abs(got.conj().transpose(0, 2, 1) @ got - eye).max() < 1e-13


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


def test_batched_gates_match_apply_gate_bit_for_bit():
    # the batch keeps the axis order of its last gate, so each gate is one
    # transpose; the product must still be apply_gate's, column for column:
    # at d = 3 a permuted column order moves the last bits of hundreds of
    # amplitudes here
    g = build_graph(5, [(0, 1), (1, 3), (2, 4), (3, 4), (0, 2, 4)], 3)
    rng = np.random.default_rng(2)
    b, n, d = 7, 5, 3
    psis = rng.standard_normal((b, d**n)) + 1j * rng.standard_normal((b, d**n))
    want = psis.copy()
    order = tuple(range(n))
    for e in (0, 1, 4, 2, 2, 3, 1):
        x = g.edges[e]
        dim = d ** len(x)
        gates = rng.standard_normal((b, dim, dim)) + 1j * rng.standard_normal((b, dim, dim))
        psis, order = oracle._apply_gate_batch(psis, d, order, x, gates)
        assert order[: len(x)] == x.indices()
        want = np.array([apply_gate(w, n, d, x, u) for w, u in zip(want, gates)])
    assert np.array_equal(oracle._reorder(psis, d, order, range(n)).reshape(b, -1), want)


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

    monkeypatch.setattr(oracle, "ProcessPoolExecutor", SerialPool)
    g = complete_graph(4)
    part = Bipartition(g.vertex_set((0, 1)))
    proc = UniformIID(g)
    one = estimate_moments(g, proc, part, 6, 2, 4096, seed=5, workers=1)
    many = estimate_moments(g, proc, part, 6, 2, 4096, seed=5, workers=10_000)
    assert sizes == [-(-4096 // oracle._batch_size(g, 6))]
    assert (one.n_samples, one.mean, one.m2) == (many.n_samples, many.mean, many.m2)


def test_markov_estimate_agrees_with_exact():
    # equally likely alternating edge paths: exact 0.6816; averaging the
    # per-step marginal mixtures would give 0.7467
    g = chain_graph(3)
    part = Bipartition(g.vertex_set((0,)))
    proc = MarkovChain(g, (0.5, 0.5), ((0.0, 1.0), (1.0, 0.0)))
    stats = estimate_moments(g, proc, part, 4, 2, 4000, seed=8)
    from rqcgraph.swapengine import evolve

    exact = evolve(g, part, proc, 4, mode="expectation").final
    assert abs(stats.mean - exact) < 3.5 * stats.stderr


def test_estimate_moments_agrees_with_exact():
    g = complete_graph(3)
    part = Bipartition(g.vertex_set((0,)))
    proc = FixedSequence(g, (g.edges[0], g.edges[2]))
    stats = estimate_moments(g, proc, part, 2, 2, 4000, seed=2)
    from rqcgraph.swapengine import evolve

    exact = evolve(g, part, proc, 2, mode="expectation").final
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


@pytest.mark.parametrize("n", [1, 2, 10, 3 * 10**9])
@pytest.mark.parametrize("k", [0, 1, 5, 6])
def test_uniform_draws_match_numpy_integers(n, k):
    # the batch decode of the raw words gives Generator.integers(0, n,
    # size=k) stream for stream, and leaves each stream where its Gaussians
    # start; at n = 3e9 a draw is rejected with probability about 0.3, so
    # the exact redraw runs
    seed, lo, hi, width = 12, 5, 205, 8
    z = np.empty((hi - lo, width))
    got = oracle._uniform_draws(seed, lo, hi, n, k, z)
    assert got.shape == (hi - lo, k)
    rejected = 0  # streams where numpy rejected a draw, so that the first k halves do not give it
    for i in range(lo, hi):
        ref = np.random.default_rng(np.random.SeedSequence([seed, i]))
        want = ref.integers(0, n, size=k)
        assert np.array_equal(got[i - lo], want)
        assert np.array_equal(z[i - lo], ref.standard_normal(width))
        words = np.random.PCG64(np.random.SeedSequence([seed, i])).random_raw(k).tolist()
        halves = [h for w in words for h in (w & 0xFFFFFFFF, w >> 32)][:k]
        rejected += [h * n >> 32 for h in halves] != want.tolist()
    assert (rejected > 0) == (n == 3 * 10**9 and k > 0)


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
