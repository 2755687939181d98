import numpy as np
import pytest

from rqcgraph.errors import CapacityError, ValidationError
from rqcgraph import oracle
from rqcgraph.graphs import (
    Bipartition,
    FixedSequence,
    MarkovChain,
    UniformIID,
    build_graph,
    chain_graph,
    complete_graph,
    draw_sequence,
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
        job = (g, proc, a, 2, 2, 10, 0, 50, None)
        whole = oracle._values_for_range(job)
        with monkeypatch.context() as m:
            m.setattr(oracle, "_BATCH_AMPLITUDES", 640)
            assert oracle._batch_size(g, 2) == 16
            small = estimate_moments(g, proc, part, 2, 2, 600, seed=10)
            for lo in (7, 32):  # a range need not start on a batch boundary
                values = oracle._values_for_range(job[:6] + (lo, 50, None))
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
            got = oracle._values_for_range((g, proc, a, k, alpha, seed, 0, samples, None))
            want = []
            for i in range(samples):
                rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
                psi = product_state(4, 2)
                for edge in draw_sequence(proc, k, rng):
                    psi = apply_gate(psi, 4, 2, edge, haar_unitary(2 ** len(edge), rng))
                want.append(renyi_moment(psi, 4, 2, a, alpha))
            assert got == pytest.approx(want, rel=1e-12, abs=0)


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
    # the fiducial must be a unit vector of d^n amplitudes
    for fiducial in (np.ones(4) / 2, np.ones(8), np.full(8, np.nan)):
        with pytest.raises(ValidationError, match="fiducial"):
            estimate_moments(g, UniformIID(g), part, 2, 2, 10, seed=0, fiducial=fiducial)
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


@pytest.mark.parametrize(
    "seed",
    [0, 7, 166, 2**32 - 1, 2**32, 2**100 + 3, 2**200 + 1],
    ids=["0", "7", "166", "2^32-1", "2^32", "2^100+3", "2^200+1"],
)
def test_pcg64_states_match_numpy_seed_sequence(seed):
    # 2^100 + 3 fills the 4-word pool; 2^200 + 1 also runs the mixing pass
    # for entropy past the pool; from i = 2^32 on, i is two words
    bits = np.random.PCG64(0)
    rng = np.random.Generator(bits)
    for lo, hi in ((0, 300), (4096, 4352), (2**32 - 2, 2**32 + 2)):
        for i, state in zip(range(lo, hi), oracle._pcg64_states(seed, lo, hi)):
            ref = np.random.default_rng(np.random.SeedSequence([seed, i]))
            bits.state = state
            assert np.array_equal(rng.standard_normal(5), ref.standard_normal(5))
            assert np.array_equal(rng.integers(0, 7, 5), ref.integers(0, 7, 5))


def test_capacity_error_on_large_state():
    g = build_graph(30, [(i, i + 1) for i in range(29)], 2)
    part = Bipartition(g.vertex_set((0,)))
    with pytest.raises(CapacityError):
        estimate_moments(g, UniformIID(g), part, 1, 2, 10, seed=0)


def test_custom_fiducial_state():
    # a maximally mixed-looking fiducial: |+>^n still a product state, purity
    # statistics of a single straddling gate are unchanged
    g = build_graph(2, [(0, 1)], 2)
    part = Bipartition(g.vertex_set((0,)))
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    psi = product_state(2, 2, local=plus.astype(complex))
    stats = estimate_moments(
        g, FixedSequence(g, g.edges), part, 1, 2, 4000, seed=4, fiducial=psi
    )
    assert abs(stats.mean - 0.8) < 4 * stats.stderr
    # a real-valued fiducial state is evolved as a complex one
    real = estimate_moments(
        g, FixedSequence(g, g.edges), part, 1, 2, 4000, seed=4, fiducial=psi.real.copy()
    )
    assert (real.mean, real.m2) == (stats.mean, stats.m2)
