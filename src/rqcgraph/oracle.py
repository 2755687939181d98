"""Brute-force Monte Carlo statevector oracle for Haar-averaged moments.

Dense amplitudes and exact Haar gates via Ginibre + QR, on one batched sample
path with its own RNG stream per sample, the stream of SeedSequence([seed, i]);
a batch computes the PCG64 states of its streams in one vectorised pass and
draws them through one generator.  Per-sample values are
gathered in sample order and reduced as one array (SampleStats.of), so results
are bit-identical however the samples are batched or split over workers.
haar_unitary, apply_gate and renyi_moment do the same steps for one sample;
tests use them as the reference.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ValidationError, int_at_least
from .graphs import Bipartition, EdgeProcess, FixedSequence, Graph, VertexSet, draw_sequence

MAX_AMPLITUDES = 1 << 24
_BATCH = 256  # samples per batch, fewer when states are large
_BATCH_AMPLITUDES = 1 << 16  # complex numbers of state and gates per batch, roughly
_POOL_MIN_SAMPLES = 4096  # fewer samples than this never start a process pool

# SeedSequence's pool hash (numpy/random/bit_generator.pyx) and PCG64's
# seeding, pcg_setseq_128_srandom_r (O'Neill, "PCG", HMC-CS-2014-0905).
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Exact Haar draw: complex Ginibre, QR, column phases fixed from diag(R)."""
    if dim < 2:
        raise ValidationError(f"unitary dimension must be >= 2, got {dim}")
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def product_state(n: int, d: int, local: np.ndarray | None = None) -> np.ndarray:
    """Totally factorized fiducial state; defaults to |0...0>."""
    if local is None:
        local = np.zeros(d, dtype=complex)
        local[0] = 1.0
    psi = np.array([1.0 + 0j])
    for _ in range(n):
        psi = np.kron(psi, local)
    return psi


def apply_gate(psi: np.ndarray, n: int, d: int, x: VertexSet, u: np.ndarray) -> np.ndarray:
    """Apply a unitary supported on the vertices of x; axis i is vertex i."""
    m = len(x)
    if u.shape != (d**m, d**m):
        raise ValidationError(
            f"gate shape {u.shape} does not match edge of {m} qudits at d={d}"
        )
    axes = x.indices()
    t = psi.reshape((d,) * n)
    t = np.moveaxis(t, axes, range(m))
    t = (u @ t.reshape(d**m, -1)).reshape((d,) * n)
    t = np.moveaxis(t, range(m), axes)
    return t.reshape(-1)


def reduced_density(psi: np.ndarray, n: int, d: int, a: VertexSet) -> np.ndarray:
    """Partial trace over the complement of a, by index-split reshaping."""
    axes = a.indices()
    m = len(axes)
    t = np.moveaxis(psi.reshape((d,) * n), axes, range(m))
    mat = t.reshape(d**m, -1)
    return mat @ mat.conj().T


def renyi_moment(psi: np.ndarray, n: int, d: int, a: VertexSet, alpha: int) -> float:
    """Tr(rho_A^alpha); Frobenius shortcut at alpha=2, eigenvalues otherwise."""
    if alpha < 1:
        raise ValidationError(f"Renyi order must be >= 1, got {alpha}")
    rho = reduced_density(psi, n, d, a)
    if alpha == 1:
        return float(np.trace(rho).real)
    if alpha == 2:
        return float(np.vdot(rho, rho).real)
    evals = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    return float(np.sum(evals**alpha))


@dataclass(frozen=True)
class SampleStats:
    """Sample count, mean and sum of squared deviations m2 of per-sample values."""

    n_samples: int
    mean: float
    m2: float

    @classmethod
    def of(cls, values: np.ndarray) -> "SampleStats":
        mean = float(np.mean(values))
        return cls(len(values), mean, float(np.sum((values - mean) ** 2)))

    @property
    def variance(self) -> float:
        return self.m2 / (self.n_samples - 1) if self.n_samples > 1 else 0.0

    @property
    def stderr(self) -> float:
        return float(np.sqrt(self.variance / self.n_samples)) if self.n_samples else 0.0


def _haar_stack(z: np.ndarray, dim: int) -> np.ndarray:
    """haar_unitary applied to a stack of rows, each 2*dim^2 Gaussians (real, then imaginary)."""
    re = z[:, : dim * dim].reshape(-1, dim, dim)
    im = z[:, dim * dim :].reshape(-1, dim, dim)
    q, r = np.linalg.qr((re + 1j * im) / np.sqrt(2))
    diag = np.diagonal(r, axis1=1, axis2=2)
    return q * (diag / np.abs(diag))[:, None, :]


def _batch_size(g: Graph, k: int) -> int:
    """Samples per batch: _BATCH, cut so that states plus Gaussians stay near _BATCH_AMPLITUDES."""
    max_dim = max(g.d ** len(e) for e in g.edges)
    per_sample = g.d**g.n_vertices + k * max_dim**2
    return max(1, min(_BATCH, _BATCH_AMPLITUDES // per_sample))


def _uint32_words(n: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int, as SeedSequence splits it."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hash_constants(init: int, mult: int):
    """(xor, multiplier) of each successive round of SeedSequence's hash."""
    while True:
        nxt = init * mult & _MASK32
        yield init, nxt
        init = nxt


def _hashmix(v: np.ndarray, consts) -> np.ndarray:
    x, m = next(consts)
    v = (v ^ x) * m
    return v ^ (v >> 16)


def _pcg64_states(seed: int, lo: int, hi: int) -> list[dict]:
    """PCG64 states of SeedSequence([seed, i]) for i in lo..hi-1, in one pass.

    Each entry equals default_rng(SeedSequence([seed, i])).bit_generator.state.
    The hash runs on uint32 arrays across the batch: the words of seed, then
    those of i, fill the 4-word pool, words past the fourth are mixed in after
    it, and generate_state(4, uint64) gives (initstate, initseq) for PCG64's
    srandom: state 0, inc = 2 initseq + 1, step, add initstate, step.
    """
    if lo < 1 << 32 < hi:  # i takes a second word from 2^32 on
        return _pcg64_states(seed, lo, 1 << 32) + _pcg64_states(seed, 1 << 32, hi)
    idx = np.arange(lo, hi, dtype=np.uint64)
    entropy = [np.full(hi - lo, w, dtype=np.uint32) for w in _uint32_words(seed)]
    entropy.append((idx & _MASK32).astype(np.uint32))
    if lo >= 1 << 32:
        entropy.append((idx >> 32).astype(np.uint32))
    consts = _hash_constants(_INIT_A, _MULT_A)
    zero = np.zeros(hi - lo, dtype=np.uint32)
    pool = [_hashmix(entropy[j] if j < len(entropy) else zero, consts) for j in range(4)]

    def mix_in(dst: int, v: np.ndarray) -> None:
        r = pool[dst] * _MIX_MULT_L - _hashmix(v, consts) * _MIX_MULT_R
        pool[dst] = r ^ (r >> 16)

    for src in range(4):
        for dst in range(4):
            if dst != src:
                mix_in(dst, pool[src])
    for word in entropy[4:]:
        for dst in range(4):
            mix_in(dst, word)
    consts = _hash_constants(_INIT_B, _MULT_B)
    out = [_hashmix(pool[j % 4], consts).astype(np.uint64) for j in range(8)]
    states = []
    for s0, s1, q0, q1 in zip(*((out[2 * j] | out[2 * j + 1] << 32).tolist() for j in range(4))):
        inc = ((q0 << 64 | q1) << 1 | 1) & _MASK128
        state = ((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _MASK128
        states.append({
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        })
    return states


def _batch_values(g, draw, k, a, alpha, seed, lo, hi, base) -> np.ndarray:
    """Tr(rho_A^alpha) of samples lo..hi-1, as one batch.

    Sample i draws its edge indices with draw(rng), then all its Gaussians in
    one call, from the stream of SeedSequence([seed, i]).  Each step QR-factors
    one gate stack per gate dimension and applies it edge by edge.
    """
    n, d = g.n_vertices, g.d
    dims = np.array([d ** len(e) for e in g.edges])
    width = (2 * dims**2).tolist()
    steps, gauss = [], []
    bits = np.random.PCG64(0)
    rng = np.random.Generator(bits)
    for state in _pcg64_states(seed, lo, hi):
        bits.state = state
        steps.append(draw(rng))
        gauss.append(rng.standard_normal(sum(width[e] for e in steps[-1])))
    b = hi - lo
    steps = np.array(steps, dtype=int).reshape(b, k)
    sizes = 2 * dims[steps] ** 2
    offsets = (np.cumsum(sizes) - sizes.ravel()).reshape(b, k)  # into z, sample-major
    z = np.concatenate(gauss)
    psis = np.broadcast_to(base, (b,) + base.shape).astype(complex)
    for t in range(k):
        step_dims = dims[steps[:, t]]
        for dim in np.unique(step_dims):
            rows = np.flatnonzero(step_dims == dim)
            gates = _haar_stack(z[offsets[rows, t, None] + np.arange(2 * dim * dim)], dim)
            for e in np.unique(steps[rows, t]):
                sel = steps[rows, t] == e
                psis[rows[sel]] = _apply_gate_batch(psis[rows[sel]], n, d, g.edges[e], gates[sel])
    return _renyi_batch(psis, n, d, a, alpha)


def _values_for_range(args) -> np.ndarray:
    """Per-sample values of samples lo..hi-1; lo is a multiple of the batch size."""
    g, proc, a, k, alpha, seed, lo, hi, fiducial = args
    index = {e.bits: i for i, e in enumerate(g.edges)}
    fixed = None
    if isinstance(proc, FixedSequence):
        fixed = [index[e.bits] for e in draw_sequence(proc, k, np.random.default_rng(0))]

    def draw(rng: np.random.Generator) -> list[int]:
        return fixed if fixed is not None else [index[e.bits] for e in draw_sequence(proc, k, rng)]

    base = product_state(g.n_vertices, g.d) if fiducial is None else fiducial
    batch = _batch_size(g, k)
    return np.concatenate([
        _batch_values(g, draw, k, a, alpha, seed, s, min(s + batch, hi), base)
        for s in range(lo, hi, batch)
    ])


def estimate_moments(
    g: Graph,
    proc: EdgeProcess,
    p: Bipartition,
    k: int,
    alpha: int,
    samples: int,
    seed: int,
    fiducial: np.ndarray | None = None,
    workers: int | None = None,
) -> SampleStats:
    """Monte Carlo mean/variance of Tr(rho_A^alpha) over the circuit ensemble.

    Sample i uses the RNG stream SeedSequence([seed, i]) for both its edge
    sequence and its Haar gates, and the per-sample values are gathered in
    sample order and reduced as one array, so the result is bit-identical for
    every worker count.  alpha must be an integer >= 1 and seed a
    non-negative integer; numpy integers are accepted.  workers defaults to
    RQCGRAPH_WORKERS, which must then be an integer >= 1 (default 1).
    """
    if g.d**g.n_vertices > MAX_AMPLITUDES:
        raise CapacityError(
            f"{g.d}^{g.n_vertices} amplitudes exceed the {MAX_AMPLITUDES} cap"
        )
    if samples < 2:
        raise ValidationError(f"need at least 2 samples, got {samples}")
    if k < 0:
        raise ValidationError(f"steps must be >= 0, got {k}")
    alpha = int_at_least(alpha, 1, "Renyi order")
    seed = int_at_least(seed, 0, "seed")
    if workers is None:
        raw = os.environ.get("RQCGRAPH_WORKERS", "1")
        workers = int_at_least(int(raw) if raw.strip().isdecimal() else raw, 1, "RQCGRAPH_WORKERS")
    job = (g, proc, p.a_set, k, alpha, seed, 0, samples, fiducial)
    if workers <= 1 or samples < _POOL_MIN_SAMPLES:
        return SampleStats.of(_values_for_range(job))
    batch = _batch_size(g, k)
    share = batch * -(-samples // (batch * workers))
    jobs = [job[:6] + (lo, min(lo + share, samples), fiducial) for lo in range(0, samples, share)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        values = np.concatenate(list(pool.map(_values_for_range, jobs)))
    return SampleStats.of(values)


def _apply_gate_batch(
    psis: np.ndarray, n: int, d: int, x: VertexSet, gates: np.ndarray
) -> np.ndarray:
    b = psis.shape[0]
    m = len(x)
    axes = [i + 1 for i in x.indices()]
    t = psis.reshape((b,) + (d,) * n)
    t = np.moveaxis(t, axes, range(1, m + 1))
    t = np.matmul(gates, t.reshape(b, d**m, -1)).reshape((b,) + (d,) * n)
    t = np.moveaxis(t, range(1, m + 1), axes)
    return t.reshape(b, -1)


def _renyi_batch(psis: np.ndarray, n: int, d: int, a: VertexSet, alpha: int) -> np.ndarray:
    b = psis.shape[0]
    axes = [i + 1 for i in a.indices()]
    m = len(axes)
    t = np.moveaxis(psis.reshape((b,) + (d,) * n), axes, range(1, m + 1))
    mats = t.reshape(b, d**m, -1)
    if alpha == 2:
        rho = np.matmul(mats, mats.conj().transpose(0, 2, 1))
        return np.sum(rho.real**2 + rho.imag**2, axis=(1, 2))
    svals = np.linalg.svd(mats, compute_uv=False)
    return np.sum(svals ** (2 * alpha), axis=1)
