"""Brute-force Monte Carlo statevector oracle for Haar-averaged moments.

Dense amplitudes and exact Haar gates, the phase-fixed Q of a complex Ginibre
matrix, on one batched sample path.  Sample i has its own RNG stream,
SeedSequence([seed, i]); a batch, as many samples as fit _BATCH_AMPLITUDES,
hashes the seeds of its streams in one vectorised pass (_seed_words), and
numpy's PCG64 constructor seeds each sample's stream from its hashed words
(_streams).  A UniformIID sample on edges of one size draws raw words for its
edges, decoded for the whole batch at once as numpy's Generator.integers would
decode them (_uniform_draws).  Step 0 acts on |0...0>, so it takes only column
0 of its gate, the normalised Ginibre column; later gates are orthonormalised
in one stack per gate dimension: by batched LAPACK QR from dimension 16 on
(4-body gates at d = 2, 3-body at d = 3), bit for bit as haar_unitary draws
them, and by batched Gram-Schmidt below.  The states stay in vertex order.
Each edge keeps the flat offsets of the matrix apply_gate multiplies
(_positions): rows plus columns, a table of |E| d^n integers, where that fits
_BATCH_AMPLITUDES, and past it its rows and its vertices' strides, from which
a step builds its edges' column offsets.  A later step is then one index
(one broadcast add on the table), one gather, one batched matmul and one
scatter per gate dimension.  A process pool gets near-equal sample ranges,
at most one per batch; the pool's modules (multiprocessing) load only when a
pool starts, numpy.random only when a batch is drawn, and np.unique, which
loads numpy.ma, is not called: a single-worker run loads neither
multiprocessing nor numpy.ma, and a command that draws nothing no
numpy.random either (on numpy >= 2; numpy 1.x loads numpy.ma and
numpy.random on import).
Per-sample values are gathered in sample order and reduced as one array
(SampleStats.of), so results are bit-identical however the samples are
batched or split over workers.  haar_unitary (LAPACK QR), apply_gate and
renyi_moment do the same steps for one sample; tests use them as the
reference.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ValidationError, int_at_least
from .graphs import (
    Bipartition,
    EdgeProcess,
    FixedSequence,
    Graph,
    UniformIID,
    VertexSet,
    check_built_on,
    draw_indices,
)

MAX_AMPLITUDES = 1 << 24
_BATCH_AMPLITUDES = 1 << 16  # complex numbers of state and gates per batch, roughly
_POOL_MIN_SAMPLES = 4096  # fewer samples than this never start a process pool
_QR_MIN_DIM = 16  # gates this wide are orthonormalised by LAPACK QR, narrower ones by Gram-Schmidt

# SeedSequence's pool hash (numpy/random/bit_generator.pyx)
_MASK32 = (1 << 32) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Exact Haar draw: complex Ginibre, QR, column phases fixed from diag(R)."""
    dim = int_at_least(dim, 2, "unitary dimension")
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def product_state(n: int, d: int) -> np.ndarray:
    """The totally factorized fiducial state |0...0> of n qudits."""
    n, d = int_at_least(n, 1, "vertex count"), int_at_least(d, 2, "local dimension")
    psi = np.zeros(d**n, dtype=complex)
    psi[0] = 1.0
    return psi


def _check_state(psi: np.ndarray, n: int, d: int, x: VertexSet, what: str) -> tuple[int, int]:
    """n and d as ints, if psi holds d^n amplitudes and x is a set of its n vertices."""
    n, d = int_at_least(n, 1, "vertex count"), int_at_least(d, 2, "local dimension")
    if x.n != n:
        raise ValidationError(f"{what} {x} is built for {x.n} vertices, not {n}")
    if psi.size != d**n:
        raise ValidationError(f"state of {psi.size} amplitudes is not {d}^{n}")
    return n, d


def apply_gate(psi: np.ndarray, n: int, d: int, x: VertexSet, u: np.ndarray) -> np.ndarray:
    """Apply a unitary supported on the vertices of x; axis i is vertex i."""
    n, d = _check_state(psi, n, d, x, "edge")
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
    n, d = _check_state(psi, n, d, a, "subsystem")
    axes = a.indices()
    m = len(axes)
    t = np.moveaxis(psi.reshape((d,) * n), axes, range(m))
    mat = t.reshape(d**m, -1)
    return mat @ mat.conj().T


def renyi_moment(psi: np.ndarray, n: int, d: int, a: VertexSet, alpha: int) -> float:
    """Tr(rho_A^alpha); Frobenius shortcut at alpha=2, eigenvalues otherwise."""
    alpha = int_at_least(alpha, 1, "Renyi order")
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


def _norms(v: np.ndarray) -> np.ndarray:
    """Column 2-norms of a (dim, b) array, summed row by row even at b = 1 (np.sum: pairwise)."""
    sq = v.real**2 + v.imag**2
    return np.sqrt(np.sum(sq, axis=0) if sq.shape[1] > 1 else np.add.accumulate(sq)[-1])


def _haar_stack(z: np.ndarray, dim: int) -> np.ndarray:
    """haar_unitary applied to a stack of rows, each 2*dim^2 Gaussians (real, then imaginary).

    From dimension _QR_MIN_DIM on, haar_unitary's own steps on the whole
    stack: Ginibre / sqrt(2), one batched LAPACK QR, columns times
    diag(R) / |diag(R)|, bit for bit as haar_unitary draws each gate alone.
    Below it, classical Gram-Schmidt over the stack, batch-last: each column,
    held as a (dim, b) array, loses its projection on all earlier columns at
    once, in two passes, then is normalised; a pass is two contractions over
    the whole stack, so the numpy calls grow with dim, not dim^2, and beat
    LAPACK's per-matrix calls on small gates.  That is the QR factor whose R
    has a positive real diagonal, the phase-fixed Q of haar_unitary, so
    either draw is exactly Haar (Mezzadri, Notices AMS 54, 592 (2007)); the
    second pass keeps Q orthogonal to rounding (Giraud, Langou & Rozloznik,
    Comput. Math. Appl. 50, 1069 (2005)).  The 1/sqrt(2) of the Ginibre
    entries only scales R, so Gram-Schmidt leaves it out.
    """
    sq, lead = dim * dim, z.shape[:-1]  # z may hold leading axes, (samples, steps)
    if dim >= _QR_MIN_DIM:
        q, r = np.linalg.qr(((z[..., :sq] + 1j * z[..., sq:]) / np.sqrt(2)).reshape(-1, dim, dim))
        diag = np.diagonal(r, axis1=1, axis2=2)
        return q * (diag / np.abs(diag))[:, None, :]
    q = np.empty((dim, dim) + lead, dtype=complex)  # q[j, i] = entry i of column j
    q.real = np.moveaxis(z[..., :sq].reshape(lead + (dim, dim)), (-1, -2), (0, 1))
    q.imag = np.moveaxis(z[..., sq:].reshape(lead + (dim, dim)), (-1, -2), (0, 1))
    q = q.reshape(dim, dim, -1)
    for j in range(dim):
        v = q[j]
        for _ in range(2 if j else 0):
            v -= np.einsum("jib,jb->ib", q[:j], np.einsum("jib,ib->jb", q[:j], v.conj()).conj())
        v /= _norms(v)
    return q.T


def _batch_size(g: Graph, k: int) -> int:
    """Samples per batch: as many as keep states plus gates near _BATCH_AMPLITUDES, at least 1."""
    max_dim = max(g.d ** len(e) for e in g.edges)
    per_sample = g.d**g.n_vertices + k * max_dim**2
    return max(1, _BATCH_AMPLITUDES // per_sample)


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


def _seed_words(seed: int, lo: int, hi: int) -> np.ndarray:
    """generate_state(4, uint64) of SeedSequence([seed, i]) for i in lo..hi-1, in one pass.

    A C-contiguous (hi - lo, 4) uint64 array, row i - lo for i.  The hash runs
    on uint32 arrays across the batch: the words of seed, then those of i,
    fill the 4-word pool, and words past the fourth are mixed in after it.
    """
    if lo < 1 << 32 < hi:  # i takes a second word from 2^32 on
        return np.concatenate([_seed_words(seed, lo, 1 << 32), _seed_words(seed, 1 << 32, hi)])
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
    return np.stack([out[2 * j] | out[2 * j + 1] << 32 for j in range(4)], axis=1)


@functools.cache
def _row_type() -> type:
    """The seed sequence that hands PCG64's constructor one row of _seed_words as its 4 words.

    Built on first use: its base, ISeedSequence, loads numpy.random, which a
    command that draws nothing never needs.
    """
    from numpy.random.bit_generator import ISeedSequence

    class _Row(ISeedSequence):
        def __init__(self, row: np.ndarray):
            self.row = row

        def generate_state(self, n_words, dtype=np.uint32):
            return self.row

    return _Row


def _streams(seed: int, lo: int, hi: int):
    """default_rng(SeedSequence([seed, i])) for i = lo..hi-1, in turn.

    The batch hashes all the seeds at once (_seed_words); numpy's PCG64
    constructor then seeds each stream from its row in C (srandom; O'Neill,
    "PCG", HMC-CS-2014-0905), with an empty 32-bit buffer.
    """
    row_seq = _row_type()
    for row in _seed_words(seed, lo, hi):
        yield np.random.Generator(np.random.PCG64(row_seq(row)))


def _uniform_draws(seed: int, lo: int, hi: int, n: int, k: int, z: np.ndarray) -> np.ndarray:
    """integers(0, n, size=k) of each stream of lo..hi-1, as a (hi - lo, k) array.

    Each stream then fills its row of z with Gaussians.  A stream draws its
    ceil(k/2) raw words (none at n = 1, numpy's rng = 0 case), and all rows
    are decoded at once by numpy's buffered 32-bit Lemire method (Lemire,
    ACM TOMACS 29(1), 2019): low half of each word first, index
    (w n) >> 32.  A row where some (w n) mod 2^32 is below n may hold a
    rejection, so that stream draws again through Generator.integers, as
    draw_indices does.
    """
    b = hi - lo
    words = np.empty((b, (k + 1) // 2 if n > 1 else 0), dtype=np.uint64)
    for i, rng in enumerate(_streams(seed, lo, hi)):
        words[i] = rng.bit_generator.random_raw(words.shape[1])
        rng.standard_normal(out=z[i])
    if n == 1:
        return np.zeros((b, k), dtype=np.int64)
    halves = np.stack([words & _MASK32, words >> 32], axis=2).reshape(b, -1)[:, :k]
    scaled = halves * np.uint64(n)
    steps = (scaled >> 32).astype(np.int64)
    for i in np.flatnonzero(np.any(scaled & _MASK32 < n, axis=1)).tolist():
        (rng,) = _streams(seed, lo + i, lo + i + 1)
        steps[i] = rng.integers(0, n, size=k)
        rng.standard_normal(out=z[i])
    return steps


def _batch_values(g, proc, fixed, k, a, alpha, seed, lo, hi, at_of) -> np.ndarray:
    """Tr(rho_A^alpha) of samples lo..hi-1, as one batch.

    Sample i draws its edge indices (fixed, when the process is a
    FixedSequence, holds them for every sample), then all its Gaussians in
    one call, from the stream of SeedSequence([seed, i]): a UniformIID on
    edges of one size through _uniform_draws, any other process through
    draw_indices.  They are drawn in place, into row i of one
    (b, k * widest gate) array.  Step 0 needs only column 0 of its gate: its
    2 dim Gaussians, normalised as _haar_stack normalises column 0, go to the
    edge's rows at column 0.  Steps 1..k-1 take their gates from one Haar stack
    per gate dimension, a view of the array when every edge has one size.
    """
    n, d = g.n_vertices, g.d
    dims = np.array([d ** len(e) for e in g.edges])
    width = 2 * dims**2
    one_size = bool(np.all(dims == dims[0]))
    b = hi - lo
    z = np.empty((b, k * int(width.max())))
    if one_size and isinstance(proc, UniformIID):
        steps = _uniform_draws(seed, lo, hi, g.n_edges, k, z)
    else:
        steps = np.empty((b, k), dtype=int)
        if fixed is not None:
            steps[:] = fixed
        for i, rng in enumerate(_streams(seed, lo, hi)):
            if fixed is None:
                steps[i] = draw_indices(proc, k, rng)
            rng.standard_normal(out=z[i] if one_size else z[i, : width[steps[i]].sum()])
    step_dims = dims[steps]
    stacks, pos = {}, np.empty((b, k), dtype=int)  # gate of (i, t): stacks[dim][pos[i, t]]
    if one_size and k > 1:
        pos[:, 1:] = np.arange(b * (k - 1)).reshape(b, k - 1)
        stacks[int(dims[0])] = _haar_stack(z.reshape(b, k, -1)[:, 1:], int(dims[0]))
    elif not one_size:
        sizes = width[steps]
        offsets = np.cumsum(sizes, axis=1) - sizes + z.shape[1] * np.arange(b)[:, None]
        # distinct dimensions by bincount, as _gate_step finds a step's edges: np.unique loads numpy.ma
        for dim in np.flatnonzero(np.bincount(step_dims[:, 1:].ravel())).tolist():
            mask = step_dims == dim
            mask[:, 0] = False
            pos[mask] = np.arange(np.count_nonzero(mask))
            stacks[dim] = _haar_stack(z.ravel()[offsets[mask][:, None] + np.arange(2 * dim * dim)], dim)
    firsts = []  # (samples, their edges' rows at column 0 (at_of: _positions), their gates' column 0)
    for dim in np.flatnonzero(np.bincount(step_dims[:, :1].ravel())).tolist():
        at = np.flatnonzero(step_dims[:, 0] == dim)
        col = np.empty((dim, len(at)), dtype=complex)
        col.real, col.imag = z[at, : dim * dim : dim].T, z[at, dim * dim : 2 * dim * dim : dim].T
        firsts.append((at, at_of[dim][0][steps[at, 0], :, 0], (col / _norms(col)).T))
    del z  # the stacks and columns hold copies; free the Gaussians before the states
    psis = np.zeros((b, d**n), dtype=complex)
    psis[:, 0] = 1.0  # |0...0>, overwritten by step 0
    for at, rows, col in firsts:
        psis[at[:, None], rows] = col
    for t in range(1, k):
        for dim in np.flatnonzero(np.bincount(step_dims[:, t].ravel())).tolist():
            at = np.flatnonzero(step_dims[:, t] == dim)
            _gate_step(psis, at, at_of[dim], steps[at, t], stacks[dim][pos[at, t]])
    return _renyi_batch(psis, n, d, a, alpha)


def _positions(g: Graph) -> dict:
    """dim -> (offsets, strides, d): each edge's flat positions in the (dim, d^n / dim) matrix
    apply_gate multiplies, and its vertices' strides, smallest first.

    offsets is (|E|, dim, d^n / dim), rows plus columns, with strides None,
    where that table of |E| d^n entries fits _BATCH_AMPLITUDES; past it,
    offsets holds the rows alone, (|E|, dim, 1), and a step builds its
    edges' columns from the strides, so the index data does not grow with |E|.
    """
    n, d, at_of = g.n_vertices, g.d, {}
    for j, e in enumerate(g.edges):
        m, s = len(e), d ** (n - 1 - np.array(e.indices()))
        if d**m not in at_of:
            at_of[d**m] = (np.zeros((g.n_edges, d**m, 1), int), np.ones((g.n_edges, m), int), d)
        at_of[d**m][0][j, :, 0], at_of[d**m][1][j] = np.indices((d,) * m).reshape(m, -1).T @ s, np.sort(s)
    if g.n_edges * d**n <= _BATCH_AMPLITUDES:
        for dim, (rows, strides, _) in at_of.items():
            at_of[dim] = (rows + _columns(strides, d, d**n // dim)[:, None, :], None, d)
    return at_of


def _columns(strides: np.ndarray, d: int, width: int) -> np.ndarray:
    """Column offsets, one row per row of strides: column c with a 0 digit put in at each stride."""
    cols = np.arange(width)
    for s in strides.T[:, :, None]:
        cols = cols // s * (d * s) + cols % s
    return cols


def _gate_step(psis: np.ndarray, at: np.ndarray, positions, edges, gates: np.ndarray) -> None:
    """Apply gates[j] to state at[j] on edge edges[j] in place, as apply_gate does, column by column."""
    offsets, strides, d = positions
    idx = offsets[edges]
    idx += (at * psis.shape[1])[:, None, None]
    if strides is not None:  # offsets holds the rows alone: add the columns of the step's distinct edges
        u = np.flatnonzero(np.bincount(edges))
        cols = _columns(strides[u], d, psis.shape[1] // idx.shape[1])
        idx = idx + cols[np.searchsorted(u, edges)][:, None, :]
    flat = psis.reshape(-1)  # a view: psis is C-contiguous
    flat[idx] = np.matmul(gates, flat[idx])


def _values_for_range(args) -> np.ndarray:
    """Per-sample values of samples lo..hi-1, in batches of _batch_size from lo."""
    g, proc, a, k, alpha, seed, lo, hi = args
    fixed = None
    if isinstance(proc, FixedSequence):
        fixed = draw_indices(proc, k, np.random.default_rng(0))
    at_of = _positions(g)
    batch = _batch_size(g, k)
    return np.concatenate([
        _batch_values(g, proc, fixed, k, a, alpha, seed, s, min(s + batch, hi), at_of)
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
    workers: int | None = None,
) -> SampleStats:
    """Monte Carlo mean/variance of Tr(rho_A^alpha) over the circuit ensemble.

    Sample i uses the RNG stream SeedSequence([seed, i]) for both its edge
    sequence and its Haar gates, and the per-sample values are gathered in
    sample order and reduced as one array, so the result is bit-identical for
    every worker count.  samples must be an integer >= 2, k and seed
    non-negative integers and alpha an integer >= 1; numpy integers are
    accepted.  workers must be an integer >= 1; it defaults to
    RQCGRAPH_WORKERS (default 1).  Every sample starts from |0...0>.  proc
    and p must be built on g.
    """
    check_built_on(g, p, proc)
    if g.d**g.n_vertices > MAX_AMPLITUDES:
        raise CapacityError(
            f"{g.d}^{g.n_vertices} amplitudes exceed the {MAX_AMPLITUDES} cap"
        )
    samples = int_at_least(samples, 2, "samples")
    k = int_at_least(k, 0, "steps")
    alpha = int_at_least(alpha, 1, "Renyi order")
    seed = int_at_least(seed, 0, "seed")
    if workers is None:
        raw = os.environ.get("RQCGRAPH_WORKERS", "1")
        workers = int_at_least(int(raw) if raw.strip().isdecimal() else raw, 1, "RQCGRAPH_WORKERS")
    workers = int_at_least(workers, 1, "workers")
    job = (g, proc, p.a_set, k, alpha, seed, 0, samples)
    parts = min(workers, -(-samples // _batch_size(g, k))) if samples >= _POOL_MIN_SAMPLES else 1
    if parts == 1:
        return SampleStats.of(_values_for_range(job))
    cuts = [samples * j // parts for j in range(parts + 1)]
    jobs = [job[:6] + (lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing: only a pool needs it
    with ProcessPoolExecutor(max_workers=parts) as pool:  # fork starts every worker at once
        values = np.concatenate(list(pool.map(_values_for_range, jobs)))
    return SampleStats.of(values)


def _renyi_batch(psis: np.ndarray, n: int, d: int, a: VertexSet, alpha: int) -> np.ndarray:
    b = psis.shape[0]
    axes = [i + 1 for i in a.indices()]
    m = len(axes)
    t = np.moveaxis(psis.reshape((b,) + (d,) * n), axes, range(1, m + 1))
    mats = t.reshape(b, d**m, -1)
    if alpha == 2:  # Tr rho_A^2 = Tr rho_B^2: the Gram matrix of the smaller side
        h = mats.conj().transpose(0, 2, 1)
        rho = np.matmul(mats, h) if mats.shape[1] <= mats.shape[2] else np.matmul(h, mats)
        return np.sum(rho.real**2 + rho.imag**2, axis=(1, 2))
    svals = np.linalg.svd(mats, compute_uv=False)
    return np.sum(svals ** (2 * alpha), axis=1)
