"""Brute-force Monte Carlo statevector oracle for Haar-averaged moments.

Dense amplitudes and exact Haar gates via Ginibre + QR, on one batched sample
path with a counter-derived RNG stream per sample.  Per-sample values are
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

from .errors import CapacityError, ValidationError
from .graphs import Bipartition, EdgeProcess, FixedSequence, Graph, VertexSet, draw_sequence

MAX_AMPLITUDES = 1 << 24
_BATCH = 256  # samples per batch, fewer when states are large
_BATCH_AMPLITUDES = 1 << 16  # complex numbers of state and gates per batch, roughly
_POOL_MIN_SAMPLES = 4096  # fewer samples than this never start a process pool


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


def _batch_values(g, draw, k, a, alpha, seed, lo, hi, base) -> np.ndarray:
    """Tr(rho_A^alpha) of samples lo..hi-1, as one batch.

    Sample i draws its edge indices with draw(rng), then all its Gaussians in
    one call, from rng = SeedSequence([seed, i]).  Each step QR-factors one
    gate stack per gate dimension and applies it edge by edge.
    """
    n, d = g.n_vertices, g.d
    dims = np.array([d ** len(e) for e in g.edges])
    width = (2 * dims**2).tolist()
    steps, gauss = [], []
    for i in range(lo, hi):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
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
    every worker count.
    """
    if g.d**g.n_vertices > MAX_AMPLITUDES:
        raise CapacityError(
            f"{g.d}^{g.n_vertices} amplitudes exceed the {MAX_AMPLITUDES} cap"
        )
    if samples < 2:
        raise ValidationError(f"need at least 2 samples, got {samples}")
    if k < 0:
        raise ValidationError(f"steps must be >= 0, got {k}")
    if workers is None:
        workers = int(os.environ.get("RQCGRAPH_WORKERS", "1"))
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
    svals = np.linalg.svd(mats, compute_uv=False)
    return np.sum(svals ** (2 * alpha), axis=1)
