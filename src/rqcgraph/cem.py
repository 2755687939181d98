"""Contiguous Edge Model: chain transfer operator, closed forms, 2D products.

On the chain the swap dynamics stays inside the contiguous basis |i> = T on
the first i sites, so one cycle of the circuit is a dense (L+1)x(L+1)
operator built by composing the elementary edge twirls in reverse gate order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .graphs import Bipartition, FixedSequence, build_graph, cem_position_sequence
from .moments import nd_constant, second_moment_I
from .rem import complete_graph_asymptote as chain_asymptote
from .series import PuritySeries
from .swapengine import evolve


@dataclass(frozen=True)
class ChainOperator:
    """One-cycle transfer operator R_chain in the contiguous-swap basis."""

    matrix: np.ndarray  # (L+1) x (L+1)
    l_total: int
    l_a: int
    kind: str
    d: int

    @property
    def size(self) -> int:
        return self.l_total + 1


def _compose_cycle(
    l_total: int, l_a: int, kind: str, nd: float | int, p: int | None = None
) -> np.ndarray:
    """Product of one cycle's edge twirls, in floats or, given p, in int64 mod p.

    The twirl of edge {v, v+1} is the identity except on basis ket |v+1>,
    which it maps to N_d (|v> + |v+2>); as a left factor it moves row v+1
    into rows v, v+2.  The edge sequence comes from cem_sequence
    (application-to-state order); superoperators compose in reverse, so the
    last gate's twirl acts first.
    """
    r = np.eye(l_total + 1, dtype=np.float64 if p is None else np.int64)
    for v in reversed(cem_position_sequence(l_a, l_total - l_a, kind)):
        row = r[v + 1].copy()
        for u in (v, v + 2):
            r[u] += nd * row
            if p is not None:
                r[u] %= p
        r[v + 1] = 0
    return r


def build_chain_operator(l_total: int, l_a: int, kind: str, d: int) -> ChainOperator:
    """Compose the (L-1) edge twirls of one cycle into a dense matrix."""
    if not (1 <= l_a < l_total):
        raise ValidationError(f"need 1 <= L_A < L, got L_A={l_a}, L={l_total}")
    r = _compose_cycle(l_total, l_a, kind, nd_constant(d))
    return ChainOperator(r, l_total, l_a, kind, d)


def chain_purity_series(
    l_total: int, l_a: int, d: int, kind: str, n_c: int
) -> PuritySeries:
    """Mean purity after each of 0..n_c cycles: coefficient sum of R^j e_{L_A}."""
    if n_c < 0:
        raise ValidationError(f"cycle count must be >= 0, got {n_c}")
    op = build_chain_operator(l_total, l_a, kind, d)
    v = np.zeros(op.size)
    v[l_a] = 1.0
    values = [1.0]
    for _ in range(n_c):
        v = op.matrix @ v
        values.append(float(v.sum()))
    meta = {"model": "cem-chain", "L": l_total, "L_A": l_a, "kind": kind, "d": d}
    return PuritySeries(tuple(values), meta)


def chain_worst_closed_form(n_c: int, d: int, large_nc: bool = False) -> float:
    """Worst-sequence purity after n_c cycles (valid for n_c <= L_A <= L_B).

    Binomial-sum form: sum_{m=0}^{n_c-1} 2 binom(n_c+m-1, m) N_d^(n_c+m);
    with large_nc=True the geometric limit 2 (N_d/(1-N_d))^n_c instead.
    """
    if n_c < 0:
        raise ValidationError(f"cycle count must be >= 0, got {n_c}")
    nd = nd_constant(d)
    if large_nc:
        return 2.0 * (nd / (1.0 - nd)) ** n_c
    if n_c == 0:
        return 1.0
    return sum(
        2.0 * math.comb(n_c + m - 1, m) * nd ** (n_c + m) for m in range(n_c)
    )


def chain_best_first_cycle(l_a: int, l_b: int, d: int, large_l: bool = False) -> float:
    """Best-sequence purity after the first cycle.

    Per-side geometric series sum_{j=2}^{L_X} N_d^j + N_d^{L_X}, summed over
    both sides; with large_l=True the limit 2 N_d^2 / (1 - N_d).
    """
    if l_a < 2 or l_b < 2:
        raise ValidationError("first-cycle closed form needs L_A, L_B >= 2")
    nd = nd_constant(d)
    if large_l:
        return 2.0 * nd * nd / (1.0 - nd)
    total = 0.0
    for lx in (l_a, l_b):
        total += sum(nd**j for j in range(2, lx + 1)) + nd**lx
    return total


@dataclass(frozen=True)
class ChainSpectrum:
    eigenvalues: np.ndarray  # sorted by modulus, descending
    lambda2: float
    unit_multiplicity: int


def chain_spectrum(
    l_total: int, l_a: int, kind: str, d: int, unit_tol: float = 1e-9
) -> ChainSpectrum:
    """Eigenvalues of the cycle operator, subdominant modulus and 1-multiplicity."""
    op = build_chain_operator(l_total, l_a, kind, d)
    eigs = np.linalg.eigvals(op.matrix)
    order = np.argsort(-np.abs(eigs))
    eigs = eigs[order]
    unit = int(np.sum(np.abs(eigs - 1.0) < unit_tol))
    sub = np.abs(eigs)[np.abs(eigs - 1.0) >= unit_tol]
    lambda2 = float(sub.max()) if sub.size else 0.0
    return ChainSpectrum(eigs, lambda2, unit)


# Fixed 31-bit primes for the isospectrality fingerprint (int64-safe products).
_SPECTRUM_PRIMES = (2147483629, 2147483587, 2147483563, 2147483549, 2147483497)


def _dot_mod(a: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    """a @ v mod p, exact for entries in [0, p), p < 2^31 and up to 2^16 terms.

    v is split into 16-bit limbs, so every partial sum stays below 2^63.
    """
    lo = (a @ (v & 0xFFFF)) % p
    hi = (a @ (v >> 16)) % p
    return (lo + (hi << 16)) % p


def _charpoly_matrix_mod(r: np.ndarray, p: int) -> np.ndarray:
    """Characteristic polynomial over GF(p) of an int64 matrix with entries in [0, p).

    Reduces r in place to Hessenberg form by Gaussian similarity (pivot: the
    first nonzero entry on or below the subdiagonal), then runs the
    leading-minor recurrence.  Returns the monic coefficient vector, highest
    degree first.
    """
    n = r.shape[0]
    for k in range(n - 2):
        nz = np.flatnonzero(r[k + 1 :, k])
        if nz.size == 0:
            continue
        piv = k + 1 + int(nz[0])
        if piv != k + 1:
            r[[k + 1, piv]] = r[[piv, k + 1]]
            r[:, [k + 1, piv]] = r[:, [piv, k + 1]]
        # The eliminations of one step commute: R <- L R L^-1 with
        # L = I - sum_i f_i e_i e_{k+1}^T; row k+1 is zero left of column k.
        rows = k + 2 + np.flatnonzero(r[k + 2 :, k])
        f = r[rows, k] * pow(int(r[k + 1, k]), -1, p) % p
        r[rows, k:] = (r[rows, k:] - f[:, None] * r[k + 1, k:]) % p
        r[:, k + 1] = (r[:, k + 1] + _dot_mod(r[:, rows], f, p)) % p

    # p_{k+1} = (x - h_kk) p_k - sum_{j<k} h_jk beta_jk p_j, where
    # beta_jk = prod_{j<=i<k} h_{i+1,i} = q_k / q_j, q being the prefix
    # products of the subdiagonal restarted after each zero (beta_jk = 0 across one).
    q, starts = [1], [0]
    for i in range(n - 1):
        s = int(r[i + 1, i])
        q.append(q[-1] * s % p if s else 1)
        starts.append(starts[-1] if s else i + 1)
    q_inv = np.array([pow(x, -1, p) for x in q], dtype=np.int64)
    polys = np.zeros((n + 1, n + 1), dtype=np.int64)  # row j: p_j, right-aligned
    polys[0, n] = 1
    for k in range(n):
        lo, cols = starts[k], slice(n - k, None)
        cur = np.zeros(n + 1, dtype=np.int64)
        cur[:-1] = polys[k, 1:]
        cur[cols] -= int(r[k, k]) * polys[k, cols] % p
        if lo < k:
            c = r[lo:k, k] * (q[k] * q_inv[lo:k] % p) % p
            cur[cols] -= _dot_mod(polys[lo:k, cols].T, c, p)
        polys[k + 1] = cur % p
    return polys[n]


def _charpoly_mod(l_total: int, l_a: int, kind: str, d: int, p: int) -> np.ndarray:
    """Characteristic polynomial over GF(p) of the integer matrix (d^2+1)^(L-1) R.

    The twirls are composed mod p, where N_d = d/(d^2+1) becomes a modular
    inverse.
    """
    r = _compose_cycle(l_total, l_a, kind, d * pow(d * d + 1, -1, p) % p, p)
    r *= pow(d * d + 1, l_total - 1, p)
    r %= p
    return _charpoly_matrix_mod(r, p)


def chain_spectra_equal(l_total: int, l_a: int, d: int) -> bool:
    """Compare the best- and worst-sequence spectra by a modular fingerprint.

    Floating-point eigensolvers cannot settle this at large L: the zero
    eigenvalue is defective with multiplicity ~L/2, so backward-stable
    algorithms scatter it over a disk of radius eps^(1/m).  Instead the
    characteristic polynomials of the two integer matrices (d^2+1)^(L-1) R
    are computed exactly modulo five fixed 31-bit primes and compared there.
    True means the polynomials agree modulo all five primes, which does not
    prove them equal: the primes' product is about 2^155, while the integer
    coefficients grow about as L^2 bits (169 bits at L = 12, 465 at L = 20
    for d = 2).  False proves that the spectra differ.
    """
    if not (1 <= l_a < l_total):
        raise ValidationError(f"need 1 <= L_A < L, got L_A={l_a}, L={l_total}")
    if d < 2:
        raise ValidationError(f"local dimension must be >= 2, got d={d}")
    return all(
        np.array_equal(
            _charpoly_mod(l_total, l_a, "best", d, p),
            _charpoly_mod(l_total, l_a, "worst", d, p),
        )
        for p in _SPECTRUM_PRIMES
    )


def mixedness_bound(d: int, l_a: int, l_b: int) -> float:
    """Trace-distance bound (1/2) sqrt(d^L_A / d^L_B) to the maximally mixed state."""
    if l_a < 1 or l_b < 1:
        raise ValidationError("both segments need at least one site")
    return 0.5 * math.sqrt(float(d) ** (l_a - l_b))


def grid_boundary_stats(l: int, d: int) -> tuple[float, float]:
    """Square-lattice boundary of length l with disjoint straddling edges.

    Purity (2 N_d)^l and variance I^l - (2 N_d)^(2l).
    """
    if l < 1:
        raise ValidationError(f"boundary length must be >= 1, got {l}")
    p = (2.0 * nd_constant(d)) ** l
    var = second_moment_I(d) ** l - p * p
    return p, var


def grid_ordering_example(d: int) -> tuple[float, float]:
    """The 4-node ordering example run through the swap engine.

    Vertices 0,1 in A and 2,3 in B; boundary edges {0,2}, {1,3}, internal
    edges {0,1}, {2,3}.  Returns the first-cycle purity when the boundary
    gates are applied first, and when the internal gates are applied first.
    """
    if d < 2:
        raise ValidationError(f"local dimension must be >= 2, got d={d}")
    g = build_graph(4, [(0, 2), (1, 3), (0, 1), (2, 3)], d)
    part = Bipartition(g.vertex_set((0, 1)))
    boundary, internal = (g.edges[0], g.edges[1]), (g.edges[2], g.edges[3])
    results = []
    for order in (boundary + internal, internal + boundary):
        proc = FixedSequence(g, order)
        series = evolve(g, part, proc, k=4, mode="expectation")
        results.append(series.final)
    return results[0], results[1]
