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
from .moments import nd_constant, nd_fraction, second_moment_I
from .rem import complete_graph_asymptote as chain_asymptote
from .series import PuritySeries
from .swapengine import evolve


def build_chain_operator(l_total: int, l_a: int, kind: str, d: int) -> np.ndarray:
    """One-cycle transfer operator: the (L-1) edge twirls composed into an (L+1) x (L+1) matrix.

    The twirl of edge {v, v+1} is the identity except on basis ket |v+1>,
    which it maps to N_d (|v> + |v+2>); as a left factor it moves row v+1
    into rows v, v+2.  The edge sequence comes from cem_sequence
    (application-to-state order); superoperators compose in reverse, so the
    last gate's twirl acts first.
    """
    if not (1 <= l_a < l_total):
        raise ValidationError(f"need 1 <= L_A < L, got L_A={l_a}, L={l_total}")
    nd = nd_constant(d)
    r = np.eye(l_total + 1)
    for v in reversed(cem_position_sequence(l_a, l_total - l_a, kind)):
        row = r[v + 1].copy()
        for u in (v, v + 2):
            r[u] += nd * row
        r[v + 1] = 0
    return r


def chain_purity_series(
    l_total: int, l_a: int, d: int, kind: str, n_c: int
) -> PuritySeries:
    """Mean purity after each of 0..n_c cycles: coefficient sum of R^j e_{L_A}."""
    if n_c < 0:
        raise ValidationError(f"cycle count must be >= 0, got {n_c}")
    op = build_chain_operator(l_total, l_a, kind, d)
    v = np.zeros(l_total + 1)
    v[l_a] = 1.0
    values = [1.0]
    for _ in range(n_c):
        v = op @ v
        values.append(float(v.sum()))
    meta = {"model": "cem-chain", "L": l_total, "L_A": l_a, "kind": kind, "d": d}
    return PuritySeries(tuple(values), meta)


def chain_worst_closed_form(n_c: int, d: int) -> float:
    """Worst-sequence purity after n_c cycles (valid for n_c <= L_A <= L_B).

    Binomial-sum form: sum_{m=0}^{n_c-1} 2 binom(n_c+m-1, m) N_d^(n_c+m).
    """
    if n_c < 0:
        raise ValidationError(f"cycle count must be >= 0, got {n_c}")
    nd = nd_constant(d)
    if n_c == 0:
        return 1.0
    return sum(
        2.0 * math.comb(n_c + m - 1, m) * nd ** (n_c + m) for m in range(n_c)
    )


def chain_best_first_cycle(l_a: int, l_b: int, d: int) -> float:
    """Best-sequence purity after the first cycle.

    Per-side geometric series sum_{j=2}^{L_X} N_d^j + N_d^{L_X}, summed over
    both sides.
    """
    if l_a < 2 or l_b < 2:
        raise ValidationError("first-cycle closed form needs L_A, L_B >= 2")
    nd = nd_constant(d)
    total = 0.0
    for lx in (l_a, l_b):
        total += sum(nd**j for j in range(2, lx + 1)) + nd**lx
    return total


@dataclass(frozen=True)
class ChainSpectrum:
    eigenvalues: np.ndarray  # sorted by modulus, descending
    lambda2: float
    unit_multiplicity: int


UNIT_TOL = 1e-9  # eigenvalues this close to 1 count as unit


def chain_spectrum(l_total: int, l_a: int, kind: str, d: int) -> ChainSpectrum:
    """Eigenvalues of the cycle operator, subdominant modulus and 1-multiplicity.

    lambda2 comes from a dense eigensolve of the non-normal operator M.  Three
    parts of M split off exactly: its columns 0 and L are the unit vectors
    e_0 and e_L (eigenvalues 1, 1), and the row of the first gate's right
    vertex is zero (eigenvalue 0), which is row L_A for the worst order, as
    that starts with the straddling edge.  What remains, M'', the principal
    submatrix on the other sites, is entrywise nonnegative, so lambda2 is its
    Perron root and lies in the Collatz-Wielandt bracket
    [min_i (M''x)_i / x_i, max_i (M''x)_i / x_i] of every positive x.  With
    x = |eigenvector of lambda2| on the worst order with L = 2 L_A, that
    bracket is narrower than 1e-12 up to L_A = 50, but at the L_A = 200 of
    reproduce-all it is only [0.630, 0.652]: there the eigensolve is
    ill-conditioned, and lambda2 moves in the fourth digit with the BLAS
    thread count.
    """
    eigs = np.linalg.eigvals(build_chain_operator(l_total, l_a, kind, d))
    order = np.argsort(-np.abs(eigs))
    eigs = eigs[order]
    unit = int(np.sum(np.abs(eigs - 1.0) < UNIT_TOL))
    sub = np.abs(eigs)[np.abs(eigs - 1.0) >= UNIT_TOL]
    lambda2 = float(sub.max()) if sub.size else 0.0
    return ChainSpectrum(eigs, lambda2, unit)


def chain_spectra_equal(l_total: int, l_a: int, d: int) -> bool:
    """Check exactly that the best- and worst-sequence cycle operators are similar.

    Theorem: for every L, L_A and d the two operators are similar, so they
    share their whole Jordan structure, the defective eigenvalue 0 included.
    The proof rests on two facts, both checked here in integers and Fractions:

    1. The best cycle is the worst cycle reversed.
    2. Each edge twirl R_v is self-adjoint under the Hilbert-Schmidt Gram
       matrix of the contiguous basis, G_ij = Tr(T_i T_j) = d^(2L-|i-j|),
       which is Kac-Murdock-Szego and so positive definite: G R_v = R_v^T G.
       The twirl is the Hilbert-Schmidt-orthogonal projection onto the
       commutant span{1, T} (Harrow & Low, CMP 291, 257 (2009); Collins &
       Sniady, CMP 264, 773 (2006)).

    With M = R_{w_1} ... R_{w_n} for the worst order w, the best operator is
    R_{w_n} ... R_{w_1} = G^-1 M^T G, which is similar to M^T and so to M.

    R_v differs from the identity only in column c = v+1, which is
    N_d (e_v + e_{v+2}), so G R_v is symmetric iff
    N_d (G[i, v] + G[i, v+2]) = G[i, c] for every i != c.  Both sides depend
    only on t = |i - c|, which runs over 1..L-1, so fact 2 costs O(L)
    comparisons: N_d (d^(2L-t+1) + d^(2L-t-1)) = d^(2L-t), which is
    N_d (1 + d^-2) = 1/d.  Returns True when both facts hold; False only
    says that this proof does not apply.  Floating-point eigensolvers cannot
    settle the question at large L: the zero eigenvalue is defective with
    multiplicity m of about L/2, so backward-stable algorithms scatter it
    over a disk of radius eps^(1/m).
    """
    if not (1 <= l_a < l_total):
        raise ValidationError(f"need 1 <= L_A < L, got L_A={l_a}, L={l_total}")
    best = cem_position_sequence(l_a, l_total - l_a, "best")
    worst = cem_position_sequence(l_a, l_total - l_a, "worst")
    nd = nd_fraction(d)
    gram = [d ** (2 * l_total - t) for t in range(l_total + 1)]  # G_ij at |i-j| = t
    return best == worst[::-1] and all(
        nd * (gram[t - 1] + gram[t + 1]) == gram[t] for t in range(1, l_total)
    )


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
