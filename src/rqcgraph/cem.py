"""Contiguous Edge Model: chain transfer operator, closed forms, 2D products.

On the chain the swap dynamics stays inside the contiguous basis |i> = T on
the first i sites, so one cycle of the circuit is a dense (L+1)x(L+1)
operator built by composing the elementary edge twirls in reverse gate order.
Its transpose is one Gauss-Seidel sweep of the path's Jacobi matrix, so
Young's theorem gives its spectrum in closed form (see chain_spectrum).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import int_at_least
from .graphs import Bipartition, FixedSequence, build_graph, cem_position_sequence
from .moments import nd_constant, nd_fraction, second_moment_I
from .rem import complete_graph_asymptote as chain_asymptote
from .series import PuritySeries, lumped_purities
from .swapengine import evolve


def build_chain_operator(l_total: int, l_a: int, kind: str, d: int) -> np.ndarray:
    """One-cycle transfer operator: the (L-1) edge twirls composed into an (L+1) x (L+1) matrix.

    The twirl of edge {v, v+1} is the identity except on basis ket |v+1>,
    which it maps to N_d (|v> + |v+2>); as a left factor it moves row v+1
    into rows v, v+2.  The edge positions come from cem_position_sequence
    (application-to-state order); superoperators compose in reverse, so the
    last gate's twirl acts first.
    """
    seq = cem_position_sequence(l_a, l_total - l_a, kind)
    nd = nd_constant(d)
    r = np.eye(l_total + 1)
    for v in reversed(seq):
        row = r[v + 1].copy()
        for u in (v, v + 2):
            r[u] += nd * row
        r[v + 1] = 0
    return r


def chain_purity_series(
    l_total: int, l_a: int, d: int, kind: str, n_c: int
) -> PuritySeries:
    """Mean purity after each of 0..n_c cycles: coefficient sum of R^j e_{L_A}.

    Rounding: lumped_purities' bound, e = 3 (L - 1) (3 per row update) and
    r = L + 1, so j = (4 L - 2) n_c + L, and M <= 3 (L + 1)^2 n_c.
    """
    n_c = int_at_least(n_c, 0, "cycle count")
    op = build_chain_operator(l_total, l_a, kind, d)
    return PuritySeries(tuple(itertools.islice(lumped_purities(op, l_a), n_c + 1)))


def chain_worst_closed_form(n_c: int, d: int) -> float:
    """Worst-sequence purity after n_c cycles (valid for n_c <= L_A <= L_B).

    Binomial-sum form: sum_{m=0}^{n_c-1} 2 binom(n_c+m-1, m) N_d^(n_c+m),
    summed in integers over the denominator q^(2 n_c - 1), N_d = p / q, and
    rounded once: no term underflows however large n_c is.
    """
    n_c = int_at_least(n_c, 0, "cycle count")
    p, q = nd_fraction(d).as_integer_ratio()
    h, c, p_pow = 0, 1, p**n_c  # Horner in q: c = binom(n_c+m-1, m), p_pow = p^(n_c+m)
    for m in range(n_c):
        h, c, p_pow = h * q + c * p_pow, c * (n_c + m) // (m + 1), p_pow * p
    return 2 * h / q ** (2 * n_c - 1) if n_c else 1.0


def chain_best_first_cycle(l_a: int, l_b: int, d: int) -> float:
    """Best-sequence purity after the first cycle.

    Per-side geometric series sum_{j=2}^{L_X} N_d^j + N_d^{L_X}, summed over
    both sides.
    """
    l_a, l_b = int_at_least(l_a, 2, "L_A"), int_at_least(l_b, 2, "L_B")
    nd = nd_constant(d)
    return sum(sum(nd**j for j in range(2, lx + 1)) + nd**lx for lx in (l_a, l_b))


@dataclass(frozen=True)
class ChainSpectrum:
    eigenvalues: np.ndarray  # sorted by modulus, descending
    lambda2: float
    unit_multiplicity: int


def chain_spectrum(l_total: int, d: int) -> ChainSpectrum:
    """Eigenvalues of the cycle operator M, subdominant modulus and 1-multiplicity, exactly.

    The transposed twirl of edge {v, v+1} sets x_{v+1} to N_d (x_v + x_{v+2}),
    so M^T is one Gauss-Seidel sweep, in gate order, of the Jacobi matrix
    N_d A of the path 1..L-1, with sites 0 and L held fixed.  A path has no
    cycles, so det(alpha L + U / alpha - mu) has only 2-cycles and does not
    depend on alpha: every sweep order is consistently ordered.  Young's
    theorem (Trans. Amer. Math. Soc. 76, 92 (1954); Varga, Matrix Iterative
    Analysis, ch. 4) then sends each pair +-2 N_d cos(j pi / L) of Jacobi
    eigenvalues to the sweep eigenvalues 4 N_d^2 cos^2(j pi / L) and 0.  So
    for every L_A and order the spectrum is {1, 1} u
    {4 N_d^2 cos^2(j pi / L) : j = 1..floor((L-1)/2)} u {0, ...}, and
    lambda2 = (2 N_d cos(pi / L))^2, or 0 at L = 2.

    The unit count is the fixed space: each twirl is a projection onto
    {x : x_{v+1} = 0}, self-adjoint under the positive definite Gram matrix
    of chain_spectra_equal, so M x = x iff every twirl fixes x, and the
    unit eigenvalue is semisimple.  Every cycle, in any order, twirls each
    edge once and so clears sites 1..L-1: the unit count is 2, the two ends.
    """
    l_total = int_at_least(l_total, 2, "chain length L")
    nd = nd_constant(d)
    pairs = (l_total - 1) // 2
    moduli = [(2 * nd * math.cos(j * math.pi / l_total)) ** 2 for j in range(1, pairs + 1)]
    eigs = np.array([1.0, 1.0] + moduli + [0.0] * (l_total - 1 - pairs))
    return ChainSpectrum(eigs, moduli[0] if moduli else 0.0, 2)


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
    only on t = |i - c| in 1..L-1, and N_d (d^(2L-t+1) + d^(2L-t-1)) = d^(2L-t)
    is d^(2L-t-1) times the one identity N_d (d^2 + 1) = d, checked here.
    Returns True when both facts hold; False only says that this proof does
    not apply.  Floating-point eigensolvers cannot settle the question at
    large L: the zero eigenvalue is defective with multiplicity m of about
    L/2, so backward-stable algorithms scatter it over a disk of radius
    eps^(1/m).
    """
    best = cem_position_sequence(l_a, l_total - l_a, "best")
    worst = cem_position_sequence(l_a, l_total - l_a, "worst")
    return best == worst[::-1] and nd_fraction(d) * (d * d + 1) == d


def grid_boundary_stats(l: int, d: int) -> tuple[float, float]:
    """Square-lattice boundary of length l with disjoint straddling edges.

    Purity (2 N_d)^l and variance I^l - (2 N_d)^(2l).
    """
    l = int_at_least(l, 1, "boundary length")
    p = (2.0 * nd_constant(d)) ** l
    var = second_moment_I(d) ** l - p * p
    return p, var


def grid_ordering_example(d: int) -> tuple[float, float]:
    """The 4-node ordering example run through the swap engine.

    Vertices 0,1 in A and 2,3 in B; boundary edges {0,2}, {1,3}, internal
    edges {0,1}, {2,3}.  Returns the first-cycle purity when the boundary
    gates are applied first, and when the internal gates are applied first.
    """
    g = build_graph(4, [(0, 2), (1, 3), (0, 1), (2, 3)], d)
    part = Bipartition(g.vertex_set((0, 1)))
    boundary, internal = (g.edges[0], g.edges[1]), (g.edges[2], g.edges[3])
    results = []
    for order in (boundary + internal, internal + boundary):
        proc = FixedSequence(g, order)
        series = evolve(g, part, proc, k=4)
        results.append(series.final)
    return results[0], results[1]
