"""Exact alpha=2 purity dynamics in the sparse swap-operator basis.

A two-copy Haar twirl R_X on the support of an edge X projects the swap
operator T_A onto span{T_{A\\X}, T_{A u X}}.  A swap vector sum_B c_B T_B is a
dict {subset bitmask B: c_B}; with a product fiducial state every T_B has
expectation 1, so its purity is the sum of the c_B, none of them dropped.
R_X fixes T_B exactly unless X splits B (|B n X| neither 0 nor |X|), so
apply_edge copies the vector and rewrites only its split terms: on a chain
from a prefix, a gate moves the domain wall only at the edge where it sits.
The copy is exact, so a coefficient meets no rounding that evolve's bound
does not count.
On arrays one kernel, _twirl_rows, twirls row s of an (|E|, 2^n) array by
edge s with bincount scatters.  Within 2^n <= TERM_CAP, a UniformIID
expectation dict of 2^n / DENSE_FILL terms becomes a float64 array over all
2^n subsets, which apply_mixture steps as the summed rows of a broadcast
v / |E|.  A MarkovChain expectation's |E| dicts become one (|E|, 2^n) array
(within |E| 2^n <= TERM_CAP) once the kernel's dict sums would cost more
than an array step: its kernel is one matrix product, then _twirl_rows.

Edge sequences are stored in application-to-state order, but the twirls
compose in the reverse order: a circuit's purity twirls T_A by its *last*
gate first.  So evolve runs one backward recursion over the states s of the
edge process (kernel K, start law p): h_0(s) = T_A, and the mean twirl of the
t gates from a visit to s on is h_t(s) = R_s(sum_s' K[s,s'] h_{t-1}(s')).
It writes that recursion as one loop per process: per residue of a cycle,
per step of a UniformIID mixture or of a MarkovChain's |E| states.
"""

from __future__ import annotations

from functools import lru_cache

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
)
from .series import PuritySeries

TERM_CAP = 1 << 24  # _capped raises CapacityError above this
DENSE_FILL = 16  # evolve steps a mixture densely from 2^n / DENSE_FILL terms
# a MarkovChain's kernel goes dense when its dict sums cost more than an array step; on a
# 2-core machine a dict term read costs about 4 array entries, and a step's numpy calls 1024
MARKOV_READ_COST, MARKOV_STEP_COST = 4, 1 << 10


def twirl_coefficients(m: int, s: int, d: int) -> tuple[float, float]:
    """Coefficients (c_keep, c_join) of the two-copy twirl on a |X|=m edge.

    The restriction of T_A to the edge support is the swap on the s = |A n X|
    overlapped factors times the identity on the rest; the Haar twirl projects
    it onto the commutant span{1_X, T_X} of U^(x2).  Solving the 2x2 Gram
    system with Tr O = d^(2m-s) and Tr(O T_X) = d^(m+s) gives the result as
    R_X(T_A) = c_keep T_{A\\X} + c_join T_{A u X} with c_keep = (d^(2m-s) - d^s)
    / (d^(2m) - 1) and c_join = (d^(m+s) - d^(m-s)) / (d^(2m) - 1), each a
    true division of Python ints, which rounds once.  m, s and d must be
    integers; they are checked on every call, before the cached
    _twirl_coefficients, which the engine calls directly.
    """
    m, s = int_at_least(m, 2, "edge size m"), int_at_least(s, 0, "overlap s")
    d = int_at_least(d, 2, "local dimension")
    if s > m:
        raise ValidationError(f"invalid twirl overlap: m={m}, s={s}")
    return _twirl_coefficients(m, s, d)


@lru_cache(maxsize=None)
def _twirl_coefficients(m: int, s: int, d: int) -> tuple[float, float]:
    """twirl_coefficients for checked Python ints 0 <= s <= m, m >= 2, d >= 2."""
    den = d ** (2 * m) - 1
    return (d ** (2 * m - s) - d**s) / den, (d ** (m + s) - d ** (m - s)) / den


def apply_edge(v: dict[int, float], x: VertexSet, d: int) -> dict[int, float]:
    """One edge twirl R_X applied to a swap vector {subset bits: coefficient}.

    A copy of v with each split term B moved to B \\ X and B u X, which X
    does not split: no split key receives a contribution, so none is left at
    zero.  v itself is not changed.
    """
    xb, m = x.bits, len(x)
    out = dict(v)
    for bits, c in v.items():
        on = bits & xb
        if on and on != xb:
            c_keep, c_join = _twirl_coefficients(m, on.bit_count(), d)
            del out[bits]
            keep, join = bits & ~xb, bits | xb
            out[keep] = out.get(keep, 0.0) + c * c_keep
            out[join] = out.get(join, 0.0) + c * c_join
    return _capped(out)


def apply_mixture(v: dict | np.ndarray, edges: tuple[VertexSet, ...], d: int) -> dict | np.ndarray:
    """The uniform mixture sum_X R_X / |edges| applied once to a dict or a 2^n array."""
    w = 1.0 / len(edges)
    if isinstance(v, dict):
        return _weighted_sum((apply_edge(v, x, d), w) for x in edges)
    return _twirl_rows(np.broadcast_to(v * w, (len(edges), v.size)), edges, d, summed=True)


def _weighted_sum(pairs) -> dict[int, float]:
    """sum_i w_i v_i over (v_i, w_i) pairs, consumed one at a time."""
    out: dict[int, float] = {}
    for vec, w in pairs:
        if w == 0.0:
            continue
        for bits, c in vec.items():
            out[bits] = out.get(bits, 0.0) + w * c
    return _capped(out)


def _capped(out: dict[int, float]) -> dict[int, float]:
    """out itself; CapacityError above TERM_CAP terms."""
    if len(out) > TERM_CAP:
        raise CapacityError(f"swap vector exceeded {TERM_CAP} terms")
    return out


def _dense(v: dict[int, float], size: int) -> np.ndarray:
    """The dict v as a float64 array over all size subsets."""
    return np.bincount(list(v), list(v.values()), minlength=size)


def _popcounts(size: int) -> np.ndarray:
    """pop[B] = |B| for each subset B < size (a power of 2), built by doubling."""
    pop = np.zeros(size, dtype=np.int8)
    for i in range(size.bit_length() - 1):
        pop[1 << i : 2 << i] = pop[: 1 << i] + 1
    return pop


def _twirl_rows(h: np.ndarray, edges: tuple[VertexSet, ...], d: int, summed: bool = False) -> np.ndarray:
    """Row s of the (|E|, 2^n) array h twirled by its own edge R_{e_s}; with summed, the sum of those rows.

    Entry B of row s goes to B \\ e_s times c_keep and to B u e_s times c_join,
    in blocks of rows of about 2^14 entries, which keep the temporaries in
    cache.  bincount scatters a block by flat index, whose low n bits are B,
    or with summed by B alone, so that it sums the rows (h may be a view).
    """
    n_e, size = h.shape
    width = max(map(len, edges)) + 1
    coef = np.zeros((2, n_e * width))  # coef[:, s width + j] = (c_keep, c_join) of |e_s n B| = j
    for r, x in enumerate(edges):
        for j in range(len(x) + 1):
            coef[:, r * width + j] = _twirl_coefficients(len(x), j, d)
    xb = np.array([x.bits for x in edges])[:, None]
    idx, pop, per = np.arange(size), _popcounts(size), max(1, (1 << 14) // size)
    flat = idx[None] if summed else np.arange(min(per, n_e) * size).reshape(-1, size)
    out = np.zeros(size if summed else h.shape)
    for lo in range(0, n_e, per):
        v, x, part = h[lo : lo + per], xb[lo : lo + per], out if summed else out[lo : lo + per]
        f, code = flat[: len(v)], pop[idx & x] + np.arange(lo * width, (lo + len(v)) * width, width)[:, None]
        block = np.bincount((f & ~x).ravel(), (v * coef[0, code]).ravel(), minlength=part.size)
        block += np.bincount((f | x).ravel(), (v * coef[1, code]).ravel(), minlength=part.size)
        part += block.reshape(part.shape)
    return out


def _markov_twirl(h: list | np.ndarray, edges: tuple[VertexSet, ...], d: int) -> list | np.ndarray:
    """Row s twirled by its own edge R_{e_s}: apply_edge on each dict, or _twirl_rows on the (|E|, 2^n) array."""
    if isinstance(h, list):  # h.pop hands each twirl the only reference to its input
        return [apply_edge(h.pop(0), x, d) for x in edges]
    return _twirl_rows(h, edges, d)


def _markov_kernel(transition: tuple[tuple[float, ...], ...], size: int):
    """The kernel h -> [sum_s' K[s, s'] h(s') for each state s]: a dict per sum, or one matrix product.

    The |E| dicts become one (|E|, 2^n) array, while |E| 2^n <= TERM_CAP, once
    the sums would read W dict terms (a zero weight reads none) with
    MARKOV_READ_COST W >= |E| 2^n + MARKOV_STEP_COST; from there on the array
    is carried.
    """
    matrix = np.array(transition)
    reads = np.count_nonzero(matrix, axis=0).tolist()  # the sums that read h(s')

    def kernel(h: list | np.ndarray) -> list | np.ndarray:
        if isinstance(h, list):
            dense = len(h) * size
            work = sum(r * len(v) for r, v in zip(reads, h))
            if dense > TERM_CAP or MARKOV_READ_COST * work < dense + MARKOV_STEP_COST:
                return [_weighted_sum(zip(h, row)) for row in transition]
            h = np.array([_dense(v, size) for v in h])
        return matrix @ h

    return kernel


def _purity(v: dict | np.ndarray) -> float:
    """The purity of a swap vector: the sum of its coefficients."""
    return sum(v.values(), 0.0) if isinstance(v, dict) else float(v.sum())


def evolve(g: Graph, start: Bipartition, proc: EdgeProcess, k: int) -> PuritySeries:
    """Ensemble-averaged purity after each of 0..k circuit steps (k an integer >= 0).

    It averages exactly over the Haar unitaries and the edge choice (a
    MarkovChain over whole edge paths).  Every process reads
    P_t = sum_s p(s) purity(h_t(s)) off the recursion (a UniformIID has one
    state, the mixture).  On a FixedSequence cycle of c edges, P_{qc+r} twirls
    T_A by the first r edges, then q whole cycles: c k - c(c-1)/2 twirls for
    k >= c.

    Terms are nonnegative and none is dropped, so rounding is the only error:
    P_t is within j u P_t / (1 - j u) + M 2^-1074 of exact, u = 2^-53,
    j = a t + N + b, N <= 2^n the most terms read, m the largest edge:
    a = 2^m, b = -1 on a cycle; a = |E|(2^m - 1) + 3, b = -1 for a UniformIID
    mixture; a = |E| + 2^m + 1, b = |E| for a MarkovChain.  A twirl rewrites
    only the terms its edge splits and copies the rest exactly, so a new
    coefficient is its old one plus at most 2^m - 2 products, each of a
    rounded coefficient: 2^m roundings, as a counts; a dense twirl adds the
    same products, and exact zeros.  A mixture step on dicts is |E| twirls,
    each times the rounded 1/|E|, summed: 2^m + |E| + 1 <= a roundings; on
    the array, each subset sums at most |E|(2^m - 1) nonzero products of a
    rounded coefficient and the rounded v/|E| (4 roundings each): a.  On the
    MarkovChain's (|E|, 2^n) array the kernel's sums of |E| products come
    from one BLAS matrix product, in its own order and perhaps with fused
    multiply-adds; a sum of |E| nonnegative products is within |E| roundings
    in any order, so a and b stand.  The M term is underflow: a product that
    lands below 2^-1022 is off by at most 2^-1075, a sum that lands there is
    exact, and each T_B's purity weight is at most 1, so each of the M
    products that P_t reads adds at most 2^-1074 (with the rounding after
    it, for j u <= 1/4).  M <= 2tN on a cycle, 3|E|tN for a UniformIID
    mixture and (|E| + 3)|E|tN for a MarkovChain.
    """
    k = int_at_least(k, 0, "steps")
    check_built_on(g, start, proc)
    basis, values = {start.a_set.bits: 1.0}, [1.0] * (k + 1)
    if isinstance(proc, FixedSequence):
        seq, c = proc.sequence, len(proc.sequence)
        for r in range(min(c, k + 1)):  # residue r: the first r edges, then the whole cycle over and over
            h = basis  # drops the last residue's vector before this residue's first twirl
            for t in range(r or c, k + 1, c):
                for x in reversed(seq[:t]):  # the last edge twirls first; seq[:t] is seq from t = c on
                    h = apply_edge(h, x, g.d)
                values[t] = _purity(h)
    elif isinstance(proc, UniformIID):
        h, size = basis, 1 << g.n_vertices
        for t in range(1, k + 1):
            if isinstance(h, dict) and size <= TERM_CAP and len(h) * DENSE_FILL >= size:
                h = _dense(h, size)
            h = apply_mixture(h, g.edges, g.d)
            values[t] = _purity(h)
    else:
        h, kernel = [basis] * g.n_edges, _markov_kernel(proc.transition, 1 << g.n_vertices)
        for t in range(1, k + 1):
            if t > 1:
                h = kernel(h)  # bound to h, so the last step's vectors go before the twirl
            h = _markov_twirl(h, g.edges, g.d)
            values[t] = float(sum(w * _purity(v) for w, v in zip(proc.initial, h)))
    return PuritySeries(tuple(values))
