"""Exact alpha=2 purity dynamics in the sparse swap-operator basis.

A two-copy Haar twirl R_X on the support of an edge X projects the swap
operator T_A onto span{T_{A\\X}, T_{A u X}}.  A swap vector sum_B c_B T_B is a
dict {subset bitmask B: c_B}; with a product fiducial state every T_B has
expectation 1, so its purity is the sum of the c_B, none of them dropped.
Within 2^n <= TERM_CAP, a UniformIID expectation dict of 2^n / DENSE_FILL
terms becomes a float64 array over all 2^n subsets, stepped by bincount
scatters.

Edge sequences are stored in application-to-state order, but the twirls
compose in the reverse order: a circuit's purity twirls T_A by its *last*
gate first.  So evolve runs one backward recursion over the states s of the
edge process (kernel K, start law p): h_0(s) = T_A, and the mean twirl of the
t gates from a visit to s on is h_t(s) = R_s(sum_s' K[s,s'] h_{t-1}(s')).
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
    sample_sequence,
)
from .series import PuritySeries

TERM_CAP = 1 << 24  # _capped raises CapacityError above this
DENSE_FILL = 16  # evolve steps a mixture densely from 2^n / DENSE_FILL terms


@lru_cache(maxsize=None)
def twirl_coefficients(m: int, s: int, d: int) -> tuple[float, float]:
    """Coefficients (c_keep, c_join) of the two-copy twirl on a |X|=m edge.

    The restriction of T_A to the edge support is the swap on the s = |A n X|
    overlapped factors times the identity on the rest; the Haar twirl projects
    it onto the commutant span{1_X, T_X} of U^(x2).  Solving the 2x2 Gram
    system with Tr O = d^(2m-s) and Tr(O T_X) = d^(m+s) gives the result as
    R_X(T_A) = c_keep T_{A\\X} + c_join T_{A u X}.
    """
    if m < 2 or s < 0 or s > m:
        raise ValidationError(f"invalid twirl overlap: m={m}, s={s}")
    if d < 2:
        raise ValidationError(f"local dimension must be >= 2, got d={d}")
    if s == 0:
        return 1.0, 0.0
    if s == m:
        return 0.0, 1.0
    big = float(d) ** m  # dim of the edge support
    tr_o = float(d) ** (2 * m - s)
    tr_ot = float(d) ** (m + s)
    det = big**4 - big**2  # all exact integers for d^(4m) <= 2^53: each result rounds once
    return (big**2 * tr_o - big * tr_ot) / det, (big**2 * tr_ot - big * tr_o) / det


def apply_edge(v: dict[int, float], x: VertexSet, d: int) -> dict[int, float]:
    """One edge twirl R_X applied to a swap vector {subset bits: coefficient}."""
    return _twirl(v, (x,), d)


def apply_mixture(v: dict | np.ndarray, edges: tuple[VertexSet, ...], d: int) -> dict | np.ndarray:
    """The uniform mixture sum_X R_X / |edges| applied once to a dict or a 2^n array."""
    if isinstance(v, dict):
        return _twirl(v, edges, d)
    idx = np.arange(v.size)
    pop = np.zeros(v.size, dtype=np.int8)  # pop[B] = |B|, built by doubling
    for i in range(v.size.bit_length() - 1):
        pop[1 << i : 2 << i] = pop[: 1 << i] + 1
    w = v * (1.0 / len(edges))
    out = np.zeros(v.size)
    for x in edges:
        m = len(x)
        s = pop[idx & x.bits]
        c_keep, c_join = np.array([twirl_coefficients(m, j, d) for j in range(m + 1)]).T
        out += np.bincount(idx & ~x.bits, w * c_keep[s], minlength=v.size)
        out += np.bincount(idx | x.bits, w * c_join[s], minlength=v.size)
    return out  # 2^n <= TERM_CAP needs no cap check


def _twirl(v: dict[int, float], edges: tuple[VertexSet, ...], d: int) -> dict[int, float]:
    """sum_X R_X(v) / len(edges), every edge summed into one vector."""
    w = 1.0 / len(edges)
    out: dict[int, float] = {}
    for x in edges:
        xb = x.bits
        m = len(x)
        for bits, c in v.items():
            c *= w
            s = (bits & xb).bit_count()
            if s == 0 or s == m:
                out[bits] = out.get(bits, 0.0) + c
                continue
            c_keep, c_join = twirl_coefficients(m, s, d)
            keep = bits & ~xb
            join = bits | xb
            out[keep] = out.get(keep, 0.0) + c * c_keep
            out[join] = out.get(join, 0.0) + c * c_join
    return _capped(out)


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


def _mixture(v: dict | np.ndarray, edges: tuple[VertexSet, ...], d: int) -> dict | np.ndarray:
    """apply_mixture, on a 2^n array once a dict fills 2^n / DENSE_FILL terms (2^n <= TERM_CAP)."""
    size = 1 << edges[0].n
    if isinstance(v, dict) and size <= TERM_CAP and len(v) * DENSE_FILL >= size:
        v = np.bincount(list(v), list(v.values()), minlength=size)
    return apply_mixture(v, edges, d)


def _path(v: dict[int, float], edges: tuple[VertexSet, ...], d: int) -> dict[int, float]:
    """The twirl of the edge path edges (application order): its last edge twirls v first."""
    for x in reversed(edges):
        v = apply_edge(v, x, d)
    return v


def _purity(v: dict | np.ndarray) -> float:
    """The purity of a swap vector: the sum of its coefficients."""
    return sum(v.values(), 0.0) if isinstance(v, dict) else float(v.sum())


def evolve(
    g: Graph,
    start: Bipartition,
    proc: EdgeProcess,
    k: int,
    mode: str = "expectation",
    seed: int | None = None,
) -> PuritySeries:
    """Ensemble-averaged purity after each of 0..k circuit steps (k an integer >= 0).

    expectation mode averages exactly over the Haar unitaries and the edge
    choice (a MarkovChain over whole edge paths); sampled mode fixes one edge
    sequence, drawn from seed (an integer >= 0), and averages over Haar only.
    Every process reads P_t = sum_s p(s) purity(h_t(s)) off the recursion (a
    UniformIID has one state, the mixture).  On a cycle of c edges (a
    FixedSequence, or the drawn sequence, c = k), P_{qc+r} twirls T_A by the
    first r edges, then q whole cycles: c k - c(c-1)/2 twirls for k >= c.

    Terms are nonnegative and none is dropped, so barring underflow rounding
    is the only error: P_t is within j u P_t / (1 - j u) of exact, u = 2^-53,
    j = a t + N + b, N <= 2^n the most terms read, m the largest edge (d^(4m)
    <= 2^53): a = 2^m, b = -1 on a cycle; a = |E|(2^m - 1) + 3, b = -1 for a
    UniformIID mixture; a = |E| + 2^m + 1, b = |E| for a MarkovChain.
    """
    k = int_at_least(k, 0, "steps")
    if mode not in ("expectation", "sampled"):
        raise ValidationError(f"mode must be 'expectation' or 'sampled', got {mode!r}")
    if proc.graph != g:
        raise ValidationError("the edge process is built on another graph")
    basis, values = {start.a_set.bits: 1.0}, [1.0] * (k + 1)
    meta = {"model": "swap-engine", "d": g.d, "n": g.n_vertices, "mode": mode}
    if mode == "sampled":
        meta["seed"] = seed = int_at_least(seed, 0, "seed")
    # a run's steps are (t, each state's ops, law p); its first twirls T_A itself, not a kernel
    # sum of copies, and twirl is read from the module, so a patched apply_edge is the one called
    twirl, kernel = apply_edge, lambda h: h
    if mode == "sampled" or isinstance(proc, FixedSequence):
        seq = proc.sequence if isinstance(proc, FixedSequence) else sample_sequence(proc, k, seed)
        c = len(seq)
        twirl, runs = _path, (  # residue r: the first r edges, then the whole cycle over and over
            [(t, (seq[:t] if t < c else seq,), (1.0,)) for t in range(r or c, k + 1, c)]
            for r in range(min(c, k + 1))
        )
    elif isinstance(proc, UniformIID):
        twirl, runs = _mixture, [[(t, (g.edges,), (1.0,)) for t in range(1, k + 1)]]
    else:
        kernel = lambda h: [_weighted_sum(zip(h, row)) for row in proc.transition]
        runs = [[(t, g.edges, proc.initial) for t in range(1, k + 1)]]
    for steps in runs:
        h = None  # drops the last run's vector before this run's first twirl
        for t, ops, p in steps:
            src = [basis] * len(ops) if h is None else kernel(h)
            h = None  # src.pop hands each twirl the only reference to its input
            h = [twirl(src.pop(0), op, g.d) for op in ops]
            values[t] = float(sum(w * _purity(v) for w, v in zip(p, h)))
    return PuritySeries(tuple(values), meta)
