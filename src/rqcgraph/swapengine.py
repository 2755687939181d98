"""Exact alpha=2 purity dynamics in the sparse swap-operator basis.

A two-copy Haar twirl on the support of an edge X projects the swap operator
T_A onto span{T_{A\\X}, T_{A u X}}; iterating this over an edge sequence gives
the exact ensemble-averaged purity for any graph, bipartition and circuit.

Convention: edge sequences are stored in application-to-state order, but the
twirl superoperators compose in the reverse order, so the purity of a circuit
is computed by applying the twirl of the *last* gate first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import CapacityError, ValidationError
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

PRUNE_THRESHOLD = 1e-15
TERM_CAP = 1 << 24  # apply_edge and _weighted_sum raise CapacityError above this


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
    det = big**4 - big**2
    c_keep = (big**2 * tr_o - big * tr_ot) / det
    c_join = (big**2 * tr_ot - big * tr_o) / det
    return c_keep, c_join


@dataclass(frozen=True)
class SwapVector:
    """Sparse nonnegative combination sum_A c_A T_A over subset bitmasks."""

    terms: dict[int, float] = field(hash=False)
    n: int = 0
    d: int = 2

    @classmethod
    def basis(cls, a: VertexSet, d: int) -> "SwapVector":
        return cls({a.bits: 1.0}, a.n, d)

    def purity(self) -> float:
        """<omega^(x2), .> with a product fiducial state: every T_B contributes 1."""
        return float(sum(self.terms.values()))

    def coefficient(self, a: VertexSet) -> float:
        return self.terms.get(a.bits, 0.0)

    def __len__(self) -> int:
        return len(self.terms)


def purity(v: SwapVector) -> float:
    return v.purity()


def apply_edge(v: SwapVector, x: VertexSet) -> SwapVector:
    """One edge twirl R_X applied to every term, with linear extension."""
    xb = x.bits
    m = len(x)
    d = v.d
    out: dict[int, float] = {}
    for bits, c in v.terms.items():
        s = (bits & xb).bit_count()
        if s == 0 or s == m:
            out[bits] = out.get(bits, 0.0) + c
            continue
        c_keep, c_join = twirl_coefficients(m, s, d)
        keep = bits & ~xb
        join = bits | xb
        out[keep] = out.get(keep, 0.0) + c * c_keep
        out[join] = out.get(join, 0.0) + c * c_join
    out = {b: c for b, c in out.items() if c >= PRUNE_THRESHOLD}
    if len(out) > TERM_CAP:
        raise CapacityError(f"swap vector exceeded {TERM_CAP} terms")
    return SwapVector(out, v.n, v.d)


def apply_mixture(v: SwapVector, edges: tuple[VertexSet, ...], probs) -> SwapVector:
    """Probability-weighted mixture sum_X P(X) R_X applied once."""
    steps = ((apply_edge(v, e), p) for e, p in zip(edges, probs) if p != 0.0)
    return _weighted_sum(steps, v.n, v.d)


def _weighted_sum(pairs, n: int, d: int) -> SwapVector:
    """sum_i w_i v_i over (v_i, w_i) pairs, consumed one at a time, then pruned."""
    out: dict[int, float] = {}
    for vec, w in pairs:
        if w == 0.0:
            continue
        for bits, c in vec.terms.items():
            out[bits] = out.get(bits, 0.0) + w * c
    out = {b: c for b, c in out.items() if c >= PRUNE_THRESHOLD}
    if len(out) > TERM_CAP:
        raise CapacityError(f"swap vector exceeded {TERM_CAP} terms")
    return SwapVector(out, n, d)


def _prefix_purities(start: SwapVector, cycle: tuple[VertexSet, ...], k: int) -> list[float]:
    """Purities P_1..P_k of the circuit that repeats cycle (application order).

    With c = len(cycle) and j = q c + r (0 <= r < c), P_j = purity(C^q w_r):
    w_r = R_{s_0}...R_{s_{r-1}}(T_A) twirls the first r edges, last first, and
    C = R_{s_0}...R_{s_{c-1}} is the whole cycle.  These are a rerun of the
    length-j prefix's twirls in the same order, so each value is bit-identical
    to it, in sum_{r<min(c,k+1)} (r + c floor((k-r)/c)) apply_edge calls, not
    k(k+1)/2 (the same count when c = k, as for one drawn sequence).
    """
    c = len(cycle)
    out = [0.0] * (k + 1)
    for r in range(min(c, k + 1)):
        v, edges = start, cycle[:r]
        for j in range(r, k + 1, c):
            for e in reversed(edges):
                v = apply_edge(v, e)
            out[j] = v.purity()
            edges = cycle
    return out[1:]


def evolve(
    g: Graph,
    start: Bipartition,
    proc: EdgeProcess,
    k: int,
    mode: str = "expectation",
    seed: int | None = None,
) -> PuritySeries:
    """Ensemble-averaged purity after each of 0..k circuit steps.

    expectation mode averages exactly over both the Haar unitaries and the
    edge choice (for a MarkovChain, over whole edge paths, not per-step
    marginals); sampled mode fixes one drawn edge sequence and averages over
    Haar only.
    """
    if k < 0:
        raise ValidationError(f"steps must be >= 0, got {k}")
    if mode not in ("expectation", "sampled"):
        raise ValidationError(f"mode must be 'expectation' or 'sampled', got {mode!r}")
    basis = SwapVector.basis(start.a_set, g.d)
    values = [1.0]
    meta = {"model": "swap-engine", "d": g.d, "n": g.n_vertices, "mode": mode}
    if mode == "sampled":
        if seed is None:
            raise ValidationError("sampled mode requires a seed")
        meta["seed"] = seed

    if mode == "sampled" or isinstance(proc, FixedSequence):
        # one edge sequence, Haar average only (a FixedSequence: its cycle, no seed)
        cycle = proc.sequence if isinstance(proc, FixedSequence) else sample_sequence(proc, k, seed)
        values += _prefix_purities(basis, cycle, k)
    elif isinstance(proc, UniformIID):
        # every step applies the same mixture: composition order is immaterial
        probs = [1.0 / g.n_edges] * g.n_edges
        v = basis
        for _ in range(k):
            v = apply_mixture(v, g.edges, probs)
            values.append(v.purity())
    else:
        # MarkovChain: consecutive edges are correlated, so per-step marginals
        # are not enough.  Condition on the edge x at each step, last step
        # first: one step gives h(x) = R_x(T_A), and each further step is one
        # more h(x) <- R_x sum_y M[x,y] h(y) (the kernel is time-homogeneous),
        # so P_j = sum_x p_1(x) purity(h(x)) after j of them.
        h = None
        for _ in range(k):
            h = [
                apply_edge(basis if h is None else _weighted_sum(zip(h, row), g.n_vertices, g.d), x)
                for x, row in zip(g.edges, proc.transition)
            ]
            values.append(float(sum(p * v.purity() for p, v in zip(proc.initial, h))))
    return PuritySeries(tuple(values), meta)
