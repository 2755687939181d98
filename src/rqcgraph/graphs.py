"""Graphs, hypergraphs, bipartitions and the stochastic edge-selection processes.

Vertex subsets are Python-int bitmasks of any width, which double as the basis
labels of the swap-operator engine.  Only the numpy paths bound a graph's size:
the engine's arrays (TERM_CAP) and the oracle's states (MAX_AMPLITUDES).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .errors import ValidationError, int_at_least


@dataclass(frozen=True)
class VertexSet:
    """Subset of the vertices 0..n-1, stored as a bitmask."""

    bits: int
    n: int

    def __post_init__(self):
        # numpy ints become Python ints, whose bit methods the class uses
        object.__setattr__(self, "bits", int_at_least(self.bits, 0, "bitmask"))
        object.__setattr__(self, "n", int_at_least(self.n, 1, "vertex count"))
        if self.bits >> self.n:
            raise ValidationError(f"bitmask {self.bits:#x} has bits outside 0..{self.n - 1}")

    @classmethod
    def from_indices(cls, indices: Iterable[int], n: int) -> "VertexSet":
        try:
            indices = list(indices)
        except TypeError:
            raise ValidationError(f"vertex indices must be a list, got {indices!r}") from None
        bits = 0
        for i in indices:
            i = int_at_least(i, 0, "vertex index")
            if i >= n:
                raise ValidationError(f"vertex index {i} out of range 0..{n - 1}")
            if bits >> i & 1:
                raise ValidationError(f"vertex index {i} is repeated in {indices!r}")
            bits |= 1 << i
        return cls(bits, n)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __iter__(self) -> Iterator[int]:
        b = self.bits
        while b:
            low = b & -b
            yield low.bit_length() - 1
            b ^= low

    def indices(self) -> tuple[int, ...]:
        return tuple(self)

    def complement(self) -> "VertexSet":
        return VertexSet(((1 << self.n) - 1) ^ self.bits, self.n)

    def __repr__(self) -> str:
        return f"VertexSet({{{','.join(map(str, self))}}}, n={self.n})"


@dataclass(frozen=True)
class Graph:
    """(Hyper)graph: n_vertices >= 1 qudits of dimension d >= 2, and distinct edges of >= 2 vertices."""

    n_vertices: int
    edges: tuple[VertexSet, ...]
    d: int

    def __post_init__(self):
        n = int_at_least(self.n_vertices, 1, "vertex count")
        object.__setattr__(self, "n_vertices", n)
        object.__setattr__(self, "d", int_at_least(self.d, 2, "local dimension"))
        if not isinstance(self.edges, tuple) or not all(isinstance(e, VertexSet) and e.n == n for e in self.edges):
            raise ValidationError(f"edges must be a tuple of VertexSets on {n} vertices")
        if not self.edges:
            raise ValidationError("edge list is empty")
        seen: set[int] = set()
        for e in self.edges:
            if len(e) < 2:
                raise ValidationError(f"edge {e} has cardinality < 2")
            if e.bits in seen:
                raise ValidationError(f"duplicate edge {e}")
            seen.add(e.bits)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def vertex_set(self, indices: Iterable[int]) -> VertexSet:
        return VertexSet.from_indices(indices, self.n_vertices)


def build_graph(n: int, edges: Sequence[Iterable[int]], d: int) -> Graph:
    """The Graph whose edges are the given vertex-index lists, in order; Graph checks the rest."""
    n = int_at_least(n, 1, "vertex count")
    return Graph(n, tuple(VertexSet.from_indices(raw, n) for raw in edges or ()), d)


def complete_graph(n: int, d: int = 2) -> Graph:
    """K_n with all vertex pairs as edges."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return build_graph(n, edges, d)


def chain_graph(length: int, d: int = 2) -> Graph:
    """Linear chain 0-1-...-(length-1)."""
    return build_graph(length, [(i, i + 1) for i in range(length - 1)], d)


def _load_json_object(path: str, what: str) -> dict:
    """The JSON object in the file at path; read, parse and shape errors as ValidationError."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read {what} file {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} file {path} does not hold a JSON object")
    return doc


def load_graph(path: str) -> Graph:
    """Read the JSON graph format {"n": int, "d": int, "edges": [[int,...],...]}."""
    doc = _load_json_object(path, "graph")
    for key in ("n", "d", "edges"):
        if key not in doc:
            raise ValidationError(f"graph file {path} missing key '{key}'")
    if not isinstance(doc["edges"], list):
        raise ValidationError(f"graph file {path}: 'edges' must be a list")
    return build_graph(doc["n"], doc["edges"], doc["d"])


def load_partition(path: str, g: Graph) -> "Bipartition":
    """Read a partition file {"A": [int,...]} against graph g."""
    doc = _load_json_object(path, "partition")
    if "A" not in doc:
        raise ValidationError(f"partition file {path} missing key 'A'")
    return Bipartition(g.vertex_set(doc["A"]))


@dataclass(frozen=True)
class Bipartition:
    """Bipartition V = A u B given by the subsystem A."""

    a_set: VertexSet

    @property
    def b_set(self) -> VertexSet:
        return self.a_set.complement()


def check_built_on(g: Graph, p: Bipartition, proc: EdgeProcess | None = None) -> None:
    """Raise ValidationError unless p, and proc if given, are built on g."""
    if proc is not None and proc.graph != g:
        raise ValidationError("the edge process is built on another graph")
    if p.a_set.n != g.n_vertices:
        raise ValidationError("the partition is built on another graph")


def boundary_edges(g: Graph, p: Bipartition) -> tuple[tuple[VertexSet, ...], float]:
    """Edges straddling the bipartition, and the boundary fraction q = |dA|/|E|."""
    check_built_on(g, p)
    a = p.a_set.bits
    b = p.b_set.bits
    cross = tuple(e for e in g.edges if (e.bits & a) and (e.bits & b))
    return cross, len(cross) / g.n_edges


# --- edge-selection processes -------------------------------------------------


@dataclass(frozen=True)
class UniformIID:
    """Each step draws an edge uniformly at random, independently."""

    graph: Graph


@dataclass(frozen=True)
class FixedSequence:
    """Deterministic ordered edge list, cycled when more steps are requested.

    Edges are in application-to-state order (first entry hits the state first).
    """

    graph: Graph
    sequence: tuple[VertexSet, ...]

    def __post_init__(self):
        valid = set(self.graph.edges)
        for e in self.sequence:
            if e not in valid:
                raise ValidationError(f"sequence edge {e} is not an edge of the graph")
        if not self.sequence:
            raise ValidationError("fixed sequence is empty")


@dataclass(frozen=True)
class MarkovChain:
    """Markov edge selection: initial distribution + row-stochastic kernel.

    Both are indexed over the graph's edge list; every entry lies in [0, 1]
    and each vector sums to 1 within 1e-12.
    """

    graph: Graph
    initial: tuple[float, ...]
    transition: tuple[tuple[float, ...], ...] = field(repr=False)

    def __post_init__(self):
        m = self.graph.n_edges
        if len(self.transition) != m:
            raise ValidationError("transition matrix is not |E| x |E|")
        named = [("initial probability vector", self.initial)]
        named += [(f"transition row {i}", row) for i, row in enumerate(self.transition)]
        for what, p in named:
            if len(p) != m:
                raise ValidationError(f"{what} has length {len(p)}, not |E| = {m}")
            if not (all(0.0 <= x <= 1.0 for x in p) and abs(sum(p) - 1.0) <= 1e-12):  # NaN fails
                raise ValidationError(f"{what} needs entries in [0, 1] summing to 1, got {p!r}")


EdgeProcess = Union[UniformIID, FixedSequence, MarkovChain]


def sample_sequence(proc: EdgeProcess, k: int, seed: int) -> tuple[VertexSet, ...]:
    """Draw a length-k edge sequence; deterministic given (proc, k, seed).

    k and seed must be non-negative integers; numpy integers are accepted.
    """
    k = int_at_least(k, 0, "steps")
    rng = np.random.default_rng(int_at_least(seed, 0, "seed"))
    return tuple(proc.graph.edges[i] for i in draw_indices(proc, k, rng))


def draw_indices(proc: EdgeProcess, k: int, rng: np.random.Generator) -> list[int]:
    """k edges of proc as positions in proc.graph.edges, drawn from rng (sample_sequence's draws)."""
    if k == 0:
        return []
    g = proc.graph
    if isinstance(proc, FixedSequence):
        index = {e.bits: i for i, e in enumerate(g.edges)}
        seq = proc.sequence
        return [index[seq[i % len(seq)].bits] for i in range(k)]
    if isinstance(proc, UniformIID):
        return rng.integers(0, g.n_edges, size=k).tolist()
    # MarkovChain
    trans = np.asarray(proc.transition)
    out = [int(rng.choice(g.n_edges, p=np.asarray(proc.initial)))]
    for _ in range(k - 1):
        out.append(int(rng.choice(g.n_edges, p=trans[out[-1]])))
    return out


def cem_position_sequence(l_a: int, l_b: int, kind: str) -> tuple[int, ...]:
    """One contiguous-edge-model cycle as left-vertex positions of chain edges.

    Position v stands for the edge {v, v+1} on the chain 0..L-1 (A occupies
    0..L_A-1, so the straddling edge e sits at v = L_A-1; a_i at L_A-1-i and
    b_i at L_A+i-1).  Returned in application-to-state order.
    """
    l_a, l_b = int_at_least(l_a, 1, "L_A"), int_at_least(l_b, 1, "L_B")
    if kind not in ("best", "worst"):
        raise ValidationError(f"kind must be 'best' or 'worst', got {kind!r}")
    e = l_a - 1
    a_pos = [l_a - 1 - i for i in range(1, l_a)]  # a_1 .. a_{L_A-1}
    b_pos = [l_a + i - 1 for i in range(1, l_b)]  # b_1 .. b_{L_B-1}
    if kind == "best":
        # far end inward on each side, boundary edge last
        return tuple(reversed(b_pos)) + tuple(reversed(a_pos)) + (e,)
    return (e,) + tuple(a_pos) + tuple(b_pos)


def cem_sequence(l_a: int, l_b: int, kind: str) -> tuple[VertexSet, ...]:
    """cem_position_sequence as VertexSet edges of the L_A + L_B site chain."""
    n = l_a + l_b
    return tuple(
        VertexSet.from_indices((v, v + 1), n)
        for v in cem_position_sequence(l_a, l_b, kind)
    )
