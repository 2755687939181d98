import numpy as np
import pytest
from hypothesis import given, strategies as st

from rqcgraph.errors import ValidationError
from rqcgraph.graphs import (
    Bipartition,
    FixedSequence,
    MarkovChain,
    UniformIID,
    VertexSet,
    boundary_edges,
    build_graph,
    cem_position_sequence,
    cem_sequence,
    chain_graph,
    complete_graph,
    draw_sequence,
    sample_sequence,
)


def test_vertex_set_basic_ops():
    a = VertexSet.from_indices((0, 2, 5), 8)
    b = VertexSet.from_indices((2, 3), 8)
    assert len(a) == 3
    assert 2 in a and 1 not in a
    assert sorted(a) == [0, 2, 5]
    assert (a | b).indices() == (0, 2, 3, 5)
    assert (a & b).indices() == (2,)
    assert (a - b).indices() == (0, 5)
    assert a.complement().indices() == (1, 3, 4, 6, 7)


def test_vertex_set_validation():
    with pytest.raises(ValidationError):
        VertexSet.from_indices((9,), 4)
    with pytest.raises(ValidationError):
        VertexSet(bits=1, n=65)
    with pytest.raises(ValidationError):
        VertexSet(bits=1 << 10, n=4)


@given(st.sets(st.integers(min_value=0, max_value=15)), st.sets(st.integers(min_value=0, max_value=15)))
def test_vertex_set_matches_python_sets(xs, ys):
    a = VertexSet.from_indices(xs, 16)
    b = VertexSet.from_indices(ys, 16)
    assert set(a | b) == xs | ys
    assert set(a & b) == xs & ys
    assert set(a - b) == xs - ys


def test_build_graph_validation():
    with pytest.raises(ValidationError):
        build_graph(4, [(0, 1), (0, 1)], 2)  # duplicate
    with pytest.raises(ValidationError):
        build_graph(4, [(0,)], 2)  # cardinality < 2
    with pytest.raises(ValidationError):
        build_graph(4, [(0, 1)], 1)  # d < 2
    with pytest.raises(ValidationError):
        build_graph(4, [], 2)
    with pytest.raises(ValidationError):
        build_graph(4, [(0, 7)], 2)  # out of range vertex


def test_standard_graphs():
    k5 = complete_graph(5)
    assert k5.n_edges == 10
    c4 = chain_graph(4)
    assert [e.indices() for e in c4.edges] == [(0, 1), (1, 2), (2, 3)]
    # hyperedge graphs are allowed
    hg = build_graph(4, [(0, 1, 2), (2, 3)], 2)
    assert len(hg.edges[0]) == 3


def test_boundary_edges_fraction():
    g = complete_graph(4)
    part = Bipartition(g.vertex_set((0, 1)))
    cross, q = boundary_edges(g, part)
    assert len(cross) == 4
    assert q == pytest.approx(4 / 6)


def test_fixed_sequence_validation_and_cycling():
    g = chain_graph(3)
    proc = FixedSequence(g, (g.edges[1], g.edges[0]))
    seq = sample_sequence(proc, 5, seed=0)
    assert [e.bits for e in seq] == [g.edges[i].bits for i in (1, 0, 1, 0, 1)]
    with pytest.raises(ValidationError):
        FixedSequence(g, (VertexSet.from_indices((0, 2), 3),))
    with pytest.raises(ValidationError):
        FixedSequence(g, ())


def test_markov_chain_validation():
    g = chain_graph(3)
    with pytest.raises(ValidationError):
        MarkovChain(g, (0.7, 0.7), ((0.5, 0.5), (0.5, 0.5)))
    with pytest.raises(ValidationError):
        MarkovChain(g, (0.5, 0.5), ((0.9, 0.2), (0.5, 0.5)))
    with pytest.raises(ValidationError):
        MarkovChain(g, (0.5, 0.5), ((1.0, 0.0),))


def test_sample_sequence_deterministic():
    g = complete_graph(5)
    a = sample_sequence(UniformIID(g), 20, seed=42)
    b = sample_sequence(UniformIID(g), 20, seed=42)
    c = sample_sequence(UniformIID(g), 20, seed=43)
    assert [e.bits for e in a] == [e.bits for e in b]
    assert [e.bits for e in a] != [e.bits for e in c]
    for seed in (-1, 1.5, None):
        with pytest.raises(ValidationError, match="seed"):
            sample_sequence(UniformIID(g), 20, seed=seed)


def test_draw_sequence_of_zero_steps_is_empty():
    g = chain_graph(3)
    rng = np.random.default_rng(0)
    mc = MarkovChain(g, (0.5, 0.5), ((0.5, 0.5), (0.5, 0.5)))
    for proc in (mc, UniformIID(g), FixedSequence(g, g.edges)):
        assert draw_sequence(proc, 0, rng) == ()


def test_markov_sampled_sequences_follow_kernel():
    g = chain_graph(3)
    # absorbing in edge 1: once there, never leaves
    mc = MarkovChain(g, (1.0, 0.0), ((0.0, 1.0), (0.0, 1.0)))
    seq = sample_sequence(mc, 6, seed=1)
    assert seq[0].bits == g.edges[0].bits
    assert all(e.bits == g.edges[1].bits for e in seq[1:])


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12),
       st.sampled_from(["best", "worst"]))
def test_cem_cycle_covers_every_edge_once(l_a, l_b, kind):
    seq = cem_position_sequence(l_a, l_b, kind)
    assert sorted(seq) == list(range(l_a + l_b - 1))


def test_cem_sequence_orders():
    # L_A = L_B = 3: e at position 2, a-edges walk left, b-edges walk right
    assert cem_position_sequence(3, 3, "worst") == (2, 1, 0, 3, 4)
    assert cem_position_sequence(3, 3, "best") == (4, 3, 0, 1, 2)
    edges = cem_sequence(3, 3, "worst")
    assert [e.indices() for e in edges] == [(2, 3), (1, 2), (0, 1), (3, 4), (4, 5)]
    with pytest.raises(ValidationError):
        cem_position_sequence(0, 3, "worst")
    with pytest.raises(ValidationError):
        cem_position_sequence(3, 3, "middling")
