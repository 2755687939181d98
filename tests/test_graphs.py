import numpy as np
import pytest
from hypothesis import given, strategies as st

from rqcgraph.errors import ValidationError
from rqcgraph.graphs import (
    Bipartition,
    FixedSequence,
    Graph,
    MarkovChain,
    UniformIID,
    VertexSet,
    boundary_edges,
    build_graph,
    cem_position_sequence,
    cem_sequence,
    chain_graph,
    complete_graph,
    draw_indices,
    sample_sequence,
)
from rqcgraph.swapengine import evolve


def test_vertex_set_basic_ops():
    a = VertexSet.from_indices((0, 2, 5), 8)
    assert len(a) == 3
    assert sorted(a) == [0, 2, 5]
    assert a.complement().indices() == (1, 3, 4, 6, 7)


def test_vertex_set_validation():
    with pytest.raises(ValidationError):
        VertexSet.from_indices((9,), 4)
    with pytest.raises(ValidationError):
        VertexSet(bits=1, n=0)
    with pytest.raises(ValidationError):
        VertexSet(bits=1 << 10, n=4)


def test_vertex_sets_have_any_width():
    # bitmasks are Python ints, so nothing caps the vertex count
    a = VertexSet.from_indices((0, 69, 199), 200)
    assert a.indices() == (0, 69, 199) and len(a.complement()) == 197
    g = chain_graph(100)
    assert g.edges[-1].indices() == (98, 99)
    cross, q = boundary_edges(g, Bipartition(g.vertex_set(range(50))))
    assert [e.indices() for e in cross] == [(49, 50)] and q == 1 / 99


def test_vertex_set_takes_only_integers():
    # numpy ints are stored as Python ints, whose bit methods repr and iteration use
    a = VertexSet(np.int64(3), np.int64(4))
    assert type(a.bits) is int and type(a.n) is int and a == VertexSet(3, 4)
    assert list(a) == [0, 1] and repr(a) == "VertexSet({0,1}, n=4)"
    for bits, n in ((3, 4.0), ("3", 4), (None, 4), (3.0, 4)):
        with pytest.raises(ValidationError):
            VertexSet(bits, n)


def test_build_graph_validation():
    with pytest.raises(ValidationError):
        build_graph(4, [(0, 1), (0, 1)], 2)  # duplicate
    with pytest.raises(ValidationError):
        build_graph(4, [(0,)], 2)  # cardinality < 2
    with pytest.raises(ValidationError):
        build_graph(4, [(0, 1)], 1)  # d < 2
    with pytest.raises(ValidationError):
        build_graph(4, [], 2)
    with pytest.raises(ValidationError, match="edge list is empty"):
        build_graph(4, None, 2)
    with pytest.raises(ValidationError):
        build_graph(4, [(0, 7)], 2)  # out of range vertex


def _e(*vertices, n=3):
    return VertexSet.from_indices(vertices, n)


@pytest.mark.parametrize("make", [
    lambda: evolve(Graph(2, (), 2), Bipartition(VertexSet(1, 2)), UniformIID(Graph(2, (), 2)), 2),
    lambda: Graph(3, (_e(0, 1), _e(0, 1)), 2),
    lambda: Graph(3, (VertexSet(0b11, 5),), 2),
    lambda: Graph(3, (_e(0, 1), _e(1, 2)), 2.0),
], ids=["empty-edges", "repeated-edge", "edge-on-5-vertices", "float-d"])
def test_graph_built_directly_checks_itself(make):
    with pytest.raises(ValidationError):
        make()


def test_graph_stores_python_ints():
    g = Graph(np.int64(3), (_e(0, 1),), np.int64(2))
    assert type(g.n_vertices) is int and type(g.d) is int and g == Graph(3, (_e(0, 1),), 2)
    for edges in ([_e(0, 1)], ((0, 1),), (_e(0), _e(1, 2))):
        with pytest.raises(ValidationError):
            Graph(3, edges, 2)


def _outcome(make):
    try:
        return make()
    except ValidationError:
        return None


@given(st.one_of(st.integers(-1, 4), st.just(3.0), st.booleans()),
       st.lists(st.integers(0, 31), max_size=5),
       st.one_of(st.integers(0, 3), st.just(2.0), st.booleans()))
def test_build_graph_and_a_direct_graph_accept_the_same_inputs(n, masks, d):
    # masks of up to 5 vertices, so some lie outside n, some repeat and some have < 2 vertices
    lists = [[i for i in range(5) if m >> i & 1] for m in masks]
    built = _outcome(lambda: build_graph(n, lists, d))
    direct = _outcome(lambda: Graph(n, tuple(VertexSet(m, n) for m in masks), d))
    assert built == direct


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


def test_boundary_edges_reject_a_partition_on_another_graph():
    # the 5-vertex partition shares no bits with the chain's edges, so it
    # would read as having no boundary at all
    with pytest.raises(ValidationError, match="partition is built on another graph"):
        boundary_edges(chain_graph(3), Bipartition(VertexSet(0b11000, 5)))


def test_fixed_sequence_validation_and_cycling():
    g = chain_graph(3)
    proc = FixedSequence(g, (g.edges[1], g.edges[0]))
    seq = sample_sequence(proc, 5, seed=0)
    assert [e.bits for e in seq] == [g.edges[i].bits for i in (1, 0, 1, 0, 1)]
    with pytest.raises(ValidationError):
        FixedSequence(g, (VertexSet.from_indices((0, 2), 3),))
    with pytest.raises(ValidationError):
        FixedSequence(g, ())


def test_fixed_sequence_edge_on_another_vertex_count_is_rejected():
    # the bits of the chain's edge {0, 1}, built on 5 vertices
    with pytest.raises(ValidationError, match="not an edge of the graph"):
        FixedSequence(chain_graph(3), (VertexSet(0b11, 5),))


def test_markov_chain_validation():
    g = chain_graph(3)
    with pytest.raises(ValidationError):
        MarkovChain(g, (0.7, 0.7), ((0.5, 0.5), (0.5, 0.5)))
    with pytest.raises(ValidationError):
        MarkovChain(g, (0.5, 0.5), ((0.9, 0.2), (0.5, 0.5)))
    with pytest.raises(ValidationError):
        MarkovChain(g, (0.5, 0.5), ((1.0, 0.0),))
    for initial, transition in (((0.5, 0.5), ((0.5, 0.5), (1.0,))), ((1.0,), ((0.5, 0.5),) * 2)):
        with pytest.raises(ValidationError, match="length"):
            MarkovChain(g, initial, transition)
    # entries outside [0, 1] or NaN, though the sums may still read 1
    for initial, row in (((1.5, -0.5), (0.5, 0.5)), ((float("nan"), 0.5), (0.5, 0.5)),
                         ((0.5, 0.5), (2.0, -1.0))):
        with pytest.raises(ValidationError):
            MarkovChain(g, initial, (row, (0.5, 0.5)))


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
    for k in (-1, 2.0):
        with pytest.raises(ValidationError, match="steps"):
            sample_sequence(UniformIID(g), k, seed=0)
    with pytest.raises(ValidationError, match="edge list is empty"):
        Graph(3, (), 2)


def test_draw_indices_of_zero_steps_is_empty():
    g = chain_graph(3)
    rng = np.random.default_rng(0)
    mc = MarkovChain(g, (0.5, 0.5), ((0.5, 0.5), (0.5, 0.5)))
    for proc in (mc, UniformIID(g), FixedSequence(g, g.edges)):
        assert draw_indices(proc, 0, rng) == []
        assert sample_sequence(proc, 0, seed=0) == ()


def test_draw_indices_are_the_positions_of_sample_sequence():
    # the same generator state gives the same draws in both forms
    g = complete_graph(4)
    m = g.n_edges
    mc = MarkovChain(g, (1.0 / m,) * m, ((1.0 / m,) * m,) * m)
    for proc in (mc, UniformIID(g), FixedSequence(g, g.edges[::-2])):
        for k in (0, 1, 9):
            idx = draw_indices(proc, k, np.random.default_rng(k))
            seq = sample_sequence(proc, k, seed=k)
            assert all(type(i) is int for i in idx)
            assert [g.edges[i] for i in idx] == list(seq)


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
