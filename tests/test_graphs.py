"""Graph kernel: construction, traversal, and graph6 round trips."""

import pickle
import random

import pytest
from hypothesis import given, strategies as st

from edgeconn import (
    Graph,
    Graph6Error,
    GraphError,
    bipartition_mask,
    complete_graph,
    cycle_graph,
    diameter,
    from_edges,
    from_graph6,
    induced,
    is_bipartite,
    is_connected,
    path_graph,
    star,
    to_graph6,
    walk,
)
from edgeconn.oracles import distance_matrix


def random_graph(draw, max_n=9):
    n = draw(st.integers(1, max_n))
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return Graph(n, tuple(rows))


graphs = st.composite(random_graph)


class TestConstruction:
    def test_rejects_asymmetry(self):
        with pytest.raises(GraphError):
            Graph(2, (0b10, 0b00))

    @pytest.mark.parametrize("rows, pair", [
        ((0b010, 0, 0), "0-1"),
        ((0, 0b100, 0), "1-2"),
        # row 0 names 2 and 3 and only 2 names 0 back: the first failing pair is 0-3
        ((0b1100, 0, 0b0001, 0), "0-3"),
        ((0b0100, 0b1000, 0, 0), "0-2"),
    ])
    def test_asymmetry_names_the_first_failing_pair(self, rows, pair):
        with pytest.raises(GraphError, match=f"^edge {pair} is not symmetric$"):
            Graph(len(rows), rows)

    def test_rejects_loops(self):
        with pytest.raises(GraphError):
            Graph(2, (0b01, 0b10))

    def test_rejects_out_of_range_bits(self):
        with pytest.raises(GraphError):
            Graph(2, (0b100, 0b000))

    def test_rejects_row_count_mismatch(self):
        with pytest.raises(GraphError):
            Graph(3, (0, 0))

    def test_from_edges_and_counts(self):
        g = from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert g.m == 3
        assert g.degree_sequence() == (2, 2, 1, 1)
        assert g.edges() == [(0, 1), (1, 2), (2, 3)]

    def test_immutability(self):
        g = path_graph(3)
        with pytest.raises(AttributeError):
            g.n = 5

    def test_pickle_round_trip_revalidates(self):
        g = cycle_graph(5)
        back = pickle.loads(pickle.dumps(g))
        assert back == g and back.adj == g.adj

        class Forged:
            # pickles as a Graph whose row 0 names vertex 1 but not back
            def __reduce__(self):
                return Graph, (2, (0b10, 0b00))

        with pytest.raises(GraphError, match="not symmetric"):
            pickle.loads(pickle.dumps(Forged()))


class TestGraph6:
    def test_known_vectors(self):
        k3 = from_graph6("Bw")
        assert (k3.n, k3.m) == (3, 3)
        p3 = from_graph6("Bg")
        assert p3.edges() == [(0, 1), (1, 2)]
        k1 = from_graph6("@")
        assert (k1.n, k1.m) == (1, 0)

    def test_known_encodings(self):
        assert to_graph6(complete_graph(3)) == "Bw"
        assert to_graph6(Graph(1, (0,))) == "@"
        p4 = path_graph(4)
        assert from_graph6(to_graph6(p4)) == p4

    def test_rejects_sparse6_and_digraph6(self):
        with pytest.raises(Graph6Error):
            from_graph6(":Fa@x^")
        with pytest.raises(Graph6Error):
            from_graph6("&B\x7f\x7f")

    def test_error_names_byte_offset(self):
        with pytest.raises(Graph6Error, match="byte 1"):
            from_graph6("B\x1fw")
        # a non-ASCII character is not read as '?', which is a legal byte
        with pytest.raises(Graph6Error, match="byte 2 value 195 "):
            from_graph6("E~\u00e9g")
        with pytest.raises(Graph6Error, match="byte 1: lone surrogate"):
            from_graph6("E\ud800g")
        with pytest.raises(Graph6Error, match="needs 2 bytes"):
            from_graph6("Bww")

    def test_rejects_nonzero_padding(self):
        # n=3 leaves three padding bits; incrementing the last byte sets one
        good = to_graph6(from_edges(3, [(0, 2), (1, 2)]))
        bad = good[:-1] + chr(ord(good[-1]) + 1)
        with pytest.raises(Graph6Error, match="padding"):
            from_graph6(bad)

    def test_rejects_oversized(self):
        with pytest.raises(Graph6Error):
            to_graph6(Graph(63, tuple([0] * 63)))

    @given(graphs())
    def test_round_trip(self, g):
        assert from_graph6(to_graph6(g)) == g


class TestInduced:
    def test_hereditary_complete(self):
        assert induced(complete_graph(4), (0, 2, 3)).m == 3

    def test_relabels_ascending(self):
        g = induced(path_graph(4), (0, 1, 3))
        assert g.edges() == [(0, 1)]
        assert g.n == 3

    def test_identity(self):
        g = cycle_graph(5)
        assert induced(g, range(5)) == g

    def test_mask_input(self):
        g = induced(path_graph(4), 0b1011)
        assert g.edges() == [(0, 1)]

    @given(graphs(), st.data())
    def test_transitivity(self, g, data):
        a = data.draw(st.sets(st.integers(0, g.n - 1)))
        sub = induced(g, sorted(a))
        b = data.draw(st.sets(st.integers(0, max(sub.n - 1, 0))) if sub.n else st.just(set()))
        twice = induced(sub, sorted(b))
        ordered = sorted(a)
        direct = induced(g, [ordered[i] for i in sorted(b)])
        assert twice == direct


class TestTraversal:
    def test_connectivity(self):
        assert is_connected(path_graph(5))
        assert is_connected(Graph(1, (0,)))
        assert not is_connected(Graph(0, ()))
        two = from_edges(4, [(0, 1), (2, 3)])
        assert not is_connected(two)

    def test_distances(self):
        d = distance_matrix(path_graph(4))
        assert d[0][3] == 3
        assert all(d[i][i] == 0 for i in range(4))
        dk = distance_matrix(complete_graph(4))
        assert all(dk[i][j] == 1 for i in range(4) for j in range(4) if i != j)
        assert distance_matrix(cycle_graph(6))[0][3] == 3

    def test_distance_requires_connected(self):
        with pytest.raises(GraphError):
            distance_matrix(from_edges(3, [(0, 1)]))

    def test_diameter(self):
        assert diameter(path_graph(4)) == 3
        assert diameter(complete_graph(5)) == 1
        assert diameter(Graph(1, (0,))) == 0

    def test_bipartition(self):
        mask = bipartition_mask(cycle_graph(6))
        assert mask is not None and mask.bit_count() == 3
        assert bipartition_mask(cycle_graph(5)) is None
        assert is_bipartite(star(4))
        assert not is_bipartite(complete_graph(3))
        nx = pytest.importorskip("networkx")
        rng = random.Random(5)
        gs = list(walk(7))
        for _ in range(600):
            n, p = rng.randint(0, 14), rng.choice((0.05, 0.1, 0.2, 0.4))
            gs.append(from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                     if rng.random() < p]))
        seen = set()
        for g in gs:
            h = nx.Graph(g.edges())
            h.add_nodes_from(range(g.n))
            mask = bipartition_mask(g)
            seen.add((g.n > 0 and is_connected(g), mask is not None))
            assert (mask is None) == (not nx.is_bipartite(h)), to_graph6(g)
            if mask is None:
                continue
            other = ((1 << g.n) - 1) & ~mask
            for side in (mask, other):
                assert all(g.adj[v] & side == 0 for v in range(g.n) if side >> v & 1), to_graph6(g)
            assert all(mask >> min(c) & 1 for c in nx.connected_components(h)), to_graph6(g)
        assert seen == {(c, b) for c in (False, True) for b in (False, True)}
