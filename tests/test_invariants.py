"""Connectivity invariants against brute-force oracles and frozen values."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from edgeconn import (
    GraphError,
    bowtie,
    bridged_triangles,
    clique_number,
    complete_bipartite,
    complete_graph,
    compute_report,
    cut_interior_property,
    cycle_graph,
    diameter,
    edge_connectivity,
    from_edges,
    is_chordal,
    max_degree,
    min_degree,
    min_edge_cut,
    path_graph,
    spider,
    star,
    to_graph6,
    triangle_with_tail,
    vertex_connectivity,
    walk,
)
from edgeconn.graphs import Graph, _bits, is_connected
from edgeconn import invariants
from edgeconn.invariants import _edge_paths, _split_paths, _unit_flow
from edgeconn.oracles import distance_matrix, edge_cut_oracle, vertex_cut_oracle

from test_iso import graph_from_mask, labeled_graphs


class TestFrozenValues:
    def test_bridged_triangles(self):
        g = bridged_triangles()
        assert min_degree(g) == 2
        assert max_degree(g) == 3
        assert edge_connectivity(g) == 1
        assert vertex_connectivity(g) == 1
        assert clique_number(g) == 3
        assert diameter(g) == 3

    def test_standard_families(self):
        for n in range(2, 10):
            k = complete_graph(n)
            assert edge_connectivity(k) == n - 1
            assert vertex_connectivity(k) == n - 1
            assert clique_number(k) == n
        for n in (3, 4, 6, 9):
            c = cycle_graph(n)
            assert edge_connectivity(c) == 2
            assert vertex_connectivity(c) == 2
            assert clique_number(c) == (3 if n == 3 else 2)
        for r in (1, 3, 5):
            s = star(r)
            assert min_degree(s) == 1
            assert edge_connectivity(s) == 1
            assert vertex_connectivity(s) == (1 if r > 1 else 1)
        for a, b in ((1, 2), (1, 6), (2, 3), (2, 5), (2, 7), (3, 4), (3, 6), (4, 5), (5, 2)):
            assert vertex_connectivity(complete_bipartite(a, b)) == min(a, b)
        assert edge_connectivity(complete_bipartite(2, 5)) == 2
        assert edge_connectivity(complete_bipartite(3, 3)) == 3

    def test_named_pattern_values(self):
        z2 = triangle_with_tail(2)
        assert (min_degree(z2), edge_connectivity(z2)) == (1, 1)
        t = spider(1, 1, 3)
        assert (t.n, t.m, max_degree(t)) == (6, 5, 3)
        b = bowtie()
        assert (vertex_connectivity(b), edge_connectivity(b), min_degree(b)) == (1, 2, 2)

    def test_single_vertex_and_edge(self):
        with pytest.raises(GraphError, match="^edge connectivity needs at least two vertices$"):
            edge_connectivity(Graph(1, (0,)))
        with pytest.raises(GraphError, match="^edge connectivity is defined here for connected graphs$"):
            edge_connectivity(from_edges(4, [(0, 1), (2, 3)]))
        # the one-vertex graph is complete, so vertex connectivity is n - 1
        assert vertex_connectivity(Graph(1, (0,))) == 0
        with pytest.raises(GraphError):
            min_degree(Graph(0, ()))
        # vertex 0 dominates K2 and K_n, so no flow runs and delta is the answer
        assert edge_connectivity(complete_graph(2)) == 1
        assert edge_connectivity(complete_graph(9)) == 8
        assert vertex_connectivity(complete_graph(2)) == 1

    def test_kappa_between_and_at_the_floor(self):
        """kappa strictly between the floor max(1, 2 delta + 2 - n) and delta,
        and kappa at the floor but below delta, against the brute-force cut."""
        def join_of_cliques(s, c1, c2):
            """K_s joined to the disjoint union of K_c1 and K_c2."""
            n = s + c1 + c2
            blocks = [range(s, s + c1), range(s + c1, n)]
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if u < s or any(u in b and v in b for b in blocks)]
            return from_edges(n, edges)

        # n = 9, delta = 4: the floor is 1 and kappa = 2 lies strictly between
        g = join_of_cliques(2, 3, 4)
        assert (g.n, min_degree(g), vertex_connectivity(g)) == (9, 4, 2)
        assert vertex_connectivity(g) == vertex_cut_oracle(g)
        # n = 8, delta = 4: kappa = 2 is the floor 2 delta + 2 - n, below delta
        g = join_of_cliques(2, 3, 3)
        assert (g.n, min_degree(g), vertex_connectivity(g)) == (8, 4, 2)
        assert vertex_connectivity(g) == vertex_cut_oracle(g)


class TestOracleSweeps:
    def test_edge_connectivity_matches_oracle(self, levels6):
        for n in range(2, 7):
            for g in levels6[n]:
                assert edge_connectivity(g) == edge_cut_oracle(g)

    def test_vertex_connectivity_matches_oracle(self, levels6):
        for n in range(2, 7):
            for g in levels6[n]:
                assert vertex_connectivity(g) == vertex_cut_oracle(g)

    def test_whitney_chain(self, levels7):
        for n in range(2, 8):
            for g in levels7[n]:
                k = vertex_connectivity(g)
                kp = edge_connectivity(g)
                d = min_degree(g)
                assert 1 <= k <= kp <= d

    @given(labeled_graphs(max_n=7))
    @settings(max_examples=120, deadline=None)
    def test_random_graphs_match_oracles(self, g):
        from edgeconn.graphs import is_connected

        if g.n < 2 or not is_connected(g):
            return
        assert edge_connectivity(g) == edge_cut_oracle(g)
        assert vertex_connectivity(g) == vertex_cut_oracle(g)


def _gap_prone_graphs(seed, count):
    """Connected random graphs on 9..18 vertices, about half of them two dense
    halves joined by one to three edges, so that many have kappa' < delta."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(9, 18)
        rows = [0] * n
        split = rng.randint(3, n - 3) if rng.random() < 0.5 else n
        p = rng.uniform(0.55, 0.95) if split < n else rng.uniform(0.2, 0.7)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if (u < split) == (v < split) and rng.random() < p]
        if split < n:
            edges += [(rng.randrange(split), rng.randrange(split, n))
                      for _ in range(rng.randint(1, 3))]
        # shuffled labels put the two halves' vertices anywhere in the order
        label = list(range(n))
        rng.shuffle(label)
        for u, v in edges:
            rows[label[u]] |= 1 << label[v]
            rows[label[v]] |= 1 << label[u]
        g = Graph(n, rows)
        if is_connected(g):
            out.append(g)
    return out


def _split_network(g):
    """The vertex-split network: vertex w is the arc 2w -> 2w+1 and each edge
    wu the arcs 2w+1 -> 2u and 2u+1 -> 2w, built here from ``has_edge``."""
    arc = [0] * (2 * g.n)
    for w in range(g.n):
        arc[2 * w] = 1 << (2 * w + 1)
        for u in range(g.n):
            if g.has_edge(w, u):
                arc[2 * w + 1] |= 1 << (2 * u)
    return arc


class TestSecondRoute:
    def test_dominating_sinks_and_layers_match_full_routes(self):
        """kappa' from dominating-set sinks equals the all-sinks cut value, and
        the layer-count diameter equals the distance matrix's largest entry."""
        gs = list(walk(8)) + _gap_prone_graphs(seed=9, count=1500)
        assert len(gs) == 12112 + 1500
        gaps = 0
        for g in gs:
            kp = edge_connectivity(g)
            assert kp == min_edge_cut(g).value, to_graph6(g)
            assert diameter(g) == max(max(row) for row in distance_matrix(g)), to_graph6(g)
            gaps += kp < min_degree(g)
        # the dominating-set lemma only matters on graphs with kappa' < delta
        assert gaps >= 200

    def test_bounded_kappa_matches_unbounded_flows(self):
        """kappa from capped flows over the Esfahanian-Hakimi pairs, stopped at
        the floor max(1, 2 delta + 2 - n), equals the minimum of uncapped flows
        over every nonadjacent pair on a split network built here."""
        gs = list(walk(8)) + _gap_prone_graphs(seed=9, count=1500)
        at_floor = gaps = between = 0
        for g in gs:
            n = g.n
            arc = _split_network(g)
            flows = [_unit_flow(arc, 2 * x + 1, 2 * y, n)[0]
                     for x in range(n) for y in range(x + 1, n) if not g.has_edge(x, y)]
            k = vertex_connectivity(g)
            assert k == min(flows, default=n - 1), to_graph6(g)
            d = min_degree(g)
            floor = max(1, 2 * d + 2 - n)
            at_floor += bool(flows) and k == floor
            gaps += k < d
            between += floor < k < d
        # both ways out of the search occur: stopping at the floor, and
        # running every pair with kappa below delta but above the floor
        assert (at_floor, gaps, between) == (5069, 1011, 389)

    def test_seeded_flows_match_unseeded(self):
        """A flow seeded as the code seeds it (``_edge_paths`` and
        ``_split_paths``: common-neighbour paths, then two-hop ones) agrees
        with the unseeded flow at every cap from 1 to n.  Where the paths
        reach the cap, the unseeded maximum flow is at least the cap, so
        skipping that flow loses nothing; above it, the seeded value is
        min(cap, maximum flow), and below the cap its reach is the unseeded
        reach.  kappa', kappa and the cut certificate equal those that
        unseeded flows give."""
        gs = [g for g in walk(7) if g.n >= 2] + _gap_prone_graphs(seed=9, count=300)
        runs = skips = 0
        for g in gs:
            n, adj = g.n, g.adj
            split = _split_network(g)
            # each seed leaves s through its own neighbour, so fewer than n
            # seeds exist, and at cap n the helpers return all of them
            cases = [(adj, s, t, _edge_paths(adj, s, t, n))
                     for s in range(n) for t in range(n) if s != t]
            cases += [(split, 2 * x + 1, 2 * y, _split_paths(adj, x, y, n))
                      for x in range(n) for y in range(n) if x != y and not g.has_edge(x, y)]
            for arc, s, t, paths in cases:
                # every s-t flow is below n, so the cap-n call is the maximum flow
                top, reach = _unit_flow(arc, s, t, n)
                assert top >= len(paths), (to_graph6(g), s, t)
                skips += len(paths)
                for cap in range(len(paths) + 1, n + 1):
                    value, seeded_reach = _unit_flow(arc, s, t, cap, paths)
                    assert value == min(cap, top), (to_graph6(g), s, t, cap)
                    if value < cap:
                        assert seeded_reach == reach, (to_graph6(g), s, t, cap)
                    runs += 1
            # kappa' and the least sink's least minimum cut from unseeded flows
            # out of vertex 0, kappa from unseeded flows over every nonadjacent pair
            flows = [_unit_flow(adj, 0, t, n) for t in range(1, n)]
            least = min(flows, key=lambda f: f[0])
            assert edge_connectivity(g) == least[0], to_graph6(g)
            assert min_edge_cut(g).side1 == least[1], to_graph6(g)
            kappas = [_unit_flow(split, 2 * x + 1, 2 * y, n)[0]
                      for x in range(n) for y in range(x + 1, n) if not g.has_edge(x, y)]
            assert vertex_connectivity(g) == min(kappas, default=n - 1), to_graph6(g)
        # both the seeded runs and the skipped caps occur many times over
        assert runs > 100000 and skips > 100000, (runs, skips)

    def test_flow_counts_pinned(self, monkeypatch):
        """How many flows each entry point runs over walk(7).  The seeds skip
        most of them (common-neighbour seeds alone ran 1 197, 214 and 2 838,
        the last with minimum cuts capped at n rather than delta + 1), so a
        change that loses a seed shows here even though every value stays
        the same."""
        calls = 0
        kernel = invariants._unit_flow

        def counted(*args):
            nonlocal calls
            calls += 1
            return kernel(*args)

        monkeypatch.setattr(invariants, "_unit_flow", counted)
        gs = list(walk(7))
        got = {}
        for fn in (vertex_connectivity, edge_connectivity, min_edge_cut):
            calls = 0
            for g in gs:
                fn(g)
            got[fn.__name__] = calls
        assert got == {"vertex_connectivity": 191, "edge_connectivity": 55, "min_edge_cut": 1312}


def _nx_graph(nx, g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def _check_clique_and_chordality(nx, g, h):
    assert clique_number(g) == max(len(c) for c in nx.find_cliques(h)), g.edges()
    assert is_chordal(g) == nx.is_chordal(h), g.edges()


class TestNetworkxOracle:
    def check(self, gs):
        nx = pytest.importorskip("networkx")
        for g in gs:
            h = _nx_graph(nx, g)
            assert vertex_connectivity(g) == nx.node_connectivity(h), g.edges()
            assert edge_connectivity(g) == nx.edge_connectivity(h), g.edges()
            _check_clique_and_chordality(nx, g, h)

    def test_order_seven_matches_networkx(self, levels7):
        # every graph of walk(7)
        assert len(levels7[7]) == 853
        self.check(g for n in range(2, 8) for g in levels7[n])

    def test_clique_and_chordality_on_random_graphs(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(13)
        chordal = 0
        for i in range(720):
            n = i % 18 + 1
            p = 0.2 + 0.1 * (i // 18 % 8)
            g = from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                               if rng.random() < p])
            _check_clique_and_chordality(nx, g, _nx_graph(nx, g))
            chordal += is_chordal(g)
        # both answers occur often enough to matter
        assert 100 <= chordal <= 620, chordal

    def test_gap_prone_graphs_match_networkx(self):
        """kappa, kappa' and the cut certificate's value on 9..18 vertices,
        where most flows are skipped or seeded from common neighbours."""
        nx = pytest.importorskip("networkx")
        gaps = 0
        for g in _gap_prone_graphs(seed=11, count=200):
            h = _nx_graph(nx, g)
            kp = nx.edge_connectivity(h)
            assert vertex_connectivity(g) == nx.node_connectivity(h), to_graph6(g)
            assert edge_connectivity(g) == kp, to_graph6(g)
            assert min_edge_cut(g).value == kp, to_graph6(g)
            gaps += kp < min_degree(g)
        # a fifth of them have kappa' < delta, so the cut is not at a vertex
        assert gaps == 39, gaps

    def test_order_eight_sample_matches_networkx(self, levels8):
        sample = levels8[8][::10]
        assert len(sample) == 1112
        self.check(sample)


class TestCutCertificate:
    def check(self, g):
        cert = min_edge_cut(g)
        full = (1 << g.n) - 1
        assert cert.side1 | cert.side2 == full
        assert cert.side1 & cert.side2 == 0
        assert cert.side1 and cert.side2
        assert cert.value == edge_connectivity(g)
        # cut edges really cross, boundaries really touch them
        b1 = b2 = 0
        for u, v in cert.cut_edges:
            assert g.has_edge(u, v)
            assert cert.side1 >> u & 1 and cert.side2 >> v & 1
            b1 |= 1 << u
            b2 |= 1 << v
        assert b1 == cert.boundary1 and b2 == cert.boundary2
        assert cert.boundary1.bit_count() <= cert.value
        assert cert.boundary2.bit_count() <= cert.value
        # removing the cut leaves precisely the two sides as components
        rows = list(g.adj)
        for u, v in cert.cut_edges:
            rows[u] &= ~(1 << v)
            rows[v] &= ~(1 << u)
        cut_graph = Graph(g.n, rows)
        from edgeconn.graphs import component_mask

        s1 = cert.side1_vertices()[0]
        s2 = cert.side2_vertices()[0]
        assert component_mask(cut_graph.adj, s1, full) == cert.side1
        assert component_mask(cut_graph.adj, s2, full) == cert.side2

    def test_certificates_valid_small(self, levels6):
        for n in range(2, 7):
            for g in levels6[n]:
                self.check(g)

    def test_certificate_deterministic(self):
        g = bridged_triangles()
        certs = {min_edge_cut(g) for _ in range(5)}
        assert len(certs) == 1
        cert = certs.pop()
        assert cert.cut_edges == ((2, 3),)

    def test_certificates_pinned(self):
        """Pin which minimum cut is returned on every order <= 8 graph with
        kappa' < delta: the least-sink tie-break and the source side of the
        least minimum cut.  Keeping the last sink that attains the minimum
        changes the digest."""
        digest = hashlib.sha256()
        count = 0
        for g in walk(8):
            if edge_connectivity(g) < min_degree(g):
                c = min_edge_cut(g)
                digest.update(f"{to_graph6(g)} {c.side1} {c.cut_edges}\n".encode())
                count += 1
        assert count == 50
        assert digest.hexdigest()[:16] == "b63a02e9cf72d650"

    def test_errors_on_tiny_or_disconnected(self):
        with pytest.raises(GraphError):
            min_edge_cut(Graph(1, (0,)))
        with pytest.raises(GraphError):
            min_edge_cut(from_edges(4, [(0, 1), (2, 3)]))


class TestCliqueAndChordal:
    def test_clique_spot_values(self):
        assert clique_number(path_graph(6)) == 2
        assert clique_number(bowtie()) == 3
        assert clique_number(complete_bipartite(3, 4)) == 2
        wheel5 = from_edges(6, [(0, i) for i in range(1, 6)] + [(i, i % 5 + 1) for i in range(1, 6)])
        assert clique_number(wheel5) == 3
        # K_{3x20}, labels shuffled, has 3^20 maximum cliques: the colouring
        # bound keeps the search to milliseconds, a size bound alone to hours
        label = list(range(60))
        random.Random(20).shuffle(label)
        multipartite = from_edges(60, [(label[u], label[v]) for u in range(60)
                                       for v in range(u + 1, 60) if u // 3 != v // 3])
        assert clique_number(multipartite) == 20

    def test_clique_exhaustive_small(self, levels6):
        import itertools

        from edgeconn.graphs import induced

        for g in levels6[5]:
            best = max(
                size
                for size in range(1, 6)
                for sub in itertools.combinations(range(5), size)
                if induced(g, sub).m == size * (size - 1) // 2
            )
            assert clique_number(g) == best

    def test_chordality(self):
        assert is_chordal(complete_graph(5))
        assert is_chordal(path_graph(6))
        assert is_chordal(triangle_with_tail(3))
        assert not is_chordal(cycle_graph(4))
        assert not is_chordal(cycle_graph(6))
        assert is_chordal(bowtie())
        assert not is_chordal(complete_bipartite(2, 3))


class TestReport:
    def test_report_fields(self):
        rep = compute_report(bridged_triangles())
        d = rep.as_dict()
        assert tuple(d) == rep.FIELDS
        assert d["n"] == 6 and d["m"] == 7
        assert d["delta"] == 2 and d["kappa_prime"] == 1 and d["kappa"] == 1
        assert d["omega"] == 3 and d["diameter"] == 3

    def test_report_requires_connected(self):
        with pytest.raises(GraphError):
            compute_report(from_edges(4, [(0, 1), (2, 3)]))
        with pytest.raises(GraphError):
            compute_report(Graph(1, (0,)))

    def test_chain_enforced_at_construction(self):
        from edgeconn import InvariantReport

        with pytest.raises(AssertionError):
            InvariantReport("Bw", 3, 3, delta=1, kappa=2, kappa_prime=2, omega=3, diameter=1)


class TestCutInteriorProperty:
    def test_requires_strict_gap(self):
        with pytest.raises(GraphError):
            cut_interior_property(cycle_graph(5))
        with pytest.raises(GraphError):
            cut_interior_property(complete_graph(4))

    def test_bridged_triangles_has_it(self):
        assert cut_interior_property(bridged_triangles())

    def test_holds_across_small_gap_graphs(self, levels7):
        from edgeconn import are_isomorphic

        gap_graphs = {n: [] for n in range(2, 8)}
        for n in range(2, 8):
            for g in levels7[n]:
                if edge_connectivity(g) < min_degree(g):
                    assert cut_interior_property(g)
                    gap_graphs[n].append(g)
        # the gap first appears at n=6 and only for the bridged triangles
        counts = {n: len(gs) for n, gs in gap_graphs.items() if gs}
        assert counts == {6: 1, 7: 5}
        assert are_isomorphic(gap_graphs[6][0], bridged_triangles())

    def test_every_small_cut_has_it(self, levels8):
        """The lemma itself: on every gap graph of order <= 8, every cut of
        fewer than delta edges, found by brute force over the bipartitions
        with vertex 0 on side A, leaves each side an interior vertex, and
        every interior vertex an interior neighbour."""
        gap_graphs = cuts = 0
        for n in range(2, 9):
            for g in levels8[n]:
                delta = min_degree(g)
                if edge_connectivity(g) >= delta:
                    continue
                gap_graphs += 1
                full = (1 << n) - 1
                for side_b in range(2, full + 1, 2):
                    side_a = full ^ side_b
                    if sum((g.adj[u] & side_b).bit_count() for u in _bits(side_a)) >= delta:
                        continue
                    cuts += 1
                    for side, other in ((side_a, side_b), (side_b, side_a)):
                        interior = side & ~sum(1 << u for u in _bits(side) if g.adj[u] & other)
                        assert interior, (to_graph6(g), side_a)
                        for x in _bits(interior):
                            assert g.adj[x] & interior, (to_graph6(g), side_a, x)
        # some gap graphs have two or three such cuts, not only the recorded one
        assert (gap_graphs, cuts) == (50, 57)
