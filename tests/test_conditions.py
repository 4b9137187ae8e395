"""Eight sufficient degree/diameter hypotheses and their soundness."""

import dataclasses
import random

import pytest

from edgeconn import (
    CONDITION_NAMES,
    Condition,
    GraphError,
    ImplicationRow,
    bridged_triangles,
    complete_bipartite,
    complete_graph,
    condition_holds,
    condition_implication_rows,
    cycle_graph,
    edge_connectivity,
    from_edges,
    make_family_member,
    min_degree,
    path_graph,
    star,
    to_graph6,
    walk,
)
from edgeconn.graphs import Graph

from test_invariants import _gap_prone_graphs


class TestSpotRows:
    def test_names_fixed_order(self):
        assert CONDITION_NAMES == (
            "chartrand",
            "lesniak",
            "plesnik_diam2",
            "volkmann_bipartite",
            "plesnik_znam_quadruple",
            "plesnik_znam_bipartite_diam3",
            "xu_pairing",
            "dankelmann_volkmann",
        )

    def test_cycle_five(self):
        # n=5 <= 2*delta+1 = 5
        assert condition_holds(Condition.chartrand, cycle_graph(5))
        assert not condition_holds(Condition.chartrand, cycle_graph(6))
        assert condition_holds(Condition.plesnik_diam2, cycle_graph(5))
        assert not condition_holds(Condition.plesnik_diam2, cycle_graph(6))

    def test_bipartite_rows(self):
        c6 = cycle_graph(6)
        # bipartite with diameter 3, and n=6 within the 4*delta-1 bound
        assert condition_holds(Condition.plesnik_znam_bipartite_diam3, c6)
        assert condition_holds(Condition.volkmann_bipartite, c6)
        k33 = complete_bipartite(3, 3)
        assert condition_holds(Condition.volkmann_bipartite, k33)
        assert not condition_holds(Condition.volkmann_bipartite, complete_graph(4))
        # bipartite but too big for its minimum degree: P4 has delta=1
        assert not condition_holds(Condition.volkmann_bipartite, path_graph(4))
        assert not condition_holds(Condition.plesnik_znam_bipartite_diam3, cycle_graph(8))

    def test_dankelmann_volkmann(self):
        k33 = complete_bipartite(3, 3)
        # p = max(omega, 2) = 2, bound 2*floor(3*2/1)-1 = 11
        assert condition_holds(Condition.dankelmann_volkmann, k33)
        p6 = path_graph(6)
        # delta = 1, p = 2, bound 2*2-1 = 3 < 6
        assert not condition_holds(Condition.dankelmann_volkmann, p6)

    def test_lesniak_and_xu(self):
        k4 = complete_graph(4)
        assert condition_holds(Condition.lesniak, k4)
        assert condition_holds(Condition.xu_pairing, k4)
        p5 = path_graph(5)
        assert not condition_holds(Condition.lesniak, p5)
        assert not condition_holds(Condition.xu_pairing, p5)
        # C4: nonadjacent pairs have degree sum 4 >= n-1 = 3
        assert condition_holds(Condition.lesniak, cycle_graph(4))

    def test_quadruple_condition(self):
        assert condition_holds(Condition.plesnik_znam_quadruple, complete_graph(5))
        assert condition_holds(Condition.plesnik_znam_quadruple, cycle_graph(5))
        assert not condition_holds(Condition.plesnik_znam_quadruple, cycle_graph(8))

    def test_gap_graphs_fail_everything(self):
        for member in (
            make_family_member(1, (4,)),
            make_family_member(6, (3, 3)),
        ):
            rows = condition_implication_rows(member.graph)
            assert all(not row.holds for row in rows)
            assert all(row.sound for row in rows)
            assert all(not row.kappa_prime_equals_delta for row in rows)

    def test_diam2_fails_for_bridged_triangles(self):
        assert not condition_holds(Condition.plesnik_diam2, bridged_triangles())


class TestDomain:
    def test_rejects_disconnected_and_tiny(self):
        with pytest.raises(GraphError):
            condition_holds(Condition.chartrand, from_edges(4, [(0, 1), (2, 3)]))
        with pytest.raises(GraphError):
            condition_holds(Condition.chartrand, Graph(1, (0,)))
        with pytest.raises(GraphError):
            condition_implication_rows(Graph(1, (0,)))


def _connected_graph(rng, n):
    """A random spanning tree on n vertices plus edges of a random density."""
    p = rng.uniform(0.1, 0.9)
    edges = [(v, rng.randrange(v)) for v in range(1, n)]
    edges += [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return from_edges(n, edges)


class TestXuPairing:
    def test_sorted_degrees_match_heavy_matching(self):
        # the reference joins u and v when deg(u) + deg(v) >= n and asks
        # networkx's blossom for floor(n/2) disjoint pairs
        nx = pytest.importorskip("networkx")
        rng = random.Random(7)
        gs = [g for g in walk(8) if g.n >= 2]
        gs += [_connected_graph(rng, n) for n in range(2, 19) for _ in range(60)]
        seen = set()
        for g in gs:
            n = g.n
            deg = [row.bit_count() for row in g.adj]
            heavy = nx.Graph((u, v) for u in range(n) for v in range(u + 1, n)
                             if deg[u] + deg[v] >= n)
            want = len(nx.max_weight_matching(heavy, maxcardinality=True)) >= n // 2
            assert condition_holds(Condition.xu_pairing, g) == want, to_graph6(g)
            seen.add((n % 2, want))
        # both verdicts at both parities, so neither end of the pairing goes untested
        assert seen == {(0, False), (0, True), (1, False), (1, True)}


# graphs of walk(7) on which each hypothesis holds, from the earlier
# implementation with one predicate per condition (995 graphs)
FIRED_N7 = {
    Condition.chartrand: 186,
    Condition.lesniak: 232,
    Condition.plesnik_diam2: 457,
    Condition.volkmann_bipartite: 18,
    Condition.plesnik_znam_quadruple: 911,
    Condition.plesnik_znam_bipartite_diam3: 42,
    Condition.xu_pairing: 423,
    Condition.dankelmann_volkmann: 192,
}


class TestSoundness:
    def test_fired_counts_pinned(self):
        # a total alone cannot see two hypotheses swapped
        fired = dict.fromkeys(Condition, 0)
        graphs = 0
        for g in walk(7):
            graphs += 1
            rows = condition_implication_rows(g)
            assert [row.condition for row in rows] == list(Condition)
            for row in rows:
                assert condition_holds(row.condition, g) == row.holds, (g, row.condition)
                fired[row.condition] += row.holds
        assert graphs == 995
        assert fired == FIRED_N7
        assert sum(fired.values()) == 2461

    def test_shared_rows_equal_fresh_rows(self):
        """The rows come from a shared table of the 32 possible ones: they equal
        rows built here, each call returns a new list of the same row
        objects, and rows stay frozen."""
        gs = list(walk(6)) + _gap_prone_graphs(seed=9, count=200)
        for g in gs:
            equality = edge_connectivity(g) == min_degree(g)
            fresh = [ImplicationRow(cond, condition_holds(cond, g), equality) for cond in Condition]
            rows = condition_implication_rows(g)
            assert rows == fresh, to_graph6(g)
            again = condition_implication_rows(g)
            assert again == rows and again is not rows
            assert all(a is b for a, b in zip(again, rows))
        with pytest.raises(dataclasses.FrozenInstanceError):
            rows[0].holds = not rows[0].holds

    def test_no_violations_small(self, levels6):
        stats = {cond: 0 for cond in Condition}
        for n in range(2, 7):
            for g in levels6[n]:
                for row in condition_implication_rows(g):
                    assert row.sound, (n, row.condition)
                    if row.holds:
                        stats[row.condition] += 1
        # every hypothesis fires somewhere in the range, so the sweep is not vacuous
        assert all(count > 0 for count in stats.values())

    def test_equality_graphs_exist_without_hypotheses(self, levels6):
        # the converse direction: equality holding while all eight fail
        found = False
        for g in levels6[6]:
            rows = condition_implication_rows(g)
            if rows[0].kappa_prime_equals_delta and all(not r.holds for r in rows):
                found = True
                break
        assert found
