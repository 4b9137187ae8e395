"""Eight classical sufficient conditions for edge connectivity = min degree.

Each predicate takes a connected graph on at least two vertices and returns
whether its hypothesis holds; every one of them implies that edge
connectivity equals minimum degree, which the implication rows make
checkable en masse.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .graphs import Graph, GraphError, bipartition_mask, distance_matrix, is_connected
from .invariants import clique_number, edge_connectivity, min_degree
from .matching import matching_number


class Condition(Enum):
    """The eight hypotheses, in their customary citation order."""

    chartrand = 1
    lesniak = 2
    plesnik_diam2 = 3
    volkmann_bipartite = 4
    plesnik_znam_quadruple = 5
    plesnik_znam_bipartite_diam3 = 6
    xu_pairing = 7
    dankelmann_volkmann = 8


def _check_domain(g: Graph):
    if g.n < 2 or not is_connected(g):
        raise GraphError("conditions apply to connected graphs on >= 2 vertices")


def _holds_chartrand(g: Graph) -> bool:
    """n <= 2*delta + 1."""
    return g.n <= 2 * min_degree(g) + 1


def _holds_lesniak(g: Graph) -> bool:
    """deg(u) + deg(v) >= n - 1 for every nonadjacent pair."""
    n = g.n
    deg = [row.bit_count() for row in g.adj]
    for u in range(n):
        for v in range(u + 1, n):
            if not g.adj[u] >> v & 1 and deg[u] + deg[v] < n - 1:
                return False
    return True


def _holds_plesnik_diam2(g: Graph) -> bool:
    """Diameter at most 2."""
    return all(max(row) <= 2 for row in distance_matrix(g))


def _holds_volkmann_bipartite(g: Graph) -> bool:
    """Bipartite with n <= 4*delta - 1."""
    return bipartition_mask(g) is not None and g.n <= 4 * min_degree(g) - 1


def _far_masks(g: Graph) -> list[int]:
    dist = distance_matrix(g)
    far = [0] * g.n
    for v in range(g.n):
        for u in range(g.n):
            if dist[v][u] >= 3:
                far[v] |= 1 << u
    return far


def _holds_plesnik_znam_quadruple(g: Graph) -> bool:
    """No four distinct vertices u1, u2, v1, v2 with all four cross
    distances d(u1,u2), d(u1,v2), d(v1,u2), d(v1,v2) at least 3."""
    far = _far_masks(g)
    for u1 in range(g.n):
        for v1 in range(u1 + 1, g.n):
            if (far[u1] & far[v1]).bit_count() >= 2:
                return False
    return True


def _holds_plesnik_znam_bipartite_diam3(g: Graph) -> bool:
    """Bipartite with diameter at most 3."""
    if bipartition_mask(g) is None:
        return False
    return all(max(row) <= 3 for row in distance_matrix(g))


def _holds_xu_pairing(g: Graph) -> bool:
    """floor(n/2) pairwise disjoint vertex pairs with degree sums >= n.

    Realized as a maximum matching question on the auxiliary graph joining
    u and v exactly when deg(u) + deg(v) >= n.
    """
    n = g.n
    deg = [row.bit_count() for row in g.adj]
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if deg[u] + deg[v] >= n:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return matching_number(Graph(n, rows)) >= n // 2


def _holds_dankelmann_volkmann(g: Graph) -> bool:
    """With p = max(omega, 2): n <= 2*floor(p*delta/(p-1)) - 1.

    The published condition takes any p >= 2 with omega <= p (a K_{p+1}-free
    graph).  Its bound weakens as p grows, so p = max(omega, 2) is the
    strongest valid choice, and that choice meets omega <= p by construction.
    """
    p = max(clique_number(g), 2)
    return g.n <= 2 * (p * min_degree(g) // (p - 1)) - 1


CONDITION_NAMES = tuple(c.name for c in Condition)

_PREDICATES = {
    Condition.chartrand: _holds_chartrand,
    Condition.lesniak: _holds_lesniak,
    Condition.plesnik_diam2: _holds_plesnik_diam2,
    Condition.volkmann_bipartite: _holds_volkmann_bipartite,
    Condition.plesnik_znam_quadruple: _holds_plesnik_znam_quadruple,
    Condition.plesnik_znam_bipartite_diam3: _holds_plesnik_znam_bipartite_diam3,
    Condition.xu_pairing: _holds_xu_pairing,
    Condition.dankelmann_volkmann: _holds_dankelmann_volkmann,
}


def condition_holds(cond: Condition, g: Graph) -> bool:
    """Return whether the hypothesis of one condition holds for g."""
    _check_domain(g)
    return _PREDICATES[cond](g)


@dataclass(frozen=True)
class ImplicationRow:
    """One condition's hypothesis next to the equality it promises."""

    condition: Condition
    holds: bool
    kappa_prime_equals_delta: bool

    @property
    def sound(self) -> bool:
        """False only on a soundness violation: hypothesis without equality."""
        return not self.holds or self.kappa_prime_equals_delta


def condition_implication_rows(g: Graph) -> list[ImplicationRow]:
    """Evaluate all eight hypotheses against the actual equality.

    A row with holds=True and equality False would witness an implementation
    bug; the sweep tests assert no such row ever appears.
    """
    _check_domain(g)
    equality = edge_connectivity(g) == min_degree(g)
    return [
        ImplicationRow(cond, _PREDICATES[cond](g), equality) for cond in Condition
    ]
