"""Eight classical sufficient conditions for edge connectivity = min degree.

Each hypothesis applies to a connected graph on at least two vertices, and
every one of them implies that edge connectivity equals minimum degree,
which the implication rows make checkable en masse.  All eight come from one
pass per graph that computes the degrees (sorted once, which decides Xu's
pairing), one layer walk per source (the diameter and the radius-2 balls),
one bipartition and the clique number once.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .graphs import Graph, _layers, bipartition_mask
from .invariants import _require_cut_domain, clique_number, edge_connectivity, min_degree


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


CONDITION_NAMES = tuple(c.name for c in Condition)


def _hypotheses(g: Graph) -> list[bool]:
    """The eight verdicts for a connected g, in Condition order."""
    n = g.n
    adj = g.adj
    deg = [row.bit_count() for row in adj]
    delta = min(deg)
    layers = [_layers(adj, s) for s in range(n)]
    diam = max(ecc for ecc, _ in layers)
    # the vertices at distance >= 3 are those outside the radius-2 ball
    full = (1 << n) - 1
    far = [full & ~ball2 for _, ball2 in layers]
    bipartite = bipartition_mask(g) is not None
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    # Xu's pairs are the edges of the graph joining u and v exactly when
    # deg(u) + deg(v) >= n, a threshold graph, so a sort decides them.  For
    # odd n drop the smallest degree: it can take the place of whichever
    # vertex a pairing leaves out.  Pairing the ascending list from opposite
    # ends then maximises the smallest pair sum: the smallest degree's
    # partner can swap with the largest degree's, and no sum falls below n.
    a = sorted(deg)
    # Dankelmann-Volkmann take any p >= 2 with omega <= p (a K_{p+1}-free graph);
    # the bound weakens as p grows, so p = max(omega, 2), which meets omega <= p,
    # is the strongest valid choice
    p = max(clique_number(g), 2)
    return [
        # n <= 2*delta + 1
        n <= 2 * delta + 1,
        # deg(u) + deg(v) >= n - 1 for every nonadjacent pair
        all(adj[u] >> v & 1 or deg[u] + deg[v] >= n - 1 for u, v in pairs),
        # diameter at most 2
        diam <= 2,
        # bipartite with n <= 4*delta - 1
        bipartite and n <= 4 * delta - 1,
        # no distinct u1, v1, u2, v2 with d(x, y) >= 3 for x in {u1, v1}, y in {u2, v2}
        all((far[u] & far[v]).bit_count() < 2 for u, v in pairs),
        # bipartite with diameter at most 3
        bipartite and diam <= 3,
        # floor(n/2) pairwise disjoint vertex pairs with degree sums >= n
        all(a[n % 2 + i] + a[n - 1 - i] >= n for i in range(n // 2)),
        # with p = max(omega, 2): n <= 2*floor(p*delta/(p-1)) - 1
        n <= 2 * (p * delta // (p - 1)) - 1,
    ]


def condition_holds(cond: Condition, g: Graph) -> bool:
    """Return whether the hypothesis of one condition holds for g."""
    _require_cut_domain(g, "a sufficient condition")
    return _hypotheses(g)[cond.value - 1]


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


# every possible row, built once: _ROWS[equality][i][holds] is the row of
# the i-th condition; rows are frozen, so graphs can share them
_ROWS = tuple(
    tuple((ImplicationRow(cond, False, equality), ImplicationRow(cond, True, equality))
          for cond in Condition)
    for equality in (False, True)
)


def condition_implication_rows(g: Graph) -> list[ImplicationRow]:
    """Evaluate all eight hypotheses against the actual equality.

    A row with holds=True and equality False would witness an implementation
    bug; the sweep tests assert no such row ever appears.  The rows come from
    a table of all 32 possible ones; the list is new on every call.
    """
    _require_cut_domain(g, "a sufficient condition")
    equality = edge_connectivity(g) == min_degree(g)
    return [pair[holds] for pair, holds in zip(_ROWS[equality], _hypotheses(g))]
