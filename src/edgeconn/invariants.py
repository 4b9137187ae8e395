"""Exact connectivity invariants for small graphs.

One unit-capacity augmenting-path flow kernel serves every cut quantity.
Edge connectivity runs it on the graph's own rows, the bidirected edge
network, from one source to the sinks of a dominating set, each flow capped
at the best value so far (the minimum degree to begin with).  Minimum edge
cut certificates still take every sink, for their least-sink tie-break, and
read their source side off the kernel's last failed search.  Vertex
connectivity runs it on the usual vertex-split network over a dominating
family of nonadjacent pairs, each flow capped at the best value so far (the
minimum degree delta to begin with), and stops once that value reaches
max(1, 2 delta + 2 - n): the smallest component C of G minus a minimum cut
has |C| <= (n - kappa) / 2 and a vertex of degree at most |C| - 1 + kappa,
so kappa >= 2 delta + 2 - n on every connected non-complete graph.
Every flow starts from its common-neighbour paths: s -> w -> t for each w in
N(s) & N(t), plus the edge s-t itself on the edge network.  When they fall
short of the flow's cap, greedy two-hop paths s -> a -> b -> t join them,
each a in N(s) - N(t) - {t} and each b in N(t) - N(s) - {s}, no a or b
used twice (``_bridges``); the split network's seeds are the same paths,
each inner vertex w split into 2w -> 2w+1.  The two-hop lemma: the a's are
distinct, the b's are distinct, and the two sets meet neither each other nor
the common neighbours, so no two of these paths share an arc, or on the
split network an inner vertex, and together they are a valid flow.  A flow
whose seeds already reach its cap is not run at all.  Augmenting from any
valid flow reaches a maximum flow, and the residual reach of a maximum flow
is the source side of the least minimum cut, the same for every maximum
flow; so seeding changes no value, no cut side and no certificate.  The
clique number is a bitset branch and bound in plain vertex order, and
chordality is simplicial elimination.  All are cheap at the orders this
package scans (n well under a hundred).
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, GraphError, _bits, diameter as graph_diameter, is_connected, to_graph6


def _require_vertices(g: Graph):
    if g.n == 0:
        raise GraphError("invariants are undefined for the 0-vertex graph")


def min_degree(g: Graph) -> int:
    _require_vertices(g)
    return min(row.bit_count() for row in g.adj)


def max_degree(g: Graph) -> int:
    _require_vertices(g)
    return max(row.bit_count() for row in g.adj)


def _unit_flow(arc, s: int, t: int, cap: int, paths=()) -> tuple[int, int]:
    """Unit-capacity max flow s->t on an arc-mask network, up to ``cap``.

    ``arc[a]`` bit b is an arc a -> b of capacity one.  Returns (value,
    reach).  The flow starts from ``paths``, arc-disjoint s-t paths each
    given as its node sequence after s, and augments from there.  Augmenting
    stops once value reaches ``cap``, so a value below ``cap`` is the
    maximum flow, and only then does ``reach`` mean anything: it is the mask
    the last search reached when it failed to find t, the source side of the
    least minimum s-t cut (the same for every maximum flow, so the same
    whatever the starting paths).  ``free[a]`` holds a's arcs that carry no
    flow and ``back[a]`` the tails of the units flowing into a; a search
    grows over both.
    """
    n = len(arc)
    free = list(arc)
    back = [0] * n
    for path in paths:
        a = s
        for b in path:
            free[a] ^= 1 << b
            back[b] |= 1 << a
            a = b
    value = len(paths)
    reach = 0
    sink = 1 << t
    while value < cap:
        parent = [-1] * n
        reach = 1 << s
        queue = [s]
        while queue and not reach & sink:
            nxt = []
            for a in queue:
                grow = (free[a] | back[a]) & ~reach
                reach |= grow
                while grow:
                    low = grow & -grow
                    grow ^= low
                    b = low.bit_length() - 1
                    parent[b] = a
                    nxt.append(b)
            queue = nxt
        if not reach & sink:
            break
        b = t
        while b != s:
            a = parent[b]
            if free[a] >> b & 1:
                free[a] ^= 1 << b
                back[b] |= 1 << a
            else:
                free[b] |= 1 << a
                back[a] ^= 1 << b
            b = a
        value += 1
    return value, reach


def _bridges(adj, left: int, right: int) -> list[tuple[int, int]]:
    """Greedy vertex-disjoint edges (a, b) with a in ``left``, b in ``right``.

    Scans ``left`` in ascending order and pairs each a with the least b in
    ``adj[a] & right`` that no earlier a took.  The masks must be disjoint.
    """
    pairs = []
    for a in _bits(left):
        hit = adj[a] & right
        if hit:
            low = hit & -hit
            right ^= low
            pairs.append((a, low.bit_length() - 1))
    return pairs


def _edge_paths(adj, s: int, t: int, cap: int) -> list[tuple[int, ...]] | None:
    """Pairwise edge-disjoint s-t paths of the edge network to seed a flow
    capped at ``cap``, or None when they reach ``cap`` (the flow would
    return ``cap`` and need not run).

    The paths s -> w -> t, one for each common neighbour w of s and t, and
    the edge s-t if there is one; then, if these fall short of ``cap``, the
    two-hop paths s -> a -> b -> t for the ``_bridges`` from
    N(s) - N(t) - {t} to N(t) - N(s) - {s}.
    """
    ns, nt = adj[s], adj[t]
    common = ns & nt
    edge = ns >> t & 1
    have = common.bit_count() + edge
    if have >= cap:
        return None
    hops = _bridges(adj, ns & ~nt & ~(1 << t), nt & ~ns & ~(1 << s))
    if have + len(hops) >= cap:
        return None
    paths = [(w, t) for w in _bits(common)]
    if edge:
        paths.append((t,))
    return paths + [(a, b, t) for a, b in hops]


def _split_paths(adj, x: int, y: int, cap: int) -> list[tuple[int, ...]] | None:
    """The split image of ``_edge_paths(adj, x, y, cap)`` for nonadjacent x
    and y: internally disjoint paths 2x+1 -> 2y of the vertex-split network,
    each inner vertex w as 2w -> 2w+1, or None when they reach ``cap``."""
    paths = _edge_paths(adj, x, y, cap)
    return None if paths is None else [
        tuple(v for w in path[:-1] for v in (2 * w, 2 * w + 1)) + (2 * y,) for path in paths]


def _require_cut_domain(g: Graph, what: str):
    """Reject the graphs a cut is undefined on; ``what`` names the quantity."""
    if g.n < 2:
        raise GraphError(f"{what} needs at least two vertices")
    if not is_connected(g):
        raise GraphError(f"{what} is defined here for connected graphs")


def edge_connectivity(g: Graph) -> int:
    """Return the minimum number of edges whose removal disconnects g.

    Flows run from vertex 0 only to the other members of a greedy dominating
    set D seeded at 0 (Matula, FOCS 1987).  If the edge connectivity is below
    the minimum degree delta, each side of a minimum cut has more than delta
    vertices: a side of k <= delta vertices sends at least k(delta - k + 1)
    >= delta edges across.  Fewer than delta of its vertices touch the cut,
    so each side holds a vertex with no neighbour across it, and the member
    of D that dominates that vertex lies on the same side.  D therefore meets
    both sides, and the answer is min(delta, lambda(0, t) for t in D - {0}).
    Each flow is capped at the best value so far, which starts at delta, and
    starts from ``_edge_paths`` of 0 and t, or is skipped when they reach the
    cap, as its capped answer is the cap.
    """
    _require_cut_domain(g, "edge connectivity")
    adj = g.adj
    best = min(row.bit_count() for row in adj)
    dominated = adj[0] | 1
    for t in range(1, g.n):
        if dominated >> t & 1:
            continue
        dominated |= adj[t] | 1 << t
        paths = _edge_paths(adj, 0, t, best)
        if paths is not None:
            best = _unit_flow(adj, 0, t, best, paths)[0]
    return best


@dataclass(frozen=True)
class CutCertificate:
    """A minimum edge cut: the two sides, the cut edges, and the boundaries.

    Sides and boundaries are vertex bit masks; ``cut_edges`` holds (u, v)
    pairs with u on side1, sorted lexicographically.
    """

    side1: int
    side2: int
    cut_edges: tuple[tuple[int, int], ...]
    boundary1: int
    boundary2: int

    @property
    def value(self) -> int:
        return len(self.cut_edges)

    def side1_vertices(self) -> tuple[int, ...]:
        return tuple(_bits(self.side1))

    def side2_vertices(self) -> tuple[int, ...]:
        return tuple(_bits(self.side2))


def min_edge_cut(g: Graph) -> CutCertificate:
    """Return a deterministic minimum edge cut certificate.

    Ties break by the lexicographically least sink whose flow attains the
    minimum; side1 is then the residual-reachable side of the source.  The
    best value starts at delta + 1: lambda <= delta, so every flow that could
    attain it is exact.  Each flow starts from ``_edge_paths`` of 0 and t, or
    is skipped when they reach the best so far, as it could not undercut it.
    The residual reach of a maximum flow is the source side of the least
    minimum cut whatever flow the search started from, so the sides, the
    cut and the tie-break are those of unseeded flows.
    """
    _require_cut_domain(g, "an edge cut")
    best = min(row.bit_count() for row in g.adj) + 1
    for t in range(1, g.n):
        paths = _edge_paths(g.adj, 0, t, best)
        if paths is None:
            continue
        value, reach = _unit_flow(g.adj, 0, t, best, paths)
        if value < best:
            best, side1 = value, reach
    side2 = ((1 << g.n) - 1) ^ side1
    cut = []
    b1 = b2 = 0
    for u in _bits(side1):
        out = g.adj[u] & side2
        if out:
            b1 |= 1 << u
            for v in _bits(out):
                b2 |= 1 << v
                cut.append((u, v))
    cut.sort()
    cert = CutCertificate(side1, side2, tuple(cut), b1, b2)
    if cert.value != best:
        raise AssertionError("cut certificate does not match the flow value")
    return cert


def vertex_connectivity(g: Graph) -> int:
    """Return vertex connectivity, with complete graphs mapped to n - 1.

    Flows run on the vertex-split network over the nonadjacent pairs of one
    min-degree vertex v (Esfahanian and Hakimi, Networks 1984): v against
    each non-neighbour, then each nonadjacent pair of v's neighbours.  A
    minimum cut either avoids v, and so separates v from a non-neighbour, or
    contains v, and then separates two of v's neighbours.  The answer starts
    at delta, the degree of v, and each flow is capped at the best value so
    far.  The search stops once that value reaches max(1, 2 delta + 2 - n),
    a floor for every connected non-complete graph: if S is a minimum cut
    and C the smallest component of G - S, a vertex of C has degree at most
    |C| - 1 + kappa and |C| <= (n - kappa) / 2, so kappa >= 2 delta + 2 - n.
    A non-complete graph with delta = 1 or delta = n - 2 therefore runs no
    flow.  A complete graph has no nonadjacent pair, runs no flow and keeps
    delta = n - 1.  Each flow starts from ``_split_paths`` of x and y, or is
    skipped when they reach best, since its capped flow would return best.
    The split network is built only when the first flow runs.
    """
    if not is_connected(g):
        raise GraphError("vertex connectivity is defined here for connected graphs")
    adj = g.adj
    n = g.n
    deg = [row.bit_count() for row in adj]
    best = min(deg)
    v = deg.index(best)
    floor = max(1, 2 * best + 2 - n)
    if best == floor:
        return best
    arc = None
    pairs = [(v, u) for u in _bits(((1 << n) - 1) & ~adj[v] & ~(1 << v))]
    for x in _bits(adj[v]):
        pairs += [(x, y) for y in _bits(adj[v] & ~adj[x] & ~((2 << x) - 1))]
    for x, y in pairs:
        # a flow capped at best returns min(best, kappa(x, y)), which is best
        # when the seeds already number best
        paths = _split_paths(adj, x, y, best)
        if paths is None:
            continue
        if arc is None:
            # the vertex-split network: vertex w becomes the arc 2w -> 2w+1
            # and each edge wu the arcs 2w+1 -> 2u and 2u+1 -> 2w, so for
            # nonadjacent x, y a flow 2x+1 -> 2y counts internally disjoint
            # x-y paths
            arc = [0] * (2 * n)
            for w in range(n):
                arc[2 * w] = 1 << (2 * w + 1)
                for u in _bits(adj[w]):
                    arc[2 * w + 1] |= 1 << (2 * u)
        best = _unit_flow(arc, 2 * x + 1, 2 * y, best, paths)[0]
        if best == floor:
            break
    return best


def clique_number(g: Graph) -> int:
    """Return the largest clique order, by bitset branch and bound.

    A branch is cut when its clique plus a greedy colouring of its
    candidates cannot beat the best so far, since a clique takes at most one
    vertex of each colour (Tomita and Seki, DMTCS 2003); within a branch the
    remaining candidate count bounds the rest.
    """
    _require_vertices(g)
    adj = g.adj
    best = 0

    def expand(cand: int, size: int):
        nonlocal best
        if not cand:
            best = max(best, size)
            return
        colors = 0
        rest = cand
        while rest:
            colors += 1
            avail = rest
            while avail:
                b = avail & -avail
                rest ^= b
                avail = (avail ^ b) & ~adj[b.bit_length() - 1]
        if size + colors <= best:
            return
        while size + cand.bit_count() > best:
            b = cand & -cand
            cand ^= b
            expand(cand & adj[b.bit_length() - 1], size + 1)

    expand((1 << g.n) - 1, 0)
    return best


def is_chordal(g: Graph) -> bool:
    """Return whether g has no induced cycle of length four or more.

    By simplicial elimination (Dirac, 1961): a chordal graph has a vertex
    whose neighbourhood is a clique, and deleting it leaves a chordal graph,
    while no such vertex lies on an induced long cycle.  So g is chordal
    exactly when deleting such vertices one at a time empties it.
    """
    adj = g.adj
    left = (1 << g.n) - 1
    while left:
        for v in _bits(left):
            nb = adj[v] & left
            if all(nb & ~adj[u] == 1 << u for u in _bits(nb)):
                left ^= 1 << v
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class InvariantReport:
    """The invariant bundle for one connected graph."""

    graph6: str
    n: int
    m: int
    delta: int
    kappa: int
    kappa_prime: int
    omega: int
    diameter: int

    def __post_init__(self):
        if not self.kappa <= self.kappa_prime <= self.delta:
            raise AssertionError(
                f"connectivity chain violated: {self.kappa} <= {self.kappa_prime}"
                f" <= {self.delta} fails for {self.graph6}"
            )
        if not 1 <= self.omega <= self.n:
            raise AssertionError(f"clique number out of range for {self.graph6}")
        if (self.omega >= 2) != (self.m >= 1):
            raise AssertionError(f"clique number inconsistent with edge count for {self.graph6}")

    FIELDS = ("graph6", "n", "m", "delta", "kappa", "kappa_prime", "omega", "diameter")

    def as_dict(self) -> dict:
        return {f: getattr(self, f) for f in self.FIELDS}


def compute_report(g: Graph) -> InvariantReport:
    """Compute every invariant for a connected graph on >= 2 vertices."""
    _require_cut_domain(g, "an invariant report")
    return InvariantReport(
        graph6=to_graph6(g),
        n=g.n,
        m=g.m,
        delta=min_degree(g),
        kappa=vertex_connectivity(g),
        kappa_prime=edge_connectivity(g),
        omega=clique_number(g),
        diameter=graph_diameter(g),
    )


def cut_interior_property(g: Graph) -> bool:
    """Check that both sides of a minimum cut keep interior structure.

    Requires edge connectivity strictly below minimum degree.  True when
    each side of the recorded minimum cut has a vertex outside the cut
    boundary and every such interior vertex keeps an interior neighbor.

    Every cut of c < delta edges has this property, not only the recorded
    one.  Let A be a side and dA its vertices that meet the cut.  If
    |A| <= delta, each vertex of A has at least delta - |A| + 1 cut edges, so
    c >= |A| (delta - |A| + 1) >= delta, which is false.  So
    |A| >= delta + 1 > c >= |dA|, and A has an interior vertex x.  If every
    neighbour of x lay in dA, then delta <= deg x <= |dA| <= c.  So the check
    can fail only on a wrong ``min_edge_cut`` certificate.
    """
    cert = min_edge_cut(g)
    if cert.value >= min_degree(g):
        raise GraphError("only meaningful when edge connectivity is below minimum degree")
    for side, boundary in ((cert.side1, cert.boundary1), (cert.side2, cert.boundary2)):
        interior = side & ~boundary
        if interior == 0:
            return False
        for x in _bits(interior):
            if g.adj[x] & interior == 0:
                return False
    return True
