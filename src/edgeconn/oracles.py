"""Slow, independent reference computations.

Everything here recomputes a quantity from its definition, sharing as little
code as possible with the fast paths: cuts by exhausting subsets, class
counts by expanding labeled-graph orbits under all vertex permutations,
pattern containment by trying every injection, and distances by one BFS per
source.  The test suite and the selftest command compare the main
implementations against these.
"""

from __future__ import annotations

from itertools import combinations, permutations

from .graphs import Graph, GraphError, _bits, is_connected


def edge_cut_oracle(g: Graph) -> int:
    """Minimum edge cut by scanning all bipartitions with vertex 0 fixed."""
    if not is_connected(g):
        raise GraphError("edge cuts are defined for connected graphs")
    if g.n < 2:
        raise GraphError("edge cuts need at least two vertices")
    full = (1 << g.n) - 1
    best = g.n * g.n
    for half in range(1 << (g.n - 1)):
        side = (half << 1) | 1
        if side == full:
            continue
        crossing = sum((g.adj[u] & ~side).bit_count() for u in _bits(side))
        if crossing < best:
            best = crossing
    return best


def vertex_cut_oracle(g: Graph) -> int:
    """Minimum vertex cut by trying separator sets in increasing size."""
    if not is_connected(g):
        raise GraphError("vertex cuts are defined for connected graphs")
    if g.n < 2:
        raise GraphError("vertex cuts need at least two vertices")
    if all(row.bit_count() == g.n - 1 for row in g.adj):
        return g.n - 1
    for size in range(g.n - 1):
        for cut in combinations(range(g.n), size):
            gone = 0
            for v in cut:
                gone |= 1 << v
            rest = [v for v in range(g.n) if not gone >> v & 1]
            seen = 1 << rest[0]
            frontier = seen
            while frontier:
                grow = 0
                for u in _bits(frontier):
                    grow |= g.adj[u] & ~gone
                frontier = grow & ~seen
                seen |= frontier
            if any(not seen >> v & 1 for v in rest):
                return size
    raise AssertionError("non-complete graph with no separator")


def _mask_connected(n: int, mask: int, pairs) -> bool:
    adj = [0] * n
    for i, (u, v) in enumerate(pairs):
        if mask >> i & 1:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    seen = 1
    frontier = 1
    while frontier:
        grow = 0
        for u in _bits(frontier):
            grow |= adj[u]
        frontier = grow & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


def connected_class_count_oracle(n: int) -> int:
    """Count connected graphs on n vertices up to relabeling, n <= 6.

    Walks every labeled graph as an edge bitmask and groups labelings into
    orbits by applying all n! vertex permutations, so nothing here touches
    canonical forms or the incremental generator.
    """
    if not 1 <= n <= 6:
        raise GraphError("the exhaustive class counter handles 1 <= n <= 6")
    pairs = list(combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    maps = [
        tuple(index[tuple(sorted((perm[u], perm[v])))] for u, v in pairs)
        for perm in permutations(range(n))
    ]
    seen = bytearray(1 << len(pairs))
    count = 0
    for mask in range(1 << len(pairs)):
        if seen[mask]:
            continue
        for emap in maps:
            img = 0
            rest = mask
            while rest:
                low = rest & -rest
                img |= 1 << emap[low.bit_length() - 1]
                rest ^= low
            seen[img] = 1
        if _mask_connected(n, mask, pairs):
            count += 1
    return count


def degree_sequence_census(n: int, sequence: tuple[int, ...]) -> list[Graph]:
    """All labeled connected graphs on n vertices with the given sorted degrees."""
    if n > 7:
        raise GraphError("the census scan is exhaustive; keep n <= 7")
    want = tuple(sorted(sequence, reverse=True))
    pairs = list(combinations(range(n), 2))
    out = []
    for mask in range(1 << len(pairs)):
        adj = [0] * n
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        g = Graph(n, tuple(adj))
        if g.degree_sequence() == want and is_connected(g):
            out.append(g)
    return out


def contains_induced_oracle(host: Graph, pattern: Graph) -> bool:
    """Induced-subgraph containment by trying every injection directly."""
    k = pattern.n
    if k > host.n:
        return False
    for sub in combinations(range(host.n), k):
        for image in permutations(sub):
            ok = True
            for a in range(k):
                for b in range(a + 1, k):
                    joined = host.adj[image[a]] >> image[b] & 1
                    if joined != pattern.adj[a] >> b & 1:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return True
    return False


def matching_oracle(g: Graph) -> int:
    """Maximum matching size by subset dynamic programming, n <= 14."""
    if g.n > 14:
        raise GraphError("the matching oracle is exponential; keep n <= 14")
    memo: dict[int, int] = {0: 0}

    def best(mask: int) -> int:
        got = memo.get(mask)
        if got is not None:
            return got
        low = mask & -mask
        v = low.bit_length() - 1
        out = best(mask ^ low)
        for u in _bits(g.adj[v] & mask & ~low):
            out = max(out, 1 + best(mask ^ low ^ (1 << u)))
        memo[mask] = out
        return out

    return best((1 << g.n) - 1)


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Return BFS distances from ``source``; unreachable vertices get -1."""
    dist = [-1] * g.n
    dist[source] = 0
    seen = 1 << source
    frontier = seen
    d = 0
    while frontier:
        grow = 0
        for v in _bits(frontier):
            grow |= g.adj[v]
        frontier = grow & ~seen
        seen |= frontier
        d += 1
        for v in _bits(frontier):
            dist[v] = d
    return dist


def distance_matrix(g: Graph) -> list[list[int]]:
    """Return all pairwise distances; raises on disconnected input."""
    if not is_connected(g):
        raise GraphError("distance matrix requires a connected graph")
    return [bfs_distances(g, s) for s in range(g.n)]
