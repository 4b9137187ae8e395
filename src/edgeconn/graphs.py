"""Small-graph kernel: immutable bit-row adjacency, graph6 codec, diameter.

Vertices are 0..n-1.  Each row of ``adj`` is an int whose bit v says whether
the row vertex is adjacent to v, so neighborhood algebra is plain int
arithmetic.  Everything downstream (invariants, pattern matching, the
enumerator) works on these rows.
"""

from __future__ import annotations

from collections.abc import Iterable


class GraphError(ValueError):
    """Malformed graph data or an operation applied outside its domain."""


class Graph6Error(GraphError):
    """A graph6 record that cannot be decoded; the message names the offset."""


def _bits(mask: int):
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


class Graph:
    """An undirected simple graph on vertices 0..n-1 with bit-row adjacency."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: Iterable[int]):
        adj = tuple(adj)
        if n < 0:
            raise GraphError(f"vertex count must be nonnegative, got {n}")
        if len(adj) != n:
            raise GraphError(f"expected {n} adjacency rows, got {len(adj)}")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise GraphError(f"row {v} mentions vertices outside 0..{n - 1}")
            if row >> v & 1:
                raise GraphError(f"loop at vertex {v}")
        for v, row in enumerate(adj):
            while row:
                b = row & -row
                row ^= b
                u = b.bit_length() - 1
                if not adj[u] >> v & 1:
                    raise GraphError(f"edge {v}-{u} is not symmetric")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        # unpickling goes through __init__, so a loaded graph is re-validated
        return Graph, (self.n, self.adj)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"

    @property
    def m(self) -> int:
        """Return the number of edges."""
        return sum(row.bit_count() for row in self.adj) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degree_sequence(self) -> tuple[int, ...]:
        """Return vertex degrees sorted in nonincreasing order."""
        return tuple(sorted((row.bit_count() for row in self.adj), reverse=True))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """Return all edges as (u, v) with u < v, in lexicographic order."""
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1) << (u + 1)
            out.extend((u, v) for v in _bits(row))
        return out


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph on n vertices from an edge list."""
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge {u}-{v} outside 0..{n - 1}")
        if u == v:
            raise GraphError(f"loop at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, rows)


def induced(g: Graph, vertices: int | Iterable[int]) -> Graph:
    """Return the subgraph induced by ``vertices`` (bit mask or iterable).

    Kept vertices are relabeled 0.. in ascending order of their old labels.
    """
    mask = vertices if isinstance(vertices, int) else _iterable_to_mask(g.n, vertices)
    if mask & ~((1 << g.n) - 1):
        raise GraphError("vertex selection outside 0..n-1")
    keep = list(_bits(mask))
    pos = {v: i for i, v in enumerate(keep)}
    rows = [0] * len(keep)
    for v in keep:
        row = g.adj[v] & mask
        for u in _bits(row):
            rows[pos[v]] |= 1 << pos[u]
    return Graph(len(keep), rows)


def _iterable_to_mask(n: int, vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        if not 0 <= v < n:
            raise GraphError(f"vertex {v} outside 0..{n - 1}")
        mask |= 1 << v
    return mask


def component_mask(adj, start: int, allowed: int) -> int:
    """Return the bit mask of the component of ``start`` within ``allowed``."""
    seen = 1 << start
    frontier = seen
    while frontier:
        grow = 0
        while frontier:
            b = frontier & -frontier
            frontier ^= b
            grow |= adj[b.bit_length() - 1]
        frontier = grow & allowed & ~seen
        seen |= frontier
    return seen


def is_connected(g: Graph) -> bool:
    """Return whether g is connected; the 0-vertex graph counts as not."""
    if g.n == 0:
        return False
    full = (1 << g.n) - 1
    return component_mask(g.adj, 0, full) == full


def _layers(adj, source: int) -> tuple[int, int]:
    """Return (eccentricity of ``source``, mask of its radius-2 ball).

    One BFS over frontier masks that counts layers instead of writing
    distances; only vertices reachable from ``source`` are seen.
    """
    seen = frontier = 1 << source
    ecc = 0
    ball2 = seen
    while True:
        grow = 0
        while frontier:
            b = frontier & -frontier
            frontier ^= b
            grow |= adj[b.bit_length() - 1]
        frontier = grow & ~seen
        if not frontier:
            return ecc, ball2
        seen |= frontier
        ecc += 1
        if ecc <= 2:
            ball2 = seen


def diameter(g: Graph) -> int:
    """Return the largest pairwise distance; raises on disconnected input."""
    if not is_connected(g):
        raise GraphError("diameter is defined here for connected graphs")
    return max(_layers(g.adj, s)[0] for s in range(g.n))


def bipartition_mask(g: Graph) -> int | None:
    """Return one side of a 2-coloring as a bit mask, or None if odd cycle.

    Works per component over frontier masks: the side holds the even BFS
    layers from each component's least vertex, so for a connected graph it
    holds vertex 0.  A graph has an odd cycle iff some edge lies inside one
    layer.
    """
    adj = g.adj
    unseen = (1 << g.n) - 1
    side = 0
    while unseen:
        frontier = unseen & -unseen
        even = True
        while frontier:
            unseen &= ~frontier
            if even:
                side |= frontier
            grow = 0
            rest = frontier
            while rest:
                b = rest & -rest
                rest ^= b
                row = adj[b.bit_length() - 1]
                if row & frontier:
                    return None
                grow |= row
            frontier = grow & unseen
            even = not even
    return side


def is_bipartite(g: Graph) -> bool:
    return bipartition_mask(g) is not None


# ---------------------------------------------------------------------------
# graph6 codec (short form only)

# the largest order graph6 short form handles, and so canonical labelling,
# pattern tokens and family members
GRAPH6_MAX_ORDER = 62


def to_graph6(g: Graph) -> str:
    """Encode as a one-line graph6 record (short form, n <= GRAPH6_MAX_ORDER)."""
    n = g.n
    if n > GRAPH6_MAX_ORDER:
        raise Graph6Error(f"short-form graph6 handles n <= {GRAPH6_MAX_ORDER}, got {n}")
    out = [n + 63]
    acc = 0
    nbits = 0
    for j in range(1, n):
        col = g.adj[j]
        for i in range(j):
            acc = acc << 1 | (col >> i & 1)
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc = 0
                nbits = 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return bytes(out).decode("ascii")


def from_graph6(line: str) -> Graph:
    """Decode a one-line graph6 record; errors name the bad byte offset."""
    if line.startswith(":"):
        raise Graph6Error("sparse6 records (leading ':') are not supported")
    if line.startswith("&"):
        raise Graph6Error("digraph6 records (leading '&') are not supported")
    if not line:
        raise Graph6Error("empty graph6 record")
    # undecodable input bytes come back unchanged, and the first non-ASCII
    # character starts at the same offset in characters and in bytes
    try:
        data = line.encode("utf-8", errors="surrogateescape")
    except UnicodeEncodeError as exc:  # a lone surrogate that no input byte escapes
        raise Graph6Error(f"byte {exc.start}: lone surrogate, not a graph6 byte") from None
    for off, byte in enumerate(data):
        if not 63 <= byte <= 126:
            raise Graph6Error(f"byte {off} value {byte} outside graph6 range 63..126")
    n = data[0] - 63
    if n > GRAPH6_MAX_ORDER:
        raise Graph6Error(
            f"byte 0: long-form vertex counts (n > {GRAPH6_MAX_ORDER}) not supported"
        )
    k = n * (n - 1) // 2
    want = 1 + (k + 5) // 6
    if len(data) != want:
        raise Graph6Error(
            f"byte {len(data)}: record for n={n} needs {want} bytes, got {len(data)}"
        )
    rows = [0] * n
    # upper-triangle bits run (0,1), (0,2), (1,2), (0,3), ... column by column;
    # the bits after column n-1 are padding
    i, j = 0, 1
    for off in range(1, len(data)):
        chunk = data[off] - 63
        for shift in range(5, -1, -1):
            if j >= n:
                if chunk >> shift & 1:
                    raise Graph6Error(f"byte {off}: nonzero padding bits")
                continue
            if chunk >> shift & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            i += 1
            if i == j:
                i, j = 0, j + 1
    return Graph(n, rows)
