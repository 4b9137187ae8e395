"""Induced-subgraph tests, canonical forms, and forbidden-pattern sets.

``canonical_form`` gives equal strings exactly for isomorphic graphs, which
backs both the enumerator's duplicate rejection and pattern-set bookkeeping.
``contains_induced`` is an exact backtracking search over injective maps that
preserve adjacency and non-adjacency; ``find_induced`` can pin the search to
copies through one host vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .graphs import Graph, _bits, induced, is_connected, to_graph6


def relabel(g: Graph, perm) -> Graph:
    """Return the graph whose new vertex i is old vertex perm[i]."""
    pos = [0] * g.n
    for i, v in enumerate(perm):
        pos[v] = i
    rows = [0] * g.n
    for i, v in enumerate(perm):
        row = 0
        for u in _bits(g.adj[v]):
            row |= 1 << pos[u]
        rows[i] = row
    return Graph(g.n, rows)


def _refine(adj, cells):
    """Refine an ordered partition (list of cell masks) until equitable.

    Cells split by neighbor counts into active splitter cells; fragments are
    ordered by count so the outcome depends only on the isomorphism type.
    """
    queue = list(cells)
    while queue:
        splitter = queue.pop()
        new_cells = []
        changed = False
        for cell in cells:
            if cell & (cell - 1) == 0:
                new_cells.append(cell)
                continue
            buckets: dict[int, int] = {}
            m = cell
            while m:
                b = m & -m
                m ^= b
                k = (adj[b.bit_length() - 1] & splitter).bit_count()
                buckets[k] = buckets.get(k, 0) | b
            if len(buckets) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for k in sorted(buckets):
                    frag = buckets[k]
                    new_cells.append(frag)
                    queue.append(frag)
        if changed:
            cells = new_cells
    return cells


def _canonical_rows(n: int, adj):
    """Return (perm, encoding, automorphisms) for the minimal relabeling.

    ``perm[i]`` is the original vertex taking canonical label i.  The
    encoding packs the relabeled upper triangle, column by column, into one
    int, so equal encodings at equal n mean isomorphic graphs.  The
    automorphism list holds the (possibly partial) set of symmetries found
    while pruning the search; asymmetric graphs come back with an empty list.
    """
    if n == 0:
        return (), 0, []
    cells = _refine(adj, [(1 << n) - 1])
    best_enc = None
    best_perm = None
    autos: list[tuple[int, ...]] = []

    def encode(perm):
        enc = 0
        for j in range(1, n):
            row = adj[perm[j]]
            for i in range(j):
                enc = enc << 1 | (row >> perm[i] & 1)
        return enc

    def leaf(cells_):
        nonlocal best_enc, best_perm
        perm = tuple(c.bit_length() - 1 for c in cells_)
        enc = encode(perm)
        if best_enc is None or enc < best_enc:
            best_enc = enc
            best_perm = perm
        elif enc == best_enc and perm != best_perm:
            a = [0] * n
            for i in range(n):
                a[perm[i]] = best_perm[i]
            auto = tuple(a)
            if auto not in autos:
                autos.append(auto)

    def search(cells_, prefix):
        for idx, cell in enumerate(cells_):
            if cell & (cell - 1):
                break
        else:
            leaf(cells_)
            return
        explored = []
        m = cell
        while m:
            b = m & -m
            m ^= b
            v = b.bit_length() - 1
            pruned = False
            for a in autos:
                if a[v] in explored and all(a[p] == p for p in prefix):
                    pruned = True
                    break
            if pruned:
                continue
            rest = cell ^ b
            branched = cells_[:idx] + [b, rest] + cells_[idx + 1:]
            search(_refine(adj, branched), prefix + (v,))
            explored.append(v)

    if all(c & (c - 1) == 0 for c in cells):
        leaf(cells)
    else:
        search(cells, ())
    return best_perm, best_enc, autos


def canonical_form(g: Graph) -> str:
    """Return a canonical graph6 string: equal iff the graphs are isomorphic."""
    perm, _, _ = _canonical_rows(g.n, g.adj)
    if g.n == 0:
        return to_graph6(g)
    return to_graph6(relabel(g, perm))


def are_isomorphic(a: Graph, b: Graph) -> bool:
    if a.n != b.n or a.m != b.m or a.degree_sequence() != b.degree_sequence():
        return False
    return _canonical_rows(a.n, a.adj)[1] == _canonical_rows(b.n, b.adj)[1]


# ---------------------------------------------------------------------------
# induced-subgraph search

def _match_plan(pattern: Graph, start: int):
    """The search plan of a pattern from one start vertex.

    One step per pattern vertex, in search order, each ``(vertex, neighbour
    steps, non-neighbour steps, degree)``: the earlier steps the vertex must
    be adjacent and non-adjacent to, and its degree, a lower bound on its
    image's.  Each vertex is placed next to one already placed, preferring
    the most placed neighbours, then the higher degree.
    """
    padj = pattern.adj
    order = [start]
    placed = 1 << start
    while len(order) < pattern.n:
        cand = [v for v in range(pattern.n) if not placed >> v & 1]
        v = max(cand, key=lambda u: ((padj[u] & placed).bit_count(), padj[u].bit_count()))
        order.append(v)
        placed |= 1 << v
    return tuple(
        (v,
         tuple(i for i in range(k) if padj[v] >> order[i] & 1),
         tuple(i for i in range(k) if not padj[v] >> order[i] & 1),
         padj[v].bit_count())
        for k, v in enumerate(order)
    )


@lru_cache(maxsize=256)
def _unpinned_plan(pattern: Graph):
    """The plan of an unpinned search: it starts at a vertex of top degree."""
    return _match_plan(pattern, max(range(pattern.n), key=lambda v: pattern.adj[v].bit_count()))


@lru_cache(maxsize=256)
def _pinned_plans(pattern: Graph):
    """The plans of a pinned search, one per start vertex to map to the pin.

    One start per orbit of the automorphisms the canonical search finds
    suffices, since symmetric starts find the same copies.  Kept apart from
    the unpinned plan, which needs no canonical search: that search is slow
    on large symmetric patterns such as K12.
    """
    pn = pattern.n
    orbit = list(range(pn))  # union-find; each root is the least vertex of its orbit
    for a in _canonical_rows(pn, pattern.adj)[2]:
        for v in range(pn):
            x, y = orbit[v], orbit[a[v]]
            while orbit[x] != x:
                x = orbit[x]
            while orbit[y] != y:
                y = orbit[y]
            orbit[max(x, y)] = min(x, y)
    return tuple(_match_plan(pattern, v) for v in range(pn) if orbit[v] == v)


def _extend(adj, degs, steps, image, k, used) -> bool:
    """Place steps k.. of a plan given images of steps 0..k-1; backtracks."""
    if k == len(steps):
        return True
    _, nbrs, nons, need = steps[k]
    cand = ~used
    for i in nbrs:
        cand &= adj[image[i]]
    for i in nons:
        cand &= ~adj[image[i]]
    while cand:
        b = cand & -cand
        cand ^= b
        w = b.bit_length() - 1
        if degs[w] < need:
            continue
        image[k] = w
        if _extend(adj, degs, steps, image, k + 1, used | b):
            return True
    return False


def _find_rows(n: int, adj, pattern: Graph, pin=None):
    """Rows-level induced search; see find_induced."""
    pn = pattern.n
    if pn == 0:
        return ()
    degs = [r.bit_count() for r in adj]
    if pn > n or 2 * pattern.m > sum(degs):
        return None
    image = [0] * pn
    outside = ~((1 << n) - 1)  # counted as used, so candidates stay among the host's vertices
    if pin is None:
        steps = _unpinned_plan(pattern)
        found = _extend(adj, degs, steps, image, 0, outside)
    else:
        found = False
        for steps in _pinned_plans(pattern):
            if degs[pin] >= steps[0][3]:
                image[0] = pin
                if _extend(adj, degs, steps, image, 1, outside | 1 << pin):
                    found = True
                    break
    if not found:
        return None
    out = [0] * pn
    for k, step in enumerate(steps):
        out[step[0]] = image[k]
    return tuple(out)


def find_induced(host: Graph, pattern: Graph, pin=None):
    """Return one induced embedding as a tuple (pattern vertex i -> host
    vertex), or None.  The pattern must be connected.  With ``pin`` given,
    only embeddings whose image contains host vertex ``pin`` count."""
    if pin is not None and not 0 <= pin < host.n:
        raise ValueError(f"pin must be a vertex of the host, got {pin}")
    return _find_rows(host.n, host.adj, pattern, pin)


def contains_induced(host: Graph, pattern: Graph) -> bool:
    """Return whether the host has an induced copy of the connected pattern."""
    return find_induced(host, pattern) is not None


@dataclass(frozen=True)
class Pattern:
    """A connected forbidden subgraph plus a display label."""

    graph: Graph
    label: str

    def __post_init__(self):
        if not is_connected(self.graph):
            raise ValueError(f"pattern {self.label!r} must be connected and nonempty")


@dataclass(frozen=True)
class PatternSet:
    """A nonempty set of pairwise non-isomorphic connected patterns."""

    patterns: tuple[Pattern, ...]

    def __post_init__(self):
        if not self.patterns:
            raise ValueError("pattern set must be nonempty")
        # pairwise, so members that differ in order, size or degrees are never canonicalised
        for a, b in combinations(self.patterns, 2):
            if are_isomorphic(a.graph, b.graph):
                raise ValueError("pattern set members must be pairwise non-isomorphic")

    @property
    def label(self) -> str:
        inner = ",".join(p.label for p in self.patterns)
        return "{%s}" % inner if len(self.patterns) > 1 else inner

    def check_order(self) -> list[Graph]:
        """Members ordered small-to-large, the cheap-reject order for scans."""
        return [p.graph for p in sorted(self.patterns, key=lambda p: (p.graph.n, p.graph.m, p.label))]

    def form_key(self) -> frozenset:
        return frozenset(canonical_form(p.graph) for p in self.patterns)


def pattern_set(*items) -> PatternSet:
    """Build a PatternSet from (graph, label) pairs or Patterns."""
    pats = []
    for item in items:
        if isinstance(item, Pattern):
            pats.append(item)
        else:
            graph, label = item
            pats.append(Pattern(graph, label))
    return PatternSet(tuple(pats))


def is_free(g: Graph, patterns) -> bool:
    """Return whether g has no induced copy of any listed pattern."""
    for p in _as_graphs(patterns):
        if contains_induced(g, p):
            return False
    return True


def _as_graphs(patterns) -> list[Graph]:
    if isinstance(patterns, PatternSet):
        return patterns.check_order()
    if isinstance(patterns, Pattern):
        return [patterns.graph]
    if isinstance(patterns, Graph):
        return [patterns]
    out = []
    for p in patterns:
        out.append(p.graph if isinstance(p, Pattern) else p)
    return out


def pattern_preceq(h1, h2) -> bool:
    """Return whether forbidding h1 is at least as restrictive as forbidding h2.

    True when every pattern of h2 has some pattern of h1 as an induced
    subgraph, so every h1-free graph is h2-free as well.
    """
    g1 = _as_graphs(h1)
    g2 = _as_graphs(h2)
    return all(any(contains_induced(y, x) for x in g1) for y in g2)


def pattern_equivalent(h1, h2) -> bool:
    return pattern_preceq(h1, h2) and pattern_preceq(h2, h1)


def pattern_strictly_preceq(h1, h2) -> bool:
    return pattern_preceq(h1, h2) and not pattern_preceq(h2, h1)


def maximal_common_induced_subgraphs(a, b, max_order: int) -> list[Graph]:
    """Return the maximal connected graphs induced in every listed graph.

    ``a`` and ``b`` are graphs or iterables of graphs; candidates run over
    connected induced subgraphs of the smallest member, up to ``max_order``
    vertices.  A common subgraph is kept when no strictly larger kept one
    contains it; results are sorted by (order, size, form).
    """
    hosts = _as_graphs(a) + _as_graphs(b)
    if not hosts:
        raise ValueError("need at least one graph per side")
    if max_order < 1:
        raise ValueError("max_order must be positive")
    base_at = min(range(len(hosts)), key=lambda i: (hosts[i].n, hosts[i].m))
    base = hosts[base_at]
    others = [h for i, h in enumerate(hosts) if i != base_at]
    found: dict[str, Graph] = {}
    for size in range(1, min(max_order, base.n) + 1):
        for sub in combinations(range(base.n), size):
            h = induced(base, sub)
            if not is_connected(h):
                continue
            form = canonical_form(h)
            if form in found:
                continue
            if all(contains_induced(x, h) for x in others):
                found[form] = h
    commons = sorted(found.values(), key=lambda h: (h.n, h.m, canonical_form(h)))
    keep = []
    for h in commons:
        dominated = any(
            other.n > h.n and contains_induced(other, h) for other in commons
        )
        if not dominated:
            keep.append(h)
    return keep


def longest_induced_path_order(g: Graph) -> int:
    """Return the vertex count of a longest induced path."""
    best = 1 if g.n else 0
    adj = g.adj

    def extend(last, mask, blocked, size):
        nonlocal best
        if size > best:
            best = size
        cand = adj[last] & ~mask & ~blocked
        nxt_blocked = blocked | adj[last]
        m = cand
        while m:
            b = m & -m
            m ^= b
            v = b.bit_length() - 1
            extend(v, mask | b, nxt_blocked, size + 1)

    for s in range(g.n):
        extend(s, 1 << s, 0, 1)
    return best
