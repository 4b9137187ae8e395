"""Induced-subgraph tests, canonical forms, and forbidden-pattern sets.

``canonical_form`` gives equal strings exactly for isomorphic graphs, which
backs both the enumerator's duplicate rejection and pattern-set bookkeeping.
``contains_induced`` is an exact backtracking search over injective maps that
preserve adjacency and non-adjacency; ``find_induced`` returns the map it finds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from types import MappingProxyType

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


def _refine(adj, cells, splitters=None):
    """Refine an ordered partition (list of cell masks) until equitable.

    Cells split by neighbor counts into active splitter cells; fragments are
    ordered by count so the outcome depends only on the isomorphism type.
    The queue starts with ``splitters``, popped from the end, or with every
    cell when none are given.

    A branch of the canonical search passes only ``W - {v}`` after
    individualising v in a cell W of an equitable partition, and gets the
    same partition as from every cell (McKay, J. Algorithms 26, 1998).  A
    cell X of an equitable partition is a no-op splitter for every
    refinement of it, since each current cell lies inside an old one and
    |N(y) & X| is constant there; so the old cells split nothing when
    popped.  Neither does ``{v}`` once ``W - {v}`` has been processed:
    counts to W and to ``W - {v}`` are then constant on every cell, and
    later cells only get smaller.  The full queue first pops the old cells
    that follow ``W - {v}``, all no-ops, so ``W - {v}`` is its first
    splitter that does anything, followed by the same fragments in the same
    order: the splits, and the result, are identical.
    """
    queue = list(cells if splitters is None else splitters)
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


def _find(orbit, x: int) -> int:
    """The root of x in a union-find list; the root is the least vertex of its orbit."""
    while orbit[x] != x:
        orbit[x] = x = orbit[orbit[x]]
    return x


def _join(orbit, x: int, y: int) -> None:
    """Merge the orbits of x and y, keeping the lesser root."""
    x, y = _find(orbit, x), _find(orbit, y)
    if x != y:
        orbit[max(x, y)] = min(x, y)


def _upper_key(adj, order) -> int:
    """The upper triangle of the graph relabelled so that label i is vertex
    ``order[i]``, packed column by column (column j holds its j bits) into
    one int."""
    key = 0
    for j in range(1, len(order)):
        row = adj[order[j]]
        for i in range(j):
            key = key << 1 | (row >> order[i] & 1)
    return key


def _canonical_rows(n: int, adj, cells=None):
    """Return (perm, encoding, automorphisms) for the minimal relabeling.

    ``perm[i]`` is the original vertex taking canonical label i.  The
    encoding is the ``_upper_key`` of the relabeled graph, so equal
    encodings at equal n mean isomorphic graphs.  ``cells``, when given,
    must be ``_refine(adj, [(1 << n) - 1])``, so a caller that
    already refined the graph does not refine it again.

    The automorphism list is a generating set of the automorphism group
    (not the whole group); asymmetric graphs come back with an empty list.
    The search skips a vertex when it lies in the orbit of an explored
    sibling under the group generated by the automorphisms found so far that
    fix the prefix pointwise.  A skipped subtree is then an automorphic image
    of an explored one, so it holds no leaf that is new or earlier, and the
    first least leaf, hence ``perm`` and the encoding, do not depend on the
    pruning (McKay and Piperno, J. Symbolic Comput. 60, 2014).

    Twin lemma.  Call u and v twins when N(u) - v = N(v) - u.  Then the
    transposition (u v) is an automorphism: it fixes every edge missing
    both, keeps the pair uv, and takes an edge ux (x != v) to vx, an edge
    since x lies in N(u) - v = N(v) - u, and back.  The first refinement
    depends only on the isomorphism type, so every automorphism maps each
    of its cells onto itself, and twins share a cell.  So before the search
    each member of a cell is swapped with its next twin in that cell (a
    twin class {a, b, c} gives (a b) and (b c)), and these transpositions
    seed the automorphism list.  The pruning above holds for any true
    automorphisms, so the seeds leave ``perm`` and the encoding unchanged.
    The returned list still generates the whole group: each skipped
    subtree is an image, under the list's group H, of an explored one, so
    by induction every least leaf of the unpruned tree is an H-image of a
    visited least leaf, and each visited one is the kept leaf or is mapped
    onto it by a listed automorphism.  H is then transitive on the least
    leaves, on which the automorphism group acts regularly (two leaves with
    one encoding differ by exactly one automorphism), so H is the whole
    group.
    """
    if n == 0:
        return (), 0, []
    if cells is None:
        cells = _refine(adj, [(1 << n) - 1])
    best_enc = None
    best_perm = None
    autos: list[tuple[int, ...]] = []
    for cell in cells:
        if cell & (cell - 1):
            members = list(_bits(cell))
            for i, u in enumerate(members):
                for v in members[i + 1:]:
                    if adj[u] & ~(1 << v) == adj[v] & ~(1 << u):
                        swap = list(range(n))
                        swap[u], swap[v] = v, u
                        autos.append(tuple(swap))
                        break

    def leaf(cells_):
        nonlocal best_enc, best_perm
        perm = tuple(c.bit_length() - 1 for c in cells_)
        enc = _upper_key(adj, perm)
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
        # union-find over the cell (each generator fixing the prefix maps the
        # cell onto itself); each automorphism is read once at this node
        orbit = list(range(n))
        read = 0
        explored = []
        m = cell
        while m:
            b = m & -m
            m ^= b
            v = b.bit_length() - 1
            while read < len(autos):
                a = autos[read]
                read += 1
                if all(a[p] == p for p in prefix):
                    for u in _bits(cell):
                        _join(orbit, u, a[u])
            root = _find(orbit, v)
            if any(_find(orbit, w) == root for w in explored):
                continue
            rest = cell ^ b
            branched = cells_[:idx] + [b, rest] + cells_[idx + 1:]
            search(_refine(adj, branched, [rest]), prefix + (v,))
            explored.append(v)

    search(cells, ())
    return best_perm, best_enc, autos


def canonical_form(g: Graph) -> str:
    """Return a canonical graph6 string: equal iff the graphs are isomorphic."""
    perm, _, _ = _canonical_rows(g.n, g.adj)
    return to_graph6(relabel(g, perm))


def are_isomorphic(a: Graph, b: Graph) -> bool:
    if a.n != b.n or a.m != b.m or a.degree_sequence() != b.degree_sequence():
        return False
    return _canonical_rows(a.n, a.adj)[1] == _canonical_rows(b.n, b.adj)[1]


# ---------------------------------------------------------------------------
# induced-subgraph search

@lru_cache(maxsize=256)
def _match_plan(pattern: Graph):
    """The search plan of a pattern.

    One step per pattern vertex, in search order, each ``(vertex, neighbour
    steps, non-neighbour steps, degree)``: the earlier steps the vertex must
    be adjacent and non-adjacent to, and its degree, a lower bound on its
    image's.  The search starts at a vertex of top degree and places each
    next vertex beside one already placed, preferring the most placed
    neighbours, then the higher degree.
    """
    padj = pattern.adj
    order = [max(range(pattern.n), key=lambda v: padj[v].bit_count())]
    placed = 1 << order[0]
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


def _orbit_roots(pattern: Graph) -> list[int]:
    """The least vertex of each orbit of the pattern's automorphism group."""
    pn = pattern.n
    orbit = list(range(pn))
    for a in _canonical_rows(pn, pattern.adj)[2]:
        for v in range(pn):
            _join(orbit, v, a[v])
    return [v for v in range(pn) if orbit[v] == v]


@lru_cache(maxsize=256)
def _trace_table(pattern: Graph) -> MappingProxyType:
    """The labelled copies of pattern - x, over every vertex x, and the
    traces that complete each one to the pattern.

    Maps the key (``_upper_key``) of each labelling of pattern - x to the
    masks T of its k - 1 labels such that adding one vertex adjacent to
    exactly T gives a graph isomorphic to the pattern.  One x per orbit
    suffices, since symmetric choices of x give the same copies.  With the
    trace lemma in ``enumeration`` the table finds the copies of the pattern
    that use a new vertex.
    """
    padj = pattern.adj
    table: dict[int, set[int]] = {}
    for x in _orbit_roots(pattern):
        rest = [v for v in range(pattern.n) if v != x]
        for perm in permutations(rest):
            trace = 0
            for i, v in enumerate(perm):
                trace |= (padj[x] >> v & 1) << i
            table.setdefault(_upper_key(padj, perm), set()).add(trace)
    return MappingProxyType({key: frozenset(traces) for key, traces in table.items()})


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


def find_induced(host: Graph, pattern: Graph):
    """Return one induced embedding as a tuple (pattern vertex i -> host
    vertex), or None.  The pattern must be connected."""
    pn = pattern.n
    if pn == 0:
        return ()
    adj = host.adj
    degs = [r.bit_count() for r in adj]
    if pn > host.n or 2 * pattern.m > sum(degs):
        return None
    steps = _match_plan(pattern)
    image = [0] * pn
    # the vertices past the host's count as used, so candidates stay among the host's
    if not _extend(adj, degs, steps, image, 0, ~((1 << host.n) - 1)):
        return None
    out = [0] * pn
    for k, step in enumerate(steps):
        out[step[0]] = image[k]
    return tuple(out)


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
    commons = [h for _, h in sorted(found.items(), key=lambda kv: (kv[1].n, kv[1].m, kv[0]))]
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
