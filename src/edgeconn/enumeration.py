"""Exhaustive connected-graph generation and graph6 streams.

One representative per isomorphism class, produced by vertex augmentation:
every connected n-vertex graph arises from a connected (n-1)-vertex parent
by attaching a new vertex, and a child is kept only when deleting its
canonically chosen removable vertex recovers this very parent.  Each class
then survives exactly one parent, and a per-parent form set removes the
remaining sibling duplicates, so no global seen-set is needed.  Neighbourhood
masks in one orbit of the parent's automorphism group give isomorphic
children, so only the least mask of each orbit is tried.

Degree lemma.  The canonical search's first refinement splits the vertex set
by degree, ascending, and every later step only splits cells in place, so the
canonical order lists vertices by non-decreasing degree.  The removable vertex
it picks last therefore has the largest degree among the non-cut vertices.  A
child is accepted only when that vertex is the new one or its deletion gives a
graph isomorphic to the parent, and both force its degree to equal the new
vertex's.  So a candidate in which some non-cut vertex outranks the new vertex
in degree is rejected before it is canonically labelled, and only vertices of
degree at least the new vertex's need the non-cut test at all (the new vertex
itself is never a cut vertex: deleting it leaves the connected parent).  The
accepted children, and their order, are exactly those of the full test.

Cut-table lemma.  A parent vertex v is a non-cut vertex of the child exactly
when the new vertex is adjacent to every component of parent - v, since in
child - v the new vertex joins exactly the components it touches.  When the parent has one vertex, parent - v has no
component and v is non-cut vacuously.  So the components of parent - v are
found once per parent, and each candidate's non-cut test is one mask test per
component, not one search per vertex.

Cell lemma.  Since the search only splits cells in place, the canonical order
also keeps the order of the cells of the child's first refinement.  So the
chosen vertex lies in the last of those cells that meets the removable set
(the new vertex included).  If the new vertex is not in that cell, the chosen
vertex is another vertex u of it, and acceptance needs child - u to be
isomorphic to the parent.  The cell is equitable, so every u in it leaves the
same degree multiset, and a candidate whose child - u fails the parent's
degree sequence is rejected before the canonical search.  When the new vertex
is in that cell the same equitability makes the degree test always pass.

Singleton lemma.  When that last cell holds exactly one removable vertex, the
cell lemma names the chosen vertex, and the child is not canonically labelled
to find it: a child whose one vertex there is the new vertex is accepted, and
one whose vertex is another u is accepted when child - u is isomorphic to the
parent.  The sibling filter stays exact.  In a candidate that passes the
degree lemma the removable set is the set of non-cut vertices of largest
degree, so an isomorphism between two children maps it onto the other's, and
the ordered first refinement onto the other's.  The size of that cell's
removable part is therefore an invariant, and a singleton child never
duplicates a child whose part has two or more vertices; those keep their
encodings and the form-set test.  Two children whose singleton is the new
vertex never collide either: an isomorphism between them maps the one vertex
onto the other, so it fixes the new vertex and restricts to a parent
automorphism taking one mask onto the other, and only one mask per orbit is
tried.  So singleton children are labelled only when some sibling was
accepted through another vertex u, and then all at once, after the loop, and
filtered in mask order like the rest.

Only-new case.  A candidate whose removable set is the new vertex alone is
accepted unlabelled without its first refinement.  The last cell that meets
that set is the cell holding the new vertex, and its removable part is the
new vertex alone, so the singleton lemma accepts the child through the new
vertex whatever the refinement gives, and the cell lemma's degree test is
not made (it always passes when the new vertex is in the cell).  The child
keeps its None label, so the lazy labelling and the sibling filter treat it
as before.

Trace lemma.  Let a parent be free of a pattern p on k vertices.  A child
whose new vertex z sees ``mask`` contains p exactly when, for some set S of
k - 1 parent vertices and some vertex x of p, parent[S] is isomorphic to
p - x by a map taking N_p(x) onto ``mask & S``.  Proof: every copy of p in
the child uses z, since the parent is free of it; with x the vertex mapped
to z and S the image of the rest, the copy restricts to such an isomorphism,
and conversely such an isomorphism extended by x -> z is an induced copy.  So
the test depends only on the parent and the mask: the sets S and their
allowed traces ``mask & S`` are listed once per parent, from a table of the
labelled copies of each p - x (``iso._trace_table``), and each candidate
costs set lookups instead of an induced-subgraph search of the child.

Floor lemma.  Let ``floor`` be the largest degree of a non-cut vertex of the
parent.  A candidate whose mask has d vertices, with 2 <= d < floor, is
rejected by the degree lemma.  Proof: take a non-cut parent vertex v of
degree floor.  The mask has at least two vertices, so it meets parent - v,
which is connected; in child - v the new vertex joins that connected graph,
so v is a non-cut vertex of the child too.  Its child degree is at least
floor > d, the new vertex's degree.  A mask of one vertex is exempt (it may
be v itself, and then v is a cut vertex of the child), and goes through the
normal test.  Equal case: a mask of exactly d = floor >= 2 vertices that
holds a non-cut parent vertex v of degree floor is rejected as well.  The
mask has a vertex other than v, so as before v stays a non-cut vertex of
the child, and its child degree is floor + 1 > d.  Automorphisms preserve a
mask's size, and a vertex's degree and non-cut status, so the masks the
lemma rejects fill whole orbits and are dropped before orbits are formed
(``_orbit_leaders``, given the mask ``top`` of those vertices v): they get
no child rows and no ``_removable`` call.

Union lemma.  A walk over several pattern sets at once (``walk_sets``) keeps
every graph free of at least one of them, with one live bit per set it is
free of.  A union of hereditary classes is hereditary, and a child's
canonical parent is an induced subgraph of it, so the parent is free of every
set the child is free of: it is in the union, it carries each of the child's
live bits, and so every class of the union is reached once, from its
canonical parent.  A child's live bits are its parent's, less those of the
sets whose pattern the trace lemma finds in it, so bit i is exactly freeness
of set i.  Isomorphic siblings share their live bits, so the sibling filter
keeps, of each class, the child it keeps in the walk of any one set that
class is free of, and each set's graphs come out in that walk's order.

Drop lemma.  Dropping set j between two graphs leaves every other set's
stream unchanged: the union lemma holds for any subset of the sets, since
their classes' union is hereditary too, and clearing bit j everywhere keeps
every other bit, so each remaining class is reached from its parent as before.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator
from functools import partial
from itertools import combinations
from multiprocessing import get_context

from .graphs import Graph, GraphError, Graph6Error, component_mask, from_graph6, to_graph6
from .iso import _as_graphs, _canonical_rows, _refine, _trace_table, _upper_key, is_free

MAX_ENUM_ORDER = 9

_levels: dict[int, tuple[Graph, ...]] = {1: (Graph(1, (0,)),)}


def _non_cut_vertices(n: int, adj, candidates) -> list[int]:
    """The candidates whose deletion keeps the (connected) graph connected.

    The one vertex of a 1-vertex graph counts as non-cut.
    """
    out = []
    full = (1 << n) - 1
    for v in candidates:
        rest = full ^ (1 << v)
        if not rest or component_mask(adj, 0 if v else 1, rest) == rest:  # search from the lowest kept vertex
            out.append(v)
    return out


def _cut_table(n: int, adj) -> list[tuple[int, ...]]:
    """For each vertex v of a connected graph, the component masks of graph - v."""
    full = (1 << n) - 1
    non_cut = set(_non_cut_vertices(n, adj, range(n)))
    table = []
    for v in range(n):
        rest = full ^ (1 << v)
        if v in non_cut:
            table.append((rest,) if rest else ())
            continue
        comps = []
        while rest:
            comp = component_mask(adj, (rest & -rest).bit_length() - 1, rest)
            comps.append(comp)
            rest ^= comp
        table.append(tuple(comps))
    return table


def _orbit_leaders(n: int, autos, floor: int = 0, top: int = 0) -> list[int]:
    """The nonzero vertex masks that are least in their orbit under the group
    the automorphisms generate, ascending.

    With ``floor`` >= 2 only masks of one vertex or of at least ``floor``
    vertices are listed, less those of exactly ``floor`` vertices that meet
    ``top`` (the floor lemma and its equal case).  Automorphisms keep a
    mask's size, and must map ``top`` onto itself, so this drops whole
    orbits and leaves the other leaders as they are.  The defaults list
    them all.

    Each generator's image of a mask is read from two half tables, one for
    the low ``n // 2`` bits and one for the rest, so no table spans all
    2^n masks.
    """
    size = 1 << n
    masks = range(1, size)
    if floor >= 2:
        masks = [m for m in masks
                 if not m & (m - 1) or (c := m.bit_count()) > floor or c == floor and not m & top]
    if not autos:
        return list(masks)
    h = n // 2
    low = (1 << h) - 1
    halves = []
    for a in autos:
        lo, hi = [0] * (1 << h), [0] * (1 << (n - h))
        for table, shift in ((lo, 0), (hi, h)):
            for m in range(1, len(table)):
                b = m & -m
                table[m] = table[m ^ b] | 1 << a[b.bit_length() - 1 + shift]
        halves.append((lo, hi))
    seen = bytearray(size)
    leaders = []
    for mask in masks:
        if seen[mask]:
            continue
        leaders.append(mask)
        seen[mask] = 1
        todo = [mask]
        while todo:
            m = todo.pop()
            for lo, hi in halves:
                x = lo[m & low] | hi[m >> h]
                if not seen[x]:
                    seen[x] = 1
                    todo.append(x)
    return leaders


def _removable(pn: int, degs, mask: int, cut_table) -> int:
    """The removable vertices of the child whose new vertex pn sees ``mask``,
    as a mask, pn included.

    ``degs`` are the parent's degrees; a parent vertex gains one in the
    child when ``mask`` holds it, so no child rows are needed.  By the
    degree lemma only vertices of degree at least the new vertex's count,
    and 0 comes back when one of them outranks it; the cut table decides
    which are non-cut (module docstring).
    """
    d = mask.bit_count()
    removable = 1 << pn
    for v in range(pn):
        dv = degs[v] + (mask >> v & 1)
        if dv >= d and all(mask & comp for comp in cut_table[v]):
            if dv > d:
                return 0
            removable |= 1 << v
    return removable


def _last_cell(cells, want: int) -> int:
    """The last cell of an ordered partition that meets the mask ``want``."""
    return next(cell for cell in reversed(cells) if cell & want)


def _delete_rows(n: int, adj, v: int):
    """Adjacency rows of the graph minus vertex v, labels compacted."""
    low = (1 << v) - 1
    rows = []
    for u in range(n):
        if u == v:
            continue
        r = adj[u]
        rows.append((r & low) | ((r >> (v + 1)) << v))
    return rows


def _forbidden_traces(pn: int, adj, patterns) -> list[tuple[int, frozenset]]:
    """The (S, traces) pairs of the trace lemma for a parent free of the patterns.

    A child whose new vertex sees ``mask`` holds a pattern exactly when
    ``mask & S`` is one of the traces listed for some vertex mask S of the
    parent (module docstring).  Each S of k - 1 vertices is keyed in
    ascending label order, as the pattern's table is.  A pattern with more
    than pn + 1 vertices fits in no child and is skipped.
    """
    found: dict[int, set[int]] = {}
    for p in patterns:
        k = p.n - 1
        if k > pn:
            continue
        table = _trace_table(p)
        for sub in combinations(range(pn), k):
            local = table.get(_upper_key(adj, sub))
            if local is None:
                continue
            s = 0
            for v in sub:
                s |= 1 << v
            traces = found.setdefault(s, set())
            for t in local:
                g = 0
                for i, v in enumerate(sub):
                    g |= (t >> i & 1) << v
                traces.add(g)
    return [(s, frozenset(traces)) for s, traces in found.items()]


def _live_traces(pn: int, adj, sets, live: int) -> list[tuple[int, list]]:
    """The trace pairs of a parent free of the sets whose bits ``live`` holds,
    one list per distinct pattern of those sets, with the bits to clear when
    a child holds it.

    Patterns held by the same live sets share one list, so a walk of one set
    builds one list, as ``_forbidden_traces`` gives it; a pattern too large
    for any child gives no list.
    """
    holders: dict[Graph, int] = {}
    for i, patterns in enumerate(sets):
        if live >> i & 1:
            for p in patterns:
                holders[p] = holders.get(p, 0) | 1 << i
    groups: dict[int, list] = {}
    for p, bits in holders.items():
        groups.setdefault(bits, []).append(p)
    return [(bits, traces) for bits, ps in groups.items()
            if (traces := _forbidden_traces(pn, adj, ps))]


def _expand(parent: Graph, sets=(), label=None,
            live: int = 0) -> list[tuple[Graph, tuple | None, int]]:
    """Return the accepted one-vertex extensions of one parent, in order, each
    with its label and live bits.

    Children of distinct parents never collide, so concatenating these lists
    over a whole level enumerates the next level exactly once.  With ``sets``
    (a sequence of pattern lists) the parent must be free of each set whose
    bit ``live`` holds, and a child keeps the bits of the sets it is free of
    and is returned only when it keeps one (the union lemma): by the trace
    lemma a set's bit is cleared when ``mask & S`` is a listed trace of some
    parent set S of one of its patterns, right after the degree lemma and
    before the first refinement.  Both tests read only the parent and the
    mask, so a candidate's child rows are built only once it passes them.
    Masks that the floor lemma rejects are never tried.  With no sets every
    child is returned, with live bits 0, and no trace is built.

    A child's label is ``_canonical_rows(n, child.adj)[1:]``, the encoding and
    automorphism generators, with the generators as a tuple, when the child
    was canonically labelled here, and None when the singleton lemma accepted
    it unlabelled: through a last removable cell of one vertex, or, with no
    refinement at all, because the new vertex is its only removable vertex
    (the only-new case).  Unlabelled children are labelled after the loop
    only when some sibling was accepted through another vertex.

    ``label``, when given, is the parent's label, and saves labelling the
    parent again: a child's rows are the rows it is expanded from, so the
    label is the one a fresh call would compute.
    """
    pn = parent.n
    n = pn + 1
    new = 1 << pn
    padj = parent.adj
    parent_enc, parent_autos = _canonical_rows(pn, padj)[1:] if label is None else label
    degs = [r.bit_count() for r in padj]
    parent_degs = sorted(degs)
    cut_table = _cut_table(pn, padj)
    non_cut = [v for v in range(pn) if len(cut_table[v]) < 2]
    floor = max(degs[v] for v in non_cut)
    top = sum(1 << v for v in non_cut if degs[v] == floor)
    traced = _live_traces(pn, padj, sets, live) if sets else ()
    accepted = []  # (rows, label or None when not yet labelled, live bits), in mask order
    relabel = False  # some child was accepted through a singleton cell not holding the new vertex
    for mask in _orbit_leaders(pn, parent_autos, floor, top):
        removable = _removable(pn, degs, mask, cut_table)
        if not removable:
            continue
        child_live = live
        if traced:
            for bits, forbidden in traced:
                if child_live & bits and any(mask & s in traces for s, traces in forbidden):
                    child_live &= ~bits
            if not child_live:
                continue
        rows = [padj[v] | new if mask >> v & 1 else padj[v] for v in range(pn)]
        rows.append(mask)
        if removable == new:
            # only-new case: the singleton lemma accepts it whatever the refinement gives
            accepted.append((rows, None, child_live))
            continue
        # cell lemma: vstar lies in the last cell of the first refinement that meets removable
        cells = _refine(rows, [(1 << n) - 1])
        last = _last_cell(cells, removable)
        if not last & new:
            u = (last & -last).bit_length() - 1  # any vertex of an equitable cell gives the same degrees
            if sorted(r.bit_count() for r in _delete_rows(n, rows, u)) != parent_degs:
                continue
        single = last & removable
        if single & (single - 1):
            perm, enc, autos = _canonical_rows(n, rows, cells)
            child_label = enc, tuple(autos)
            vstar = next(v for v in reversed(perm) if removable >> v & 1)
        else:
            # singleton lemma: the cell names vstar, and the child needs no labelling yet
            child_label = None
            vstar = single.bit_length() - 1
        if vstar != pn:
            if _canonical_rows(pn, _delete_rows(n, rows, vstar))[1] != parent_enc:
                continue
            relabel |= child_label is None
        accepted.append((rows, child_label, child_live))
    if relabel:
        for i, (rows, lab, bits) in enumerate(accepted):
            if lab is None:
                _, enc, autos = _canonical_rows(n, rows)
                accepted[i] = rows, (enc, tuple(autos)), bits
    out = []
    seen_encs = set()
    for rows, lab, bits in accepted:
        enc = None if lab is None else lab[0]
        if enc is None or enc not in seen_encs:
            seen_encs.add(enc)
            out.append((Graph(n, rows), lab, bits))
    return out


def expand_children(parent: Graph) -> list[Graph]:
    """Return the accepted one-vertex extensions of one parent, in order.

    The entry for full levels, kept apart from the pattern walk's calls to
    ``_expand`` so a caller can wrap it on its own.  Full levels hold graphs
    only, so the children's labels are dropped.
    """
    return [g for g, _, _ in _expand(parent)]


def _expand_all(parents, sets) -> list:
    """The children of each parent in turn, concatenated.

    On a full level (``sets`` None) they are graphs; on a walk of pattern
    sets they are (graph, label, live bits) triples, as ``_expand`` returns
    them.
    """
    out: list = []
    if sets is None:
        for parent in parents:
            # full levels go through expand_children, the entry a caller can wrap alone
            out.extend(expand_children(parent))
    else:
        for parent, label, live in parents:
            out.extend(_expand(parent, sets, label, live))
    return out


def _pool_size(workers: int) -> int:
    """A worker count checked (at least 1) and capped at the processor count."""
    if workers < 1:
        raise GraphError(f"workers must be at least 1, got {workers}")
    return min(workers, os.cpu_count() or 1)


def _next_level(parents, sets, workers: int) -> list:
    """Expand every parent and concatenate the children, in parent order.

    The parents and children are graphs on a full level (``sets`` None)
    and (graph, label, live bits) triples on a walk of pattern sets
    (``_expand_all``).

    With ``workers`` above 1 and at least 64 parents, ordered slices of the
    parent list go to a pool of that many processes, so the merged result is
    byte-identical to the sequential one; worker count only changes wall
    time.
    """
    if workers > 1 and len(parents) >= 64:
        step = max(1, len(parents) // (workers * 8))
        slices = [parents[i:i + step] for i in range(0, len(parents), step)]
        with get_context("fork").Pool(workers) as pool:
            parts = pool.map(partial(_expand_all, sets=sets), slices)
        return [child for part in parts for child in part]
    return _expand_all(parents, sets)


def connected_level(n: int, workers: int = 1) -> tuple[Graph, ...]:
    """Return (and cache) all connected graphs on n vertices, one per class.

    An uncached level is built from the one below by ``_next_level``.  A
    worker count below 1 is an error, and one above ``os.cpu_count()`` is
    lowered to it, so no input starts more processes than the machine has
    processors.
    """
    if not 1 <= n <= MAX_ENUM_ORDER:
        raise GraphError(f"enumeration supports 1 <= n <= {MAX_ENUM_ORDER}, got {n}")
    workers = _pool_size(workers)
    if n not in _levels:
        _levels[n] = tuple(_next_level(connected_level(n - 1, workers), None, workers))
    return _levels[n]


def walk(n_max: int, patterns=None, workers: int = 1) -> Iterator[Graph]:
    """Yield the connected graphs of orders 2..n_max, level by level.

    With ``patterns`` given, only the graphs with no induced copy of any
    pattern are kept: the walk is ``walk_sets`` of that one set.  Every
    exhaustive scan goes through this walk or ``walk_sets``.  The order
    bound and the worker count are checked here, when the walk is made, not
    on its first step.
    """
    if patterns is None:
        workers = _walk_bounds(n_max, workers)
        return (g for n in range(2, n_max + 1) for g in connected_level(n, workers))
    return (g for g, _ in walk_sets(n_max, [patterns], workers))


def _walk_bounds(n_max: int, workers: int) -> int:
    """Check a walk's order bound, and return its checked worker count."""
    if not 2 <= n_max <= MAX_ENUM_ORDER:
        raise GraphError(f"scans support 2 <= n_max <= {MAX_ENUM_ORDER}, got {n_max}")
    return _pool_size(workers)


def walk_sets(n_max: int, sets, workers: int = 1) -> Iterator[tuple[Graph, int]]:
    """Yield (graph, live) for the connected graphs of orders 2..n_max that
    are free of at least one of the pattern sets, level by level.

    ``sets`` is a nonempty sequence of pattern sets (each a PatternSet, a
    pattern, a graph or a sequence of them), and bit i of ``live`` is set
    when the graph has no induced copy of any pattern of ``sets[i]``.  The
    graphs whose bit i is set are those of ``walk(n_max, sets[i])``, in the
    same order (the union lemma), so one walk serves every set.  Freeness is
    hereditary, so the walk expands only the graphs of the union, holds one
    level of it at a time and never builds or caches a full level.  A level
    holds each graph with its label (``_expand``), so a child labelled when
    it was accepted is expanded without being labelled again.  The order
    bound, the worker count and the sets are checked when the walk is made,
    not on its first step.

    ``send(mask)`` after a graph returns None and drops the sets of the bits
    in ``mask`` (the drop lemma): a graph left with no bit is neither yielded
    nor expanded, and the walk ends when none is left.
    """
    workers = _walk_bounds(n_max, workers)
    sets = [_as_graphs(patterns) for patterns in sets]
    if not sets:
        raise GraphError("walk_sets needs at least one pattern set")
    root = connected_level(1)[0]
    live = sum(1 << i for i, patterns in enumerate(sets) if is_free(root, patterns))

    def levels():
        level = [(root, None, live)] if live else []
        for _ in range(2, n_max + 1):
            level = _next_level(level, sets, workers)
            gone = 0
            for g, _, bits in level:
                if gone and not (bits := bits & ~gone):
                    continue
                drop = yield g, bits
                if drop:
                    gone |= drop
                    yield  # what ``send`` returns; the next graph goes to the next ``next``
            if gone and not (level := [(g, lab, bits & ~gone) for g, lab, bits in level
                                       if bits & ~gone]):
                return

    return levels()


def read_graph6_stream(path) -> Iterator[Graph]:
    """Yield graphs from a graph6 file; parse errors carry the line number.

    A leading '>>graph6<<' marker is tolerated; blank lines are skipped.
    A non-ASCII byte is reported like any other byte outside the graph6 range.
    """
    return (g for _, g in _numbered_graph6(path))


def _numbered_graph6(path) -> Iterator[tuple[int, Graph]]:
    """Yield (line number, graph) pairs; see ``read_graph6_stream``."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if lineno == 1 and line.startswith(">>graph6<<"):
                line = line[len(">>graph6<<"):]
            if not line:
                continue
            try:
                g = from_graph6(line)
            except Graph6Error as exc:
                raise Graph6Error(f"{os.fspath(path)}:{lineno}: {exc}") from None
            yield lineno, g


def write_graph6_stream(path, graphs: Iterable[Graph]) -> int:
    """Write one graph6 record per line; returns the record count."""
    count = 0
    with open(path, "w", encoding="ascii") as fh:
        for g in graphs:
            fh.write(to_graph6(g) + "\n")
            count += 1
    return count
