"""Exhaustive connected-graph generation and graph6 streams.

One representative per isomorphism class, produced by vertex augmentation:
every connected n-vertex graph arises from a connected (n-1)-vertex parent
by attaching a new vertex, and a child is kept only when deleting its
canonically chosen removable vertex recovers this very parent.  Each class
then survives exactly one parent, and a per-parent form set removes the
remaining sibling duplicates, so no global seen-set is needed.

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
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator
from multiprocessing import get_context

from .graphs import Graph, GraphError, Graph6Error, component_mask, from_graph6, to_graph6
from .iso import _as_graphs, _canonical_rows, _find_rows, is_free

MAX_ENUM_ORDER = 9

_levels: dict[int, tuple[Graph, ...]] = {1: (Graph(1, (0,)),)}


def _non_cut_vertices(n: int, adj, candidates) -> list[int]:
    """The candidates whose deletion keeps the (connected) graph connected."""
    out = []
    full = (1 << n) - 1
    for v in candidates:
        rest = full ^ (1 << v)
        if component_mask(adj, 0 if v else 1, rest) == rest:  # search from the lowest kept vertex
            out.append(v)
    return out


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


def _expand(parent: Graph, patterns) -> list[Graph]:
    """Return the accepted one-vertex extensions of one parent, in order.

    Children of distinct parents never collide, so concatenating these lists
    over a whole level enumerates the next level exactly once.  With
    ``patterns`` (graphs; smallest first rejects soonest) the parent must be
    free of them, and only the free children are returned: any copy of a
    pattern in a child then uses the new vertex, so the search is pinned
    there, after the degree lemma and before canonical labelling.
    """
    pn = parent.n
    n = pn + 1
    padj = parent.adj
    _, parent_enc, parent_autos = _canonical_rows(pn, padj)
    parent_degs = sorted(r.bit_count() for r in padj)
    out = []
    seen_encs = set()
    handled_masks = set()
    for mask in range(1, 1 << pn):
        if parent_autos:
            if mask in handled_masks:
                continue
            for a in parent_autos:
                img = 0
                m = mask
                while m:
                    b = m & -m
                    m ^= b
                    img |= 1 << a[b.bit_length() - 1]
                if img != mask:
                    handled_masks.add(img)
        rows = [padj[v] | (1 << pn) if mask >> v & 1 else padj[v] for v in range(pn)]
        rows.append(mask)
        # degree lemma (module docstring): no non-cut vertex may outrank the new one
        d = mask.bit_count()
        removable = _non_cut_vertices(n, rows, [v for v in range(pn) if rows[v].bit_count() >= d])
        if any(rows[v].bit_count() > d for v in removable):
            continue
        if any(_find_rows(n, rows, p, pn) is not None for p in patterns):
            continue
        perm, enc, _ = _canonical_rows(n, rows)
        removable.append(pn)
        vstar = max(removable, key=perm.index)
        if vstar != pn:
            reduced = _delete_rows(n, rows, vstar)
            if sorted(r.bit_count() for r in reduced) != parent_degs:
                continue
            if _canonical_rows(pn, reduced)[1] != parent_enc:
                continue
        if enc not in seen_encs:
            seen_encs.add(enc)
            out.append(Graph(n, rows))
    return out


def expand_children(parent: Graph) -> list[Graph]:
    """Return the accepted one-vertex extensions of one parent, in order.

    The entry for full levels, kept apart from the pattern walk's calls to
    ``_expand`` so a caller can wrap it on its own.
    """
    return _expand(parent, ())


def _expand_chunk(job) -> list[str]:
    lines, pattern_lines = job
    patterns = [from_graph6(s) for s in pattern_lines]
    return [to_graph6(child) for line in lines for child in _expand(from_graph6(line), patterns)]


def _pool_size(workers: int) -> int:
    """A worker count checked (at least 1) and capped at the processor count."""
    if workers < 1:
        raise GraphError(f"workers must be at least 1, got {workers}")
    return min(workers, os.cpu_count() or 1)


def _next_level(parents, patterns, workers: int) -> list[Graph]:
    """Expand every parent and concatenate the children, in parent order.

    With ``workers`` above 1 and at least 64 parents, ordered chunks of the
    parent list go to a pool of that many processes, so the merged result is
    byte-identical to the sequential one; worker count only changes wall
    time.  Graphs travel as graph6 strings, since a Graph does not pickle.
    """
    if workers > 1 and len(parents) >= 64:
        lines = [to_graph6(p) for p in parents]
        pattern_lines = tuple(to_graph6(p) for p in patterns)
        step = max(1, len(lines) // (workers * 8))
        jobs = [(lines[i:i + step], pattern_lines) for i in range(0, len(lines), step)]
        with get_context("fork").Pool(workers) as pool:
            parts = pool.map(_expand_chunk, jobs)
        return [from_graph6(s) for part in parts for s in part]
    level: list[Graph] = []
    for parent in parents:
        # full levels go through expand_children, the entry a caller can wrap alone
        level.extend(_expand(parent, patterns) if patterns else expand_children(parent))
    return level


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
        _levels[n] = tuple(_next_level(connected_level(n - 1, workers), (), workers))
    return _levels[n]


def walk(n_max: int, patterns=None, workers: int = 1) -> Iterator[Graph]:
    """Yield the connected graphs of orders 2..n_max, level by level.

    With ``patterns`` given, only the graphs with no induced copy of any
    pattern are kept.  Freeness is hereditary and a child's parent is an
    induced subgraph of it, so such a walk expands only the free graphs of
    each order, holds one free level at a time and never builds or caches a
    full level.  Every exhaustive scan goes through this one walk.  The
    order bound and the worker count are checked here, when the walk is
    made, not on its first step.
    """
    if not 2 <= n_max <= MAX_ENUM_ORDER:
        raise GraphError(f"scans support 2 <= n_max <= {MAX_ENUM_ORDER}, got {n_max}")
    workers = _pool_size(workers)
    if patterns is None:
        return (g for n in range(2, n_max + 1) for g in connected_level(n, workers))
    return _free_walk(n_max, _as_graphs(patterns), workers)


def _free_walk(n_max: int, patterns, workers: int) -> Iterator[Graph]:
    level = [g for g in connected_level(1) if is_free(g, patterns)]
    for _ in range(2, n_max + 1):
        level = _next_level(level, patterns, workers)
        yield from level


def read_graph6_stream(path) -> Iterator[Graph]:
    """Yield graphs from a graph6 file; parse errors carry the line number.

    A leading '>>graph6<<' marker is tolerated; blank lines are skipped.
    A non-ASCII byte is reported like any other byte outside the graph6 range.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if lineno == 1 and line.startswith(">>graph6<<"):
                line = line[len(">>graph6<<"):]
            if not line:
                continue
            try:
                yield from_graph6(line)
            except Graph6Error as exc:
                raise Graph6Error(f"{os.fspath(path)}:{lineno}: {exc}") from None


def write_graph6_stream(path, graphs: Iterable[Graph]) -> int:
    """Write one graph6 record per line; returns the record count."""
    count = 0
    with open(path, "w", encoding="ascii") as fh:
        for g in graphs:
            fh.write(to_graph6(g) + "\n")
            count += 1
    return count
