"""Named small graphs, witness families, and the pattern vocabulary.

Constructors fix one documented vertex numbering each, so tests and stream
tools see stable graph6 strings.  The parameterized families generalize the
bridged two-block shapes that keep edge connectivity 1 while minimum degree
stays higher; each member carries a certificate of its structural facts
(edge connectivity, minimum degree, the patterns it avoids or contains), and
construction aborts if any certified fact fails.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import GRAPH6_MAX_ORDER, Graph, from_edges, from_graph6
from .invariants import (
    clique_number,
    edge_connectivity,
    is_chordal,
    min_degree,
)
from .iso import (
    Pattern,
    PatternSet,
    canonical_form,
    contains_induced,
    is_free,
    longest_induced_path_order,
    pattern_set,
)


# ---------------------------------------------------------------------------
# named graphs

def path_graph(i: int) -> Graph:
    """P_i on vertices 0..i-1 in order."""
    if i < 1:
        raise ValueError("paths need at least one vertex")
    return from_edges(i, [(v, v + 1) for v in range(i - 1)])


def cycle_graph(n: int) -> Graph:
    """C_n on vertices 0..n-1 in cyclic order."""
    if n < 3:
        raise ValueError("cycles need at least three vertices")
    return from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graphs need at least one vertex")
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def complete_bipartite(m: int, n: int) -> Graph:
    """K_{m,n} with one side 0..m-1 and the other m..m+n-1."""
    if m < 1 or n < 1:
        raise ValueError("both sides need at least one vertex")
    left = (1 << m) - 1
    right = ((1 << (m + n)) - 1) ^ left
    rows = [right] * m + [left] * n
    return Graph(m + n, tuple(rows))


def star(r: int) -> Graph:
    """K_{1,r}: center 0 with leaves 1..r."""
    return complete_bipartite(1, r)


def triangle_with_tail(i: int) -> Graph:
    """Triangle {0,1,2} plus an induced path of i extra vertices off vertex 2."""
    if i < 1:
        raise ValueError("the tail needs at least one vertex")
    edges = [(0, 1), (0, 2), (1, 2)]
    edges += [(v, v + 1) for v in range(2, i + 2)]
    return from_edges(i + 3, edges)


def spider(i: int, j: int, k: int) -> Graph:
    """Three induced paths of i, j, k extra vertices sharing center 0."""
    if min(i, j, k) < 1:
        raise ValueError("all three legs need at least one vertex")
    edges = []
    start = 1
    for leg in (i, j, k):
        edges.append((0, start))
        edges += [(v, v + 1) for v in range(start, start + leg - 1)]
        start += leg
    return from_edges(i + j + k + 1, edges)


def bridged_triangles() -> Graph:
    """Two triangles {0,1,2} and {3,4,5} joined by the edge 2-3."""
    return from_edges(
        6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]
    )


def bowtie() -> Graph:
    """Two triangles {0,1,2} and {0,3,4} sharing vertex 0."""
    return from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])


# ---------------------------------------------------------------------------
# pattern vocabulary

# token head and parameter count -> (constructor, vertex count of the result)
_TOKEN_SHAPES = {
    ("P", 1): (path_graph, lambda i: i),
    ("C", 1): (cycle_graph, lambda n: n),
    ("K", 1): (complete_graph, lambda n: n),
    ("K", 2): (complete_bipartite, lambda m, n: m + n),
    ("Z", 1): (triangle_with_tail, lambda i: i + 3),
    ("T", 3): (spider, lambda i, j, k: i + j + k + 1),
}


def parse_pattern_token(token: str) -> Pattern:
    """Turn one vocabulary token into a labeled pattern.

    Tokens: P<i>, C<n>, K<n>, K<m>_<n>, Z<i>, T<i>_<j>_<k>, H0, H1, or an
    inline record with the g6: prefix.  Parameters are ASCII digits joined by
    underscores, so commas stay free to separate set members, and carry no
    leading zero, so a name has one spelling.  A token naming more than
    GRAPH6_MAX_ORDER vertices is refused before its graph is built.
    """
    tok = token.strip()
    if not tok:
        raise ValueError("empty pattern token")
    if tok.startswith("g6:"):
        return Pattern(from_graph6(tok[3:]), tok)
    if tok in ("H0", "H1"):
        return Pattern(bowtie() if tok == "H0" else bridged_triangles(), tok)
    fields = tok[1:].split("_")
    shape = _TOKEN_SHAPES.get((tok[0], len(fields)))
    if shape is None or not all(f.isascii() and f.isdigit() and (f == "0" or f[0] != "0")
                                for f in fields):
        raise ValueError(f"cannot parse pattern token {token!r}")
    build, order = shape
    params = tuple(map(int, fields))
    if order(*params) > GRAPH6_MAX_ORDER:
        raise ValueError(f"pattern token {token!r} names {order(*params)} vertices;"
                         f" patterns have at most {GRAPH6_MAX_ORDER}")
    try:
        return Pattern(build(*params), tok)
    except ValueError as exc:
        raise ValueError(f"cannot parse pattern token {token!r}: {exc}") from None


def parse_pattern_set(text: str) -> PatternSet:
    """Parse a comma-separated token list into a PatternSet.

    Spaces around a token are fine; an empty field is refused.
    """
    tokens = text.split(",")
    if not all(t.strip() for t in tokens):
        raise ValueError(f"empty field in pattern list {text!r}")
    return pattern_set(*(parse_pattern_token(t) for t in tokens))


_RECOGNIZE: dict[str, str] = {}


def recognize_pattern(g: Graph) -> str:
    """Return a vocabulary name for g when one exists, else a g6: token."""
    if not _RECOGNIZE:
        names = [f"P{i}" for i in range(1, 11)]
        names += [f"K{n}" for n in range(2, 9)]
        names += [f"C{n}" for n in range(4, 11)]
        names += [f"K{m}_{n}" for m in range(1, 5) for n in range(m, 9)
                  if (m, n) != (1, 1) and m + n <= 10]
        names += [f"Z{i}" for i in range(1, 7)]
        names += [f"T{i}_{j}_{k}" for i in range(1, 8) for j in range(i, 8)
                  for k in range(j, 8) if i + j + k + 1 <= 10]
        for name in names + ["H0", "H1"]:
            _RECOGNIZE.setdefault(canonical_form(parse_pattern_token(name).graph), name)
    form = canonical_form(g)
    return _RECOGNIZE.get(form, "g6:" + form)


# ---------------------------------------------------------------------------
# witness families

class CertificateError(RuntimeError):
    """A family member failed one of its own structural guarantees."""


@dataclass(frozen=True)
class FamilyMember:
    """One generated member of a witness family, with its checked facts."""

    family_id: int
    params: tuple[int, ...]
    graph: Graph
    certificate: tuple[tuple[str, bool], ...]


_FAMILY_RANGES = {
    1: "t with 3 <= t <= 16 (two complete blocks joined by a bridge)",
    2: "k, l with 4 <= k <= 30 and 1 <= l <= 30 (two k-cycles joined by an l-edge path)",
    3: "l with 3 <= l <= 30 (two triangles joined by an l-edge path)",
    4: "no parameters (two triangles joined by a bridge)",
    5: "l = 2 (two triangles joined by a 2-edge path)",
    6: "r, s with 2 <= r, s <= 16 (two K_{2,*} blocks joined by a bridge)",
    7: "r, s with 2 <= r, s <= 16 (two K_{2,*} blocks joined by a 2-edge path)",
}


def _joined(a: Graph, b: Graph, l: int, b_last: bool) -> Graph:
    """Blocks a and b joined by a path of l edges from a's last vertex to b's
    first (its last when ``b_last``); a, the path's inner vertices, then b."""
    start = a.n + l - 1  # b's first vertex
    edges = a.edges() + [(start + u, start + v) for u, v in b.edges()]
    edges += [(v, v + 1) for v in range(a.n - 1, start - 1)]
    edges.append((start - 1, start + b.n - 1 if b_last else start))
    return from_edges(start + b.n, edges)


# family id -> (inclusive (lo, hi) bounds of each parameter, in order;
#               parameters -> (block a, block b, path length, path ends at b's last vertex))
_FAMILIES = {
    1: (((3, 16),), lambda t: (complete_graph(t), complete_graph(t), 1, False)),
    2: (((4, 30), (1, 30)), lambda k, l: (cycle_graph(k), cycle_graph(k), l, False)),
    3: (((3, 30),), lambda l: (complete_graph(3), complete_graph(3), l, False)),
    4: ((), lambda: (complete_graph(3), complete_graph(3), 1, False)),
    5: (((2, 2),), lambda l: (complete_graph(3), complete_graph(3), l, False)),
    6: (((2, 16), (2, 16)),
        lambda r, s: (complete_bipartite(2, r), complete_bipartite(2, s), 1, True)),
    7: (((2, 16), (2, 16)),
        lambda r, s: (complete_bipartite(2, r), complete_bipartite(2, s), 2, True)),
}


def _family_graph(family_id: int, params: tuple[int, ...]) -> Graph:
    if family_id not in _FAMILIES:
        raise ValueError(f"unknown family {family_id}; valid ids are 1..7")
    bounds, blocks = _FAMILIES[family_id]
    if len(params) != len(bounds) or not all(lo <= x <= hi for x, (lo, hi) in zip(params, bounds)):
        raise ValueError(f"family {family_id} expects {_FAMILY_RANGES[family_id]}")
    g = _joined(*blocks(*params))
    if g.n > GRAPH6_MAX_ORDER:
        raise ValueError(f"family {family_id} params {params} has {g.n} vertices; members have"
                         f" at most {GRAPH6_MAX_ORDER}, the graph6 short-form limit")
    return g


def _family_certificate(family_id: int, params, g: Graph) -> list[tuple[str, bool]]:
    claw = star(3)
    k3 = complete_graph(3)
    cert = [("kappa_prime=1", edge_connectivity(g) == 1)]
    if family_id == 1:
        (t,) = params
        cert += [
            ("kappa_prime<delta", 1 < min_degree(g)),
            ("claw_free", is_free(g, [claw])),
            ("chordal", is_chordal(g)),
            ("longest_induced_path=P4", longest_induced_path_order(g) == 4),
            (f"clique_number={t}", clique_number(g) == t),
            ("contains_H1", contains_induced(g, bridged_triangles())),
            ("contains_Z2", contains_induced(g, triangle_with_tail(2))),
        ]
        if t == 3:
            cert.append(("delta=2", min_degree(g) == 2))
        return cert
    cert.append(("delta=2", min_degree(g) == 2))
    if family_id == 2:
        cert.append(("triangle_free", is_free(g, [k3])))
    elif family_id == 3:
        (l,) = params
        cert += [
            ("claw_free", is_free(g, [claw])),
            (f"longest_induced_path=P{l + 3}", longest_induced_path_order(g) == l + 3),
        ]
    elif family_id == 4:
        cert += [
            ("K4_free", clique_number(g) == 3),
            ("longest_induced_path=P4", longest_induced_path_order(g) == 4),
            ("contains_K3", contains_induced(g, k3)),
        ]
    elif family_id == 5:
        cert += [
            ("H1_free", is_free(g, [bridged_triangles()])),
            ("longest_induced_path=P5", longest_induced_path_order(g) == 5),
        ]
    else:
        # families 6 and 7: the joining path has family_id - 5 edges
        cert += [
            ("triangle_free", is_free(g, [k3])),
            (f"longest_induced_path=P{family_id}", longest_induced_path_order(g) == family_id),
            ("contains_T1_1_3", contains_induced(g, spider(1, 1, 3))),
        ]
        if (family_id, params) == (6, (2, 2)):
            # only the base member avoids the length-4 spider; wider blocks
            # let a degree-3 vertex reach across the bridge
            cert.append(("T1_1_4_free", is_free(g, [spider(1, 1, 4)])))
    return cert


def make_family_member(family_id: int, params) -> FamilyMember:
    """Build a family member and verify its certificate, aborting on failure."""
    params = tuple(params)
    g = _family_graph(family_id, params)
    cert = _family_certificate(family_id, params, g)
    for name, ok in cert:
        if not ok:
            raise CertificateError(
                f"family {family_id} params {params}: certified fact {name!r} is false"
            )
    return FamilyMember(family_id, params, g, tuple(cert))
