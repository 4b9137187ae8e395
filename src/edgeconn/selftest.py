"""Built-in cross-checks of the fast paths against the reference oracles.

Four case groups: cut invariants (kappa', kappa and the minimum edge cut
certificate's value) versus brute-force cuts on every connected graph
through order six, generator counts versus the permutation-orbit
count, uniqueness of the bowtie degree sequence, and the degree sequences
of the graphs that vocabulary tokens name.  Each case reports an id, a
verdict, and a short detail line, so failures name what broke.
"""

from __future__ import annotations

from .atlas import parse_pattern_token
from .enumeration import connected_level, walk
from .invariants import edge_connectivity, min_edge_cut, vertex_connectivity
from .iso import canonical_form
from .graphs import to_graph6
from .oracles import (
    connected_class_count_oracle,
    degree_sequence_census,
    edge_cut_oracle,
    vertex_cut_oracle,
)

_EXPECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}

_NAMED_DEGREES = (
    ("P5", (2, 2, 2, 1, 1)),
    ("C5", (2, 2, 2, 2, 2)),
    ("K5", (4, 4, 4, 4, 4)),
    ("K2_3", (3, 3, 2, 2, 2)),
    ("K1_4", (4, 1, 1, 1, 1)),
    ("Z1", (3, 2, 2, 1)),
    ("Z2", (3, 2, 2, 2, 1)),
    ("T1_1_2", (3, 2, 1, 1, 1)),
    ("T1_1_3", (3, 2, 2, 1, 1, 1)),
    ("H0", (4, 2, 2, 2, 2)),
    ("H1", (3, 3, 2, 2, 2, 2)),
)


def run_selftest() -> list[tuple[str, bool, str]]:
    """Run every embedded check; returns (case id, passed, detail) rows."""
    cases = []

    total = 0
    bad = None
    for g in walk(6):
        total += 1
        cut = edge_cut_oracle(g)
        if edge_connectivity(g) != cut:
            bad = f"edge cut mismatch on {to_graph6(g)}"
            break
        if min_edge_cut(g).value != cut:
            bad = f"cut certificate mismatch on {to_graph6(g)}"
            break
        if vertex_connectivity(g) != vertex_cut_oracle(g):
            bad = f"vertex cut mismatch on {to_graph6(g)}"
            break
    cases.append(("invariants:cut-oracles", bad is None, bad or f"{total} graphs agree"))

    bad = None
    for n, want in _EXPECTED_COUNTS.items():
        got = len(connected_level(n))
        oracle = connected_class_count_oracle(n)
        if got != want or oracle != want:
            bad = f"n={n}: generator {got}, orbit oracle {oracle}, expected {want}"
            break
    cases.append(
        ("enumerator:counts", bad is None, bad or "orders 1..6 match the orbit oracle")
    )

    census = degree_sequence_census(5, (4, 2, 2, 2, 2))
    forms = {canonical_form(g) for g in census}
    ok = forms == {canonical_form(parse_pattern_token("H0").graph)} and len(census) == 15
    detail = f"{len(census)} labelings, {len(forms)} class(es)"
    cases.append(("atlas:bowtie-degree-sequence-unique", ok, detail))

    bad = None
    for name, want in _NAMED_DEGREES:
        got = parse_pattern_token(name).graph.degree_sequence()
        if got != want:
            bad = f"{name}: got {got}, expected {want}"
            break
    cases.append(
        ("atlas:named-degree-sequences", bad is None, bad or f"{len(_NAMED_DEGREES)} graphs match")
    )
    return cases
