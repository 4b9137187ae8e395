"""Equality-claim verification runs over exhaustive graph scans.

A claim here is "every connected pattern-free graph satisfies one of three
invariant equalities": edge connectivity = minimum degree, vertex = edge
connectivity, or vertex connectivity = minimum degree.  The scanner walks
the connected pattern-free graphs up to a cutoff order, growing each order
from the free graphs of the one below, in one walk and one pass of checks
for all the claims of a scan, and records each equality violation as a
graph6 counterexample.  It also mines witnesses for pairs outside the
characterized lists, one walk for all the pairs, runs the
sufficient-condition and minimum-cut sweeps over all connected graphs, and
intersects two characterized lists into the candidates for the combined
equality.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import or_

from .atlas import parse_pattern_set, parse_pattern_token, recognize_pattern
from .conditions import condition_implication_rows
from .enumeration import walk, walk_sets
from .graphs import Graph, from_graph6, induced, is_connected, to_graph6
from .invariants import (
    cut_interior_property,
    edge_connectivity,
    min_degree,
    vertex_connectivity,
)
from .iso import (
    PatternSet,
    canonical_form,
    is_free,
    pattern_preceq,
    pattern_set,
)

# target name -> (left invariant, right invariant)
TARGETS = {
    "kappa_prime_delta": (edge_connectivity, min_degree),
    "kappa_kappa_prime": (vertex_connectivity, edge_connectivity),
    "kappa_delta": (vertex_connectivity, min_degree),
}

# per target: the characterized single pattern, then the characterized pairs
CHARACTERIZED_SINGLE = {
    "kappa_prime_delta": "P4",
    "kappa_kappa_prime": "P3",
    "kappa_delta": "P3",
}
CHARACTERIZED_PAIRS = {
    "kappa_prime_delta": ("H1,P5", "Z2,P6", "Z2,T1_1_3"),
    "kappa_kappa_prime": ("Z1,P5", "Z1,K1_4", "Z1,T1_1_2", "P4,H0", "K1_3,H0"),
    "kappa_delta": ("H0,P4", "Z1,P5", "Z1,T1_1_2"),
}


def _check_target(target: str):
    if target not in TARGETS:
        raise ValueError(f"unknown target {target!r}; expected one of {sorted(TARGETS)}")


def characterized_sets(target: str) -> list[PatternSet]:
    """The characterized pattern sets for a target: the singleton, then pairs."""
    _check_target(target)
    out = [pattern_set(parse_pattern_token(CHARACTERIZED_SINGLE[target]))]
    out += [parse_pattern_set(text) for text in CHARACTERIZED_PAIRS[target]]
    return out


@dataclass(frozen=True)
class VerdictRecord:
    """Outcome of one bounded exhaustive scan.

    ``tallies`` holds (name, count) pairs a scan keeps besides the graphs it
    scanned, such as the sweeps' ``hypotheses_fired`` or ``gap_graphs``.
    """

    claim_id: str
    n_max: int
    graphs_scanned: int
    elapsed_ms: float
    counterexamples: tuple
    tallies: tuple[tuple[str, int], ...] = ()

    @property
    def held(self) -> bool:
        return not self.counterexamples

    def as_dict(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "n_max": self.n_max,
            "graphs_scanned": self.graphs_scanned,
            **dict(self.tallies),
            "elapsed_ms": self.elapsed_ms,
            "counterexamples": list(self.counterexamples),
        }


def _scan(claim_id: str, n_max: int, graphs, check, tallies=()) -> VerdictRecord:
    """Run ``check`` on each of ``graphs`` and collect what it reports.

    ``check(g, counts)`` returns the graph's counterexamples (usually none)
    and may add to ``counts``, a dict holding one count per name in
    ``tallies``.  ``elapsed_ms`` times this loop: the checks, and whatever
    ``graphs`` does to yield each graph.
    """
    t0 = time.perf_counter()
    scanned = 0
    counts = dict.fromkeys(tallies, 0)
    bad: list = []
    for g in graphs:
        scanned += 1
        bad += check(g, counts)
    elapsed_ms = round((time.perf_counter() - t0) * 1000.0, 3)
    return VerdictRecord(claim_id, n_max, scanned, elapsed_ms, tuple(bad),
                         tuple(counts.items()))


def scan_claims(claims, n_max: int, workers: int = 1) -> list[VerdictRecord]:
    """Scan each (target, pattern set) claim over its pattern-free graphs up to n_max.

    Returns one record per claim, in order, as separate scans would give,
    but from one ``_scan`` over one ``walk_sets`` of the claims' sets: bit i
    of a graph's live bits is claim i.  Each graph is checked once, with each
    invariant of ``TARGETS`` computed at most once for all its live claims.
    A claim's record holds its own count and counterexamples, in walk order,
    and the ``elapsed_ms`` of the whole pass, walk included.  No claims, or
    an unknown target, is an error raised before the walk starts.
    """
    claims = list(claims)
    if not claims:
        raise ValueError("scan_claims needs at least one claim")
    for target, _ in claims:
        _check_target(target)

    def check(item, counts):
        g, live = item
        values = {}
        bad = []
        for i, (target, _) in enumerate(claims):
            if live >> i & 1:
                counts[i] += 1
                left, right = pair = TARGETS[target]
                for f in pair:
                    if f not in values:
                        values[f] = f(g)
                if values[left] != values[right]:
                    bad.append((i, to_graph6(g)))
        return bad

    walked = _scan(f"claims:n<={n_max}", n_max,
                   walk_sets(n_max, [patterns for _, patterns in claims], workers), check,
                   range(len(claims)))
    counts = dict(walked.tallies)
    return [VerdictRecord(f"{target}:{patterns.label}", n_max, counts[i], walked.elapsed_ms,
                          tuple(g6 for j, g6 in walked.counterexamples if j == i))
            for i, (target, patterns) in enumerate(claims)]


def verify_pattern_set(patterns: PatternSet, n_max: int, target: str = "kappa_prime_delta",
                       workers: int = 1) -> VerdictRecord:
    """Scan all connected pattern-free graphs up to n_max against the target
    equality: the one-claim case of ``scan_claims``."""
    return scan_claims([(target, patterns)], n_max, workers)[0]


@dataclass(frozen=True)
class WitnessRecord:
    """A pattern-free graph whose edge connectivity sits below minimum degree.

    Revalidated on construction: the witness must be connected, free of the
    pair, and show the recorded strict gap.
    """

    pair: PatternSet
    witness: str
    kappa_prime: int
    delta: int

    def __post_init__(self):
        g = from_graph6(self.witness)
        if not is_connected(g):
            raise ValueError(f"witness {self.witness} is not connected")
        if not is_free(g, self.pair):
            raise ValueError(f"witness {self.witness} is not {self.pair.label}-free")
        kp, dd = edge_connectivity(g), min_degree(g)
        if (kp, dd) != (self.kappa_prime, self.delta) or kp >= dd:
            raise ValueError(
                f"witness {self.witness} does not show the recorded gap"
                f" {self.kappa_prime} < {self.delta}"
            )

    def as_dict(self) -> dict:
        return {
            "pair": self.pair.label,
            "witness": self.witness,
            "kappa_prime": self.kappa_prime,
            "delta": self.delta,
        }


def mine_witnesses(pairs, n_max: int, workers: int = 1) -> list[WitnessRecord | None]:
    """Find, per pair, a connected pair-free graph with edge connectivity
    below delta: the first of that pair's free walk, so one of least order,
    or None when none of order <= n_max exists.  One ``walk_sets`` serves
    every pair, and drops each at its witness; no pairs raises there.
    """
    pairs = list(pairs)
    found = [None] * len(pairs)
    graphs = walk_sets(n_max, pairs, workers)
    for g, live in graphs:
        kp, dd = edge_connectivity(g), min_degree(g)
        if kp < dd:
            for i, pair in enumerate(pairs):
                if live >> i & 1:
                    found[i] = WitnessRecord(pair, to_graph6(g), kp, dd)
            graphs.send(live)
    return found


def mine_witness(pair: PatternSet, n_max: int, workers: int = 1) -> WitnessRecord | None:
    """The one-pair case of ``mine_witnesses``."""
    return mine_witnesses([pair], n_max, workers)[0]


# the pairs just beyond the kappa' = delta boundary, in report order
WITNESS_PAIRS = ("H1,P6", "Z3,P6", "Z2,P7", "Z2,T1_1_4", "K1_4,P5", "K1_3,P5")


def witness_sweep(n_max: int, workers: int = 1) -> list[dict]:
    """Mine a witness for every pair of ``WITNESS_PAIRS`` in one walk.

    Returns one row per pair, in list order: the witness record plus its
    ``relation``, ``"strict-extension"`` when some characterized set is
    strictly below the pair and ``"incomparable"`` otherwise.  A pair at or
    below a characterized set could have no witness, so the sweep refuses to
    run.  A missing witness is reported as ``"witness": None`` for review
    rather than raised.
    """
    bases = characterized_sets("kappa_prime_delta")
    pairs = [parse_pattern_set(text) for text in WITNESS_PAIRS]
    for pair in pairs:
        for c in bases:
            if pattern_preceq(pair, c):
                raise ValueError(
                    f"witness pair {pair.label} is at or below characterized set {c.label}"
                )
    rows = []
    for pair, rec in zip(pairs, mine_witnesses(pairs, n_max, workers)):
        # the refusal above rules out pair <= c, so c <= pair is strict
        strict = any(pattern_preceq(c, pair) for c in bases)
        row = {"pair": pair.label, "witness": None} if rec is None else rec.as_dict()
        rows.append({**row, "relation": "strict-extension" if strict else "incomparable"})
    return rows


def condition_soundness(n_max: int, workers: int = 1) -> VerdictRecord:
    """Check every sufficient condition against the equality it claims.

    Walks all connected graphs of order 2..n_max; a condition that holds on
    a graph with edge connectivity below minimum degree is a counterexample.
    """
    def check(g, counts):
        rows = condition_implication_rows(g)
        counts["hypotheses_fired"] += sum(row.holds for row in rows)
        return [{"graph6": to_graph6(g), "condition": row.condition.name}
                for row in rows if not row.sound]

    return _scan(f"conditions:soundness:n<={n_max}", n_max, walk(n_max, None, workers), check,
                 ("hypotheses_fired",))


def cut_interior_sweep(n_max: int, workers: int = 1) -> VerdictRecord:
    """Check that minimum cuts leave interior structure on both sides.

    Walks all connected graphs of order 2..n_max; a graph with edge
    connectivity below minimum degree whose recorded minimum cut fails the
    interior property is a counterexample.
    """
    def check(g, counts):
        if edge_connectivity(g) >= min_degree(g):
            return ()
        counts["gap_graphs"] += 1
        return () if cut_interior_property(g) else (to_graph6(g),)

    return _scan(f"cut_interior:n<={n_max}", n_max, walk(n_max, None, workers), check,
                 ("gap_graphs",))


# ---------------------------------------------------------------------------
# characterization intersection

def _rep_key(ps: PatternSet):
    shape = tuple(sorted((p.graph.n, p.graph.m) for p in ps.patterns))
    return (len(ps.patterns), shape, ps.label)


def intersect_characterizations(a, b, max_order: int) -> list[PatternSet]:
    """The maximal sets below one set of each list, up to ordering equivalence.

    H is at or below both ha and hb exactly when every member of ha ∪ hb
    contains some member of H as an induced subgraph.  So, for each pairing,
    the universe is the connected induced subgraphs of order <= ``max_order``
    of the members of ha ∪ hb, one per isomorphism class, each with the mask
    of the members that contain it; a draw of at most k = max(|ha|, |hb|) of
    them is at or below both sets exactly when its masks OR to every member.
    This universe is enough.  Suppose a member x of H lies in no member of
    ha ∪ hb.  Then H - x is still at or below both sets, and either
    H ≡ H - x, so the smaller draw is found, or H lies strictly below H - x,
    so H is not maximal.  Removing such members one at a time, each maximal
    H has an equivalent draw in the universe.

    Only minimal covers are kept, draws whose masks OR to every member while
    no member can be dropped.  Each maximal H has one: drop unneeded members
    one at a time; each step still covers and is at or above the last, so
    for a maximal H each stays equivalent to H.  A minimal cover is an
    antichain of distinct classes: if x lies in y, every member that holds y
    also holds x, so y's mask lies inside x's and y is not needed.  If
    antichains H1 and H2 are equivalent, each y in H2 contains an x in H1
    that contains a y' in H2, so y = y' ≅ x, and they have the same
    ``results`` key.  So distinct results are inequivalent, a result at or
    below another lies strictly below it and is dropped, and the rest come
    back in ``_rep_key`` order.
    """
    if not 1 <= max_order <= 7:
        raise ValueError(f"max_order must be within 1..7, got {max_order}")
    a_list = [a] if isinstance(a, PatternSet) else list(a)
    b_list = [b] if isinstance(b, PatternSet) else list(b)
    if not a_list or not b_list:
        raise ValueError("both characterization lists must be nonempty")
    # member form -> its connected induced subgraphs of order <= max_order, by form
    below: dict[str, dict[str, Graph]] = {}
    for g in {p.graph for h in a_list + b_list for p in h.patterns}:
        subs = (induced(g, sub) for size in range(1, min(max_order, g.n) + 1)
                for sub in combinations(range(g.n), size))
        below[canonical_form(g)] = {canonical_form(s): s for s in subs if is_connected(s)}
    a_forms = [h.form_key() for h in a_list]
    b_forms = [h.form_key() for h in b_list]
    results: dict[frozenset, PatternSet] = {}
    for fa in a_forms:
        for fb in b_forms:
            universe: dict[str, list] = {}
            for i, form in enumerate(sorted(fa | fb)):
                for sub_form, s in below[form].items():
                    universe.setdefault(sub_form, [s, 0])[1] |= 1 << i
            full = (1 << len(fa | fb)) - 1
            for size in range(1, max(len(fa), len(fb)) + 1):
                for draw in combinations(universe.items(), size):
                    masks = [mask for _, (_, mask) in draw]
                    if reduce(or_, masks) != full or any(
                            reduce(or_, masks[:i] + masks[i + 1:], 0) == full for i in range(size)):
                        continue
                    forms = frozenset(form for form, _ in draw)
                    if forms not in results:
                        members = sorted((g.n, g.m, form, g) for form, (g, _) in draw)
                        results[forms] = pattern_set(*((g, recognize_pattern(g)) for *_, g in members))
    formed = list(results.values())
    kept = [
        h for h in formed
        if not any(other is not h and pattern_preceq(h, other) for other in formed)
    ]
    return sorted(kept, key=_rep_key)
