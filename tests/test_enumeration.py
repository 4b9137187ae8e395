"""Connected-graph enumerator: counts, uniqueness, parallel merge, walks, streams."""

import hashlib
import random
from collections import Counter, defaultdict

import pytest

from edgeconn import (
    TARGETS,
    GraphError,
    Graph6Error,
    are_isomorphic,
    canonical_form,
    characterized_sets,
    complete_graph,
    connected_level,
    expand_children,
    from_edges,
    is_free,
    parse_pattern_set,
    path_graph,
    read_graph6_stream,
    star,
    to_graph6,
    walk,
    walk_sets,
    write_graph6_stream,
)
from edgeconn import enumeration
from edgeconn.graphs import Graph, induced, is_connected
from edgeconn.iso import _as_graphs, _canonical_rows, _refine, _trace_table
from edgeconn.oracles import connected_class_count_oracle

EXPECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}

# sha256 of each level's graph6 lines, each followed by "\n"; any change to
# which representative the enumerator emits, or in what order, changes these
LEVEL_SHA256 = {
    1: "ecf5de1a2ecc66a1876a832804c64f6b5125784e94c82285d9720621c613ab46",
    2: "fae4bfc454bd04363dcd5222772f2973b1193e1ff6f676e822a427323a677ef9",
    3: "e53a5e15924c562ea91b2e31166da62399d58c4af1027d8ef1aa54ab3235fac4",
    4: "4fd93a12c759cf8d19b76cedb1838fcc156e79685326c8e75cf763de1c7865eb",
    5: "ae9c91e3467926af0653b233b8236806c091440f0d9be408f5d7fbd5f7c307d4",
    6: "da2b615e7e85474242897fdf10439c61b96f530f27ed37384107e14f53c7b382",
    7: "956bf73c8ae572bbb30c1df5d9cc7e527b261868ab0e5e3384ba71c18694921c",
    8: "3c5f6481771090fc5aa48cc46fe1f7fd57030da796e7a77b0c3e208495ef8d4c",
}

# free graphs of walk(9, set) per order n = 2..9, and the sha256 prefix of
# their graph6 lines, each followed by "\n"; computed by filtering the full
# levels of orders 2..9 with is_free
WALK9_PINS = [
    ("P4", [1, 2, 5, 12, 33, 90, 261, 766], "e08aebaf75e07e7a"),
    ("H1,P5", [1, 2, 6, 20, 92, 504, 3556, 30936], "63f1b67771add044"),
    ("Z2,P6", [1, 2, 6, 20, 88, 446, 2880, 23196], "c4e64e9457aa3d7b"),
    ("Z2,T1_1_3", [1, 2, 6, 20, 88, 437, 2748, 21858], "e0177eae67fc0d80"),
]


def brute_non_cut(g):
    """Vertices whose deletion leaves a connected graph, by direct test."""
    full = (1 << g.n) - 1
    return [v for v in range(g.n) if is_connected(induced(g, full ^ (1 << v)))]


def child_rows(parent, mask):
    """The rows of the one-vertex extension whose new vertex sees ``mask``."""
    rows = [r | 1 << parent.n if mask >> v & 1 else r for v, r in enumerate(parent.adj)]
    rows.append(mask)
    return rows


def reference_expand(parent, patterns=()):
    """``enumeration._expand`` with every surviving candidate canonically
    labelled: the acceptance step as it was before the singleton lemma.

    It tries every orbit leader, with no floor, so it does not rest on the
    floor lemma either.  Returns the accepted children, filtered by encoding
    in mask order, and one (kind of the kept child, kind of the dropped one)
    pair per sibling collision.  A child's kind is "new" or "other" when
    ``top & removable`` is the new vertex or another single vertex, and
    "many" otherwise.
    """
    pn = parent.n
    n = pn + 1
    new = 1 << pn
    _, parent_enc, parent_autos = _canonical_rows(pn, parent.adj)
    degs = [r.bit_count() for r in parent.adj]
    parent_degs = sorted(degs)
    cut_table = enumeration._cut_table(pn, parent.adj)
    out, kinds, collisions = [], {}, []
    for mask in enumeration._orbit_leaders(pn, parent_autos):
        rows = child_rows(parent, mask)
        removable = enumeration._removable(pn, degs, mask, cut_table)
        if not removable:
            continue
        cells = _refine(rows, [(1 << n) - 1])
        top = enumeration._last_cell(cells, removable)
        if not top & new:
            u = (top & -top).bit_length() - 1
            if sorted(r.bit_count() for r in enumeration._delete_rows(n, rows, u)) != parent_degs:
                continue
        if not is_free(Graph(n, rows), patterns):
            continue
        perm, enc, _ = _canonical_rows(n, rows, cells)
        vstar = next(v for v in reversed(perm) if removable >> v & 1)
        if vstar != pn and _canonical_rows(pn, enumeration._delete_rows(n, rows, vstar))[1] != parent_enc:
            continue
        single = top & removable
        kind = "many" if single & (single - 1) else "new" if single == new else "other"
        if enc in kinds:
            collisions.append((kinds[enc], kind))
        else:
            kinds[enc] = kind
            out.append(Graph(n, rows))
    return out, collisions


class TestCounts:
    def test_published_sequence(self, levels7):
        for n, want in EXPECTED_COUNTS.items():
            assert len(levels7[n]) == want

    def test_against_permutation_oracle(self, levels6):
        for n in range(1, 7):
            assert len(levels6[n]) == connected_class_count_oracle(n)

    def test_no_duplicate_classes(self, levels7):
        for n in range(1, 8):
            forms = {canonical_form(g) for g in levels7[n]}
            assert len(forms) == len(levels7[n])

    def test_every_graph_connected_right_order(self, levels6):
        from edgeconn.graphs import is_connected

        for n in range(1, 7):
            for g in levels6[n]:
                assert g.n == n and is_connected(g)


class TestAtlasOracle:
    def test_forms_match_networkx_atlas(self, levels7):
        # an independent list of the classes: networkx's graph atlas, each graph
        # relabelled by a seeded shuffle before it is canonically labelled
        nx = pytest.importorskip("networkx")
        rng = random.Random(2017)
        forms = defaultdict(list)
        for h in nx.graph_atlas_g():
            n = h.number_of_nodes()
            if 2 <= n <= 7 and nx.is_connected(h):
                perm = list(range(n))
                rng.shuffle(perm)
                forms[n].append(canonical_form(from_edges(n, [(perm[u], perm[v]) for u, v in h.edges()])))
        for n in range(2, 8):
            assert sorted(forms[n]) == sorted(canonical_form(g) for g in levels7[n]), n


class TestExpansion:
    def test_children_of_single_edge(self):
        kids = expand_children(complete_graph(2))
        assert len(kids) == 2
        forms = {canonical_form(g) for g in kids}
        assert forms == {canonical_form(path_graph(3)), canonical_form(complete_graph(3))}

    def test_levels_deterministic(self):
        a = [to_graph6(g) for g in connected_level(6)]
        b = [to_graph6(g) for g in connected_level(6)]
        assert a == b

    def test_parallel_merge_is_byte_identical(self, levels7):
        saved = dict(enumeration._levels)
        try:
            enumeration._levels.clear()
            enumeration._levels[1] = saved[1]
            par = connected_level(7, workers=2)
        finally:
            enumeration._levels.clear()
            enumeration._levels.update(saved)
        assert [to_graph6(g) for g in par] == [to_graph6(g) for g in levels7[7]]

    def test_pool_path_reaches_expand_children(self, monkeypatch, levels7):
        # the in-process fake pool maps the same per-slice expansion as the
        # sequential path, so full levels call expand_children as often
        real = enumeration.expand_children
        calls = []

        def counted(parent):
            calls.append(parent.n)
            return real(parent)

        monkeypatch.setattr(enumeration, "expand_children", counted)
        contexts = []
        monkeypatch.setattr(enumeration, "get_context",
                            lambda method: contexts.append(FakeContext(method)) or contexts[-1])
        monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
        saved = dict(enumeration._levels)
        counts = {}
        try:
            for workers in (1, 2):
                enumeration._levels.clear()
                enumeration._levels[1] = saved[1]
                calls.clear()
                got = connected_level(7, workers=workers)
                assert [to_graph6(g) for g in got] == [to_graph6(g) for g in levels7[7]]
                counts[workers] = len(calls)
        finally:
            enumeration._levels.clear()
            enumeration._levels.update(saved)
        # only the order-7 step has the 64 parents a pool needs
        assert [c.sizes for c in contexts] == [[2]]
        assert counts[2] == counts[1] == sum(len(levels7[n]) for n in range(1, 7))

    def test_stream_digests_pinned(self, levels8):
        for n, want in LEVEL_SHA256.items():
            stream = "".join(to_graph6(g) + "\n" for g in levels8[n])
            assert hashlib.sha256(stream.encode("ascii")).hexdigest() == want, n

    def test_singleton_lemma_keeps_full_search_output(self, levels7):
        # _expand labels a child only when top & removable has two or more
        # vertices, or to filter siblings once a child was accepted through
        # another single vertex; it must return what labelling every
        # candidate returns, in the same order
        collisions = Counter()
        for pn in range(1, 8):
            for parent in levels7[pn]:
                want, met = reference_expand(parent)
                assert [g for g, _, _ in enumeration._expand(parent, ())] == want, to_graph6(parent)
                collisions.update((pn + 1, kept, dropped) for kept, dropped in met)
        # the lazily labelled branch is needed: a child accepted through the
        # new vertex duplicates one accepted through another vertex
        assert collisions[8, "new", "other"] + collisions[8, "other", "new"] >= 1
        # the singleton lemma: a singleton child never meets a "many" child,
        # and two children accepted through the new vertex never meet
        for (_, kept, dropped), _count in collisions.items():
            assert "many" not in {kept, dropped} or kept == dropped
            assert (kept, dropped) != ("new", "new")

    def test_only_new_candidates_are_not_refined(self, monkeypatch, levels7):
        # the only-new case: a candidate whose one removable vertex is the new
        # one is accepted before its first refinement; _refine from the unit
        # partition is the child refinement (_canonical_rows calls iso's own)
        state = {"last_only_new": False, "only_new": 0, "refined": 0, "refined_only_new": 0}
        real_removable, real_refine = enumeration._removable, enumeration._refine

        def removable(pn, degs, mask, cut_table):
            got = real_removable(pn, degs, mask, cut_table)
            state["last_only_new"] = got == 1 << pn
            state["only_new"] += state["last_only_new"]
            return got

        def refine(rows, cells):
            if len(cells) == 1:
                state["refined"] += 1
                state["refined_only_new"] += state["last_only_new"]
            return real_refine(rows, cells)

        monkeypatch.setattr(enumeration, "_removable", removable)
        monkeypatch.setattr(enumeration, "_refine", refine)
        for pn in range(1, 8):
            for parent in levels7[pn]:
                enumeration._expand(parent, ())
        assert state["refined_only_new"] == 0
        # refining every candidate that passes the degree lemma makes 17 768
        # child refinements; the only-new case skips 5 747 of them
        assert state["only_new"] == 5747
        assert state["refined"] == 12021 == 17768 - state["only_new"]

    @pytest.mark.parametrize("text", ["H1,P5", "Z2,P6"])
    def test_singleton_lemma_keeps_free_walk_output(self, text):
        # the free levels to order 8, each built by the reference from the
        # reference's level below, against _expand on the same parents
        patterns = _as_graphs(parse_pattern_set(text))
        level = [g for g in connected_level(1) if is_free(g, patterns)]
        for _ in range(2, 9):
            got, want = [], []
            for parent in level:
                got.extend(g for g, _, _ in enumeration._expand(parent, [patterns], None, 1))
                want.extend(reference_expand(parent, patterns)[0])
            assert got == want, (text, len(level))
            level = want

    def test_new_vertex_has_top_non_cut_degree(self, levels8):
        # the degree lemma the candidate filter in expand_children rests on
        for n in range(2, 9):
            for g in levels8[n]:
                removable = brute_non_cut(g)
                assert n - 1 in removable, to_graph6(g)
                top = max(g.adj[v].bit_count() for v in removable)
                assert g.adj[n - 1].bit_count() == top, to_graph6(g)

    def test_non_cut_vertices_match_brute_force(self, levels6):
        for n in range(2, 7):
            for g in levels6[n]:
                want = brute_non_cut(g)
                degs = [r.bit_count() for r in g.adj]
                subsets = (
                    list(range(n)),
                    list(range(n - 1, -1, -1)),
                    [v for v in range(n) if degs[v] >= degs[n - 1]],
                    [v for v in range(n) if v % 2],
                    [],
                )
                for cands in subsets:
                    got = enumeration._non_cut_vertices(n, g.adj, cands)
                    assert got == [v for v in cands if v in want], (to_graph6(g), cands)

    def test_non_cut_vertex_of_single_vertex(self):
        assert enumeration._non_cut_vertices(1, (0,), [0]) == [0]

    def test_cut_table_matches_brute_force(self, levels6):
        # v < pn is non-cut in a child exactly when the new vertex meets every
        # component of parent - v; vacuously so when the parent has one vertex
        for pn in range(1, 7):
            for parent in levels6[pn]:
                table = enumeration._cut_table(pn, parent.adj)
                for mask in range(1, 1 << pn):
                    child = Graph(pn + 1, child_rows(parent, mask))
                    want = [v for v in brute_non_cut(child) if v < pn]
                    got = [v for v in range(pn) if all(mask & comp for comp in table[v])]
                    assert got == want, (to_graph6(parent), mask)

    def test_last_removable_lies_in_last_meeting_cell(self, levels7):
        # the cell lemma _expand rejects by: on every candidate that passes the
        # degree lemma, the last removable vertex in canonical order lies in the
        # last cell of the first refinement that meets the removable set.
        # The singleton lemma rests on two more facts checked here: when that
        # cell holds one removable vertex it is vstar, and isomorphic accepted
        # children of one parent have top & removable of one size
        checked = singles = 0
        for pn in range(1, 8):
            n = pn + 1
            for parent in levels7[pn]:
                parent_enc = _canonical_rows(pn, parent.adj)[1]
                sizes = defaultdict(set)
                for mask in range(1, 1 << pn):
                    rows = child_rows(parent, mask)
                    d = mask.bit_count()
                    non_cut = enumeration._non_cut_vertices(n, rows, range(pn))
                    if any(rows[v].bit_count() > d for v in non_cut):
                        continue
                    removable = 1 << pn
                    for v in non_cut:
                        removable |= 1 << v
                    perm, enc, _ = _canonical_rows(n, rows)
                    vstar = next(v for v in reversed(perm) if removable >> v & 1)
                    top = enumeration._last_cell(_refine(rows, [(1 << n) - 1]), removable)
                    assert top >> vstar & 1, (to_graph6(parent), mask)
                    single = top & removable
                    if not single & (single - 1):
                        assert single == 1 << vstar, (to_graph6(parent), mask)
                        singles += 1
                    if vstar == pn or _canonical_rows(pn, enumeration._delete_rows(n, rows, vstar))[1] == parent_enc:
                        sizes[enc].add(single.bit_count())
                    checked += 1
                assert all(len(s) == 1 for s in sizes.values()), to_graph6(parent)
        assert checked == 26497
        assert singles == 19846

    def test_range_validation(self):
        with pytest.raises(GraphError):
            connected_level(0)
        with pytest.raises(GraphError):
            connected_level(10)
        with pytest.raises(GraphError):
            connected_level(11)
        with pytest.raises(GraphError):
            connected_level(0, workers=2)


class FakeContext:
    """Stands in for a multiprocessing context: records pool sizes and maps in
    this process, so no worker is started."""

    def __init__(self, method):
        assert method == "fork"
        self.sizes = []

    def Pool(self, workers):
        self.sizes.append(workers)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, chunks):
        return [fn(c) for c in chunks]


class TestWorkerBounds:
    @pytest.fixture
    def fake_pool(self, monkeypatch, levels7):
        contexts = []

        def get_context(method):
            contexts.append(FakeContext(method))
            return contexts[-1]

        monkeypatch.setattr(enumeration, "get_context", get_context)
        monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 3)
        saved = dict(enumeration._levels)
        enumeration._levels.clear()
        enumeration._levels[1] = saved[1]
        yield contexts
        enumeration._levels.clear()
        enumeration._levels.update(saved)

    @pytest.mark.parametrize("workers", [0, -1, -100000])
    def test_rejects_fewer_than_one(self, workers):
        with pytest.raises(GraphError, match="workers must be at least 1"):
            connected_level(3, workers=workers)
        with pytest.raises(GraphError, match="workers must be at least 1"):
            connected_level(1, workers=workers)

    def test_caps_at_cpu_count(self, fake_pool, levels7):
        got = connected_level(7, workers=100000)
        assert [c.sizes for c in fake_pool] == [[3]]
        assert [to_graph6(g) for g in got] == [to_graph6(g) for g in levels7[7]]

    def test_keeps_count_within_cpu_count(self, fake_pool):
        connected_level(7, workers=2)
        assert [c.sizes for c in fake_pool] == [[2]]

    def test_single_worker_starts_no_pool(self, fake_pool):
        connected_level(7, workers=1)
        assert fake_pool == []


class TestFilterFree:
    def test_claw_free_on_four_vertices(self):
        kept = [g for g in walk(4, star(3)) if g.n == 4]
        assert len(kept) == 5

    def test_forbidding_a_vertex_empties(self):
        from edgeconn.graphs import Graph

        assert list(walk(4, Graph(1, (0,)))) == []

    def test_oversized_pattern_is_vacuous(self, levels6):
        kept = [g for g in walk(5, complete_graph(7)) if g.n == 5]
        assert len(kept) == len(levels6[5]) == 21


def non_cut_floor(parent):
    """The largest degree of a non-cut vertex of a connected graph, by direct
    test; the one vertex of a 1-vertex graph (degree 0) counts as non-cut."""
    return max((parent.adj[v].bit_count() for v in brute_non_cut(parent)), default=0)


def non_cut_top(parent, floor):
    """The mask of the non-cut vertices of degree ``floor``, by direct test."""
    return sum(1 << v for v in brute_non_cut(parent) if parent.adj[v].bit_count() == floor)


class TestFloorLemma:
    def test_masks_below_floor_are_rejected(self, levels7):
        # every mask of 2..floor - 1 vertices fails the degree lemma, so
        # _expand may drop it before building its child rows
        below = 0
        for pn in range(1, 8):
            for parent in levels7[pn]:
                floor = non_cut_floor(parent)
                degs = [r.bit_count() for r in parent.adj]
                cut_table = enumeration._cut_table(pn, parent.adj)
                for mask in range(1, 1 << pn):
                    if 2 <= mask.bit_count() < floor:
                        assert enumeration._removable(pn, degs, mask, cut_table) == 0, (
                            to_graph6(parent), mask)
                        below += 1
        assert below > 0

    def test_floored_leaders_are_the_leaders_filtered(self, levels7):
        # automorphisms keep a mask's size, so the floor drops whole orbits
        # and keeps the other leaders, in order; every floor a parent can
        # have (0..pn) is tried
        for pn in range(1, 8):
            for parent in levels7[pn]:
                autos = _canonical_rows(pn, parent.adj)[2]
                leaders = enumeration._orbit_leaders(pn, autos)
                for floor in range(pn + 1):
                    want = [m for m in leaders if m.bit_count() == 1 or m.bit_count() >= floor]
                    assert enumeration._orbit_leaders(pn, autos, floor) == want, (to_graph6(parent), floor)

    def test_masks_of_floor_size_meeting_top_are_rejected(self, levels7):
        # equal case: a mask of exactly floor >= 2 vertices holding a non-cut
        # vertex of degree floor fails the degree lemma too
        dropped = 0
        for pn in range(1, 8):
            for parent in levels7[pn]:
                floor = non_cut_floor(parent)
                if floor < 2:
                    continue
                top = non_cut_top(parent, floor)
                degs = [r.bit_count() for r in parent.adj]
                cut_table = enumeration._cut_table(pn, parent.adj)
                for mask in range(1, 1 << pn):
                    if mask.bit_count() == floor and mask & top:
                        assert enumeration._removable(pn, degs, mask, cut_table) == 0, (
                            to_graph6(parent), mask)
                        dropped += 1
        assert dropped > 0

    def test_top_drops_whole_orbits(self, levels7):
        # degree and non-cut status are kept by automorphisms, so the masks of
        # floor vertices meeting top fill whole orbits: the leaders with top
        # are the unfiltered leaders less those, in order
        dropped = 0
        for pn in range(1, 8):
            for parent in levels7[pn]:
                autos = _canonical_rows(pn, parent.adj)[2]
                leaders = enumeration._orbit_leaders(pn, autos)
                floor = non_cut_floor(parent)
                top = non_cut_top(parent, floor)
                want = [m for m in leaders
                        if floor < 2 or m.bit_count() == 1 or m.bit_count() > floor
                        or m.bit_count() == floor and not m & top]
                assert enumeration._orbit_leaders(pn, autos, floor, top) == want, to_graph6(parent)
                dropped += len(leaders) - len(want)
        assert dropped > 0


class TestLabelCarry:
    def test_carried_labels_are_fresh_labels(self):
        # a walk's level holds (graph, label, live) triples; every label
        # _expand carries must be the one labelling the graph afresh gives,
        # since the next order expands the graph from it; one level of the
        # union of the 10 characterized classes at a time
        sets = {ps.form_key(): _as_graphs(ps) for t in TARGETS for ps in characterized_sets(t)}
        assert len(sets) == 10
        sets = list(sets.values())
        level = [(g, None, (1 << len(sets)) - 1) for g in connected_level(1)]
        carried = Counter()
        for _ in range(2, 9):
            level = enumeration._next_level(level, sets, 1)
            for g, label, _ in level:
                if label is not None:
                    _, enc, autos = _canonical_rows(g.n, g.adj)
                    assert label == (enc, tuple(autos)), to_graph6(g)
                    carried[g.n] += 1
        # labels are carried at every order from 3, where children first
        # need labelling, so parents of orders 3..7 are expanded with them
        assert all(carried[n] > 0 for n in range(3, 9)), carried


class TestTraceLemma:
    @staticmethod
    def compare_with_child_search(parent, patterns):
        """The orbit-leader masks of one parent that the trace test rejects,
        and all of them, counted; on each the induced-subgraph search of the
        child must agree."""
        pn = parent.n
        forbidden = enumeration._forbidden_traces(pn, parent.adj, patterns)
        leaders = enumeration._orbit_leaders(pn, _canonical_rows(pn, parent.adj)[2])
        rejected = 0
        for mask in leaders:
            rows = child_rows(parent, mask)
            want = not is_free(Graph(pn + 1, rows), patterns)
            got = any(mask & s in traces for s, traces in forbidden)
            assert got == want, (to_graph6(parent), mask)
            rejected += got
        return rejected, len(leaders)

    @pytest.mark.parametrize("extra", [None, "P5", "P8"])
    def test_trace_test_is_the_child_search(self, extra):
        # the characterized sets (14, of which 10 differ), P5 (deleting its
        # middle vertex leaves 2K2, a disconnected p - x) and P8 (k - 1 > pn
        # below order 7, so skipped there), each over the free parents of
        # orders 1..7, the parents walk(8, set) expands
        if extra is None:
            sets = {ps.form_key(): _as_graphs(ps) for t in TARGETS for ps in characterized_sets(t)}
            assert len(sets) == 10
            cases = list(sets.values())
        else:
            cases = [_as_graphs(parse_pattern_set(extra))]
        for patterns in cases:
            parents = [g for g in connected_level(1) if is_free(g, patterns)]
            parents += list(walk(7, patterns))
            rejected = Counter()
            for g in parents:
                rejected[g.n] += self.compare_with_child_search(g, patterns)[0]
            if extra == "P8":
                assert set(+rejected) == {7}
            else:
                assert rejected[7] > 0, [p.n for p in patterns]

    @pytest.mark.parametrize("pattern", [Graph(1, (0,)), complete_graph(2)], ids=["K1", "K2"])
    def test_trace_test_on_one_and_two_vertex_patterns(self, pattern, levels6):
        # the lemma's copies through the new vertex need no free parent, so
        # the keys of K1 - x and K2 - x (no vertex, one vertex) are checked on
        # every connected parent; the trace test and the search of the child
        # both reject every (nonempty) candidate mask
        for pn in range(1, 6):
            for parent in levels6[pn]:
                rejected, tried = self.compare_with_child_search(parent, [pattern])
                assert rejected == tried, to_graph6(parent)

    def test_trace_table_by_brute_force(self, levels6):
        # for every connected p on k <= 5 vertices, every labelled H on k - 1
        # vertices and every trace T: (key(H), T) is in the table exactly when
        # H plus a vertex adjacent to T is isomorphic to p
        for k in range(1, 6):
            m = k - 1
            pairs = [(i, j) for j in range(1, m) for i in range(j)]
            for p in levels6[k]:
                table = _trace_table(p)
                for key in range(1 << len(pairs)):
                    rows = [0] * m
                    for q, (i, j) in enumerate(pairs):
                        if key >> (len(pairs) - 1 - q) & 1:
                            rows[i] |= 1 << j
                            rows[j] |= 1 << i
                    for trace in range(1 << m):
                        g = Graph(k, child_rows(Graph(m, rows), trace))
                        assert (trace in table.get(key, ())) == are_isomorphic(g, p), (to_graph6(p), key, trace)


class TestWalk:
    def test_unfiltered_walk_is_the_levels_in_order(self):
        assert list(walk(4)) == [g for n in (2, 3, 4) for g in connected_level(n)]

    def test_free_graphs_match_filtered_levels(self, levels8):
        # the guard any pruned walk has to pass: same graphs, same order, per order;
        # a set characterized for two targets is checked once
        sets = {ps.form_key(): ps for t in TARGETS for ps in characterized_sets(t)}
        assert len(sets) == 10
        for ps in sets.values():
            got = defaultdict(list)
            for g in walk(8, ps):
                got[g.n].append(g)
            for n in range(2, 9):
                want = [g for g in levels8[n] if is_free(g, ps)]
                assert len(got[n]) == len(want), (ps.label, n)
                assert got[n] == want, (ps.label, n)

    @pytest.mark.parametrize("text, counts, digest", WALK9_PINS, ids=[p[0] for p in WALK9_PINS])
    def test_order_nine_streams_pinned(self, text, counts, digest, order_nine_passes):
        # the session's one walk(9, set) per set, shared with acceptance criterion 4
        got, stream_digest, _ = order_nine_passes[text]
        assert got == counts
        assert stream_digest == digest

    def test_pooled_pattern_walk_keeps_order(self):
        # 88 free parents at order 6 and 446 at order 7, so orders 7 and 8 use the pool
        ps = parse_pattern_set("Z2,P6")
        assert list(walk(8, ps, workers=2)) == list(walk(8, ps, workers=1))

    @pytest.mark.parametrize("n_max", [-1, 0, 1, 10, 11, 12])
    def test_bad_order_bound_raises_at_call(self, n_max):
        with pytest.raises(GraphError, match="scans support 2 <= n_max <= 9"):
            walk(n_max)
        with pytest.raises(GraphError, match="scans support 2 <= n_max <= 9"):
            walk(n_max, star(3))
        with pytest.raises(GraphError, match="scans support 2 <= n_max <= 9"):
            walk_sets(n_max, [star(3)])


def characterized_classes():
    """The 10 distinct classes of the 14 characterized sets, first text first."""
    sets = {ps.form_key(): ps for t in TARGETS for ps in characterized_sets(t)}
    assert len(sets) == 10
    return list(sets.values())


class TestWalkSets:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_class_streams_are_the_walks(self, workers, monkeypatch):
        # the union lemma: the graphs with bit i, in union walk order, are
        # walk(8, sets[i]); the union has 110 graphs at order 6 and 643 at
        # order 7, so with 2 workers orders 7 and 8 go through the pool
        monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
        sets = characterized_classes()
        got = [[] for _ in sets]
        for g, live in walk_sets(8, sets, workers):
            assert live, to_graph6(g)
            for i, stream in enumerate(got):
                if live >> i & 1:
                    stream.append(g)
        for ps, stream in zip(sets, got):
            assert stream == list(walk(8, ps)), ps.label

    def test_live_bits_are_freeness(self, levels7):
        # on every connected graph of orders 2..7, the union walk holds it
        # exactly when it is free of some set, with bit i its freeness of set i
        sets = characterized_classes()
        live = dict(walk_sets(7, sets))
        for n in range(2, 8):
            for g in levels7[n]:
                want = sum(1 << i for i, ps in enumerate(sets) if is_free(g, ps))
                assert live.pop(g, 0) == want, to_graph6(g)
        assert live == {}

    def test_no_sets_raises_at_call(self, monkeypatch):
        # refused when the walk is made, before any level is expanded
        monkeypatch.setattr(enumeration, "_next_level", None)
        with pytest.raises(GraphError, match="at least one pattern set"):
            walk_sets(8, [])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_dropped_set_leaves_the_other_streams(self, workers, monkeypatch):
        # the drop lemma: dropping the set with the most order-6 graphs halfway
        # through its order-6 graphs leaves every other stream equal to its
        # walk, and the dropped bit never comes back; with 2 workers the
        # filtered order-6 level still goes through the pool
        monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
        sets = characterized_classes()
        sixes = [sum(g.n == 6 for g in walk(6, ps)) for ps in sets]
        j = sixes.index(max(sixes))
        got = [[] for _ in sets]
        seen = dropped = 0
        graphs = walk_sets(8, sets, workers)
        for g, live in graphs:
            assert live and not live & dropped, to_graph6(g)
            for i, stream in enumerate(got):
                if live >> i & 1:
                    stream.append(g)
            if g.n == 6 and live >> j & 1:
                seen += 1
                if seen == sixes[j] // 2:
                    assert graphs.send(1 << j) is None
                    dropped = 1 << j
        # set j's stream stops where it was dropped
        assert dropped and got[j] == list(walk(8, sets[j]))[:len(got[j])]
        assert got[j][-1].n == 6 and sum(g.n == 6 for g in got[j]) == sixes[j] // 2
        for i, (ps, stream) in enumerate(zip(sets, got)):
            if i != j:
                assert stream == list(walk(8, ps)), ps.label

    def test_dropping_every_set_ends_the_walk(self, monkeypatch):
        # once no bit is left the walk ends: no graph after the send, and no
        # level built past the one it was sent in
        calls = 0
        next_level = enumeration._next_level

        def counted(*args):
            nonlocal calls
            calls += 1
            return next_level(*args)

        monkeypatch.setattr(enumeration, "_next_level", counted)
        sets = characterized_classes()
        graphs = walk_sets(8, sets)
        for g, _ in graphs:
            if g.n == 5:
                graphs.send((1 << len(sets)) - 1)
                break
        assert calls == 4
        assert list(graphs) == []
        assert calls == 4


class TestStreams:
    def test_round_trip(self, tmp_path, levels6):
        path = tmp_path / "graphs.g6"
        count = write_graph6_stream(path, levels6[5])
        assert count == 21
        back = list(read_graph6_stream(path))
        assert back == list(levels6[5])

    def test_header_and_blank_lines(self, tmp_path):
        path = tmp_path / "in.g6"
        path.write_text(">>graph6<<Bw\n\nBg\n")
        graphs = list(read_graph6_stream(path))
        assert [g.n for g in graphs] == [3, 3]
        assert [g.m for g in graphs] == [3, 2]

    def test_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.g6"
        path.write_text("Bw\n:sparse\n")
        with pytest.raises(Graph6Error, match=r"bad\.g6:2: "):
            list(read_graph6_stream(path))
        path.write_bytes(b"Bw\nE~\xc3g\n")
        with pytest.raises(Graph6Error, match=r"bad\.g6:2: byte 2 value 195 "):
            list(read_graph6_stream(path))
