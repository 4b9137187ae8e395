"""Scan verdicts, witness mining, the witness sweep, and list intersection."""

from itertools import combinations, permutations

import pytest

from edgeconn import (
    CHARACTERIZED_PAIRS,
    CHARACTERIZED_SINGLE,
    GraphError,
    TARGETS,
    VerdictRecord,
    WitnessRecord,
    characterized_sets,
    complete_graph,
    condition_soundness,
    connected_level,
    contains_induced,
    cut_interior_sweep,
    edge_connectivity,
    from_graph6,
    intersect_characterizations,
    is_free,
    min_degree,
    mine_witness,
    mine_witnesses,
    parse_pattern_set,
    pattern_equivalent,
    pattern_set,
    pattern_preceq,
    scan_claims,
    to_graph6,
    verify_pattern_set,
    walk,
    witness_sweep,
)
from edgeconn import enumeration, verify
from edgeconn.verify import WITNESS_PAIRS, _scan


class TestTargets:
    def test_target_table_complete(self):
        assert set(TARGETS) == {"kappa_prime_delta", "kappa_kappa_prime", "kappa_delta"}
        assert set(CHARACTERIZED_SINGLE) == set(TARGETS)
        assert set(CHARACTERIZED_PAIRS) == set(TARGETS)

    def test_characterized_sets_shape(self):
        for target in TARGETS:
            sets = characterized_sets(target)
            assert len(sets[0].patterns) == 1
            assert all(len(ps.patterns) == 2 for ps in sets[1:])

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError):
            verify_pattern_set(parse_pattern_set("P4"), 5, target="kappa_prime")
        with pytest.raises(ValueError):
            characterized_sets("delta_delta")


class TestVerdicts:
    def test_single_pattern_small_scan(self):
        rec = verify_pattern_set(parse_pattern_set("P4"), 6)
        assert rec.claim_id == "kappa_prime_delta:P4"
        assert rec.held and rec.counterexamples == ()
        assert rec.n_max == 6
        assert rec.graphs_scanned > 0
        assert rec.elapsed_ms >= 0

    def test_known_counterexamples_reported(self):
        rec = verify_pattern_set(parse_pattern_set("P5"), 6)
        assert not rec.held
        assert rec.counterexamples == ("EqhO",)

    def test_pair_scan(self):
        rec = verify_pattern_set(parse_pattern_set("Z2,P6"), 6)
        assert rec.claim_id == "kappa_prime_delta:{Z2,P6}"
        assert rec.held

    def test_other_targets(self):
        rec = verify_pattern_set(parse_pattern_set("P3"), 6, target="kappa_delta")
        assert rec.claim_id == "kappa_delta:P3"
        assert rec.held
        rec2 = verify_pattern_set(parse_pattern_set("P4"), 6, target="kappa_kappa_prime")
        assert not rec2.held

    def test_scan_bounds_checked(self):
        with pytest.raises(GraphError):
            verify_pattern_set(parse_pattern_set("P4"), 1)
        with pytest.raises(GraphError):
            verify_pattern_set(parse_pattern_set("P4"), 10)
        with pytest.raises(GraphError):
            verify_pattern_set(parse_pattern_set("P4"), 11)

    def test_as_dict_schema(self):
        rec = verify_pattern_set(parse_pattern_set("K3"), 5)
        d = rec.as_dict()
        assert list(d) == ["claim_id", "n_max", "graphs_scanned", "elapsed_ms", "counterexamples"]
        assert isinstance(d["counterexamples"], list)
        # the sweeps give the same record, with one count between the scan and its timing
        for sweep, tally in ((condition_soundness, "hypotheses_fired"),
                             (cut_interior_sweep, "gap_graphs")):
            rec = sweep(5)
            assert isinstance(rec, VerdictRecord) and rec.held
            d = rec.as_dict()
            assert list(d) == ["claim_id", "n_max", "graphs_scanned", tally,
                               "elapsed_ms", "counterexamples"]
            assert d["graphs_scanned"] == 1 + 2 + 6 + 21
            assert d[tally] == dict(rec.tallies)[tally]

    def test_scan_counts_only_free_graphs(self, levels6):
        ps = parse_pattern_set("K1_3")
        rec = verify_pattern_set(ps, 6)
        want = sum(1 for n in range(2, 7) for g in levels6[n] if is_free(g, ps))
        assert rec.graphs_scanned == want

    def test_expansion_shrinks_free_class(self, levels6):
        """A preceq-lower set scans a subset of the graphs and of the failures."""
        low = parse_pattern_set("P4")
        high = parse_pattern_set("P5")
        assert pattern_preceq(low, high)
        rec_low = verify_pattern_set(low, 6)
        rec_high = verify_pattern_set(high, 6)
        assert rec_low.graphs_scanned <= rec_high.graphs_scanned
        assert set(rec_low.counterexamples) <= set(rec_high.counterexamples)


def without_timing(record):
    return {k: v for k, v in record.as_dict().items() if k != "elapsed_ms"}


class TestScanClaims:
    def test_campaign_claims_match_per_claim_scans(self):
        # the 14 campaign claims (10 distinct classes) from one union walk,
        # against each claim's own scan over walk(8, set)
        claims = [(t, ps) for t in TARGETS for ps in characterized_sets(t)]
        assert len(claims) == 14
        got = scan_claims(claims, 8)
        want = []
        for target, ps in claims:
            left, right = TARGETS[target]

            def check(g, counts, left=left, right=right):
                return () if left(g) == right(g) else (to_graph6(g),)

            want.append(_scan(f"{target}:{ps.label}", 8, walk(8, ps), check))
        assert [without_timing(r) for r in got] == [without_timing(r) for r in want]

    @pytest.mark.parametrize("claims, message", [
        ([], "at least one claim"),
        ([("kappa_prime_delta", parse_pattern_set("P4")),
          ("kappa_prime", parse_pattern_set("P5"))], "unknown target"),
    ], ids=["no-claims", "unknown-target"])
    def test_bad_claims_raise_before_the_walk(self, claims, message, monkeypatch):
        monkeypatch.setattr(verify, "walk_sets", None)
        with pytest.raises(ValueError, match=message):
            scan_claims(claims, 8)


class TestWitnessMining:
    def test_least_z2_p7_witness_is_gqgsqg_at_order_eight(self):
        # the least witness is the order-8 member of family 6, K_{2,2} bridged to K_{2,2}
        rec = mine_witness(parse_pattern_set("Z2,P7"), 8)
        assert rec is not None
        assert rec.witness == "GqGSQG"
        assert rec.kappa_prime < rec.delta

    def test_enumerated_route(self):
        # a witness exists at n=6 already
        rec = mine_witness(parse_pattern_set("C4,C5"), 6)
        assert rec is not None
        assert rec.witness == "EqhO"

    def test_absent_within_budget(self):
        # pair-free graphs keep the equality through n=6 for this pair
        assert mine_witness(parse_pattern_set("Z2,P6"), 6) is None

    def test_no_z2_p7_witness_up_to_order_six(self):
        # the least witness has 8 vertices, and the only order-6 gap graph contains Z2
        assert mine_witness(parse_pattern_set("Z2,P7"), 6) is None

    def test_bounds(self):
        with pytest.raises(GraphError):
            mine_witness(parse_pattern_set("Z2,P7"), 12)

    def test_order_of_tokens_does_not_matter(self):
        a = mine_witness(parse_pattern_set("P6,H1"), 8)
        b = mine_witness(parse_pattern_set("H1,P6"), 8)
        assert a is not None and b is not None
        assert a.witness == b.witness


class TestMineWitnesses:
    def test_each_pair_gets_the_first_gap_graph_of_its_walk(self):
        pairs = [parse_pattern_set(text) for text in WITNESS_PAIRS]
        got = mine_witnesses(pairs, 8)
        assert len(got) == len(pairs)
        for pair, rec in zip(pairs, got):
            first = next(g for g in walk(8, pair) if edge_connectivity(g) < min_degree(g))
            assert rec is not None, pair.label
            assert (rec.pair, rec.witness, rec.kappa_prime, rec.delta) == (
                pair, to_graph6(first), edge_connectivity(first), min_degree(first))

    def test_found_and_missing_pairs_keep_their_places(self):
        # at order 6 only the pairs whose least witness is EqhO have one
        got = mine_witnesses([parse_pattern_set(text) for text in WITNESS_PAIRS], 6)
        assert [None if rec is None else rec.witness for rec in got] == [
            None, "EqhO", None, None, "EqhO", "EqhO"]

    def test_no_pairs_raises_before_the_walk(self, monkeypatch):
        monkeypatch.setattr(enumeration, "_next_level", None)
        with pytest.raises(GraphError, match="at least one pattern set"):
            mine_witnesses([], 8)

    def test_witness_sweep_is_one_walk_that_stops_at_the_last_witness(self, monkeypatch):
        # the last least witness has order 8, so a depth-9 sweep builds the
        # levels of orders 2..8 once and never the order-9 level
        walks = levels = 0
        walk_sets, next_level = verify.walk_sets, enumeration._next_level

        def counted_walk(*args):
            nonlocal walks
            walks += 1
            return walk_sets(*args)

        def counted_level(*args):
            nonlocal levels
            levels += 1
            return next_level(*args)

        monkeypatch.setattr(verify, "walk_sets", counted_walk)
        monkeypatch.setattr(enumeration, "_next_level", counted_level)
        rows = witness_sweep(9)
        assert all(row["witness"] is not None for row in rows)
        assert (walks, levels) == (1, 7)


class TestWitnessRecordValidation:
    def test_rejects_wrong_gap(self):
        with pytest.raises(ValueError):
            WitnessRecord(parse_pattern_set("C4,C5"), "EqhO", 1, 3)

    def test_rejects_non_free_witness(self):
        with pytest.raises(ValueError):
            WitnessRecord(parse_pattern_set("K3"), "EqhO", 1, 2)

    def test_rejects_equality_graph(self):
        g6 = to_graph6(complete_graph(4))
        with pytest.raises(ValueError):
            WitnessRecord(parse_pattern_set("C4,C5"), g6, 3, 3)

    def test_accepts_valid(self):
        rec = WitnessRecord(parse_pattern_set("C4,C5"), "EqhO", 1, 2)
        assert rec.as_dict()["pair"] == "{C4,C5}"


def use_catalogue(monkeypatch, *pairs):
    """Stand in for the witness sweep's pair list."""
    from edgeconn import verify

    monkeypatch.setattr(verify, "WITNESS_PAIRS", pairs)


class TestWitnessSweep:
    def test_rejects_pair_below_base(self, monkeypatch):
        use_catalogue(monkeypatch, "Z2,P6")
        with pytest.raises(ValueError, match="at or below characterized set"):
            witness_sweep(6)

    def test_rejects_pair_below_some_other_base(self, monkeypatch):
        # strictly above the singleton but below a characterized pair
        use_catalogue(monkeypatch, "H1,P6", "K3,K1_3")
        with pytest.raises(ValueError, match="K3,K1_3"):
            witness_sweep(6)

    def test_successful_sweep(self):
        rows = witness_sweep(8)
        assert [r["pair"] for r in rows] == [
            "{H1,P6}", "{Z3,P6}", "{Z2,P7}", "{Z2,T1_1_4}", "{K1_4,P5}", "{K1_3,P5}",
        ]
        assert [r["relation"] for r in rows] == ["strict-extension"] * 4 + ["incomparable"] * 2
        for row in rows:
            assert row["witness"] is not None, row["pair"]
            assert row["kappa_prime"] < row["delta"]

    def test_rows_pinned_and_least(self, levels7):
        """The six rows at n_max 8, the same at n_max 9, each witness of least order."""
        try:
            import networkx as nx
        except ImportError:
            nx = None
        rows = witness_sweep(8)
        assert [(r["pair"], r["witness"], from_graph6(r["witness"]).n, r["kappa_prime"],
                 r["delta"], r["relation"]) for r in rows] == [
            ("{H1,P6}", "FqIPO", 7, 1, 2, "strict-extension"),
            ("{Z3,P6}", "EqhO", 6, 1, 2, "strict-extension"),
            ("{Z2,P7}", "GqGSQG", 8, 1, 2, "strict-extension"),
            ("{Z2,T1_1_4}", "GqGSQG", 8, 1, 2, "strict-extension"),
            ("{K1_4,P5}", "EqhO", 6, 1, 2, "incomparable"),
            ("{K1_3,P5}", "EqhO", 6, 1, 2, "incomparable"),
        ]
        assert witness_sweep(9) == rows
        for row in rows:
            pair = parse_pattern_set(row["pair"].strip("{}"))
            g = from_graph6(row["witness"])
            if nx is not None:
                nx_g = nx.Graph(g.edges())
                assert nx.edge_connectivity(nx_g) == row["kappa_prime"], row["pair"]
                assert min(d for _, d in nx_g.degree()) == row["delta"], row["pair"]
            # least order, by the unfiltered levels rather than the free walk
            smaller = [h for n in range(2, g.n) for h in levels7[n]
                       if is_free(h, pair) and edge_connectivity(h) < min_degree(h)]
            assert smaller == [], row["pair"]

    def test_relation_follows_the_pair_not_its_place(self, monkeypatch):
        use_catalogue(monkeypatch, "K1_3,P5", "Z2,P7")
        rows = witness_sweep(8)
        assert [(r["pair"], r["relation"]) for r in rows] == [
            ("{K1_3,P5}", "incomparable"), ("{Z2,P7}", "strict-extension"),
        ]

    def test_missing_witness_row(self):
        # kappa' < delta needs at least six vertices
        rows = witness_sweep(5)
        assert rows[0] == {"pair": "{H1,P6}", "witness": None, "relation": "strict-extension"}
        assert all(r["witness"] is None for r in rows)


# the kappa = kappa' by kappa' = delta meet, by max_order
JOINT_MEET = {
    3: ["P3"],
    4: ["{K1_3,Z1}", "{P4,Z1}"],
    **dict.fromkeys((5, 6, 7), ["{P4,H0}", "{Z1,P5}", "{Z1,T1_1_2}"]),
}


class TestIntersection:
    def test_joint_lists_for_both_equalities(self):
        """Crossing the two lists recovers the maximal sets of the joint one."""
        kkp = characterized_sets("kappa_kappa_prime")
        kpd = characterized_sets("kappa_prime_delta")
        meet = intersect_characterizations(kkp, kpd, 6)
        want = [parse_pattern_set(t) for t in ("H0,P4", "Z1,P5", "Z1,T1_1_2")]
        assert len(meet) == len(want)
        for w in want:
            assert any(pattern_equivalent(w, got) for got in meet), w.label

    def test_covers_characterized_joint_target(self):
        # every characterized set of the joint equality is at or below a meet
        # element; the meet keeps only the maximal ones, absorbing P3
        kkp = characterized_sets("kappa_kappa_prime")
        kpd = characterized_sets("kappa_prime_delta")
        meet = intersect_characterizations(kkp, kpd, 6)
        joint = characterized_sets("kappa_delta")
        for ps in joint:
            assert any(pattern_preceq(ps, got) for got in meet), ps.label

    def test_idempotent_on_maximal_sets(self):
        pairs = [parse_pattern_set(t) for t in CHARACTERIZED_PAIRS["kappa_prime_delta"]]
        meet = intersect_characterizations(pairs, pairs, 6)
        assert len(meet) == len(pairs)
        for ps in pairs:
            assert any(pattern_equivalent(ps, got) for got in meet), ps.label

    def test_dominated_input_absorbed(self):
        # P4 sits strictly below each pair, so self-crossing drops it
        kpd = characterized_sets("kappa_prime_delta")
        meet = intersect_characterizations(kpd, kpd, 6)
        assert len(meet) == 3
        assert all(len(ps.patterns) == 2 for ps in meet)

    def test_singleton_cross(self):
        meet = intersect_characterizations(
            parse_pattern_set("P3"), parse_pattern_set("P4"), 6
        )
        assert len(meet) == 1
        assert pattern_equivalent(meet[0], parse_pattern_set("P3"))

    @pytest.mark.parametrize("target, single", [("kappa_kappa_prime", "P3"),
                                                ("kappa_prime_delta", "P4")])
    def test_singleton_meet_at_pair_width(self, target, single):
        # k = 2, so covering draws of two members such as {P3,K1_3} or
        # {P3,P4} are tried; each is equivalent to or below the single
        # pattern, and the meet must still be that pattern alone
        meet = intersect_characterizations(
            characterized_sets(target), [parse_pattern_set(single)], 6
        )
        assert [(ps.label, [p.label for p in ps.patterns]) for ps in meet] == [(single, [single])]

    @pytest.mark.parametrize("max_order, n_candidates", [(4, 55), (5, 496)])
    def test_exact_against_every_small_set(self, max_order, n_candidates):
        # every set of one or two connected graphs of order <= max_order that
        # is at or below a set of each list is at or below a returned set,
        # every returned set is such a set, and no returned set is below another
        universe = [g for n in range(1, max_order + 1) for g in connected_level(n)]
        candidates = [pattern_set((g, "x")) for g in universe]
        candidates += [pattern_set((g, "x"), (h, "y")) for g, h in combinations(universe, 2)]
        assert len(candidates) == n_candidates
        kkp = characterized_sets("kappa_kappa_prime")
        kpd = characterized_sets("kappa_prime_delta")
        kd = characterized_sets("kappa_delta")
        for a, b in ((kkp, kpd), (kpd, kpd), (kd, kkp), (kkp, kkp)):
            meet = intersect_characterizations(a, b, max_order)

            def valid(h):
                return (any(pattern_preceq(h, x) for x in a)
                        and any(pattern_preceq(h, y) for y in b))

            assert all(valid(m) for m in meet)
            for h in candidates:
                if valid(h):
                    assert any(pattern_preceq(h, m) for m in meet), h.label
            for x, y in permutations(meet, 2):
                assert not pattern_preceq(x, y), (x.label, y.label)

    @pytest.mark.parametrize("max_order", sorted(JOINT_MEET))
    def test_joint_meet_pinned_by_order(self, max_order):
        """The kappa = kappa' by kappa' = delta meet at each order, crossed
        either way round, and each member of it lies in a member of the
        crossed lists."""
        kkp = characterized_sets("kappa_kappa_prime")
        kpd = characterized_sets("kappa_prime_delta")
        meet = intersect_characterizations(kkp, kpd, max_order)
        assert [ps.label for ps in meet] == JOINT_MEET[max_order]
        swapped = intersect_characterizations(kpd, kkp, max_order)
        assert [ps.label for ps in swapped] == JOINT_MEET[max_order]
        hosts = [p.graph for ps in kkp + kpd for p in ps.patterns]
        for ps in meet:
            for p in ps.patterns:
                assert p.graph.n <= max_order, (ps.label, p.label)
                assert any(contains_induced(h, p.graph) for h in hosts), (ps.label, p.label)

    def test_max_order_validated(self):
        with pytest.raises(ValueError):
            intersect_characterizations(
                parse_pattern_set("P3"), parse_pattern_set("P4"), 0
            )
        with pytest.raises(ValueError):
            intersect_characterizations(
                parse_pattern_set("P3"), parse_pattern_set("P4"), 8
            )
