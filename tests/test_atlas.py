"""Named graphs, the token vocabulary, and certified witness families."""

import hashlib
from itertools import product

import pytest

from edgeconn import (
    CertificateError,
    are_isomorphic,
    bowtie,
    bridged_triangles,
    canonical_form,
    complete_bipartite,
    complete_graph,
    contains_induced,
    cycle_graph,
    edge_connectivity,
    from_graph6,
    is_free,
    make_family_member,
    min_degree,
    mine_witness,
    parse_pattern_set,
    parse_pattern_token,
    path_graph,
    recognize_pattern,
    spider,
    star,
    to_graph6,
    triangle_with_tail,
)
from edgeconn.atlas import _FAMILY_RANGES, _family_graph


class TestNamedGraphs:
    def test_degenerate_names_coincide(self):
        assert path_graph(1) == complete_graph(1)
        assert are_isomorphic(path_graph(2), complete_graph(2))
        assert are_isomorphic(star(1), complete_graph(2))
        assert are_isomorphic(complete_bipartite(2, 2), cycle_graph(4))

    def test_orders(self):
        for i in range(1, 6):
            assert triangle_with_tail(i).n == i + 3
        for i, j, k in ((1, 1, 1), (1, 1, 3), (2, 2, 2)):
            assert spider(i, j, k).n == i + j + k + 1
        assert bowtie().n == 5 and bowtie().m == 6
        assert bridged_triangles().n == 6 and bridged_triangles().m == 7

    def test_exact_numbering(self):
        z1 = triangle_with_tail(1)
        assert z1.edges() == [(0, 1), (0, 2), (1, 2), (2, 3)]
        t = spider(1, 2, 1)
        assert t.edges() == [(0, 1), (0, 2), (0, 4), (2, 3)]
        h1 = bridged_triangles()
        assert h1.has_edge(2, 3) and not h1.has_edge(1, 4)
        k23 = complete_bipartite(2, 3)
        assert k23.degree_sequence() == (3, 3, 2, 2, 2)
        assert k23.degree(0) == 3

    def test_degree_sequences(self):
        assert bowtie().degree_sequence() == (4, 2, 2, 2, 2)
        assert bridged_triangles().degree_sequence() == (3, 3, 2, 2, 2, 2)
        assert spider(1, 1, 3).degree_sequence() == (3, 2, 2, 1, 1, 1)
        assert star(4).degree_sequence() == (4, 1, 1, 1, 1)


class TestPatternVocabulary:
    def test_token_round_trips(self):
        for token in ("P5", "C6", "K4", "K2_3", "Z2", "T1_1_3", "H0", "H1"):
            pat = parse_pattern_token(token)
            assert pat.label == token
            assert recognize_pattern(pat.graph) == token

    def test_inline_graph6_token(self):
        g6 = to_graph6(bridged_triangles())
        pat = parse_pattern_token("g6:" + g6)
        assert are_isomorphic(pat.graph, bridged_triangles())
        # the recognizer still prefers the vocabulary name
        assert recognize_pattern(pat.graph) == "H1"

    def test_recognizer_falls_back_to_graph6(self):
        assert recognize_pattern(complete_graph(1)) == "P1"
        from edgeconn import from_edges

        # the bull: a triangle with two horns; not in the vocabulary
        bull = from_edges(5, [(0, 1), (1, 2), (2, 0), (1, 3), (2, 4)])
        name = recognize_pattern(bull)
        assert name.startswith("g6:")
        assert are_isomorphic(from_graph6(name[3:]), bull)

    def test_recognizer_table_pinned(self):
        # the 73 classes of the 77 vocabulary names, each under the first
        # listed name; sha256 of "<form> <name>\n" per entry, in table order
        from edgeconn import atlas

        recognize_pattern(complete_graph(1))
        entries = "".join(f"{form} {name}\n" for form, name in atlas._RECOGNIZE.items())
        assert len(atlas._RECOGNIZE) == 73
        assert hashlib.sha256(entries.encode()).hexdigest() == (
            "118405c9f0bf81ffed1da3e7a5d114deb77ab772c858e6d94c00d95ff042c9eb")

    def test_bad_tokens(self):
        for bad in ("", "Q7", "P", "Px", "K2_", "T1_1", "Z0", "C2", "g6:Bww",
                    # parameters are ASCII digits: no sign, no inner space, no other script
                    "P+4", "P 4", "P\u0664", "K\u0663_3",
                    # and carry no leading zero, so a name has one spelling
                    "P04", "T1_1_03", "K01_3"):
            with pytest.raises(ValueError):
                parse_pattern_token(bad)
        # past graph6's 62 vertices a token is refused before its graph is built
        for big in ("P63", "K1_62", "T20_20_22", "P2000"):
            with pytest.raises(ValueError, match="at most 62"):
                parse_pattern_token(big)

    def test_set_parsing(self):
        ps = parse_pattern_set("Z2, P6")
        assert ps.label == "{Z2,P6}"
        assert [g.n for g in ps.check_order()] == [5, 6]
        for text in (" , ", "", "Z2,,P6", "Z2,", ",P6"):
            with pytest.raises(ValueError, match="empty field in pattern list"):
                parse_pattern_set(text)
        with pytest.raises(ValueError):
            parse_pattern_set("P4,P4")


class TestContainmentLadder:
    def test_small_patterns_embed_in_bigger(self):
        assert contains_induced(bridged_triangles(), triangle_with_tail(1))
        assert contains_induced(triangle_with_tail(2), triangle_with_tail(1))
        assert contains_induced(path_graph(6), path_graph(5))
        assert contains_induced(spider(1, 1, 3), spider(1, 1, 2))
        assert contains_induced(spider(1, 1, 2), star(3))
        assert not contains_induced(path_graph(6), complete_graph(3))
        assert not contains_induced(bowtie(), star(3))


class TestFamilies:
    def test_all_catalog_members_certify(self):
        specs = [
            (1, (3,)), (1, (4,)), (1, (7,)), (1, (16,)),
            (2, (4, 1)), (2, (5, 3)), (2, (30, 3)),
            (3, (3,)), (3, (11,)),
            (4, ()),
            (5, (2,)),
            (6, (2, 2)), (6, (4, 3)), (6, (16, 16)),
            (7, (2, 2)), (7, (5, 2)),
        ]
        for fam, params in specs:
            member = make_family_member(fam, params)
            g = member.graph
            assert edge_connectivity(g) == 1
            assert min_degree(g) >= 2
            assert all(ok for _, ok in member.certificate)

    def test_family_one_matches_bridged_triangles(self):
        member = make_family_member(1, (3,))
        assert are_isomorphic(member.graph, bridged_triangles())

    def test_parameter_ranges_enforced(self):
        bad = [
            (1, (2,)), (1, (17,)),
            (2, (3, 1)), (2, (4, 0)), (2, (4, 31)),
            (3, (2,)),
            (4, (1,)),
            (5, (3,)),
            (6, (1, 2)), (7, (2, 17)),
            (9, ()),
        ]
        for fam, params in bad:
            with pytest.raises(ValueError):
                make_family_member(fam, params)
        assert "bridge" in _FAMILY_RANGES[1]

    def test_members_past_graph6_limit_refused(self, monkeypatch):
        # family 2 reaches 2k + l - 1 = 89 vertices; the 196 members past 62
        # are refused before any certified fact is computed
        from edgeconn import atlas

        def no_certificate(*args):
            raise AssertionError("certified a member past 62 vertices")

        monkeypatch.setattr(atlas, "_family_certificate", no_certificate)
        refused = 0
        for k, l in product(range(4, 31), range(1, 31)):
            if 2 * k + l - 1 > 62:
                with pytest.raises(ValueError, match="at most 62"):
                    make_family_member(2, (k, l))
                refused += 1
        assert refused == 196

    def test_member_numbering_pinned(self):
        # every (family, params) within its bounds that _family_graph builds,
        # with its exact vertex numbering, order and edge list; the 196
        # family-2 members past 62 vertices are refused there
        from edgeconn import atlas

        lines = []
        for fam, (bounds, _) in atlas._FAMILIES.items():
            for params in product(*(range(lo, hi + 1) for lo, hi in bounds)):
                try:
                    g = _family_graph(fam, params)
                except ValueError as exc:
                    assert "at most 62" in str(exc), (fam, params)
                    continue
                lines.append(f"{fam} {params} {g.n} {g.edges()}")
        assert len(lines) == 1108
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest[:16] == "50d17911ebc6e8e8"

    def test_family_overlap_and_distinctness(self):
        # K_{2,2} is C4, so the smallest bridged-block members coincide
        assert are_isomorphic(
            make_family_member(2, (4, 1)).graph, make_family_member(6, (2, 2)).graph
        )
        bases = [
            make_family_member(1, (4,)).graph,
            make_family_member(2, (5, 1)).graph,
            make_family_member(3, (3,)).graph,
            make_family_member(4, ()).graph,
            make_family_member(5, (2,)).graph,
            make_family_member(6, (2, 2)).graph,
            make_family_member(7, (2, 2)).graph,
        ]
        forms = {canonical_form(g) for g in bases}
        assert len(forms) == 7

    def test_members_witness_the_listed_pairs(self):
        # each pair of the witness sweep has a family member free of it with
        # kappa' < delta; mining finds one of least order, never a larger one
        for text, fam, params in (
            ("H1,P6", 5, (2,)), ("Z3,P6", 1, (4,)), ("Z2,P7", 6, (2, 2)),
            ("Z2,T1_1_4", 6, (2, 2)), ("K1_4,P5", 1, (3,)), ("K1_3,P5", 1, (4,)),
        ):
            ps = parse_pattern_set(text)
            g = make_family_member(fam, params).graph
            assert is_free(g, ps), text
            assert edge_connectivity(g) < min_degree(g), text
            assert from_graph6(mine_witness(ps, g.n).witness).n <= g.n, text

    def test_certificate_failure_raises(self, monkeypatch):
        from edgeconn import atlas

        monkeypatch.setattr(
            atlas, "_family_certificate", lambda *a: [("kappa_prime=1", False)]
        )
        with pytest.raises(CertificateError):
            make_family_member(4, ())
