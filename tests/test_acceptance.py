"""Acceptance battery: ten end-to-end criteria with one printed line each.

Each criterion prints "ACCEPTANCE <k>: PASS/FAIL - <detail>" through the
capture bypass, so the lines land in the console under plain pytest runs.
All equality checks are exact; the only budgets are the generous wall-clock
ceilings stated next to the two fast criteria.
"""

import hashlib
import os
import time

from edgeconn import (
    CHARACTERIZED_PAIRS,
    bowtie,
    bridged_triangles,
    canonical_form,
    characterized_sets,
    condition_soundness,
    connected_level,
    cut_interior_sweep,
    edge_connectivity,
    from_graph6,
    intersect_characterizations,
    is_free,
    min_degree,
    mine_witnesses,
    parse_pattern_set,
    pattern_equivalent,
    to_graph6,
    vertex_connectivity,
    verify_pattern_set,
)
from edgeconn.oracles import (
    connected_class_count_oracle,
    degree_sequence_census,
    edge_cut_oracle,
    vertex_cut_oracle,
)


# free graphs scanned at n <= 9, as in the committed reports/equality_scans.json;
# P4's count is the sum of OEIS A000669 over n = 2..9
DEEP_SCANNED = {"P4": 1170, "H1,P5": 35117, "Z2,P6": 26639, "Z2,T1_1_3": 25160}


def _announce(capsys, num: int, ok: bool, detail: str):
    with capsys.disabled():
        print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def test_criterion_01_cut_invariants_match_oracles(capsys):
    """Edge and vertex connectivity agree with brute-force cuts, n <= 6."""
    t0 = time.perf_counter()
    mismatches = []
    total = 0
    for n in range(2, 7):
        for g in connected_level(n):
            total += 1
            if edge_connectivity(g) != edge_cut_oracle(g):
                mismatches.append(("edge", n))
            if vertex_connectivity(g) != vertex_cut_oracle(g):
                mismatches.append(("vertex", n))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and total == 142 and elapsed < 10.0
    detail = (
        f"both cut invariants match exhaustive-cut oracles on all {total}"
        f" connected graphs with 2<=n<=6, {len(mismatches)} mismatches,"
        f" {elapsed:.1f}s (budget 10s)"
    )
    _announce(capsys, 1, ok, detail)
    assert ok, detail


def test_criterion_02_enumerator_counts(capsys):
    """Class counts 1,1,2,6,21,112,853 plus an order-independent oracle."""
    t0 = time.perf_counter()
    expected = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
    got = {n: len(connected_level(n)) for n in expected}
    oracle = {n: connected_class_count_oracle(n) for n in range(1, 7)}
    forms7 = {canonical_form(g) for g in connected_level(7)}
    elapsed = time.perf_counter() - t0
    ok = (
        got == expected
        and all(oracle[n] == expected[n] for n in oracle)
        and len(forms7) == 853
        and elapsed < 60.0
    )
    detail = (
        f"connected-class counts {tuple(got[n] for n in sorted(got))} match the"
        f" known sequence, the permutation-orbit oracle agrees for n<=6, and"
        f" the 853 order-7 classes have distinct canonical forms,"
        f" {elapsed:.1f}s (budget 60s)"
    )
    _announce(capsys, 2, ok, detail)
    assert ok, detail


def test_criterion_03_single_pattern_characterization(capsys):
    """The path on four vertices is exactly the single-pattern boundary."""
    t0 = time.perf_counter()
    held = verify_pattern_set(parse_pattern_set("P4"), 9)
    broken = verify_pattern_set(parse_pattern_set("P5"), 8)
    elapsed = time.perf_counter() - t0
    ok = (
        held.held
        and held.graphs_scanned == DEEP_SCANNED["P4"]
        and not broken.held
        and len(broken.counterexamples) == 16
        and broken.counterexamples[0] == "EqhO"
    )
    detail = (
        f"P4-free keeps kappa'=delta on all {held.graphs_scanned} free graphs"
        f" with n<=9; P5-free already fails {len(broken.counterexamples)} times"
        f" by n<=8 (first: EqhO), {elapsed:.0f}s"
    )
    _announce(capsys, 3, ok, detail)
    assert ok, detail


def test_criterion_04_characterized_pairs_hold(capsys, order_nine_passes):
    """All three characterized pairs keep the equality through n=9.

    The records come from the session's one order-9 pass per set, which the
    stream pins in test_enumeration.py read as well; the time shown is that
    of the three scans.
    """
    outcomes = [(text, order_nine_passes[text][2])
                for text in CHARACTERIZED_PAIRS["kappa_prime_delta"]]
    elapsed = sum(rec.elapsed_ms for _, rec in outcomes) / 1000.0
    ok = all(rec.held and rec.graphs_scanned == DEEP_SCANNED[text] for text, rec in outcomes)
    scanned = ", ".join(f"{text}: {rec.graphs_scanned}" for text, rec in outcomes)
    detail = (
        f"zero counterexamples with n<=9 for each characterized pair"
        f" (free graphs scanned {scanned}), {elapsed:.0f}s"
    )
    _announce(capsys, 4, ok, detail)
    assert ok, detail


def test_criterion_05_witnesses_beyond_the_boundary(capsys):
    """Every strict extension of the characterized sets admits a witness.

    The five pairs are mined in one walk; each witness is revalidated on its
    own."""
    t0 = time.perf_counter()
    texts = ("H1,P6", "Z3,P6", "Z2,P7", "Z2,T1_1_4", "K1_4,P5")
    pairs = [parse_pattern_set(text) for text in texts]
    bad = []
    found = []
    for text, pair, rec in zip(texts, pairs, mine_witnesses(pairs, 9)):
        if rec is None:
            bad.append(text)
            continue
        g = from_graph6(rec.witness)
        if not (is_free(g, pair) and edge_connectivity(g) < min_degree(g) and g.n <= 9):
            bad.append(text)
        else:
            found.append(f"{text}: {rec.witness} (order {g.n})")
    elapsed = time.perf_counter() - t0
    ok = not bad
    detail = (
        f"independent revalidation passed for every mined witness"
        f" [{'; '.join(found)}], failures: {bad or 'none'}, {elapsed:.0f}s"
    )
    _announce(capsys, 5, ok, detail)
    assert ok, detail


def test_criterion_06_sufficient_conditions_sound(capsys):
    """None of the eight hypotheses ever fires on an inequality graph, n <= 8."""
    t0 = time.perf_counter()
    sweep = condition_soundness(8)
    elapsed = time.perf_counter() - t0
    violations = sweep.counterexamples
    ok = not violations and sweep.graphs_scanned == 12112
    detail = (
        f"eight sufficient conditions fired {dict(sweep.tallies)['hypotheses_fired']} times over"
        f" {sweep.graphs_scanned} connected graphs with n<=8 and never against"
        f" the equality, violations: {len(violations)}, {elapsed:.0f}s"
    )
    _announce(capsys, 6, ok, detail)
    assert ok, detail


def test_criterion_07_other_equalities_characterized(capsys):
    """The vertex-connectivity analogues hold for their characterized sets."""
    t0 = time.perf_counter()
    failures = []
    for target in ("kappa_kappa_prime", "kappa_delta"):
        for ps in characterized_sets(target):
            rec = verify_pattern_set(ps, 8, target=target)
            if not rec.held:
                failures.append(rec.claim_id)
    elapsed = time.perf_counter() - t0
    ok = not failures
    detail = (
        f"kappa=kappa' holds for P3 and its five characterized pairs and"
        f" kappa=delta for P3 and its three, all with n<=8,"
        f" failures: {failures or 'none'}, {elapsed:.0f}s"
    )
    _announce(capsys, 7, ok, detail)
    assert ok, detail


def test_criterion_08_bowtie_degree_sequence_unique(capsys):
    """(4,2,2,2,2) pins down the bowtie among connected order-5 graphs."""
    t0 = time.perf_counter()
    census = degree_sequence_census(5, (4, 2, 2, 2, 2))
    forms = {canonical_form(g) for g in census}
    elapsed = time.perf_counter() - t0
    ok = (
        len(census) == 15
        and forms == {canonical_form(bowtie())}
    )
    detail = (
        f"exactly {len(census)} labeled connected graphs realize the degree"
        f" sequence (4,2,2,2,2) and every one is the bowtie"
        f" ({len(forms)} class), {elapsed:.1f}s"
    )
    _announce(capsys, 8, ok, detail)
    assert ok, detail


def test_criterion_09_minimum_cuts_leave_interiors(capsys):
    """Whenever kappa' < delta, both cut sides keep interior structure."""
    t0 = time.perf_counter()
    sweep = cut_interior_sweep(8)
    elapsed = time.perf_counter() - t0
    gap = dict(sweep.tallies)["gap_graphs"]
    failures = len(sweep.counterexamples)
    ok = failures == 0 and gap > 0
    detail = (
        f"all {gap} connected graphs with n<=8 showing kappa'<delta keep an"
        f" interior vertex with an interior neighbor on both sides of the"
        f" recorded minimum cut, failures: {failures}, {elapsed:.0f}s"
    )
    _announce(capsys, 9, ok, detail)
    assert ok, detail


def test_criterion_10_characterization_intersection(capsys):
    """Crossing the two characterized lists recovers the joint pairs."""
    t0 = time.perf_counter()
    meet = intersect_characterizations(
        characterized_sets("kappa_kappa_prime"),
        characterized_sets("kappa_prime_delta"),
        6,
    )
    want = [parse_pattern_set(t) for t in CHARACTERIZED_PAIRS["kappa_delta"]]
    missing = [
        w.label
        for w in want
        if not any(pattern_equivalent(w, got) for got in meet)
    ]
    elapsed = time.perf_counter() - t0
    ok = not missing and len(meet) == len(want)
    detail = (
        f"the intersection yields {len(meet)} maximal sets and each"
        f" characterized pair of the joint equality appears up to mutual"
        f" ordering equivalence, missing: {missing or 'none'}, {elapsed:.1f}s"
    )
    _announce(capsys, 10, ok, detail)
    assert ok, detail


def test_battery_used_the_advertised_depth():
    """Guard: order nine, the battery's depth, is the known full level.

    The count is OEIS A001349(9); the digest is the sha256 prefix of the
    level's graph6 lines, each followed by "\n".
    """
    workers = int(os.environ.get("EDGECONN_WORKERS", "1"))
    level = connected_level(9, workers)
    stream = "".join(to_graph6(g) + "\n" for g in level)
    assert len(level) == 261080
    assert hashlib.sha256(stream.encode("ascii")).hexdigest()[:16] == "33d0be56b3f11eca"
