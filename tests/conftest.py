import hashlib

import pytest

from edgeconn import (
    CHARACTERIZED_PAIRS,
    CHARACTERIZED_SINGLE,
    TARGETS,
    connected_level,
    parse_pattern_set,
    to_graph6,
    walk_sets,
)
from edgeconn.verify import _scan


@pytest.fixture(scope="session")
def levels6():
    """Connected graphs per order through n=6, shared across the session."""
    return {n: connected_level(n) for n in range(1, 7)}


@pytest.fixture(scope="session")
def levels7():
    return {n: connected_level(n) for n in range(1, 8)}


@pytest.fixture(scope="session")
def levels8():
    return {n: connected_level(n) for n in range(1, 9)}


@pytest.fixture(scope="session")
def order_nine_passes():
    """One walk_sets(9, ...) pass over the characterized kappa' = delta sets,
    shared by the order-nine stream pins and the acceptance battery.

    Maps each set's text to (free graphs per order n = 2..9, sha256 prefix of
    their graph6 lines each followed by a newline, the VerdictRecord of the
    kappa' = delta scan).  The record comes from ``verify._scan``, the loop
    ``scan_claims`` runs, over the set's graphs of the union walk, in walk
    order, with the target's equality as the check; the check also counts
    and hashes each graph it is handed.
    """
    target = "kappa_prime_delta"
    left, right = TARGETS[target]
    texts = (CHARACTERIZED_SINGLE[target], *CHARACTERIZED_PAIRS[target])
    sets = [parse_pattern_set(text) for text in texts]
    streams = [[] for _ in sets]
    for g, live in walk_sets(9, sets):
        for i, stream in enumerate(streams):
            if live >> i & 1:
                stream.append(g)
    passes = {}
    for text, patterns, stream in zip(texts, sets, streams):
        counts = [0] * 8
        digest = hashlib.sha256()

        def check(g, _tallies):
            line = to_graph6(g)
            counts[g.n - 2] += 1
            digest.update((line + "\n").encode("ascii"))
            return () if left(g) == right(g) else (line,)

        rec = _scan(f"{target}:{patterns.label}", 9, stream, check)
        passes[text] = (counts, digest.hexdigest()[:16], rec)
    return passes
