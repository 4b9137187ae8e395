import hashlib

import pytest

from edgeconn import (
    CHARACTERIZED_PAIRS,
    CHARACTERIZED_SINGLE,
    TARGETS,
    connected_level,
    parse_pattern_set,
    to_graph6,
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
    """One walk to order 9 per characterized kappa' = delta set, shared by the
    order-nine stream pins and the acceptance battery.

    Maps each set's text to (free graphs per order n = 2..9, sha256 prefix of
    their graph6 lines each followed by a newline, the VerdictRecord of the
    kappa' = delta scan).  The record comes from ``verify._scan``, the loop
    ``verify_pattern_set`` runs, with the same check; the check also counts
    and hashes each graph it is handed.
    """
    target = "kappa_prime_delta"
    left, right = TARGETS[target]
    passes = {}
    for text in (CHARACTERIZED_SINGLE[target], *CHARACTERIZED_PAIRS[target]):
        patterns = parse_pattern_set(text)
        counts = [0] * 8
        stream = hashlib.sha256()

        def check(g, _tallies):
            line = to_graph6(g)
            counts[g.n - 2] += 1
            stream.update((line + "\n").encode("ascii"))
            return () if left(g) == right(g) else (line,)

        rec = _scan(f"{target}:{patterns.label}", 9, patterns, 1, check)
        passes[text] = (counts, stream.hexdigest()[:16], rec)
    return passes
