"""Exact connectivity invariants and forbidden-subgraph verification for small graphs."""

from .graphs import (
    Graph,
    Graph6Error,
    GraphError,
    bipartition_mask,
    diameter,
    from_edges,
    from_graph6,
    induced,
    is_bipartite,
    is_connected,
    to_graph6,
)
from .invariants import (
    CutCertificate,
    InvariantReport,
    clique_number,
    compute_report,
    cut_interior_property,
    edge_connectivity,
    is_chordal,
    max_degree,
    min_degree,
    min_edge_cut,
    vertex_connectivity,
)
from .iso import (
    Pattern,
    PatternSet,
    are_isomorphic,
    canonical_form,
    contains_induced,
    find_induced,
    is_free,
    longest_induced_path_order,
    pattern_equivalent,
    pattern_preceq,
    pattern_set,
    pattern_strictly_preceq,
)
from .matching import matching_number, maximum_matching
from .conditions import (
    CONDITION_NAMES,
    Condition,
    ImplicationRow,
    condition_holds,
    condition_implication_rows,
)
from .enumeration import (
    MAX_ENUM_ORDER,
    connected_level,
    expand_children,
    read_graph6_stream,
    walk,
    walk_sets,
    write_graph6_stream,
)
from .atlas import (
    CertificateError,
    FamilyMember,
    bowtie,
    bridged_triangles,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    make_family_member,
    parse_pattern_set,
    parse_pattern_token,
    path_graph,
    recognize_pattern,
    spider,
    star,
    triangle_with_tail,
)
from .verify import (
    CHARACTERIZED_PAIRS,
    CHARACTERIZED_SINGLE,
    TARGETS,
    VerdictRecord,
    WitnessRecord,
    characterized_sets,
    condition_soundness,
    cut_interior_sweep,
    intersect_characterizations,
    mine_witness,
    mine_witnesses,
    scan_claims,
    verify_pattern_set,
    witness_sweep,
)
from .selftest import run_selftest

__version__ = "0.1.0"
