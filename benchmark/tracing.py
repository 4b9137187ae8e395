"""Layer spans for the traced benchmark pass, installed from outside the package.

Every traced function is rebound in each ``edgeconn`` module whose namespace
holds it, so calls that go through a module's own globals (``enumeration``
calls ``_canonical_rows`` and ``_non_cut_vertices`` that way) are caught as
well as calls through the public names.  ``verify.TARGETS`` holds direct
references to the invariant functions, so its tuples are rebound too.
``restore`` puts every original binding back.

Spans are aggregated in memory per name as [calls, total seconds, self
seconds]; self time is a span's duration minus the durations of the spans
it directly contains.
"""

from __future__ import annotations

import sys
import time

# (module, attribute, span name); the span for connected_level is split by order
SPANS = (
    ("enumeration", "connected_level", "enumeration.level"),
    ("enumeration", "expand_children", "enumeration.expand_children"),
    ("enumeration", "_non_cut_vertices", "enumeration.non_cut"),
    ("iso", "_canonical_rows", "iso.canonical"),
    ("iso", "_refine", "iso.refine"),
    ("iso", "is_free", "iso.is_free"),
    ("invariants", "min_degree", "invariants.min_degree"),
    ("invariants", "edge_connectivity", "invariants.edge_connectivity"),
    ("invariants", "vertex_connectivity", "invariants.vertex_connectivity"),
    ("invariants", "cut_interior_property", "invariants.cut_interior_property"),
    ("invariants", "compute_report", "invariants.compute_report"),
    ("conditions", "condition_implication_rows", "conditions.implication_rows"),
    ("matching", "matching_number", "matching.matching_number"),
    ("graphs", "from_graph6", "graphs.from_graph6"),
    ("graphs", "to_graph6", "graphs.to_graph6"),
    ("verify", "_scan", "verify.scan"),
)


class Tracer:
    """Aggregated spans and counters for one traced pass."""

    def __init__(self):
        self.spans: dict[str, list] = {}
        self.counters = {
            "enumeration.children": 0,
            "enumeration.child_canonicalisations": 0,
            "iso.is_free.free": 0,
            "conditions.hypotheses_fired": 0,
            "verify.graphs_scanned": 0,
            "verify.counterexamples": 0,
        }
        self._stack: list[float] = []
        self._saved: list[tuple[dict, object, object]] = []
        self._expanding = -2  # parent order of the expand_children call in progress

    def _wrap(self, name, fn, after=None):
        """Return fn timed as a span; ``name`` may be a function of the arguments."""
        stack = self._stack
        clock = time.perf_counter
        fixed = None if callable(name) else self.spans.setdefault(name, [0, 0.0, 0.0])

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                inner = stack.pop()
                stats = fixed
                if stats is None:
                    stats = self.spans.setdefault(name(args), [0, 0.0, 0.0])
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - inner
                if stack:
                    stack[-1] += dur
            if after is not None:
                after(args, result)
            return result

        return traced

    def _note_parent(self, fn):
        def expand_children(parent):
            self._expanding = parent.n
            try:
                return fn(parent)
            finally:
                self._expanding = -2
        return expand_children

    def _after_hooks(self):
        c = self.counters

        def children(args, result):
            c["enumeration.children"] += len(result)

        def canonical(args, result):
            if args[0] == self._expanding + 1:
                c["enumeration.child_canonicalisations"] += 1

        def free(args, result):
            c["iso.is_free.free"] += result

        def fired(args, result):
            c["conditions.hypotheses_fired"] += sum(row.holds for row in result)

        def scanned(args, result):
            c["verify.graphs_scanned"] += result.graphs_scanned
            c["verify.counterexamples"] += len(result.counterexamples)

        return {
            "enumeration.expand_children": children,
            "iso.canonical": canonical,
            "iso.is_free": free,
            "conditions.implication_rows": fired,
            "verify.scan": scanned,
        }

    def install(self):
        """Rebind every traced function in every loaded edgeconn module."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "edgeconn" or k.startswith("edgeconn.")]
        hooks = self._after_hooks()
        replaced = {}
        for mod_name, attr, span in SPANS:
            orig = getattr(sys.modules["edgeconn." + mod_name], attr)
            fn = self._note_parent(orig) if attr == "expand_children" else orig
            if attr == "connected_level":
                name = lambda args, span=span: f"{span}.n{args[0]}"
            else:
                name = span
            wrapped = self._wrap(name, fn, hooks.get(span))
            replaced[id(orig)] = wrapped
            for mod in modules:
                ns = vars(mod)
                if ns.get(attr) is orig:
                    self._saved.append((ns, attr, orig))
                    ns[attr] = wrapped
        targets = sys.modules["edgeconn.verify"].TARGETS
        for key, entry in list(targets.items()):
            self._saved.append((targets, key, entry))
            targets[key] = tuple(replaced.get(id(x), x) for x in entry)

    def restore(self):
        """Put every original binding back, newest first."""
        while self._saved:
            ns, key, orig = self._saved.pop()
            ns[key] = orig

    def self_total(self) -> float:
        return sum(stats[2] for stats in self.spans.values())

    def snapshot(self) -> dict:
        return {
            "spans": {k: list(v) for k, v in self.spans.items()},
            "counters": dict(self.counters),
        }
