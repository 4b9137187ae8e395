"""The benchmark's traced names resolve on the package, and tracing undoes itself.

``benchmark/tracing.py`` rebinds functions by module and attribute name, so a
rename in ``src/`` would otherwise surface only in the benchmark's traced run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("edgeconn_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_resolves():
    for mod_name, attr, span in load_tracing().SPANS:
        module = importlib.import_module("edgeconn." + mod_name)
        assert callable(getattr(module, attr, None)), f"{span}: edgeconn.{mod_name}.{attr}"


def bindings():
    """Every name bound in every loaded edgeconn module, plus the TARGETS tuples."""
    out = {}
    for key, mod in sorted(sys.modules.items()):
        if key == "edgeconn" or key.startswith("edgeconn."):
            out.update({(key, name): value for name, value in vars(mod).items()})
    verify = sys.modules["edgeconn.verify"]
    out.update({("TARGETS", key): entry for key, entry in verify.TARGETS.items()})
    return out


def test_install_then_restore_keeps_every_binding():
    tracing = load_tracing()
    for mod_name, _, _ in tracing.SPANS:
        importlib.import_module("edgeconn." + mod_name)
    before = bindings()
    scan = sys.modules["edgeconn.verify"]._scan
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert sys.modules["edgeconn.verify"]._scan is not scan
    finally:
        tracer.restore()
    after = bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []


def test_traced_scan_and_cold_level_run_then_restore():
    # every traced wrapper must accept the calls the package makes through it
    tracing = load_tracing()
    from edgeconn import enumeration, parse_pattern_set, verify

    before = bindings()
    saved = dict(enumeration._levels)
    tracer = tracing.Tracer()
    try:
        enumeration._levels.clear()
        enumeration._levels[1] = saved[1]
        tracer.install()
        record = verify.verify_pattern_set(parse_pattern_set("P4"), 6)
        level = enumeration.connected_level(6)
    finally:
        tracer.restore()
        enumeration._levels.clear()
        enumeration._levels.update(saved)
    assert record.held and record.graphs_scanned == 1 + 2 + 5 + 12 + 33
    assert len(level) == 112
    assert tracer.spans["iso.canonical"][0] > 0
    assert tracer.spans["enumeration.expand_children"][0] > 0
    assert tracer.counters["verify.graphs_scanned"] == record.graphs_scanned
    after = bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
