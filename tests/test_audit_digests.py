"""The corpus fusion audits reproduce the benchmark's reference digests.

The benchmark compares ``digest(canonical(run()))`` of each instance with
``perfbench/reference_digests.json`` only when it runs.  This test does the
same for the eight ``audit:*`` instances of certify-audit at the reference
seed, so a drift of any audit record, or a record that no longer
serialises to JSON, fails here too.  ``perfbench/workloads.py`` is loaded
from its file and nothing under ``perfbench/`` is written.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 0xC0FFEE


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


WORKLOADS = _workloads()
REFERENCE = json.loads((BENCH / "reference_digests.json").read_text())


@pytest.mark.parametrize("instance", WORKLOADS.corpus_audit(SEED),
                         ids=lambda inst: inst.name)
def test_audit_matches_reference_digest(instance):
    result = instance.run()
    assert instance.problems(result) == []
    assert WORKLOADS.digest(instance.canonical(result)) == \
        REFERENCE["certify-audit"][f"audit:{instance.name}"]
