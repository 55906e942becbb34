"""The benchmark's instances reproduce its reference digests.

The benchmark compares ``digest(canonical(run()))`` of each instance with
``perfbench/reference_digests.json`` only when it runs.  This test does the
same for every instance of both workloads at the reference seed: the eight
``audit:*`` and the four ``certify:*`` instances of certify-audit and every
exact-shadow pipeline.  So a drift of any record, or a record that no
longer serialises to JSON, fails here too.  ``perfbench/workloads.py`` is
loaded from its file and nothing under ``perfbench/`` is written.
"""

import importlib.util
import functools
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


@functools.cache
def instances(workload):
    """Name -> instance of a workload at the reference seed, built once."""
    return {inst.name: inst for inst in WORKLOADS.setup(workload, SEED)}


def test_every_instance_has_a_reference_digest():
    for workload in WORKLOADS.WORKLOADS:
        assert sorted(instances(workload)) == sorted(REFERENCE[workload])


@pytest.mark.parametrize("workload, name", [
    (workload, name) for workload, names in sorted(REFERENCE.items())
    for name in sorted(names) if not name.startswith("audit:")])
def test_instance_matches_reference_digest(workload, name):
    instance = instances(workload)[name]
    result = instance.run()
    assert instance.problems(result) == []
    assert WORKLOADS.digest(instance.canonical(result)) == \
        REFERENCE[workload][name]
