"""The portable goldens hold on more than the BLAS kernel that wrote them,
and every golden holds at one BLAS thread.

An OpenBLAS built with ``DYNAMIC_ARCH`` picks its kernels from the CPU when
it loads, and ``OPENBLAS_CORETYPE`` overrides that pick for one process.
This runs the structure, fusion, pair and group golden tests in a fresh
process, once under the Haswell (AVX2) kernels and once under the Prescott
(SSE3) ones, so a report that prints kernel-dependent round-off fails here
on any host with such a build.

The report and dual goldens are left out of that on purpose: they still
move with the kernel.  The irrep bases come from a degenerate ``eigh``
(ROADMAP item 8), and the ``crossed`` residuals and sampled draws pass
through those bases (ROADMAP item 9).

All six golden files also run in a fresh process under
``OPENBLAS_NUM_THREADS=1``, so a thread-count policy for small products
must leave every golden as it is.  ``groups.one_blas_thread``, the policy
the small products follow, restores the count it finds and does nothing
when the loaded BLAS exports no thread calls, and the corpus catalogs and
audit counts read the same at one and at two threads.
"""

import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kacforge import groups

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = [f"tests/test_{name}_golden.py"
           for name in ("structure", "fusion", "pair", "group")]
ALL_GOLDENS = sorted(str(path.relative_to(ROOT))
                     for path in (ROOT / "tests").glob("test_*_golden.py"))


def _run_goldens(files, **env):
    """pytest over ``files`` in a fresh process with ``env`` added."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *files], cwd=ROOT, env=dict(os.environ, PYTHONPATH=path, **env),
        capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]


@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_portable_goldens_pass_under_another_kernel(coretype):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config = blas.get("openblas configuration", "")
    if "DYNAMIC_ARCH" not in config:
        pytest.skip(f"BLAS {blas.get('name')!r} has no DYNAMIC_ARCH kernels "
                    f"to pick (configuration {config!r})")
    _run_goldens(GOLDENS, OPENBLAS_CORETYPE=coretype)


def test_every_golden_passes_at_one_blas_thread():
    assert len(ALL_GOLDENS) == 6
    _run_goldens(ALL_GOLDENS, OPENBLAS_NUM_THREADS="1")


# ---------------------------------------------------------------------------
# groups.one_blas_thread: small products at one OpenBLAS thread


def _thread_calls():
    calls = groups._blas_thread_calls()
    if calls is None:
        pytest.skip("the loaded BLAS exports no OpenBLAS thread calls")
    return calls


def test_one_blas_thread_restores_the_count_it_found():
    get, put = _thread_calls()
    before = get()
    try:
        put(2)                    # capped at the cores OpenBLAS started with
        found = get()
        with groups.one_blas_thread():
            assert get() == 1
        assert get() == found
        with pytest.raises(KeyError):
            with groups.one_blas_thread():
                raise KeyError("inside")
        assert get() == found
    finally:
        put(before)


def test_one_blas_thread_does_nothing_without_the_symbols(monkeypatch):
    """A loader whose libraries export no thread calls: the lookup finds
    none and the helper leaves the count alone."""
    get, put = _thread_calls()
    before = get()
    program = ctypes.CDLL(None)          # the interpreter's own symbols
    monkeypatch.setattr(ctypes, "CDLL", lambda path: program)
    groups._blas_thread_calls.cache_clear()
    try:
        assert groups._blas_thread_calls() is None
        put(2)
        found = get()
        with groups.one_blas_thread():
            assert get() == found
        assert get() == found
    finally:
        monkeypatch.undo()
        groups._blas_thread_calls.cache_clear()
        put(before)


_CATALOG_SCRIPT = """
import json
from kacforge import hopf, library, reps
out = {}
for mp in library.corpus_pairs():
    A = hopf.build_algebra(mp)
    cat = reps.enumerate_irreps(A)
    audit = reps.audit_fusion(A, cat)
    out[mp.name] = {
        "irreps": [[c.label, c.dim] for c in cat.canonical],
        "map": sorted(cat.equivalence_map.items()),
        "haar": [e.haar for e in audit.entries],
        "solver": [e.solver for e in audit.entries],
        "distinct": [d.mor_dim for d in audit.distinctness]}
print(json.dumps(out, sort_keys=True))
"""


def test_corpus_counts_and_catalogs_do_not_depend_on_the_thread_count():
    """The corpus catalogs and the audit's Haar and solver counts, each in a
    fresh process at one and at two OpenBLAS threads."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    outs = [subprocess.run(
        [sys.executable, "-c", _CATALOG_SCRIPT], cwd=ROOT, check=True,
        env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads),
        capture_output=True, text=True, timeout=600).stdout
        for threads in ("1", "2")]
    assert outs[0] == outs[1]
    assert len(json.loads(outs[0])) == 8
