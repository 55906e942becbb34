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
must leave every golden as it is.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
