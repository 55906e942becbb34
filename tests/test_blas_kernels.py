"""The portable goldens hold on more than the BLAS kernel that wrote them.

An OpenBLAS built with ``DYNAMIC_ARCH`` picks its kernels from the CPU when
it loads, and ``OPENBLAS_CORETYPE`` overrides that pick for one process.
This runs the structure, fusion, pair and group golden tests in a fresh
process, once under the Haswell (AVX2) kernels and once under the Prescott
(SSE3) ones, so a report that prints kernel-dependent round-off fails here
on any host with such a build.

The report and dual goldens are left out on purpose: they still move with
the kernel.  The irrep bases come from a degenerate ``eigh`` (ROADMAP
item 2), and the ``crossed`` residuals and sampled draws pass through those
bases (ROADMAP item 3).
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


@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_portable_goldens_pass_under_another_kernel(coretype):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config = blas.get("openblas configuration", "")
    if "DYNAMIC_ARCH" not in config:
        pytest.skip(f"BLAS {blas.get('name')!r} has no DYNAMIC_ARCH kernels "
                    f"to pick (configuration {config!r})")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype, PYTHONPATH=path)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *GOLDENS], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=600)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]
