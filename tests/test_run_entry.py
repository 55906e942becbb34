"""The run-entry rule: every function of ``src/kacforge`` is entered by a run.

One command matrix runs under ``sys.setprofile``: the seed test's cases at
the default seed, structured output on the sample pairs, ``validate`` on
every sample and malformed input and ``fusion`` on the sample rings, two bad
command lines, every benchmark instance with its canonical form and its
problem check, and the in-process scripts on the smoke tests' argv.  The
rule fails on any ``def`` of ``src/kacforge`` that the matrix never enters,
unless ``KEPT_ENTRY`` names the reader that keeps it, and on a kept ``def``
that the matrix enters or that is gone.  ``__repr__`` is skipped by name: a
report never prints an object, only a failing test or a debugger does.

The matrix runs in a fresh interpreter, so that no cache an earlier test
filled hides the function behind it.  A ``def`` is matched to the code
objects the profiler sees by its file, name and first line, which for a
decorated function is the line of its first decorator, as in
``co_firstlineno``.
"""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kacforge import cli
from kacforge.config import DEFAULT_SEED

from . import test_seed_invariance as seed_cases
from .test_audit_digests import WORKLOADS
from .test_scripts import IN_PROCESS, load_script

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "kacforge"
SAMPLES = ROOT / "sample_inputs"
DATA = ROOT / "tests" / "data"

# defs no run enters, each with the reader that keeps it
KEPT_ENTRY = {
    "hopf.KacAlgebra.basis_label": "acceptance criterion 14",
    "hopf.validate_morphism": "acceptance criterion 14",
    "hopf.compact_restriction_morphism": "acceptance criterion 14",
    "hopf.coset_space_dimension": "acceptance criterion 14",
    "matched.beta_kernel_elements": "acceptance criterion 14",
    "matched.compact_subpair": "acceptance criterion 14",
    "crossed.inverse_fourier": "acceptance criterion 10",
    "library.special_linear_group": "acceptance criterion 07",
    "groups.abelian_invariants": "acceptance criterion 06",
    "groups._smith_invariants": "acceptance criterion 06",
    "groups.Presentation.__post_init__": "acceptance criterion 06",
    "groups.AbelianGroup.__str__": "acceptance criterion 06",
    "hopf._associativity_count": "ROADMAP item 4: the full count behind "
                                 "a failed Light's test",
    "crossed.check_length": "ROADMAP item 9",
    "crossed.invariantize_length": "ROADMAP item 9",
    "reps.mor_dim_haar": "perfbench TRACED",
    "reps.mor_dim_solver": "perfbench TRACED",
    "reps.decompose": "perfbench TRACED",
}


def definitions(path, module):
    """Every ``def`` of the file at ``path``, nested ones too, as
    ``{(name, first line): "module.qualified.name"}``; the first line is
    that of the first decorator when there is one."""
    found = {}

    def visit(node, prefix):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([sub.lineno] + [d.lineno
                                            for d in sub.decorator_list])
                found[(sub.name, first)] = f"{prefix}.{sub.name}"
                visit(sub, f"{prefix}.{sub.name}")
            elif isinstance(sub, ast.ClassDef):
                visit(sub, f"{prefix}.{sub.name}")
            else:
                visit(sub, prefix)

    visit(ast.parse(path.read_text()), module)
    return found


def entered_code(run):
    """The (file, name, first line) of every code object that ``run()``
    enters, read by a profiler over the call."""
    seen = set()

    def record(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return {(str(Path(code.co_filename).resolve()), code.co_name,
             code.co_firstlineno) for code in seen}


def never_entered(paths, entered):
    """Qualified names of the defs in ``paths`` (module name -> file) that
    ``entered`` does not hold, ``__repr__`` skipped, in file order."""
    out = []
    for module, path in paths.items():
        where = str(Path(path).resolve())
        for (name, line), qual in definitions(path, module).items():
            if name != "__repr__" and (where, name, line) not in entered:
                out.append(qual)
    return out


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return fn(*args)


def command_matrix():
    """Every run the rule counts, with its output discarded."""
    for name, cmd in seed_cases.CASES:
        seed_cases.report_lines(cmd, name, DEFAULT_SEED)
    pairs = [str(p) for p in sorted(SAMPLES.glob("*.pair"))]
    _quiet(cli.main, ["--output", "structured", "build", *pairs])
    inputs = sorted(SAMPLES.iterdir()) + sorted(
        p for p in DATA.iterdir() if p.suffix != ".json")
    for path in inputs:
        _quiet(cli.main, ["validate", str(path)])
    for path in sorted(SAMPLES.glob("*.ring")):
        _quiet(cli.main, ["fusion", str(path)])
    # a bad literal reaches the seed's type hook, and the parser's refusal
    for argv in (["--seed", "0xZZ", "build"], ["no-such-command"]):
        assert _quiet(cli.main, argv) == 1
    for workload in WORKLOADS.WORKLOADS:
        for instance in WORKLOADS.setup(workload, DEFAULT_SEED):
            result = instance.run()
            instance.canonical(result)
            instance.problems(result)
    for script, argv in IN_PROCESS.values():
        _quiet(load_script(script).main, argv)


_CHILD = """
import json
from tests import test_run_entry as rule
entered = rule.entered_code(rule.command_matrix)
paths = {p.stem: p for p in sorted(rule.SRC.glob("*.py"))}
print(json.dumps(rule.never_entered(paths, entered)))
"""


@pytest.fixture(scope="module")
def unentered():
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD], cwd=ROOT, capture_output=True,
        text=True, timeout=300,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                 PYTHONPATH=os.pathsep.join([str(SRC.parent), str(ROOT)])))
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_every_def_is_entered_by_a_run_or_kept(unentered):
    assert [q for q in unentered if q not in KEPT_ENTRY] == []


def test_every_kept_def_exists_and_no_run_enters_it(unentered):
    # a kept def that a run came to enter, or that went, leaves the dict
    assert sorted(set(KEPT_ENTRY) - set(unentered)) == []


PLANTED = '''\
import functools


def used(n):
    return helper(n) + 1


@functools.cache
def helper(n):
    return n


class Box:
    def read(self):
        return 1

    def tested_only(self):
        return 2

    def __repr__(self):
        return "Box()"


def tested_only():
    return used(0)
'''


def test_rule_finds_a_def_only_a_test_reaches(tmp_path, monkeypatch):
    path = tmp_path / "planted_entry.py"
    path.write_text(PLANTED)
    monkeypatch.syspath_prepend(str(tmp_path))
    import planted_entry as mod

    entered = entered_code(lambda: (mod.used(1), mod.Box().read()))
    # what a test calls outside the matrix counts for nothing
    assert mod.tested_only() == 1 and mod.Box().tested_only() == 2
    assert repr(mod.Box()) == "Box()"
    assert never_entered({"planted": path}, entered) == [
        "planted.Box.tested_only", "planted.tested_only"]
