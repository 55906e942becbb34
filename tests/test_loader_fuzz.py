"""Mutated sample inputs: the loaders either succeed or raise a package
error, never anything else.

Each example takes one file of ``sample_inputs/`` (next to copies of the
files it references) and mutates it one of three ways: replace one token,
truncate it after a line, or drop one block.  Replacement tokens are
negative, zero, non-numeric, at least 2^63, or 64, past the order of
every sample group; a large in-range value is never used, as a
``degree:`` of 2^40 would ask for an identity permutation of that length.
"""

import re
import shutil
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from kacforge.errors import KacforgeError
from kacforge.io_formats import parse_inputs

SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"
FILES = sorted(p.name for p in SAMPLES.iterdir())
REPLACEMENTS = ["-1", "-7", str(-2 ** 63 - 1), "0", "64", "abc", "1/0",
                str(2 ** 63), "99999999999999999999"]
BLOCK_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_-]*:\s*(#.*)?$")


def _replace_token(lines, data):
    spots = [(i, m.span()) for i, line in enumerate(lines)
             for m in re.finditer(r"[^\s:#]+", line.split("#", 1)[0])]
    i, (lo, hi) = data.draw(st.sampled_from(spots), label="token")
    value = data.draw(st.sampled_from(REPLACEMENTS), label="value")
    lines[i] = lines[i][:lo] + value + lines[i][hi:]
    return lines


def _truncate(lines, data):
    return lines[:data.draw(st.integers(0, len(lines) - 1), label="keep")]


def _drop_block(lines, data):
    heads = [i for i, line in enumerate(lines) if BLOCK_RE.match(line)]
    if not heads:
        return lines
    start = data.draw(st.sampled_from(heads), label="block")
    stop = start + 1
    while stop < len(lines) and not re.match(r"^[A-Za-z][\w-]*:",
                                             lines[stop]):
        stop += 1
    return lines[:start] + lines[stop:]


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(FILES),
       mutate=st.sampled_from([_replace_token, _truncate, _drop_block]),
       data=st.data())
def test_mutated_inputs_load_or_raise_a_package_error(name, mutate, data):
    lines = mutate((SAMPLES / name).read_text().splitlines(), data)
    with tempfile.TemporaryDirectory() as tmp:
        for other in FILES:
            shutil.copy(SAMPLES / other, tmp)
        target = Path(tmp) / name
        target.write_text("\n".join(lines) + "\n")
        try:
            parse_inputs([str(target)])
        except KacforgeError:
            pass
