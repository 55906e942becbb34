"""Golden digests of the crossed-product dual side.

For every pair with trivial discrete-side action (the corpus pairs and the
``sample_inputs/*.pair`` files) the sha256 of each of the following must
match the digest stored in ``tests/data/dual_digests.json``:

* the crossed ring labels and the label of ``candidates[g * base.n + x]``
  for every label (g, x);
* word lengths: the base ring on all labels and on each single label, the
  discrete group's element ring on its non-identity elements, and the
  crossed ring on each single label (values, or the error message);
* ``length_l0`` of those lengths, and ``invariantize_length`` of seeded
  integer base lengths;
* ``check_length`` of every length above and of seeded arbitrary vectors;
* ``fourier_values`` and ``inverse_fourier`` of seeded dual elements of the
  compact side (each row holds the inverse twice: the values are also the
  coefficients of the transform in the function algebra),
  ``graded_parts`` and ``crossed_fourier`` of seeded crossed dual elements;
* ``left_mult_matrix`` of seeded algebra vectors;
* ``compact_restriction_morphism`` onto every cyclic compact subgroup (or
  the ``NotMatched`` message where the action moves it);
* the bands and ratios of ``rd_inequality_sample``.

For the classical duals of S3, S4, D4, Q8 and SL(2, 3): the ``matrix_irreps``
matrices and characters, word lengths on the irrep ring, ``fourier_values``
and ``inverse_fourier`` of seeded dual elements, the ``measure_fourier``
blocks of the uniform, a point and seeded measures, and the restriction
morphisms of the function algebra onto every cyclic subgroup.

Floats are rounded to 9 decimals.  Regenerate the file (only when a change
of output is intended) with ``PYTHONPATH=src python -m tests.test_dual_golden``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from kacforge.crossed import (DualElement, check_length, classical_dual,
                              crossed_fourier, crossed_instance,
                              crude_poly_bound,
                              element_fusion_ring, fourier_values,
                              graded_parts, inverse_fourier,
                              invariantize_length, length_l0,
                              rd_inequality_sample, word_length)
from kacforge.errors import KacforgeError
from kacforge.groups import rng_from
from kacforge.hopf import build_algebra, compact_restriction_morphism
from kacforge.io_formats import load_pair
from kacforge.library import (corpus_pairs, special_linear_group,
                              symmetric_group)
from kacforge.matched import compact_subpair
from kacforge.measures import measure_fourier, uniform_measure

from .helpers import (delta_measure, dihedral_group, left_mult_matrix,
                      quaternion_group, random_rational_measure, trivial_pair)

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "data" / "dual_digests.json"
SEED = 0xD0A1


def _sha(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _r9(values):
    """Complex values as (real, imag) pairs rounded to 9 decimals, with
    -0.0 written as 0.0."""
    z = np.asarray(values, dtype=complex).ravel()
    return [(round(float(v.real), 9) + 0.0, round(float(v.imag), 9) + 0.0)
            for v in z]


def _blocks(a):
    return [(int(x), _r9(a.blocks[x])) for x in sorted(a.blocks)]


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except KacforgeError as exc:
        return ("error", type(exc).__name__, str(exc))


def _lengths(ring, gens):
    return _outcome(lambda: _r9(word_length(ring, gens)))


def _random_element(ring, rng, full=False):
    """Seeded dual element on a random nonempty support (every label when
    ``full``)."""
    if full:
        support = np.arange(ring.n)
    else:
        support = np.flatnonzero(rng.random(ring.n) < 0.5)
        if not len(support):
            support = np.array([int(rng.integers(ring.n))])
    blocks = {}
    for x in support:
        d = int(round(ring.dims[x]))
        blocks[int(x)] = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return DualElement(ring, blocks)


def _transforms(dual, salt):
    out = []
    for t in range(3):
        a = _random_element(dual.ring, rng_from(SEED, salt, 1, t),
                            full=(t == 0))
        vals = fourier_values(a, dual)
        out.append([_r9(vals), _blocks(inverse_fourier(vals, dual)),
                    _blocks(inverse_fourier(vals, dual))])
    return out


def _restrictions(mp):
    """Restriction morphism matrices onto each distinct cyclic subgroup of
    the compact side, rebuilt from their basis maps."""
    A = build_algebra(mp)
    K = mp.compact
    subsets = sorted({tuple(K.closure([g])) for g in range(K.order)})

    def restrict(subset):
        sub_mp, embed = compact_subpair(mp, list(subset))
        A0 = build_algebra(sub_mp)
        image = compact_restriction_morphism(A, A0, embed).image
        M = np.zeros((A0.dim + 1, A.dim))
        M[image, np.arange(A.dim)] = 1.0
        M = M[:-1]                      # the 0/1 matrix of the basis map
        return np.argwhere(M).tolist(), _r9(M[M != 0])
    return [(subset, _outcome(restrict, subset)) for subset in subsets]


def _beta_trivial_pairs():
    out = {mp.name: (lambda mp=mp: mp) for mp in corpus_pairs()
           if mp.beta_trivial}
    for path in sorted((ROOT / "sample_inputs").glob("*.pair")):
        mp = load_pair(str(path))
        if mp.beta_trivial:
            out[f"file-{path.stem}"] = lambda path=path: load_pair(str(path))
    return out


def crossed_digests(mp):
    inst = crossed_instance(mp)
    ring, base, R = inst.ring, inst.ring.base, mp.discrete
    out = {"labels": _sha(ring.labels),
           "candidates": _sha([inst.candidates[g * base.n + x].label
                               for g in range(R.order)
                               for x in range(base.n)])}

    nonid = [g for g in range(R.order) if g != R.identity]
    lbase = word_length(base, list(range(base.n)))
    gam_ring = element_fusion_ring(R)
    lgam = word_length(gam_ring, nonid)
    out["word-lengths"] = _sha([
        _r9(lbase), _r9(lgam),
        [_lengths(base, [x]) for x in range(base.n)],
        [_lengths(ring, [x]) for x in range(ring.n)]])
    l0 = length_l0(ring, lgam, lbase)
    out["length-l0"] = _sha(_r9(l0))

    seeded = [rng_from(SEED, 2, t).integers(0, 5, size=base.n).astype(float)
              for t in range(4)]
    out["invariantize"] = _sha([
        _r9(invariantize_length(v, ring.action)) for v in seeded])

    arbitrary = [(r, rng_from(SEED, 3, t, r.n).normal(size=r.n))
                 for t in range(3) for r in (base, ring)]
    out["check-length"] = _sha([
        round(check_length(r, v), 9)
        for r, v in [(base, lbase), (gam_ring, lgam), (ring, l0)]
        + [(base, v) for v in seeded] + arbitrary])

    out["fourier"] = _sha(_transforms(inst.dual, 4))
    crossed = []
    for t in range(3):
        a = _random_element(ring, rng_from(SEED, 5, t), full=(t == 0))
        parts = graded_parts(inst, a)
        crossed.append([[(g, _blocks(parts[g])) for g in sorted(parts)],
                        _r9(crossed_fourier(inst, a))])
    out["crossed-fourier"] = _sha(crossed)

    A = inst.algebra
    mats = []
    for t in range(3):
        rng = rng_from(SEED, 6, t)
        vec = (rng.normal(size=A.dim) + 1j * rng.normal(size=A.dim)) * \
            (rng.random(A.dim) < 0.4)
        mats.append(_r9(left_mult_matrix(A, vec)))
    out["left-mult"] = _sha(mats)
    out["restriction"] = _sha(_restrictions(mp))

    rd = rd_inequality_sample(inst, l0, crude_poly_bound(inst), samples=6,
                              seed=7)
    out["rd-ratios"] = _sha([(s.band, round(s.ratio, 9)) for s in rd.samples])
    return out


def classical_digests(G):
    dual = classical_dual(G)
    out = {"irreps": _sha([(mx.label, mx.dim,
                            _r9(np.asarray(mx.matrices)),
                            _r9(mx.character())) for mx in dual.irreps])}
    ring = dual.ring
    out["word-lengths"] = _sha([_r9(word_length(ring, list(range(ring.n)))),
                                [_lengths(ring, [x]) for x in range(ring.n)]])
    out["fourier"] = _sha(_transforms(dual, 8))
    measures = [uniform_measure(G), delta_measure(G, G.order - 1)] + [
        random_rational_measure(G, SEED, salt=(t,)) for t in range(3)]
    out["measure-fourier"] = _sha([_blocks(measure_fourier(mu, dual))
                                   for mu in measures])
    out["restriction"] = _sha(_restrictions(trivial_pair(G)))
    return out


_PAIRS = _beta_trivial_pairs()
_GROUPS = {"s3": lambda: symmetric_group(3), "s4": lambda: symmetric_group(4),
           "d4": lambda: dihedral_group(4), "q8": quaternion_group,
           "sl2-3": lambda: special_linear_group(2, 3)}


@pytest.mark.parametrize("name", list(_PAIRS))
def test_crossed_dual_side_matches_golden(name):
    stored = json.loads(DIGESTS.read_text())
    assert crossed_digests(_PAIRS[name]()) == stored[name]


@pytest.mark.parametrize("name", list(_GROUPS))
def test_classical_dual_matches_golden(name):
    stored = json.loads(DIGESTS.read_text())
    assert classical_digests(_GROUPS[name]()) == stored[f"classical-{name}"]


def test_golden_file_covers_every_instance():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(
        list(_PAIRS) + [f"classical-{name}" for name in _GROUPS])


if __name__ == "__main__":
    stored = {name: crossed_digests(make()) for name, make in _PAIRS.items()}
    stored.update({f"classical-{name}": classical_digests(make())
                   for name, make in _GROUPS.items()})
    DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
