"""Builders that only tests read: small named groups, the plain function
algebra's pair, point and seeded measures, the dense left multiplication
and the plain-text structure dump.  Each is built from the package's
public constructors and stored tables."""

from fractions import Fraction

import numpy as np

from kacforge.groups import (group_from_cayley, group_from_matrices_mod,
                             group_from_permutations)
from kacforge.matched import matched_pair_from_compact_action
from kacforge.measures import FiniteMeasure, _random_counts


def dihedral_group(n):
    """Symmetries of the n-gon, order 2n, as permutations of the vertices."""
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((-i) % n for i in range(n))
    return group_from_permutations([rot, ref], degree=n)


def quaternion_group():
    """Order-8 quaternion group, realized inside 2x2 matrices over Z/3."""
    i_mat = [[0, 2], [1, 0]]   # i^2 = -1
    j_mat = [[1, 1], [1, 2]]   # j^2 = -1, j i j^-1 = i^-1
    G = group_from_matrices_mod([i_mat, j_mat], modulus=3)
    assert G.order == 8
    return G


def trivial_pair(K):
    """Discrete side trivial: plain function algebra of K downstream."""
    R = group_from_cayley([[0]], labels=["e"])
    return matched_pair_from_compact_action(
        R, K, np.arange(K.order, dtype=np.int32)[None, :],
        name=f"plain({K.order})")


def delta_measure(G, g):
    w = [Fraction(0)] * G.order
    w[g] = Fraction(1)
    return FiniteMeasure(G, tuple(w))


def random_rational_measure(G, seed, zero_at=None, salt=()):
    """Seeded exact measure; optionally forced to vanish at given points.
    Its counts are those the separation certificate's sample draws."""
    counts = _random_counts(G, seed, zero_at, salt)
    total = int(counts.sum())
    return FiniteMeasure(G, tuple(Fraction(int(c), total) for c in counts))


def left_mult_matrix(A, a):
    """Matrix of x -> a x in the standard basis of the algebra A."""
    out = np.zeros((A.dim, A.dim), dtype=complex)
    # basis i sends partner[i, s] to result[i, s]; these cells are distinct
    # over all (i, s)
    i = np.flatnonzero(a)
    out[A.result[i], A.partner[i]] += a[i, None]
    return out


def structure_dump(A):
    """Plain-text structure constants, stable across runs, for diffing."""
    lines = [f"# algebra {A.pair.name} dim {A.dim}"]
    for i in range(A.dim):
        lines.append(f"basis {i} {A.basis_label(i)}")
    partner = A.partner
    for i in range(A.dim):
        terms = [f"{j}:{m}" for j, m in zip(partner[i].tolist(),
                                            A.result[i].tolist())]
        lines.append(f"mul {i} " + " ".join(terms))
    lines.append("star " + " ".join(str(int(v)) for v in A.star_index))
    lines.append("antipode " + " ".join(str(int(v))
                                        for v in A.antipode_index))
    dl, dr = A.delta_left.tolist(), A.delta_right.tolist()
    for i in range(A.dim):
        pairs = ";".join(f"{j},{k}" for j, k in zip(dl[i], dr[i]))
        lines.append(f"delta {i} {pairs}")
    lines.append("counit " + " ".join(str(int(v)) for v in A.counit_vec))
    lines.append("haar " + " ".join(str(Fraction(int(h), A.nk))
                                    for h in A.haar_k))
    return "\n".join(lines) + "\n"
