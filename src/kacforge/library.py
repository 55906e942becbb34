"""Named small groups and the standard worked instances used across tests,
scripts, and the CLI."""

import numpy as np

from .groups import (direct_product, group_from_cayley,
                     group_from_matrices_mod, group_from_permutations)
from .matched import (deform_by_chi_G, deform_by_chi_Gamma, derive_actions,
                      matched_pair_from_compact_action,
                      matched_pair_from_discrete_action)


def cyclic_group(n):
    table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    return group_from_cayley(table, labels=[f"c{i}" if i else "e" for i in range(n)])


def symmetric_group(n):
    if n == 1:
        return group_from_permutations([], degree=1)
    gens = [tuple([1, 0] + list(range(2, n)))]
    if n > 2:
        gens.append(tuple(list(range(1, n)) + [0]))
    return group_from_permutations(gens, degree=n)


def stabilizer_and_cycle(n):
    """S_n with two subgroups that factor it exactly: the stabilizer of the
    last point and the cyclic group of the n-cycle (0 1 ... n-1), each as a
    list of elements of S_n."""
    S = symmetric_group(n)
    stab = [i for i, p in enumerate(S.permutations) if p[n - 1] == n - 1]
    cycle = S.permutations.index(tuple(range(1, n)) + (0,))
    return S, stab, S.closure([cycle])


def special_linear_group(n, p):
    """SL_n over the field with p elements, generated by elementary matrices."""
    gens = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            m = np.eye(n, dtype=int)
            m[i, j] = 1
            gens.append(m.tolist())
    return group_from_matrices_mod(gens, modulus=p)


# ---------------------------------------------------------------------------
# standard matched pairs


def _elements_of_order(G, k):
    return np.flatnonzero(G.element_orders() == k).tolist()


def pair_s3_split():
    """S3 factored as <transposition> * <rotation>: compact side normal."""
    S3 = symmetric_group(3)
    r = S3.closure([_elements_of_order(S3, 2)[0]])
    k = S3.closure([_elements_of_order(S3, 3)[0]])
    return derive_actions(S3, r, k, name="s3-split")


def pair_s3_split_dual():
    """S3 factored the other way round: discrete side normal."""
    S3 = symmetric_group(3)
    r = S3.closure([_elements_of_order(S3, 3)[0]])
    k = S3.closure([_elements_of_order(S3, 2)[0]])
    return derive_actions(S3, r, k, name="s3-split-dual")


def pair_s4():
    """S4 = (point stabilizer of the last letter) * <4-cycle>; both actions
    genuinely nontrivial."""
    return derive_actions(*stabilizer_and_cycle(4), name="s4-cyclic4")


def pair_z6_abelian():
    """Z/6 split into its 2-part and 3-part: both actions trivial."""
    Z6 = cyclic_group(6)
    return derive_actions(Z6, Z6.closure([3]), Z6.closure([2]), name="z6-abelian")


def pair_sign_on_z7():
    """S3 acting on Z/7 through the parity sign (odd permutations negate)."""
    S3 = symmetric_group(3)
    Z7 = cyclic_group(7)
    sign = np.array([1 if _perm_parity(p) == 0 else -1 for p in S3.permutations])
    alpha = np.array([[(s * k) % 7 for k in range(7)] for s in sign],
                     dtype=np.int32)
    return matched_pair_from_compact_action(S3, Z7, alpha, name="sign-on-z7")


def _perm_parity(p):
    inv = sum(1 for i in range(len(p)) for j in range(i + 1, len(p))
              if p[i] > p[j])
    return inv % 2


def pair_conjugation(G, subgroup_elements, name=None):
    """Crossed-product pair: a subgroup acting on its ambient group by
    conjugation; discrete-side action trivial."""
    R, embed = G.subgroup(subgroup_elements)
    C = G.cayley
    alpha = C[C[embed], G.inverse[embed][:, None]]     # r g r^-1
    return matched_pair_from_compact_action(
        R, G, alpha, name=name or f"conj({R.order} on {G.order})")


def pair_conj_s3_rotations():
    """Rotation subgroup of S3 acting on S3 by conjugation."""
    S3 = symmetric_group(3)
    rot = S3.closure([_elements_of_order(S3, 3)[0]])
    return pair_conjugation(S3, rot, name="conj-s3-rot")


# ---------------------------------------------------------------------------
# deformed pairs


def pair_dihedral7_twist():
    """The parity action on Z/7 with its compact side enlarged to Lam x Z/7,
    Lam a reflection subgroup of S3, then twisted by the projection onto Lam;
    the twisted compact group is dihedral of order 14."""
    base = pair_sign_on_z7()
    R, nk0 = base.discrete, base.compact.order
    Lam, embed = R.subgroup(R.closure([_elements_of_order(R, 2)[0]]))
    K = direct_product(Lam, base.compact)    # index = lam * 7 + k
    lam_idx, k_idx = np.divmod(np.arange(K.order), nk0)
    alpha = lam_idx * nk0 + base.alpha[:, k_idx]
    mp0 = matched_pair_from_compact_action(R, K, alpha,
                                           name="dihedral7-twist-ext")
    chi = np.asarray(embed, dtype=np.int32)[lam_idx]
    return deform_by_chi_G(mp0, chi, name="dihedral7-twist")


def pair_double_s3_twist():
    """A compact S3 conjugating the second coordinate of a discrete S3 x S3,
    twisted by the projection onto the first coordinate; the twisted
    discrete group has order 36 over a compact S3."""
    S3 = symmetric_group(3)
    R = direct_product(S3, S3)               # index = c * 6 + h
    c_idx, h_idx = np.divmod(np.arange(36), 6)
    C = S3.cayley                            # beta_g(c, h) = (c, g^-1 h g)
    beta = c_idx * 6 + C[C[S3.inverse[:, None], h_idx], np.arange(6)[:, None]]
    mp0 = matched_pair_from_discrete_action(R, S3, beta,
                                            name="double-s3-twist-base")
    return deform_by_chi_Gamma(mp0, c_idx.astype(np.int32),
                               name="double-s3-twist")


# ---------------------------------------------------------------------------
# the shared instance corpus


def corpus_pairs():
    """All standard instances, largest last; every algebra dimension <= 256."""
    return [
        pair_z6_abelian(),
        pair_s3_split(),
        pair_s3_split_dual(),
        pair_conj_s3_rotations(),
        pair_s4(),
        pair_sign_on_z7(),
        pair_dihedral7_twist(),
        pair_double_s3_twist(),
    ]

